//! Online cluster telemetry: windowed per-node/per-lane aggregates, a
//! health scorer and an SLO alert engine — all in *virtual* time.
//!
//! The observability layers built so far (profiler, traces, the
//! end-of-run [`MetricsRegistry`]) are post-mortem: one snapshot when
//! the run finishes. This module adds the online view an operator (or
//! an automated failover controller) actually works from — per-window,
//! per-node, per-lane aggregates plus declarative SLO rules evaluated
//! as windows close:
//!
//! - [`NodeProbe`] — the per-node recording side. Lives inside a node's
//!   shard during barrier-parallel phases (like `TraceState` /
//!   `FaultState`), so recording never synchronizes. Each probe keeps a
//!   short sorted list of *open* windows (`LaneAcc` per lane: ops,
//!   errors, retries, misses, bytes, latency [`Histogram`]).
//! - [`TelemetryHub`] — the serial aggregation side. At each virtual
//!   -time barrier the driver `ingest`s every probe's windows that lie
//!   strictly before the barrier, then `seal`s: closed windows become
//!   [`WindowRow`]s, the health scorer classifies each node
//!   ([`Health`]), and the alert engine steps every [`SloRule`].
//!   Because windows only close at barriers — and the worker-set
//!   guarantees no in-flight operation can end before the barrier it
//!   overshot — the whole pipeline reruns bit-identically.
//! - [`TelemetryReport`] — the exported result: all rows, the alert
//!   fire/clear log, an ASCII per-node health timeline and a JSON ops
//!   report, plus MTTD helpers for scoring detection against
//!   fault-engine ground truth.
//!
//! Switched at runtime like `trace`: a zero-width window
//! (`TelemetryConfig::window == ZERO`, [`NodeProbe::off`]) makes every
//! recorder an early-out, allocates nothing and exports no report.
//! Observation only: recording never feeds back into virtual time, RNG
//! streams or simulated state, so a run with the window on and the same
//! run with it off agree on every simulation result.

use crate::json::{self, Obj};
use crate::stats::{Histogram, MetricsRegistry};
use crate::time::SimTime;

/// A per-window metric an [`SloRule`] can evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Operations per second over the window.
    Qps,
    /// Median operation latency (ns) within the window.
    P50Ns,
    /// 99th-percentile operation latency (ns) within the window.
    P99Ns,
    /// Misses (remote/storage fetches) per operation.
    MissRate,
    /// Errors per attempted operation (`errs / (ops + errs)`).
    ErrRate,
    /// Retries per operation.
    RetryRate,
    /// Link bytes moved in the window.
    LinkBytes,
}

impl Metric {
    /// Stable snake_case name (used in rule grammar docs and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Metric::Qps => "qps",
            Metric::P50Ns => "p50_ns",
            Metric::P99Ns => "p99_ns",
            Metric::MissRate => "miss_rate",
            Metric::ErrRate => "err_rate",
            Metric::RetryRate => "retry_rate",
            Metric::LinkBytes => "link_bytes",
        }
    }
}

/// The condition side of an [`SloRule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleKind {
    /// Breach while `metric > limit` in the latest window.
    Above {
        /// Metric evaluated per window.
        metric: Metric,
        /// Exclusive upper bound for the healthy region.
        limit: f64,
    },
    /// Multi-window burn rate: breach only when the trailing mean over
    /// the `short` *and* the `long` window both exceed `budget` —
    /// the classic fast-burn/slow-burn SLO pair collapsed into one
    /// rule (short reacts, long confirms).
    BurnRate {
        /// Metric evaluated per window.
        metric: Metric,
        /// Budget both trailing means must exceed to breach.
        budget: f64,
        /// Short trailing-window length (windows).
        short: usize,
        /// Long trailing-window length (windows); no breach is possible
        /// until this many windows of history exist.
        long: usize,
    },
    /// Absence / missing heartbeat: breach once the node has reported
    /// zero operations for `windows` consecutive windows.
    Absence {
        /// Consecutive silent windows that constitute a breach.
        windows: usize,
    },
}

/// A declarative SLO alert rule, evaluated per node each time a window
/// seals. `fire_after` / `clear_after` consecutive-window hysteresis
/// keeps a metric oscillating around its limit from flapping the alert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloRule {
    /// snake_case rule name (enforced by [`TelemetryHub::new`]).
    pub name: &'static str,
    /// The breach condition.
    pub kind: RuleKind,
    /// Consecutive breaching windows before the alert fires.
    pub fire_after: u32,
    /// Consecutive healthy windows before a firing alert clears.
    pub clear_after: u32,
}

impl SloRule {
    fn new(name: &'static str, kind: RuleKind) -> Self {
        SloRule {
            name,
            kind,
            fire_after: 2,
            clear_after: 2,
        }
    }

    /// Threshold rule: breach while `metric > limit`.
    pub fn above(name: &'static str, metric: Metric, limit: f64) -> Self {
        Self::new(name, RuleKind::Above { metric, limit })
    }

    /// Multi-window burn-rate rule (see [`RuleKind::BurnRate`]).
    pub fn burn_rate(
        name: &'static str,
        metric: Metric,
        budget: f64,
        short: usize,
        long: usize,
    ) -> Self {
        assert!(short >= 1 && long >= short, "need 1 <= short <= long");
        Self::new(
            name,
            RuleKind::BurnRate {
                metric,
                budget,
                short,
                long,
            },
        )
    }

    /// Absence / heartbeat rule (see [`RuleKind::Absence`]).
    pub fn absence(name: &'static str, windows: usize) -> Self {
        assert!(windows >= 1, "need at least one silent window");
        Self::new(name, RuleKind::Absence { windows })
    }

    /// Require `n` consecutive breaching windows before firing.
    pub fn fire_after(mut self, n: u32) -> Self {
        self.fire_after = n.max(1);
        self
    }

    /// Require `n` consecutive healthy windows before clearing.
    pub fn clear_after(mut self, n: u32) -> Self {
        self.clear_after = n.max(1);
        self
    }
}

/// Per-window node classification produced by the health scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Reporting, within policy.
    Healthy,
    /// Reporting, but p99 latency or error rate breaches the policy.
    Degraded,
    /// Silent this window (no operations reported).
    Suspect,
    /// Silent for `dead_after` consecutive windows, or retired by the
    /// control plane (ground-truth death acknowledged).
    Dead,
}

impl Health {
    /// Single-character glyph used in the ASCII timeline.
    pub fn glyph(self) -> char {
        match self {
            Health::Healthy => '.',
            Health::Degraded => 'd',
            Health::Suspect => '?',
            Health::Dead => 'X',
        }
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Suspect => "suspect",
            Health::Dead => "dead",
        }
    }
}

/// Health scorer: a window's error rate above this marks it `Degraded`
/// (latency never degrades health — that is what the SLO rules are for).
pub const ERR_DEGRADED: f64 = 0.05;

/// Health scorer: consecutive silent windows before `Dead`. A single
/// silent window is already `Suspect`.
pub const DEAD_AFTER: u64 = 3;

/// Configuration for a telemetry pipeline: window width, cluster size,
/// lane names and alert rules.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window width in virtual time. `SimTime::ZERO` disables the
    /// pipeline at runtime (probes and hub become no-ops).
    pub window: SimTime,
    /// Number of node slots (probe `node` ids must be `< nodes`).
    pub nodes: usize,
    /// Tenant / workload lane names (snake_case, enforced).
    pub lanes: Vec<&'static str>,
    /// SLO alert rules, evaluated per node per window.
    pub rules: Vec<SloRule>,
}

impl TelemetryConfig {
    /// A pipeline over `nodes` node slots with `window`-wide windows,
    /// one `"all"` lane and no rules.
    pub fn new(window: SimTime, nodes: usize) -> Self {
        TelemetryConfig {
            window,
            nodes,
            lanes: vec!["all"],
            rules: Vec::new(),
        }
    }

    /// Replace the lane set.
    pub fn lanes(mut self, lanes: &[&'static str]) -> Self {
        assert!(!lanes.is_empty(), "need at least one lane");
        self.lanes = lanes.to_vec();
        self
    }

    /// Append an alert rule.
    pub fn rule(mut self, r: SloRule) -> Self {
        self.rules.push(r);
        self
    }
}

/// One alert transition (fire or clear) emitted by the rule engine.
/// `at` is the close time of the window that completed the hysteresis
/// streak — deterministic, and directly comparable with fault-engine
/// ground-truth injection times for MTTD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertEvent {
    /// Rule that transitioned.
    pub rule: &'static str,
    /// Node the rule transitioned on.
    pub node: u32,
    /// Virtual close time of the sealing window.
    pub at: SimTime,
    /// `true` = fired, `false` = cleared.
    pub firing: bool,
}

/// One sealed (node, window) aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Window index (window `w` spans `[w*window_ns, (w+1)*window_ns)`).
    pub window: u64,
    /// Node id.
    pub node: u32,
    /// Operations completed in the window (all lanes).
    pub ops: u64,
    /// Errors observed (fenced writes, failed RPCs, …).
    pub errs: u64,
    /// Retries observed (transient-fault retries, invalid-drop reloads, …).
    pub retries: u64,
    /// Misses observed (remote fetches, storage reads, …).
    pub misses: u64,
    /// Link bytes moved.
    pub bytes: u64,
    /// Median operation latency in the window (ns; 0 if no ops).
    pub p50_ns: u64,
    /// 99th-percentile operation latency in the window (ns; 0 if no ops).
    pub p99_ns: u64,
    /// Operations per lane (same order as the config's lane list).
    pub lane_ops: Vec<u64>,
    /// Health classification for this node in this window.
    pub health: Health,
}

/// The exported telemetry result: every sealed row, the alert log and
/// enough shape information to render timelines and score detection
/// latency against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Window width (ns).
    pub window_ns: u64,
    /// Node-slot count.
    pub nodes: usize,
    /// Lane names (owned — the report outlives the config).
    pub lanes: Vec<String>,
    /// Number of sealed windows.
    pub windows: u64,
    /// Sealed rows in (window, node) order.
    pub rows: Vec<WindowRow>,
    /// Alert fire/clear log in evaluation order.
    pub alerts: Vec<AlertEvent>,
    /// Per node: window index from which the control plane retired it
    /// (ground-truth death acknowledged), if ever.
    pub retired: Vec<Option<u64>>,
}

impl TelemetryReport {
    /// Number of alert fires.
    pub fn alert_fires(&self) -> u64 {
        self.alerts.iter().filter(|a| a.firing).count() as u64
    }

    /// Number of alert clears.
    pub fn alert_clears(&self) -> u64 {
        self.alerts.iter().filter(|a| !a.firing).count() as u64
    }

    /// Mean-time-to-detect: the gap between ground-truth injection time
    /// `t0` and the first fire of `rule` on `node` at or after `t0`.
    pub fn mttd_ns(&self, rule: &str, node: u32, t0: SimTime) -> Option<u64> {
        self.alerts
            .iter()
            .find(|a| a.firing && a.node == node && a.rule == rule && a.at >= t0)
            .map(|a| a.at.as_nanos() - t0.as_nanos())
    }

    /// Render the per-node health timeline: one glyph per (node,
    /// window) — `.` healthy, `d` degraded, `?` suspect, `X` dead,
    /// space = not yet active — plus a marker line (`^` fire, `v`
    /// clear) under any node with alert transitions.
    pub fn ascii_timeline(&self) -> String {
        let w = self.windows as usize;
        let mut out = format!(
            "health/window ({} us each, {} windows)  .=healthy d=degraded ?=suspect X=dead\n",
            self.window_ns / 1_000,
            w
        );
        let mut grid = vec![vec![' '; w]; self.nodes];
        for r in &self.rows {
            if (r.node as usize) < self.nodes && (r.window as usize) < w {
                grid[r.node as usize][r.window as usize] = r.health.glyph();
            }
        }
        for (n, line) in grid.iter().enumerate() {
            out.push_str(&format!("  node {n:>2} |"));
            out.extend(line.iter());
            out.push_str("|\n");
            let mut marks = vec![' '; w];
            let mut any = false;
            for a in self.alerts.iter().filter(|a| a.node as usize == n) {
                let wi = (a.at.as_nanos() / self.window_ns.max(1)).saturating_sub(1) as usize;
                if wi < w {
                    marks[wi] = if a.firing { '^' } else { 'v' };
                    any = true;
                }
            }
            if any {
                out.push_str("          |");
                out.extend(marks.iter());
                out.push_str("| ^=fire v=clear\n");
            }
        }
        out
    }

    /// Render the alert log, one line per fire/clear transition with
    /// its virtual timestamp.
    pub fn alert_log(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            out.push_str(&format!(
                "  {} {:>9.3} ms  node {:>2}  {}\n",
                if a.firing { "FIRE " } else { "CLEAR" },
                a.at.as_nanos() as f64 / 1e6,
                a.node,
                a.rule
            ));
        }
        out
    }

    /// Render the JSON ops report (windows, rows, alerts) — the
    /// machine-readable companion of the ASCII timeline.
    pub fn to_json(&self) -> String {
        let lanes: Vec<String> = self
            .lanes
            .iter()
            .map(|l| format!("\"{}\"", json::escape(l)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let lane_ops: Vec<String> = r.lane_ops.iter().map(|o| o.to_string()).collect();
                Obj::new()
                    .int("window", r.window)
                    .int("node", r.node as u64)
                    .int("ops", r.ops)
                    .int("errs", r.errs)
                    .int("retries", r.retries)
                    .int("misses", r.misses)
                    .int("bytes", r.bytes)
                    .int("p50_ns", r.p50_ns)
                    .int("p99_ns", r.p99_ns)
                    .arr("lane_ops", &lane_ops)
                    .str("health", r.health.name())
                    .build()
            })
            .collect();
        let alerts: Vec<String> = self
            .alerts
            .iter()
            .map(|a| {
                Obj::new()
                    .str("rule", a.rule)
                    .int("node", a.node as u64)
                    .int("at_ns", a.at.as_nanos())
                    .str("event", if a.firing { "fire" } else { "clear" })
                    .build()
            })
            .collect();
        Obj::new()
            .int("window_ns", self.window_ns)
            .int("nodes", self.nodes as u64)
            .arr("lanes", &lanes)
            .int("sealed_windows", self.windows)
            .arr("alerts", &alerts)
            .arr("rows", &rows)
            .build_pretty()
    }

    /// Fold summary counters into a [`MetricsRegistry`] snapshot.
    pub fn register_into(&self, reg: &mut MetricsRegistry) {
        let count = |h: Health| self.rows.iter().filter(|r| r.health == h).count() as u64;
        reg.set_int("telemetry_alert_clears", self.alert_clears());
        reg.set_int("telemetry_alert_fires", self.alert_fires());
        reg.set_int("telemetry_degraded_windows", count(Health::Degraded));
        reg.set_int("telemetry_dead_windows", count(Health::Dead));
        reg.set_int("telemetry_suspect_windows", count(Health::Suspect));
        reg.set_int("telemetry_window_ns", self.window_ns);
        reg.set_int("telemetry_windows", self.windows);
    }
}

fn assert_snake(what: &str, name: &str) {
    let ok = !name.is_empty()
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    assert!(ok, "{what} name `{name}` is not snake_case");
}

/// Per-lane accumulator for one open window.
#[derive(Debug, Clone)]
struct LaneAcc {
    ops: u64,
    errs: u64,
    retries: u64,
    misses: u64,
    bytes: u64,
    hist: Histogram,
}

impl LaneAcc {
    fn fresh(lanes: usize) -> Vec<LaneAcc> {
        (0..lanes)
            .map(|_| LaneAcc {
                ops: 0,
                errs: 0,
                retries: 0,
                misses: 0,
                bytes: 0,
                hist: Histogram::new(),
            })
            .collect()
    }
}

/// The recording half of the pipeline: lives inside a node's shard
/// during barrier-parallel phases, so recording is thread-free and
/// allocation-free on the per-operation path (windows allocate once
/// when first touched). All recorders take the operation's *end*
/// time — the window an operation lands in is the window it
/// completed in.
#[derive(Debug)]
pub struct NodeProbe {
    node: u32,
    window_ns: u64,
    lanes: usize,
    /// Open windows, sorted by window index. Stays short: the hub
    /// drains everything before each barrier.
    open: Vec<(u64, Vec<LaneAcc>)>,
}

impl NodeProbe {
    /// A probe recording as node `node` under `cfg`'s window/lane
    /// shape. A zero-width window yields a disabled probe.
    pub fn new(node: u32, cfg: &TelemetryConfig) -> Self {
        NodeProbe {
            node,
            window_ns: cfg.window.as_nanos(),
            lanes: cfg.lanes.len(),
            open: Vec::new(),
        }
    }

    /// A disabled probe (every recorder is an early-out).
    pub fn off() -> Self {
        NodeProbe {
            node: 0,
            window_ns: 0,
            lanes: 0,
            open: Vec::new(),
        }
    }

    /// True when this probe is actually recording.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.window_ns != 0
    }

    /// Node id this probe records as.
    pub fn node(&self) -> u32 {
        self.node
    }

    fn slot_idx(&mut self, w: u64) -> usize {
        if let Some((lw, _)) = self.open.last() {
            if *lw == w {
                return self.open.len() - 1;
            }
            if w > *lw {
                self.open.push((w, LaneAcc::fresh(self.lanes)));
                return self.open.len() - 1;
            }
        } else {
            self.open.push((w, LaneAcc::fresh(self.lanes)));
            return 0;
        }
        // Out-of-order landing (an op that started earlier finished
        // after a later-started short one): rare, bounded, exact.
        match self.open.binary_search_by_key(&w, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.open.insert(i, (w, LaneAcc::fresh(self.lanes)));
                i
            }
        }
    }

    #[inline]
    fn lane(&mut self, lane: usize, at: SimTime) -> &mut LaneAcc {
        let w = at.as_nanos() / self.window_ns;
        let i = self.slot_idx(w);
        &mut self.open[i].1[lane]
    }

    /// Record one completed operation with its end-to-end latency.
    #[inline]
    pub fn record_op(&mut self, lane: usize, end: SimTime, latency_ns: u64) {
        if self.window_ns == 0 {
            return;
        }
        let acc = self.lane(lane, end);
        acc.ops += 1;
        acc.hist.record(latency_ns);
    }

    /// Record link bytes moved.
    #[inline]
    pub fn record_bytes(&mut self, lane: usize, at: SimTime, n: u64) {
        if self.window_ns == 0 || n == 0 {
            return;
        }
        self.lane(lane, at).bytes += n;
    }

    /// Record failed operations (fenced writes, failed RPCs, …).
    #[inline]
    pub fn record_errs(&mut self, lane: usize, at: SimTime, n: u64) {
        if self.window_ns == 0 || n == 0 {
            return;
        }
        self.lane(lane, at).errs += n;
    }

    /// Record retries (transient-fault retries, reloads, …).
    #[inline]
    pub fn record_retries(&mut self, lane: usize, at: SimTime, n: u64) {
        if self.window_ns == 0 || n == 0 {
            return;
        }
        self.lane(lane, at).retries += n;
    }

    /// Record misses (remote fetches, storage reads, …).
    #[inline]
    pub fn record_misses(&mut self, lane: usize, at: SimTime, n: u64) {
        if self.window_ns == 0 || n == 0 {
            return;
        }
        self.lane(lane, at).misses += n;
    }
}

#[derive(Debug, Clone)]
struct NodeSlot {
    /// Empty until a probe hands its window over (at most once per
    /// (node, window)).
    lanes: Vec<LaneAcc>,
}

#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    breach: u32,
    ok: u32,
    firing: bool,
}

/// The serial aggregation half: ingests probe windows at barriers,
/// seals closed windows into [`WindowRow`]s, scores health and
/// steps the alert rules. Drive it only from barrier code, in lane
/// order — that is what makes the output a function of the run.
#[derive(Debug)]
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    window_ns: u64,
    /// Sealed-window boundary: every window `< sealed` is closed.
    sealed: u64,
    /// Open windows awaiting their seal, sorted by index.
    open: Vec<(u64, Vec<NodeSlot>)>,
    /// Sealed windows kept for [`TelemetryHub::merged_histogram`].
    ring: Vec<(u64, Vec<NodeSlot>)>,
    rows: Vec<WindowRow>,
    /// Per node: indices into `rows`, oldest first (burn-rate history).
    history: Vec<Vec<usize>>,
    /// Per node: first window index the node is expected to report
    /// from (`u64::MAX` = inactive, e.g. an unspawned standby).
    expected_from: Vec<u64>,
    /// Per node: window index the control plane retired it from.
    retired: Vec<Option<u64>>,
    /// Per node: current consecutive-silent-window streak.
    silence: Vec<u64>,
    /// Per node: whether any activity has been observed yet. Until
    /// a node is seen (or explicitly expected / retired), empty
    /// windows emit no rows and count no silence, so a slow cold
    /// start is not misread as an outage.
    seen: Vec<bool>,
    /// Per node: `expect_from` was called (an explicit liveness
    /// expectation, unlike the implicit expected-from-0 default).
    explicit: Vec<bool>,
    /// Hysteresis state, indexed `rule * nodes + node`.
    rule_state: Vec<RuleState>,
    alerts: Vec<AlertEvent>,
}

impl TelemetryHub {
    /// Build a hub for `cfg`. Panics on empty node/lane sets or
    /// non-snake_case rule/lane names; a zero-width window yields a
    /// disabled hub whose methods no-op and whose report is empty.
    pub fn new(cfg: TelemetryConfig) -> Self {
        assert!(cfg.nodes > 0, "need at least one node slot");
        assert!(!cfg.lanes.is_empty(), "need at least one lane");
        for l in &cfg.lanes {
            assert_snake("lane", l);
        }
        for r in &cfg.rules {
            assert_snake("rule", r.name);
        }
        let nodes = cfg.nodes;
        let nrules = cfg.rules.len();
        TelemetryHub {
            window_ns: cfg.window.as_nanos(),
            sealed: 0,
            open: Vec::new(),
            ring: Vec::new(),
            rows: Vec::new(),
            history: vec![Vec::new(); nodes],
            expected_from: vec![0; nodes],
            retired: vec![None; nodes],
            silence: vec![0; nodes],
            seen: vec![false; nodes],
            explicit: vec![false; nodes],
            rule_state: vec![RuleState::default(); nrules * nodes],
            alerts: Vec::new(),
            cfg,
        }
    }

    /// True when this hub is actually aggregating.
    pub fn enabled(&self) -> bool {
        self.window_ns != 0
    }

    /// Move every probe window lying strictly before `up_to` into
    /// the hub. Call at a virtual-time barrier, in node order.
    pub fn ingest(&mut self, probe: &mut NodeProbe, up_to: SimTime) {
        if self.window_ns == 0 || !probe.enabled() {
            return;
        }
        debug_assert_eq!(probe.window_ns, self.window_ns, "probe/hub window mismatch");
        let boundary = up_to.as_nanos() / self.window_ns;
        let k = probe.open.partition_point(|e| e.0 < boundary);
        let node = probe.node;
        for (w, lanes) in probe.open.drain(..k) {
            self.accept(node, w, lanes);
        }
    }

    /// Move *all* of a probe's windows into the hub (end of run).
    pub fn drain(&mut self, probe: &mut NodeProbe) {
        if self.window_ns == 0 || !probe.enabled() {
            return;
        }
        let node = probe.node;
        for (w, lanes) in probe.open.drain(..) {
            self.accept(node, w, lanes);
        }
    }

    fn accept(&mut self, node: u32, w: u64, lanes: Vec<LaneAcc>) {
        debug_assert!(w >= self.sealed, "window {w} already sealed");
        let i = match self.open.binary_search_by_key(&w, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                let slots = vec![NodeSlot { lanes: Vec::new() }; self.cfg.nodes];
                self.open.insert(i, (w, slots));
                i
            }
        };
        let slot = &mut self.open[i].1[node as usize];
        debug_assert!(slot.lanes.is_empty(), "(node, window) handed over twice");
        slot.lanes = lanes;
    }

    /// Seal every window that closed strictly before `now`. Call at
    /// a virtual-time barrier, *after* ingesting all probes.
    pub fn seal(&mut self, now: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.seal_to(now.as_nanos() / self.window_ns);
    }

    /// Seal through the end of the run: every window up to `end`
    /// (inclusive of a partial tail window) plus any straggler
    /// windows still open from operation overshoot.
    pub fn finish(&mut self, end: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        let mut boundary = end.as_nanos().div_ceil(self.window_ns);
        if let Some((w, _)) = self.open.last() {
            boundary = boundary.max(w + 1);
        }
        self.seal_to(boundary);
    }

    fn seal_to(&mut self, boundary: u64) {
        while self.sealed < boundary {
            let w = self.sealed;
            let slots = if self.open.first().map(|e| e.0) == Some(w) {
                self.open.remove(0).1
            } else {
                vec![NodeSlot { lanes: Vec::new() }; self.cfg.nodes]
            };
            self.eval_window(w, &slots);
            self.ring.push((w, slots));
            self.sealed += 1;
        }
    }

    fn eval_window(&mut self, w: u64, slots: &[NodeSlot]) {
        let window_ns = self.window_ns;
        for (node, slot) in slots.iter().enumerate().take(self.cfg.nodes) {
            if w < self.expected_from[node] {
                continue;
            }
            let mut ops = 0u64;
            let mut errs = 0u64;
            let mut retries = 0u64;
            let mut misses = 0u64;
            let mut bytes = 0u64;
            let mut lane_ops = vec![0u64; self.cfg.lanes.len()];
            let mut hist = Histogram::new();
            for (li, l) in slot.lanes.iter().enumerate() {
                ops += l.ops;
                errs += l.errs;
                retries += l.retries;
                misses += l.misses;
                bytes += l.bytes;
                lane_ops[li] = l.ops;
                hist.merge(&l.hist);
            }
            if !self.seen[node] {
                if ops + errs + retries + misses + bytes > 0 {
                    self.seen[node] = true;
                } else if !self.explicit[node] && self.retired[node].is_none() {
                    // Not yet online: a cold start isn't an outage.
                    continue;
                }
            }
            if ops == 0 {
                self.silence[node] += 1;
            } else {
                self.silence[node] = 0;
            }
            let err_rate = errs as f64 / (ops + errs).max(1) as f64;
            let p50_ns = hist.quantile_ns(0.50);
            let p99_ns = hist.quantile_ns(0.99);
            let health = if self.retired[node].is_some_and(|rw| w >= rw)
                || self.silence[node] >= DEAD_AFTER
            {
                Health::Dead
            } else if ops == 0 {
                Health::Suspect
            } else if err_rate > ERR_DEGRADED {
                Health::Degraded
            } else {
                Health::Healthy
            };
            self.history[node].push(self.rows.len());
            self.rows.push(WindowRow {
                window: w,
                node: node as u32,
                ops,
                errs,
                retries,
                misses,
                bytes,
                p50_ns,
                p99_ns,
                lane_ops,
                health,
            });
            for (ri, rule) in self.cfg.rules.iter().enumerate() {
                let breach = rule_breach(
                    &rule.kind,
                    &self.rows,
                    &self.history[node],
                    self.silence[node],
                    window_ns,
                );
                let st = &mut self.rule_state[ri * self.cfg.nodes + node];
                if breach {
                    st.breach += 1;
                    st.ok = 0;
                    if !st.firing && st.breach >= rule.fire_after {
                        st.firing = true;
                        self.alerts.push(AlertEvent {
                            rule: rule.name,
                            node: node as u32,
                            at: SimTime((w + 1) * window_ns),
                            firing: true,
                        });
                    }
                } else {
                    st.ok += 1;
                    st.breach = 0;
                    if st.firing && st.ok >= rule.clear_after {
                        st.firing = false;
                        self.alerts.push(AlertEvent {
                            rule: rule.name,
                            node: node as u32,
                            at: SimTime((w + 1) * window_ns),
                            firing: false,
                        });
                    }
                }
            }
        }
    }

    /// Declare that `node` is only expected to report from `t` on
    /// (e.g. a standby spawned mid-run). Windows before `t` emit no
    /// rows and no alerts for it.
    pub fn expect_from(&mut self, node: u32, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.expected_from[node as usize] = t.as_nanos() / self.window_ns;
        self.silence[node as usize] = 0;
        self.explicit[node as usize] = true;
    }

    /// Declare `node` inactive (not expected to report at all,
    /// until a later [`TelemetryHub::expect_from`]).
    pub fn set_inactive(&mut self, node: u32) {
        self.expected_from[node as usize] = u64::MAX;
        self.explicit[node as usize] = false;
    }

    /// Control-plane acknowledgement of ground-truth death: from
    /// `t`'s window on, `node`'s health is pinned `Dead`. Rules
    /// keep evaluating (the absence alert still measures MTTD).
    pub fn retire(&mut self, node: u32, t: SimTime) {
        if self.window_ns == 0 {
            return;
        }
        self.retired[node as usize] = Some(t.as_nanos() / self.window_ns);
    }

    /// Whether `rule` is currently firing for `node` — the
    /// hysteresis-filtered alert state as of the last sealed
    /// window. The elasticity rebalancer reads its `miss_burn` rule
    /// through this at virtual-time barriers; unknown rule names and
    /// disabled hubs read `false`.
    pub fn firing(&self, rule: &str, node: u32) -> bool {
        if self.window_ns == 0 {
            return false;
        }
        let Some(ri) = self.cfg.rules.iter().position(|r| r.name == rule) else {
            return false;
        };
        self.rule_state
            .get(ri * self.cfg.nodes + node as usize)
            .map(|st| st.firing)
            .unwrap_or(false)
    }

    /// Merge every window histogram for `node` (all lanes) — exactly
    /// the end-of-run histogram, which the window-exactness test pins
    /// via [`Histogram::merge`].
    pub fn merged_histogram(&self, node: u32) -> Histogram {
        let mut h = Histogram::new();
        for (_, slots) in self.ring.iter().chain(self.open.iter()) {
            for l in &slots[node as usize].lanes {
                h.merge(&l.hist);
            }
        }
        h
    }

    /// Export the report (rows, alert log, retirement marks).
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport {
            window_ns: self.window_ns,
            nodes: self.cfg.nodes,
            lanes: self.cfg.lanes.iter().map(|l| l.to_string()).collect(),
            windows: self.sealed,
            rows: self.rows.clone(),
            alerts: self.alerts.clone(),
            retired: self.retired.clone(),
        }
    }

    /// End of run: drain every probe's tail windows (operation overshoot
    /// past the last barrier), seal through `end`, and export the report
    /// — `None` when the window is ZERO.
    pub fn conclude<'a>(
        &mut self,
        probes: impl IntoIterator<Item = &'a mut NodeProbe>,
        end: SimTime,
    ) -> Option<TelemetryReport> {
        for probe in probes {
            self.drain(probe);
        }
        self.finish(end);
        self.enabled().then(|| self.report())
    }
}

fn metric_value(row: &WindowRow, window_ns: u64, m: Metric) -> f64 {
    match m {
        Metric::Qps => row.ops as f64 * 1e9 / window_ns as f64,
        Metric::P50Ns => row.p50_ns as f64,
        Metric::P99Ns => row.p99_ns as f64,
        Metric::MissRate => row.misses as f64 / row.ops.max(1) as f64,
        Metric::ErrRate => row.errs as f64 / (row.ops + row.errs).max(1) as f64,
        Metric::RetryRate => row.retries as f64 / row.ops.max(1) as f64,
        Metric::LinkBytes => row.bytes as f64,
    }
}

fn rule_breach(
    kind: &RuleKind,
    rows: &[WindowRow],
    hist: &[usize],
    silence: u64,
    window_ns: u64,
) -> bool {
    let last = match hist.last() {
        Some(&i) => &rows[i],
        None => return false,
    };
    match *kind {
        RuleKind::Above { metric, limit } => metric_value(last, window_ns, metric) > limit,
        RuleKind::BurnRate {
            metric,
            budget,
            short,
            long,
        } => {
            if hist.len() < long {
                return false;
            }
            let mean = |n: usize| {
                let s: f64 = hist[hist.len() - n..]
                    .iter()
                    .map(|&i| metric_value(&rows[i], window_ns, metric))
                    .sum();
                s / n as f64
            };
            mean(short) > budget && mean(long) > budget
        }
        RuleKind::Absence { windows } => silence >= windows as u64,
    }
}
