//! Telemetry pipeline exactness and alerting semantics.
//!
//! Three properties make the windowed telemetry layer trustworthy as a
//! measurement instrument rather than a sampling approximation:
//!
//! 1. **Window exactness** — the per-window histograms are a lossless
//!    partition of the run: merging every sealed window's histogram
//!    reproduces the end-of-run histogram bit-for-bit, and each
//!    window's p50/p99 equals a reference histogram fed the same
//!    latencies.
//! 2. **Bucket alignment** — `TimeSeries` places events at exact
//!    virtual-time bucket boundaries deterministically, including the
//!    horizon edge, and capacity pre-reservation never changes results.
//! 3. **Hysteresis** — the alert engine fires on sustained breaches
//!    only: an oscillating metric produces zero alerts, a sustained
//!    breach exactly one fire and (after recovery) exactly one clear.
//!
//! And one contract every harness shares: the window is an observer.
//! `telemetry_window = ZERO` turns the report into `None` and changes
//! nothing else a run produces.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::workloads::sharing::point_update_gen;
use simkit::{Histogram, MetricsRegistry, SimTime, TimeSeries};

const WINDOW_NS: u64 = 1_000;

/// Deterministic latency stream (no RNG: plain arithmetic hash).
fn latency(i: u64) -> u64 {
    (i.wrapping_mul(7_919)) % 450_000 + 64
}

#[test]
fn window_histograms_merge_to_the_end_of_run_histogram() {
    let cfg = TelemetryConfig::new(SimTime(WINDOW_NS), 1).lanes(&["rw"]);
    let mut hub = TelemetryHub::new(cfg.clone());
    let mut probe = telemetry::NodeProbe::new(0, &cfg);

    const WINDOWS: u64 = 8;
    const OPS: u64 = 400;
    let mut reference = Histogram::new();
    let mut per_window = vec![Histogram::new(); WINDOWS as usize];
    for i in 0..OPS {
        // Non-monotonic end times exercise the out-of-order slot path.
        let t = (i * 137) % (WINDOWS * WINDOW_NS);
        let l = latency(i);
        probe.record_op(0, SimTime(t), l);
        reference.record(l);
        per_window[(t / WINDOW_NS) as usize].record(l);
    }
    hub.drain(&mut probe);
    hub.finish(SimTime(WINDOWS * WINDOW_NS));
    let rep = hub.report();

    // Lossless partition: window histograms merge back to the whole.
    assert_eq!(hub.merged_histogram(0), reference);

    // Every op landed in exactly one window, and each window's
    // summary stats match a reference histogram fed the same samples.
    assert_eq!(rep.windows, WINDOWS);
    assert_eq!(rep.rows.iter().map(|r| r.ops).sum::<u64>(), OPS);
    for row in &rep.rows {
        let h = &per_window[row.window as usize];
        assert_eq!(row.ops, h.count(), "window {} op count", row.window);
        assert_eq!(row.p50_ns, h.quantile_ns(0.50), "window {} p50", row.window);
        assert_eq!(row.p99_ns, h.quantile_ns(0.99), "window {} p99", row.window);
    }
}

#[test]
fn timeseries_buckets_align_exactly_at_horizon_edges() {
    let horizon = SimTime(10 * WINDOW_NS);
    let mut plain = TimeSeries::new(WINDOW_NS);
    let mut reserved = TimeSeries::with_capacity_for(WINDOW_NS, horizon);
    for ts in [&mut plain, &mut reserved] {
        ts.record_at(SimTime(0), 1); // first instant of bucket 0
        ts.record_at(SimTime(WINDOW_NS - 1), 2); // last instant of bucket 0
        ts.record_at(SimTime(WINDOW_NS), 4); // first instant of bucket 1
        ts.record_at(SimTime(horizon.as_nanos() - 1), 8); // inside the horizon
        ts.record_at(horizon, 16); // horizon edge opens a fresh bucket
    }
    // Boundary instants split exactly: [w*B, (w+1)*B) half-open.
    assert_eq!(plain.buckets()[0], 3);
    assert_eq!(plain.buckets()[1], 4);
    assert_eq!(plain.buckets()[9], 8);
    assert_eq!(plain.buckets()[10], 16);
    assert_eq!(plain.buckets().len(), 11);
    // Capacity reservation is invisible in the observable series.
    assert_eq!(plain, reserved);
}

/// Drive one window through the hub: `misses` of `ops` operations miss.
fn feed_window(hub: &mut TelemetryHub, cfg: &TelemetryConfig, w: u64, ops: u64, misses: u64) {
    let mut probe = telemetry::NodeProbe::new(0, cfg);
    let mid = SimTime(w * WINDOW_NS + WINDOW_NS / 2);
    for i in 0..ops {
        probe.record_op(0, mid, latency(i));
    }
    probe.record_misses(0, mid, misses);
    hub.ingest(&mut probe, SimTime((w + 1) * WINDOW_NS));
    hub.seal(SimTime((w + 1) * WINDOW_NS));
}

#[test]
fn alert_hysteresis_ignores_oscillation_and_fires_once_on_sustained_breach() {
    let rule = SloRule::above("miss_thrash", Metric::MissRate, 0.5)
        .fire_after(2)
        .clear_after(2);
    let cfg = TelemetryConfig::new(SimTime(WINDOW_NS), 1).rule(rule);
    let mut hub = TelemetryHub::new(cfg.clone());

    // Phase 1 — oscillating: breach, clean, breach, clean, ... never
    // two breaches in a row, so fire_after(2) must swallow all of it.
    for w in 0..8 {
        let miss = if w % 2 == 0 { 10 } else { 0 };
        feed_window(&mut hub, &cfg, w, 10, miss);
        assert!(!hub.firing("miss_thrash", 0), "window {w}: oscillation");
    }
    // Phase 2 — sustained breach for 4 windows: exactly one fire, at
    // the close of the second breach window (index 9).
    for w in 8..12 {
        feed_window(&mut hub, &cfg, w, 10, 10);
        assert_eq!(hub.firing("miss_thrash", 0), w >= 9, "window {w}: breach");
    }
    // Phase 3 — sustained recovery: exactly one clear, at the close of
    // the second clean window (index 13).
    for w in 12..16 {
        feed_window(&mut hub, &cfg, w, 10, 0);
        assert_eq!(hub.firing("miss_thrash", 0), w < 13, "window {w}: recovery");
    }
    assert!(!hub.firing("no_such_rule", 0), "unknown rules read false");
    hub.finish(SimTime(16 * WINDOW_NS));
    let rep = hub.report();

    assert_eq!(
        rep.alert_fires(),
        1,
        "oscillation leaked through hysteresis"
    );
    assert_eq!(rep.alert_clears(), 1);
    assert_eq!(rep.alerts.len(), 2);
    assert_eq!(rep.alerts[0].at, SimTime(10 * WINDOW_NS), "fire time");
    assert!(rep.alerts[0].firing);
    assert_eq!(rep.alerts[1].at, SimTime(14 * WINDOW_NS), "clear time");
    assert!(!rep.alerts[1].firing);
}

/// `reg`'s entries other than the ones the telemetry report exports.
fn non_telemetry(reg: &MetricsRegistry) -> String {
    let kept: Vec<_> = reg
        .iter()
        .filter(|(name, _)| !name.starts_with("telemetry_"))
        .collect();
    format!("{kept:?}")
}

/// `run(window)` returns the report and a rendering of everything else
/// the run produced; only the former may depend on the window.
fn assert_observation_only(
    name: &str,
    window: SimTime,
    run: impl Fn(SimTime) -> (Option<TelemetryReport>, String),
) {
    let (on, rest_on) = run(window);
    let (off, rest_off) = run(SimTime::ZERO);
    let rep = on.unwrap_or_else(|| panic!("{name}: window on must report"));
    assert!(rep.windows > 0, "{name}: no window sealed");
    assert!(off.is_none(), "{name}: window ZERO must report None");
    assert_eq!(rest_on, rest_off, "{name}: the window changed the run");
}

#[test]
fn telemetry_is_observation_only() {
    for (name, system) in [
        ("sharing_cxl", SharingSystem::Cxl),
        ("sharing_rdma", SharingSystem::Rdma { lbp_fraction: 0.3 }),
    ] {
        assert_observation_only(name, SimTime::from_millis(2), |window| {
            let mut cfg = SharingConfig::standard(system, 3);
            cfg.layout.rows_per_group = 1_000;
            cfg.duration = SimTime::from_millis(20);
            cfg.workers_per_node = 4;
            cfg.telemetry_window = window;
            let mut r = run_sharing(&cfg, point_update_gen(cfg.layout, 30));
            (r.telemetry.take(), format!("{r:?}"))
        });
    }
    let on = FailoverConfig::smoke(3).telemetry_window;
    assert_observation_only("failover", on, |window| {
        let mut cfg = FailoverConfig::smoke(3);
        cfg.telemetry_window = window;
        let mut r = run_failover(&cfg);
        r.assert_safety();
        assert_eq!(
            r.registry.get("telemetry_mttd_crash_ns").is_some(),
            window != SimTime::ZERO,
            "crash MTTD is scored against ground truth iff the window is on"
        );
        let reg = non_telemetry(&std::mem::take(&mut r.registry));
        (r.telemetry.take(), format!("{r:?} {reg}"))
    });
    assert_observation_only("chaos", SimTime(500_000), |window| {
        let mut cfg = ChaosConfig::standard(Scheme::RdmaBased, SysbenchKind::ReadWrite);
        cfg.table_size = 2_000;
        cfg.workers = 8;
        cfg.duration = SimTime::from_millis(60);
        cfg.fault_events = 12;
        cfg.horizon_hits = 20_000;
        cfg.crash_at_hit = Some(5_000);
        cfg.telemetry_window = window;
        let mut r = run_chaos(&cfg);
        assert_eq!(r.crashes, 1);
        let reg = non_telemetry(&std::mem::take(&mut r.registry));
        (r.telemetry.take(), format!("{r:?} {reg}"))
    });
}
