//! Larger-than-memory tiering harness.
//!
//! Drives zipfian page traffic over an [`AdaptivePool`] whose working
//! set is 10–100x the combined DRAM+CXL memory, so storage misses and
//! tier migrations — not B+tree logic — dominate. This is the
//! experiment behind `BENCH_tiering.json`: the same traffic swept
//! across the three eviction policies and the static/adaptive migration
//! regimes, comparing storage miss rate and tail latency.
//!
//! Phase patterns model the cloud traffic the adaptive sweep targets:
//!
//! * [`PhasePattern::Stable`] — one zipfian hot set for the whole run;
//!   recency-based paging does fine here.
//! * [`PhasePattern::Diurnal`] — the hot set's identity rotates a
//!   quarter of the key space every phase (day/night tenant shifts).
//! * [`PhasePattern::Burst`] — every fourth phase replaces the zipfian
//!   traffic with uniform scans over the whole working set — the
//!   antagonist that flushes a recency-managed DRAM tier but bounces
//!   off the adaptive pool's admission control.
//!
//! Everything is closed-loop in virtual time and bit-deterministic for
//! a given config.

use crate::metrics::RunMetrics;
use bufferpool::{BufferPool, PolicyKind};
use memsim::{CxlPool, NodeId};
use polarcxlmem::tiering::{AdaptivePool, TierConfig};
use simkit::rng::{stream_rng, Zipf};
use simkit::telemetry::{
    Metric, NodeProbe, SloRule, TelemetryConfig, TelemetryHub, TelemetryReport,
};
use simkit::{Histogram, MetricsRegistry, SimTime, Step, WorkerId, WorkerSet};
use std::cell::RefCell;
use std::rc::Rc;
use storage::{Lsn, PageId, PageStore};

/// How the hot set moves over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePattern {
    /// One fixed zipfian hot set.
    Stable,
    /// The hot set rotates a quarter of the page space every phase.
    Diurnal,
    /// Every fourth phase is a uniform scan over the whole working set.
    Burst,
}

impl PhasePattern {
    /// All patterns, in sweep order.
    pub const ALL: [PhasePattern; 3] = [
        PhasePattern::Stable,
        PhasePattern::Diurnal,
        PhasePattern::Burst,
    ];

    /// Stable lowercase name for artifact keys.
    pub fn name(self) -> &'static str {
        match self {
            PhasePattern::Stable => "stable",
            PhasePattern::Diurnal => "diurnal",
            PhasePattern::Burst => "burst",
        }
    }
}

/// Tiering experiment configuration.
#[derive(Debug, Clone)]
pub struct TieringConfig {
    /// Working-set size in pages (the larger-than-memory axis: size this
    /// 10–100x `dram_frames + cxl_blocks`).
    pub pages: u64,
    /// Page size in bytes.
    pub page_size: u64,
    /// DRAM tier frames.
    pub dram_frames: usize,
    /// CXL tier blocks.
    pub cxl_blocks: usize,
    /// Eviction policy for both tiers.
    pub policy: PolicyKind,
    /// Adaptive (epoch sweeps + in-place CXL service) vs static demand
    /// paging.
    pub adaptive: bool,
    /// Zipfian skew (`0` = uniform; YCSB default 0.99).
    pub theta: f64,
    /// Hot-set movement over the run.
    pub pattern: PhasePattern,
    /// Virtual-time length of one phase.
    pub phase: SimTime,
    /// Closed-loop workers.
    pub workers: usize,
    /// Percent of operations that write (0–100).
    pub write_pct: u8,
    /// Sweep epoch for the adaptive regime, nanoseconds.
    pub epoch_ns: u64,
    /// Measured window of virtual time.
    pub duration: SimTime,
    /// Root RNG seed.
    pub seed: u64,
    /// Telemetry window width (ZERO = probes off; tiering leaves the
    /// layer opt-in because sweeps, not alerts, are its headline).
    pub telemetry_window: SimTime,
    /// Windowed storage-miss-rate limit for the `miss_thrash` rule.
    pub telemetry_miss_budget: f64,
}

impl TieringConfig {
    /// A scaled-down standard: 16x larger-than-memory zipfian traffic.
    pub fn standard(policy: PolicyKind, adaptive: bool) -> Self {
        let dram_frames = 64;
        let cxl_blocks = 256;
        TieringConfig {
            pages: 16 * (dram_frames + cxl_blocks) as u64,
            page_size: 4096,
            dram_frames,
            cxl_blocks,
            policy,
            adaptive,
            theta: 0.99,
            pattern: PhasePattern::Stable,
            phase: SimTime::from_millis(10),
            workers: 8,
            write_pct: 20,
            epoch_ns: 1_000_000,
            duration: SimTime::from_millis(60),
            seed: 7,
            telemetry_window: SimTime::ZERO,
            telemetry_miss_budget: 0.9,
        }
    }
}

/// Result of one tiering run.
#[derive(Debug, Clone, PartialEq)]
pub struct TieringResult {
    /// Aggregate metrics (ops counted as queries).
    pub metrics: RunMetrics,
    /// Uniform counter snapshot, including the per-tier counters.
    pub registry: MetricsRegistry,
    /// Fraction of operations that went to storage.
    pub storage_miss_rate: f64,
    /// Fraction of operations served by the DRAM tier.
    pub dram_hit_rate: f64,
    /// Epoch sweeps executed.
    pub sweeps: u64,
    /// Windowed ops report (`None` when `telemetry_window` is ZERO).
    pub telemetry: Option<TelemetryReport>,
}

/// Map a zipfian rank to a page id under the phase pattern. Rank 0 is
/// always the hottest; the pattern decides *which page* holds that rank
/// at virtual time `now`.
fn page_for(cfg: &TieringConfig, rank: u64, now: SimTime, rng: &mut simkit::rng::SimRng) -> u64 {
    let phase_idx = now.as_nanos() / cfg.phase.as_nanos().max(1);
    match cfg.pattern {
        PhasePattern::Stable => rank,
        PhasePattern::Diurnal => (rank + phase_idx * (cfg.pages / 4)) % cfg.pages,
        PhasePattern::Burst => {
            if phase_idx % 4 == 3 {
                rng.gen_range(0..cfg.pages)
            } else {
                rank
            }
        }
    }
}

/// Run a tiering experiment.
pub fn run_tiering(cfg: &TieringConfig) -> TieringResult {
    assert!(cfg.workers > 0 && cfg.pages > 0);
    assert!(cfg.write_pct <= 100);
    let ps = cfg.page_size;
    let mut store = PageStore::with_page_size(cfg.pages, ps);
    for _ in 0..cfg.pages {
        store.allocate();
    }
    let cxl_bytes = (cfg.cxl_blocks as u64 * ps) as usize;
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        cxl_bytes,
        1,
        256 << 10,
        false,
    )));
    let mut tier = TierConfig::standard(cfg.dram_frames, cfg.cxl_blocks);
    tier.policy = cfg.policy;
    tier.adaptive = cfg.adaptive;
    tier.epoch_ns = cfg.epoch_ns;
    let mut pool = AdaptivePool::new(cxl, NodeId(0), 0, tier, store);

    let zipf = Zipf::new(cfg.pages, cfg.theta);
    let mut rngs: Vec<_> = (0..cfg.workers)
        .map(|w| stream_rng(cfg.seed, w as u64))
        .collect();
    let mut ws = WorkerSet::new();
    for w in 0..cfg.workers {
        ws.spawn(WorkerId(w), SimTime::ZERO);
    }
    // One probe, read/write lanes; the threshold rule trips when the
    // windowed storage-miss rate holds above budget for two consecutive
    // windows (tier thrash, e.g. a burst phase's uniform scans) — a
    // single cold or overshoot window is not an incident.
    let tcfg = TelemetryConfig::new(cfg.telemetry_window, 1)
        .lanes(&["read", "write"])
        .rule(
            SloRule::above("miss_thrash", Metric::MissRate, cfg.telemetry_miss_budget)
                .fire_after(2)
                .clear_after(2),
        );
    let mut hub = TelemetryHub::new(tcfg.clone());
    let mut probe = NodeProbe::new(0, &tcfg);
    let mut prev_bp = pool.stats();

    let mut hist = Histogram::new();
    let mut ops = 0u64;
    let mut lsn = 0u64;
    let rec_len = 64usize.min(ps as usize);
    let payload = [0xABu8; 64];
    let mut buf = [0u8; 64];
    let mut lat_batch: Vec<u64> = Vec::with_capacity(1024);
    ws.run_until(cfg.duration, |WorkerId(w), start| {
        // Migration sweeps run between operations (a background loop in
        // a real system): the sweep's cost advances this worker's clock
        // but is not attributed to the operation's latency.
        let t0 = pool.maybe_sweep(start);
        let rng = &mut rngs[w];
        let rank = zipf.sample(rng);
        let page = page_for(cfg, rank, t0, rng);
        let off = ((rank.wrapping_mul(64)) % (ps - rec_len as u64)) as u16;
        let is_write = rng.gen_range(0u8..100) < cfg.write_pct;
        let end = if is_write {
            lsn += 1;
            pool.write(PageId(page), off, &payload[..rec_len], Lsn(lsn), t0)
                .end
        } else {
            pool.read(PageId(page), off, &mut buf[..rec_len], t0).end
        };
        lat_batch.push(end - t0);
        if lat_batch.len() == lat_batch.capacity() {
            hist.record_batch(&lat_batch);
            lat_batch.clear();
        }
        ops += 1;
        if probe.enabled() {
            probe.record_op(is_write as usize, end, end - t0);
            let s = pool.stats();
            let d = s.since(&prev_bp);
            probe.record_misses(is_write as usize, end, d.misses);
            probe.record_bytes(
                is_write as usize,
                end,
                d.remote_read_bytes + d.remote_write_bytes,
            );
            prev_bp = s;
        }
        Step::Done(end)
    });
    hist.record_batch(&lat_batch);

    let telemetry_report = hub.conclude([&mut probe], cfg.duration);

    let s = pool.stats();
    let total = (s.hits + s.misses).max(1);
    let storage_miss_rate = s.misses as f64 / total as f64;
    let dram_hit_rate = s.tier_dram_hits as f64 / total as f64;
    let secs = cfg.duration.as_secs_f64();
    let metrics = RunMetrics {
        qps: ops as f64 / secs,
        tps: ops as f64 / secs,
        avg_latency_us: hist.mean_us(),
        p50_latency_us: hist.p50_us(),
        p95_latency_us: hist.p95_us(),
        p99_latency_us: hist.p99_us(),
        p999_latency_us: hist.p999_us(),
        interconnect_gbps: 0.0,
        memory_bytes: (cfg.dram_frames + cfg.cxl_blocks) as u64 * ps,
        window: cfg.duration,
        latency: hist,
    };
    let mut reg = MetricsRegistry::default();
    reg.set_int("ops", ops);
    reg.set_num("qps", metrics.qps);
    reg.set_int("bp_hits", s.hits);
    reg.set_int("bp_misses", s.misses);
    reg.set_int("bp_evictions", s.evictions);
    reg.set_int("bp_writebacks", s.writebacks);
    reg.set_int("bp_storage_read_bytes", s.storage_read_bytes);
    reg.set_int("bp_storage_write_bytes", s.storage_write_bytes);
    reg.set_int("bp_tier_dram_hits", s.tier_dram_hits);
    reg.set_int("bp_tier_dram_misses", s.tier_dram_misses);
    reg.set_int("bp_tier_cxl_hits", s.tier_cxl_hits);
    reg.set_int("bp_tier_cxl_misses", s.tier_cxl_misses);
    reg.set_int("bp_tier_promotes", s.tier_promotes);
    reg.set_int("bp_tier_demotes", s.tier_demotes);
    reg.set_num("storage_miss_rate", storage_miss_rate);
    reg.set_num("dram_hit_rate", dram_hit_rate);
    reg.set_int("sweeps", pool.sweeps());
    reg.set_histogram("latency", &metrics.latency);
    if let Some(rep) = &telemetry_report {
        rep.register_into(&mut reg);
    }
    TieringResult {
        metrics,
        registry: reg,
        storage_miss_rate,
        dram_hit_rate,
        sweeps: pool.sweeps(),
        telemetry: telemetry_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PolicyKind, adaptive: bool, pattern: PhasePattern) -> TieringConfig {
        let mut cfg = TieringConfig::standard(policy, adaptive);
        cfg.dram_frames = 16;
        cfg.cxl_blocks = 48;
        cfg.pages = 10 * 64;
        cfg.workers = 4;
        cfg.pattern = pattern;
        cfg.duration = SimTime::from_millis(8);
        cfg.phase = SimTime::from_millis(2);
        cfg
    }

    #[test]
    fn runs_are_deterministic_per_policy_and_regime() {
        for kind in PolicyKind::ALL {
            for adaptive in [false, true] {
                let cfg = tiny(kind, adaptive, PhasePattern::Diurnal);
                let a = run_tiering(&cfg);
                let b = run_tiering(&cfg);
                assert_eq!(a, b, "{kind:?} adaptive={adaptive} must replay exactly");
                assert!(a.metrics.qps > 0.0);
            }
        }
    }

    #[test]
    fn seed_changes_the_run() {
        let cfg = tiny(PolicyKind::Lru, true, PhasePattern::Stable);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let a = run_tiering(&cfg);
        let b = run_tiering(&cfg2);
        assert_ne!(a.registry, b.registry);
    }

    #[test]
    fn working_set_exceeds_memory_and_misses_happen() {
        let cfg = tiny(PolicyKind::Lru, true, PhasePattern::Stable);
        assert!(cfg.pages >= 10 * (cfg.dram_frames + cfg.cxl_blocks) as u64);
        let r = run_tiering(&cfg);
        assert!(r.storage_miss_rate > 0.0, "working set must not fit");
        assert!(r.storage_miss_rate < 1.0, "the hot head must still hit");
    }

    #[test]
    fn adaptive_regime_sweeps_and_promotes() {
        let r = run_tiering(&tiny(PolicyKind::Lru, true, PhasePattern::Stable));
        assert!(r.sweeps > 0, "epochs must have elapsed");
        let promotes = match r.registry.get("bp_tier_promotes") {
            Some(simkit::MetricValue::Int(v)) => v,
            other => panic!("missing promotes: {other:?}"),
        };
        assert!(promotes > 0, "hot pages must migrate to DRAM");
        assert!(r.dram_hit_rate > 0.0);
    }

    #[test]
    fn telemetry_rows_account_for_every_op() {
        let mut cfg = tiny(PolicyKind::Lru, true, PhasePattern::Burst);
        cfg.telemetry_window = SimTime::from_millis(1);
        let r = run_tiering(&cfg);
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        let ops = match r.registry.get("ops") {
            Some(v) => v.as_u64(),
            None => panic!("ops missing"),
        };
        // Every operation lands in exactly one window (ops past the
        // horizon spill into the overshoot tail window, not the void).
        assert_eq!(rep.rows.iter().map(|w| w.ops).sum::<u64>(), ops);
        // And the read/write lane split is exact too.
        let lanes: u64 = rep.rows.iter().flat_map(|w| w.lane_ops.iter()).sum();
        assert_eq!(lanes, ops);
    }

    #[test]
    fn burst_thrash_is_visible_in_windowed_miss_rates() {
        let window = SimTime::from_millis(1);
        let peak_miss = |pattern| {
            let mut cfg = tiny(PolicyKind::Lru, true, pattern);
            cfg.telemetry_window = window;
            let r = run_tiering(&cfg);
            let rep = r.telemetry.unwrap();
            // Skip thin windows (the overshoot tail has a handful of
            // ops and a meaningless ratio).
            rep.rows
                .iter()
                .filter(|w| w.ops >= 16)
                .map(|w| w.misses as f64 / w.ops as f64)
                .fold(0.0f64, f64::max)
        };
        let stable = peak_miss(PhasePattern::Stable);
        let burst = peak_miss(PhasePattern::Burst);
        // The uniform-scan phases thrash the tiers; end-of-run averages
        // blur this, per-window telemetry does not.
        assert!(
            burst > stable,
            "burst peak window miss rate {burst} must exceed stable {stable}"
        );

        // A limit between the two turns the thrash into an alert on
        // the burst run and stays quiet on the stable one.
        let limit = (stable + burst) / 2.0;
        let fires = |pattern| {
            let mut cfg = tiny(PolicyKind::Lru, true, pattern);
            cfg.telemetry_window = window;
            cfg.telemetry_miss_budget = limit;
            let r = run_tiering(&cfg);
            let rep = r.telemetry.unwrap();
            (rep.alert_fires(), rep.alert_log())
        };
        let (burst_fires, log) = fires(PhasePattern::Burst);
        assert!(
            burst_fires > 0,
            "miss_thrash must fire in scan phases:\n{log}"
        );
        let (stable_fires, log) = fires(PhasePattern::Stable);
        assert_eq!(stable_fires, 0, "stable traffic must not alert:\n{log}");
    }

    #[test]
    fn static_regime_never_sweeps() {
        let r = run_tiering(&tiny(PolicyKind::Lru, false, PhasePattern::Stable));
        assert_eq!(r.sweeps, 0);
        // Static demand paging serves every op from DRAM.
        assert!(r.dram_hit_rate > 0.0);
    }
}
