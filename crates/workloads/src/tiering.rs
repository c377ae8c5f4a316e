//! Larger-than-memory tiering harness.
//!
//! Drives zipfian page traffic over an [`AdaptivePool`] whose working
//! set is 10–100x the combined DRAM+CXL memory, so storage misses and
//! tier migrations — not B+tree logic — dominate: one fixed zipfian hot
//! set, run under an eviction policy and either the static or the
//! adaptive migration regime, comparing storage miss rate and tail
//! latency. `tests/tiering_claim.rs` holds the six cells that carry the
//! paper's no-tiering argument.
//!
//! Everything is closed-loop in virtual time and bit-deterministic for
//! a given config.

use crate::metrics::RunMetrics;
use bufferpool::{BufferPool, PolicyKind};
use memsim::{CxlPool, NodeId};
use polarcxlmem::tiering::{AdaptivePool, TierConfig};
use simkit::rng::{stream_rng, Zipf};
use simkit::{Histogram, MetricsRegistry, SimTime, Step, WorkerId, WorkerSet};
use std::cell::RefCell;
use std::rc::Rc;
use storage::{Lsn, PageId, PageStore};

/// Page size in bytes.
const PAGE_SIZE: u64 = 4096;
/// Closed-loop workers.
const WORKERS: usize = 8;
/// Percent of operations that write.
const WRITE_PCT: u8 = 20;

/// Tiering experiment configuration.
#[derive(Debug, Clone)]
pub struct TieringConfig {
    /// Working-set size in pages (the larger-than-memory axis: size this
    /// 10–100x `dram_frames + cxl_blocks`).
    pub pages: u64,
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
    /// Measured window of virtual time.
    pub duration: SimTime,
    /// Root RNG seed.
    pub seed: u64,
}

impl TieringConfig {
    /// A scaled-down standard: 16x larger-than-memory zipfian traffic.
    pub fn standard(policy: PolicyKind, adaptive: bool) -> Self {
        let dram_frames = 64;
        let cxl_blocks = 256;
        TieringConfig {
            pages: 16 * (dram_frames + cxl_blocks) as u64,
            dram_frames,
            cxl_blocks,
            policy,
            adaptive,
            theta: 0.99,
            duration: SimTime::from_millis(60),
            seed: 7,
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
}

/// Run a tiering experiment.
pub fn run_tiering(cfg: &TieringConfig) -> TieringResult {
    assert!(cfg.pages > 0);
    let mut store = PageStore::with_page_size(cfg.pages, PAGE_SIZE);
    for _ in 0..cfg.pages {
        store.allocate();
    }
    let cxl_bytes = (cfg.cxl_blocks as u64 * PAGE_SIZE) as usize;
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        cxl_bytes,
        1,
        256 << 10,
        false,
    )));
    let mut tier = TierConfig::standard(cfg.dram_frames, cfg.cxl_blocks);
    tier.policy = cfg.policy;
    tier.adaptive = cfg.adaptive;
    let mut pool = AdaptivePool::new(cxl, NodeId(0), 0, tier, store);

    let zipf = Zipf::new(cfg.pages, cfg.theta);
    let mut rngs: Vec<_> = (0..WORKERS)
        .map(|w| stream_rng(cfg.seed, w as u64))
        .collect();
    let mut ws = WorkerSet::new();
    for w in 0..WORKERS {
        ws.spawn(WorkerId(w), SimTime::ZERO);
    }

    let mut hist = Histogram::new();
    let mut ops = 0u64;
    let mut lsn = 0u64;
    let payload = [0xABu8; 64];
    let mut buf = [0u8; 64];
    let mut lat_batch: Vec<u64> = Vec::with_capacity(1024);
    ws.run_until(cfg.duration, |WorkerId(w), start| {
        // Migration sweeps run between operations (a background loop in
        // a real system): the sweep's cost advances this worker's clock
        // but is not attributed to the operation's latency.
        let t0 = pool.maybe_sweep(start);
        let rng = &mut rngs[w];
        // Rank 0 is the hottest page, for the whole run.
        let page = zipf.sample(rng);
        let off = (page.wrapping_mul(64) % (PAGE_SIZE - payload.len() as u64)) as u16;
        let is_write = rng.gen_range(0u8..100) < WRITE_PCT;
        let end = if is_write {
            lsn += 1;
            pool.write(PageId(page), off, &payload, Lsn(lsn), t0).end
        } else {
            pool.read(PageId(page), off, &mut buf, t0).end
        };
        lat_batch.push(end - t0);
        if lat_batch.len() == lat_batch.capacity() {
            hist.record_batch(&lat_batch);
            lat_batch.clear();
        }
        ops += 1;
        Step::Done(end)
    });
    hist.record_batch(&lat_batch);

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
        memory_bytes: (cfg.dram_frames + cfg.cxl_blocks) as u64 * PAGE_SIZE,
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
    TieringResult {
        metrics,
        registry: reg,
        storage_miss_rate,
        dram_hit_rate,
        sweeps: pool.sweeps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PolicyKind, adaptive: bool) -> TieringConfig {
        let mut cfg = TieringConfig::standard(policy, adaptive);
        cfg.dram_frames = 16;
        cfg.cxl_blocks = 48;
        cfg.pages = 10 * 64;
        cfg.duration = SimTime::from_millis(8);
        cfg
    }

    #[test]
    fn runs_are_deterministic_per_policy_and_regime() {
        for kind in PolicyKind::ALL {
            for adaptive in [false, true] {
                let cfg = tiny(kind, adaptive);
                let a = run_tiering(&cfg);
                let b = run_tiering(&cfg);
                assert_eq!(a, b, "{kind:?} adaptive={adaptive} must replay exactly");
                assert!(a.metrics.qps > 0.0);
            }
        }
    }

    #[test]
    fn seed_changes_the_run() {
        let cfg = tiny(PolicyKind::Lru, true);
        let mut cfg2 = cfg.clone();
        cfg2.seed += 1;
        let a = run_tiering(&cfg);
        let b = run_tiering(&cfg2);
        assert_ne!(a.registry, b.registry);
    }

    #[test]
    fn working_set_exceeds_memory_and_misses_happen() {
        let cfg = tiny(PolicyKind::Lru, true);
        assert!(cfg.pages >= 10 * (cfg.dram_frames + cfg.cxl_blocks) as u64);
        let r = run_tiering(&cfg);
        assert!(r.storage_miss_rate > 0.0, "working set must not fit");
        assert!(r.storage_miss_rate < 1.0, "the hot head must still hit");
    }

    #[test]
    fn adaptive_regime_sweeps_and_promotes() {
        let r = run_tiering(&tiny(PolicyKind::Lru, true));
        assert!(r.sweeps > 0, "epochs must have elapsed");
        let promotes = match r.registry.get("bp_tier_promotes") {
            Some(simkit::MetricValue::Int(v)) => v,
            other => panic!("missing promotes: {other:?}"),
        };
        assert!(promotes > 0, "hot pages must migrate to DRAM");
        assert!(r.dram_hit_rate > 0.0);
    }

    #[test]
    fn static_regime_never_sweeps() {
        let r = run_tiering(&tiny(PolicyKind::Lru, false));
        assert_eq!(r.sweeps, 0);
        // Static demand paging serves every op from DRAM.
        assert!(r.dram_hit_rate > 0.0);
    }
}
