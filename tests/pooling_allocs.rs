//! Allocation gates for the pooling harness's measured window.
//!
//! A point-select on a warm pool walks pre-sized structures only: the
//! transaction buffer, the latency batch, every frame table and the
//! modelled cache are allocated before the window opens. So the window
//! itself allocates (next to) nothing per query, and the buffer-pool
//! layer allocates nothing at all, set-up included. Both counts are per
//! thread and exact, so they gate without a timing in sight.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::profile::{self, alloc_count, CountingAlloc, Subsys};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn point_select(kind: PoolKind, window_ms: u64) -> PoolingConfig {
    let mut cfg = PoolingConfig::standard(kind, SysbenchKind::PointSelect, 1);
    cfg.table_size = 4_000;
    cfg.duration = SimTime::from_millis(window_ms);
    cfg
}

/// Allocations and queries of one `run_pooling` call.
fn allocs_and_queries(cfg: &PoolingConfig) -> (f64, f64) {
    let before = alloc_count();
    let r = run_pooling(cfg);
    let allocs = alloc_count() - before;
    (
        allocs as f64,
        r.metrics.qps * r.metrics.window.as_secs_f64(),
    )
}

/// Two runs that differ only in window length allocate the same during
/// set-up, so the difference is the measured loop's alone.
#[test]
fn steady_state_point_select_allocates_next_to_nothing_per_query() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let (a_short, q_short) = allocs_and_queries(&point_select(kind, 4));
        let (a_long, q_long) = allocs_and_queries(&point_select(kind, 12));
        assert!(q_long > q_short + 1_000.0, "{kind:?}: window too short");
        let per_query = (a_long - a_short) / (q_long - q_short);
        assert!(
            per_query < 0.01,
            "{kind:?}: {per_query:.4} allocations per query in the measured window \
             ({a_short} over {q_short} queries, {a_long} over {q_long})"
        );
    }
}

/// The profiler's own ledger agrees: over a whole run — load, seat copy
/// and window — the buffer-pool row is entered and allocates nothing
/// itself (what its callees allocate is theirs).
#[test]
fn buffer_pool_layer_allocates_nothing_over_a_whole_run() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let mut cfg = point_select(kind, 4);
        cfg.instances = 2;
        profile::reset();
        profile::enable(true);
        let _ = run_pooling(&cfg);
        profile::enable(false);
        let row = profile::snapshot().row(Subsys::BufferPool);
        profile::reset();
        assert!(row.calls > 0, "{kind:?}: the buffer pool was never entered");
        assert_eq!(
            row.self_allocs, 0,
            "{kind:?}: the buffer-pool layer allocated"
        );
    }
}
