//! Set-up gate for the pooling harness: seating more instances must not
//! mean loading more tables.
//!
//! `run_pooling` loads instance 0 and copies it into every other seat. A
//! load allocates at least twice per row (the row, the descent path); a
//! copy allocates a fixed handful of buffers per pool. So the allocations
//! of a zero-window run barely move with the instance count — and grow
//! in proportion to it if a per-instance load ever comes back. The count
//! is per thread and exact, so it gates without a timing in sight.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::profile::{alloc_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of one `run_pooling` call that loads, seats and measures
/// (next to) nothing.
fn setup_allocs(kind: PoolKind, instances: usize) -> u64 {
    let mut cfg = PoolingConfig::standard(kind, SysbenchKind::PointSelect, instances);
    cfg.table_size = 4_000;
    cfg.duration = SimTime::from_micros(1);
    let before = alloc_count();
    let r = run_pooling(&cfg);
    let allocs = alloc_count() - before;
    assert_eq!(r.per_instance_qps.len(), instances);
    allocs
}

#[test]
fn set_up_allocations_do_not_scale_with_the_instance_count() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let one = setup_allocs(kind, 1);
        let four = setup_allocs(kind, 4);
        assert!(
            one > 2 * 4_000,
            "{kind:?}: a load allocates per row ({one})"
        );
        assert!(
            2 * four < 3 * one,
            "{kind:?}: {four} allocations at n = 4 against {one} at n = 1 — \
             instances 1..n are being loaded, not copied"
        );
    }
}
