//! Set-up gates for the pooling harness: seating more instances must not
//! mean loading more tables, nor copying more page stores.
//!
//! `run_pooling` loads instance 0 and copies it into every other seat. A
//! load allocates at least once per row (the row itself); a copy
//! allocates a fixed handful of buffers per pool. So the allocations of a
//! zero-window run barely move with the instance count — and grow in
//! proportion to it if a per-instance load ever comes back. A copied
//! seat shares the page store it was copied from until it writes a page,
//! so the bytes a seat allocates are its share of the pool memory and
//! not a second store. And a load keeps no redo: it allocates its logged
//! reference's bytes less that reference's log. The counts are per
//! thread and exact, so they gate without a timing in sight.

use polardb_cxl_repro::memsim::calib::PAGE_SIZE;
use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::profile::{alloc_bytes, alloc_count, CountingAlloc};
use polardb_cxl_repro::storage::wal::encoded_len;
use polardb_cxl_repro::workloads::harness::pages_for;
use polardb_cxl_repro::workloads::sysbench::{make_record, RECORD_SIZE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: u64 = 4_000;

/// What one `run_pooling` call that loads, seats and measures (next to)
/// nothing allocates: (allocations, bytes), and the pool memory the run
/// reports for all its seats.
fn set_up(kind: PoolKind, instances: usize) -> (u64, u64, u64) {
    let mut cfg = PoolingConfig::standard(kind, SysbenchKind::PointSelect, instances);
    cfg.table_size = ROWS;
    cfg.duration = SimTime::from_micros(1);
    let (allocs, bytes) = (alloc_count(), alloc_bytes());
    let r = run_pooling(&cfg);
    let (allocs, bytes) = (alloc_count() - allocs, alloc_bytes() - bytes);
    assert_eq!(r.per_instance_qps.len(), instances);
    (allocs, bytes, r.metrics.memory_bytes)
}

#[test]
fn set_up_allocations_do_not_scale_with_the_instance_count() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let (one, ..) = set_up(kind, 1);
        let (four, ..) = set_up(kind, 4);
        assert!(one > ROWS, "{kind:?}: a load allocates per row ({one})");
        assert!(
            2 * four < 3 * one,
            "{kind:?}: {four} allocations at n = 4 against {one} at n = 1 — \
             instances 1..n are being loaded, not copied"
        );
    }
}

/// Three more seats allocate less than three times one seat's share of
/// the pool memory (a CXL lease; an RDMA slice and its local buffer
/// pool) plus half a page store. Beyond its share a seat allocates its
/// modelled CPU cache, its pool's host-side state and its WAL's empty
/// log block: 0.14 (RDMA) and 0.23 (CXL) of a store at this
/// size. Seats that copied the log capacity the load had reserved read
/// 0.77 and 0.87; seats that copied their page store, 1.77 and 1.99.
#[test]
fn a_seat_allocates_its_share_of_the_pool_not_a_page_store() {
    let store = pages_for(ROWS, PAGE_SIZE) * PAGE_SIZE;
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let (_, one, _) = set_up(kind, 1);
        let (_, four, memory) = set_up(kind, 4);
        let share = memory / 4;
        let beyond = (four - one) as f64 / 3.0 - share as f64;
        println!(
            "{kind:?}: a seat allocates its share ({share} B) and {beyond:.0} B \
             = {:.2} page stores",
            beyond / store as f64
        );
        assert!(
            four - one < 3 * (share + store / 2),
            "{kind:?}: {} bytes for three more seats — they copy their page store",
            four - one
        );
    }
}

/// The standard rows of a `ROWS`-row table.
fn rows() -> impl Iterator<Item = (u64, Vec<u8>)> {
    (1..=ROWS).map(|k| (k, make_record(k, (k % 251) as u8)))
}

/// `Db::load` allocates what its logged reference — every insert
/// redo-logged, then the same checkpoint and prewarm — does, less that
/// reference's log: at least every payload byte it logged, at most its
/// size on the device (a host record's header is the smaller).
#[test]
fn a_load_allocates_no_log() {
    let pages = pages_for(ROWS, PAGE_SIZE);
    let fresh = || {
        let pool = DramBp::new(pages as usize, 1 << 20, PageStore::new(pages));
        Db::create(pool, RECORD_SIZE)
    };
    let mut db = fresh();
    let bytes = alloc_bytes();
    db.load(rows());
    let load = alloc_bytes() - bytes;

    let mut db = fresh();
    let (bytes, created) = (alloc_bytes(), db.wal.max_assigned_lsn());
    for (k, v) in rows() {
        db.table
            .insert(&mut db.pool, &mut db.wal, k, &v, SimTime::ZERO);
    }
    db.wal.flush(SimTime::ZERO);
    let (mut payload, mut device) = (0, 0);
    for rec in db.wal.replay_from(created) {
        payload += rec.data.len() as u64;
        device += encoded_len(&rec);
    }
    db.checkpoint(SimTime::ZERO);
    db.pool.prewarm();
    let saved = alloc_bytes() - bytes - load;
    println!("a load allocates {load} B; its logged reference {saved} B more, for a log of {payload} payload and {device} device bytes");
    assert!(
        (payload..=device).contains(&saved),
        "a load allocates {saved} B less than its logged reference, whose log holds \
         {payload} payload bytes ({device} on the device)"
    );
}
