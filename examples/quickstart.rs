//! Quickstart: build a database whose buffer pool lives entirely in
//! simulated CXL-switch memory, run a few queries, crash the host, and
//! watch PolarRecv bring it back warm.
//!
//! Run with: `cargo run --release --example quickstart`

use polardb_cxl_repro::prelude::*;
use std::{cell::RefCell, rc::Rc};

fn main() {
    // --- 1. The shared CXL pool and its memory manager (§3.1) --------
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        256 << 20, // 256 MiB pool behind the switch
        1,         // one attached node
        4 << 20,   // 4 MiB of CPU cache for its CXL traffic
        false,
    )));
    let mut mgr = CxlMemoryManager::new(256 << 20);
    let (lease, granted_at) = mgr
        .allocate(NodeId(0), 200 << 20, SimTime::ZERO)
        .expect("pool has room");
    println!(
        "leased {} MiB of CXL memory at offset {:#x} (RPC done at {granted_at})",
        lease.size >> 20,
        lease.offset
    );

    // --- 2. A database on a CXL-resident buffer pool ------------------
    let store = PageStore::new(2_000);
    let pool = CxlBp::format(Rc::clone(&cxl), NodeId(0), lease.offset, 2_000, store);
    let mut db = Db::create(pool, 188);
    db.load((1..=50_000u64).map(|k| (k, vec![(k % 251) as u8; 188])));
    db.reset_timing_queues(); // measurement starts with clean device queues
    println!("loaded 50k rows");

    // --- 3. Some work -------------------------------------------------
    let mut t = SimTime::ZERO;
    for key in [1u64, 25_000, 50_000] {
        let (found, t2) = db.point_select(key, t);
        println!("select {key}: found={found}, latency={}ns", t2 - t);
        t = t2;
    }
    let (found, t2) = db.update(123, 0, &[0xAB; 16], t);
    assert!(found);
    t = t2;
    println!("updated row 123 (durable at {t})");

    // --- 4. Crash and instant recovery (§3.2) -------------------------
    db.crash();
    println!("host crashed: CPU cache and local state gone; CXL box survives");
    let report = recover_polar(&mut db, TrustPolicy::Durable, t);
    println!(
        "PolarRecv done in {}: trusted CXL copies, rebuilt {} page(s), applied {} redo record(s)",
        simkit::SimTime::from_nanos(report.done - t),
        report.pages_rebuilt,
        report.records_applied
    );

    // The update survived, and the buffer is warm.
    let mut buf = [0u8; 16];
    let (found, _) = db.select_field(123, 0, &mut buf, report.done);
    assert!(found);
    assert_eq!(buf, [0xAB; 16]);
    println!("row 123 still carries the committed update — recovery is correct");
}
