//! Failure injection: repeated crash/recover cycles on a CXL-resident
//! database under a randomized workload, verifying contents against a
//! model after every recovery. This is the strongest end-to-end check
//! of PolarRecv's correctness: any page wrongly trusted, wrongly
//! rebuilt, or lost by the durable-metadata protocol shows up as a
//! content mismatch.

use polardb_cxl_repro::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const REC: u16 = 120;
const KEYS: u64 = 300;

fn build() -> Db<CxlBp> {
    let store = PageStore::with_page_size(512, 2048);
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        4 << 20,
        1,
        1 << 20,
        false,
    )));
    let mut db = Db::create(CxlBp::format(cxl, NodeId(0), 0, 512, store), REC);
    db.load((1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize])));
    db
}

#[test]
fn five_crashes_cannot_corrupt_committed_state() {
    let mut db = build();
    let mut model: BTreeMap<u64, Vec<u8>> = (1..=KEYS)
        .map(|k| (k, vec![(k % 250) as u8; REC as usize]))
        .collect();
    let mut rng = SimRng::seed_from_u64(99);
    let mut now = SimTime::ZERO;
    let mut next_key = KEYS + 1;

    for round in 0..5 {
        // A burst of committed work.
        for _ in 0..120 {
            match rng.gen_range(0..4) {
                0 => {
                    let k = rng.gen_range(1..next_key);
                    let v = [rng.gen::<u8>(); 24];
                    let (found, t) = db.update(k, 16, &v, now);
                    now = t;
                    if found {
                        model.get_mut(&k).unwrap()[16..40].copy_from_slice(&v);
                    } else {
                        assert!(!model.contains_key(&k));
                    }
                }
                1 => {
                    let rec = vec![rng.gen::<u8>(); REC as usize];
                    let (ins, t) = db.insert(next_key, &rec, now);
                    now = t;
                    assert!(ins);
                    model.insert(next_key, rec);
                    next_key += 1;
                }
                2 => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.delete(k, now);
                    now = t;
                    assert_eq!(found, model.remove(&k).is_some());
                }
                _ => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.point_select(k, now);
                    now = t;
                    assert_eq!(found, model.contains_key(&k), "key {k}");
                }
            }
        }
        // Occasionally checkpoint so replay floors vary across rounds.
        if round % 2 == 1 {
            now = db.checkpoint(now);
        }
        // Crash + PolarRecv.
        db.crash();
        let report = recover_polar(&mut db, now);
        now = report.done;
        // Full content verification.
        for (k, v) in &model {
            let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
            assert_eq!(got.as_ref(), Some(v), "round {round}, key {k}");
        }
        assert_eq!(
            db.table.check_invariants(&mut db.pool),
            model.len() as u64,
            "round {round} row count"
        );
    }
}

#[test]
fn five_crashes_on_tiered_rdma_cannot_corrupt_committed_state() {
    // Same storm against the RDMA-baseline design: local frames die with
    // the host, remote memory survives, and ARIES replay (served from
    // remote where resident) must restore exactly the committed state.
    let store = PageStore::with_page_size(512, 2048);
    let rdma = Rc::new(RefCell::new(RdmaPool::new(512 * 2048, 1)));
    const LBP_FRAMES: usize = 24;
    let mut db = Db::create(
        TieredRdmaBp::new(rdma, 0, 0, LBP_FRAMES, 1 << 20, store),
        REC,
    );
    db.load((1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize])));
    let mut model: BTreeMap<u64, Vec<u8>> = (1..=KEYS)
        .map(|k| (k, vec![(k % 250) as u8; REC as usize]))
        .collect();
    let mut rng = SimRng::seed_from_u64(77);
    let mut now = SimTime::ZERO;
    let mut next_key = KEYS + 1;

    for round in 0..5 {
        for _ in 0..120 {
            match rng.gen_range(0..4) {
                0 => {
                    let k = rng.gen_range(1..next_key);
                    let v = [rng.gen::<u8>(); 24];
                    let (found, t) = db.update(k, 16, &v, now);
                    now = t;
                    if found {
                        model.get_mut(&k).unwrap()[16..40].copy_from_slice(&v);
                    } else {
                        assert!(!model.contains_key(&k));
                    }
                }
                1 => {
                    let rec = vec![rng.gen::<u8>(); REC as usize];
                    let (ins, t) = db.insert(next_key, &rec, now);
                    now = t;
                    assert!(ins);
                    model.insert(next_key, rec);
                    next_key += 1;
                }
                2 => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.delete(k, now);
                    now = t;
                    assert_eq!(found, model.remove(&k).is_some());
                }
                _ => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.point_select(k, now);
                    now = t;
                    assert_eq!(found, model.contains_key(&k), "key {k}");
                }
            }
        }
        if round % 2 == 1 {
            now = db.checkpoint(now);
        }
        // Land the crash while most LBP frames read at least one line in
        // place from remote memory: frames the write burst above filled
        // from storage hold only their own lines, so sweep clean leaves
        // in with point selects first.
        for k in (1..next_key).step_by(2) {
            now = db.point_select(k, now).1;
        }
        assert!(
            db.pool.aliased_frames() * 2 > LBP_FRAMES,
            "round {round}: only {} of {LBP_FRAMES} frames aliased at the crash",
            db.pool.aliased_frames()
        );
        db.crash();
        assert_eq!(db.pool.aliased_frames(), 0);
        let report = recover_replay(&mut db, "rdma-based", now);
        now = report.done;
        for (k, v) in &model {
            let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
            assert_eq!(got.as_ref(), Some(v), "round {round}, key {k}");
        }
        // No post-crash read may see the wiped local tier (0xDE fill):
        // every page's header comes from remote memory or storage.
        for p in 0..db.pool.store().allocated_pages() {
            let mut header = [0u8; 16];
            db.pool.read(PageId(p), 0, &mut header, SimTime::ZERO);
            assert_ne!(header, [0xDE; 16], "round {round}, page {p} reads as wiped");
        }
        assert_eq!(
            db.table.check_invariants(&mut db.pool),
            model.len() as u64,
            "round {round} row count"
        );
    }
}

#[test]
fn recovery_after_torn_latch_rebuilds_from_redo() {
    // Simulate dying inside a write-latch window: the page must be
    // rebuilt from storage + durable redo even though its CXL bytes
    // contain the half-applied update.
    let mut db = build();
    let t = db.update(7, 0, &[0x31; 8], SimTime::ZERO).1; // committed
                                                          // Start an update but "die" before unlatch: write data + latch
                                                          // without ever flushing or clearing the latch.
    use polardb_cxl_repro::bufferpool::BufferPool;
    let t2 = db.pool.set_latch(PageId(0), true, t); // any page: use the real one below
    let _ = t2;
    // Find the page holding key 7 by writing through the engine-level
    // API but skipping the unlatch: emulate via raw latch + direct write.
    let (_, t3) = db
        .table
        .update_field(&mut db.pool, &mut db.wal, 7, 0, &[0x32; 8], t);
    // The mtr committed (latch cleared) but its redo is NOT durable —
    // PolarRecv must detect the too-new page via the LSN check.
    db.crash();
    let report = recover_polar(&mut db, t3);
    assert!(report.pages_rebuilt >= 1, "too-new page must be rebuilt");
    let (got, _) = db.table.get(&mut db.pool, 7, SimTime::ZERO);
    assert_eq!(
        &got.unwrap()[0..8],
        &[0x31; 8],
        "only durable state survives"
    );
}
