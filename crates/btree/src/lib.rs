//! # btree — a B+tree over the buffer pool abstraction
//!
//! The index structure the paper's workloads exercise: fixed-size-record
//! B+tree with leaf chaining, built *entirely* on [`bufferpool::BufferPool`]
//! byte-range reads/writes — so the same tree code runs over local DRAM,
//! the tiered RDMA pool, or PolarCXLMem, and every structural change is
//! redo-logged through a mini-transaction ([`mtr::Mtr`]) with two-phase
//! page latching (the SMO discipline §3.2's recovery relies on).

#![warn(missing_docs)]

mod inline_vec;
pub mod mtr;
pub mod page;
pub mod tree;

pub use mtr::Mtr;
pub use tree::BTree;

#[cfg(test)]
mod tests {
    use crate::BTree;
    use bufferpool::dram_bp::DramBp;
    use bufferpool::BufferPool;
    use simkit::rng::SimRng;
    use simkit::SimTime;
    use storage::{PageStore, Wal};

    const REC: u16 = 56; // small records force deep trees quickly

    fn pool(pages: u64) -> DramBp {
        let store = PageStore::with_page_size(pages, 512);
        DramBp::new(pages as usize, 1 << 20, store)
    }

    fn rec(tag: u8) -> Vec<u8> {
        vec![tag; REC as usize]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut bp = pool(64);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in [5u64, 1, 9, 3, 7] {
            let (ok, _) = t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
            assert!(ok);
        }
        for k in [1u64, 3, 5, 7, 9] {
            let (got, _) = t.get(&mut bp, k, SimTime::ZERO);
            assert_eq!(got.unwrap(), rec(k as u8), "key {k}");
        }
        let (missing, _) = t.get(&mut bp, 4, SimTime::ZERO);
        assert!(missing.is_none());
        assert_eq!(t.check_invariants(&mut bp), 5);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut bp = pool(64);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        assert!(t.insert(&mut bp, &mut wal, 7, &rec(1), SimTime::ZERO).0);
        assert!(!t.insert(&mut bp, &mut wal, 7, &rec(2), SimTime::ZERO).0);
        let (got, _) = t.get(&mut bp, 7, SimTime::ZERO);
        assert_eq!(got.unwrap(), rec(1), "original value preserved");
    }

    #[test]
    fn splits_grow_the_tree() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        // 512-byte pages with 64-byte slots: capacity 7; 100 keys forces
        // multiple levels.
        for k in 0..100u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        assert!(t.height() >= 2, "height {}", t.height());
        assert_eq!(t.check_invariants(&mut bp), 100);
        for k in 0..100u64 {
            let (got, _) = t.get(&mut bp, k, SimTime::ZERO);
            assert_eq!(got.unwrap(), rec(k as u8), "key {k}");
        }
    }

    #[test]
    fn descending_inserts_split_correctly() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in (0..100u64).rev() {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        assert_eq!(t.check_invariants(&mut bp), 100);
    }

    #[test]
    fn scan_follows_leaf_chain() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in (0..100u64).step_by(2) {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        let (rows, _) = t.scan(&mut bp, 11, 10, SimTime::ZERO);
        let keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![12, 14, 16, 18, 20, 22, 24, 26, 28, 30]);
        for (k, v) in rows {
            assert_eq!(v, rec(k as u8));
        }
        // Scan past the end stops gracefully.
        let (tail, _) = t.scan(&mut bp, 95, 10, SimTime::ZERO);
        assert_eq!(tail.len(), 2); // 96, 98
    }

    #[test]
    fn scan_count_counts_what_scan_returns_at_the_same_cost() {
        // Twin pools with a small modelled cache (so scans miss and evict
        // lines): the counting form must report the same number of rows,
        // finish at the same virtual time and leave the same pool and
        // cache counters as the collecting form (same accesses, same
        // order), while moving no row bytes.
        let build = || {
            let mut bp = DramBp::new(256, 4 << 10, PageStore::with_page_size(256, 512));
            let mut wal = Wal::new();
            let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
            for k in (0..400u64).step_by(3) {
                t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
            }
            // Deletes put heap cells on the leaves' free lists, so slot
            // order and heap order differ.
            for k in (0..400u64).step_by(12) {
                t.delete(&mut bp, &mut wal, k, SimTime::ZERO);
            }
            for k in (1..400u64).step_by(24) {
                t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
            }
            (bp, t)
        };
        let (mut bp_a, t_a) = build();
        let (mut bp_b, t_b) = build();
        assert!(t_a.height() >= 2);
        let cases = [
            (6, 3),          // inside one leaf
            (100, 60),       // across the leaf chain
            (390, 50),       // into the table end
            (7, 0),          // limit == 0
            (1_000, 3),      // start past the last key
            (0, usize::MAX), // the whole table
        ];
        for (start, limit) in cases {
            let (rows, end_a) = t_a.scan(&mut bp_a, start, limit, SimTime(17));
            let (n, end_b) = t_b.scan_count(&mut bp_b, start, limit, SimTime(17));
            assert_eq!(n, rows.len(), "start {start} limit {limit}");
            assert_eq!(end_b, end_a, "start {start} limit {limit}");
            assert_eq!(format!("{:?}", bp_b.stats()), format!("{:?}", bp_a.stats()));
            assert_eq!(bp_b.cache_stats(), bp_a.cache_stats());
        }
        assert!(bp_a.cache_stats().misses > 100, "{:?}", bp_a.cache_stats());
    }

    #[test]
    fn update_field_changes_only_that_field() {
        let mut bp = pool(64);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        t.insert(&mut bp, &mut wal, 42, &rec(7), SimTime::ZERO);
        let (found, _) = t.update_field(&mut bp, &mut wal, 42, 10, &[0xFF; 4], SimTime::ZERO);
        assert!(found);
        let (got, _) = t.get(&mut bp, 42, SimTime::ZERO);
        let got = got.unwrap();
        assert_eq!(&got[0..10], &rec(7)[0..10]);
        assert_eq!(&got[10..14], &[0xFF; 4]);
        assert_eq!(&got[14..], &rec(7)[14..]);
        // Missing key reports not-found.
        let (found, _) = t.update_field(&mut bp, &mut wal, 999, 0, &[1], SimTime::ZERO);
        assert!(!found);
    }

    #[test]
    fn delete_removes_and_preserves_order() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in 0..50u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        for k in (0..50u64).step_by(3) {
            let (found, _) = t.delete(&mut bp, &mut wal, k, SimTime::ZERO);
            assert!(found);
        }
        assert_eq!(t.check_invariants(&mut bp), 50 - 17);
        for k in 0..50u64 {
            let (got, _) = t.get(&mut bp, k, SimTime::ZERO);
            assert_eq!(got.is_some(), k % 3 != 0, "key {k}");
        }
        // Deleting a missing key is a no-op.
        let (found, _) = t.delete(&mut bp, &mut wal, 0, SimTime::ZERO);
        assert!(!found);
    }

    #[test]
    fn mass_deletes_merge_leaves_and_shrink_the_tree() {
        let mut bp = pool(512);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in 0..200u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        let grown_height = t.height();
        assert!(grown_height >= 2);
        // Drain the tree completely: merges must cascade and the root
        // must collapse back to a single (empty) leaf.
        for k in 0..200u64 {
            let (found, _) = t.delete(&mut bp, &mut wal, k, SimTime::ZERO);
            assert!(found, "key {k}");
        }
        assert_eq!(t.check_invariants(&mut bp), 0);
        assert_eq!(t.height(), 0, "full drain must collapse the root");
        let (rows, _) = t.scan(&mut bp, 0, 10, SimTime::ZERO);
        assert!(rows.is_empty());
        // And the tree still accepts inserts after the collapse.
        for k in 300..360u64 {
            assert!(t.insert(&mut bp, &mut wal, k, &rec(3), SimTime::ZERO).0);
        }
        assert_eq!(t.check_invariants(&mut bp), 60);
    }

    #[test]
    fn merges_are_redo_logged_like_splits() {
        let mut bp = pool(512);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in 0..60u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        for k in 10..60u64 {
            t.delete(&mut bp, &mut wal, k, SimTime::ZERO);
        }
        wal.flush(SimTime::ZERO);
        // Replay over pristine storage reproduces the post-merge tree.
        let mut fresh = pool(512);
        for _ in 0..bp.store().allocated_pages() {
            fresh.store_mut().allocate();
        }
        for r in wal.replay_from(storage::Lsn::ZERO) {
            fresh.write(r.page, r.off, r.data, r.lsn, SimTime::ZERO);
        }
        let (t2, _) = BTree::open(&mut fresh, t.meta_page, SimTime::ZERO);
        assert_eq!(t2.height(), t.height());
        assert_eq!(t2.check_invariants(&mut fresh), 10);
    }

    #[test]
    fn reopen_after_close() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in 0..60u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        let meta = t.meta_page;
        bp.flush_all(SimTime::ZERO);
        let (t2, _) = BTree::open(&mut bp, meta, SimTime::ZERO);
        assert_eq!(t2.root(), t.root());
        assert_eq!(t2.height(), t.height());
        let (got, _) = t2.get(&mut bp, 33, SimTime::ZERO);
        assert_eq!(got.unwrap(), rec(33));
    }

    #[test]
    fn every_structural_write_is_redo_logged() {
        let mut bp = pool(256);
        let mut wal = Wal::new();
        let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
        for k in 0..30u64 {
            t.insert(&mut bp, &mut wal, k, &rec(k as u8), SimTime::ZERO);
        }
        wal.flush(SimTime::ZERO);
        // Replaying the full log over pristine storage must reproduce
        // the tree (physical redo is idempotent and complete).
        let mut fresh = pool(256);
        for _ in 0..bp.store().allocated_pages() {
            fresh.store_mut().allocate();
        }
        for r in wal.replay_from(storage::Lsn::ZERO) {
            fresh.write(r.page, r.off, r.data, r.lsn, SimTime::ZERO);
        }
        let (t2, _) = BTree::open(&mut fresh, t.meta_page, SimTime::ZERO);
        assert_eq!(t2.check_invariants(&mut fresh), 30);
        for k in 0..30u64 {
            let (got, _) = t2.get(&mut fresh, k, SimTime::ZERO);
            assert_eq!(got.unwrap(), rec(k as u8), "key {k}");
        }
    }

    /// The tree agrees with a BTreeMap model under seeded random
    /// workloads (32 independent cases).
    #[test]
    fn matches_btreemap_model() {
        for case in 0..32u64 {
            let mut rng = SimRng::seed_from_u64(0xB7EE_0000 + case);
            let n_ops = rng.gen_range(1usize..300);
            let mut bp = pool(2048);
            let mut wal = Wal::new();
            let (mut t, _) = BTree::create(&mut bp, &mut wal, REC, SimTime::ZERO);
            let mut model = std::collections::BTreeMap::new();
            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..4);
                let key = rng.gen_range(0u64..500);
                match op {
                    0 | 1 => {
                        let v = rec((key % 251) as u8);
                        let (ins, _) = t.insert(&mut bp, &mut wal, key, &v, SimTime::ZERO);
                        let model_ins = !model.contains_key(&key);
                        assert_eq!(ins, model_ins, "case {case}");
                        if model_ins {
                            model.insert(key, v);
                        }
                    }
                    2 => {
                        let (del, _) = t.delete(&mut bp, &mut wal, key, SimTime::ZERO);
                        assert_eq!(del, model.remove(&key).is_some(), "case {case}");
                    }
                    _ => {
                        let (got, _) = t.get(&mut bp, key, SimTime::ZERO);
                        assert_eq!(got.as_ref(), model.get(&key), "case {case}");
                    }
                }
            }
            assert_eq!(
                t.check_invariants(&mut bp),
                model.len() as u64,
                "case {case}"
            );
            // Full scan equals model iteration.
            let (rows, _) = t.scan(&mut bp, 0, usize::MAX, SimTime::ZERO);
            let scan_keys: Vec<u64> = rows.iter().map(|(k, _)| *k).collect();
            let model_keys: Vec<u64> = model.keys().copied().collect();
            assert_eq!(scan_keys, model_keys, "case {case}");
        }
    }
}
