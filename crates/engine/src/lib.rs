//! # engine — a mini cloud-native OLTP engine
//!
//! The database the experiments run: a B+tree table over a pluggable
//! buffer pool, redo-only WAL with statement-atomic commits, vCPU
//! accounting per instance, crash injection, and the three recovery
//! schemes of Figure 10.
//!
//! The same [`db::Db`] runs over [`bufferpool::dram_bp::DramBp`]
//! (DRAM-BP), [`bufferpool::tiered::TieredRdmaBp`] (the RDMA baseline)
//! or [`polarcxlmem::CxlBp`] (PolarCXLMem) — which is the whole point:
//! the paper's design slots under an unchanged transaction engine
//! (§3.1, "minimal modifications to the existing architecture").

#![warn(missing_docs)]

pub mod db;
pub mod recovery;

pub use db::{Db, DbStats};
pub use recovery::{recover_polar, recover_polar_policy, recover_replay, RecoverySummary};

#[cfg(test)]
mod tests {
    use crate::db::Db;
    use crate::recovery::{recover_polar, recover_replay, RecoverySummary};
    use bufferpool::dram_bp::DramBp;
    use bufferpool::tiered::TieredRdmaBp;
    use bufferpool::BufferPool;
    use memsim::{Access, CxlPool, NodeId, RdmaPool};
    use polarcxlmem::CxlBp;
    use simkit::rng::SimRng;
    use simkit::SimTime;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;
    use storage::{LogRecord, Lsn, PageId, PageStore};

    const REC: u16 = 120;
    const KEYS: u64 = 400;

    fn rows() -> impl Iterator<Item = (u64, Vec<u8>)> {
        (1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize]))
    }

    fn dram_db() -> Db<DramBp> {
        let store = PageStore::with_page_size(256, 2048);
        let mut db = Db::create(DramBp::new(256, 1 << 20, store), REC);
        db.load(rows());
        db
    }

    fn tiered_db() -> Db<TieredRdmaBp> {
        let store = PageStore::with_page_size(256, 2048);
        let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
        let mut db = Db::create(TieredRdmaBp::new(rdma, 0, 0, 64, 1 << 20, store), REC);
        db.load(rows());
        db
    }

    fn cxl_db() -> Db<CxlBp> {
        let store = PageStore::with_page_size(256, 2048);
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            2 << 20,
            1,
            1 << 20,
            false,
        )));
        let mut db = Db::create(CxlBp::format(cxl, NodeId(0), 0, 256, store), REC);
        db.load(rows());
        db
    }

    #[test]
    #[should_panic(expected = "installed fault plan")]
    fn copying_under_a_fault_plan_is_refused() {
        let db = dram_db();
        // Armed, never firing: the hit indices are what a skipped load
        // would shift.
        simkit::faults::install(simkit::FaultPlan::crash_at_hit(u64::MAX));
        db.copy_onto(db.pool.clone());
    }

    #[test]
    #[should_panic(expected = "installed fault plan")]
    fn loading_under_a_fault_plan_is_refused() {
        // A crash mid-load would need the redo the load does not keep.
        simkit::faults::install(simkit::FaultPlan::crash_at_hit(u64::MAX));
        dram_db();
    }

    fn check_contents<P: BufferPool>(db: &mut Db<P>, model: &BTreeMap<u64, Vec<u8>>) {
        for (k, v) in model {
            let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
            assert_eq!(got.as_ref(), Some(v), "key {k}");
        }
        assert_eq!(
            db.table.check_invariants(&mut db.pool),
            model.len() as u64,
            "row count"
        );
    }

    #[test]
    fn queries_work_on_all_three_pools() {
        let mut d = dram_db();
        let mut t = tiered_db();
        let mut c = cxl_db();
        let (f1, _) = d.point_select(5, SimTime::ZERO);
        let (f2, _) = t.point_select(5, SimTime::ZERO);
        let (f3, _) = c.point_select(5, SimTime::ZERO);
        assert!(f1 && f2 && f3);
        let (n1, _) = d.range_select(10, 20, SimTime::ZERO);
        let (n2, _) = t.range_select(10, 20, SimTime::ZERO);
        let (n3, _) = c.range_select(10, 20, SimTime::ZERO);
        assert_eq!((n1, n2, n3), (20, 20, 20));
    }

    #[test]
    fn updates_are_visible_and_durable() {
        let mut db = cxl_db();
        let (found, _) = db.update(7, 0, &[0xAA; 8], SimTime::ZERO);
        assert!(found);
        let mut buf = [0u8; 8];
        let (f, _) = db.select_field(7, 0, &mut buf, SimTime::ZERO);
        assert!(f);
        assert_eq!(buf, [0xAA; 8]);
        assert!(db.durable_lsn().0 > 0);
    }

    /// Run a deterministic mixed workload, crash, recover with the given
    /// scheme, and compare contents against the committed model.
    fn crash_recover_roundtrip<P, FR>(mut db: Db<P>, recover: FR) -> (u64, SimTime)
    where
        P: BufferPool + bufferpool::Crashable,
        FR: FnOnce(&mut Db<P>, SimTime) -> crate::recovery::RecoverySummary,
    {
        let mut model: BTreeMap<u64, Vec<u8>> = rows().collect();
        let mut rng = SimRng::seed_from_u64(7);
        let mut now = SimTime::ZERO;
        for i in 0..300 {
            let k = rng.gen_range(1..=KEYS);
            match i % 3 {
                0 => {
                    let val = [rng.gen::<u8>(); 16];
                    let (found, t) = db.update(k, 8, &val, now);
                    now = t;
                    if found {
                        model.get_mut(&k).unwrap()[8..24].copy_from_slice(&val);
                    }
                }
                1 => {
                    let nk = KEYS + 1 + i as u64;
                    let rec = vec![rng.gen::<u8>(); REC as usize];
                    let (ins, t) = db.insert(nk, &rec, now);
                    now = t;
                    assert!(ins);
                    model.insert(nk, rec);
                }
                _ => {
                    let (_, t) = db.point_select(k, now);
                    now = t;
                }
            }
            if i == 150 {
                now = db.checkpoint(now);
            }
        }
        // Crash with everything committed (statement autocommit), so
        // the model matches exactly.
        db.crash();
        let summary = recover(&mut db, now);
        check_contents(&mut db, &model);
        // The database continues serving after recovery.
        let (found, _) = db.point_select(1, summary.done);
        assert!(found);
        (summary.pages_rebuilt, summary.done)
    }

    #[test]
    fn vanilla_recovery_restores_committed_state() {
        let (pages, _) =
            crash_recover_roundtrip(dram_db(), |db, t| recover_replay(db, "vanilla", t));
        assert!(pages > 0, "replay touched pages");
    }

    #[test]
    fn rdma_recovery_restores_committed_state() {
        crash_recover_roundtrip(tiered_db(), |db, t| recover_replay(db, "rdma", t));
    }

    #[test]
    fn polarrecv_restores_committed_state() {
        crash_recover_roundtrip(cxl_db(), recover_polar);
    }

    #[test]
    fn polarrecv_is_faster_and_rebuilds_less() {
        // Same workload, three schemes.
        let t0 = SimTime::ZERO;
        let drive = |now: &mut SimTime, db: &mut dyn FnMut(u64, SimTime) -> SimTime| {
            for k in 1..=200u64 {
                *now = db(k, *now);
            }
        };
        let mut vn = dram_db();
        let mut now_v = t0;
        drive(&mut now_v, &mut |k, t| vn.update(k, 0, &[1; 8], t).1);
        vn.crash();
        let sv = recover_replay(&mut vn, "vanilla", now_v);

        let mut rd = tiered_db();
        let mut now_r = t0;
        drive(&mut now_r, &mut |k, t| rd.update(k, 0, &[1; 8], t).1);
        rd.crash();
        let sr = recover_replay(&mut rd, "rdma", now_r);

        let mut cx = cxl_db();
        let mut now_c = t0;
        drive(&mut now_c, &mut |k, t| cx.update(k, 0, &[1; 8], t).1);
        cx.crash();
        let sp = recover_polar(&mut cx, now_c);

        let dv = sv.done - now_v;
        let dr = sr.done - now_r;
        let dp = sp.done - now_c;
        assert!(
            dp < dr && dr <= dv,
            "polarrecv {dp}ns < rdma {dr}ns <= vanilla {dv}ns"
        );
        assert!(sp.pages_rebuilt < sv.pages_rebuilt / 2, "{sp:?} vs {sv:?}");
    }

    #[test]
    fn unflushed_statement_is_not_resurrected_by_polarrecv() {
        // A page updated in CXL whose redo never became durable must be
        // rebuilt to the durable state (§3.2 challenge 4: "too new").
        let mut db = cxl_db();
        let t = db.update(3, 0, &[0x11; 8], SimTime::ZERO).1; // durable
                                                              // Bypass commit: log the update but don't flush.
        let (_, t2) = db
            .table
            .update_field(&mut db.pool, &mut db.wal, 3, 0, &[0x22; 8], t);
        db.crash();
        let _ = recover_polar(&mut db, t2);
        let (got, _) = db.table.get(&mut db.pool, 3, SimTime::ZERO);
        assert_eq!(
            &got.unwrap()[0..8],
            &[0x11; 8],
            "uncommitted data rolled away"
        );
    }

    /// Randomized crash/recovery equivalence: any op sequence with a
    /// crash-and-PolarRecv at an arbitrary point restores exactly the
    /// committed model state (12 seeded random cases).
    #[test]
    fn polarrecv_equivalence_random() {
        for case in 0..12u64 {
            let mut rng = SimRng::seed_from_u64(0xEC0_0000 + case);
            let n_ops = rng.gen_range(5usize..60);
            let ops: Vec<(u8, u64)> = (0..n_ops)
                .map(|_| (rng.gen_range(0u8..3), rng.gen_range(1u64..KEYS)))
                .collect();
            let crash_at_frac = rng.gen_range(0usize..100);
            let mut db = cxl_db();
            let mut model: BTreeMap<u64, Vec<u8>> = rows().collect();
            let mut now = SimTime::ZERO;
            let crash_idx = ops.len() * crash_at_frac / 100;
            let mut next_new = KEYS + 1;
            for (i, (op, k)) in ops.iter().enumerate() {
                if i == crash_idx {
                    db.crash();
                    let r = recover_polar(&mut db, now);
                    now = r.done;
                }
                match op {
                    0 => {
                        let fill = [(k % 251) as u8; 12];
                        let (found, t) = db.update(*k, 4, &fill, now);
                        now = t;
                        if found {
                            model.get_mut(k).unwrap()[4..16].copy_from_slice(&fill);
                        }
                    }
                    1 => {
                        let rec = vec![(*k % 97) as u8; REC as usize];
                        let (ins, t) = db.insert(next_new, &rec, now);
                        now = t;
                        assert!(ins, "case {case}");
                        model.insert(next_new, rec);
                        next_new += 1;
                    }
                    _ => {
                        let (found, t) = db.delete(*k, now);
                        now = t;
                        assert_eq!(found, model.remove(k).is_some(), "case {case}");
                    }
                }
            }
            db.crash();
            recover_polar(&mut db, now);
            for (k, v) in &model {
                let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
                assert_eq!(got.as_ref(), Some(v), "case {case}, key {k}");
            }
            assert_eq!(
                db.table.check_invariants(&mut db.pool),
                model.len() as u64,
                "case {case}"
            );
        }
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let mut db = dram_db();
        let mut now = SimTime::ZERO;
        for k in 1..=50u64 {
            now = db.update(k, 0, &[9; 4], now).1;
        }
        now = db.checkpoint(now);
        for k in 1..=5u64 {
            now = db.update(k, 0, &[8; 4], now).1;
        }
        db.crash();
        let s = recover_replay(&mut db, "vanilla", now);
        // Only the post-checkpoint records replay.
        assert_eq!(s.records_applied, 5);
    }

    /// A pool that records every write it receives, in order.
    struct Recording<P> {
        inner: P,
        writes: Vec<(PageId, u16, Vec<u8>, Lsn)>,
    }

    impl<P: BufferPool> BufferPool for Recording<P> {
        fn page_size(&self) -> u64 {
            self.inner.page_size()
        }
        fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
            self.inner.allocate_page(now)
        }
        fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
            self.inner.read(page, off, buf, now)
        }
        fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
            self.writes.push((page, off, data.to_vec(), lsn));
            self.inner.write(page, off, data, lsn, now)
        }
        fn page_lsn(&self, page: PageId) -> Option<Lsn> {
            self.inner.page_lsn(page)
        }
        fn is_resident(&self, page: PageId) -> bool {
            self.inner.is_resident(page)
        }
        fn flush_all(&mut self, now: SimTime) -> SimTime {
            self.inner.flush_all(now)
        }
        fn stats(&self) -> bufferpool::BpStats {
            self.inner.stats()
        }
        fn store(&self) -> &PageStore {
            self.inner.store()
        }
        fn store_mut(&mut self) -> &mut PageStore {
            self.inner.store_mut()
        }
        fn prewarm(&mut self) {
            self.inner.prewarm()
        }
    }

    impl<P: bufferpool::Crashable> bufferpool::Crashable for Recording<P> {
        fn crash(&mut self) {
            self.inner.crash()
        }
    }

    /// Reference replay for `recover_replay`'s apply order: gather every
    /// record into a per-page vector (log order within a page), then
    /// apply the pages in ascending order.
    fn grouped_replay<P: BufferPool>(
        db: &mut Db<P>,
        scheme: &'static str,
        now: SimTime,
    ) -> RecoverySummary {
        let ckpt = db.wal.checkpoint_lsn();
        let log_bytes = db.wal.replay_bytes_from(ckpt);
        let mut t = db.wal.charge_scan(ckpt, now);
        let mut by_page: simkit::FastMap<PageId, Vec<LogRecord<'_>>> = simkit::FastMap::default();
        for rec in db.wal.replay_from(ckpt) {
            by_page.entry(rec.page).or_default().push(rec);
        }
        let mut pages: Vec<_> = by_page.keys().copied().collect();
        pages.sort_unstable();
        let mut applied = 0u64;
        for page in &pages {
            for rec in &by_page[page] {
                t = db.pool.write(rec.page, rec.off, rec.data, rec.lsn, t).end;
                applied += 1;
            }
        }
        let (table, done) = btree::BTree::open(&mut db.pool, db.table.meta_page, t);
        db.table = table;
        RecoverySummary {
            scheme,
            pages_rebuilt: pages.len() as u64,
            records_applied: applied,
            log_bytes,
            done,
        }
    }

    /// A crashed database over a recording pool: a seeded mix of
    /// updates, inserts and deletes on random keys (so the log
    /// interleaves pages and repeats them), checkpointed part-way.
    fn crashed_recording<P: BufferPool + bufferpool::Crashable>(
        mut db: Db<Recording<P>>,
        seed: u64,
    ) -> Db<Recording<P>> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        for i in 0..400u64 {
            let k = rng.gen_range(1..=KEYS);
            now = match i % 4 {
                0 | 1 => db.update(k, 8, &[rng.gen::<u8>(); 16], now).1,
                2 => {
                    db.insert(KEYS + 1 + i, &[rng.gen::<u8>(); REC as usize], now)
                        .1
                }
                _ => db.delete(k, now).1,
            };
            if i == 150 {
                now = db.checkpoint(now);
            }
        }
        db.crash();
        db.pool.writes.clear();
        db
    }

    fn replay_matches_the_grouped_reference<P: BufferPool + bufferpool::Crashable>(
        make: impl Fn() -> P,
    ) {
        for seed in [3u64, 11, 29] {
            let recording = || {
                let pool = Recording {
                    inner: make(),
                    writes: Vec::new(),
                };
                let mut db = Db::create(pool, REC);
                db.load(rows());
                crashed_recording(db, seed)
            };
            let (mut reference, mut db) = (recording(), recording());
            let now = SimTime::from_secs(1);
            let want = grouped_replay(&mut reference, "replay", now);
            let got = recover_replay(&mut db, "replay", now);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(db.pool.writes, reference.pool.writes, "seed {seed}");
            // The case is not trivial: a checkpoint floor cut the log,
            // pages repeat, and the log interleaved them (apply order is
            // not LSN order).
            let last = db.wal.max_assigned_lsn().0;
            assert!(want.records_applied < last, "seed {seed}: {want:?}");
            assert!(want.records_applied > 2 * want.pages_rebuilt, "{want:?}");
            let lsns: Vec<Lsn> = db.pool.writes.iter().map(|w| w.3).collect();
            assert!(lsns.windows(2).any(|w| w[0] > w[1]), "seed {seed}");
        }
    }

    #[test]
    fn replay_in_place_applies_the_grouped_order() {
        replay_matches_the_grouped_reference(|| {
            DramBp::new(64, 1 << 20, PageStore::with_page_size(256, 2048))
        });
        replay_matches_the_grouped_reference(|| {
            let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
            let store = PageStore::with_page_size(256, 2048);
            TieredRdmaBp::new(rdma, 0, 0, 64, 1 << 20, store)
        });
    }
}
