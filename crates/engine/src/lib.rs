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
pub use recovery::{recover_polar, recover_replay, RecoverySummary};

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
        let sp = recover_polar(&mut cx, polarcxlmem::TrustPolicy::Durable, now_c);

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
    fn crashed_recording<P: BufferPool>(mut db: Db<Recording<P>>, seed: u64) -> Db<Recording<P>> {
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

    fn replay_matches_the_grouped_reference<P: BufferPool>(make: impl Fn() -> P) {
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
