//! The plain local-DRAM buffer pool (DRAM-BP in Figure 3).
//!
//! Pages are cached in host DRAM frames; misses read from the storage
//! service; eviction is LRU with write-back of dirty pages. This is the
//! configuration every database runs when it has enough local memory —
//! the upper bound the CXL pool is measured against.

use crate::frames::{FrameTable, FramedPool};
use crate::policy::PolicyKind;
use crate::{BpStats, BufferPool};
use memsim::{Access, DramSpace};
use simkit::trace::{self, SpanKind};
use simkit::SimTime;
use storage::{Lsn, PageId, PageStore};

/// A local-DRAM buffer pool over a page store. It owns everything it
/// touches and addresses it by frame, so a clone is an exact copy (one
/// that shares the store's pages copy-on-write).
#[derive(Clone)]
pub struct DramBp {
    space: DramSpace,
    store: PageStore,
    frames: FrameTable,
    stats: BpStats,
}

impl std::fmt::Debug for DramBp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramBp")
            .field("frames", &self.frames.dir().capacity())
            .field("resident", &self.frames.dir().resident())
            .field("stats", &self.stats)
            .finish()
    }
}

impl DramBp {
    /// A pool with `frames` page frames over `store`, fronted by a CPU
    /// cache of `cache_bytes`, evicting by LRU.
    pub fn new(frames: usize, cache_bytes: usize, store: PageStore) -> Self {
        assert!(frames > 0);
        let page = store.page_size() as usize;
        // Pre-size the eviction spill map so misses never allocate.
        let mut table = FrameTable::with_policy(frames, PolicyKind::Lru);
        table.reserve_evictions(store.capacity_pages() as usize);
        DramBp {
            space: DramSpace::new(frames * page, cache_bytes, false),
            store,
            frames: table,
            stats: BpStats::default(),
        }
    }

    fn frame_off(&self, frame: u32) -> u64 {
        frame as u64 * self.store.page_size()
    }

    /// Fix `page` and run the cache model over `off..off + len` of its
    /// frame: all of a read except the copy. Returns where the bytes are
    /// in the frame space, and the access.
    #[inline(always)]
    fn access(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> (u64, Access) {
        let (frame, t) = self.fix(page, now);
        let at = self.frame_off(frame) + off as u64;
        (at, self.space.read_timing(at, len, t))
    }

    /// Statistics of the modelled CPU cache in front of the frames.
    pub fn cache_stats(&self) -> memsim::CacheStats {
        self.space.cache_stats()
    }
}

impl FramedPool for DramBp {
    fn frames_and_stats(&mut self) -> (&mut FrameTable, &mut BpStats) {
        (&mut self.frames, &mut self.stats)
    }

    /// Fetch from storage straight into the frame: no intermediate heap
    /// buffer, one copy instead of two.
    fn fill(&mut self, frame: u32, page: PageId, now: SimTime, t: SimTime) -> SimTime {
        let ps = self.store.page_size() as usize;
        let off = self.frame_off(frame);
        let io = self
            .store
            .read_page(page, self.space.raw_mut().slice_mut(off, ps), t);
        self.stats.storage_read_bytes += ps as u64;
        self.frames.install(frame, page);
        trace::span(SpanKind::BpMiss, 0, now, io.end, self.store.page_size());
        io.end
    }

    fn write_back(&mut self, frame: u32, page: PageId, dirty: bool, now: SimTime) -> SimTime {
        self.stats.evictions += 1;
        if dirty {
            self.stats.writebacks += 1;
            let ps = self.store.page_size() as usize;
            let off = self.frame_off(frame);
            let io = self
                .store
                .write_page(page, self.space.raw().slice(off, ps), now);
            self.stats.storage_write_bytes += ps as u64;
            return io.end;
        }
        now
    }
}

impl BufferPool for DramBp {
    fn page_size(&self) -> u64 {
        self.store.page_size()
    }

    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
        (self.store.allocate(), now)
    }

    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (at, a) = self.access(page, off, buf.len(), now);
        self.space.raw().read(at, buf);
        a
    }

    fn touch(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        self.access(page, off, len, now).1
    }

    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (frame, t) = self.fix(page, now);
        self.frames.mark_dirty(frame);
        self.frames.set_lsn(frame, lsn);
        let base = self.frame_off(frame);
        self.space.write(base + off as u64, data, t)
    }

    fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        self.frames.page_lsn(page)
    }

    fn is_resident(&self, page: PageId) -> bool {
        self.frames.dir().contains(page)
    }

    fn flush_all(&mut self, now: SimTime) -> SimTime {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let ps = self.store.page_size() as usize;
        let mut t = now;
        let mut cursor = 0;
        while let Some((frame, page)) = self.frames.take_dirty(&mut cursor) {
            let off = self.frame_off(frame);
            t = self
                .store
                .write_page(page, self.space.raw().slice(off, ps), t)
                .end;
            self.stats.storage_write_bytes += ps as u64;
        }
        t
    }

    fn stats(&self) -> BpStats {
        self.stats
    }

    fn store(&self) -> &PageStore {
        &self.store
    }

    fn store_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }

    fn prewarm(&mut self) {
        let (space, store) = (&mut self.space, &self.store);
        let pages = (0..store.allocated_pages()).map(PageId);
        self.frames.warm(pages, |frame, page| {
            let off = frame as u64 * store.page_size();
            space.raw_mut().write(off, store.raw_page(page));
        });
    }

    /// All volatile pool state is lost.
    fn crash(&mut self) {
        self.space.crash();
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pool(frames: usize) -> DramBp {
        let mut store = PageStore::with_page_size(16, 256);
        for _ in 0..8 {
            store.allocate();
        }
        DramBp::new(frames, 64 << 10, store)
    }

    #[test]
    fn read_your_writes() {
        let mut bp = small_pool(4);
        bp.write(PageId(0), 10, b"abc", Lsn(1), SimTime::ZERO);
        let mut buf = [0u8; 3];
        bp.read(PageId(0), 10, &mut buf, SimTime::ZERO);
        assert_eq!(&buf, b"abc");
        assert_eq!(bp.page_lsn(PageId(0)), Some(Lsn(1)));
    }

    #[test]
    fn miss_then_hit() {
        let mut bp = small_pool(4);
        let mut buf = [0u8; 4];
        let a = bp.read(PageId(3), 0, &mut buf, SimTime::ZERO);
        assert!(a.end.as_nanos() >= memsim::calib::STORAGE_READ_NS);
        let b = bp.read(PageId(3), 0, &mut buf, a.end);
        assert!(b.end - a.end < 1_000, "hit must not pay storage I/O");
        assert_eq!(bp.stats().hits, 1);
        assert_eq!(bp.stats().misses, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut bp = small_pool(2);
        bp.write(PageId(0), 0, &[1, 2, 3], Lsn(1), SimTime::ZERO);
        bp.read(PageId(1), 0, &mut [0u8; 1], SimTime::ZERO);
        // Third page evicts LRU (page 0, dirty).
        bp.read(PageId(2), 0, &mut [0u8; 1], SimTime::ZERO);
        assert!(!bp.is_resident(PageId(0)));
        assert_eq!(bp.stats().writebacks, 1);
        // The write survived in storage.
        assert_eq!(&bp.store().raw_page(PageId(0))[0..3], &[1, 2, 3]);
        // Re-reading it brings the written bytes back.
        let mut buf = [0u8; 3];
        bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn clean_eviction_skips_writeback() {
        let mut bp = small_pool(2);
        bp.read(PageId(0), 0, &mut [0u8; 1], SimTime::ZERO);
        bp.read(PageId(1), 0, &mut [0u8; 1], SimTime::ZERO);
        bp.read(PageId(2), 0, &mut [0u8; 1], SimTime::ZERO);
        assert_eq!(bp.stats().evictions, 1);
        assert_eq!(bp.stats().writebacks, 0);
    }

    #[test]
    fn flush_all_clears_dirt() {
        let mut bp = small_pool(4);
        bp.write(PageId(0), 0, &[9], Lsn(1), SimTime::ZERO);
        bp.write(PageId(1), 0, &[8], Lsn(2), SimTime::ZERO);
        let t = bp.flush_all(SimTime::ZERO);
        assert!(t > SimTime::ZERO);
        assert_eq!(bp.store().raw_page(PageId(0))[0], 9);
        assert_eq!(bp.store().raw_page(PageId(1))[0], 8);
        // Second flush does nothing.
        let t2 = bp.flush_all(t);
        assert_eq!(t2, t);
    }

    #[test]
    fn crash_loses_everything() {
        let mut bp = small_pool(4);
        bp.write(PageId(0), 0, &[7], Lsn(1), SimTime::ZERO);
        bp.crash();
        assert!(!bp.is_resident(PageId(0)));
        assert_eq!(bp.page_lsn(PageId(0)), None);
        // The unflushed write is gone: storage still has the old page.
        assert_eq!(bp.store().raw_page(PageId(0))[0], 0);
    }

    #[test]
    fn prewarm_fills_frames() {
        let mut bp = small_pool(4);
        bp.prewarm();
        assert!(bp.is_resident(PageId(0)));
        assert!(bp.is_resident(PageId(3)));
        assert!(!bp.is_resident(PageId(4)), "only 4 frames");
        // Prewarm charges no I/O.
        assert_eq!(bp.stats().storage_read_bytes, 0);
    }

    #[test]
    fn lru_prefers_hot_pages() {
        let mut bp = small_pool(2);
        bp.read(PageId(0), 0, &mut [0u8; 1], SimTime::ZERO);
        bp.read(PageId(1), 0, &mut [0u8; 1], SimTime::ZERO);
        bp.read(PageId(0), 0, &mut [0u8; 1], SimTime::ZERO); // touch 0
        bp.read(PageId(2), 0, &mut [0u8; 1], SimTime::ZERO); // evicts 1
        assert!(bp.is_resident(PageId(0)));
        assert!(!bp.is_resident(PageId(1)));
    }
}
