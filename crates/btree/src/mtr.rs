//! Mini-transactions: latched, redo-logged multi-page updates.
//!
//! A structure-modification operation (SMO — page split/merge) must be
//! atomic with respect to crashes and invisible to concurrent readers.
//! PolarDB protects SMOs with mini-transactions (§3.2): pages touched by
//! the mtr are write-latched two-phase (held until commit), every page
//! write is preceded by a redo record (WAL rule), and the redo group
//! becomes durable atomically.
//!
//! On the CXL pool the latch state is *persisted* before the first write
//! and cleared (after flushing the modified lines) at commit — which is
//! exactly the signal `polarcxlmem::recovery` uses to find torn pages.

use crate::inline_vec::InlineVec;
use bufferpool::BufferPool;
use memsim::Access;
use simkit::SimTime;
use storage::{PageId, Wal};

/// An open mini-transaction over a pool and its WAL.
pub struct Mtr<'a, P: BufferPool> {
    pool: &'a mut P,
    wal: &'a mut Wal,
    /// Pages write-latched so far, in latch order. A statement latches
    /// one page; only SMOs wider than eight spill to the heap.
    latched: InlineVec<PageId, 8>,
    now: SimTime,
    writes: u64,
}

impl<'a, P: BufferPool> Mtr<'a, P> {
    /// Begin a mini-transaction at `now`.
    pub fn begin(pool: &'a mut P, wal: &'a mut Wal, now: SimTime) -> Self {
        Mtr {
            pool,
            wal,
            latched: InlineVec::new(),
            now,
            writes: 0,
        }
    }

    /// Current virtual time inside the mtr.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of page writes so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// The underlying pool (read-only helpers).
    pub fn pool(&mut self) -> &mut P {
        self.pool
    }

    /// Timed read within the mtr.
    pub fn read(&mut self, page: PageId, off: u16, buf: &mut [u8]) -> Access {
        let a = self.pool.read(page, off, buf, self.now);
        self.now = a.end;
        a
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self, page: PageId, off: u16) -> u64 {
        let mut b = [0u8; 8];
        self.read(page, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian u16.
    pub fn read_u16(&mut self, page: PageId, off: u16) -> u16 {
        let mut b = [0u8; 2];
        self.read(page, off, &mut b);
        u16::from_le_bytes(b)
    }

    /// Redo-logged, latched write within the mtr.
    pub fn write(&mut self, page: PageId, off: u16, data: &[u8]) {
        if !self.latched.as_slice().contains(&page) {
            // First touch: take (and, on CXL, persist) the write latch.
            self.now = self.pool.set_latch(page, true, self.now);
            self.latched.push(page);
        }
        // WAL rule: log first, then write the page.
        let lsn = self.wal.append_update(page, off, data);
        let a = self.pool.write(page, off, data, lsn, self.now);
        self.now = a.end;
        self.writes += 1;
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, page: PageId, off: u16, v: u64) {
        self.write(page, off, &v.to_le_bytes());
    }

    /// Write a little-endian u16.
    pub fn write_u16(&mut self, page: PageId, off: u16, v: u16) {
        self.write(page, off, &v.to_le_bytes());
    }

    /// Allocate a fresh page inside the mtr.
    pub fn allocate_page(&mut self) -> PageId {
        let (id, t) = self.pool.allocate_page(self.now);
        self.now = t;
        id
    }

    /// Commit: seal the redo group, then release latches in reverse
    /// order (on CXL this flushes each page's dirty lines before
    /// clearing its persisted latch). Returns the commit completion time.
    ///
    /// Latches are intentionally released only *after* the group is
    /// sealed in the log buffer, matching the two-phase policy: a crash
    /// while any page is still latched forces redo-based rebuild of all
    /// of the mtr's pages.
    pub fn commit(mut self) -> SimTime {
        self.wal.seal_mtr();
        let mut t = self.now;
        while let Some(page) = self.latched.pop() {
            t = self.pool.set_latch(page, false, t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferpool::dram_bp::DramBp;
    use storage::{Lsn, PageStore};

    fn pool() -> DramBp {
        let mut store = PageStore::with_page_size(8, 512);
        for _ in 0..4 {
            store.allocate();
        }
        DramBp::new(8, 64 << 10, store)
    }

    #[test]
    fn writes_are_logged_before_applied() {
        let mut bp = pool();
        let mut wal = Wal::new();
        let mut mtr = Mtr::begin(&mut bp, &mut wal, SimTime::ZERO);
        mtr.write(PageId(1), 10, &[1, 2, 3]);
        mtr.write_u64(PageId(2), 0, 99);
        mtr.commit();
        wal.flush(SimTime::ZERO);
        let recs: Vec<_> = wal.replay_from(Lsn::ZERO).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].page, PageId(1));
        assert_eq!(recs[0].data, vec![1, 2, 3]);
        assert!(!recs[0].mtr_end);
        assert!(recs[1].mtr_end, "group sealed at commit");
        // And the pages carry the records' LSNs.
        assert_eq!(bp.page_lsn(PageId(1)), Some(recs[0].lsn));
        assert_eq!(bp.page_lsn(PageId(2)), Some(recs[1].lsn));
    }

    #[test]
    fn read_helpers_roundtrip() {
        let mut bp = pool();
        let mut wal = Wal::new();
        let mut mtr = Mtr::begin(&mut bp, &mut wal, SimTime::ZERO);
        mtr.write_u64(PageId(0), 100, 0xDEAD_BEEF);
        mtr.write_u16(PageId(0), 108, 513);
        assert_eq!(mtr.read_u64(PageId(0), 100), 0xDEAD_BEEF);
        assert_eq!(mtr.read_u16(PageId(0), 108), 513);
        mtr.commit();
    }

    #[test]
    fn time_advances_through_the_mtr() {
        let mut bp = pool();
        let mut wal = Wal::new();
        let mut mtr = Mtr::begin(&mut bp, &mut wal, SimTime::from_micros(5));
        assert_eq!(mtr.now(), SimTime::from_micros(5));
        mtr.write(PageId(0), 0, &[1]);
        assert!(mtr.now() > SimTime::from_micros(5));
        let end = mtr.commit();
        assert!(end > SimTime::from_micros(5));
    }

    #[test]
    fn allocate_inside_mtr() {
        let mut bp = pool();
        let mut wal = Wal::new();
        let mut mtr = Mtr::begin(&mut bp, &mut wal, SimTime::ZERO);
        let p = mtr.allocate_page();
        assert_eq!(p, PageId(4));
        mtr.write(p, 0, &[7]);
        mtr.commit();
    }
}
