//! The page-granularity storage service.
//!
//! Models PolarDB's disaggregated storage: page reads/writes pay an
//! NVMe-class latency plus occupancy on a shared storage channel. The
//! stored pages are persistent — storage survives compute-host crashes,
//! which is what the *vanilla* recovery scheme relies on.
//!
//! Pages are shared copy-on-write: a fresh store points every page at
//! one zero page and a clone copies pointers, so a copied seat takes a
//! page of its own only when it writes that page.

use memsim::calib::{PAGE_SIZE, STORAGE_GBPS, STORAGE_READ_NS, STORAGE_WRITE_NS};
use memsim::Access;
use simkit::faults::{self, FaultSite};
use simkit::trace::{self, Lane};
use simkit::{Link, SimTime};
use std::rc::Rc;

use crate::PageId;

/// A fixed-capacity page store.
#[derive(Clone)]
pub struct PageStore {
    /// One slot per page, shared copy-on-write (module docs).
    pages: Vec<Rc<[u8]>>,
    channel: Link,
    page_size: u64,
    capacity_pages: u64,
    next_free: u64,
    reads: u64,
    writes: u64,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (used, cap) = (self.next_free, self.capacity_pages);
        write!(f, "PageStore({used} of {cap} pages)")
    }
}

impl PageStore {
    /// A store able to hold `capacity_pages` pages of the standard
    /// [`PAGE_SIZE`].
    pub fn new(capacity_pages: u64) -> Self {
        Self::with_page_size(capacity_pages, PAGE_SIZE)
    }

    /// A store with a custom page size (tests use small pages).
    pub fn with_page_size(capacity_pages: u64, page_size: u64) -> Self {
        assert!(page_size > 0 && capacity_pages > 0);
        let zero: Rc<[u8]> = vec![0u8; page_size as usize].into();
        PageStore {
            pages: vec![zero; capacity_pages as usize],
            channel: Link::new("storage", STORAGE_GBPS).with_propagation(0),
            page_size,
            capacity_pages,
            next_free: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Total capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Number of pages allocated so far.
    pub fn allocated_pages(&self) -> u64 {
        self.next_free
    }

    /// Allocate the next page.
    ///
    /// # Panics
    /// When the store is full.
    pub fn allocate(&mut self) -> PageId {
        let cap = self.capacity_pages;
        if self.next_free >= cap {
            panic!("page store full ({cap} pages)"); // lint: fault-path panic pinned by tests
        }
        let id = PageId(self.next_free);
        self.next_free += 1;
        id
    }

    /// Panics unless a caller's buffer of `len` bytes is exactly one page.
    fn check_one_page(&self, len: usize) {
        let want = self.page_size;
        if len as u64 != want {
            panic!("buffer must be one page ({len} bytes, want {want})"); // lint: fault-path panic pinned by tests
        }
    }

    /// What a page read costs, whichever page it is: counted, the channel
    /// occupied, the device latency paid.
    fn charge_read(&mut self, now: SimTime) -> Access {
        self.reads += 1;
        let g = self.channel.transfer(now, self.page_size);
        let end = g.end + STORAGE_READ_NS;
        trace::attr_add(Lane::Storage, end.saturating_since(now));
        Access {
            end,
            link_bytes: self.page_size,
            hits: 0,
            misses: 0,
        }
    }

    /// The timing plane of [`PageStore::read_page`]: the same charge and
    /// no bytes moved, for a caller that takes the page in place from
    /// [`PageStore::raw_page`].
    pub fn read_page_timing(&mut self, page: PageId, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Storage);
        debug_assert!(page.0 < self.capacity_pages);
        self.charge_read(now)
    }

    /// Timed page read into `buf`.
    ///
    /// # Panics
    /// When `buf` is not exactly one page.
    pub fn read_page(&mut self, page: PageId, buf: &mut [u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Storage);
        self.check_one_page(buf.len());
        buf.copy_from_slice(&self.pages[page.0 as usize]);
        self.charge_read(now)
    }

    /// Timed page write from `data`. Polls the [`FaultSite::StorageWrite`]
    /// gate: a crash there unwinds before the page reaches the store.
    ///
    /// # Panics
    /// When `data` is not exactly one page.
    pub fn write_page(&mut self, page: PageId, data: &[u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Storage);
        self.check_one_page(data.len());
        faults::gate(FaultSite::StorageWrite);
        self.put(page, data);
        self.writes += 1;
        let g = self.channel.transfer(now, self.page_size);
        let end = g.end + STORAGE_WRITE_NS;
        trace::attr_add(Lane::Storage, end.saturating_since(now));
        Access {
            end,
            link_bytes: self.page_size,
            hits: 0,
            misses: 0,
        }
    }

    /// Untimed raw read (test assertions, bulk loading).
    pub fn raw_page(&self, page: PageId) -> &[u8] {
        &self.pages[page.0 as usize]
    }

    /// Untimed raw write (bulk loading before a timed run).
    pub fn raw_write_page(&mut self, page: PageId, data: &[u8]) {
        assert_eq!(data.len() as u64, self.page_size);
        self.put(page, data);
    }

    /// Store one page's bytes: in place when no clone shares the page,
    /// else in a fresh page of this side's own (the clone keeps the old).
    fn put(&mut self, page: PageId, data: &[u8]) {
        let slot = &mut self.pages[page.0 as usize];
        match Rc::get_mut(slot) {
            Some(bytes) => bytes.copy_from_slice(data),
            None => *slot = data.into(),
        }
    }

    /// (reads, writes) issued so far.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Bytes moved over the storage channel.
    pub fn channel_bytes(&self) -> u64 {
        self.channel.bytes()
    }

    /// Reset the channel backlog clock (between setup and measurement).
    pub fn reset_channel_queue(&mut self) {
        self.channel.reset_queue();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_roundtrip() {
        let mut s = PageStore::with_page_size(4, 256);
        let p0 = s.allocate();
        let p1 = s.allocate();
        assert_eq!(p0, PageId(0));
        assert_eq!(p1, PageId(1));
        let data = vec![7u8; 256];
        s.write_page(p1, &data, SimTime::ZERO);
        let mut buf = vec![0u8; 256];
        s.read_page(p1, &mut buf, SimTime::ZERO);
        assert_eq!(buf, data);
        // p0 untouched.
        assert_eq!(s.raw_page(p0), &vec![0u8; 256][..]);
    }

    #[test]
    fn io_pays_storage_latency() {
        let mut s = PageStore::new(4);
        let p = s.allocate();
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let a = s.read_page(p, &mut buf, SimTime::ZERO);
        // ≥ 100 µs: orders of magnitude above any memory path.
        assert!(a.end.as_nanos() >= STORAGE_READ_NS);
    }

    #[test]
    fn channel_serializes_io() {
        let mut s = PageStore::new(64);
        for _ in 0..64 {
            s.allocate();
        }
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let mut last = SimTime::ZERO;
        for i in 0..64 {
            last = s.read_page(PageId(i), &mut buf, SimTime::ZERO).end;
        }
        // 64 pages over 4 GB/s ≈ 262 µs of channel time + latency.
        assert!(last.as_nanos() > 64 * PAGE_SIZE / 4);
        assert_eq!(s.io_counts(), (64, 0));
        assert_eq!(s.channel_bytes(), 64 * PAGE_SIZE);
    }

    #[test]
    fn read_page_timing_charges_what_read_page_charges() {
        let mk = || {
            let mut s = PageStore::with_page_size(8, 256);
            for _ in 0..8 {
                s.allocate();
            }
            s
        };
        let (mut full, mut timing) = (mk(), mk());
        let mut buf = vec![0u8; 256];
        let mut t = SimTime::ZERO;
        for p in [3u64, 3, 0, 7, 1] {
            let a = full.read_page(PageId(p), &mut buf, t);
            assert_eq!(timing.read_page_timing(PageId(p), t), a);
            // Back-to-back issue: the channel backlog must match too.
            t += 10;
        }
        assert_eq!(timing.io_counts(), full.io_counts());
        assert_eq!(timing.channel_bytes(), full.channel_bytes());
    }

    #[test]
    fn dead_host_writes_never_reach_storage() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut s = PageStore::with_page_size(2, 64);
        let p = s.allocate();
        s.write_page(p, &[0xAA; 64], SimTime::ZERO);
        faults::install(FaultPlan::crash_at_hit(0));
        let crash = faults::catch(|| s.write_page(p, &[0xBB; 64], SimTime(3)));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        // The store keeps the pre-crash bytes, and the write that the
        // crash cut off was neither landed nor counted.
        let mut buf = vec![0u8; 64];
        s.read_page(p, &mut buf, SimTime(3));
        assert_eq!(buf, vec![0xAA; 64]);
        assert_eq!(s.io_counts(), (1, 1));
    }

    /// Whether `a` and `b` hold `page` in one shared slot.
    fn shared(a: &PageStore, b: &PageStore, page: u64) -> bool {
        Rc::ptr_eq(&a.pages[page as usize], &b.pages[page as usize])
    }

    #[test]
    fn never_written_pages_read_as_zeros_from_one_shared_page() {
        let mut s = PageStore::with_page_size(4, 64);
        let p = s.allocate();
        s.raw_write_page(PageId(3), &[5; 64]);
        let mut buf = vec![0xFFu8; 64];
        s.read_page(p, &mut buf, SimTime::ZERO);
        assert_eq!(buf, vec![0u8; 64]);
        assert_eq!(s.raw_page(PageId(2)), &[0u8; 64][..]);
        assert!(Rc::ptr_eq(&s.pages[0], &s.pages[2]));
        assert!(!Rc::ptr_eq(&s.pages[0], &s.pages[3]));
    }

    #[test]
    fn a_clone_shares_every_page_until_a_side_writes_it() {
        let mut a = PageStore::with_page_size(4, 64);
        for p in 0..4 {
            a.allocate();
            a.raw_write_page(PageId(p), &[p as u8 + 1; 64]);
        }
        let mut b = a.clone();
        assert!((0..4).all(|p| shared(&a, &b, p)));
        // Through the clone's timed write: only the clone's page moves.
        b.write_page(PageId(1), &[0xB1; 64], SimTime::ZERO);
        assert_eq!(a.raw_page(PageId(1)), &[2u8; 64][..]);
        assert_eq!(b.raw_page(PageId(1)), &[0xB1u8; 64][..]);
        // Through the original's raw write: only the original's.
        a.raw_write_page(PageId(2), &[0xA2; 64]);
        assert_eq!(a.raw_page(PageId(2)), &[0xA2u8; 64][..]);
        assert_eq!(b.raw_page(PageId(2)), &[3u8; 64][..]);
        assert_eq!(
            (0..4).map(|p| shared(&a, &b, p)).collect::<Vec<_>>(),
            [true, false, false, true]
        );
        // A second write to a page a side already owns stays in place.
        let owned = Rc::as_ptr(&b.pages[1]);
        b.raw_write_page(PageId(1), &[0xB2; 64]);
        assert_eq!(Rc::as_ptr(&b.pages[1]), owned);
        assert_eq!((a.io_counts(), b.io_counts()), ((0, 0), (0, 1)));
    }

    #[test]
    fn a_write_a_dead_host_refuses_copies_nothing() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut a = PageStore::with_page_size(2, 64);
        a.allocate();
        a.raw_write_page(PageId(0), &[0xAA; 64]);
        let mut b = a.clone();
        faults::install(FaultPlan::crash_at_hit(0));
        let crash = faults::catch(|| b.write_page(PageId(0), &[0xBB; 64], SimTime::ZERO));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        assert!(shared(&a, &b, 0));
        assert_eq!(b.raw_page(PageId(0)), &[0xAAu8; 64][..]);
    }

    #[test]
    #[should_panic(expected = "page store full (1 pages)")]
    fn allocation_beyond_capacity_panics() {
        let mut s = PageStore::with_page_size(1, 64);
        assert_eq!(s.allocate(), PageId(0));
        s.allocate();
    }

    #[test]
    #[should_panic(expected = "buffer must be one page (32 bytes, want 64)")]
    fn wrong_buffer_size_panics() {
        let mut s = PageStore::with_page_size(1, 64);
        let p = s.allocate();
        let mut buf = vec![0u8; 32];
        s.read_page(p, &mut buf, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "buffer must be one page (32 bytes, want 64)")]
    fn a_short_write_buffer_panics() {
        let mut s = PageStore::with_page_size(1, 64);
        let p = s.allocate();
        s.write_page(p, &[0u8; 32], SimTime::ZERO);
    }
}
