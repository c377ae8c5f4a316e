//! The tiered RDMA disaggregated-memory baseline (§2.2, Figure 1).
//!
//! The design used by LegoBase / PolarDB Serverless: a **local buffer
//! pool** (LBP) of DRAM frames in front of **remote memory** reached over
//! RDMA. Data moves between tiers at *page* granularity:
//!
//! - LBP miss on a remote-resident page → RDMA-read the whole 16 KB page;
//! - dirty LBP eviction → RDMA-write the whole page back.
//!
//! The page-in is *modelled*, not performed: the NIC is charged for the
//! full page, but the host copies nothing — every 64 B line of the frame
//! is marked **read in place**, and its bytes come from the instance's
//! remote slice, while timing still runs the frame's own offsets through
//! the LBP's cache model. Ownership is tracked per line, one bit each: a
//! write first copies in the lines it touches that the frame does not
//! own yet (copy-on-write at line grain, untimed — the modelled page-in
//! already paid for those bytes), and a dirty write-back charges the NIC
//! for the whole page but lands only the frame's own lines, since the
//! others are the remote copy already. The invariant that makes this
//! exact: **a remote line is never mutated while a frame reads it in
//! place** — write-back targets a page that is being evicted,
//! `flush_all` first gives the frame every line it still reads in
//! place, `prewarm` writes only pages the remote tier does not hold,
//! and other instances own other slices.
//!
//! Requesting a few hundred bytes therefore moves 16 KB over the NIC —
//! the read/write amplification that saturates the ConnectX-6 at a
//! handful of instances (Figure 7). The NIC ([`memsim::RdmaPool`]) is
//! shared by every instance on the host, so amplification from one
//! instance steals bandwidth from all.

use crate::frames::{FrameTable, FramedPool};
use crate::policy::PolicyKind;
use crate::{BpStats, BufferPool};
use memsim::{Access, DramSpace, RdmaFabric, RdmaPool};
use simkit::trace::{self, SpanKind};
use simkit::FastSet;
use simkit::SimTime;
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use storage::{Lsn, PageId, PageStore};

/// The RDMA fabric shared by all instances of a simulation.
pub type SharedRdma = Rc<RefCell<RdmaPool>>;

/// Copy-on-write grain: one CPU cache line.
const LINE: usize = memsim::calib::CACHE_LINE as usize;

/// Per-frame line ownership of the LBP: bit `line` of a frame set means
/// the frame holds its own bytes for that line; clear means the line is
/// read in place from the page's remote copy.
#[derive(Clone)]
struct LineMap {
    bits: Vec<u64>,
    /// Per frame: `Some(own)` while every line's bit is `own`, so a read
    /// need not look at the bits; `None` once they may differ.
    uniform: Vec<Option<bool>>,
    /// Bitmap words per frame.
    words: usize,
    /// Lines per page.
    per_page: usize,
}

impl LineMap {
    fn new(frames: usize, page_size: usize) -> Self {
        assert!(
            page_size.is_multiple_of(LINE),
            "a page is whole cache lines"
        );
        let per_page = page_size / LINE;
        let words = per_page.div_ceil(64);
        LineMap {
            bits: vec![0; frames * words],
            uniform: vec![Some(false); frames],
            words,
            per_page,
        }
    }

    #[inline(always)]
    fn owns(&self, frame: u32, line: usize) -> bool {
        self.bits[frame as usize * self.words + line / 64] >> (line % 64) & 1 != 0
    }

    /// Every line of `frame` own (a local fill) or read in place (a
    /// remote page-in).
    fn fill(&mut self, frame: u32, own: bool) {
        let w = frame as usize * self.words;
        self.bits[w..w + self.words].fill(if own { !0 } else { 0 });
        self.uniform[frame as usize] = Some(own);
    }

    fn set(&mut self, frame: u32, lines: Range<usize>) {
        self.uniform[frame as usize] = (lines.len() == self.per_page).then_some(true);
        let w = frame as usize * self.words;
        for line in lines {
            self.bits[w + line / 64] |= 1 << (line % 64);
        }
    }

    /// The maximal runs of equal ownership within `lines`, in order:
    /// `(run, own)`.
    fn runs(
        &self,
        frame: u32,
        lines: Range<usize>,
    ) -> impl Iterator<Item = (Range<usize>, bool)> + '_ {
        let mut at = lines.start;
        std::iter::from_fn(move || {
            if at >= lines.end {
                return None;
            }
            let (start, own) = (at, self.owns(frame, at));
            while at < lines.end && self.owns(frame, at) == own {
                at += 1;
            }
            Some((start..at, own))
        })
    }
}

/// Tiered buffer pool: LBP frames over a remote-memory slice.
pub struct TieredRdmaBp {
    rdma: SharedRdma,
    /// Which host NIC this instance rides on.
    host: usize,
    /// This instance's slice of the remote region starts here.
    remote_base: u64,
    /// Pages the remote tier currently holds.
    remote_resident: Vec<bool>,
    /// Pages whose remote copy is newer than storage (written down at
    /// the next checkpoint).
    remote_dirty: FastSet<PageId>,
    space: DramSpace,
    store: PageStore,
    frames: FrameTable,
    /// Which lines of each frame hold their own bytes; the rest are read
    /// in place from the page's remote copy (see the module docs).
    owned: LineMap,
    stats: BpStats,
    /// Page-sized staging buffer for checkpoint transfers that cross two
    /// owned stores (remote → storage), so cold paths allocate nothing
    /// per page either.
    scratch: Vec<u8>,
    /// Reusable sort buffer for `flush_all`'s remote-only sweep.
    flush_order: Vec<PageId>,
}

impl std::fmt::Debug for TieredRdmaBp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredRdmaBp")
            .field("host", &self.host)
            .field("lbp_frames", &self.frames.dir().capacity())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TieredRdmaBp {
    /// Create a tiered pool.
    ///
    /// * `lbp_frames` — local tier capacity in pages (the paper sweeps
    ///   this from 10% to 100% of the dataset, Figure 1 / Figure 13).
    /// * `remote_base` — byte offset of this instance's slice within the
    ///   shared remote region (the CXL memory manager's analogue on the
    ///   RDMA side).
    pub fn new(
        rdma: SharedRdma,
        host: usize,
        remote_base: u64,
        lbp_frames: usize,
        cache_bytes: usize,
        store: PageStore,
    ) -> Self {
        assert!(lbp_frames > 0);
        let page = store.page_size() as usize;
        let capacity = store.capacity_pages() as usize;
        // Pre-size every growable container for the full dataset so the
        // hot path (fix / evict / write) never touches the allocator.
        // The dirty set churns (insert on write-back, remove on flush),
        // so 2x keeps its tombstone rehashes allocation-free.
        let mut remote_dirty = FastSet::default();
        remote_dirty.reserve(capacity * 2);
        let mut frames = FrameTable::with_policy(lbp_frames, PolicyKind::Lru);
        frames.reserve_evictions(capacity);
        TieredRdmaBp {
            rdma,
            host,
            remote_base,
            remote_resident: vec![false; capacity],
            remote_dirty,
            space: DramSpace::new(lbp_frames * page, cache_bytes, false),
            store,
            frames,
            owned: LineMap::new(lbp_frames, page),
            stats: BpStats::default(),
            scratch: vec![0u8; page],
            flush_order: Vec::with_capacity(capacity),
        }
    }

    /// An exact copy of this pool seated at `remote_base` of the same
    /// fabric: the private state is cloned (LBP frames with their cache
    /// model, frame table, residency and dirty sets, counters; the page
    /// store's pages are shared copy-on-write) and the remote slice is
    /// copied raw. Every address the pool
    /// keeps is relative — frame offsets, page ids, `remote_off` from the
    /// base — so the copy is the pool that replaying this one's history
    /// at `remote_base` would have produced. Untimed.
    ///
    /// # Panics
    /// When the destination slice overlaps this pool's or leaves the
    /// remote region.
    pub fn copy_to(&self, remote_base: u64) -> Self {
        let slice = self.store.capacity_pages() * self.store.page_size();
        self.rdma.borrow_mut().raw_mut().copy_disjoint(
            self.remote_base,
            remote_base,
            slice as usize,
        );
        TieredRdmaBp {
            rdma: Rc::clone(&self.rdma),
            host: self.host,
            remote_base,
            remote_resident: self.remote_resident.clone(),
            remote_dirty: self.remote_dirty.clone(),
            space: self.space.clone(),
            store: self.store.clone(),
            frames: self.frames.clone(),
            owned: self.owned.clone(),
            stats: self.stats,
            scratch: self.scratch.clone(),
            flush_order: simkit::clone_reserved(&self.flush_order),
        }
    }

    fn frame_off(&self, frame: u32) -> u64 {
        frame as u64 * self.store.page_size()
    }

    fn remote_off(&self, page: PageId) -> u64 {
        self.remote_base + page.0 * self.store.page_size()
    }

    /// Copy-on-write at line grain: give `frame` its own copy of every
    /// line of `lines` it still reads in place from `page`'s remote copy.
    /// The modelled page-in already paid for these bytes to arrive, so
    /// the host copy is untimed.
    fn own_lines(&mut self, frame: u32, page: PageId, lines: Range<usize>) {
        if self.owned.uniform[frame as usize] == Some(true) {
            return;
        }
        let (foff, roff) = (self.frame_off(frame), self.remote_off(page));
        let rdma = self.rdma.borrow();
        for (run, own) in self.owned.runs(frame, lines.clone()) {
            if !own {
                let (at, len) = ((run.start * LINE) as u64, run.len() * LINE);
                self.space
                    .raw_mut()
                    .write(foff + at, rdma.raw().slice(roff + at, len));
            }
        }
        drop(rdma);
        self.owned.set(frame, lines);
    }

    /// The data half of a dirty write-back: land `frame`'s own lines in
    /// `page`'s remote copy. The lines it reads in place are that copy
    /// already.
    fn land_own_lines(&mut self, frame: u32, page: PageId) {
        let (foff, roff) = (self.frame_off(frame), self.remote_off(page));
        let mut rdma = self.rdma.borrow_mut();
        for (run, own) in self.owned.runs(frame, 0..self.owned.per_page) {
            if own {
                let (at, len) = ((run.start * LINE) as u64, run.len() * LINE);
                rdma.raw_mut()
                    .write(roff + at, self.space.raw().slice(foff + at, len));
            }
        }
    }

    /// Copy `buf.len()` bytes at `off` of `page` out of `frame`, or out of
    /// the page's remote copy for lines the frame reads in place.
    #[inline(always)]
    fn copy_out(&self, own: bool, frame: u32, page: PageId, off: usize, buf: &mut [u8]) {
        if own {
            let local = self.frame_off(frame) + off as u64;
            self.space.raw().read(local, buf);
        } else {
            let remote = self.remote_off(page) + off as u64;
            self.rdma.borrow().raw().read(remote, buf);
        }
    }

    /// A read spanning lines: split where the frame's ownership changes.
    // Out of line: inlined, it made `read` half as large again and slowed
    // the field reads, which never call it.
    #[inline(never)]
    fn read_runs(&self, frame: u32, page: PageId, off: usize, buf: &mut [u8]) {
        let end = off + buf.len();
        for (run, own) in self.owned.runs(frame, off / LINE..end.div_ceil(LINE)) {
            let (from, to) = ((run.start * LINE).max(off), (run.end * LINE).min(end));
            self.copy_out(own, frame, page, from, &mut buf[from - off..to - off]);
        }
    }

    /// Fix `page` and run the LBP cache model over `off..off + len` of
    /// its frame — the frame's own offsets, whether its lines are read in
    /// place or not: all of a read except the copy. Returns the frame and
    /// the access.
    #[inline(always)]
    fn access(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> (u32, Access) {
        let (frame, t) = self.fix(page, now);
        let at = self.frame_off(frame) + off as u64;
        (frame, self.space.read_timing(at, len, t))
    }

    /// Statistics of the modelled CPU cache in front of the LBP frames.
    pub fn cache_stats(&self) -> memsim::CacheStats {
        self.space.cache_stats()
    }

    /// How many LBP frames read at least one line in place from their
    /// page's remote copy (paged in and not wholly written since).
    pub fn aliased_frames(&self) -> usize {
        let dir = self.frames.dir();
        (0..dir.capacity() as u32)
            .filter(|&f| {
                dir.page_of(f).is_some()
                    && self
                        .owned
                        .runs(f, 0..self.owned.per_page)
                        .any(|(_, own)| !own)
            })
            .count()
    }

    /// Whether the remote tier holds `page` (used by RDMA-assisted
    /// recovery to decide between a NIC read and a storage read).
    pub fn remote_resident(&self, page: PageId) -> bool {
        self.remote_resident[page.0 as usize]
    }
}

impl FramedPool for TieredRdmaBp {
    fn frames_and_stats(&mut self) -> (&mut FrameTable, &mut BpStats) {
        (&mut self.frames, &mut self.stats)
    }

    /// Page `page` in from the remote tier, or from storage.
    fn fill(&mut self, frame: u32, page: PageId, now: SimTime, mut t: SimTime) -> SimTime {
        let ps = self.store.page_size() as usize;
        // A storage fill gives the frame its own bytes; a page-in from
        // remote reads every line in place.
        let own = if self.remote_resident[page.0 as usize] {
            // Page-granularity RDMA read: the whole page crosses the NIC
            // no matter how few bytes the query wants. Only the transfer
            // is charged; the frame then reads the remote copy in place.
            t = self
                .rdma
                .borrow_mut()
                .read_timing(self.host, ps as u64, t)
                .end;
            self.stats.remote_read_bytes += ps as u64;
            false
        } else {
            let off = self.frame_off(frame);
            let io = self
                .store
                .read_page(page, self.space.raw_mut().slice_mut(off, ps), t);
            self.stats.storage_read_bytes += ps as u64;
            t = io.end;
            true
        };
        self.owned.fill(frame, own);
        self.frames.install(frame, page);
        trace::span(
            SpanKind::BpMiss,
            self.host as u32,
            now,
            t,
            self.store.page_size(),
        );
        t
    }

    /// `frame` has just lost `page` to eviction: write it back to the
    /// remote tier if dirty.
    fn write_back(&mut self, frame: u32, page: PageId, dirty: bool, now: SimTime) -> SimTime {
        self.stats.evictions += 1;
        if dirty {
            // Full-page RDMA write-back, even for a one-byte change:
            // write amplification.
            self.stats.writebacks += 1;
            let ps = self.store.page_size() as usize;
            let a = self
                .rdma
                .borrow_mut()
                .write_timing(self.host, ps as u64, now);
            self.stats.remote_write_bytes += ps as u64;
            self.land_own_lines(frame, page);
            self.remote_resident[page.0 as usize] = true;
            self.remote_dirty.insert(page);
            return a.end;
        }
        now
    }
}

impl BufferPool for TieredRdmaBp {
    fn page_size(&self) -> u64 {
        self.store.page_size()
    }

    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
        let id = self.store.allocate();
        if id.0 as usize >= self.remote_resident.len() {
            self.remote_resident.resize(id.0 as usize + 1, false);
        }
        (id, now)
    }

    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (frame, a) = self.access(page, off, buf.len(), now);
        // The bytes, from wherever they live.
        let off = off as usize;
        let line = off / LINE;
        if let Some(own) = self.owned.uniform[frame as usize] {
            self.copy_out(own, frame, page, off, buf);
        } else if (off + buf.len()).wrapping_sub(1) / LINE == line {
            // Inside one line (every field read): one bit decides.
            self.copy_out(self.owned.owns(frame, line), frame, page, off, buf);
        } else {
            self.read_runs(frame, page, off, buf);
        }
        a
    }

    fn touch(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        self.access(page, off, len, now).1
    }

    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (frame, t) = self.fix(page, now);
        let at = off as usize;
        self.own_lines(frame, page, at / LINE..(at + data.len()).div_ceil(LINE));
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
            self.own_lines(frame, page, 0..self.owned.per_page);
            let foff = self.frame_off(frame);
            t = self
                .store
                .write_page(page, self.space.raw().slice(foff, ps), t)
                .end;
            self.stats.storage_write_bytes += ps as u64;
            self.remote_dirty.remove(&page);
            // Keep the remote copy coherent with the checkpoint.
            if self.remote_resident[page.0 as usize] {
                let roff = self.remote_off(page);
                let a = self.rdma.borrow_mut().write(
                    self.host,
                    roff,
                    self.space.raw().slice(foff, ps),
                    t,
                );
                self.stats.remote_write_bytes += ps as u64;
                t = a.end;
            }
        }
        // Pages whose newest version lives only in remote memory must
        // also reach storage, or the checkpoint would be a lie. The data
        // crosses two owned stores (remote → storage), so it stages
        // through the pool's reusable scratch page.
        let mut order = std::mem::take(&mut self.flush_order);
        order.clear();
        order.extend(self.remote_dirty.iter().copied());
        order.sort_unstable();
        for &page in &order {
            let roff = self.remote_off(page);
            let a = self
                .rdma
                .borrow_mut()
                .read(self.host, roff, &mut self.scratch, t);
            self.stats.remote_read_bytes += ps as u64;
            t = self.store.write_page(page, &self.scratch, a.end).end;
            self.stats.storage_write_bytes += ps as u64;
            self.remote_dirty.remove(&page);
        }
        self.flush_order = order;
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
        // Remote tier gets every page (the paper sizes disaggregated
        // memory to hold the whole dataset, §4.1)...
        let pages = self.store.allocated_pages();
        for pid in 0..pages {
            let page = PageId(pid);
            // Never clobber a resident remote copy: it is at least as
            // new as storage.
            if self.remote_resident[pid as usize] {
                continue;
            }
            let roff = self.remote_off(page);
            self.rdma
                .borrow_mut()
                .raw_mut()
                .write(roff, self.store.raw_page(page));
            self.remote_resident[pid as usize] = true;
        }
        // ...and the LBP is warmed to capacity.
        let (space, store, owned) = (&mut self.space, &self.store, &mut self.owned);
        self.frames.warm((0..pages).map(PageId), |frame, page| {
            let off = frame as u64 * store.page_size();
            space.raw_mut().write(off, store.raw_page(page));
            owned.fill(frame, true);
        });
    }

    /// The local tier dies; the remote memory node (separate machine)
    /// keeps its pages — which is what RDMA-assisted recovery exploits.
    fn crash(&mut self) {
        self.space.crash();
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::calib::RDMA_READ_BASE_NS;

    fn setup(lbp_frames: usize) -> TieredRdmaBp {
        let mut store = PageStore::with_page_size(16, 1024);
        for _ in 0..8 {
            store.allocate();
        }
        // Deterministic page contents for roundtrip checks.
        for p in 0..8u64 {
            let data = vec![p as u8 + 1; 1024];
            store.raw_write_page(PageId(p), &data);
        }
        let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
        let mut bp = TieredRdmaBp::new(rdma, 0, 0, lbp_frames, 64 << 10, store);
        bp.prewarm();
        bp
    }

    #[test]
    fn lbp_miss_moves_a_whole_page() {
        let mut bp = setup(2); // pages 0,1 warm; 2.. remote only
        let before = bp.rdma.borrow().nic_bytes(0);
        let mut buf = [0u8; 8];
        let a = bp.read(PageId(5), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [6u8; 8]);
        let moved = bp.rdma.borrow().nic_bytes(0) - before;
        assert_eq!(
            moved, 1024,
            "8-byte request moved a full page: amplification"
        );
        assert!(a.end.as_nanos() >= RDMA_READ_BASE_NS);
        assert_eq!(bp.stats().remote_read_bytes, 1024);
    }

    #[test]
    fn lbp_hit_stays_local() {
        let mut bp = setup(2);
        let before = bp.rdma.borrow().nic_bytes(0);
        let mut buf = [0u8; 8];
        let a = bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(bp.rdma.borrow().nic_bytes(0), before);
        assert!(a.end.as_nanos() < 1_000, "local hit is sub-µs");
    }

    #[test]
    fn dirty_eviction_writes_whole_page_back() {
        let mut bp = setup(1);
        bp.write(PageId(0), 0, &[0xEE], Lsn(1), SimTime::ZERO);
        let before = bp.rdma.borrow().nic_bytes(0);
        // Touch another page: evicts dirty page 0.
        bp.read(PageId(1), 0, &mut [0u8; 1], SimTime::ZERO);
        let moved = bp.rdma.borrow().nic_bytes(0) - before;
        // 1 KB write-back + 1 KB fill.
        assert_eq!(moved, 2048);
        assert_eq!(bp.stats().writebacks, 1);
        // The one-byte update survived the round trip.
        let mut buf = [0u8; 1];
        bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0xEE]);
    }

    #[test]
    fn crash_keeps_remote_tier() {
        let mut bp = setup(1);
        bp.write(PageId(0), 0, &[0xAA], Lsn(1), SimTime::ZERO);
        bp.read(PageId(1), 0, &mut [0u8; 1], SimTime::ZERO); // evict -> remote
        bp.crash();
        assert!(!bp.is_resident(PageId(0)));
        assert!(bp.remote_resident(PageId(0)));
        // Remote still serves the updated page after the crash.
        let mut buf = [0u8; 1];
        bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0xAA]);
    }

    #[test]
    fn unflushed_lbp_writes_die_in_crash() {
        let mut bp = setup(4);
        bp.write(PageId(0), 0, &[0xBB], Lsn(1), SimTime::ZERO);
        bp.crash();
        let mut buf = [0u8; 1];
        bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        // Remote still has the prewarm-era copy.
        assert_eq!(buf, [1], "dirty-only-in-LBP update is lost");
    }

    #[test]
    fn instances_share_the_nic() {
        let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 22, 1)));
        let mk = |base: u64| {
            let mut store = PageStore::with_page_size(16, 1024);
            for p in 0..8 {
                store.allocate();
                store.raw_write_page(PageId(p), &vec![1; 1024]);
            }
            let mut bp = TieredRdmaBp::new(Rc::clone(&rdma), 0, base, 1, 64 << 10, store);
            bp.prewarm();
            bp
        };
        let mut a = mk(0);
        let mut b = mk(1 << 21);
        // Both instances miss at t=0; the second queues behind the first
        // on the shared NIC.
        let ta = a.read(PageId(5), 0, &mut [0u8; 8], SimTime::ZERO).end;
        let tb = b.read(PageId(5), 0, &mut [0u8; 8], SimTime::ZERO).end;
        assert!(tb > ta, "shared NIC serializes cross-instance transfers");
    }

    // ---- aliased page-in: seeded property test -----------------------

    const PROP_PAGES: u64 = 16;
    const PROP_PS: usize = 1024;

    /// One instance under test plus its per-page byte oracle (the
    /// logical content every read must return).
    struct Checked {
        bp: TieredRdmaBp,
        oracle: Vec<Vec<u8>>,
    }

    impl Checked {
        fn new(rdma: &SharedRdma, remote_base: u64, lbp_frames: usize) -> Self {
            let mut store = PageStore::with_page_size(PROP_PAGES, PROP_PS as u64);
            let mut oracle = Vec::new();
            for p in 0..PROP_PAGES {
                store.allocate();
                let data = vec![p as u8 + 1; PROP_PS];
                store.raw_write_page(PageId(p), &data);
                oracle.push(data);
            }
            let mut bp =
                TieredRdmaBp::new(Rc::clone(rdma), 0, remote_base, lbp_frames, 8 << 10, store);
            bp.prewarm();
            Checked { bp, oracle }
        }

        fn remote_bytes(&self, page: PageId) -> Vec<u8> {
            let off = self.bp.remote_off(page);
            self.bp.rdma.borrow().raw().slice(off, PROP_PS).to_vec()
        }

        /// The aliasing invariant, checked per line after every step: a
        /// remote line is never mutated while a frame reads it in place,
        /// so every such line holds the oracle's bytes — on dirty frames
        /// too.
        fn check_invariants(&self, step: usize) {
            let lines = self.bp.owned.per_page;
            for frame in 0..self.bp.frames.dir().capacity() as u32 {
                let Some(page) = self.bp.frames.dir().page_of(frame) else {
                    continue;
                };
                let remote = self.remote_bytes(page);
                for (run, own) in self.bp.owned.runs(frame, 0..lines) {
                    if let Some(all) = self.bp.owned.uniform[frame as usize] {
                        assert_eq!(own, all, "step {step}: frame {frame} is not uniform");
                    }
                    if own {
                        continue;
                    }
                    assert!(self.bp.remote_resident(page), "step {step}: {page:?}");
                    let bytes = run.start * LINE..run.end * LINE;
                    assert_eq!(
                        remote[bytes.clone()],
                        self.oracle[page.0 as usize][bytes.clone()],
                        "step {step}: {page:?} bytes {bytes:?} read in place diverged"
                    );
                }
            }
        }

        /// Whether a dirty frame still reads some line in place.
        fn dirty_frame_reads_in_place(&self) -> bool {
            let lines = self.bp.owned.per_page;
            (0..self.bp.frames.dir().capacity() as u32).any(|frame| {
                self.bp.frames.is_dirty(frame)
                    && self.bp.owned.runs(frame, 0..lines).any(|(_, own)| !own)
            })
        }

        fn read_checked(&mut self, page: u64, off: usize, len: usize, now: SimTime, step: usize) {
            let mut buf = vec![0u8; len];
            self.bp.read(PageId(page), off as u16, &mut buf, now);
            assert_eq!(
                buf,
                self.oracle[page as usize][off..off + len],
                "step {step}: page {page} off {off} len {len}"
            );
        }

        fn step(&mut self, rng: &mut simkit::rng::SimRng, now: SimTime, step: usize) {
            let page = rng.gen_range(0..PROP_PAGES);
            match rng.gen_range(0..100u32) {
                // Field-sized and multi-line reads.
                0..=44 => {
                    let len = [2usize, 8, 8, 120, PROP_PS][rng.gen_range(0..5usize)];
                    let off = rng.gen_range(0..=PROP_PS - len);
                    self.read_checked(page, off, len, now, step);
                }
                // Writes; bytes stay below 0xD0 so the crash wipe pattern
                // (0xDE) can never be legitimate content.
                45..=69 => {
                    let len = rng.gen_range(1..=200usize);
                    let off = rng.gen_range(0..=PROP_PS - len);
                    let data = vec![rng.gen_range(0..0xD0u8); len];
                    self.bp
                        .write(PageId(page), off as u16, &data, Lsn(step as u64 + 1), now);
                    self.oracle[page as usize][off..off + len].copy_from_slice(&data);
                }
                // Evict pressure: touch more distinct pages than frames.
                70..=84 => {
                    for i in 0..8 {
                        self.read_checked((page + i) % PROP_PAGES, 0, 1, now, step);
                    }
                }
                85..=89 => {
                    self.bp.flush_all(now);
                }
                90..=92 => self.bp.prewarm(),
                _ => self.crash(rng.gen_bool(0.5), now, step),
            }
        }

        fn crash(&mut self, checkpoint_first: bool, now: SimTime, step: usize) {
            if checkpoint_first {
                // Everything reached storage and remote: nothing is lost.
                self.bp.flush_all(now);
            }
            let remote_before: Vec<Option<Vec<u8>>> = (0..PROP_PAGES)
                .map(|p| {
                    self.bp
                        .remote_resident(PageId(p))
                        .then(|| self.remote_bytes(PageId(p)))
                })
                .collect();
            self.bp.crash();
            assert_eq!(self.bp.aliased_frames(), 0, "step {step}");
            for p in 0..PROP_PAGES {
                let page = PageId(p);
                // Remote-resident pages survive the crash intact — they
                // were read in place, never through a wiped local copy.
                let survivor = match &remote_before[p as usize] {
                    Some(before) => {
                        assert!(self.bp.remote_resident(page));
                        assert_eq!(&self.remote_bytes(page), before, "step {step}: {page:?}");
                        before.clone()
                    }
                    None => self.bp.store().raw_page(page).to_vec(),
                };
                if checkpoint_first {
                    assert_eq!(survivor, self.oracle[p as usize], "step {step}: {page:?}");
                }
                // Without a checkpoint, dirty-only-in-LBP writes die with
                // the host: the surviving tier is the new truth.
                self.oracle[p as usize] = survivor;
                assert!(
                    !self.oracle[p as usize].contains(&0xDE),
                    "step {step}: wipe pattern leaked into {page:?}"
                );
            }
        }
    }

    #[test]
    fn aliased_page_in_matches_a_byte_oracle_under_a_seeded_op_mix() {
        for seed in [1u64, 2, 3] {
            // Two instances on one fabric, each owning its own slice.
            let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
            let mut a = Checked::new(&rdma, 0, 4);
            let mut b = Checked::new(&rdma, 1 << 19, 3);
            let mut rng = simkit::rng::SimRng::seed_from_u64(seed);
            let (mut max_aliased, mut dirty_in_place) = (0, false);
            for step in 0..3_000 {
                let now = SimTime(step as u64 * 10_000);
                let who = if rng.gen_bool(0.5) { &mut a } else { &mut b };
                who.step(&mut rng, now, step);
                // After every step: invariants on both instances (the
                // other one must not have been disturbed), and a whole
                // page read back against the oracle.
                a.check_invariants(step);
                b.check_invariants(step);
                let page = rng.gen_range(0..PROP_PAGES);
                a.read_checked(page, 0, PROP_PS, now, step);
                b.read_checked(page, 0, PROP_PS, now, step);
                max_aliased = max_aliased.max(a.bp.aliased_frames());
                dirty_in_place |= a.dirty_frame_reads_in_place();
            }
            assert_eq!(max_aliased, 4, "seed {seed}: aliasing was exercised");
            assert!(dirty_in_place, "seed {seed}: no partly-local dirty frame");
            assert!(a.bp.stats().writebacks > 0 && a.bp.stats().remote_read_bytes > 0);
        }
    }

    fn owned_lines(bp: &TieredRdmaBp, page: PageId) -> Vec<usize> {
        let frame = bp.frames.dir().lookup(page).expect("resident");
        (0..bp.owned.per_page)
            .filter(|&line| bp.owned.owns(frame, line))
            .collect()
    }

    fn remote_page(bp: &TieredRdmaBp, page: PageId) -> Vec<u8> {
        let off = bp.remote_off(page);
        bp.rdma.borrow().raw().slice(off, 1024).to_vec()
    }

    #[test]
    fn one_byte_write_copies_one_line_and_write_back_charges_a_page() {
        let mut bp = setup(1); // page 0 warm (a local copy); 1.. remote only
        assert_eq!(bp.aliased_frames(), 0, "prewarm fills with local copies");
        let mut buf = [0u8; 8];
        bp.read(PageId(5), 0, &mut buf, SimTime::ZERO);
        assert_eq!(bp.aliased_frames(), 1, "page-in reads in place");
        assert!(owned_lines(&bp, PageId(5)).is_empty());
        let remote_before = remote_page(&bp, PageId(5));
        // Copy-on-write at line grain: a one-byte store into line 2
        // copies that line alone and never lands in the remote page.
        bp.write(PageId(5), 130, &[0xAB], Lsn(1), SimTime::ZERO);
        assert_eq!(owned_lines(&bp, PageId(5)), [2]);
        assert_eq!(bp.aliased_frames(), 1, "the other lines read in place");
        assert_eq!(remote_page(&bp, PageId(5)), remote_before);
        let mut oracle = remote_before;
        oracle[130] = 0xAB;
        // A read across lines stitches own and in-place lines together.
        let mut wide = [0u8; 192];
        bp.read(PageId(5), 64, &mut wide, SimTime::ZERO);
        assert_eq!(wide[..], oracle[64..256]);
        // Dirty eviction: the NIC is charged one full page for the
        // write-back (plus one for the fill), and the remote copy is
        // exactly the oracle's page.
        let nic_before = bp.rdma.borrow().nic_bytes(0);
        bp.read(PageId(6), 0, &mut buf, SimTime::ZERO);
        assert_eq!(bp.rdma.borrow().nic_bytes(0) - nic_before, 2 * 1024);
        assert_eq!(bp.stats().writebacks, 1);
        assert_eq!(bp.stats().remote_write_bytes, 1024);
        assert_eq!(remote_page(&bp, PageId(5)), oracle);
    }

    #[test]
    fn flush_all_checkpoints_to_storage_and_remote() {
        let mut bp = setup(4);
        bp.write(PageId(2), 0, &[0xCC], Lsn(5), SimTime::ZERO);
        bp.flush_all(SimTime::ZERO);
        assert_eq!(bp.store().raw_page(PageId(2))[0], 0xCC);
        // Remote copy refreshed too.
        let off = bp.remote_off(PageId(2));
        assert_eq!(bp.rdma.borrow().raw().slice(off, 1)[0], 0xCC);
    }
}
