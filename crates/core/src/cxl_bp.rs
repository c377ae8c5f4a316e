//! The CXL-resident buffer pool (§3.1).
//!
//! The paper's central design move: **no tiered memory**. The entire
//! buffer pool — page data *and* metadata — lives in CXL memory; local
//! DRAM keeps only transient engine state (here: the page→block map and
//! the recency list order, both rebuildable). Queries touch exactly the
//! bytes they need via load/store, so there is no page-granularity
//! read/write amplification; and because metadata (`id`, `lock_state`,
//! `lsn`, list links) is written durably (non-temporal stores / flushed
//! lines), everything PolarRecv needs survives a crash.
//!
//! Crash-consistency protocol per write-latch window:
//! 1. `set_latch(page, true)` → `lock_state := 1` (ntstore, durable
//!    *before* any data change);
//! 2. data writes go through the CPU cache (fast) and are recorded as
//!    dirty ranges; the page LSN is updated in the (cached) meta line;
//! 3. `set_latch(page, false)` → `clflush` the dirty ranges + meta line,
//!    **then** `lock_state := 0` (ntstore).
//!
//! If the host dies inside the window, recovery finds `lock_state == 1`
//! and rebuilds the page from storage + redo (§3.2); if it dies outside,
//! the CXL copy is complete and trusted.

use crate::layout::{field, BlockMeta, Geometry, RegionHeader, MAGIC, META_SIZE, NO_PAGE};
use bufferpool::policy::PolicyKind;
use bufferpool::{BpStats, BufferPool, Residency};
use memsim::{Access, CxlPool, NodeId};
use simkit::trace::{self, SpanKind};
use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use storage::{Lsn, PageId, PageStore};

/// The CXL fabric shared by every node of a simulation.
pub type SharedCxl = Rc<RefCell<CxlPool>>;

/// Dirty-range capacity of a pool, sized for the widest latch window
/// the B+tree produces: a leaf split moves half a leaf record by record,
/// four range pushes per moved record across its two pages, and the
/// parents take a few more. On 16 KB pages that fits records of 24 bytes
/// and up (the sysbench table's 188-byte rows peak at 189 entries), so
/// the write path never grows the list.
const DIRTY_RANGES_CAP: usize = 1024;

/// The buffer pool living wholly in CXL memory.
pub struct CxlBp {
    cxl: SharedCxl,
    node: NodeId,
    geo: Geometry,
    store: PageStore,
    /// Volatile page → block directory: map, free stack, eviction order
    /// (LRU / CLOCK / 2Q) and memo, whose page's reads may take the
    /// hot-page branch in `access`. Membership itself is authoritative
    /// in CXL (`in_use` + list links), so recovery rebuilds it. Its map
    /// is presized for `nblocks` entries, not 2×: a pool that holds its
    /// dataset never churns, and at 2× glibc keeps ≈ 200 MB more heap
    /// between the ledger's `pool_point` cells (docs/ledger-pairs.md).
    dir: Residency,
    /// Host-side mirror of every block's metadata (write-through).
    mirror: Vec<BlockMeta>,
    /// Mirror of the region header.
    inuse_head: u64,
    /// Byte ranges written inside the open latch windows, as (block,
    /// offset, length) in push order; unlatching a page flushes and drops
    /// its block's. Keyed by block, so after the single residency probe
    /// in `fix` the write path touches no hash table; presized and
    /// drained in place, so the hot path never allocates.
    dirty_ranges: Vec<(u32, u16, u16)>,
    /// Per-block "updates not yet checkpointed to storage" bit
    /// (parallel to `mirror`).
    ckpt_dirty: Vec<bool>,
    /// Reusable page-sized staging buffer for CXL → storage checkpoint
    /// transfers, so they never allocate. (Miss fills need none: they
    /// stream from the store's own copy of the page.)
    page_buf: Vec<u8>,
    stats: BpStats,
}

impl std::fmt::Debug for CxlBp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CxlBp")
            .field("node", &self.node)
            .field("blocks", &self.geo.nblocks)
            .field("resident", &self.dir.resident())
            .field("stats", &self.stats)
            .finish()
    }
}

impl CxlBp {
    /// Format a fresh pool region at `base` (a lease from the
    /// [`crate::manager::CxlMemoryManager`]) with `nblocks` blocks, and
    /// attach to it, evicting by LRU. Formatting is raw (startup,
    /// untimed).
    pub fn format(cxl: SharedCxl, node: NodeId, base: u64, nblocks: u64, store: PageStore) -> Self {
        let geo = Geometry {
            base,
            nblocks,
            page_size: store.page_size(),
        };
        {
            let mut pool = cxl.borrow_mut();
            assert!(
                (base + geo.lease_size()) as usize <= pool.len(),
                "lease does not fit in the CXL pool"
            );
            let hdr = RegionHeader {
                magic: MAGIC,
                nblocks,
                page_size: store.page_size(),
                inuse_head: 0,
                list_lock: 0,
                generation: 1,
            };
            pool.raw_mut().write(base, &hdr.encode());
            let free_meta = BlockMeta::free().encode();
            for b in 0..nblocks {
                pool.raw_mut().write(geo.meta_off(b), &free_meta);
            }
        }
        CxlBp {
            cxl,
            node,
            geo,
            store,
            dir: Residency::with_map_capacity(nblocks as usize, PolicyKind::Lru, nblocks as usize),
            mirror: vec![BlockMeta::free(); nblocks as usize],
            inuse_head: 0,
            dirty_ranges: Vec::with_capacity(DIRTY_RANGES_CAP),
            ckpt_dirty: vec![false; nblocks as usize],
            page_buf: vec![0u8; geo.page_size as usize],
            stats: BpStats::default(),
        }
    }

    /// Attach to an already-formatted region after a crash, *without*
    /// rebuilding volatile state — [`crate::recovery::polar_recv`] does
    /// that, before the pool serves a page. Evicts by LRU; panics if the
    /// region is not formatted.
    pub fn attach(cxl: SharedCxl, node: NodeId, base: u64, store: PageStore) -> Self {
        let hdr = {
            let pool = cxl.borrow();
            RegionHeader::decode(pool.raw().slice(base, META_SIZE as usize))
        };
        assert_eq!(hdr.magic, MAGIC, "attaching to unformatted CXL region");
        assert_eq!(hdr.page_size, store.page_size(), "page size mismatch");
        let geo = Geometry {
            base,
            nblocks: hdr.nblocks,
            page_size: hdr.page_size,
        };
        let nblocks = hdr.nblocks as usize;
        CxlBp {
            cxl,
            node,
            geo,
            store,
            dir: Residency::with_map_capacity(nblocks, PolicyKind::Lru, nblocks),
            mirror: vec![BlockMeta::free(); nblocks],
            inuse_head: hdr.inuse_head,
            dirty_ranges: Vec::with_capacity(DIRTY_RANGES_CAP),
            ckpt_dirty: vec![false; nblocks],
            page_buf: vec![0u8; geo.page_size as usize],
            stats: BpStats::default(),
        }
    }

    /// An exact copy of this pool run by `node` over the lease at `base`
    /// of the same fabric: the host-side state is cloned (directory,
    /// mirror, dirty ranges, counters; the page store's pages are shared
    /// copy-on-write), the lease bytes are
    /// copied raw and `node`'s CPU cache becomes this node's, moved by
    /// the lease delta ([`CxlPool::copy_lease`]). Everything kept in the
    /// lease is a block index or a page id and every offset is taken from
    /// `base`, so the copy is the pool that replaying this one's history
    /// on `node` at `base` would have produced. Untimed.
    ///
    /// # Panics
    /// When [`CxlPool::copy_lease`] refuses: a lease delta that is not
    /// whole cache lines, a destination that overlaps this lease or
    /// leaves the pool, a capture-mode cache, or a `node` whose cache has
    /// been used or is sized differently.
    pub fn copy_to(&self, node: NodeId, base: u64) -> Self {
        self.cxl.borrow_mut().copy_lease(
            self.node,
            self.geo.base,
            node,
            base,
            self.geo.lease_size(),
        );
        CxlBp {
            cxl: Rc::clone(&self.cxl),
            node,
            geo: Geometry { base, ..self.geo },
            store: self.store.clone(),
            dir: self.dir.clone(),
            mirror: self.mirror.clone(),
            inuse_head: self.inuse_head,
            dirty_ranges: simkit::clone_reserved(&self.dirty_ranges),
            ckpt_dirty: self.ckpt_dirty.clone(),
            page_buf: self.page_buf.clone(),
            stats: self.stats,
        }
    }

    /// Region geometry (used by recovery).
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The node this pool instance runs as.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Shared fabric handle (used by recovery).
    pub fn fabric(&self) -> &SharedCxl {
        &self.cxl
    }

    /// Install recovered metadata (called by
    /// [`crate::recovery::polar_recv`] after it has repaired the CXL
    /// image): rebuilds the mirror and the directory. `metas` is ordered
    /// front (MRU) to back (LRU), and the first ends up newest.
    pub fn adopt_recovered_state(&mut self, metas: &[(u32, BlockMeta)]) {
        for m in &mut self.mirror {
            *m = BlockMeta::free();
        }
        for (b, m) in metas {
            self.mirror[*b as usize] = *m;
        }
        self.dir
            .adopt(metas.iter().map(|(b, m)| (*b, PageId(m.page_id))));
        self.inuse_head = metas.first().map_or(0, |(b, _)| *b as u64 + 1);
    }

    /// Mark a page as needing the next checkpoint (its CXL copy is ahead
    /// of storage). Used by recovery.
    pub fn mark_dirty_for_checkpoint(&mut self, page: PageId) {
        // A non-resident page has nothing ahead of storage to flush (the
        // old page-keyed set also skipped it at checkpoint time).
        if let Some(b) = self.dir.lookup(page) {
            self.ckpt_dirty[b as usize] = true;
        }
    }

    // ------------------------------------------------- durable helpers

    fn nt_store_u64(&mut self, off: u64, v: u64, now: SimTime) -> SimTime {
        self.cxl
            .borrow_mut()
            .write_uncached(self.node, off, &v.to_le_bytes(), now)
            .end
    }

    fn set_meta_field(&mut self, b: u32, foff: u64, v: u64, now: SimTime) -> SimTime {
        let off = self.geo.meta_off(b as u64) + foff;
        self.nt_store_u64(off, v, now)
    }

    /// Splice block `b` at the head of the in-use list, durably, under
    /// the list lock.
    fn link_head(&mut self, b: u32, page: PageId, now: SimTime) -> SimTime {
        let hdr_lock = self.geo.base + field::HDR_LIST_LOCK;
        let hdr_head = self.geo.base + field::HDR_INUSE_HEAD;
        let mut t = self.nt_store_u64(hdr_lock, 1, now);
        let old_head = self.inuse_head;
        let m = &mut self.mirror[b as usize];
        m.page_id = page.0;
        m.in_use = 1;
        m.lsn = 0;
        m.prev = 0;
        m.next = old_head;
        t = self.set_meta_field(b, field::PAGE_ID, page.0, t);
        t = self.set_meta_field(b, field::IN_USE, 1, t);
        t = self.set_meta_field(b, field::LSN, 0, t);
        t = self.set_meta_field(b, field::PREV, 0, t);
        t = self.set_meta_field(b, field::NEXT, old_head, t);
        if old_head != 0 {
            let ob = (old_head - 1) as u32;
            self.mirror[ob as usize].prev = b as u64 + 1;
            t = self.set_meta_field(ob, field::PREV, b as u64 + 1, t);
        }
        self.inuse_head = b as u64 + 1;
        t = self.nt_store_u64(hdr_head, b as u64 + 1, t);
        self.nt_store_u64(hdr_lock, 0, t)
    }

    /// Remove block `b` from the in-use list, durably.
    fn unlink(&mut self, b: u32, now: SimTime) -> SimTime {
        let hdr_lock = self.geo.base + field::HDR_LIST_LOCK;
        let hdr_head = self.geo.base + field::HDR_INUSE_HEAD;
        let mut t = self.nt_store_u64(hdr_lock, 1, now);
        let m = self.mirror[b as usize];
        if m.prev != 0 {
            let pb = (m.prev - 1) as u32;
            self.mirror[pb as usize].next = m.next;
            t = self.set_meta_field(pb, field::NEXT, m.next, t);
        } else {
            self.inuse_head = m.next;
            t = self.nt_store_u64(hdr_head, m.next, t);
        }
        if m.next != 0 {
            let nb = (m.next - 1) as u32;
            self.mirror[nb as usize].prev = m.prev;
            t = self.set_meta_field(nb, field::PREV, m.prev, t);
        }
        let mm = &mut self.mirror[b as usize];
        mm.page_id = NO_PAGE;
        mm.in_use = 0;
        mm.prev = 0;
        mm.next = 0;
        t = self.set_meta_field(b, field::IN_USE, 0, t);
        t = self.set_meta_field(b, field::PAGE_ID, NO_PAGE, t);
        self.nt_store_u64(hdr_lock, 0, t)
    }

    /// Ensure `page` occupies a block; returns (block, time).
    fn fix(&mut self, page: PageId, now: SimTime) -> (u32, SimTime) {
        if let Some(b) = self.dir.lookup_touch(page) {
            self.stats.hits += 1;
            return (b, now);
        }
        self.stats.misses += 1;
        let mut t = now;
        let (b, victim) = self.dir.claim();
        if let Some(victim) = victim {
            t = self.evict(b, victim, t);
        }
        // Durable membership first, with the block marked locked so a
        // crash mid-fill is detected by recovery.
        t = self.set_meta_field(b, field::LOCK_STATE, 1, t);
        self.mirror[b as usize].lock_state = 1;
        t = self.link_head(b, page, t);
        // Fill page data from storage with streaming non-temporal stores.
        t = self.fill_from_storage(b, page, t);
        t = self.set_meta_field(b, field::LOCK_STATE, 0, t);
        self.mirror[b as usize].lock_state = 0;
        self.dir.install(b, page);
        trace::span(
            SpanKind::BpMiss,
            self.node.0 as u32,
            now,
            t,
            self.geo.page_size,
        );
        (b, t)
    }

    /// Charge a storage read of `page` and stream it into block `b` with
    /// non-temporal stores, straight from the store's own copy.
    fn fill_from_storage(&mut self, b: u32, page: PageId, now: SimTime) -> SimTime {
        let io = self.store.read_page_timing(page, now);
        self.stats.storage_read_bytes += self.geo.page_size;
        self.cxl
            .borrow_mut()
            .write_uncached(
                self.node,
                self.geo.data_off(b as u64),
                self.store.raw_page(page),
                io.end,
            )
            .end
    }

    /// The durable half of evicting `page` from block `b`, which the
    /// directory has already unbound: write-back, then unlink.
    fn evict(&mut self, b: u32, page: PageId, now: SimTime) -> SimTime {
        self.stats.evictions += 1;
        let mut t = now;
        self.dirty_ranges.retain(|&(blk, ..)| blk != b);
        if std::mem::take(&mut self.ckpt_dirty[b as usize]) {
            // Write the page down to storage before the block is reused.
            self.stats.writebacks += 1;
            t = self.flush_page_to_storage(b, page, t);
        }
        self.unlink(b, t)
    }

    fn flush_page_to_storage(&mut self, b: u32, page: PageId, now: SimTime) -> SimTime {
        let ps = self.geo.page_size as usize;
        // Make sure CXL holds the latest bytes (flush any cached dirt).
        let data_off = self.geo.data_off(b as u64);
        let mut t = self
            .cxl
            .borrow_mut()
            .clflush(self.node, data_off, ps, now)
            .end;
        t = self
            .cxl
            .borrow_mut()
            .read(self.node, data_off, &mut self.page_buf, t)
            .end;
        let io = self.store.write_page(page, &self.page_buf, t);
        self.stats.storage_write_bytes += ps as u64;
        io.end
    }

    /// The fabric's half of a read: `len` bytes at pool offset `at`,
    /// into `dst` when the caller wants them.
    #[inline(always)]
    fn fabric_read(&self, at: u64, len: usize, dst: Option<&mut [u8]>, now: SimTime) -> Access {
        let mut pool = self.cxl.borrow_mut();
        match dst {
            Some(buf) => pool.read(self.node, at, buf, now),
            None => pool.read_timing(self.node, at, len, now),
        }
    }

    /// The one read body: everything a read of `len` bytes at `off`
    /// within `page` does to the model, and — when `dst` (`len` bytes
    /// long) is given — the copy. `read` passes its buffer, `touch`
    /// passes `None`.
    ///
    /// The hot-page branch: when `page` is the memo's page and nothing
    /// observes the run ([`simkit::unobserved`]), the hit is counted as
    /// `fix` counts it and the read goes straight to the fabric — no
    /// out-of-line `fix` call. The profiler scope around it is inert
    /// then.
    #[inline(always)]
    fn access(
        &mut self,
        page: PageId,
        off: u16,
        len: usize,
        dst: Option<&mut [u8]>,
        now: SimTime,
    ) -> Access {
        if let Some(b) = self.dir.memo_hit(page) {
            if simkit::unobserved() {
                self.stats.hits += 1;
                let at = self.geo.data_off(b as u64) + off as u64;
                return self.fabric_read(at, len, dst, now);
            }
        }
        let (b, t) = self.fix(page, now);
        let at = self.geo.data_off(b as u64) + off as u64;
        self.fabric_read(at, len, dst, t)
    }
}

impl BufferPool for CxlBp {
    fn page_size(&self) -> u64 {
        self.geo.page_size
    }

    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
        (self.store.allocate(), now)
    }

    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        self.access(page, off, buf.len(), Some(buf), now)
    }

    fn touch(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        self.access(page, off, len, None, now)
    }

    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (b, t) = self.fix(page, now);
        let base = self.geo.data_off(b as u64);
        // Update the page LSN in the (cached) meta line too; it is
        // flushed together with the data ranges on unlatch.
        let meta_lsn_off = self.geo.meta_off(b as u64) + field::LSN;
        let (a, a2) = {
            let mut pool = self.cxl.borrow_mut();
            let a = pool.write(self.node, base + off as u64, data, t);
            let a2 = pool.write(self.node, meta_lsn_off, &lsn.0.to_le_bytes(), a.end);
            (a, a2)
        };
        self.mirror[b as usize].lsn = lsn.0;
        // Block-keyed: no further hashing after `fix`'s probe.
        self.dirty_ranges.push((b, off, data.len() as u16));
        self.ckpt_dirty[b as usize] = true;
        Access {
            end: a2.end,
            link_bytes: a.link_bytes + a2.link_bytes,
            hits: a.hits + a2.hits,
            misses: a.misses + a2.misses,
        }
    }

    fn set_latch(&mut self, page: PageId, locked: bool, now: SimTime) -> SimTime {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let (b, mut t) = self.fix(page, now);
        if locked {
            self.mirror[b as usize].lock_state = 1;
            self.set_meta_field(b, field::LOCK_STATE, 1, t)
        } else {
            // Publish: flush dirty data ranges + meta line, then clear
            // the lock durably.
            let base = self.geo.data_off(b as u64);
            let mut flushed = false;
            {
                let mut pool = self.cxl.borrow_mut();
                for &(_, off, len) in self.dirty_ranges.iter().filter(|r| r.0 == b) {
                    t = pool
                        .clflush(self.node, base + off as u64, len as usize, t)
                        .end;
                    flushed = true;
                }
                if flushed {
                    let meta = self.geo.meta_off(b as u64);
                    t = pool.clflush(self.node, meta, META_SIZE as usize, t).end;
                    self.dirty_ranges.retain(|&(blk, ..)| blk != b);
                }
            }
            self.mirror[b as usize].lock_state = 0;
            self.set_meta_field(b, field::LOCK_STATE, 0, t)
        }
    }

    fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        let b = self.dir.lookup(page)?;
        let m = &self.mirror[b as usize];
        (m.lsn != 0).then_some(Lsn(m.lsn))
    }

    fn is_resident(&self, page: PageId) -> bool {
        self.dir.contains(page)
    }

    fn flush_all(&mut self, now: SimTime) -> SimTime {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::BufferPool);
        let mut t = now;
        // Walking block ids is deterministic (and allocation-free) by
        // construction — no hash-order to launder.
        for b in 0..self.geo.nblocks as u32 {
            if !std::mem::take(&mut self.ckpt_dirty[b as usize]) {
                continue;
            }
            let page = PageId(self.mirror[b as usize].page_id);
            t = self.flush_page_to_storage(b, page, t);
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
        let (geo, pages) = (self.geo, self.store.allocated_pages());
        let mut pool = self.cxl.borrow_mut();
        let mut prev_link = 0u64; // block index +1 of previous
        let pages = (0..pages.min(geo.nblocks)).map(PageId);
        self.dir.warm(pages, |b, page| {
            let link = b as u64 + 1;
            let meta = BlockMeta {
                page_id: page.0,
                prev: prev_link,
                in_use: 1,
                ..BlockMeta::free()
            };
            pool.raw_mut().write(geo.meta_off(b as u64), &meta.encode());
            let data = self.store.raw_page(page);
            pool.raw_mut().write(geo.data_off(b as u64), data);
            if prev_link != 0 {
                let prev_meta_off = geo.meta_off(prev_link - 1) + field::NEXT;
                pool.raw_mut().write(prev_meta_off, &link.to_le_bytes());
                self.mirror[(prev_link - 1) as usize].next = link;
            }
            self.mirror[b as usize] = meta;
            if self.inuse_head == 0 {
                self.inuse_head = link;
                let hdr_head = geo.base + field::HDR_INUSE_HEAD;
                pool.raw_mut().write(hdr_head, &link.to_le_bytes());
            }
            prev_link = link;
        });
    }

    /// The host's CPU cache and all of the pool's volatile host-side
    /// state are lost; the CXL region survives. Normal use afterwards is
    /// [`CxlBp::attach`] + recovery.
    fn crash(&mut self) {
        self.cxl.borrow_mut().crash_node(self.node);
        self.dir.clear();
        for m in &mut self.mirror {
            *m = BlockMeta::free();
        }
        self.dirty_ranges.clear();
        self.ckpt_dirty.iter_mut().for_each(|d| *d = false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::CxlPool;

    fn setup(nblocks: u64, npages: u64) -> CxlBp {
        setup_on(nblocks, npages, false)
    }

    /// `setup` over a CPU cache that holds dirty bytes out of the region
    /// until they are flushed (`capture`), or writes them through.
    fn setup_on(nblocks: u64, npages: u64, capture: bool) -> CxlBp {
        let mut store = PageStore::with_page_size(npages, 1024);
        for p in 0..npages {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; 1024]);
        }
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            8 << 20,
            1,
            256 << 10,
            capture,
        )));
        let mut bp = CxlBp::format(cxl, NodeId(0), 0, nblocks, store);
        bp.prewarm();
        bp
    }

    #[test]
    fn read_your_writes() {
        let mut bp = setup(8, 8);
        bp.set_latch(PageId(0), true, SimTime::ZERO);
        bp.write(PageId(0), 100, b"cxl", Lsn(9), SimTime::ZERO);
        bp.set_latch(PageId(0), false, SimTime::ZERO);
        let mut buf = [0u8; 3];
        bp.read(PageId(0), 100, &mut buf, SimTime::ZERO);
        assert_eq!(&buf, b"cxl");
        assert_eq!(bp.page_lsn(PageId(0)), Some(Lsn(9)));
    }

    #[test]
    fn small_read_moves_small_bytes() {
        let mut bp = setup(8, 8);
        let mut buf = [0u8; 8];
        let a = bp.read(PageId(3), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [4u8; 8]);
        // One cache line, not one page: no read amplification.
        assert!(a.link_bytes <= 64, "{}", a.link_bytes);
    }

    #[test]
    fn metadata_is_durable_after_unlatch() {
        let mut bp = setup(8, 8);
        let t = bp.set_latch(PageId(2), true, SimTime::ZERO);
        let a = bp.write(PageId(2), 0, &[0xAB; 16], Lsn(77), t);
        bp.set_latch(PageId(2), false, a.end);
        // Inspect raw CXL: lock clear, lsn durable, data durable.
        let b = bp.dir.lookup(PageId(2)).unwrap();
        let geo = bp.geometry();
        let pool = bp.fabric().borrow();
        let meta = BlockMeta::decode(pool.raw().slice(geo.meta_off(b as u64), 64));
        assert_eq!(meta.lock_state, 0);
        assert_eq!(meta.lsn, 77);
        assert_eq!(meta.page_id, 2);
        assert_eq!(pool.raw().slice(geo.data_off(b as u64), 1)[0], 0xAB);
    }

    /// Pages 1 and 2 latched in one window and written in turn, two
    /// ranges each; returns their blocks.
    fn two_latched_pages(bp: &mut CxlBp) -> (u32, u32) {
        let mut t = bp.set_latch(PageId(1), true, SimTime::ZERO);
        t = bp.set_latch(PageId(2), true, t);
        for (off, lsn) in [(0u16, 1u64), (128, 2)] {
            for page in [1u8, 2] {
                let data = [0x10 * page + lsn as u8; 64];
                t = bp.write(PageId(page as u64), off, &data, Lsn(lsn), t).end;
            }
        }
        let block = |p| bp.dir.lookup(PageId(p)).unwrap();
        (block(1), block(2))
    }

    /// The first byte of each 64-byte range `offs` of block `b`, as the
    /// region (not the CPU cache) holds it.
    fn region_bytes(bp: &CxlBp, b: u32, offs: [u64; 2]) -> [u8; 2] {
        let pool = bp.fabric().borrow();
        offs.map(|off| pool.raw().slice(bp.geometry().data_off(b as u64) + off, 1)[0])
    }

    #[test]
    fn unlatching_one_page_flushes_only_its_own_ranges() {
        let mut bp = setup_on(4, 4, true);
        let (b1, b2) = two_latched_pages(&mut bp);
        assert_eq!(region_bytes(&bp, b1, [0, 128]), [2, 2], "held in cache");
        bp.set_latch(PageId(1), false, SimTime::ZERO);
        assert_eq!(region_bytes(&bp, b1, [0, 128]), [0x11, 0x12]);
        assert_eq!(region_bytes(&bp, b2, [0, 128]), [3, 3], "still unflushed");
        assert_eq!(bp.dirty_ranges, [(b2, 0, 64), (b2, 128, 64)]);
        bp.set_latch(PageId(2), false, SimTime::ZERO);
        assert_eq!(region_bytes(&bp, b2, [0, 128]), [0x21, 0x22]);
        assert!(bp.dirty_ranges.is_empty());
    }

    #[test]
    fn unlatch_flushes_its_ranges_in_push_order() {
        use simkit::faults::{self, FaultPlan, FaultSite, Trigger};
        faults::clear();
        let mut bp = setup_on(4, 4, true);
        let (b1, b2) = two_latched_pages(&mut bp);
        // The host dies at the unlatch's second flush: the range pushed
        // first is in the region, the one pushed second is not.
        faults::install(FaultPlan::Crash(Trigger::SiteHit(FaultSite::Clflush, 1)));
        let crash = faults::catch(|| bp.set_latch(PageId(1), false, SimTime::ZERO));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        bp.crash();
        assert_eq!(region_bytes(&bp, b1, [0, 128]), [0x11, 2]);
        assert_eq!(region_bytes(&bp, b2, [0, 128]), [3, 3]);
    }

    #[test]
    fn latched_page_is_marked_in_cxl() {
        let mut bp = setup(8, 8);
        bp.set_latch(PageId(1), true, SimTime::ZERO);
        let b = bp.dir.lookup(PageId(1)).unwrap();
        let geo = bp.geometry();
        let pool = bp.fabric().borrow();
        let meta = BlockMeta::decode(pool.raw().slice(geo.meta_off(b as u64), 64));
        assert_eq!(meta.lock_state, 1, "recovery must be able to see the latch");
    }

    #[test]
    fn eviction_unlinks_durably_and_writes_back() {
        let mut bp = setup(2, 4); // 2 blocks, 4 pages
        bp.set_latch(PageId(0), true, SimTime::ZERO);
        bp.write(PageId(0), 0, &[0xEE], Lsn(5), SimTime::ZERO);
        bp.set_latch(PageId(0), false, SimTime::ZERO);
        // Fault in two more pages: evicts page 0 (LRU) then page 1.
        bp.read(PageId(2), 0, &mut [0u8; 1], SimTime::ZERO);
        bp.read(PageId(3), 0, &mut [0u8; 1], SimTime::ZERO);
        assert!(!bp.is_resident(PageId(0)));
        assert_eq!(bp.stats().writebacks, 1);
        assert_eq!(
            bp.store().raw_page(PageId(0))[0],
            0xEE,
            "dirty page reached storage"
        );
        // Faulting page 0 back in returns the updated bytes.
        let mut buf = [0u8; 1];
        bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0xEE]);
    }

    #[test]
    fn in_use_list_walkable_from_raw_cxl() {
        let bp = setup(4, 4);
        let geo = bp.geometry();
        let pool = bp.fabric().borrow();
        let hdr = RegionHeader::decode(pool.raw().slice(geo.base, 64));
        assert_eq!(hdr.magic, MAGIC);
        assert_eq!(hdr.list_lock, 0);
        let mut seen = Vec::new();
        let mut cur = hdr.inuse_head;
        while cur != 0 {
            let m = BlockMeta::decode(pool.raw().slice(geo.meta_off(cur - 1), 64));
            assert_eq!(m.in_use, 1);
            seen.push(m.page_id);
            cur = m.next;
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flush_all_checkpoints_dirty_pages() {
        let mut bp = setup(8, 8);
        bp.set_latch(PageId(5), true, SimTime::ZERO);
        bp.write(PageId(5), 0, &[0x55], Lsn(3), SimTime::ZERO);
        bp.set_latch(PageId(5), false, SimTime::ZERO);
        bp.flush_all(SimTime::ZERO);
        assert_eq!(bp.store().raw_page(PageId(5))[0], 0x55);
    }

    /// Free-block misses between hits of one page, then a pressure
    /// sweep: the `BpStats` and the order pages leave in. With
    /// `forget_memo` every read finds no memo, so every hit probes and
    /// touches the policy: the reference the memo must match.
    fn memo_script(forget_memo: bool) -> (String, Vec<u64>) {
        let mut store = PageStore::with_page_size(16, 1024);
        for p in 0..16 {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; 1024]);
        }
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            8 << 20,
            1,
            256 << 10,
            false,
        )));
        // Eight blocks, all free: pages 0–3 take four of them.
        let mut bp = CxlBp::format(cxl, NodeId(0), 0, 8, store);
        let mut buf = [0u8; 8];
        let mut now = SimTime::ZERO;
        let mut read = |bp: &mut CxlBp, p: u64| {
            if forget_memo {
                bp.dir.forget_memo();
            }
            now = bp.read(PageId(p), 8, &mut buf, now).end;
        };
        // Page 0 is hot when page 1's free-block miss inserts it: that
        // install must drop the memo (under LRU page 0 is no longer the
        // head, and the next read of it must move it back). Page 2's read
        // after its own miss must not find a memo either.
        for p in [0, 0, 0, 1, 0, 2, 2, 3, 3] {
            read(&mut bp, p);
        }
        let mut gone = Vec::new();
        for p in 4..16 {
            let before: Vec<bool> = (0..16).map(|q| bp.is_resident(PageId(q))).collect();
            read(&mut bp, p);
            read(&mut bp, p);
            gone.extend((0..16).filter(|&q| before[q as usize] && !bp.is_resident(PageId(q))));
        }
        (format!("{:?}", bp.stats()), gone)
    }

    #[test]
    fn hot_page_branch_keeps_stats_and_eviction_order() {
        simkit::trace::enable_attribution(false);
        let lean = memo_script(false);
        let touch_every_hit = memo_script(true);
        simkit::trace::reset();
        simkit::trace::enable_attribution(true);
        let observed = memo_script(false);
        simkit::trace::enable_attribution(false);
        assert!(simkit::trace::attr_snapshot().total_ns() > 0);
        assert_eq!(lean, observed);
        assert_eq!(lean, touch_every_hit);
        // Twelve new pages, four free blocks: eight evictions.
        assert_eq!(lean.1.len(), 8, "{:?}", lean.1);
    }

    #[test]
    fn attach_reads_existing_header() {
        let bp = setup(4, 4);
        let cxl = Rc::clone(bp.fabric());
        let store2 = PageStore::with_page_size(4, 1024);
        let bp2 = CxlBp::attach(cxl, NodeId(0), 0, store2);
        assert_eq!(bp2.geometry().nblocks, 4);
        assert_eq!(bp2.geometry().page_size, 1024);
    }

    #[test]
    #[should_panic(expected = "unformatted")]
    fn attach_to_garbage_panics() {
        let cxl: SharedCxl = Rc::new(RefCell::new(CxlPool::single_host(
            1 << 20,
            1,
            1 << 16,
            false,
        )));
        let store = PageStore::with_page_size(4, 1024);
        let _ = CxlBp::attach(cxl, NodeId(0), 0, store);
    }
}
