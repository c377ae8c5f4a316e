//! Hotness-aware adaptive tiering across DRAM → CXL → storage.
//!
//! This is the *tiered memory* configuration the paper contrasts with
//! its CXL-native pool ([`crate::cxl_bp`]): page data lives in an
//! exclusive two-level memory hierarchy (a small local-DRAM cache in
//! front of a larger CXL region), with storage underneath. The pool is
//! volatile — unlike [`CxlBp`](crate::cxl_bp::CxlBp), nothing in CXL is
//! trusted after a crash — but it scales to working sets far larger
//! than DRAM+CXL, and it is where the eviction-policy and
//! promote/demote machinery earns its keep.
//!
//! Two migration regimes, selected by [`TierConfig::adaptive`]:
//!
//! * **static** — classic demand paging: every access must end in a
//!   DRAM frame. A CXL hit migrates the whole page up (and demotes a
//!   DRAM victim down); a storage miss fills straight into DRAM. This
//!   is the textbook tiered-LRU baseline, and it pays full-page
//!   migration bandwidth on the zipfian tail.
//! * **adaptive** — admission control plus background migration. Cold
//!   pages are served *in place* from CXL at byte granularity (the
//!   paper's byte-addressability argument: no page-fault amplification);
//!   storage misses fill into CXL, never directly into DRAM. A
//!   virtual-time epoch sweep ([`AdaptivePool::maybe_sweep`]) ages the
//!   per-frame heat counters, batch-promotes hot CXL pages into free
//!   DRAM frames, and batch-demotes cold DRAM pages back to CXL — so
//!   DRAM converges on the persistent hot set instead of the most
//!   recent scan.
//!
//! Every byte moved goes through the timed memory primitives, so the
//! attribution lanes still sum to end-to-end latency and all results
//! stay bit-deterministic.

use crate::cxl_bp::SharedCxl;
use bufferpool::policy::PolicyKind;
use bufferpool::{BpStats, BufferPool, Crashable, FrameTable};
use memsim::{Access, DramSpace, NodeId};
use simkit::profile::{self, Subsys};
use simkit::trace::{self, SpanKind};
use simkit::{FastMap, SimTime};
use storage::{Lsn, PageId, PageStore};

/// CPU cache bytes fronting the DRAM tier.
const CACHE_BYTES: usize = 256 << 10;

/// A CXL page with decayed heat `>=` this is a promotion candidate:
/// "touched at least twice since the last aging". A single cold access
/// (heat seeds at 1 on install) never earns promotion, so scans stay out
/// of DRAM, while anything re-referenced within an epoch is a candidate.
const PROMOTE_MIN_HEAT: u8 = 2;

/// A DRAM page with decayed heat `<=` this is a demotion candidate. Below
/// [`PROMOTE_MIN_HEAT`], so pages do not ping-pong.
const DEMOTE_MAX_HEAT: u8 = 1;

/// Migration cap per direction per sweep, bounding sweep latency.
const SWEEP_BATCH: usize = 64;

/// Geometry and migration regime of an [`AdaptivePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierConfig {
    /// DRAM tier capacity in page frames.
    pub dram_frames: usize,
    /// CXL tier capacity in page blocks.
    pub cxl_blocks: usize,
    /// Eviction policy used by *both* tiers.
    pub policy: PolicyKind,
    /// `true` = adaptive regime (in-place CXL service + epoch sweeps);
    /// `false` = static demand paging (migrate up on every access).
    pub adaptive: bool,
    /// Virtual-time epoch between sweeps, in nanoseconds.
    pub epoch_ns: u64,
}

impl TierConfig {
    /// Adaptive LRU with 1 ms epochs (thousands of ops).
    pub fn standard(dram_frames: usize, cxl_blocks: usize) -> Self {
        TierConfig {
            dram_frames,
            cxl_blocks,
            policy: PolicyKind::Lru,
            adaptive: true,
            epoch_ns: 1_000_000,
        }
    }
}

/// An exclusive DRAM-over-CXL tiered buffer pool with hotness-driven
/// migration. See the module docs for the two regimes.
pub struct AdaptivePool {
    cxl: SharedCxl,
    node: NodeId,
    /// Start of this pool's data region inside the CXL pool.
    base: u64,
    cfg: TierConfig,
    store: PageStore,
    /// DRAM tier: frame directory + policy.
    dram: FrameTable,
    space: DramSpace,
    /// CXL tier: block directory + policy (block `b` lives at
    /// `base + b * page_size`).
    cxlt: FrameTable,
    /// Per-frame / per-block 8-bit decaying access counter: seeded at 1
    /// on install, saturating +1 on every hit, halved at each epoch
    /// sweep, carried with the page when it changes tier. The sweep
    /// picks its promote / demote candidates from these; the heat of an
    /// unbound slot is never read.
    dram_heat: Vec<u8>,
    cxl_heat: Vec<u8>,
    /// Pool-level page → LSN map. A single map (not the per-table LSN
    /// arrays) because pages migrate *between* tables: a per-tier spill
    /// would strand the LSN in whichever table last evicted the page.
    lsns: FastMap<PageId, Lsn>,
    /// Staging buffer for promotions and miss fills.
    page_buf: Vec<u8>,
    /// Staging buffer for demotions (distinct from `page_buf`: a
    /// promotion can trigger a cascading demotion while `page_buf`
    /// holds the promoted bytes).
    xfer_buf: Vec<u8>,
    /// Staging buffer for CXL → storage writebacks.
    wb_buf: Vec<u8>,
    /// Virtual-time deadline of the next epoch sweep.
    next_epoch: u64,
    sweeps: u64,
    /// Reusable candidate scratch: `(heat, frame)`.
    promote_scratch: Vec<(u8, u32)>,
    demote_scratch: Vec<(u8, u32)>,
    stats: BpStats,
}

impl std::fmt::Debug for AdaptivePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePool")
            .field("node", &self.node)
            .field("dram_frames", &self.cfg.dram_frames)
            .field("cxl_blocks", &self.cfg.cxl_blocks)
            .field("adaptive", &self.cfg.adaptive)
            .field("sweeps", &self.sweeps)
            .field("stats", &self.stats)
            .finish()
    }
}

enum Loc {
    Dram(u32),
    Cxl(u32),
}

/// A hit: saturating +1 on the slot's heat.
fn bump(heat: &mut u8) {
    *heat = heat.saturating_add(1);
}

impl AdaptivePool {
    /// A pool whose CXL tier occupies `cfg.cxl_blocks` pages starting at
    /// `base` in the shared CXL pool (a lease from the
    /// [`crate::manager::CxlMemoryManager`]).
    pub fn new(cxl: SharedCxl, node: NodeId, base: u64, cfg: TierConfig, store: PageStore) -> Self {
        assert!(cfg.dram_frames > 0 && cfg.cxl_blocks > 0);
        let ps = store.page_size() as usize;
        assert!(
            (base + (cfg.cxl_blocks * ps) as u64) as usize <= cxl.borrow().len(),
            "CXL tier does not fit in the pool"
        );
        let mut lsns = FastMap::default();
        lsns.reserve(store.capacity_pages() as usize * 2);
        AdaptivePool {
            cxl,
            node,
            base,
            cfg,
            space: DramSpace::new(cfg.dram_frames * ps, CACHE_BYTES, false),
            dram: FrameTable::with_policy(cfg.dram_frames, cfg.policy),
            cxlt: FrameTable::with_policy(cfg.cxl_blocks, cfg.policy),
            dram_heat: vec![0; cfg.dram_frames],
            cxl_heat: vec![0; cfg.cxl_blocks],
            lsns,
            page_buf: vec![0u8; ps],
            xfer_buf: vec![0u8; ps],
            wb_buf: vec![0u8; ps],
            next_epoch: cfg.epoch_ns,
            sweeps: 0,
            promote_scratch: Vec::with_capacity(cfg.cxl_blocks),
            demote_scratch: Vec::with_capacity(cfg.dram_frames),
            store,
            stats: BpStats::default(),
        }
    }

    /// How many epoch sweeps have run.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Pages resident in the DRAM tier.
    pub fn dram_resident(&self) -> usize {
        self.dram.dir().resident()
    }

    /// Pages resident in the CXL tier.
    pub fn cxl_resident(&self) -> usize {
        self.cxlt.dir().resident()
    }

    fn frame_off(&self, frame: u32) -> u64 {
        frame as u64 * self.store.page_size()
    }

    fn block_off(&self, block: u32) -> u64 {
        self.base + block as u64 * self.store.page_size()
    }

    /// Bind DRAM `frame` to `page` with `heat` (1 for a fresh fill).
    fn install_dram(&mut self, frame: u32, page: PageId, heat: u8) {
        self.dram.install(frame, page);
        self.dram_heat[frame as usize] = heat;
    }

    /// Bind CXL `block` to `page` with `heat` (1 for a fresh fill).
    fn install_cxl(&mut self, block: u32, page: PageId, heat: u8) {
        self.cxlt.install(block, page);
        self.cxl_heat[block as usize] = heat;
    }

    /// Epoch aging: halve every heat counter, so a page's heat
    /// approximates an exponentially-decayed hit count.
    fn age_epoch(&mut self) {
        let halve = |h: &mut u8| *h >>= 1;
        self.dram_heat.iter_mut().for_each(halve);
        self.cxl_heat.iter_mut().for_each(halve);
    }

    /// A free CXL block, evicting the policy victim (written back to
    /// storage if dirty) if none.
    fn cxl_slot(&mut self, now: SimTime) -> (u32, SimTime) {
        let (block, evicted) = self.cxlt.claim();
        let Some((page, dirty)) = evicted else {
            return (block, now);
        };
        self.stats.evictions += 1;
        self.stats.tier_demotes += 1;
        let mut t = now;
        if dirty {
            t = self.write_block_back(block, page, t);
            self.stats.writebacks += 1;
        }
        (block, t)
    }

    /// Checkpoint CXL `block`, which holds `page`, to storage.
    fn write_block_back(&mut self, block: u32, page: PageId, now: SimTime) -> SimTime {
        let t = self
            .cxl
            .borrow_mut()
            .read(self.node, self.block_off(block), &mut self.wb_buf, now)
            .end;
        self.stats.storage_write_bytes += self.store.page_size();
        self.store.write_page(page, &self.wb_buf, t).end
    }

    /// Demote `page`, just evicted from DRAM `frame`, to the CXL tier,
    /// carrying its dirty bit and heat. The caller owns the emptied frame.
    fn demote_frame(&mut self, frame: u32, page: PageId, dirty: bool, now: SimTime) -> SimTime {
        let heat = self.dram_heat[frame as usize];
        let mut t = self
            .space
            .read(self.frame_off(frame), &mut self.xfer_buf, now)
            .end;
        let (block, t2) = self.cxl_slot(t);
        t = t2;
        // Streaming store: demotion is a bulk page move, not a working-set
        // access — do not pollute the CPU cache with a page going cold.
        t = self
            .cxl
            .borrow_mut()
            .write_uncached(self.node, self.block_off(block), &self.xfer_buf, t)
            .end;
        self.install_cxl(block, page, heat);
        if dirty {
            self.cxlt.mark_dirty(block);
        }
        self.stats.tier_demotes += 1;
        t
    }

    /// A free DRAM frame, demoting the policy victim to CXL if none.
    fn dram_slot(&mut self, now: SimTime) -> (u32, SimTime) {
        match self.dram.claim() {
            (frame, None) => (frame, now),
            (frame, Some((page, dirty))) => (frame, self.demote_frame(frame, page, dirty, now)),
        }
    }

    /// Migrate CXL block `b` up into a DRAM frame, carrying dirty bit
    /// and heat.
    fn promote_block(&mut self, b: u32, now: SimTime) -> (u32, SimTime) {
        let heat = self.cxl_heat[b as usize].max(1);
        // Stage the bytes *before* freeing the block: acquiring the DRAM
        // frame below can demote a victim into this very block.
        let mut t = self
            .cxl
            .borrow_mut()
            .read(self.node, self.block_off(b), &mut self.page_buf, now)
            .end;
        self.cxlt.unlink(b);
        let (page, dirty) = self.cxlt.evict(b);
        self.cxlt.push_free(b);
        let (frame, t2) = self.dram_slot(t);
        t = self
            .space
            .write(self.frame_off(frame), &self.page_buf, t2)
            .end;
        self.install_dram(frame, page, heat);
        if dirty {
            self.dram.mark_dirty(frame);
        }
        self.stats.tier_promotes += 1;
        (frame, t)
    }

    /// Locate `page` for an access, faulting it in from storage if it is
    /// in neither memory tier. In the static regime the returned
    /// location is always a DRAM frame; in the adaptive regime a
    /// CXL-resident page is served in place.
    fn locate(&mut self, page: PageId, now: SimTime) -> (Loc, SimTime) {
        if let Some(frame) = self.dram.lookup_touch(page) {
            bump(&mut self.dram_heat[frame as usize]);
            self.stats.hits += 1;
            self.stats.tier_dram_hits += 1;
            return (Loc::Dram(frame), now);
        }
        self.stats.tier_dram_misses += 1;
        if let Some(b) = self.cxlt.lookup_touch(page) {
            bump(&mut self.cxl_heat[b as usize]);
            self.stats.hits += 1;
            self.stats.tier_cxl_hits += 1;
            if self.cfg.adaptive {
                return (Loc::Cxl(b), now);
            }
            let (frame, t) = self.promote_block(b, now);
            return (Loc::Dram(frame), t);
        }
        self.stats.misses += 1;
        self.stats.tier_cxl_misses += 1;
        let ps = self.store.page_size() as usize;
        if self.cfg.adaptive {
            // Admission control: storage fills land in CXL, never in
            // DRAM — only the epoch sweep promotes, so one cold scan
            // cannot flush the DRAM hot set.
            let (block, mut t) = self.cxl_slot(now);
            t = self.store.read_page(page, &mut self.page_buf, t).end;
            self.stats.storage_read_bytes += ps as u64;
            t = self
                .cxl
                .borrow_mut()
                .write_uncached(self.node, self.block_off(block), &self.page_buf, t)
                .end;
            self.install_cxl(block, page, 1);
            trace::span(SpanKind::BpMiss, 0, now, t, self.store.page_size());
            (Loc::Cxl(block), t)
        } else {
            let (frame, mut t) = self.dram_slot(now);
            let off = self.frame_off(frame);
            t = self
                .store
                .read_page(page, self.space.raw_mut().slice_mut(off, ps), t)
                .end;
            self.stats.storage_read_bytes += ps as u64;
            self.install_dram(frame, page, 1);
            trace::span(SpanKind::BpMiss, 0, now, t, self.store.page_size());
            (Loc::Dram(frame), t)
        }
    }

    /// Run the epoch sweep if `now` has crossed the epoch deadline;
    /// returns the completion time of any migrations. Callers (the
    /// tiering harness, a background thread in a real system) invoke
    /// this *between* operations so migration work never hides inside a
    /// single access's latency. No-op in the static regime.
    pub fn maybe_sweep(&mut self, now: SimTime) -> SimTime {
        if !self.cfg.adaptive || now.as_nanos() < self.next_epoch {
            return now;
        }
        let _prof = profile::scope(Subsys::BufferPool);
        while self.next_epoch <= now.as_nanos() {
            self.next_epoch += self.cfg.epoch_ns;
        }
        self.sweeps += 1;
        self.age_epoch();
        let mut t = now;
        // Promotion candidates first: hot CXL pages, hottest first,
        // block id as tiebreak.
        self.promote_scratch.clear();
        for b in 0..self.cxlt.dir().capacity() as u32 {
            let heat = self.cxl_heat[b as usize];
            if self.cxlt.dir().page_of(b).is_some() && heat >= PROMOTE_MIN_HEAT {
                self.promote_scratch.push((heat, b));
            }
        }
        self.promote_scratch
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let promotions = self.promote_scratch.len().min(SWEEP_BATCH);
        // Demote only to make room for those promotions — demotion
        // serves promotion, it is not an end in itself. When nothing is
        // hot enough to promote (a scan, a quiet period), the DRAM hot
        // set stays frozen in place instead of bleeding back to CXL as
        // its heat decays. Coldest first, frame id as tiebreak; a frame
        // above the demote threshold is never sacrificed.
        let free = self.dram.dir().capacity() - self.dram.dir().resident();
        let room_needed = promotions.saturating_sub(free);
        if room_needed > 0 {
            self.demote_scratch.clear();
            for f in 0..self.dram.dir().capacity() as u32 {
                let heat = self.dram_heat[f as usize];
                if self.dram.dir().page_of(f).is_some() && heat <= DEMOTE_MAX_HEAT {
                    self.demote_scratch.push((heat, f));
                }
            }
            self.demote_scratch.sort_unstable();
            let demotions = self.demote_scratch.len().min(room_needed);
            for i in 0..demotions {
                let (_, frame) = self.demote_scratch[i];
                self.dram.unlink(frame);
                let (page, dirty) = self.dram.evict(frame);
                t = self.demote_frame(frame, page, dirty, t);
                self.dram.push_free(frame);
            }
        }
        // Promote into free frames only — never at the cost of a DRAM
        // page the demote threshold chose to keep.
        for i in 0..promotions {
            if self.dram.dir().resident() >= self.dram.dir().capacity() {
                break;
            }
            let (_, block) = self.promote_scratch[i];
            let (_, t2) = self.promote_block(block, t);
            t = t2;
        }
        t
    }

    /// Crash: every tier is volatile — DRAM frames, the CXL residency
    /// maps, heat, LSNs all vanish. (Contrast [`crate::cxl_bp::CxlBp`],
    /// whose CXL metadata is durable by design.)
    pub fn crash(&mut self) {
        self.space.crash();
        self.dram.clear();
        self.cxlt.clear();
        self.lsns.clear();
    }
}

impl BufferPool for AdaptivePool {
    fn page_size(&self) -> u64 {
        self.store.page_size()
    }

    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
        (self.store.allocate(), now)
    }

    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
        let _prof = profile::scope(Subsys::BufferPool);
        let (loc, t) = self.locate(page, now);
        match loc {
            Loc::Dram(frame) => self.space.read(self.frame_off(frame) + off as u64, buf, t),
            // Byte-granular in-place CXL access: exactly the bytes
            // asked for cross the link, no page-fault amplification.
            Loc::Cxl(block) => {
                self.cxl
                    .borrow_mut()
                    .read(self.node, self.block_off(block) + off as u64, buf, t)
            }
        }
    }

    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
        let _prof = profile::scope(Subsys::BufferPool);
        let (loc, t) = self.locate(page, now);
        self.lsns.insert(page, lsn);
        match loc {
            Loc::Dram(frame) => {
                self.dram.mark_dirty(frame);
                self.space
                    .write(self.frame_off(frame) + off as u64, data, t)
            }
            Loc::Cxl(block) => {
                self.cxlt.mark_dirty(block);
                self.cxl
                    .borrow_mut()
                    .write(self.node, self.block_off(block) + off as u64, data, t)
            }
        }
    }

    fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        self.lsns.get(&page).copied()
    }

    fn is_resident(&self, page: PageId) -> bool {
        self.dram.dir().contains(page) || self.cxlt.dir().contains(page)
    }

    fn flush_all(&mut self, now: SimTime) -> SimTime {
        let _prof = profile::scope(Subsys::BufferPool);
        let ps = self.store.page_size() as usize;
        let mut t = now;
        let mut cursor = 0;
        while let Some((frame, page)) = self.dram.take_dirty(&mut cursor) {
            let off = self.frame_off(frame);
            t = self
                .store
                .write_page(page, self.space.raw().slice(off, ps), t)
                .end;
            self.stats.storage_write_bytes += ps as u64;
        }
        let mut cursor = 0;
        while let Some((block, page)) = self.cxlt.take_dirty(&mut cursor) {
            t = self.write_block_back(block, page, t);
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
        // DRAM first, then CXL with what DRAM had no room for; a fresh
        // fill seeds heat 1.
        let ps = self.store.page_size();
        let pages = || (0..self.store.allocated_pages()).map(PageId);
        let (store, space, dram_heat) = (&self.store, &mut self.space, &mut self.dram_heat);
        let cxlt = self.cxlt.dir();
        self.dram
            .warm(pages().filter(|&p| !cxlt.contains(p)), |frame, page| {
                space
                    .raw_mut()
                    .write(frame as u64 * ps, store.raw_page(page));
                dram_heat[frame as usize] = 1;
            });
        let (dram, cxl_heat) = (self.dram.dir(), &mut self.cxl_heat);
        let (mut cxl, base) = (self.cxl.borrow_mut(), self.base);
        self.cxlt
            .warm(pages().filter(|&p| !dram.contains(p)), |block, page| {
                cxl.raw_mut()
                    .write(base + block as u64 * ps, store.raw_page(page));
                cxl_heat[block as usize] = 1;
            });
    }
}

impl Crashable for AdaptivePool {
    fn crash(&mut self) {
        AdaptivePool::crash(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::CxlPool;
    use std::cell::RefCell;
    use std::rc::Rc;

    const PS: u64 = 512;

    fn pool(dram: usize, cxl_blocks: usize, adaptive: bool) -> AdaptivePool {
        let mut store = PageStore::with_page_size(64, PS);
        for _ in 0..32 {
            store.allocate();
        }
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            1 << 20,
            1,
            64 << 10,
            true,
        )));
        let mut cfg = TierConfig::standard(dram, cxl_blocks);
        cfg.adaptive = adaptive;
        AdaptivePool::new(cxl, NodeId(0), 0, cfg, store)
    }

    #[test]
    fn read_your_writes_across_tiers() {
        let mut bp = pool(2, 4, true);
        for p in 0..8u64 {
            bp.write(PageId(p), 4, &[p as u8; 3], Lsn(p + 1), SimTime::ZERO);
        }
        for p in 0..8u64 {
            let mut buf = [0u8; 3];
            bp.read(PageId(p), 4, &mut buf, SimTime::ZERO);
            assert_eq!(buf, [p as u8; 3], "page {p}");
            assert_eq!(bp.page_lsn(PageId(p)), Some(Lsn(p + 1)));
        }
    }

    #[test]
    fn static_regime_always_serves_from_dram() {
        let mut bp = pool(2, 4, false);
        let mut t = SimTime::ZERO;
        for p in 0..6u64 {
            t = bp.read(PageId(p), 0, &mut [0u8; 8], t).end;
        }
        // Re-read a CXL-resident page: it must migrate up.
        let demoted = (0..6u64)
            .map(PageId)
            .find(|p| !bp.dram.dir().contains(*p) && bp.cxlt.dir().contains(*p))
            .expect("some page demoted to CXL");
        bp.read(demoted, 0, &mut [0u8; 8], t);
        assert!(
            bp.dram.dir().contains(demoted),
            "static regime promotes on hit"
        );
        assert!(bp.stats().tier_promotes >= 1);
        assert!(bp.stats().tier_demotes >= 1);
    }

    #[test]
    fn adaptive_regime_serves_cxl_in_place_until_sweep() {
        let mut bp = pool(2, 4, true);
        let mut t = SimTime::ZERO;
        // Fill: adaptive misses land in CXL, DRAM stays empty.
        for p in 0..4u64 {
            t = bp.read(PageId(p), 0, &mut [0u8; 8], t).end;
        }
        assert_eq!(bp.dram_resident(), 0, "admission control bypasses DRAM");
        assert_eq!(bp.cxl_resident(), 4);
        let promotes_before = bp.stats().tier_promotes;
        // Hammer page 1 past the promote threshold, then cross an epoch.
        for _ in 0..16 {
            t = bp.read(PageId(1), 0, &mut [0u8; 8], t).end;
        }
        let deadline = SimTime::from_nanos(t.as_nanos().max(bp.cfg.epoch_ns));
        let t2 = bp.maybe_sweep(deadline);
        assert!(t2 >= deadline);
        assert!(bp.stats().tier_promotes > promotes_before);
        assert!(
            bp.dram.dir().contains(PageId(1)),
            "hot page promoted by sweep"
        );
    }

    #[test]
    fn dirty_bits_and_lsns_survive_migration() {
        let mut bp = pool(1, 1, false);
        let mut t = SimTime::ZERO;
        t = bp.write(PageId(0), 0, &[7; 4], Lsn(9), t).end;
        // Page 1 then 2: page 0 demotes to CXL, then evicts to storage.
        t = bp.read(PageId(1), 0, &mut [0u8; 4], t).end;
        t = bp.read(PageId(2), 0, &mut [0u8; 4], t).end;
        assert!(!bp.is_resident(PageId(0)));
        assert_eq!(
            bp.stats().writebacks,
            1,
            "dirty bit carried through demotion, written back on CXL eviction"
        );
        assert_eq!(&bp.store().raw_page(PageId(0))[0..4], &[7; 4]);
        assert_eq!(
            bp.page_lsn(PageId(0)),
            Some(Lsn(9)),
            "LSN map is pool-level"
        );
        let mut buf = [0u8; 4];
        bp.read(PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [7; 4]);
    }

    #[test]
    fn sweep_is_noop_in_static_regime_and_before_epoch() {
        let mut bp = pool(2, 2, false);
        let t = bp.maybe_sweep(SimTime::from_nanos(10 * bp.cfg.epoch_ns));
        assert_eq!(t.as_nanos(), 10 * bp.cfg.epoch_ns);
        assert_eq!(bp.sweeps(), 0);
        let mut bp = pool(2, 2, true);
        let t = bp.maybe_sweep(SimTime::from_nanos(bp.cfg.epoch_ns - 1));
        assert_eq!(t.as_nanos(), bp.cfg.epoch_ns - 1);
        assert_eq!(bp.sweeps(), 0);
    }

    #[test]
    fn crash_loses_both_tiers() {
        let mut bp = pool(2, 4, true);
        bp.write(PageId(0), 0, &[1], Lsn(1), SimTime::ZERO);
        bp.crash();
        assert!(!bp.is_resident(PageId(0)));
        assert_eq!(bp.page_lsn(PageId(0)), None);
        assert_eq!(bp.dram_resident() + bp.cxl_resident(), 0);
    }

    #[test]
    fn heat_counts_hits_and_ages_by_halving() {
        let mut bp = pool(2, 4, true);
        let mut t = bp.read(PageId(3), 0, &mut [0u8; 4], SimTime::ZERO).end;
        let b = bp
            .cxlt
            .dir()
            .lookup(PageId(3))
            .expect("adaptive fill lands in CXL") as usize;
        assert_eq!(bp.cxl_heat[b], 1, "install seeds heat at 1");
        // Back-to-back hits on one page are the frame table's memoised
        // probes; each still heats.
        for _ in 0..5 {
            t = bp.read(PageId(3), 0, &mut [0u8; 4], t).end;
        }
        assert_eq!(bp.cxl_heat[b], 6);
        bp.age_epoch();
        assert_eq!(bp.cxl_heat[b], 3);
        bp.age_epoch();
        bp.age_epoch();
        assert_eq!(bp.cxl_heat[b], 0);
        // Saturates instead of wrapping.
        bp.cxl_heat[b] = u8::MAX;
        bp.read(PageId(3), 0, &mut [0u8; 4], t);
        assert_eq!(bp.cxl_heat[b], u8::MAX);
    }

    #[test]
    fn tier_counters_track_hits_per_tier() {
        let mut bp = pool(2, 4, true);
        let mut t = SimTime::ZERO;
        t = bp.read(PageId(0), 0, &mut [0u8; 4], t).end; // storage miss
        t = bp.read(PageId(0), 0, &mut [0u8; 4], t).end; // CXL hit
        let s = bp.stats();
        assert_eq!(s.tier_cxl_misses, 1);
        assert_eq!(s.tier_cxl_hits, 1);
        assert_eq!(s.tier_dram_hits, 0);
        assert_eq!(s.tier_dram_misses, 2);
        let _ = t;
    }
}
