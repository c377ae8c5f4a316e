//! The residency directory every pool shares ([`Residency`]: what defines
//! "hit", "memo hit" and "victim"), and the [`FrameTable`] of the pools
//! whose frames are volatile host memory: a directory plus parallel
//! per-frame dirty and LSN arrays (redb-style), so after the single
//! residency probe every update is an indexed array store. An evicted
//! page's LSN waits in a side map only eviction and install touch.

use crate::policy::{AnyPolicy, Policy, PolicyKind};
use crate::BpStats;
use simkit::{FastMap, SimTime};
use storage::{Lsn, PageId};

/// Page → slot directory over `0..capacity` slots: map, slot → page
/// array, free stack, eviction policy and memo. Slots and pages are
/// indices, so a clone is an exact copy (hash tables clone at their
/// reserved size), memo included: it names a slot of the cloned policy.
#[derive(Debug, Clone)]
pub struct Residency {
    /// Which page each slot holds (`None` = free).
    page: Vec<Option<PageId>>,
    /// The single residency probe: page → slot.
    map: FastMap<PageId, u32>,
    /// One-entry memo: the page whose slot the policy touched last, set
    /// only by a `lookup_touch` hit. Touching that slot again changes
    /// nothing under any policy, so a memo hit skips the probe *and* the
    /// touch (DESIGN.md "The lean read path"). Dropped by every other
    /// policy call: `install`, `pop_victim`, `unlink`, `evict`, `clear`.
    last: Option<(PageId, u32)>,
    free: Vec<u32>,
    policy: AnyPolicy,
}

impl Residency {
    /// An empty directory over `slots` slots evicting under `kind`, every
    /// slot free, its map presized for `2 × slots` entries: evict/install
    /// churn leaves tombstones, and with live entries under half the
    /// table they are rehashed in place, never by growing.
    pub fn new(slots: usize, kind: PolicyKind) -> Self {
        Self::with_map_capacity(slots, kind, slots * 2)
    }

    /// [`new`](Self::new) with the map presized for `capacity` entries.
    pub fn with_map_capacity(slots: usize, kind: PolicyKind, capacity: usize) -> Self {
        assert!(slots > 0);
        let mut map = FastMap::default();
        map.reserve(capacity);
        Residency {
            page: vec![None; slots],
            map,
            last: None,
            free: (0..slots as u32).rev().collect(),
            policy: AnyPolicy::new(kind, slots),
        }
    }

    /// Which eviction policy this directory runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.page.len()
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Residency probe without touching recency.
    pub fn lookup(&self, page: PageId) -> Option<u32> {
        self.map.get(&page).copied()
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// The page bound to `slot`, if any.
    pub fn page_of(&self, slot: u32) -> Option<PageId> {
        self.page[slot as usize]
    }

    /// `page`'s slot when `page` is the memo's: the slot the policy
    /// touched last, which a hit need neither probe nor touch.
    #[inline(always)]
    pub fn memo_hit(&self, page: PageId) -> Option<u32> {
        match self.last {
            Some((p, slot)) if p == page => Some(slot),
            _ => None,
        }
    }

    /// Forget the memo, so the next hit probes and touches. Changes no
    /// answer and no victim: the reference the memo is tested against.
    pub fn forget_memo(&mut self) {
        self.last = None;
    }

    /// Residency probe that also records the hit with the eviction
    /// policy; on a memo hit, a compare in line at the caller.
    #[inline(always)]
    pub fn lookup_touch(&mut self, page: PageId) -> Option<u32> {
        match self.memo_hit(page) {
            Some(slot) => Some(slot),
            None => self.probe_touch(page),
        }
    }

    /// `lookup_touch` past the memo: probe, touch, and remember.
    #[inline(never)]
    fn probe_touch(&mut self, page: PageId) -> Option<u32> {
        let slot = self.map.get(&page).copied()?;
        self.policy.touch(slot);
        self.last = Some((page, slot));
        Some(slot)
    }

    /// Pop a free slot, if any.
    pub fn pop_free(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// Return an [`evict`](Self::evict)ed slot to the free stack, for
    /// paths that move a page *out* without reusing its slot.
    pub fn push_free(&mut self, slot: u32) {
        debug_assert!(self.page[slot as usize].is_none(), "freeing a bound slot");
        self.free.push(slot);
    }

    /// A slot for a new page: a free one, else the policy's victim,
    /// [`evict`](Self::evict)ed — in which case the page it held comes
    /// back too, for the caller to deal with before it reuses the slot.
    pub fn claim(&mut self) -> (u32, Option<PageId>) {
        match self.free.pop() {
            Some(slot) => (slot, None),
            None => {
                let victim = self.pop_victim().expect("no free slot and empty policy");
                (victim, Some(self.evict(victim)))
            }
        }
    }

    /// Pop the policy's eviction victim (unlinking it).
    pub fn pop_victim(&mut self) -> Option<u32> {
        self.last = None;
        self.policy.pop_victim()
    }

    /// Unlink `slot` from the policy without evicting it (migration and
    /// invalidation paths that already know the slot).
    pub fn unlink(&mut self, slot: u32) {
        self.last = None;
        self.policy.remove(slot);
    }

    /// Unbind a slot popped via [`pop_victim`](Self::pop_victim) or
    /// [`unlink`](Self::unlink)ed, returning the page it held.
    pub fn evict(&mut self, slot: u32) -> PageId {
        let page = self.page[slot as usize]
            .take()
            .expect("evicting empty slot");
        self.map.remove(&page);
        self.last = None;
        page
    }

    /// Bind `slot` (fresh from [`pop_free`](Self::pop_free) or
    /// [`evict`](Self::evict)) to `page` and link it with the policy as
    /// newest.
    pub fn install(&mut self, slot: u32, page: PageId) {
        debug_assert!(self.page[slot as usize].is_none(), "slot is bound");
        self.page[slot as usize] = Some(page);
        self.map.insert(page, slot);
        self.last = None;
        self.policy.insert(slot);
    }

    /// Warm-up: bind each of `pages` that is not yet resident to a free
    /// slot, calling `fill(slot, page)` to put its bytes there, until the
    /// free slots run out. Nothing is evicted and nothing is timed.
    pub fn warm(&mut self, pages: impl Iterator<Item = PageId>, mut fill: impl FnMut(u32, PageId)) {
        for page in pages {
            if self.contains(page) {
                continue;
            }
            let Some(slot) = self.free.pop() else {
                break;
            };
            fill(slot, page);
            self.install(slot, page);
        }
    }

    /// Crash: drop every binding; every slot is free again.
    pub fn clear(&mut self) {
        let n = self.capacity();
        self.page.fill(None);
        self.map.clear();
        self.last = None;
        self.free.clear();
        self.free.extend((0..n as u32).rev());
        self.policy = AnyPolicy::new(self.policy.kind(), n);
    }

    /// Rebuild from recovered bindings, ordered newest first: each is
    /// linked with the policy oldest first, so the first ends up newest,
    /// and the unbound slots make the free stack.
    pub fn adopt(&mut self, newest_first: impl DoubleEndedIterator<Item = (u32, PageId)>) {
        self.clear();
        for (slot, page) in newest_first.rev() {
            self.install(slot, page);
        }
        let page = &self.page;
        self.free.retain(|&slot| page[slot as usize].is_none());
    }
}

/// A [`Residency`] over frames plus parallel per-frame dirty and LSN
/// arrays and the evicted-LSN spill.
#[derive(Debug, Clone)]
pub struct FrameTable {
    dir: Residency,
    /// Per-frame dirty bit; an unbound frame is clean.
    dirty: Vec<bool>,
    /// Per-frame page LSN (`None` until first write).
    lsn: Vec<Option<Lsn>>,
    /// LSNs of evicted pages (cold path only; cleared on crash).
    evicted_lsns: FastMap<PageId, Lsn>,
}

impl FrameTable {
    /// An empty table over `frames` slots evicting under `kind`.
    pub fn with_policy(frames: usize, kind: PolicyKind) -> Self {
        FrameTable {
            dir: Residency::new(frames, kind),
            dirty: vec![false; frames],
            lsn: vec![None; frames],
            evicted_lsns: FastMap::default(),
        }
    }

    /// Pre-size the eviction LSN spill map for a dataset of `pages`
    /// pages, so evictions (which run inside the pools' profiled hot
    /// sections) never grow it. 2x for the same tombstone-churn headroom
    /// as the residency map (spill inserts pair with reinstall removes).
    pub fn reserve_evictions(&mut self, pages: usize) {
        self.evicted_lsns.reserve(pages * 2);
    }

    /// The residency directory, for queries.
    pub fn dir(&self) -> &Residency {
        &self.dir
    }

    /// [`Residency::lookup_touch`].
    #[inline(always)]
    pub fn lookup_touch(&mut self, page: PageId) -> Option<u32> {
        self.dir.lookup_touch(page)
    }

    /// [`Residency::pop_free`].
    pub fn pop_free(&mut self) -> Option<u32> {
        self.dir.pop_free()
    }

    /// [`Residency::claim`], with the victim's `(page, was_dirty)`.
    pub fn claim(&mut self) -> (u32, Option<(PageId, bool)>) {
        let (frame, evicted) = self.dir.claim();
        (frame, evicted.map(|page| (page, self.spill(frame, page))))
    }

    /// [`Residency::pop_victim`].
    pub fn pop_victim(&mut self) -> Option<u32> {
        self.dir.pop_victim()
    }

    /// [`Residency::evict`], spilling the page's LSN to the eviction side
    /// map; returns `(page, was_dirty)` so the caller can write the bytes
    /// back.
    pub fn evict(&mut self, frame: u32) -> (PageId, bool) {
        let page = self.dir.evict(frame);
        (page, self.spill(frame, page))
    }

    /// The per-frame half of evicting `page` from `frame`: spill its LSN,
    /// take its dirty bit.
    fn spill(&mut self, frame: u32, page: PageId) -> bool {
        let i = frame as usize;
        if let Some(lsn) = self.lsn[i].take() {
            self.evicted_lsns.insert(page, lsn);
        }
        std::mem::take(&mut self.dirty[i])
    }

    /// [`Residency::install`], restoring any spilled LSN; the frame is
    /// clean.
    pub fn install(&mut self, frame: u32, page: PageId) {
        debug_assert!(!self.dirty[frame as usize], "an unbound frame is clean");
        self.lsn[frame as usize] = self.evicted_lsns.remove(&page);
        self.dir.install(frame, page);
    }

    /// Per-frame dirty bit.
    pub fn is_dirty(&self, frame: u32) -> bool {
        self.dirty[frame as usize]
    }

    /// Set the dirty bit (indexed store, no hashing).
    pub fn mark_dirty(&mut self, frame: u32) {
        self.dirty[frame as usize] = true;
    }

    /// Checkpoint cursor: the first bound, dirty frame at or after
    /// `*cursor` and its page, with the dirty bit cleared and the cursor
    /// moved past it; `None` once every frame has been visited. Walking
    /// frame ids is deterministic (and allocation-free) by construction —
    /// no hash-order to launder.
    pub fn take_dirty(&mut self, cursor: &mut u32) -> Option<(u32, PageId)> {
        while (*cursor as usize) < self.dirty.len() {
            let frame = *cursor;
            *cursor += 1;
            if let (Some(page), true) = (self.dir.page_of(frame), self.dirty[frame as usize]) {
                self.dirty[frame as usize] = false;
                return Some((frame, page));
            }
        }
        None
    }

    /// [`Residency::warm`], restoring spilled LSNs as `install` does.
    pub fn warm(&mut self, pages: impl Iterator<Item = PageId>, mut fill: impl FnMut(u32, PageId)) {
        let (lsn, spilled) = (&mut self.lsn, &mut self.evicted_lsns);
        self.dir.warm(pages, |frame, page| {
            fill(frame, page);
            lsn[frame as usize] = spilled.remove(&page);
        });
    }

    /// Record `page`'s LSN on its frame (indexed store, no hashing).
    pub fn set_lsn(&mut self, frame: u32, lsn: Lsn) {
        self.lsn[frame as usize] = Some(lsn);
    }

    /// Latest LSN recorded for `page` — resident or evicted.
    pub fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        match self.dir.lookup(page) {
            Some(frame) => self.lsn[frame as usize],
            None => self.evicted_lsns.get(&page).copied(),
        }
    }

    /// Crash: drop every binding, dirty bit and LSN (resident and
    /// spilled alike).
    pub fn clear(&mut self) {
        self.dir.clear();
        self.dirty.fill(false);
        self.lsn.fill(None);
        self.evicted_lsns.clear();
    }
}

/// A pool whose frames a [`FrameTable`] holds (`DramBp`,
/// `TieredRdmaBp`): `fix` and the miss path's claim are written once
/// here, and each pool brings its write-back and its fill.
pub(crate) trait FramedPool {
    /// The frame table, and the stats its lookups count into.
    fn frames_and_stats(&mut self) -> (&mut FrameTable, &mut BpStats);

    /// `frame` has just lost `page` to eviction: write it back if dirty.
    fn write_back(&mut self, frame: u32, page: PageId, dirty: bool, now: SimTime) -> SimTime;

    /// Bring `page` into the claimed `frame` from `t` on and install it
    /// (the miss began at `now`); returns when the page is in.
    fn fill(&mut self, frame: u32, page: PageId, now: SimTime, t: SimTime) -> SimTime;

    /// Ensure `page` occupies a frame; returns (frame, time after any
    /// fetch I/O). One probe, counted as a hit or a miss — on a memo
    /// hit, a compare and one counter.
    #[inline(always)]
    fn fix(&mut self, page: PageId, now: SimTime) -> (u32, SimTime) {
        let (frames, stats) = self.frames_and_stats();
        match frames.dir.lookup_touch(page) {
            Some(frame) => {
                stats.hits += 1;
                (frame, now)
            }
            None => {
                stats.misses += 1;
                self.fix_miss(page, now)
            }
        }
    }

    /// `fix` of a page no frame holds (the miss is already counted):
    /// claim a frame, write its victim back, fill it.
    #[cold]
    fn fix_miss(&mut self, page: PageId, now: SimTime) -> (u32, SimTime) {
        let (frame, evicted) = self.frames_and_stats().0.claim();
        let mut t = now;
        if let Some((victim, dirty)) = evicted {
            t = self.write_back(frame, victim, dirty, t);
        }
        (frame, self.fill(frame, page, now, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    /// The directory as it was before a memo hit could skip the touch: a
    /// residency map, a free stack and a policy touched on every hit.
    struct TouchEveryHit {
        map: FastMap<PageId, u32>,
        page: Vec<Option<PageId>>,
        free: Vec<u32>,
        policy: AnyPolicy,
    }

    impl TouchEveryHit {
        fn new(frames: usize, kind: PolicyKind) -> Self {
            TouchEveryHit {
                map: FastMap::default(),
                page: vec![None; frames],
                free: (0..frames as u32).rev().collect(),
                policy: AnyPolicy::new(kind, frames),
            }
        }

        fn lookup_touch(&mut self, page: PageId) -> Option<u32> {
            let frame = *self.map.get(&page)?;
            self.policy.touch(frame);
            Some(frame)
        }

        fn claim(&mut self) -> (u32, Option<PageId>) {
            match self.free.pop() {
                Some(frame) => (frame, None),
                None => {
                    let victim = self.policy.pop_victim().expect("a full table");
                    (victim, Some(self.evict(victim)))
                }
            }
        }

        fn evict(&mut self, frame: u32) -> PageId {
            let page = self.page[frame as usize].take().expect("bound");
            self.map.remove(&page);
            page
        }

        fn install(&mut self, frame: u32, page: PageId) {
            self.page[frame as usize] = Some(page);
            self.map.insert(page, frame);
            self.policy.insert(frame);
        }

        fn warm(&mut self, pages: impl Iterator<Item = PageId>) {
            for page in pages {
                if self.map.contains_key(&page) {
                    continue;
                }
                let Some(frame) = self.free.pop() else { break };
                self.install(frame, page);
            }
        }
    }

    #[test]
    fn memo_hits_leave_every_policy_where_touching_would() {
        // Runs of same-page probes (node visits) interleaved with every
        // other call that reaches the policy. A memo that outlived one of
        // them — or was set by `install`, skipping 2Q's promotion — shows
        // up as a different answer or a different victim.
        const FRAMES: usize = 6;
        const PAGES: u64 = 14;
        for kind in PolicyKind::ALL {
            for seed in 0..16u64 {
                let mut rng = SimRng::seed_from_u64(seed);
                let mut t = Residency::new(FRAMES, kind);
                let mut r = TouchEveryHit::new(FRAMES, kind);
                let mut page = PageId(0);
                for step in 0..1_500 {
                    match rng.gen_range(0..100u32) {
                        0..=54 => {
                            if rng.gen_bool(0.4) {
                                page = PageId(rng.gen_range(0..PAGES));
                            }
                            for _ in 0..rng.gen_range(1..8u32) {
                                let got = t.lookup_touch(page);
                                assert_eq!(got, r.lookup_touch(page), "{kind:?} {seed} {step}");
                            }
                        }
                        // A miss: a free frame, else the victim; then install.
                        55..=74 => {
                            let p = PageId(rng.gen_range(0..PAGES));
                            if !t.contains(p) {
                                let (frame, evicted) = t.claim();
                                assert_eq!((frame, evicted), r.claim(), "{kind:?} {seed} {step}");
                                t.install(frame, p);
                                r.install(frame, p);
                            }
                        }
                        // An eviction whose frame goes back to the free
                        // stack, with a probe of the visited page between
                        // the pop and the evict.
                        75..=82 => {
                            let victim = t.pop_victim();
                            assert_eq!(victim, r.policy.pop_victim(), "{kind:?} {seed} {step}");
                            if let Some(v) = victim {
                                if t.page_of(v) != Some(page) {
                                    assert_eq!(t.lookup_touch(page), r.lookup_touch(page));
                                }
                                assert_eq!(t.evict(v), r.evict(v));
                                t.push_free(v);
                                r.free.push(v);
                            }
                        }
                        // A migration out of a frame the caller chose.
                        83..=90 => {
                            let f = rng.gen_range(0..FRAMES as u32);
                            if t.page_of(f).is_some() {
                                t.unlink(f);
                                r.policy.remove(f);
                                if t.page_of(f) != Some(page) {
                                    assert_eq!(t.lookup_touch(page), r.lookup_touch(page));
                                }
                                assert_eq!(t.evict(f), r.evict(f));
                                t.push_free(f);
                                r.free.push(f);
                            }
                        }
                        91..=97 => {
                            let from = rng.gen_range(0..PAGES);
                            t.warm((from..PAGES).map(PageId), |_, _| {});
                            r.warm((from..PAGES).map(PageId));
                        }
                        _ => {
                            t.clear();
                            r = TouchEveryHit::new(FRAMES, kind);
                        }
                    }
                    for p in (0..PAGES).map(PageId) {
                        assert_eq!(
                            t.lookup(p),
                            r.map.get(&p).copied(),
                            "{kind:?} {seed} {step}"
                        );
                    }
                }
                // Whatever is left leaves in the same order.
                loop {
                    let victim = t.pop_victim();
                    assert_eq!(victim, r.policy.pop_victim(), "{kind:?} {seed} drain");
                    if victim.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn single_probe_lifecycle() {
        let mut t = FrameTable::with_policy(2, PolicyKind::Lru);
        assert_eq!(t.lookup_touch(PageId(7)), None);
        let f = t.pop_free().unwrap();
        t.install(f, PageId(7));
        assert_eq!(t.lookup_touch(PageId(7)), Some(f));
        t.mark_dirty(f);
        t.set_lsn(f, Lsn(42));
        assert_eq!(t.page_lsn(PageId(7)), Some(Lsn(42)));
        assert!(t.is_dirty(f));
    }

    #[test]
    fn lsn_survives_eviction_but_not_crash() {
        let mut t = FrameTable::with_policy(1, PolicyKind::Lru);
        let f = t.pop_free().unwrap();
        t.install(f, PageId(1));
        t.set_lsn(f, Lsn(5));
        t.mark_dirty(f);
        let v = t.pop_victim().unwrap();
        let (page, dirty) = t.evict(v);
        assert_eq!((page, dirty), (PageId(1), true));
        assert!(!t.dir().contains(PageId(1)));
        assert_eq!(t.page_lsn(PageId(1)), Some(Lsn(5)), "LSN outlives eviction");
        // Reinstall: the spilled LSN comes back to the frame array.
        t.install(v, PageId(1));
        assert_eq!(t.page_lsn(PageId(1)), Some(Lsn(5)));
        assert!(!t.is_dirty(v), "reinstall is clean");
        t.clear();
        assert_eq!(t.page_lsn(PageId(1)), None, "crash loses LSNs");
    }

    #[test]
    fn last_page_memo_never_outlives_the_binding() {
        let mut t = Residency::new(1, PolicyKind::Lru);
        let f = t.pop_free().unwrap();
        t.install(f, PageId(1));
        assert_eq!(t.lookup_touch(PageId(1)), Some(f));
        assert_eq!(t.lookup_touch(PageId(1)), Some(f), "memoised repeat");
        // Evicting the memoised page forgets it, even when the frame is
        // rebound to another page at once.
        let v = t.pop_victim().unwrap();
        t.evict(v);
        t.install(v, PageId(2));
        assert_eq!(t.lookup_touch(PageId(1)), None);
        assert_eq!(t.lookup_touch(PageId(2)), Some(v));
        // A crash forgets it too.
        t.clear();
        assert_eq!(t.lookup_touch(PageId(2)), None);
    }

    #[test]
    fn eviction_order_is_lru() {
        let mut t = Residency::new(2, PolicyKind::Lru);
        let a = t.pop_free().unwrap();
        t.install(a, PageId(0));
        let b = t.pop_free().unwrap();
        t.install(b, PageId(1));
        t.lookup_touch(PageId(0)); // 0 hot, 1 cold
        let v = t.pop_victim().unwrap();
        assert_eq!(t.evict(v), PageId(1));
    }

    #[test]
    fn policy_is_pluggable_per_table() {
        for kind in PolicyKind::ALL {
            let mut t = Residency::new(4, kind);
            assert_eq!(t.policy_kind(), kind);
            for p in 0..4u64 {
                let f = t.pop_free().unwrap();
                t.install(f, PageId(p));
            }
            // One full drain cycle so CLOCK's insert-time reference bits
            // are cleared; then re-touch page 0 and evict once.
            let v = t.pop_victim().unwrap();
            let gone = t.evict(v);
            t.install(v, gone);
            t.lookup_touch(PageId(0));
            let v = t.pop_victim().unwrap();
            let page = t.evict(v);
            // Every policy spares the just-touched page.
            assert_ne!(page, PageId(0), "{kind:?} evicted the hot page");
            t.clear();
            assert_eq!(t.policy_kind(), kind, "clear preserves the policy");
            assert_eq!(t.resident(), 0);
        }
    }
}
