//! Struct-of-arrays frame metadata shared by the pool implementations.
//!
//! The original pools kept an `Option<Frame{page, dirty}>` per slot plus
//! *two* hash maps — `map: page → frame` and `lsns: page → Lsn` — so the
//! hot write path paid two hash probes per access (one in `fix`, one in
//! `lsns.insert`). A [`FrameTable`] keeps one map (`page → frame`) and
//! parallel per-frame arrays (page / dirty / LSN, redb-style), so after
//! the single residency probe every update is an indexed array store.
//!
//! The "page LSN survives eviction" contract is preserved on the *cold*
//! path: [`FrameTable::evict`] spills the frame's LSN into a side map
//! that only eviction touches, and [`FrameTable::install`] pulls it
//! back. A crash ([`FrameTable::clear`]) drops both, exactly like the
//! old `lsns.clear()`.

use crate::policy::{AnyPolicy, Policy, PolicyKind};
use crate::BpStats;
use simkit::FastMap;
use storage::{Lsn, PageId};

/// Struct-of-arrays frame directory: residency map + per-frame parallel
/// arrays + eviction policy + evicted-LSN spill. Frames and pages are
/// indices, so a clone is an exact copy (hash tables clone at their
/// reserved size).
#[derive(Debug, Clone)]
pub struct FrameTable {
    /// Which page each frame holds (`None` = empty frame).
    page: Vec<Option<PageId>>,
    /// Per-frame dirty bit.
    dirty: Vec<bool>,
    /// Per-frame page LSN (`None` until first write).
    lsn: Vec<Option<Lsn>>,
    /// The single residency probe: page → frame.
    map: FastMap<PageId, u32>,
    /// One-entry memo: the page whose frame the policy touched last, set
    /// only by a `lookup_touch` hit. A B+tree node visit reads a dozen
    /// fields of one page back to back, and touching the slot touched
    /// last, with no policy call in between, changes nothing under LRU
    /// (already the head), CLOCK (reference bit set) or 2Q (already the
    /// protected head, a promotion included) — so a memo hit skips the
    /// probe *and* the touch. Never set by `install` (after an insert 2Q's
    /// next touch promotes); dropped by every other policy call —
    /// `install`, `pop_victim`, `unlink`, `evict`, `clear`, and through
    /// them `claim` and `warm` (a frame reaches `push_free` evicted).
    last: Option<(PageId, u32)>,
    free: Vec<u32>,
    policy: AnyPolicy,
    /// LSNs of evicted pages (cold path only; cleared on crash).
    evicted_lsns: FastMap<PageId, Lsn>,
}

impl FrameTable {
    /// An empty table over `frames` slots, evicting by LRU (the default
    /// every pool ran before policies became pluggable).
    pub fn new(frames: usize) -> Self {
        Self::with_policy(frames, PolicyKind::Lru)
    }

    /// An empty table over `frames` slots evicting under `kind`.
    pub fn with_policy(frames: usize, kind: PolicyKind) -> Self {
        assert!(frames > 0);
        // The residency map never holds more than `frames` live entries,
        // but the evict/install churn leaves hash-table tombstones, and
        // a table whose live count fills its reserved capacity *grows*
        // (allocates) when a later insert must clear them. Reserving 2x
        // keeps live entries under half the table, so tombstone rehashes
        // happen in place and the hot path never allocates.
        let mut map = FastMap::default();
        map.reserve(frames * 2);
        FrameTable {
            page: vec![None; frames],
            dirty: vec![false; frames],
            lsn: vec![None; frames],
            map,
            last: None,
            free: (0..frames as u32).rev().collect(),
            policy: AnyPolicy::new(kind, frames),
            evicted_lsns: FastMap::default(),
        }
    }

    /// Which eviction policy this table runs.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Pre-size the eviction LSN spill map for a dataset of `pages`
    /// pages, so evictions (which run inside the pools' profiled hot
    /// sections) never grow it. 2x for the same tombstone-churn headroom
    /// as the residency map (spill inserts pair with reinstall removes).
    pub fn reserve_evictions(&mut self, pages: usize) {
        self.evicted_lsns.reserve(pages * 2);
    }

    /// Total number of frames.
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

    /// Residency probe that also records the hit with the eviction
    /// policy — the single hash lookup of the hot path. When `page` is
    /// the page the policy touched last, both the probe and the touch
    /// (a no-op then) are skipped, in line at the caller.
    #[inline(always)]
    pub fn lookup_touch(&mut self, page: PageId) -> Option<u32> {
        match self.last {
            Some((p, frame)) if p == page => Some(frame),
            _ => self.probe_touch(page),
        }
    }

    /// The in-line half of `DramBp` / `TieredRdmaBp` `fix`: `lookup_touch`,
    /// counted in `stats` as a DRAM-tier hit or miss — on a memo hit, a
    /// compare and two counters.
    #[inline(always)]
    pub(crate) fn lookup_counted(&mut self, page: PageId, stats: &mut BpStats) -> Option<u32> {
        let frame = self.lookup_touch(page);
        if frame.is_some() {
            stats.hits += 1;
            stats.tier_dram_hits += 1;
        } else {
            stats.misses += 1;
            stats.tier_dram_misses += 1;
        }
        frame
    }

    /// `lookup_touch` past the memo: probe, touch, and remember.
    #[inline(never)]
    fn probe_touch(&mut self, page: PageId) -> Option<u32> {
        let frame = self.map.get(&page).copied()?;
        self.policy.touch(frame);
        self.last = Some((page, frame));
        Some(frame)
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Pop a free frame, if any.
    pub fn pop_free(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// A frame for a new page: a free one, else the policy's victim,
    /// [`evict`](Self::evict)ed — in which case its `(page, was_dirty)`
    /// comes back too, for the caller to write the bytes back (what that
    /// costs is the pool's design) before it reuses the frame.
    pub fn claim(&mut self) -> (u32, Option<(PageId, bool)>) {
        match self.free.pop() {
            Some(frame) => (frame, None),
            None => {
                let victim = self
                    .policy
                    .pop_victim()
                    .expect("no free frame and empty policy");
                (victim, Some(self.evict(victim)))
            }
        }
    }

    /// Return an emptied frame (unlinked and [`evict`](Self::evict)ed)
    /// to the free stack — migration paths move a page *out* of a tier
    /// without immediately reusing its slot.
    pub fn push_free(&mut self, frame: u32) {
        debug_assert!(self.page[frame as usize].is_none(), "freeing a bound frame");
        self.free.push(frame);
    }

    /// Pop the policy's eviction victim (unlinking it).
    pub fn pop_victim(&mut self) -> Option<u32> {
        self.last = None;
        self.policy.pop_victim()
    }

    /// Unlink `frame` from the policy without evicting it (migration
    /// paths that already know the victim).
    pub fn unlink(&mut self, frame: u32) {
        self.last = None;
        self.policy.remove(frame);
    }

    /// Clear a frame popped via [`FrameTable::pop_victim`]: unmap its
    /// page, spill the page's LSN to the eviction side map, and return
    /// `(page, was_dirty)` so the caller can write the bytes back.
    pub fn evict(&mut self, frame: u32) -> (PageId, bool) {
        let i = frame as usize;
        let page = self.page[i].take().expect("evicting empty frame");
        self.map.remove(&page);
        self.last = None;
        if let Some(lsn) = self.lsn[i].take() {
            self.evicted_lsns.insert(page, lsn);
        }
        (page, std::mem::take(&mut self.dirty[i]))
    }

    /// Bind `frame` (fresh from [`pop_free`](Self::pop_free) or
    /// [`evict`](Self::evict)) to `page`, clean, restoring any spilled
    /// LSN, and link it with the policy as newest.
    pub fn install(&mut self, frame: u32, page: PageId) {
        let i = frame as usize;
        debug_assert!(self.page[i].is_none(), "installing over a bound frame");
        self.page[i] = Some(page);
        self.dirty[i] = false;
        self.lsn[i] = self.evicted_lsns.remove(&page);
        self.map.insert(page, frame);
        self.last = None;
        self.policy.insert(frame);
    }

    /// The page bound to `frame`, if any.
    pub fn page_of(&self, frame: u32) -> Option<PageId> {
        self.page[frame as usize]
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
        while (*cursor as usize) < self.page.len() {
            let frame = *cursor;
            *cursor += 1;
            let i = frame as usize;
            if let (Some(page), true) = (self.page[i], self.dirty[i]) {
                self.dirty[i] = false;
                return Some((frame, page));
            }
        }
        None
    }

    /// Warm-up: bind each of `pages` that is not yet resident to a free
    /// frame, calling `fill(frame, page)` to put its bytes there, until
    /// the free frames run out. Nothing is evicted and nothing is timed.
    pub fn warm(&mut self, pages: impl Iterator<Item = PageId>, mut fill: impl FnMut(u32, PageId)) {
        for page in pages {
            if self.contains(page) {
                continue;
            }
            let Some(frame) = self.free.pop() else {
                break;
            };
            fill(frame, page);
            self.install(frame, page);
        }
    }

    /// Record `page`'s LSN on its frame (indexed store, no hashing).
    pub fn set_lsn(&mut self, frame: u32, lsn: Lsn) {
        self.lsn[frame as usize] = Some(lsn);
    }

    /// Latest LSN recorded for `page` — resident or evicted.
    pub fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        match self.map.get(&page) {
            Some(&frame) => self.lsn[frame as usize],
            None => self.evicted_lsns.get(&page).copied(),
        }
    }

    /// Crash: drop every binding, dirty bit and LSN (resident and
    /// spilled alike).
    pub fn clear(&mut self) {
        let n = self.capacity();
        let kind = self.policy.kind();
        self.page.iter_mut().for_each(|p| *p = None);
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.lsn.iter_mut().for_each(|l| *l = None);
        self.map.clear();
        self.last = None;
        self.free = (0..n as u32).rev().collect();
        self.policy = AnyPolicy::new(kind, n);
        self.evicted_lsns.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    /// The table as it was before a memo hit could skip the touch: a
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
                let mut t = FrameTable::with_policy(FRAMES, kind);
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
                                let want = r.claim();
                                assert_eq!(
                                    (frame, evicted.map(|e| e.0)),
                                    want,
                                    "{kind:?} {seed} {step}"
                                );
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
                                assert_eq!(t.evict(v).0, r.evict(v));
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
                                assert_eq!(t.evict(f).0, r.evict(f));
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
        let mut t = FrameTable::new(2);
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
        let mut t = FrameTable::new(1);
        let f = t.pop_free().unwrap();
        t.install(f, PageId(1));
        t.set_lsn(f, Lsn(5));
        t.mark_dirty(f);
        let v = t.pop_victim().unwrap();
        let (page, dirty) = t.evict(v);
        assert_eq!((page, dirty), (PageId(1), true));
        assert!(!t.contains(PageId(1)));
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
        let mut t = FrameTable::new(1);
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
        let mut t = FrameTable::new(2);
        let a = t.pop_free().unwrap();
        t.install(a, PageId(0));
        let b = t.pop_free().unwrap();
        t.install(b, PageId(1));
        t.lookup_touch(PageId(0)); // 0 hot, 1 cold
        let v = t.pop_victim().unwrap();
        assert_eq!(t.evict(v).0, PageId(1));
    }

    #[test]
    fn policy_is_pluggable_per_table() {
        use crate::policy::PolicyKind;
        for kind in PolicyKind::ALL {
            let mut t = FrameTable::with_policy(4, kind);
            assert_eq!(t.policy_kind(), kind);
            for p in 0..4u64 {
                let f = t.pop_free().unwrap();
                t.install(f, PageId(p));
            }
            // One full drain cycle so CLOCK's insert-time reference bits
            // are cleared; then re-touch page 0 and evict once.
            let v = t.pop_victim().unwrap();
            let (gone, _) = t.evict(v);
            t.install(v, gone);
            t.lookup_touch(PageId(0));
            let v = t.pop_victim().unwrap();
            let (page, _) = t.evict(v);
            // Every policy spares the just-touched page.
            assert_ne!(page, PageId(0), "{kind:?} evicted the hot page");
            t.clear();
            assert_eq!(t.policy_kind(), kind, "clear preserves the policy");
            assert_eq!(t.resident(), 0);
        }
    }
}
