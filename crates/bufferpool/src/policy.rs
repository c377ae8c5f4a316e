//! Deterministic eviction policies behind one recency contract.
//!
//! Every pool runs the intrusive [`LruList`], the paper's one recency
//! order. This module puts that contract behind a small [`Policy`] trait
//! with three implementations, selectable per
//! [`FrameTable`](crate::FrameTable) via [`PolicyKind`]; CLOCK and 2Q
//! are reached only through `FrameTable::with_policy`, where the
//! performance ledger times them:
//!
//! - **LRU** — the existing intrusive doubly-linked list. Exact recency,
//!   but every hit relinks the node (3 pointer stores + branches).
//! - **CLOCK** — a second-chance ring. A hit sets a reference bit (one
//!   indexed store, no relink), so the hot path is measurably cheaper
//!   than LRU's `touch`; eviction sweeps a hand that clears reference
//!   bits and takes the first unreferenced slot.
//! - **2Q** — a probation/protected split (simplified 2Q): new pages
//!   enter a FIFO probation queue and only a *second* hit promotes them
//!   to the protected LRU, so one-touch scans cannot flush the hot set.
//!
//! All three are bit-deterministic: victim choice depends only on the
//! operation history, never on host pointers, hashing order or time.

use crate::lru::LruList;

/// Which eviction policy a directory runs. Defaults to
/// [`PolicyKind::Lru`], the one every pool runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Exact recency via the intrusive doubly-linked [`LruList`].
    #[default]
    Lru,
    /// Second-chance ring: reference bit on hit, sweeping hand on evict.
    Clock,
    /// Probation FIFO + protected LRU (scan-resistant 2Q variant).
    TwoQ,
}

impl PolicyKind {
    /// Every policy, in sweep order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Clock, PolicyKind::TwoQ];
}

/// The recency contract a pool tier needs from its eviction policy.
///
/// Slots are frame indices `0..capacity`; a slot is linked at most once
/// (the caller's residency map tracks which are live, exactly as with
/// the bare [`LruList`]).
pub trait Policy {
    /// Which policy this is.
    fn kind(&self) -> PolicyKind;
    /// Number of linked slots.
    fn len(&self) -> usize;
    /// True when no slots are linked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Link a newly-installed slot.
    fn insert(&mut self, slot: u32);
    /// Record a hit on a linked slot.
    fn touch(&mut self, slot: u32);
    /// Unlink a slot explicitly (invalidation, migration).
    fn remove(&mut self, slot: u32);
    /// Choose, unlink and return the next eviction victim.
    fn pop_victim(&mut self) -> Option<u32>;
}

impl Policy for LruList {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }
    fn len(&self) -> usize {
        LruList::len(self)
    }
    fn insert(&mut self, slot: u32) {
        self.push_front(slot);
    }
    fn touch(&mut self, slot: u32) {
        LruList::touch(self, slot);
    }
    fn remove(&mut self, slot: u32) {
        LruList::remove(self, slot);
    }
    fn pop_victim(&mut self) -> Option<u32> {
        self.pop_back()
    }
}

/// CLOCK / second-chance: a fixed ring of slots with one reference bit
/// each and a sweeping hand.
///
/// `touch` is a single indexed store — no list relink — which is the
/// whole point: on the bufferpool hot path (millions of hits per run)
/// it beats LRU's 3-pointer splice. `pop_victim` advances the hand,
/// clearing reference bits, and takes the first present, unreferenced
/// slot; with `len > 0` it terminates within two revolutions.
#[derive(Debug, Clone)]
pub struct ClockRing {
    present: Vec<bool>,
    refbit: Vec<bool>,
    hand: u32,
    len: usize,
}

impl ClockRing {
    /// An empty ring over slots `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ClockRing {
            present: vec![false; capacity],
            refbit: vec![false; capacity],
            hand: 0,
            len: 0,
        }
    }
}

impl Policy for ClockRing {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Clock
    }
    fn len(&self) -> usize {
        self.len
    }
    fn insert(&mut self, slot: u32) {
        let i = slot as usize;
        debug_assert!(!self.present[i], "slot {slot} already linked");
        self.present[i] = true;
        // The faulting access counts as a reference: a fresh page gets
        // one full sweep of grace before it is evictable.
        self.refbit[i] = true;
        self.len += 1;
    }
    #[inline]
    fn touch(&mut self, slot: u32) {
        self.refbit[slot as usize] = true;
    }
    fn remove(&mut self, slot: u32) {
        let i = slot as usize;
        debug_assert!(self.present[i], "removing unlinked slot {slot}");
        self.present[i] = false;
        self.refbit[i] = false;
        self.len -= 1;
    }
    fn pop_victim(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let cap = self.present.len() as u32;
        loop {
            let s = self.hand;
            self.hand = (self.hand + 1) % cap;
            let i = s as usize;
            if !self.present[i] {
                continue;
            }
            if self.refbit[i] {
                self.refbit[i] = false;
                continue;
            }
            self.present[i] = false;
            self.len -= 1;
            return Some(s);
        }
    }
}

/// Simplified 2Q: a probation FIFO in front of a protected LRU.
///
/// New slots enter probation; a hit while on probation promotes to the
/// protected list (whose overflow demotes its LRU tail back to
/// probation). Victims drain probation first, so a one-touch scan only
/// ever churns the probation queue and the hot set in `protected`
/// survives.
#[derive(Debug, Clone)]
pub struct TwoQ {
    /// A1in: FIFO of once-touched slots (front = newest).
    probation: LruList,
    /// Am: LRU of promoted slots.
    protected: LruList,
    /// 0 = absent, 1 = probation, 2 = protected.
    loc: Vec<u8>,
    protected_cap: usize,
}

impl TwoQ {
    /// An empty 2Q over slots `0..capacity`; the protected list is
    /// capped at 3/4 of capacity (at least 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        TwoQ {
            probation: LruList::new(capacity),
            protected: LruList::new(capacity),
            loc: vec![0; capacity],
            protected_cap: (capacity * 3 / 4).max(1),
        }
    }
}

impl Policy for TwoQ {
    fn kind(&self) -> PolicyKind {
        PolicyKind::TwoQ
    }
    fn len(&self) -> usize {
        self.probation.len() + self.protected.len()
    }
    fn insert(&mut self, slot: u32) {
        debug_assert_eq!(self.loc[slot as usize], 0, "slot {slot} already linked");
        self.probation.push_front(slot);
        self.loc[slot as usize] = 1;
    }
    fn touch(&mut self, slot: u32) {
        match self.loc[slot as usize] {
            1 => {
                // Second touch: promote to protected, demoting its LRU
                // tail back to probation if the protected list is full.
                self.probation.remove(slot);
                self.protected.push_front(slot);
                self.loc[slot as usize] = 2;
                if self.protected.len() > self.protected_cap {
                    let demoted = self.protected.pop_back().expect("overfull protected");
                    self.probation.push_front(demoted);
                    self.loc[demoted as usize] = 1;
                }
            }
            2 => self.protected.touch(slot),
            _ => debug_assert!(false, "touching unlinked slot {slot}"),
        }
    }
    fn remove(&mut self, slot: u32) {
        match std::mem::take(&mut self.loc[slot as usize]) {
            1 => self.probation.remove(slot),
            2 => self.protected.remove(slot),
            _ => debug_assert!(false, "removing unlinked slot {slot}"),
        }
    }
    fn pop_victim(&mut self) -> Option<u32> {
        let victim = self
            .probation
            .pop_back()
            .or_else(|| self.protected.pop_back())?;
        self.loc[victim as usize] = 0;
        Some(victim)
    }
}

/// Enum dispatch over the three policies: the pools store this directly
/// so the hot path is a two-arm-cheap `match`, not a vtable call, and
/// the whole structure stays `Debug + Clone` and allocation-free after
/// construction.
#[derive(Debug, Clone)]
pub enum AnyPolicy {
    /// Intrusive LRU list.
    Lru(LruList),
    /// Second-chance ring.
    Clock(ClockRing),
    /// Probation/protected split.
    TwoQ(TwoQ),
}

impl AnyPolicy {
    /// An empty policy of `kind` over slots `0..capacity`.
    pub fn new(kind: PolicyKind, capacity: usize) -> Self {
        match kind {
            PolicyKind::Lru => AnyPolicy::Lru(LruList::new(capacity)),
            PolicyKind::Clock => AnyPolicy::Clock(ClockRing::new(capacity)),
            PolicyKind::TwoQ => AnyPolicy::TwoQ(TwoQ::new(capacity)),
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Clock($p) => $body,
            AnyPolicy::TwoQ($p) => $body,
        }
    };
}

impl Policy for AnyPolicy {
    #[inline]
    fn kind(&self) -> PolicyKind {
        dispatch!(self, p => p.kind())
    }
    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, p => Policy::len(p))
    }
    #[inline]
    fn insert(&mut self, slot: u32) {
        dispatch!(self, p => p.insert(slot))
    }
    #[inline]
    fn touch(&mut self, slot: u32) {
        dispatch!(self, p => Policy::touch(p, slot))
    }
    #[inline]
    fn remove(&mut self, slot: u32) {
        dispatch!(self, p => Policy::remove(p, slot))
    }
    #[inline]
    fn pop_victim(&mut self) -> Option<u32> {
        dispatch!(self, p => p.pop_victim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    const CAP: usize = 8;

    /// Drive a policy and an independently-coded reference model through
    /// the same seeded op stream, asserting victim-for-victim equality.
    fn fuzz_against<M>(
        seed_base: u64,
        mut make: impl FnMut() -> (Box<dyn Policy>, M),
        mut model_insert: impl FnMut(&mut M, u32),
        mut model_touch: impl FnMut(&mut M, u32),
        mut model_remove: impl FnMut(&mut M, u32),
        mut model_pop: impl FnMut(&mut M) -> Option<u32>,
    ) {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(seed_base + case);
            let n_ops = rng.gen_range(1usize..200);
            let (mut p, mut model) = make();
            let mut in_set = [false; CAP];
            let mut live = 0usize;
            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..4);
                let slot_i = rng.gen_range(0usize..CAP);
                let slot = slot_i as u32;
                match op {
                    0 => {
                        if !in_set[slot_i] {
                            p.insert(slot);
                            model_insert(&mut model, slot);
                            in_set[slot_i] = true;
                            live += 1;
                        }
                    }
                    1 => {
                        if in_set[slot_i] {
                            p.touch(slot);
                            model_touch(&mut model, slot);
                        }
                    }
                    2 => {
                        if in_set[slot_i] {
                            p.remove(slot);
                            model_remove(&mut model, slot);
                            in_set[slot_i] = false;
                            live -= 1;
                        }
                    }
                    _ => {
                        let got = p.pop_victim();
                        let want = model_pop(&mut model);
                        assert_eq!(got, want, "case {case}");
                        if let Some(s) = got {
                            in_set[s as usize] = false;
                            live -= 1;
                        }
                    }
                }
                assert_eq!(p.len(), live, "case {case}");
            }
        }
    }

    /// Textbook-array CLOCK model: present/ref arrays plus a hand,
    /// written as the naive scan loop rather than the ring's fused
    /// bookkeeping.
    struct ClockModel {
        present: [bool; CAP],
        refb: [bool; CAP],
        hand: usize,
    }

    #[test]
    fn clock_matches_reference_model() {
        fuzz_against(
            0xC10C_0000,
            || {
                (
                    Box::new(ClockRing::new(CAP)) as Box<dyn Policy>,
                    ClockModel {
                        present: [false; CAP],
                        refb: [false; CAP],
                        hand: 0,
                    },
                )
            },
            |m, s| {
                m.present[s as usize] = true;
                m.refb[s as usize] = true;
            },
            |m, s| m.refb[s as usize] = true,
            |m, s| {
                m.present[s as usize] = false;
                m.refb[s as usize] = false;
            },
            |m| {
                if !m.present.iter().any(|&p| p) {
                    return None;
                }
                loop {
                    let s = m.hand;
                    m.hand = (m.hand + 1) % CAP;
                    if !m.present[s] {
                        continue;
                    }
                    if m.refb[s] {
                        m.refb[s] = false;
                        continue;
                    }
                    m.present[s] = false;
                    return Some(s as u32);
                }
            },
        );
    }

    /// Vec-based 2Q model: two plain vectors (front = index 0) instead
    /// of the intrusive lists, with the same promote/demote rules.
    struct TwoQModel {
        probation: Vec<u32>,
        protected: Vec<u32>,
        cap: usize,
    }

    #[test]
    fn twoq_matches_reference_model() {
        fuzz_against(
            0x2900_0000,
            || {
                (
                    Box::new(TwoQ::new(CAP)) as Box<dyn Policy>,
                    TwoQModel {
                        probation: Vec::new(),
                        protected: Vec::new(),
                        cap: (CAP * 3 / 4).max(1),
                    },
                )
            },
            |m, s| m.probation.insert(0, s),
            |m, s| {
                if let Some(i) = m.probation.iter().position(|&x| x == s) {
                    m.probation.remove(i);
                    m.protected.insert(0, s);
                    if m.protected.len() > m.cap {
                        let demoted = m.protected.pop().unwrap();
                        m.probation.insert(0, demoted);
                    }
                } else {
                    let i = m.protected.iter().position(|&x| x == s).unwrap();
                    m.protected.remove(i);
                    m.protected.insert(0, s);
                }
            },
            |m, s| {
                m.probation.retain(|&x| x != s);
                m.protected.retain(|&x| x != s);
            },
            |m| m.probation.pop().or_else(|| m.protected.pop()),
        );
    }

    /// The LRU adapter behaves exactly like the bare list (already
    /// fuzzed in `lru::matches_reference_model`): quick smoke only.
    #[test]
    fn lru_adapter_orders_like_the_list() {
        let mut p = AnyPolicy::new(PolicyKind::Lru, 4);
        p.insert(0);
        p.insert(1);
        p.insert(2);
        p.touch(0);
        assert_eq!(p.pop_victim(), Some(1));
        assert_eq!(p.pop_victim(), Some(2));
        assert_eq!(p.pop_victim(), Some(0));
        assert_eq!(p.pop_victim(), None);
    }

    /// A one-touch scan through 2Q must not evict the twice-touched hot
    /// set: scan pages die in probation while hot pages sit protected.
    #[test]
    fn twoq_is_scan_resistant() {
        let mut p = TwoQ::new(CAP);
        // Hot set {0, 1}: inserted and touched again → protected.
        p.insert(0);
        p.insert(1);
        p.touch(0);
        p.touch(1);
        // Scan 2..8 with a single touch each, evicting as if full.
        for s in 2..CAP as u32 {
            p.insert(s);
        }
        for _ in 0..4 {
            let v = p.pop_victim().unwrap();
            assert!(v >= 2, "scan page {v} evicted before the hot set");
        }
        assert_eq!(Policy::len(&p), 4);
    }

    /// CLOCK's second chance: a referenced slot survives one sweep.
    #[test]
    fn clock_gives_second_chances() {
        let mut p = ClockRing::new(4);
        for s in 0..4 {
            p.insert(s);
        }
        // All ref bits set at insert: first sweep clears 0..4 then takes
        // slot 0 on the second revolution.
        assert_eq!(p.pop_victim(), Some(0));
        // Re-reference slot 1; slot 2 (unreferenced) goes first.
        p.touch(1);
        assert_eq!(p.pop_victim(), Some(2));
    }
}
