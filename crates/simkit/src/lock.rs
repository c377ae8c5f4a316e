//! Virtual-time locks.
//!
//! The sharing experiments (§4.4) live and die by lock contention: at high
//! shared-data percentages, distributed page locks serialize writers and
//! throughput collapses for *both* systems. [`VLock`] models a single
//! shared/exclusive lock whose hold intervals are known at grant time, and
//! [`LockTable`] manages a keyed population of them with contention stats.
//!
//! The model: because the closed-loop scheduler executes operations in
//! start-time order, the holder's release instant is already known when a
//! later requester arrives, so a conflicting acquire is granted at the
//! release instant (FIFO). Shared holders overlap; an exclusive grant waits
//! for every earlier holder.

use crate::fastmap::FastMap;
use crate::time::SimTime;
use std::hash::Hash;

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) — concurrent with other shared holders.
    Shared,
    /// Exclusive (write) — conflicts with everything.
    Exclusive,
}

/// A single S/X lock in virtual time.
///
/// ```
/// use simkit::{LockMode, SimTime, VLock};
/// let mut lock = VLock::default();
/// let (g1, r1) = lock.acquire(SimTime::ZERO, LockMode::Exclusive, 100);
/// let (g2, _) = lock.acquire(SimTime::ZERO, LockMode::Exclusive, 100);
/// assert_eq!(g1, SimTime::ZERO);
/// assert_eq!(g2, r1); // the second writer queues behind the first
/// ```
#[derive(Debug, Default, Clone)]
pub struct VLock {
    /// End of the latest exclusive hold granted so far.
    x_free_at: SimTime,
    /// End of the latest shared hold granted so far.
    s_free_at: SimTime,
}

impl VLock {
    /// Acquire the lock at `now` in `mode`, holding it for `hold_ns`.
    /// Returns `(grant, release)`: the caller's critical section is
    /// `[grant, release)`.
    pub fn acquire(&mut self, now: SimTime, mode: LockMode, hold_ns: u64) -> (SimTime, SimTime) {
        let grant = match mode {
            // A reader only waits for the last writer.
            LockMode::Shared => now.max(self.x_free_at),
            // A writer waits for the last writer *and* all readers.
            LockMode::Exclusive => now.max(self.x_free_at).max(self.s_free_at),
        };
        let release = grant + hold_ns;
        match mode {
            LockMode::Shared => self.s_free_at = self.s_free_at.max(release),
            LockMode::Exclusive => self.x_free_at = release,
        }
        (grant, release)
    }

    /// Extend the most recent exclusive hold to `release` (used when the
    /// hold length is only known after executing the critical section).
    pub fn extend_exclusive(&mut self, release: SimTime) {
        self.x_free_at = self.x_free_at.max(release);
    }

    /// Extend the latest shared hold to `release`.
    pub fn extend_shared(&mut self, release: SimTime) {
        self.s_free_at = self.s_free_at.max(release);
    }
}

/// A keyed table of [`VLock`]s with aggregate contention statistics.
#[derive(Debug)]
pub struct LockTable<K: Eq + Hash> {
    locks: FastMap<K, VLock>,
    /// Total time requesters spent waiting for grants, ns.
    wait_ns: u64,
    /// Number of acquires that had to wait.
    contended: u64,
    acquires: u64,
}

impl<K: Eq + Hash> Default for LockTable<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> LockTable<K> {
    /// Create an empty lock table.
    pub fn new() -> Self {
        LockTable {
            locks: FastMap::default(),
            wait_ns: 0,
            contended: 0,
            acquires: 0,
        }
    }

    /// Acquire lock `key` at `now` in `mode` for `hold_ns`.
    pub fn acquire(
        &mut self,
        key: K,
        now: SimTime,
        mode: LockMode,
        hold_ns: u64,
    ) -> (SimTime, SimTime) {
        let lock = self.locks.entry(key).or_default();
        let (grant, release) = lock.acquire(now, mode, hold_ns);
        let wait = grant.saturating_since(now);
        self.wait_ns += wait;
        self.acquires += 1;
        if wait > 0 {
            self.contended += 1;
        }
        (grant, release)
    }

    /// Extend the exclusive hold on `key` to `release`.
    pub fn extend_exclusive(&mut self, key: K, release: SimTime) {
        if let Some(lock) = self.locks.get_mut(&key) {
            lock.extend_exclusive(release);
        }
    }

    /// Extend the latest shared hold on `key` to `release`.
    pub fn extend_shared(&mut self, key: K, release: SimTime) {
        if let Some(lock) = self.locks.get_mut(&key) {
            lock.extend_shared(release);
        }
    }

    /// Extend the hold on `key` in `mode` to `release`.
    pub fn extend(&mut self, key: K, mode: LockMode, release: SimTime) {
        match mode {
            LockMode::Shared => self.extend_shared(key, release),
            LockMode::Exclusive => self.extend_exclusive(key, release),
        }
    }

    /// Acquires that experienced queueing.
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Mean wait per acquire, ns.
    pub fn mean_wait_ns(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.wait_ns as f64 / self.acquires as f64
        }
    }

    /// Number of distinct keys ever locked.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True if no key was ever locked.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Fork a copy-on-touch shard for barrier-synchronized parallel
    /// stepping: a node acquires against private [`VLock`] copies
    /// snapshotted from this table, and [`LockTable::absorb`] folds
    /// each shard's deltas back at the barrier in fixed node order.
    pub fn shard(&self) -> LockShard<'_, K> {
        self.shard_reusing(&mut LockDelta::default())
    }

    /// [`LockTable::shard`] built on the buffers of a `spent` delta
    /// (one [`LockTable::absorb`] has drained), so a driver stepping
    /// thousands of quanta allocates its shards once.
    pub fn shard_reusing(&self, spent: &mut LockDelta<K>) -> LockShard<'_, K> {
        debug_assert!(spent.entries.is_empty() && spent.touched.is_empty());
        LockShard {
            base: self,
            touched: std::mem::take(&mut spent.touched),
            entries: std::mem::take(&mut spent.entries),
            wait_ns: 0,
            contended: 0,
            acquires: 0,
        }
    }
}

impl<K: Eq + Hash + Ord + Copy> LockTable<K> {
    /// Fold shard deltas back into the shared table (see
    /// [`LockTable::shard`]); call once per barrier with the deltas in
    /// fixed node order.
    ///
    /// Exclusive holds merge like a serial interleaving would: a shard
    /// whose first grant found the merged lock already free keeps its
    /// own timeline (`max`), while a shard whose holds overlap work
    /// merged before it queues behind that work — only its *busy* time
    /// (hold durations, never idle gaps between its grants) is
    /// appended to the shared clock. Deltas merge in lane order, and a
    /// grant may lag a peer's same-quantum hold by at most one barrier
    /// interval. Shared holds are max-merged (readers overlap).
    ///
    /// Drains `delta`, leaving its buffers for the next quantum's
    /// [`LockTable::shard_reusing`].
    pub fn absorb(&mut self, delta: &mut LockDelta<K>) {
        for (key, slot) in delta.entries.drain(..) {
            let lock = self.locks.entry(key).or_default();
            match slot.first_xg {
                None => {}
                Some(g) if g >= lock.x_free_at => {
                    lock.x_free_at = lock.x_free_at.max(slot.lock.x_free_at);
                }
                Some(_) => {
                    lock.x_free_at += slot.busy_x;
                }
            }
            lock.s_free_at = lock.s_free_at.max(slot.lock.s_free_at);
        }
        self.wait_ns += std::mem::take(&mut delta.wait_ns);
        self.contended += std::mem::take(&mut delta.contended);
        self.acquires += std::mem::take(&mut delta.acquires);
    }
}

/// A touched lock inside a [`LockShard`]: the private copy and the
/// shard's exclusive-hold accounting for the barrier merge.
#[derive(Debug, Clone)]
struct ShardSlot {
    lock: VLock,
    /// First exclusive grant this shard issued for the key (None if it
    /// only read-locked it).
    first_xg: Option<SimTime>,
    /// Total exclusive hold time (grants + extensions, excluding idle
    /// gaps between the shard's own grants).
    busy_x: u64,
}

/// A per-node copy-on-touch view of a [`LockTable`] for one barrier
/// quantum (see [`LockTable::shard`]).
#[derive(Debug)]
pub struct LockShard<'a, K: Eq + Hash> {
    base: &'a LockTable<K>,
    touched: FastMap<K, ShardSlot>,
    /// Empty until [`LockShard::finish`]; carried for its capacity.
    entries: Vec<(K, ShardSlot)>,
    wait_ns: u64,
    contended: u64,
    acquires: u64,
}

impl<K: Eq + Hash + Copy> LockShard<'_, K> {
    fn slot(&mut self, key: K) -> &mut ShardSlot {
        self.touched.entry(key).or_insert_with(|| {
            let lock = self.base.locks.get(&key).cloned().unwrap_or_default();
            ShardSlot {
                lock,
                first_xg: None,
                busy_x: 0,
            }
        })
    }

    /// Acquire lock `key` at `now` in `mode` for `hold_ns` against the
    /// shard's private copy.
    pub fn acquire(
        &mut self,
        key: K,
        now: SimTime,
        mode: LockMode,
        hold_ns: u64,
    ) -> (SimTime, SimTime) {
        let slot = self.slot(key);
        let (grant, release) = slot.lock.acquire(now, mode, hold_ns);
        if mode == LockMode::Exclusive {
            slot.first_xg.get_or_insert(grant);
            slot.busy_x += hold_ns;
        }
        let wait = grant.saturating_since(now);
        self.wait_ns += wait;
        self.acquires += 1;
        if wait > 0 {
            self.contended += 1;
        }
        (grant, release)
    }

    /// Extend the hold on `key` in `mode` to `release`.
    pub fn extend(&mut self, key: K, mode: LockMode, release: SimTime) {
        let slot = self.slot(key);
        match mode {
            LockMode::Shared => slot.lock.extend_shared(release),
            LockMode::Exclusive => {
                slot.busy_x += release.saturating_since(slot.lock.x_free_at);
                slot.lock.extend_exclusive(release);
            }
        }
    }

    /// Extend the exclusive hold on `key` to `release`.
    pub fn extend_exclusive(&mut self, key: K, release: SimTime) {
        self.extend(key, LockMode::Exclusive, release);
    }

    /// Extend the latest shared hold on `key` to `release`.
    pub fn extend_shared(&mut self, key: K, release: SimTime) {
        self.extend(key, LockMode::Shared, release);
    }
}

impl<K: Eq + Hash + Ord + Copy> LockShard<'_, K> {
    /// Detach the shard's deltas (sorted by key, so the barrier merge
    /// is independent of map iteration order).
    pub fn finish(mut self) -> LockDelta<K> {
        let mut entries = self.entries;
        entries.extend(self.touched.drain());
        entries.sort_unstable_by_key(|(k, _)| *k);
        LockDelta {
            entries,
            touched: self.touched,
            wait_ns: self.wait_ns,
            contended: self.contended,
            acquires: self.acquires,
        }
    }
}

/// Detached deltas of one node's [`LockShard`] for one quantum.
#[derive(Debug)]
pub struct LockDelta<K> {
    entries: Vec<(K, ShardSlot)>,
    /// The shard's drained map, kept for its capacity.
    touched: FastMap<K, ShardSlot>,
    wait_ns: u64,
    contended: u64,
    acquires: u64,
}

impl<K> Default for LockDelta<K> {
    fn default() -> Self {
        LockDelta {
            entries: Vec::new(),
            touched: FastMap::default(),
            wait_ns: 0,
            contended: 0,
            acquires: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lock_is_two_clocks() {
        // `share_mixed` copies one slot per touched lock per quantum.
        assert_eq!(std::mem::size_of::<VLock>(), 16);
        assert_eq!(std::mem::size_of::<ShardSlot>(), 40);
    }

    #[test]
    fn exclusive_serializes() {
        let mut l = VLock::default();
        let (g1, r1) = l.acquire(SimTime::ZERO, LockMode::Exclusive, 100);
        let (g2, r2) = l.acquire(SimTime::ZERO, LockMode::Exclusive, 100);
        assert_eq!((g1, r1), (SimTime(0), SimTime(100)));
        assert_eq!((g2, r2), (SimTime(100), SimTime(200)));
    }

    #[test]
    fn readers_share() {
        let mut l = VLock::default();
        let (g1, _) = l.acquire(SimTime::ZERO, LockMode::Shared, 100);
        let (g2, _) = l.acquire(SimTime(10), LockMode::Shared, 100);
        assert_eq!(g1, SimTime(0));
        assert_eq!(g2, SimTime(10)); // no queueing between readers
    }

    #[test]
    fn writer_waits_for_readers() {
        let mut l = VLock::default();
        l.acquire(SimTime::ZERO, LockMode::Shared, 100);
        l.acquire(SimTime(20), LockMode::Shared, 100); // held until 120
        let (g, _) = l.acquire(SimTime(30), LockMode::Exclusive, 50);
        assert_eq!(g, SimTime(120));
    }

    #[test]
    fn reader_waits_for_writer_only() {
        let mut l = VLock::default();
        l.acquire(SimTime::ZERO, LockMode::Exclusive, 100);
        let (g, _) = l.acquire(SimTime(10), LockMode::Shared, 10);
        assert_eq!(g, SimTime(100));
    }

    #[test]
    fn extend_exclusive_pushes_release() {
        let mut l = VLock::default();
        let (_, r) = l.acquire(SimTime::ZERO, LockMode::Exclusive, 10);
        assert_eq!(r, SimTime(10));
        l.extend_exclusive(SimTime(500));
        let (g, _) = l.acquire(SimTime::ZERO, LockMode::Exclusive, 1);
        assert_eq!(g, SimTime(500));
    }

    #[test]
    fn table_tracks_contention() {
        let mut t: LockTable<u32> = LockTable::new();
        t.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        t.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        t.acquire(2, SimTime::ZERO, LockMode::Exclusive, 100); // uncontended
        assert_eq!(t.acquires, 3);
        assert_eq!(t.contended(), 1);
        assert_eq!(t.wait_ns, 100);
        assert_eq!(t.len(), 2);
        assert!((t.mean_wait_ns() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shard_deltas_reproduce_serial_exclusive_queueing() {
        // Serial reference: two writers on key 1, one on key 2.
        let mut serial: LockTable<u32> = LockTable::new();
        serial.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        serial.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        serial.acquire(2, SimTime::ZERO, LockMode::Exclusive, 50);

        // Sharded: the same acquires split across two node shards.
        let mut table: LockTable<u32> = LockTable::new();
        let mut s0 = table.shard();
        let mut s1 = table.shard();
        s0.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        s1.acquire(1, SimTime::ZERO, LockMode::Exclusive, 100);
        s1.acquire(2, SimTime::ZERO, LockMode::Exclusive, 50);
        let (mut d0, mut d1) = (s0.finish(), s1.finish());
        table.absorb(&mut d0);
        table.absorb(&mut d1);

        // Both queues end at the same backlog; a third writer arriving
        // after the barrier sees the combined holds.
        let (g_serial, _) = serial.acquire(1, SimTime::ZERO, LockMode::Exclusive, 1);
        let (g_shard, _) = table.acquire(1, SimTime::ZERO, LockMode::Exclusive, 1);
        assert_eq!(g_serial, g_shard);
        assert_eq!(g_shard, SimTime(200));
        assert_eq!(table.acquires, 4);
        // Within-quantum cross-shard waits are deferred to the barrier,
        // so only the post-merge acquire observes contention here.
        assert_eq!(table.contended(), 1);
    }

    #[test]
    fn reused_shard_buffers_merge_like_fresh_ones() {
        let mut fresh: LockTable<u32> = LockTable::new();
        let mut reused: LockTable<u32> = LockTable::new();
        let mut spent = LockDelta::default();
        for q in 0..3u64 {
            let step = |mut s: LockShard<'_, u32>| {
                for key in [9, 2, 5, 2] {
                    s.acquire(key, SimTime(q * 100), LockMode::Exclusive, 40 + key as u64);
                }
                s.finish()
            };
            let mut d = step(fresh.shard());
            fresh.absorb(&mut d);
            spent = step(reused.shard_reusing(&mut spent));
            reused.absorb(&mut spent);
        }
        for key in [2, 5, 9] {
            assert_eq!(
                fresh.acquire(key, SimTime::ZERO, LockMode::Exclusive, 1),
                reused.acquire(key, SimTime::ZERO, LockMode::Exclusive, 1)
            );
        }
        assert_eq!(fresh.wait_ns, reused.wait_ns);
        assert_eq!(fresh.contended(), reused.contended());
    }

    #[test]
    fn shard_shared_holds_max_merge() {
        let mut table: LockTable<u32> = LockTable::new();
        table.acquire(7, SimTime::ZERO, LockMode::Shared, 100);
        let mut s0 = table.shard();
        s0.acquire(7, SimTime(10), LockMode::Shared, 500); // holds to 510
        s0.extend_shared(7, SimTime(600));
        table.absorb(&mut s0.finish());
        let (g, _) = table.acquire(7, SimTime::ZERO, LockMode::Exclusive, 1);
        assert_eq!(g, SimTime(600), "writer waits for the merged reader");
    }

    #[test]
    fn disjoint_keys_do_not_interact() {
        let mut t: LockTable<&'static str> = LockTable::new();
        let (g1, _) = t.acquire("a", SimTime::ZERO, LockMode::Exclusive, 1_000);
        let (g2, _) = t.acquire("b", SimTime::ZERO, LockMode::Exclusive, 1_000);
        assert_eq!(g1, SimTime::ZERO);
        assert_eq!(g2, SimTime::ZERO);
    }
}
