//! CPU cache model.
//!
//! A direct-mapped, write-back cache over a memory region's address space,
//! with 64-byte lines. Two modes:
//!
//! - **Timing mode** (default): only tags are tracked. Reads/writes still
//!   go to the backing region immediately; the tag array decides whether
//!   an access costs a cache hit or a fabric miss, and how many bytes hit
//!   the link. Every harness run (pooling, recovery and sharing) uses it.
//! - **Capture mode**: the cache additionally stores *copies of line
//!   data*. Reads are served from the copies and writes land only in the
//!   copies until written back (eviction or `clflush`). This makes cache
//!   coherency *real*: a node that skips the paper's invalidation protocol
//!   observably reads stale data. It changes where bytes live, never a
//!   hit, a miss or a link byte, so it is the byte oracle of the
//!   coherency tests (§3.3) rather than a run mode.
//!
//! A capture cache keeps at most one copy per set, beside the set's tag,
//! so a warmed cache allocates nothing.

use crate::calib::CACHE_LINE;

/// The lines a `len`-byte access at `off` touches. (A zero-length access
/// at an unaligned offset still names the line it sits in.)
#[inline]
pub(crate) fn line_range(off: u64, len: usize) -> std::ops::Range<u64> {
    off / CACHE_LINE..(off + len as u64).div_ceil(CACHE_LINE)
}

/// What a line access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineAccess {
    /// Line was present.
    Hit,
    /// Line was absent; filled. If a dirty victim was evicted, its line
    /// index is reported so the caller can write it back.
    Miss {
        /// Dirty victim line that must be written back, if any.
        evicted_dirty: Option<u64>,
    },
}

/// Outcome of a contiguous run of line accesses ([`Cache::access_run`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunAccess {
    /// Lines that hit.
    pub hits: u64,
    /// Lines that missed (and were filled).
    pub misses: u64,
    /// Dirty victims evicted by the fills (each needs a writeback).
    pub dirty_evictions: u64,
    /// Whether the first line of the run missed.
    pub first_missed: bool,
    /// Whether the last line of the run missed.
    pub last_missed: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Line accesses that hit.
    pub hits: u64,
    /// Line accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Dirty lines written back by `clflush`.
    pub flushes: u64,
    /// Lines invalidated (clean or after flush).
    pub invalidations: u64,
}

/// One set's tag word, packed into 4 bytes so a 4 MB modelled cache is a
/// 256 KB host array: `key << 1 | dirty`, where `key = line / sets + 1`
/// (the true tag plus one) and 0 means invalid. Storing the true tag
/// rather than the line index keeps any region size safe: the key only
/// has to fit 31 bits, which [`Cache::pack`] asserts on every fill.
type Slot = u32;

/// Keys must stay below this to fit a [`Slot`].
const KEY_LIMIT: u64 = 1 << 31;

/// The bytes of one cache line.
pub type LineBytes = [u8; CACHE_LINE as usize];

/// One captured copy: the bytes, and the line they are a copy of. The
/// owner is kept beside the bytes (not read off the set's tag) because
/// the two part ways mid-operation: a dirty victim's copy outlives its
/// tag until the caller takes it for write-back.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Captured {
    line: u64,
    bytes: LineBytes,
}

/// Capture-mode line copies, one slot per set: a direct-mapped set holds
/// at most one copy.
type LineStore = Vec<Option<Captured>>;

/// Direct-mapped write-back cache. Addresses are byte offsets into the
/// backing region; lines are [`CACHE_LINE`] bytes.
#[derive(Clone)]
pub struct Cache {
    slots: Vec<Slot>,
    /// `(sets - 1, log2(sets))` when the set count is a power of two (the
    /// common case for real cache sizes), letting the per-line set/tag
    /// split use a mask and a shift instead of a 64-bit divide. Purely an
    /// addressing shortcut: `line & mask == line % sets` and
    /// `line >> shift == line / sets` whenever `sets` is a power of two.
    pow2: Option<(u64, u32)>,
    data: Option<LineStore>,
    stats: CacheStats,
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("sets", &self.slots.len())
            .field("capture", &self.data.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Cache {
    /// A timing-only cache of `capacity_bytes` (rounded down to lines).
    pub fn new(capacity_bytes: usize) -> Self {
        let sets = (capacity_bytes / CACHE_LINE as usize).max(1);
        Cache {
            slots: vec![0; sets],
            pow2: sets
                .is_power_of_two()
                .then(|| (sets as u64 - 1, sets.trailing_zeros())),
            data: None,
            stats: CacheStats::default(),
        }
    }

    /// A data-capturing cache (see module docs) of `capacity_bytes`.
    pub fn with_capture(capacity_bytes: usize) -> Self {
        let mut c = Cache::new(capacity_bytes);
        c.data = Some(vec![None; c.slots.len()]);
        c
    }

    /// Whether this cache stores line data copies.
    pub fn captures(&self) -> bool {
        self.data.is_some()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of sets (= lines of capacity; the cache is direct-mapped).
    pub fn sets(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has ever gone through this cache: no line held, no
    /// statistic counted.
    pub fn is_untouched(&self) -> bool {
        self.stats == CacheStats::default() && self.slots.iter().all(|&s| s == 0)
    }

    /// This cache as it would be had every access that shaped it been
    /// made `delta` lines further along: the state of an instance seated
    /// at another base, without replaying its accesses.
    ///
    /// Exact because the cache is direct-mapped: hits, misses and victims
    /// depend only on which lines are equal and which share a set, both
    /// unchanged when every line moves by the same amount, so translation
    /// is a bijection on cache states. Each held line goes through
    /// `line_of` → `+ delta` → `split` → `pack`; the key is *not* the old
    /// key plus a constant, because the carry out of the set bits reaches
    /// it. Dirty bits and statistics carry over.
    ///
    /// # Panics
    /// On a capture-mode cache: its line copies belong to the addresses
    /// they were read from, and to bytes this call cannot see.
    pub fn shifted(&self, delta: i64) -> Cache {
        assert!(
            self.data.is_none(),
            "a capture-mode cache cannot be shifted"
        );
        let mut out = Cache {
            slots: vec![0; self.slots.len()],
            pow2: self.pow2,
            data: None,
            stats: self.stats,
        };
        for (set, &slot) in self.slots.iter().enumerate() {
            if slot == 0 {
                continue;
            }
            let line = self
                .line_of(set, slot)
                .checked_add_signed(delta)
                .expect("shifted line leaves the address space");
            let (to, key) = out.split(line);
            out.slots[to] = Self::pack(key, slot & 1 != 0);
        }
        out
    }

    /// `(set, key)` of `line`; a slot holds the line iff `slot >> 1 == key`
    /// (compared in 64 bits, so an out-of-range key can never match).
    #[inline]
    fn split(&self, line: u64) -> (usize, u64) {
        match self.pow2 {
            Some((mask, shift)) => ((line & mask) as usize, (line >> shift) + 1),
            None => {
                let sets = self.slots.len() as u64;
                ((line % sets) as usize, line / sets + 1)
            }
        }
    }

    /// The slot word for a freshly filled line.
    #[inline]
    fn pack(key: u64, dirty: bool) -> Slot {
        assert!(key < KEY_LIMIT, "cache tag exceeds 31 bits");
        (key as Slot) << 1 | dirty as Slot
    }

    /// The line a valid slot word of `set` holds.
    #[inline]
    fn line_of(&self, set: usize, slot: Slot) -> u64 {
        ((slot >> 1) as u64 - 1) * self.slots.len() as u64 + set as u64
    }

    /// Touch `line` (byte offset / 64). Returns whether it hit, and any
    /// dirty victim the caller must write back *before* the fill.
    pub fn access(&mut self, line: u64, write: bool) -> LineAccess {
        let (set, key) = self.split(line);
        let slot = self.slots[set];
        if (slot >> 1) as u64 == key {
            self.stats.hits += 1;
            self.slots[set] = slot | write as Slot;
            return LineAccess::Hit;
        }
        // Miss: evict current occupant.
        let evicted_dirty = if slot & 1 != 0 {
            self.stats.writebacks += 1;
            Some(self.line_of(set, slot))
        } else {
            None
        };
        if slot != 0 && evicted_dirty.is_none() {
            // Clean eviction: drop the stale copy. Dirty copies are
            // removed by `take_line` during writeback.
            self.release(set, self.line_of(set, slot));
        }
        self.slots[set] = Self::pack(key, write);
        self.stats.misses += 1;
        LineAccess::Miss { evicted_dirty }
    }

    /// The lean read probe: if this is a timing-mode cache holding `line`,
    /// count the hit — exactly what `access(line, false)` does on a hit —
    /// and return `true`; otherwise change nothing and return `false`, so
    /// the caller can fall through to the general path.
    #[inline(always)]
    pub fn read_hit(&mut self, line: u64) -> bool {
        if self.data.is_some() {
            return false;
        }
        let (set, key) = self.split(line);
        let hit = (self.slots[set] >> 1) as u64 == key;
        self.stats.hits += hit as u64;
        hit
    }

    /// Touch a contiguous run of lines in order, exactly as repeated
    /// [`Cache::access`] calls would — including intra-run aliasing,
    /// where a later line of the run evicts an earlier one — but with a
    /// single stats update and no per-line enum dispatch. Timing mode
    /// only: capture mode needs the per-line data plumbing.
    pub fn access_run(&mut self, lines: std::ops::Range<u64>, write: bool) -> RunAccess {
        debug_assert!(self.data.is_none(), "access_run is timing-mode only");
        let first = lines.start;
        let last = lines.end.saturating_sub(1);
        let mut run = RunAccess::default();
        for line in lines {
            let (set, key) = self.split(line);
            let slot = self.slots[set];
            if (slot >> 1) as u64 == key {
                run.hits += 1;
                self.slots[set] = slot | write as Slot;
            } else {
                run.dirty_evictions += (slot & 1) as u64;
                self.slots[set] = Self::pack(key, write);
                run.misses += 1;
                if line == first {
                    run.first_missed = true;
                }
                if line == last {
                    run.last_missed = true;
                }
            }
        }
        self.stats.hits += run.hits;
        self.stats.misses += run.misses;
        self.stats.writebacks += run.dirty_evictions;
        run
    }

    /// Whether `line` is currently cached.
    pub fn contains(&self, line: u64) -> bool {
        let (set, key) = self.split(line);
        (self.slots[set] >> 1) as u64 == key
    }

    /// Whether `line` is cached and dirty.
    pub fn is_dirty(&self, line: u64) -> bool {
        let (set, key) = self.split(line);
        let slot = self.slots[set];
        (slot >> 1) as u64 == key && slot & 1 != 0
    }

    /// Flush-and-invalidate one line (the `clflush` instruction, §3.3).
    /// Returns `true` when the line was present and dirty (the caller must
    /// write its data back to the region).
    pub fn clflush(&mut self, line: u64) -> bool {
        let (set, key) = self.split(line);
        let slot = self.slots[set];
        if (slot >> 1) as u64 != key {
            return false;
        }
        let was_dirty = slot & 1 != 0;
        self.slots[set] = 0;
        self.stats.invalidations += 1;
        if was_dirty {
            self.stats.flushes += 1;
        } else {
            self.release(set, line);
        }
        was_dirty
    }

    /// Drop a line without writing back (pure invalidation; used on the
    /// reader side of the coherency protocol where lines are clean).
    pub fn invalidate(&mut self, line: u64) {
        let (set, key) = self.split(line);
        if (self.slots[set] >> 1) as u64 == key {
            self.slots[set] = 0;
            self.stats.invalidations += 1;
            self.release(set, line);
        }
    }

    /// [`Cache::invalidate`] for every line of a contiguous run, in
    /// ascending line order, as one sweep: up to the wrap of the set index
    /// the run's sets are contiguous and its lines share one key, so each
    /// stretch is a pass over a slice of tags comparing against a
    /// constant.
    pub fn invalidate_run(&mut self, lines: std::ops::Range<u64>) {
        let sets = self.slots.len() as u64;
        let mut line = lines.start;
        while line < lines.end {
            let (set, key) = self.split(line);
            let n = (sets - set as u64).min(lines.end - line);
            // A key too wide for a slot is held by none.
            if let Ok(key) = Slot::try_from(key) {
                for i in 0..n {
                    if self.slots[set + i as usize] >> 1 == key {
                        self.invalidate(line + i);
                    }
                }
            }
            line += n;
        }
    }

    /// Prefetch the tag words of `lines` into the host's cache. A
    /// host-side hint: nothing of the cache changes.
    #[inline]
    pub(crate) fn prefetch(&self, lines: std::ops::Range<u64>) {
        for line in lines {
            let set = self.split(line).0;
            crate::shard::prefetch((&self.slots[set] as *const Slot).cast());
        }
    }

    /// Crash: all contents (including dirty lines) vanish without
    /// writeback — exactly what happens to a host's CPU cache on power
    /// loss while the CXL box stays up.
    pub fn crash(&mut self) {
        self.slots.fill(0);
        if let Some(data) = &mut self.data {
            data.fill(None);
        }
    }

    // ----- capture-mode data plumbing -------------------------------

    /// Install a data copy for `line` (after a miss fill). Capture mode
    /// only.
    pub fn put_line(&mut self, line: u64, bytes: &LineBytes) {
        let set = self.split(line).0;
        if let Some(data) = &mut self.data {
            // A different owner here would be a dirty victim nobody took:
            // a store about to be lost.
            debug_assert!(
                data[set].is_none_or(|c| c.line == line),
                "orphaned line copy"
            );
            data[set] = Some(Captured {
                line,
                bytes: *bytes,
            });
        }
    }

    /// Borrow the cached copy of `line`, if capturing and present.
    pub fn line(&self, line: u64) -> Option<&LineBytes> {
        let copy = self.data.as_ref()?[self.split(line).0].as_ref()?;
        (copy.line == line).then_some(&copy.bytes)
    }

    /// Mutably borrow the cached copy of `line`.
    pub fn line_mut(&mut self, line: u64) -> Option<&mut LineBytes> {
        let set = self.split(line).0;
        let copy = self.data.as_mut()?[set].as_mut()?;
        (copy.line == line).then_some(&mut copy.bytes)
    }

    /// Remove and return the data copy of `line` (for writeback).
    pub fn take_line(&mut self, line: u64) -> Option<LineBytes> {
        self.release(self.split(line).0, line)
    }

    /// Drop `line`'s copy from `set`, if it holds one; returns the bytes.
    #[inline]
    fn release(&mut self, set: usize, line: u64) -> Option<LineBytes> {
        let copy = self.data.as_mut()?[set].take_if(|c| c.line == line)?;
        Some(copy.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(4096);
        assert!(matches!(
            c.access(5, false),
            LineAccess::Miss {
                evicted_dirty: None
            }
        ));
        assert_eq!(c.access(5, false), LineAccess::Hit);
        assert!(c.contains(5));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        // 2 sets: lines 0 and 2 collide.
        let mut c = Cache::new(128);
        c.access(0, true); // dirty
        let out = c.access(2, false);
        assert_eq!(
            out,
            LineAccess::Miss {
                evicted_dirty: Some(0)
            }
        );
        assert!(!c.contains(0));
        assert!(c.contains(2));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_needs_no_writeback() {
        let mut c = Cache::new(128);
        c.access(0, false);
        assert_eq!(
            c.access(2, false),
            LineAccess::Miss {
                evicted_dirty: None
            }
        );
    }

    #[test]
    fn clflush_reports_dirty() {
        let mut c = Cache::new(4096);
        c.access(3, true);
        assert!(c.is_dirty(3));
        assert!(c.clflush(3));
        assert!(!c.contains(3));
        // Second flush is a no-op.
        assert!(!c.clflush(3));
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn clflush_clean_line_invalidates_only() {
        let mut c = Cache::new(4096);
        c.access(3, false);
        assert!(!c.clflush(3));
        assert!(!c.contains(3));
        assert_eq!(c.stats().flushes, 0);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn crash_discards_dirty_lines() {
        let mut c = Cache::with_capture(4096);
        c.access(1, true);
        c.put_line(1, &[7u8; 64]);
        c.crash();
        assert!(!c.contains(1));
        assert!(c.line(1).is_none());
    }

    #[test]
    fn capture_roundtrip() {
        let mut c = Cache::with_capture(4096);
        c.access(9, true);
        c.put_line(9, &[1u8; 64]);
        c.line_mut(9).unwrap()[0] = 42;
        assert_eq!(c.line(9).unwrap()[0], 42);
        let taken = c.take_line(9).unwrap();
        assert_eq!(taken[0], 42);
        assert!(c.line(9).is_none());
    }

    #[test]
    fn capture_drops_copy_on_clean_eviction() {
        let mut c = Cache::with_capture(128);
        c.access(0, false);
        c.put_line(0, &[1u8; 64]);
        c.access(2, false); // evicts line 0 (clean)
        assert!(c.line(0).is_none());
    }

    // ---- access_run vs per-line reference ---------------------------
    //
    // Drives the same sequence of runs through `access_run` and through
    // per-line `access` calls on a twin cache, asserting the returned
    // `RunAccess`, the aggregate stats, and the final tag/dirty state
    // all agree.

    fn assert_run_matches_per_line(capacity: usize, runs: &[(std::ops::Range<u64>, bool)]) {
        let mut batched = Cache::new(capacity);
        let mut per_line = Cache::new(capacity);
        for (range, write) in runs {
            let got = batched.access_run(range.clone(), *write);
            let mut want = RunAccess::default();
            let first = range.start;
            let last = range.end.saturating_sub(1);
            for line in range.clone() {
                match per_line.access(line, *write) {
                    LineAccess::Hit => want.hits += 1,
                    LineAccess::Miss { evicted_dirty } => {
                        want.misses += 1;
                        if evicted_dirty.is_some() {
                            want.dirty_evictions += 1;
                        }
                        if line == first {
                            want.first_missed = true;
                        }
                        if line == last {
                            want.last_missed = true;
                        }
                    }
                }
            }
            assert_eq!(got, want, "range {range:?} write={write}");
        }
        assert_eq!(batched.stats(), per_line.stats());
        let slots = (capacity / CACHE_LINE as usize).max(1) as u64;
        for line in 0..slots * 4 {
            assert_eq!(
                batched.contains(line),
                per_line.contains(line),
                "line {line}"
            );
            assert_eq!(
                batched.is_dirty(line),
                per_line.is_dirty(line),
                "line {line}"
            );
        }
    }

    #[test]
    fn run_empty_range_is_a_no_op() {
        assert_run_matches_per_line(4 << 10, &[(5..5, false), (0..0, true), (7..7, true)]);
        let mut c = Cache::new(4 << 10);
        assert_eq!(c.access_run(9..9, true), RunAccess::default());
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn run_exactly_filling_every_set() {
        // 4 KiB direct-mapped cache = 64 slots; a 64-line run touches
        // each set exactly once.
        let slots = (4usize << 10) / CACHE_LINE as usize;
        assert_eq!(slots, 64);
        assert_run_matches_per_line(
            4 << 10,
            &[
                (0..64, true),   // cold fill of every set, all dirty
                (0..64, false),  // full re-read: 64 hits
                (64..128, true), // aliases every set: 64 dirty evictions
                (64..128, true), // hits again
            ],
        );
    }

    #[test]
    fn run_self_aliasing_within_one_run() {
        // A run longer than the cache: its own tail evicts its own head,
        // including dirty self-evictions mid-run.
        assert_run_matches_per_line(4 << 10, &[(0..130, true), (0..130, false), (63..193, true)]);
    }

    #[test]
    fn run_single_line_and_boundaries() {
        assert_run_matches_per_line(
            4 << 10,
            &[
                (0..1, false),   // single line, first == last, miss
                (0..1, true),    // same line, hit that dirties
                (63..65, false), // spans the set-index wrap point
                (64..65, false), // single aliasing line: dirty eviction
            ],
        );
    }

    // ---- packed slot vs an unpacked reference ------------------------
    //
    // The reference keeps what the slot used to be — the full line index
    // and a separate dirty flag per set — so it has no tag-width limit.
    // The packed cache must agree with it access by access.

    struct UnpackedRef {
        slots: Vec<Option<(u64, bool)>>,
    }

    impl UnpackedRef {
        fn access(&mut self, line: u64, write: bool) -> LineAccess {
            let set = (line % self.slots.len() as u64) as usize;
            match &mut self.slots[set] {
                Some((l, dirty)) if *l == line => {
                    *dirty |= write;
                    LineAccess::Hit
                }
                slot => {
                    let evicted_dirty = match *slot {
                        Some((l, true)) => Some(l),
                        _ => None,
                    };
                    *slot = Some((line, write));
                    LineAccess::Miss { evicted_dirty }
                }
            }
        }
    }

    fn assert_packed_matches_unpacked(capacity: usize, base_line: u64) {
        let sets = capacity / CACHE_LINE as usize;
        let mut packed = Cache::new(capacity);
        let mut batched = Cache::new(capacity);
        let mut reference = UnpackedRef {
            slots: vec![None; sets],
        };
        let mut rng = simkit::rng::SimRng::seed_from_u64(0xC0FFEE ^ base_line);
        for _ in 0..4_000 {
            // Runs of 1..=5 lines drawn from 3x the cache's reach, so
            // hits, clean and dirty evictions and intra-run aliasing
            // all occur.
            let start = base_line + rng.gen_range(0..sets as u64 * 3);
            let len = rng.gen_range(1..=5u64);
            let write = rng.gen_bool(0.4);
            let mut want = RunAccess::default();
            for line in start..start + len {
                let r = reference.access(line, write);
                assert_eq!(packed.access(line, write), r, "line {line} write={write}");
                match r {
                    LineAccess::Hit => want.hits += 1,
                    LineAccess::Miss { evicted_dirty } => {
                        want.misses += 1;
                        want.dirty_evictions += evicted_dirty.is_some() as u64;
                        want.first_missed |= line == start;
                        want.last_missed |= line == start + len - 1;
                    }
                }
            }
            assert_eq!(batched.access_run(start..start + len, write), want);
        }
        assert_eq!(packed.stats(), batched.stats());
        for line in base_line..base_line + sets as u64 * 3 {
            let held = reference.slots[(line % sets as u64) as usize];
            assert_eq!(
                packed.contains(line),
                matches!(held, Some((l, _)) if l == line)
            );
            assert_eq!(packed.is_dirty(line), held == Some((line, true)));
            assert_eq!(batched.contains(line), packed.contains(line));
        }
    }

    #[test]
    fn packed_slot_matches_unpacked_for_non_power_of_two_sets() {
        // 48 sets: set/tag split by divide, not mask/shift.
        assert_packed_matches_unpacked(48 * CACHE_LINE as usize, 0);
    }

    #[test]
    fn packed_slot_matches_unpacked_for_lines_above_two_to_the_31() {
        // Line indices that would not fit a 31-bit slot themselves; the
        // stored value is the true tag `line / sets`, which does.
        for capacity in [64 * CACHE_LINE as usize, 48 * CACHE_LINE as usize] {
            assert_packed_matches_unpacked(capacity, (1 << 33) + 17);
        }
    }

    #[test]
    fn read_hit_counts_like_access_and_never_fills() {
        let mut c = Cache::new(4096);
        assert!(!c.read_hit(7), "cold line: no hit");
        assert_eq!(c.stats(), CacheStats::default(), "and nothing counted");
        assert!(!c.contains(7), "and nothing filled");
        c.access(7, true);
        assert!(c.read_hit(7));
        assert_eq!(c.stats().hits, 1);
        assert!(c.is_dirty(7), "a read hit keeps the dirty bit");
        // Capture-mode caches always decline: reads must go through the
        // per-line data plumbing.
        let mut cap = Cache::with_capture(4096);
        cap.access(7, false);
        assert!(!cap.read_hit(7));
        assert_eq!(cap.stats().hits, 0);
    }

    // ---- per-set line store vs a map of line copies -------------------
    //
    // The reference is an unpacked tag per set and a `HashMap` of line
    // copies keyed by line.

    struct MapRef {
        slots: Vec<Option<(u64, bool)>>,
        data: std::collections::HashMap<u64, LineBytes>,
        stats: CacheStats,
    }

    impl MapRef {
        fn new(sets: usize) -> Self {
            MapRef {
                slots: vec![None; sets],
                data: Default::default(),
                stats: CacheStats::default(),
            }
        }

        fn set(&self, line: u64) -> usize {
            (line % self.slots.len() as u64) as usize
        }

        fn holds(&self, line: u64) -> Option<bool> {
            self.slots[self.set(line)]
                .filter(|&(l, _)| l == line)
                .map(|(_, dirty)| dirty)
        }

        fn access(&mut self, line: u64, write: bool) -> LineAccess {
            let set = self.set(line);
            if self.holds(line).is_some() {
                self.stats.hits += 1;
                if let Some((_, dirty)) = &mut self.slots[set] {
                    *dirty |= write;
                }
                return LineAccess::Hit;
            }
            let evicted_dirty = match self.slots[set] {
                Some((victim, true)) => {
                    self.stats.writebacks += 1;
                    Some(victim)
                }
                Some((victim, false)) => {
                    self.data.remove(&victim);
                    None
                }
                None => None,
            };
            self.slots[set] = Some((line, write));
            self.stats.misses += 1;
            LineAccess::Miss { evicted_dirty }
        }

        fn clflush(&mut self, line: u64) -> bool {
            let Some(was_dirty) = self.holds(line) else {
                return false;
            };
            let set = self.set(line);
            self.slots[set] = None;
            self.stats.invalidations += 1;
            if was_dirty {
                self.stats.flushes += 1;
            } else {
                self.data.remove(&line);
            }
            was_dirty
        }

        fn invalidate(&mut self, line: u64) {
            if self.holds(line).is_some() {
                let set = self.set(line);
                self.slots[set] = None;
                self.stats.invalidations += 1;
                self.data.remove(&line);
            }
        }

        fn crash(&mut self) {
            self.slots.fill(None);
            self.data.clear();
        }
    }

    /// Tags, dirty bits, stats and — in capture mode — every stored copy
    /// agree over `reach`.
    fn assert_same_state(c: &Cache, m: &MapRef, reach: std::ops::Range<u64>) {
        assert_eq!(c.stats(), m.stats);
        for line in reach {
            assert_eq!(c.contains(line), m.holds(line).is_some(), "tag {line}");
            assert_eq!(
                c.is_dirty(line),
                m.holds(line) == Some(true),
                "dirty {line}"
            );
            if c.captures() {
                assert_eq!(c.line(line), m.data.get(&line), "copy of {line}");
            }
        }
    }

    /// Tags, statistics and every line copy equal `b`'s.
    fn assert_same(a: &Cache, b: &Cache) {
        assert_eq!(a.slots, b.slots, "tags");
        assert_eq!(a.stats, b.stats, "stats");
        assert_eq!(a.data, b.data, "line copies");
    }

    fn random_line_bytes(rng: &mut simkit::rng::SimRng) -> LineBytes {
        std::array::from_fn(|_| rng.gen())
    }

    /// Random protocol-shaped traffic — fills that take their dirty victim
    /// before installing the new copy, flushes that take what they
    /// flushed, as `cxl::Port` does — plus bare takes, invalidations and
    /// crashes, through the per-set store and the map side by side.
    fn assert_store_matches_map(sets: usize, base_line: u64, seed: u64) {
        let mut c = Cache::with_capture(sets * CACHE_LINE as usize);
        let mut m = MapRef::new(sets);
        let mut rng = simkit::rng::SimRng::seed_from_u64(seed);
        let reach = base_line..base_line + sets as u64 * 3;
        let (mut retagged_takes, mut held_takes) = (0, 0);
        for step in 0..20_000 {
            let line = rng.gen_range(reach.clone());
            match rng.gen_range(0..100u32) {
                0..=59 => {
                    let write = rng.gen_bool(0.4);
                    let r = m.access(line, write);
                    assert_eq!(c.access(line, write), r);
                    match r {
                        LineAccess::Hit => match (c.line_mut(line), m.data.get_mut(&line)) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a, b);
                                let (at, v) = (rng.gen_range(0..64usize), rng.gen());
                                (a[at], b[at]) = (v, v);
                            }
                            // The copy was taken while the tag stayed.
                            (None, None) => {}
                            (a, b) => panic!("line_mut({line}): {a:?} vs {b:?}"),
                        },
                        LineAccess::Miss { evicted_dirty } => {
                            if let Some(victim) = evicted_dirty {
                                // The set is re-tagged: the new line has no
                                // copy yet, the victim's is still there.
                                assert_eq!(c.line(line), None);
                                let taken = c.take_line(victim);
                                assert_eq!(taken, m.data.remove(&victim));
                                retagged_takes += taken.is_some() as u32;
                            }
                            let bytes = random_line_bytes(&mut rng);
                            c.put_line(line, &bytes);
                            m.data.insert(line, bytes);
                        }
                    }
                }
                60..=74 => {
                    let dirty = m.clflush(line);
                    assert_eq!(c.clflush(line), dirty);
                    if dirty {
                        assert_eq!(c.take_line(line), m.data.remove(&line));
                    }
                }
                75..=84 => {
                    c.invalidate(line);
                    m.invalidate(line);
                }
                85..=98 => {
                    // A bare take: the tag keeps the line, the copy is gone.
                    let taken = c.take_line(line);
                    assert_eq!(taken, m.data.remove(&line));
                    assert_eq!(c.line(line), None);
                    held_takes += (taken.is_some() && c.contains(line)) as u32;
                }
                _ => {
                    if rng.gen_bool(0.1) {
                        c.crash();
                        m.crash();
                    }
                }
            }
            // One copy per live line, each in its own line's set.
            let store = c.data.as_ref().expect("capture mode");
            assert_eq!(store.iter().flatten().count(), m.data.len());
            assert_eq!(c.line(line), m.data.get(&line));
            if step % 500 == 0 {
                assert_same_state(&c, &m, reach.clone());
            }
        }
        assert_same_state(&c, &m, reach);
        assert!(retagged_takes > 100 && held_takes > 100);
    }

    #[test]
    fn per_set_store_matches_a_map_of_copies() {
        assert_store_matches_map(64, 0, 0x51AB);
        assert_store_matches_map(48, 0, 0x51AC);
        assert_store_matches_map(48, (1 << 33) + 17, 0x51AD);
    }

    // ---- invalidate_run vs per-line invalidate ------------------------

    fn assert_invalidate_run_matches_per_line(sets: usize, capture: bool) {
        let cache = || {
            let bytes = sets * CACHE_LINE as usize;
            if capture {
                Cache::with_capture(bytes)
            } else {
                Cache::new(bytes)
            }
        };
        let n = sets as u64;
        let mut rng = simkit::rng::SimRng::seed_from_u64(0x1A7A ^ n);
        // Within one stretch, across the set-index wrap, the whole cache,
        // longer than the cache (wrapping twice), empty, and far above.
        let runs = [
            3..9,
            n - 5..n + 7,
            n..2 * n,
            n / 2..3 * n + 5,
            7..7,
            (1 << 33) + n - 2..(1 << 33) + n + 2,
            0..4 * n,
        ];
        for run in runs {
            let (mut swept, mut per_line) = (cache(), cache());
            let mut m = MapRef::new(sets);
            // Clean and dirty lines with copies, drawn so that about half
            // the sets hold a line of the run and the rest an alias of one.
            for _ in 0..sets * 2 {
                let line = run.start.saturating_sub(n) + rng.gen_range(0..4 * n);
                let write = rng.gen_bool(0.3);
                let bytes = random_line_bytes(&mut rng);
                let r = m.access(line, write);
                if let LineAccess::Miss { evicted_dirty } = r {
                    if let Some(victim) = evicted_dirty {
                        m.data.remove(&victim);
                    }
                    m.data.insert(line, bytes);
                }
                for c in [&mut swept, &mut per_line] {
                    assert_eq!(c.access(line, write), r);
                    if let LineAccess::Miss { evicted_dirty } = r {
                        if let Some(victim) = evicted_dirty {
                            c.take_line(victim);
                        }
                        c.put_line(line, &bytes);
                    }
                }
            }
            swept.invalidate_run(run.clone());
            for line in run.clone() {
                per_line.invalidate(line);
                m.invalidate(line);
            }
            let reach = run.start.saturating_sub(n)..run.start.saturating_sub(n) + 4 * n;
            assert_same_state(&swept, &m, reach.clone());
            assert_same_state(&per_line, &m, reach);
            assert_same(&swept, &per_line);
        }
        // A line whose key overflows a slot — here to exactly line 1's key
        // once truncated — is held by no set and must drop nothing.
        let mut c = cache();
        c.access(1, false);
        c.put_line(1, &[5; 64]);
        c.invalidate_run((n << 32)..(n << 32) + 3);
        assert!(c.contains(1) && c.line(1).is_some() == capture);
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn invalidate_run_matches_per_line_invalidate() {
        for capture in [true, false] {
            assert_invalidate_run_matches_per_line(64, capture);
            assert_invalidate_run_matches_per_line(48, capture);
        }
    }

    // ---- shifted vs the same traffic replayed at another base ----------

    /// A seeded mix of reads, writes, `clflush` and `invalidate` through a
    /// cache at `base`; `a.shifted(delta)` must be the cache the same mix
    /// leaves at `base + delta`, slot for slot and in statistics.
    fn assert_shifted_matches_replay(sets: usize, base: u64, delta: i64) {
        let traffic = |base: u64| {
            let mut c = Cache::new(sets * CACHE_LINE as usize);
            let mut rng = simkit::rng::SimRng::seed_from_u64(0x5EA7 ^ sets as u64);
            for _ in 0..6_000 {
                let line = base + rng.gen_range(0..sets as u64 * 3);
                match rng.gen_range(0..100u32) {
                    0..=44 => {
                        c.access(line, false);
                    }
                    45..=74 => {
                        c.access_run(line..line + rng.gen_range(1..=4u64), true);
                    }
                    75..=89 => {
                        c.clflush(line);
                    }
                    _ => c.invalidate(line),
                }
            }
            c
        };
        let at_base = traffic(base);
        let moved = at_base.shifted(delta);
        let replayed = traffic(base.checked_add_signed(delta).expect("test base"));
        assert_eq!(moved.slots, replayed.slots, "sets={sets} delta={delta}");
        assert_eq!(moved.stats(), replayed.stats());
        assert_eq!(moved.pow2, replayed.pow2);
        let s = at_base.stats();
        assert!(s.hits > 0 && s.writebacks > 0 && s.flushes > 0 && s.invalidations > 0);
        // And a plain clone is a different cache.
        assert_ne!(at_base.slots, replayed.slots);
    }

    #[test]
    fn shifted_cache_equals_the_replayed_one() {
        for sets in [64usize, 48] {
            // Below the set count, above it (so the key moves by more than
            // the carry), a whole number of revolutions, and backwards.
            for delta in [
                1,
                17,
                sets as i64 - 1,
                sets as i64 * 5 + 29,
                sets as i64 * 3,
            ] {
                assert_shifted_matches_replay(sets, 0, delta);
                assert_shifted_matches_replay(sets, (1 << 20) + 11, -delta);
            }
        }
        // The harness's own case: a 4 MB cache and a 14.6 MB lease.
        assert_shifted_matches_replay(65_536, 0, 233_489);
    }

    #[test]
    fn untouched_means_no_line_and_no_count() {
        let mut c = Cache::new(4096);
        assert!(c.is_untouched());
        c.access(3, false);
        assert!(!c.is_untouched());
        c.invalidate(3);
        c.stats = CacheStats::default();
        assert!(c.is_untouched());
        c.access(3, false);
        c.stats = CacheStats::default();
        assert!(!c.is_untouched(), "a held line is use, counted or not");
    }

    #[test]
    #[should_panic(expected = "capture-mode cache cannot be shifted")]
    fn shifting_a_capture_cache_is_refused() {
        Cache::with_capture(4096).shifted(1);
    }

    #[test]
    #[should_panic(expected = "cache tag exceeds 31 bits")]
    fn tag_overflow_is_refused_not_wrapped() {
        // One set: the tag is the line index itself.
        Cache::new(CACHE_LINE as usize).access(1 << 31, false);
    }

    #[test]
    fn invalidate_is_silent_drop() {
        let mut c = Cache::with_capture(4096);
        c.access(4, true);
        c.put_line(4, &[9u8; 64]);
        c.invalidate(4);
        assert!(!c.contains(4));
        assert!(c.line(4).is_none());
        assert_eq!(c.stats().flushes, 0);
    }
}
