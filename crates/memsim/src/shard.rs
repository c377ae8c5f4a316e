//! Phase-private views of a shared [`Region`] for barrier-synchronized
//! stepping.
//!
//! Between virtual-time barriers each simulated node steps against a
//! *private* view of the shared memory region:
//!
//! - a [`RegionReader`] — an immutable raw-pointer window over the region
//!   bytes;
//! - a [`WriteLog`] — the node's pending stores, applied to the real
//!   region at the barrier in fixed node order.
//!
//! Reads go through [`WriteLog::read_through`], which patches the node's
//! *own* pending stores over the base bytes: a node always observes its
//! own writes immediately (program order), while peers' writes become
//! visible at the next barrier — a bounded staleness of at most one
//! quantum, whatever order the nodes step in. Timing never depends
//! on page *content*, and content-correctness oracles run after the final
//! barrier, so the lag is a model choice, not a race.
//!
//! A per-line bitmap of pending stores lets the common read — one that
//! overlaps none of them — skip the overlay scan. A set bit can only add
//! the scan back, never change a byte.

use crate::cache::line_range;
use crate::region::Region;

/// An immutable window over a region's bytes.
///
/// # Safety contract
///
/// A `RegionReader` borrows nothing: it captures a raw pointer. It is
/// only valid while the region it was derived from is neither mutated
/// nor moved. Drivers uphold this by re-deriving every reader at each
/// barrier (after [`WriteLog::apply`] runs) and never touching the
/// region mid-phase.
#[derive(Debug, Clone, Copy)]
pub struct RegionReader {
    ptr: *const u8,
    len: usize,
}

impl RegionReader {
    /// Capture a read-only window over `region`'s current storage.
    ///
    /// # Panics
    /// When a copy left some of `region`'s windows mapped: the reader
    /// reads raw bytes at their own addresses. The sharing harnesses that
    /// detach nodes never copy a lease.
    pub fn new(region: &Region) -> Self {
        assert_eq!(
            region.owned_bytes(),
            region.len(),
            "a RegionReader needs a region with no mapped copies"
        );
        let s = region.slice(0, region.len());
        RegionReader {
            ptr: s.as_ptr(),
            len: s.len(),
        }
    }

    /// Window size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copy `buf.len()` bytes starting at `off` into `buf`.
    ///
    /// # Panics
    /// On out-of-bounds access, matching [`Region::read`].
    #[inline]
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let off = off as usize;
        assert!(
            off.checked_add(buf.len())
                .is_some_and(|end| end <= self.len),
            "RegionReader::read out of bounds: off={off} len={} size={}",
            buf.len(),
            self.len
        );
        // SAFETY: bounds checked above; validity per the struct contract.
        unsafe {
            std::ptr::copy_nonoverlapping(self.ptr.add(off), buf.as_mut_ptr(), buf.len());
        }
    }
}

/// Lay a pending store of `data` at `store_off` over `buf`, the bytes read
/// at `off`, wherever the two overlap.
#[inline]
pub fn overlay(off: u64, buf: &mut [u8], store_off: u64, data: &[u8]) {
    let lo = store_off.max(off);
    let hi = (store_off + data.len() as u64).min(off + buf.len() as u64);
    if lo < hi {
        let src = &data[(lo - store_off) as usize..(hi - store_off) as usize];
        buf[(lo - off) as usize..(hi - off) as usize].copy_from_slice(src);
    }
}

/// Bits in a [`WriteLog`]'s pending-line filter.
const FILTER_BITS: usize = 4096;

/// Filter bit of `line` (a byte offset / 64): the top bits of a
/// multiplicative hash, so the page-strided lines a node stores to do not
/// alias the way `line % FILTER_BITS` would.
#[inline]
fn filter_bit(line: u64) -> usize {
    (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - FILTER_BITS.trailing_zeros())) as usize
}

/// One node's pending stores for the current quantum.
///
/// Stores append to a byte arena; [`WriteLog::apply`] replays them onto
/// the real region in program order at the barrier. Capacity is retained
/// across quanta, so the steady state allocates nothing.
///
/// A fixed-size bitmap hashed by line records which lines have a pending
/// store, so a read whose lines are all clear is the base bytes alone and
/// skips the overlay scan. A set bit only ever *adds* the scan (a false
/// positive costs time), and a read that overlaps a store shares a line
/// with it and so always sees that line's bit: the filter cannot change a
/// byte.
#[derive(Debug)]
pub struct WriteLog {
    /// `(region_off, arena_off, len)` in program order.
    entries: Vec<(u64, usize, usize)>,
    arena: Vec<u8>,
    pending: [u64; FILTER_BITS / 64],
}

impl Default for WriteLog {
    fn default() -> Self {
        WriteLog {
            entries: Vec::new(),
            arena: Vec::new(),
            pending: [0; FILTER_BITS / 64],
        }
    }
}

impl WriteLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteLog::default()
    }

    /// Whether any stores are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of pending stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Record a store of `data` at `off`.
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let a = self.arena.len();
        self.arena.extend_from_slice(data);
        self.entries.push((off, a, data.len()));
        for line in line_range(off, data.len()) {
            let bit = filter_bit(line);
            self.pending[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Read `buf.len()` bytes at `off`: base bytes, patched with this
    /// log's pending stores in program order (read-your-own-writes).
    pub fn read_through(&self, base: &RegionReader, off: u64, buf: &mut [u8]) {
        base.read(off, buf);
        if line_range(off, buf.len()).any(|line| self.is_pending(line)) {
            for &(eoff, aoff, len) in &self.entries {
                overlay(off, buf, eoff, &self.arena[aoff..aoff + len]);
            }
        }
    }

    /// Whether a pending store may touch `line` (never a false negative).
    #[inline]
    fn is_pending(&self, line: u64) -> bool {
        let bit = filter_bit(line);
        (self.pending[bit / 64] >> (bit % 64)) & 1 != 0
    }

    /// Replay every pending store onto `region` in program order and
    /// clear the log (retaining capacity).
    pub fn apply(&mut self, region: &mut Region) {
        for &(off, aoff, len) in &self.entries {
            region.write(off, &self.arena[aoff..aoff + len]);
        }
        self.entries.clear();
        self.arena.clear();
        self.pending = [0; FILTER_BITS / 64];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no mapped copies")]
    fn a_reader_refuses_a_region_holding_a_mapped_copy() {
        let mut region = Region::persistent(1 << 20);
        region.copy_disjoint(0, 512 << 10, 512 << 10);
        RegionReader::new(&region);
    }

    #[test]
    fn read_through_patches_own_writes_in_program_order() {
        let mut region = Region::persistent(256);
        region.write(0, &[1u8; 256]);
        let reader = RegionReader::new(&region);
        let mut log = WriteLog::new();
        log.write(10, &[2u8; 8]);
        log.write(12, &[3u8; 2]); // overlaps: later store wins
        let mut buf = [0u8; 16];
        log.read_through(&reader, 8, &mut buf);
        assert_eq!(buf[0..2], [1, 1]); // untouched base
        assert_eq!(buf[2..4], [2, 2]); // first store
        assert_eq!(buf[4..6], [3, 3]); // second store over it
        assert_eq!(buf[6..10], [2, 2, 2, 2]); // rest of first store
        assert_eq!(buf[10..], [1; 6]); // base again
    }

    // ---- filtered read_through vs the plain overlay scan --------------
    //
    // The reference is `read_through` as it was before the pending-line
    // filter: base bytes, then every store of the quantum in order.

    #[derive(Default)]
    struct PlainLog {
        stores: Vec<(u64, Vec<u8>)>,
    }

    impl PlainLog {
        fn read_through(&self, region: &Region, off: u64, buf: &mut [u8]) {
            region.read(off, buf);
            for (store_off, data) in &self.stores {
                overlay(off, buf, *store_off, data);
            }
        }

        fn apply(&mut self, region: &mut Region) {
            for (off, data) in self.stores.drain(..) {
                region.write(off, &data);
            }
        }
    }

    #[test]
    fn filtered_read_through_matches_the_plain_scan() {
        use simkit::rng::SimRng;
        const SIZE: u64 = 4 << 20; // 65 536 lines, 16x the filter
        let mut rng = SimRng::seed_from_u64(0xF117_E12D);
        let mut region = Region::persistent(SIZE as usize);
        let seed_bytes: Vec<u8> = (0..SIZE).map(|_| rng.gen()).collect();
        region.write(0, &seed_bytes);
        let mut log = WriteLog::new();
        let mut plain = PlainLog::default();
        // Quanta from a handful of stores (the filter passes most reads)
        // to page-sized stores over far more than FILTER_BITS distinct
        // lines (every bit set: every read takes the scan).
        for (stores, max_len) in [(6, 200), (60, 200), (400, 64 << 10), (0, 1), (25, 130)] {
            let reader = RegionReader::new(&region);
            let (mut skipped, mut reads) = (0, 0);
            for i in 0..=stores {
                if i > 0 {
                    // Zero-length, sub-line, line-straddling and multi-page
                    // stores; a third land near an earlier store so that
                    // stores overlap each other.
                    let len = match rng.gen_range(0..8u32) {
                        0 => 0,
                        1..=4 => rng.gen_range(1..=130usize).min(max_len),
                        _ => rng.gen_range(1..=max_len),
                    };
                    let near = plain.stores.last().filter(|_| rng.gen_bool(0.3));
                    let off = match near {
                        Some(&(o, _)) => (o + rng.gen_range(0..96u64)).min(SIZE - len as u64),
                        None => rng.gen_range(0..=SIZE - len as u64),
                    };
                    let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    log.write(off, &data);
                    plain.stores.push((off, data));
                }
                for _ in 0..40 {
                    let len = match rng.gen_range(0..8u32) {
                        0 => 0,
                        1..=5 => rng.gen_range(1..=200usize),
                        _ => rng.gen_range(1..=20_000usize),
                    };
                    // Half the reads aim at a pending store, half anywhere.
                    let aimed = plain
                        .stores
                        .get(rng.gen_range(0..plain.stores.len().max(1)));
                    let off = match aimed.filter(|_| rng.gen_bool(0.5)) {
                        Some(&(o, _)) => o.saturating_sub(rng.gen_range(0..96u64)),
                        None => rng.gen_range(0..SIZE),
                    }
                    .min(SIZE - len as u64);
                    let mut got = vec![0u8; len];
                    let mut want = vec![0u8; len];
                    log.read_through(&reader, off, &mut got);
                    plain.read_through(&region, off, &mut want);
                    assert!(got == want, "read at {off} len {len}");
                    reads += 1;
                    skipped += !line_range(off, len).any(|l| log.is_pending(l)) as u32;
                }
            }
            // Both sides of the filter ran where the quantum allows it.
            let saturated = log.pending.iter().all(|w| *w == u64::MAX);
            match stores {
                0 => assert_eq!(skipped, reads, "an empty log filters everything"),
                400 => assert!(saturated, "the bitmap saturates"),
                _ => assert!(!saturated && skipped > 0 && skipped < reads),
            }
            assert_eq!(log.len(), plain.stores.len());
            log.apply(&mut region);
            plain.apply(&mut region);
            assert!(
                log.pending.iter().all(|w| *w == 0),
                "apply clears the filter"
            );
        }
    }

    #[test]
    fn apply_replays_and_clears() {
        let mut region = Region::persistent(64);
        let mut log = WriteLog::new();
        log.write(0, &[5u8; 4]);
        log.write(2, &[6u8; 4]);
        assert_eq!(log.len(), 2);
        log.apply(&mut region);
        assert!(log.is_empty());
        assert_eq!(region.slice(0, 6), &[5, 5, 6, 6, 6, 6]);
        // Region state now matches what read_through showed mid-quantum.
    }

    #[test]
    fn reader_matches_region_reads() {
        let mut region = Region::volatile(128);
        region.write(40, b"abcdef");
        let reader = RegionReader::new(&region);
        let mut a = [0u8; 6];
        let mut b = [0u8; 6];
        reader.read(40, &mut a);
        region.read(40, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn reader_out_of_bounds_panics() {
        let region = Region::volatile(8);
        let reader = RegionReader::new(&region);
        let mut buf = [0u8; 4];
        reader.read(6, &mut buf);
    }
}
