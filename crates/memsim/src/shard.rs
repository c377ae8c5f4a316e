//! Phase-private views of a shared [`Region`] for barrier-synchronized
//! parallel stepping (see [`simkit::par`]).
//!
//! Between virtual-time barriers each simulated node runs on its own host
//! thread against a *private* view of the shared memory region:
//!
//! - a [`RegionReader`] — an immutable raw-pointer window over the region
//!   bytes, shareable across threads;
//! - a [`WriteLog`] — the node's pending stores, applied to the real
//!   region at the barrier in fixed node order.
//!
//! Reads go through [`WriteLog::read_through`], which patches the node's
//! *own* pending stores over the base bytes: a node always observes its
//! own writes immediately (program order), while peers' writes become
//! visible at the next barrier — a bounded staleness of at most one
//! quantum, identical for every host-thread count. Timing never depends
//! on page *content*, and content-correctness oracles run after the final
//! barrier, so the lag is a model choice, not a race.

use crate::region::Region;

/// A shareable immutable window over a region's bytes.
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

// SAFETY: the pointed-to bytes are immutable for the reader's whole
// validity window (see the struct-level safety contract), so concurrent
// reads from any thread are data-race free.
unsafe impl Send for RegionReader {}
unsafe impl Sync for RegionReader {}

impl RegionReader {
    /// Capture a read-only window over `region`'s current storage.
    pub fn new(region: &Region) -> Self {
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

/// One node's pending stores for the current quantum.
///
/// Stores append to a byte arena; [`WriteLog::apply`] replays them onto
/// the real region in program order at the barrier. Capacity is retained
/// across quanta, so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// `(region_off, arena_off, len)` in program order.
    entries: Vec<(u64, usize, usize)>,
    arena: Vec<u8>,
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
    }

    /// Read `buf.len()` bytes at `off`: base bytes, patched with this
    /// log's pending stores in program order (read-your-own-writes).
    pub fn read_through(&self, base: &RegionReader, off: u64, buf: &mut [u8]) {
        base.read(off, buf);
        for &(eoff, aoff, len) in &self.entries {
            overlay(off, buf, eoff, &self.arena[aoff..aoff + len]);
        }
    }

    /// Replay every pending store onto `region` in program order and
    /// clear the log (retaining capacity).
    pub fn apply(&mut self, region: &mut Region) {
        for &(off, aoff, len) in &self.entries {
            region.write(off, &self.arena[aoff..aoff + len]);
        }
        self.entries.clear();
        self.arena.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
