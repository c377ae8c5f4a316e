//! Byte-addressable backing stores.
//!
//! A [`Region`] is the *data* half of a simulated memory device: a flat
//! byte array that real reads and writes hit with real `memcpy`s. Timing
//! is charged by the access layers ([`crate::cxl`], [`crate::rdma`],
//! [`crate::dram`]); the region itself only stores bytes and knows whether
//! it survives a host crash (the CXL memory box has its own PSU, §3.2).

use std::fmt;

/// A flat, byte-addressable memory region.
#[derive(Clone)]
pub struct Region {
    bytes: Vec<u8>,
    /// Whether contents survive a simulated host crash.
    persistent: bool,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.bytes.len())
            .field("persistent", &self.persistent)
            .finish()
    }
}

impl Region {
    /// A volatile region (host DRAM): wiped by [`Region::crash`].
    pub fn volatile(len: usize) -> Self {
        Region {
            bytes: vec![0; len],
            persistent: false,
        }
    }

    /// A crash-persistent region (CXL memory box behind its own PSU).
    pub fn persistent(len: usize) -> Self {
        Region {
            bytes: vec![0; len],
            persistent: true,
        }
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Copy `buf.len()` bytes starting at `off` into `buf`.
    ///
    /// # Panics
    /// On out-of-bounds access — a simulated wild pointer is a bug in the
    /// caller, not a recoverable condition.
    #[inline]
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let off = off as usize;
        let src = &self.bytes[off..off + buf.len()];
        // B+tree field reads are 8-byte keys/pointers and 2-byte slots.
        // Moving those as integers makes each one load and one store; left
        // as three `copy_from_slice` arms the optimiser folds them back
        // into a single variable-length call into libc's `memcpy`.
        if let Ok(dst) = <&mut [u8; 8]>::try_from(&mut *buf) {
            let v = u64::from_ne_bytes(src.try_into().expect("same length as dst"));
            *dst = v.to_ne_bytes();
        } else if let Ok(dst) = <&mut [u8; 2]>::try_from(&mut *buf) {
            let v = u16::from_ne_bytes(src.try_into().expect("same length as dst"));
            *dst = v.to_ne_bytes();
        } else {
            buf.copy_from_slice(src);
        }
    }

    /// Copy `data` into the region starting at `off`.
    #[inline]
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let off = off as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Borrow a slice of the region (zero-copy read path for hot loops).
    #[inline]
    pub fn slice(&self, off: u64, len: usize) -> &[u8] {
        let off = off as usize;
        &self.bytes[off..off + len]
    }

    /// Mutably borrow a slice of the region.
    #[inline]
    pub fn slice_mut(&mut self, off: u64, len: usize) -> &mut [u8] {
        let off = off as usize;
        &mut self.bytes[off..off + len]
    }

    /// Copy `len` bytes from `src` to `dst` within the region — seating
    /// one instance's slice as a copy of another's, untimed.
    ///
    /// # Panics
    /// When the destination overlaps the source (the copy would eat the
    /// instance it is taken from) or leaves the region.
    // `#[inline]` so the body is compiled where it is called (once per
    // seated instance), not into this module's codegen unit: a set-up
    // function landing there regroups `memsim`'s units, `WriteLog::write`
    // stops being inlined into `cxl::Port::*`, and `share_mixed` loses
    // 5-7 % of its host speed (docs/ledger-pairs.md, ISSUE 19).
    #[inline]
    pub fn copy_disjoint(&mut self, src: u64, dst: u64, len: usize) {
        let (src, dst) = (src as usize, dst as usize);
        assert!(
            dst + len <= self.bytes.len(),
            "copy destination leaves the region"
        );
        assert!(
            src + len <= dst || dst + len <= src,
            "copy destination overlaps its source"
        );
        self.bytes.copy_within(src..src + len, dst);
    }

    /// Zero a byte range.
    pub fn zero(&mut self, off: u64, len: usize) {
        let off = off as usize;
        self.bytes[off..off + len].fill(0);
    }

    /// Simulate a host power loss: volatile regions are wiped (and the
    /// wipe pattern is deliberately non-zero so "accidentally reading
    /// crashed memory" fails loudly in tests); persistent regions keep
    /// their contents.
    pub fn crash(&mut self) {
        if !self.persistent {
            self.bytes.fill(0xDE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut r = Region::volatile(1024);
        r.write(100, b"hello");
        let mut buf = [0u8; 5];
        r.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn slices_alias_storage() {
        let mut r = Region::persistent(64);
        r.slice_mut(0, 4).copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(r.slice(0, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn crash_wipes_volatile_only() {
        let mut v = Region::volatile(16);
        let mut p = Region::persistent(16);
        v.write(0, &[7; 16]);
        p.write(0, &[7; 16]);
        v.crash();
        p.crash();
        assert_eq!(v.slice(0, 16), &[0xDE; 16]);
        assert_eq!(p.slice(0, 16), &[7; 16]);
    }

    #[test]
    fn zero_clears_range() {
        let mut r = Region::volatile(32);
        r.write(0, &[9; 32]);
        r.zero(8, 8);
        assert_eq!(r.slice(7, 1), &[9]);
        assert_eq!(r.slice(8, 8), &[0; 8]);
        assert_eq!(r.slice(16, 1), &[9]);
    }

    #[test]
    fn copy_disjoint_moves_bytes_either_way() {
        let mut r = Region::volatile(32);
        r.write(0, &[1, 2, 3, 4]);
        r.copy_disjoint(0, 8, 4);
        assert_eq!(r.slice(8, 4), &[1, 2, 3, 4]);
        r.write(28, &[9; 4]);
        r.copy_disjoint(28, 4, 4);
        assert_eq!(r.slice(4, 4), &[9; 4]);
        assert_eq!(r.slice(0, 4), &[1, 2, 3, 4], "source untouched");
    }

    #[test]
    #[should_panic(expected = "overlaps its source")]
    fn copy_onto_its_own_source_is_refused() {
        Region::volatile(32).copy_disjoint(0, 4, 8);
    }

    #[test]
    #[should_panic(expected = "leaves the region")]
    fn copy_past_the_end_is_refused() {
        Region::volatile(32).copy_disjoint(0, 28, 8);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let r = Region::volatile(8);
        let mut buf = [0u8; 4];
        r.read(6, &mut buf);
    }
}
