//! Byte-addressable backing stores.
//!
//! A [`Region`] is the *data* half of a simulated memory device: a flat
//! byte array that real reads and writes hit with real `memcpy`s. Timing
//! is charged by the access layers ([`crate::cxl`], [`crate::rdma`],
//! [`crate::dram`]); the region itself only stores bytes and knows whether
//! it survives a host crash (the CXL memory box has its own PSU, §3.2).

use std::fmt;

/// A flat, byte-addressable memory region.
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

    /// Whether this region survives host crashes.
    pub fn is_persistent(&self) -> bool {
        self.persistent
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
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let r = Region::volatile(8);
        let mut buf = [0u8; 4];
        r.read(6, &mut buf);
    }
}
