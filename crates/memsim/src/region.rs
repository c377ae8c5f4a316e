//! Byte-addressable backing stores.
//!
//! A [`Region`] is the *data* half of a simulated memory device: a
//! byte array that real reads and writes hit with real `memcpy`s. Timing
//! is charged by the access layers ([`crate::cxl`], [`crate::rdma`],
//! [`crate::dram`]); the region itself only stores bytes and knows whether
//! it survives a host crash (the CXL memory box has its own PSU, §3.2).
//!
//! A copy inside a region is mapped, not moved. The region is cut into
//! 256 KB windows, and [`Region::copy_disjoint`] points every window the
//! copy covers whole at the source's bytes; the bytes at the copy's two
//! ragged edges move at once. A window takes bytes of its own when it is
//! first written, and a source window hands its bytes to the windows
//! reading through it before it is written itself. Addresses never move:
//! the mapping is below every access layer, so nothing above a region
//! can tell a mapped copy from a moved one.

use std::fmt;

/// log2 of a copy-on-write window: 256 KB, a whole number of 16 KB pages.
const WINDOW_SHIFT: u32 = 18;
const WINDOW: usize = 1 << WINDOW_SHIFT;

/// Bit 0 of a window's state: windows of a copy read through this one.
const SHARED: i64 = 1;

/// A byte-addressable memory region.
#[derive(Clone)]
pub struct Region {
    bytes: Vec<u8>,
    /// One state per window, kept from the first copy that maps one
    /// (empty before: a region nobody copies reads and writes as a flat
    /// array and allocates nothing more). A state is the distance from
    /// the window's addresses to where its bytes live, shifted left one
    /// bit, with [`SHARED`] in bit 0. A window of distance 0 holds its
    /// own bytes; only state 0 lets a write through without stopping. A
    /// mapped window (non-zero distance) is always whole and always reads
    /// through windows that hold their own bytes — never through another
    /// mapped one — so a read adds one distance and no chain is ever
    /// followed. One window past the end keeps `off == len()` in range.
    windows: Vec<i64>,
    /// Whether contents survive a simulated host crash.
    persistent: bool,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.bytes.len())
            .field("owned_bytes", &self.owned_bytes())
            .field("persistent", &self.persistent)
            .finish()
    }
}

impl Region {
    fn new(len: usize, persistent: bool) -> Self {
        Region {
            bytes: vec![0; len],
            windows: Vec::new(),
            persistent,
        }
    }

    /// A volatile region (host DRAM): wiped by [`Region::crash`].
    pub fn volatile(len: usize) -> Self {
        Self::new(len, false)
    }

    /// A crash-persistent region (CXL memory box behind its own PSU).
    pub fn persistent(len: usize) -> Self {
        Self::new(len, true)
    }

    /// Region size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes held by windows that hold their own bytes: [`Region::len`]
    /// less the windows a copy left mapped. Equal to `len()` until a
    /// [`Region::copy_disjoint`] covers a whole window, and again once
    /// every mapped window has been written.
    pub fn owned_bytes(&self) -> usize {
        let mapped = self.windows.iter().filter(|&&s| s >> 1 != 0).count();
        self.bytes.len() - mapped * WINDOW
    }

    /// Where window `w`'s bytes live, as a distance from its own.
    fn distance(&self, w: usize) -> isize {
        self.windows.get(w).map_or(0, |&s| (s >> 1) as isize)
    }

    /// Where the `len` bytes at `off` live, when one window holds them
    /// or the region maps nothing. Past a mapped region's last window it
    /// answers `off`, for the byte array to refuse.
    #[inline]
    fn within(&self, off: usize, len: usize) -> Option<usize> {
        let w = off >> WINDOW_SHIFT;
        match self.windows.get(w) {
            None => Some(off),
            Some(&s) => (off + len <= (w + 1) << WINDOW_SHIFT)
                .then(|| off.wrapping_add_signed((s >> 1) as isize)),
        }
    }

    /// Copy `buf.len()` bytes starting at `off` into `buf`.
    ///
    /// # Panics
    /// On out-of-bounds access — a simulated wild pointer is a bug in the
    /// caller, not a recoverable condition.
    #[inline]
    pub fn read(&self, off: u64, buf: &mut [u8]) {
        let off = off as usize;
        let Some(at) = self.within(off, buf.len()) else {
            return self.read_split(off, buf);
        };
        let src = &self.bytes[at..at + buf.len()];
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

    /// A read that crosses a window boundary: one copy per window.
    #[cold]
    #[inline(never)]
    fn read_split(&self, off: usize, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let at = off + done;
            let w = at >> WINDOW_SHIFT;
            let n = (((w + 1) << WINDOW_SHIFT) - at).min(buf.len() - done);
            let from = at.wrapping_add_signed(self.distance(w));
            buf[done..done + n].copy_from_slice(&self.bytes[from..from + n]);
            done += n;
        }
    }

    /// Copy `data` into the region starting at `off`.
    #[inline]
    pub fn write(&mut self, off: u64, data: &[u8]) {
        let off = off as usize;
        self.own(off, data.len());
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Borrow a slice of the region (zero-copy read path for hot loops).
    ///
    /// # Panics
    /// When the range spans windows whose bytes live in two places — a
    /// mapped copy next to a window of its own, or two copies — since no
    /// one slice holds them. Meta lines (64 bytes, line-aligned) and
    /// pages (16 KB, page-aligned) never cross a 256 KB window; a longer
    /// or ragged range of a region that may hold copies is read with
    /// [`Region::read`].
    #[inline]
    pub fn slice(&self, off: u64, len: usize) -> &[u8] {
        let off = off as usize;
        let at = self
            .within(off, len)
            .unwrap_or_else(|| self.contiguous(off, len));
        &self.bytes[at..at + len]
    }

    /// Where a range that crosses windows lives, when all its windows
    /// read at one distance.
    #[cold]
    #[inline(never)]
    fn contiguous(&self, off: usize, len: usize) -> usize {
        let mut span = off >> WINDOW_SHIFT..=(off + len - 1) >> WINDOW_SHIFT;
        let d = self.distance(*span.start());
        assert!(
            span.all(|w| self.distance(w) == d),
            "a borrowed slice cannot span two sources: read the range with Region::read"
        );
        off.wrapping_add_signed(d)
    }

    /// Mutably borrow a slice of the region.
    #[inline]
    pub fn slice_mut(&mut self, off: u64, len: usize) -> &mut [u8] {
        let off = off as usize;
        self.own(off, len);
        &mut self.bytes[off..off + len]
    }

    /// Make every window under `[off, off + len)` hold its own bytes with
    /// nothing reading through it, so the range can be written in place.
    #[inline]
    fn own(&mut self, off: usize, len: usize) {
        let w = off >> WINDOW_SHIFT;
        if let Some(&s) = self.windows.get(w) {
            if s != 0 || off + len > (w + 1) << WINDOW_SHIFT {
                self.own_range(off, len);
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn own_range(&mut self, off: usize, len: usize) {
        let end = (off + len).div_ceil(WINDOW).min(self.windows.len());
        for w in off >> WINDOW_SHIFT..end {
            self.own_window(w);
        }
    }

    /// Window `w` takes its bytes back from where they live, and every
    /// window reading through it takes its own first.
    fn own_window(&mut self, w: usize) {
        let state = self.windows[w];
        if state & SHARED != 0 {
            let (lo, hi) = (w << WINDOW_SHIFT, (w + 1) << WINDOW_SHIFT);
            for v in 0..self.windows.len() {
                let d = self.distance(v);
                let at = (v << WINDOW_SHIFT).wrapping_add_signed(d);
                if d != 0 && at < hi && at + WINDOW > lo {
                    self.materialise(v);
                }
            }
        } else if state != 0 {
            self.materialise(w);
        }
        self.windows[w] = 0;
    }

    /// Mapped window `v` copies in the bytes it reads through.
    fn materialise(&mut self, v: usize) {
        let start = v << WINDOW_SHIFT;
        let from = start.wrapping_add_signed(self.distance(v));
        self.bytes.copy_within(from..from + WINDOW, start);
        self.windows[v] = 0;
    }

    /// Copy `len` bytes from `src` to `dst` within the region — seating
    /// one instance's slice as a copy of another's, untimed. Afterwards
    /// the destination reads as the source read at the copy.
    ///
    /// Every window the destination covers whole is mapped onto the
    /// source's bytes; only the ragged edges are moved. A source window
    /// that is itself mapped takes its own bytes first, so no mapping
    /// chains; one that is already read through by earlier copies keeps
    /// its readers mapped.
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
        if len == 0 {
            return;
        }
        // The source's windows hold their own bytes (no chains).
        for w in src >> WINDOW_SHIFT..=(src + len - 1) >> WINDOW_SHIFT {
            if self.distance(w) != 0 {
                self.materialise(w);
            }
        }
        // Destination windows [first, end) are covered whole and mapped;
        // the ragged edges before `head` and from `tail` on are copied.
        let first = dst.next_multiple_of(WINDOW) >> WINDOW_SHIFT;
        let end = (dst + len) >> WINDOW_SHIFT;
        let (head, tail) = match first < end {
            true => (first << WINDOW_SHIFT, end << WINDOW_SHIFT),
            false => (dst + len, dst + len),
        };
        let delta = src as isize - dst as isize;
        for (from, to) in [(dst, head), (tail, dst + len)] {
            if from < to {
                self.own_range(from, to - from);
                let at = from.wrapping_add_signed(delta);
                self.bytes.copy_within(at..at + (to - from), from);
            }
        }
        if first < end {
            if self.windows.is_empty() {
                self.windows = vec![0; self.bytes.len() / WINDOW + 1];
            }
            for w in first..end {
                if self.windows[w] & SHARED != 0 {
                    self.own_window(w);
                }
                self.windows[w] = (delta as i64) << 1;
            }
            let (lo, hi) = (
                head.wrapping_add_signed(delta),
                tail.wrapping_add_signed(delta),
            );
            for w in lo >> WINDOW_SHIFT..hi.div_ceil(WINDOW) {
                self.windows[w] |= SHARED;
            }
        }
    }

    /// Zero a byte range.
    pub fn zero(&mut self, off: u64, len: usize) {
        let off = off as usize;
        self.own(off, len);
        self.bytes[off..off + len].fill(0);
    }

    /// Simulate a host power loss: volatile regions are wiped (and the
    /// wipe pattern is deliberately non-zero so "accidentally reading
    /// crashed memory" fails loudly in tests); persistent regions keep
    /// their contents.
    pub fn crash(&mut self) {
        if !self.persistent {
            self.bytes.fill(0xDE);
            self.windows.clear();
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

    /// A mapped window that reads a single line of a source window is
    /// one of that window's readers: writing the line moves it first.
    #[test]
    fn a_reader_of_one_line_is_materialised_by_a_write_to_it() {
        let w = WINDOW as u64;
        for (src, line) in [(w + 64, 2 * w), (2 * w - 64, 2 * w - 64)] {
            let mut r = Region::persistent(8 * WINDOW);
            let old: Vec<u8> = (0..4 * WINDOW).map(|i| (i % 251) as u8).collect();
            r.write(0, &old);
            r.copy_disjoint(src, 5 * w, WINDOW);
            assert_eq!(r.owned_bytes(), 7 * WINDOW);
            r.write(line, &[0xAA; 64]);
            assert_eq!(r.owned_bytes(), 8 * WINDOW, "the reader took its bytes");
            let mut copy = vec![0; WINDOW];
            r.read(5 * w, &mut copy);
            assert!(
                copy == old[src as usize..][..WINDOW],
                "the copy kept the old line"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot span two sources")]
    fn a_slice_across_a_mapped_copy_is_refused() {
        let mut r = Region::volatile(4 * WINDOW);
        r.copy_disjoint(0, 2 * WINDOW as u64, WINDOW);
        assert_eq!(r.owned_bytes(), 3 * WINDOW, "the copy is mapped");
        r.slice(2 * WINDOW as u64 - 64, 128);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let r = Region::volatile(8);
        let mut buf = [0u8; 4];
        r.read(6, &mut buf);
    }
}
