//! Deterministic randomness helpers.
//!
//! All stochastic choices in the simulator (workload keys, crash points,
//! think times) flow through seeded PRNGs derived from a single root seed,
//! so every experiment is reproducible bit-for-bit.
//!
//! The generator is a self-contained xoshiro256++ (public domain
//! reference algorithm by Blackman & Vigna) seeded through SplitMix64 —
//! no external crates, so the workspace builds with zero network access,
//! and the stream is stable across Rust and platform versions (which
//! `StdRng` explicitly does not guarantee).

use std::ops::{Range, RangeInclusive};

/// Derive a child seed from a root seed and a stream label.
///
/// Uses SplitMix64 finalization so nearby labels produce decorrelated
/// streams (important when instance 3's workload must not echo
/// instance 2's).
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded [`SimRng`] for the given root seed and stream label.
pub fn stream_rng(root: u64, stream: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(root, stream))
}

/// Deterministic, dependency-free PRNG (xoshiro256++).
///
/// The API mirrors the subset of `rand::Rng` the simulator uses:
/// [`SimRng::gen`], [`SimRng::gen_range`], [`SimRng::gen_bool`] and
/// [`SimRng::fill_bytes`]. Not cryptographically secure — it only has to
/// be fast, well-distributed and replayable.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed the full 256-bit state from one `u64` via SplitMix64, as the
    /// xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform value of any [`Random`] type.
    #[inline]
    pub fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Uniform integer in the given half-open or inclusive range.
    /// Panics on an empty range, matching `rand::Rng::gen_range`.
    #[inline]
    pub fn gen_range<T: UniformInt, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds();
        let (lo_u, hi_u) = (lo.to_offset_u64(), hi.to_offset_u64());
        assert!(lo_u <= hi_u, "cannot sample from an empty range");
        let span = hi_u - lo_u;
        if span == u64::MAX {
            return T::from_offset_u64(self.next_u64());
        }
        T::from_offset_u64(lo_u + self.bounded(span + 1))
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fill `dst` with uniform bytes.
    pub fn fill_bytes(&mut self, dst: &mut [u8]) {
        let mut chunks = dst.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }

    /// Unbiased uniform draw in `[0, bound)` (Lemire's multiply-shift
    /// with rejection); `bound` must be non-zero.
    #[inline]
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let mut m = (self.next_u64() as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                m = (self.next_u64() as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Types [`SimRng::gen`] can produce uniformly.
pub trait Random {
    /// Draw one uniform value.
    fn random(rng: &mut SimRng) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty),*) => {$(
        impl Random for $t {
            #[inline]
            fn random(rng: &mut SimRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_random_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for bool {
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn random(rng: &mut SimRng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Integer types [`SimRng::gen_range`] can sample, mapped order-
/// preservingly onto `u64` (signed types are offset by `MIN`).
pub trait UniformInt: Copy {
    /// Order-preserving map into `u64`.
    fn to_offset_u64(self) -> u64;
    /// Inverse of [`UniformInt::to_offset_u64`].
    fn from_offset_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_offset_u64(self) -> u64 { self as u64 }
            #[inline]
            fn from_offset_u64(v: u64) -> Self { v as $t }
        }
    )*};
}
impl_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty as $u:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_offset_u64(self) -> u64 { (self as $u ^ <$t>::MIN as $u) as u64 }
            #[inline]
            fn from_offset_u64(v: u64) -> Self { (v as $u ^ <$t>::MIN as $u) as $t }
        }
    )*};
}
impl_uniform_signed!(i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

/// Ranges [`SimRng::gen_range`] accepts; `bounds` returns the inclusive
/// `[lo, hi]` pair to sample.
pub trait SampleRange<T> {
    /// Inclusive bounds of the range. Panics if the range is empty in a
    /// way that cannot be represented (e.g. `x..x`).
    fn bounds(self) -> (T, T);
}

impl<T: UniformInt> SampleRange<T> for Range<T> {
    #[inline]
    fn bounds(self) -> (T, T) {
        let end = self.end.to_offset_u64();
        assert!(end > 0, "cannot sample from an empty range");
        (self.start, T::from_offset_u64(end - 1))
    }
}

impl<T: UniformInt> SampleRange<T> for RangeInclusive<T> {
    #[inline]
    fn bounds(self) -> (T, T) {
        (*self.start(), *self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn adjacent_streams_decorrelate() {
        let mut a = stream_rng(1, 0);
        let mut b = stream_rng(1, 1);
        let xs: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_stream_replays() {
        let mut a = stream_rng(9, 3);
        let mut b = stream_rng(9, 3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = stream_rng(3, 0);
        for _ in 0..2_000 {
            let a = r.gen_range(10u64..20);
            assert!((10..20).contains(&a));
            let b = r.gen_range(1u64..=6);
            assert!((1..=6).contains(&b));
            let c = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&c));
            let d = r.gen_range(0usize..1);
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn ranges_cover_all_values() {
        let mut r = stream_rng(4, 0);
        let mut seen = [false; 6];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn full_width_range_works() {
        let mut r = stream_rng(5, 0);
        // Must not overflow the span computation.
        let v = r.gen_range(0u64..=u64::MAX);
        let _ = v;
        let w = r.gen_range(i64::MIN..=i64::MAX);
        let _ = w;
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut r = stream_rng(6, 0);
        for _ in 0..1_000 {
            let f: f64 = r.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_is_deterministic_and_covers_tail() {
        let mut a = stream_rng(7, 0);
        let mut b = stream_rng(7, 0);
        let mut x = [0u8; 13];
        let mut y = [0u8; 13];
        a.fill_bytes(&mut x);
        b.fill_bytes(&mut y);
        assert_eq!(x, y);
        assert!(x.iter().any(|&v| v != 0));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = stream_rng(8, 0);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "{hits}");
    }

    #[test]
    fn output_distribution_is_roughly_uniform() {
        let mut r = stream_rng(10, 0);
        let mut buckets = [0u32; 16];
        for _ in 0..16_000 {
            buckets[(r.next_u64() >> 60) as usize] += 1;
        }
        for b in buckets {
            assert!((800..1_200).contains(&b), "{buckets:?}");
        }
    }
}
