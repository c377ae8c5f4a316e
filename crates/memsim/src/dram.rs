//! Host-local DRAM.
//!
//! [`DramSpace`] models the local DRAM an instance uses for its buffer
//! pool (DRAM-BP baseline) or local tier (tiered RDMA baseline). Accesses
//! go through the same CPU cache model as CXL so the comparison between
//! DRAM-BP and CXL-BP (Figure 3) is apples-to-apples: both enjoy cache
//! hits; they differ in miss latency (146 ns vs 549 ns + stream) and in
//! that DRAM bandwidth is effectively unconstrained at these scales.

use crate::cache::Cache;
use crate::calib::{
    CACHE_HIT_NS, CACHE_LINE, DRAM_LOCAL_NS, DRAM_REMOTE_NS, DRAM_STREAM_NS_PER_LINE,
};
use crate::region::Region;
use crate::Access;
use simkit::trace::{self, Lane};
use simkit::SimTime;

/// Attribution leaf for a DRAM access: cache-hit time is separated out so
/// the `cache_hit` lane is comparable across DRAM and CXL designs; the
/// rest (miss base + streaming) is `dram`. By `access_cost`'s formula
/// `hits * CACHE_HIT_NS <= latency`, so the split is exact.
#[inline]
fn note_dram(latency: u64, hits: u64) {
    if trace::active() {
        let cache = hits * CACHE_HIT_NS;
        trace::attr_add(Lane::CacheHit, cache);
        trace::attr_add(Lane::Dram, latency - cache);
    }
}

/// A node-private DRAM space with a CPU cache in front. Every address in
/// it is an offset into its own region, so a clone is an exact copy.
#[derive(Debug, Clone)]
pub struct DramSpace {
    region: Region,
    cache: Cache,
    remote_numa: bool,
    bytes_read: u64,
    bytes_written: u64,
}

impl DramSpace {
    /// Create `size` bytes of local DRAM fronted by a cache of
    /// `cache_bytes`.
    pub fn new(size: usize, cache_bytes: usize, remote_numa: bool) -> Self {
        DramSpace {
            region: Region::volatile(size.next_multiple_of(CACHE_LINE as usize)),
            cache: Cache::new(cache_bytes),
            remote_numa,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Raw region (no timing) — test and bulk-load use.
    pub fn raw(&self) -> &Region {
        &self.region
    }

    /// Raw mutable region (no timing).
    pub fn raw_mut(&mut self) -> &mut Region {
        &mut self.region
    }

    /// Statistics of the CPU cache in front of this space.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Total bytes read / written through the timed interface.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_read, self.bytes_written)
    }

    fn base_ns(&self) -> u64 {
        if self.remote_numa {
            DRAM_REMOTE_NS
        } else {
            DRAM_LOCAL_NS
        }
    }

    /// `(latency, hits, misses)` of touching `off..off + len`.
    #[inline]
    fn access_cost(&mut self, off: u64, len: usize, write: bool) -> (u64, u64, u64) {
        let lines = off / CACHE_LINE..(off + len as u64).div_ceil(CACHE_LINE);
        // Lean path: a read inside one line that hits costs exactly what
        // the batched sweep would report for it — one hit, no miss.
        if !write && lines.end - lines.start == 1 && self.cache.read_hit(lines.start) {
            return (CACHE_HIT_NS, 1, 0);
        }
        self.sweep_cost(lines, write)
    }

    /// The general path of [`DramSpace::access_cost`]. DRAM caches are
    /// always timing-mode, so the whole access is one batched tag sweep;
    /// `Cache::access_run` counts hits/misses (and stats) identically to
    /// per-line `Cache::access` calls.
    #[inline(never)]
    fn sweep_cost(&mut self, lines: std::ops::Range<u64>, write: bool) -> (u64, u64, u64) {
        let run = self.cache.access_run(lines, write);
        let (hits, misses) = (run.hits, run.misses);
        let latency = if misses == 0 {
            hits * CACHE_HIT_NS
        } else {
            self.base_ns() + (misses - 1) * DRAM_STREAM_NS_PER_LINE + hits * CACHE_HIT_NS
        };
        (latency, hits, misses)
    }

    /// The timing half of a read: run the cache model over
    /// `off..off + len`, charge attribution and traffic, move no bytes.
    /// [`DramSpace::read`] is this plus the copy; a caller whose bytes
    /// live elsewhere (a buffer-pool frame aliasing remote memory) calls
    /// it alone and loads the data from where it really is.
    #[inline]
    pub fn read_timing(&mut self, off: u64, len: usize, now: SimTime) -> Access {
        let (latency, hits, misses) = self.access_cost(off, len, false);
        note_dram(latency, hits);
        self.bytes_read += len as u64;
        Access {
            end: now + latency,
            link_bytes: 0,
            hits,
            misses,
        }
    }

    /// Timed read.
    #[inline]
    pub fn read(&mut self, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        let a = self.read_timing(off, buf.len(), now);
        self.region.read(off, buf);
        a
    }

    /// Timed write.
    pub fn write(&mut self, off: u64, data: &[u8], now: SimTime) -> Access {
        let (latency, hits, misses) = self.access_cost(off, data.len(), true);
        note_dram(latency, hits);
        self.region.write(off, data);
        self.bytes_written += data.len() as u64;
        Access {
            end: now + latency,
            link_bytes: 0,
            hits,
            misses,
        }
    }

    /// Crash: local DRAM contents are lost.
    pub fn crash(&mut self) {
        self.region.crash();
        self.cache.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_traffic() {
        let mut d = DramSpace::new(4096, 1024, false);
        d.write(0, &[5; 100], SimTime::ZERO);
        let mut buf = [0u8; 100];
        d.read(0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [5; 100]);
        assert_eq!(d.traffic(), (100, 100));
    }

    #[test]
    fn dram_miss_is_much_cheaper_than_cxl_miss() {
        let mut d = DramSpace::new(4096, 64, false);
        let mut buf = [0u8; 64];
        let a = d.read(0, &mut buf, SimTime::ZERO);
        let dram_ns = a.end.as_nanos();
        assert!(dram_ns < crate::calib::CXL_SWITCH_LOCAL_NS, "{dram_ns}");
    }

    #[test]
    fn remote_numa_slower() {
        let mut local = DramSpace::new(4096, 64, false);
        let mut remote = DramSpace::new(4096, 64, true);
        let mut buf = [0u8; 64];
        let a = local.read(0, &mut buf, SimTime::ZERO);
        let b = remote.read(0, &mut buf, SimTime::ZERO);
        assert!(b.end > a.end);
    }

    #[test]
    fn lean_hits_and_the_timing_half_match_a_per_line_reference() {
        // One seeded mix of single-line reads (lean when they hit),
        // multi-line reads (swept) and writes drives three things: a full
        // space, a space asked only for the timing half, and a bare
        // `Cache` touched line by line with the latency formula applied
        // by hand. All three must agree on every `Access`, on the cache
        // stats and on traffic; the timing half just moves no bytes.
        let mut full = DramSpace::new(1 << 16, 4096, false);
        let mut timing = DramSpace::new(1 << 16, 4096, false);
        let mut reference = Cache::new(4096);
        let mut rng = simkit::rng::SimRng::seed_from_u64(0xD7A3);
        let mut now = SimTime::ZERO;
        for _ in 0..4_000 {
            let len = [2usize, 8, 8, 8, 60, 188, 1024][rng.gen_range(0..7usize)];
            let off = rng.gen_range(0..(1u64 << 16) - len as u64);
            let write = rng.gen_bool(0.2);
            let (mut hits, mut misses) = (0, 0);
            for line in off / CACHE_LINE..(off + len as u64).div_ceil(CACHE_LINE) {
                match reference.access(line, write) {
                    crate::cache::LineAccess::Hit => hits += 1,
                    crate::cache::LineAccess::Miss { .. } => misses += 1,
                }
            }
            let latency = hits * CACHE_HIT_NS
                + if misses == 0 {
                    0
                } else {
                    DRAM_LOCAL_NS + (misses - 1) * DRAM_STREAM_NS_PER_LINE
                };
            let want = Access {
                end: now + latency,
                link_bytes: 0,
                hits,
                misses,
            };
            if write {
                let data = vec![rng.gen::<u8>(); len];
                assert_eq!(full.write(off, &data, now), want);
                assert_eq!(timing.write(off, &data, now), want);
            } else {
                let mut buf = vec![0u8; len];
                assert_eq!(full.read(off, &mut buf, now), want, "off {off} len {len}");
                assert_eq!(timing.read_timing(off, len, now), want);
                assert_eq!(buf, timing.raw().slice(off, len));
                now = want.end;
            }
        }
        assert_eq!(full.cache_stats(), reference.stats());
        assert_eq!(timing.cache_stats(), reference.stats());
        assert_eq!(full.traffic(), timing.traffic());
    }

    #[test]
    fn crash_wipes_contents() {
        let mut d = DramSpace::new(128, 128, false);
        d.write(0, &[1; 64], SimTime::ZERO);
        d.crash();
        assert_eq!(d.raw().slice(0, 1), &[0xDE]);
    }
}
