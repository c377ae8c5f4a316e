//! The CXL-switch memory pool (§2.3, Figure 5).
//!
//! A [`CxlPool`] bundles the shared memory region in the CXL memory box,
//! the aggregate switch fabric, one x16 host link per host, and one CPU
//! cache per attached node. All node accesses flow through here so that
//! latency (Table 1), streaming cost (Table 2), link bandwidth and cache
//! behaviour are charged consistently.
//!
//! Two access paths exist, matching how the database uses the hardware:
//! - **cached** loads/stores ([`CxlPool::read`]/[`CxlPool::write`]) for
//!   page data — fast when hot, but dirty lines live in the CPU cache
//!   until written back or `clflush`ed;
//! - **uncached** accesses ([`CxlPool::read_uncached`]/
//!   [`CxlPool::write_uncached`]) for metadata flags (lock state, LSN,
//!   invalid/removal flags) that must be immediately visible to other
//!   nodes and survive a crash (non-temporal stores).
//!
//! For barrier-synchronized stepping (`workloads::cluster`) a node's
//! attachment can be *detached* into a [`CxlShard`]: the node's cache
//! moves out of the pool, the shared switch and host links are replaced
//! by [`LinkFork`] proxies, and region accesses run against a
//! [`RegionReader`] + [`WriteLog`] pair. [`CxlPool::barrier`] folds every
//! shard's deltas back in fixed order. Both the pool and its shards run
//! the *same* operation bodies (the internal `Port`), so the two modes
//! cannot drift apart.

use crate::cache::{line_range, Cache, LineAccess};
use crate::calib::{
    CACHE_HIT_NS, CACHE_LINE, CLFLUSH_ISSUE_NS, CXL_COPY_READ_BASE_NS, CXL_COPY_WRITE_BASE_NS,
    CXL_HOST_LINK_GBPS, CXL_HW_SNOOP_NS, CXL_STREAM_READ_NS_PER_LINE, CXL_STREAM_WRITE_NS_PER_LINE,
    CXL_SWITCH_GBPS, CXL_SWITCH_LOCAL_NS, CXL_SWITCH_REMOTE_NS,
};
use crate::region::Region;
use crate::shard::{RegionReader, WriteLog};
use crate::{Access, NodeId};
use simkit::faults::{self, FaultSite, Verdict};
use simkit::trace::{self, Lane, SpanKind};
use simkit::{Link, LinkFork, SimTime};
use std::borrow::Borrow;

/// Attribution/span leaf for one CXL operation. The op's total latency
/// `end - now` decomposes exactly: `switch_ns` is the wait beyond the
/// host-link stage (from `charge_link`), cache-hit service is
/// `hits * CACHE_HIT_NS` (every latency formula includes that term), and
/// the remainder is fabric/link time. One inlined flag test when tracing
/// is off; the slow path never feeds back into simulated state.
#[inline]
fn note_cxl(
    kind: SpanKind,
    node: NodeId,
    now: SimTime,
    end: SimTime,
    link_bytes: u64,
    hits: u64,
    switch_ns: u64,
) {
    if trace::active() {
        note_cxl_slow(kind, node, now, end, link_bytes, hits, switch_ns);
    }
}

#[cold]
fn note_cxl_slow(
    kind: SpanKind,
    node: NodeId,
    now: SimTime,
    end: SimTime,
    link_bytes: u64,
    hits: u64,
    switch_ns: u64,
) {
    let total = end.saturating_since(now);
    let cache = (hits * CACHE_HIT_NS).min(total.saturating_sub(switch_ns));
    trace::attr_add(Lane::CacheHit, cache);
    trace::attr_add(Lane::Switch, switch_ns);
    trace::attr_add(Lane::CxlLink, total - switch_ns - cache);
    trace::span(kind, node.0 as u32, now, end, link_bytes);
}

/// Per-node attachment configuration.
#[derive(Debug, Clone, Copy)]
pub struct CxlNodeConfig {
    /// Which host (and therefore which x16 link) the node runs on.
    pub host: usize,
    /// CPU cache capacity dedicated to this node's CXL traffic.
    pub cache_bytes: usize,
    /// Whether the cache captures line data (required for coherency
    /// experiments; see [`crate::cache`]).
    pub capture: bool,
    /// Whether the node's CPUs sit on a remote NUMA socket relative to
    /// the CXL attach point (Table 1's "remote" column).
    pub remote_numa: bool,
    /// Direct-attached CXL (no switch): Table 1's lower latency row.
    /// Pooling/sharing require the switch; this models the counterfactual
    /// for the §2.3 claim that switch latency is negligible end-to-end.
    pub direct_attach: bool,
}

impl Default for CxlNodeConfig {
    fn default() -> Self {
        CxlNodeConfig {
            host: 0,
            cache_bytes: 32 << 20,
            capture: false,
            remote_numa: false,
            direct_attach: false,
        }
    }
}

/// Where a port's loads and stores land: the real region (serial mode)
/// or a phase-private reader/write-log pair (shard mode).
enum Mem<'a> {
    Direct(&'a mut Region),
    Logged(&'a RegionReader, &'a mut WriteLog),
}

impl Mem<'_> {
    #[inline]
    fn read(&self, off: u64, buf: &mut [u8]) {
        match self {
            Mem::Direct(r) => r.read(off, buf),
            // Read-your-own-writes: patch the node's pending stores over
            // the (≤ one quantum stale) base bytes.
            Mem::Logged(base, log) => log.read_through(base, off, buf),
        }
    }

    #[inline]
    fn write(&mut self, off: u64, data: &[u8]) {
        match self {
            Mem::Direct(r) => r.write(off, data),
            Mem::Logged(_, log) => log.write(off, data),
        }
    }
}

/// One node's view of the fabric: its cache, its host link, the switch,
/// and a memory target. Every timed CXL operation body lives here, so
/// [`CxlPool`] (serial, `Mem::Direct`) and [`CxlShard`] (phased,
/// `Mem::Logged`) execute literally the same code.
struct Port<'a> {
    node: NodeId,
    remote: bool,
    direct: bool,
    cache: &'a mut Cache,
    host_link: &'a mut Link,
    switch: &'a mut Link,
    mem: Mem<'a>,
}

impl Port<'_> {
    /// Latency adjustment for the node's attach point: NUMA distance adds
    /// the Table 1 remote premium; direct attach removes the switch hop.
    #[inline]
    fn attach_delta_ns(&self) -> i64 {
        let mut delta = 0i64;
        if self.remote {
            delta += (CXL_SWITCH_REMOTE_NS - CXL_SWITCH_LOCAL_NS) as i64;
        }
        if self.direct {
            delta -= (CXL_SWITCH_LOCAL_NS - crate::calib::CXL_DIRECT_LOCAL_NS) as i64;
        }
        delta
    }

    /// Fabric latency of `lines` cache lines moved as one stream, plus
    /// `hits` served by the cache: the Table 2 base cost of the direction
    /// (adjusted for the attach point) for the first line and the
    /// streaming increment for each further one.
    #[inline]
    fn stream_ns(&self, store: bool, lines: u64, hits: u64) -> u64 {
        let cached = hits * CACHE_HIT_NS;
        if lines == 0 {
            return cached;
        }
        let (base, per_line) = if store {
            (CXL_COPY_WRITE_BASE_NS, CXL_STREAM_WRITE_NS_PER_LINE)
        } else {
            (CXL_COPY_READ_BASE_NS, CXL_STREAM_READ_NS_PER_LINE)
        };
        (base as i64 + self.attach_delta_ns()) as u64 + (lines - 1) * per_line + cached
    }

    /// Move the captured copy of `line` — a dirty victim, or a line just
    /// flushed — out of the cache and into memory. Timing-mode caches hold
    /// no copies: their stores went to memory as they were made.
    #[inline]
    fn write_back(&mut self, line: u64) {
        if let Some(bytes) = self.cache.take_line(line) {
            self.mem.write(line * CACHE_LINE, &bytes);
        }
    }

    /// Charge `bytes` to the node's host link and the switch. Returns the
    /// completion time and how many ns of it are waiting on the *switch*
    /// stage beyond the host-link stage (the [`Lane::Switch`] share —
    /// zero until the switch itself is the bottleneck).
    fn charge_link(&mut self, now: SimTime, bytes: u64, latency_ns: u64) -> (SimTime, u64) {
        if bytes == 0 {
            return (now + latency_ns, 0);
        }
        let lat_end = now + latency_ns;
        let g1 = self.host_link.transfer(now, bytes);
        let g2 = self.switch.transfer(now, bytes);
        let base = lat_end.max(g1.end);
        let end = base.max(g2.end);
        (end, end.saturating_since(base))
    }

    /// The one epilogue of every timed operation: the latency of
    /// `misses` lines streamed and `hits` served by the cache, plus
    /// `extra_ns` of the operation's own; `link_bytes` charged to the host
    /// link and the switch; the span and the attribution lanes noted; the
    /// access reported. Loads stream at the read rate, stores and flushes
    /// at the write rate. Inlined into each operation, as the blocks it
    /// replaces were: the timing-mode arms of `read` and `write` make no
    /// out-of-line call for it.
    #[inline(always)]
    fn settle(
        &mut self,
        kind: SpanKind,
        now: SimTime,
        extra_ns: u64,
        link_bytes: u64,
        hits: u64,
        misses: u64,
    ) -> Access {
        let latency_ns = extra_ns + self.stream_ns(kind != SpanKind::CxlRead, misses, hits);
        let (end, switch_ns) = self.charge_link(now, link_bytes, latency_ns);
        note_cxl(kind, self.node, now, end, link_bytes, hits, switch_ns);
        Access {
            end,
            link_bytes,
            hits,
            misses,
        }
    }

    /// Cached read of `len` bytes at `off`: the fault gate, the cache
    /// model, the link and switch charges, and — in capture mode — the
    /// line fills, whether or not anyone wants the bytes. `dst`, when
    /// given, is `len` bytes long and receives them; `None` is the
    /// timing plane alone ([`CxlPool::read_timing`]).
    fn read(&mut self, off: u64, len: usize, mut dst: Option<&mut [u8]>, now: SimTime) -> Access {
        debug_assert!(dst.as_ref().is_none_or(|buf| buf.len() == len));
        faults::gate(FaultSite::CxlRead);
        if !self.cache.captures() {
            // Timing-mode fast path: one tag sweep over the whole run, one
            // bulk copy, one link charge. In timing mode the region always
            // holds current data (capture mode is what defers stores), so
            // the per-line copies below collapse to a single bulk read
            // and the latency/link formulas depend only on the hit/miss/
            // eviction counts the sweep returns. Batched-vs-reference
            // equivalence is pinned by the `batched_*` tests.
            let run = self.cache.access_run(line_range(off, len), false);
            if let Some(buf) = dst {
                self.mem.read(off, buf);
            }
            let link_bytes = (run.misses + run.dirty_evictions) * CACHE_LINE;
            return self.settle(SpanKind::CxlRead, now, 0, link_bytes, run.hits, run.misses);
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut link_bytes = 0u64;
        let end_off = off + len as u64;
        for line in line_range(off, len) {
            let line_start = line * CACHE_LINE;
            let copy_from = off.max(line_start);
            let copy_to = end_off.min(line_start + CACHE_LINE);
            // This line's part of the destination, and where in the line
            // it starts.
            let s = (copy_from - line_start) as usize;
            let dst = dst
                .as_deref_mut()
                .map(|buf| &mut buf[(copy_from - off) as usize..(copy_to - off) as usize]);
            match self.cache.access(line, false) {
                LineAccess::Hit => {
                    hits += 1;
                    if let Some(dst) = dst {
                        if let Some(data) = self.cache.line(line) {
                            dst.copy_from_slice(&data[s..s + dst.len()]);
                        } else {
                            self.mem.read(copy_from, dst);
                        }
                    }
                }
                LineAccess::Miss { evicted_dirty } => {
                    misses += 1;
                    link_bytes += CACHE_LINE;
                    if let Some(victim) = evicted_dirty {
                        link_bytes += CACHE_LINE;
                        self.write_back(victim);
                    }
                    // The fill is cache state, not data movement for the
                    // caller: a later read must find the line captured.
                    let mut fill = [0u8; CACHE_LINE as usize];
                    self.mem.read(line_start, &mut fill);
                    if let Some(dst) = dst {
                        dst.copy_from_slice(&fill[s..s + dst.len()]);
                    }
                    self.cache.put_line(line, &fill);
                }
            }
        }
        self.settle(SpanKind::CxlRead, now, 0, link_bytes, hits, misses)
    }

    /// Cached write of `data` at `off` (write-allocate, write-back:
    /// dirty lines stay in the node's cache).
    fn write(&mut self, off: u64, data: &[u8], now: SimTime) -> Access {
        if !self.cache.captures() {
            // Timing-mode fast path (see `read`). The only per-line detail
            // that survives batching is write-allocate accounting: a missed
            // line is fetched over the link unless the store covers all 64
            // bytes, which can only be false for the first and last lines
            // of the run.
            let lines = line_range(off, data.len());
            let single_line = lines.end - lines.start == 1;
            let run = self.cache.access_run(lines, true);
            self.mem.write(off, data);
            let end_off = off + data.len() as u64;
            let first_partial = !off.is_multiple_of(CACHE_LINE);
            let last_partial = !end_off.is_multiple_of(CACHE_LINE);
            let fetches = if single_line {
                u64::from(run.first_missed && (first_partial || last_partial))
            } else {
                u64::from(run.first_missed && first_partial)
                    + u64::from(run.last_missed && last_partial)
            };
            let link_bytes = (fetches + run.dirty_evictions) * CACHE_LINE;
            return self.settle(SpanKind::CxlWrite, now, 0, link_bytes, run.hits, run.misses);
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut link_bytes = 0u64;
        let end_off = off + data.len() as u64;
        for line in line_range(off, data.len()) {
            let line_start = line * CACHE_LINE;
            let copy_from = off.max(line_start);
            let copy_to = end_off.min(line_start + CACHE_LINE);
            let src = &data[(copy_from - off) as usize..(copy_to - off) as usize];
            let s = (copy_from - line_start) as usize;
            match self.cache.access(line, true) {
                LineAccess::Hit => {
                    hits += 1;
                    if let Some(cached) = self.cache.line_mut(line) {
                        cached[s..s + src.len()].copy_from_slice(src);
                    } else {
                        self.mem.write(copy_from, src);
                    }
                }
                LineAccess::Miss { evicted_dirty } => {
                    misses += 1;
                    // Write-allocate: the line is fetched before modification
                    // unless the store covers it entirely.
                    let partial = src.len() < CACHE_LINE as usize;
                    if partial {
                        link_bytes += CACHE_LINE;
                    }
                    if let Some(victim) = evicted_dirty {
                        link_bytes += CACHE_LINE;
                        self.write_back(victim);
                    }
                    let mut fill = [0u8; CACHE_LINE as usize];
                    if partial {
                        self.mem.read(line_start, &mut fill);
                    }
                    fill[s..s + src.len()].copy_from_slice(src);
                    self.cache.put_line(line, &fill);
                }
            }
        }
        self.settle(SpanKind::CxlWrite, now, 0, link_bytes, hits, misses)
    }

    /// Uncached read (metadata flags): always goes to the device,
    /// observing other nodes' non-temporal stores immediately.
    fn read_uncached(&mut self, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        // Drop any locally cached copies so a later cached read refetches.
        for line in line_range(off, buf.len()) {
            if self.cache.clflush(line) {
                self.write_back(line);
            }
        }
        self.mem.read(off, buf);
        let lines = line_range(off, buf.len()).count() as u64;
        self.settle(SpanKind::CxlRead, now, 0, lines * CACHE_LINE, 0, lines)
    }

    /// Uncached (non-temporal) store: bytes land in the device directly
    /// and become visible to every node; local cache copies are dropped.
    fn write_uncached(&mut self, off: u64, data: &[u8], now: SimTime) -> Access {
        // A crash here unwinds before the store reaches the device.
        // Crashing between the ntstores of a list splice is exactly how
        // a torn `list_lock != 0` state arises.
        faults::gate(FaultSite::CxlNtStore);
        for line in line_range(off, data.len()) {
            // An ntstore invalidates the local cached copy. A *dirty*
            // overlapping line must be written back first: the store may
            // cover it only partially, and dropping it would lose the
            // non-overlapped dirty bytes (found by the property tests).
            if self.cache.clflush(line) {
                self.write_back(line);
            }
        }
        self.mem.write(off, data);
        let lines = line_range(off, data.len()).count() as u64;
        self.settle(SpanKind::CxlWrite, now, 0, lines * CACHE_LINE, 0, lines)
    }

    /// `clflush` the byte range: write back dirty lines and invalidate all
    /// cached lines (the §3.3 protocol's publish / self-invalidate step).
    fn clflush(&mut self, off: u64, len: usize, now: SimTime) -> Access {
        if let Verdict::Partial { keep_lines } = faults::gate(FaultSite::Clflush) {
            self.partial_clflush(off, len, keep_lines);
        }
        let mut flushed = 0u64;
        let mut issued = 0u64;
        for line in line_range(off, len) {
            issued += 1;
            if self.cache.clflush(line) {
                flushed += 1;
                self.write_back(line);
            }
        }
        let (issue_ns, link_bytes) = (issued * CLFLUSH_ISSUE_NS, flushed * CACHE_LINE);
        self.settle(SpanKind::Clflush, now, issue_ns, link_bytes, 0, flushed)
    }

    /// A clflush torn `keep_lines` dirty lines in: those lines reach the
    /// device, the rest stay unflushed in the dying CPU cache, and the
    /// crash unwinds to the harness ([`simkit::faults::unwind`]).
    #[cold]
    fn partial_clflush(&mut self, off: u64, len: usize, keep_lines: u64) -> ! {
        let mut flushed = 0u64;
        for line in line_range(off, len) {
            if flushed >= keep_lines {
                break;
            }
            if self.cache.clflush(line) {
                flushed += 1;
                self.write_back(line);
            }
        }
        faults::unwind()
    }

    /// Invalidate (without writeback) every cached line of the range —
    /// the reader-side step after observing an `invalid` flag (§3.3: the
    /// lines are clean because writers hold the page lock exclusively).
    fn invalidate(&mut self, off: u64, len: usize, now: SimTime) -> Access {
        let lines = line_range(off, len);
        let issued = lines.end - lines.start;
        self.cache.invalidate_run(lines);
        let end = now + issued * CLFLUSH_ISSUE_NS;
        note_cxl(SpanKind::Clflush, self.node, now, end, 0, 0, 0);
        Access {
            end,
            link_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Tail of [`CxlPool::write_coherent`]: device write, writer cache
    /// refresh, and latency including `snooped` back-invalidation snoops
    /// (the caller counts and invalidates the sharers).
    fn write_coherent_tail(&mut self, off: u64, data: &[u8], snooped: u64, now: SimTime) -> Access {
        // Write through to the device.
        self.mem.write(off, data);
        let lr = line_range(off, data.len());
        // A refreshed line may alias a dirty one (a cached store by this
        // node): the victim is written back and charged as `read` does.
        let mut evictions = 0u64;
        if self.cache.captures() {
            // Writer keeps a clean, up-to-date copy.
            for line in lr.clone() {
                let line_start = line * CACHE_LINE;
                if let LineAccess::Miss {
                    evicted_dirty: Some(victim),
                } = self.cache.access(line, false)
                {
                    evictions += 1;
                    self.write_back(victim);
                }
                let mut fill = [0u8; CACHE_LINE as usize];
                self.mem.read(line_start, &mut fill);
                self.cache.put_line(line, &fill);
            }
        } else {
            evictions = self.cache.access_run(lr.clone(), false).dirty_evictions;
        }
        let lines = lr.count() as u64;
        let link_bytes = (lines + evictions) * CACHE_LINE;
        // Back-invalidation snoops traverse the switch once per sharer.
        let snoop_ns = snooped * CXL_HW_SNOOP_NS;
        self.settle(SpanKind::CxlWrite, now, snoop_ns, link_bytes, 0, lines)
    }
}

/// The node-facing CXL access surface, implemented identically by the
/// serial [`CxlPool`] and the phase-private [`CxlShard`]. Database
/// layers are generic over this, so the same protocol code runs in both
/// execution modes.
pub trait CxlFabric {
    /// Cached read (see [`CxlPool::read`]).
    fn read(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access;
    /// Cached write (see [`CxlPool::write`]).
    fn write(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access;
    /// Uncached read (see [`CxlPool::read_uncached`]).
    fn read_uncached(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access;
    /// Uncached store (see [`CxlPool::write_uncached`]).
    fn write_uncached(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access;
    /// Flush a byte range (see [`CxlPool::clflush`]).
    fn clflush(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access;
    /// Invalidate a byte range (see [`CxlPool::invalidate`]).
    fn invalidate(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access;
}

/// The shared CXL memory pool with its fabric and per-node caches.
#[derive(Debug)]
pub struct CxlPool {
    region: Region,
    switch: Link,
    host_links: Vec<Link>,
    caches: Vec<Cache>,
    node_host: Vec<usize>,
    node_remote: Vec<bool>,
    node_direct: Vec<bool>,
}

impl CxlPool {
    /// Create a pool of `size` bytes (rounded up to a cache line) with the
    /// given node attachments. Accepts any iterable of configs (slices,
    /// owned vectors, or generated iterators), so repeated-node setups
    /// need no temporary `Vec`.
    pub fn new<I>(size: usize, nodes: I) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<CxlNodeConfig>,
    {
        let size = size.next_multiple_of(CACHE_LINE as usize);
        let mut caches = Vec::new();
        let mut node_host = Vec::new();
        let mut node_remote = Vec::new();
        let mut node_direct = Vec::new();
        let mut hosts = 0usize;
        for n in nodes {
            let n = n.borrow();
            hosts = hosts.max(n.host + 1);
            caches.push(if n.capture {
                Cache::with_capture(n.cache_bytes, size)
            } else {
                Cache::new(n.cache_bytes)
            });
            node_host.push(n.host);
            node_remote.push(n.remote_numa);
            node_direct.push(n.direct_attach);
        }
        assert!(!caches.is_empty(), "a pool needs at least one node");
        CxlPool {
            region: Region::persistent(size),
            switch: Link::new("cxl-switch", CXL_SWITCH_GBPS),
            host_links: (0..hosts)
                .map(|_| Link::new("cxl-host-link", CXL_HOST_LINK_GBPS))
                .collect(),
            caches,
            node_host,
            node_remote,
            node_direct,
        }
    }

    /// Convenience: single-host pool with `n` identical local nodes.
    pub fn single_host(size: usize, n: usize, cache_bytes: usize, capture: bool) -> Self {
        let cfg = CxlNodeConfig {
            cache_bytes,
            capture,
            ..CxlNodeConfig::default()
        };
        Self::new(size, (0..n).map(move |_| cfg))
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Number of attached nodes.
    pub fn nodes(&self) -> usize {
        self.caches.len()
    }

    /// Raw region access for tests/assertions (no timing charged).
    pub fn raw(&self) -> &Region {
        &self.region
    }

    /// Raw mutable region access (bulk initialization; no timing).
    pub fn raw_mut(&mut self) -> &mut Region {
        &mut self.region
    }

    /// This node's cache statistics.
    pub fn cache_stats(&self, node: NodeId) -> crate::cache::CacheStats {
        self.caches[node.0].stats()
    }

    /// Bytes moved over a host's link so far.
    pub fn host_link_bytes(&self, host: usize) -> u64 {
        self.host_links[host].bytes()
    }

    /// Total bytes through the switch.
    pub fn switch_bytes(&self) -> u64 {
        self.switch.bytes()
    }

    /// Reset link byte counters and backlog clocks (between an untimed
    /// setup phase and a measurement window).
    pub fn reset_link_counters(&mut self) {
        self.switch.reset_counters();
        self.switch.reset_queue();
        for l in &mut self.host_links {
            l.reset_counters();
            l.reset_queue();
        }
    }

    /// Seat `to` as an exact copy of `from`: the `len` bytes of `from`'s
    /// lease at `from_off` are copied raw to `to_off` (by
    /// [`Region::copy_disjoint`], which maps whole windows onto the
    /// source's bytes until either side writes them), and `to`'s cache
    /// becomes `from`'s with every line moved by the lease delta
    /// ([`Cache::shifted`]) — the state `to` would have reached by making
    /// `from`'s accesses at its own base. Untimed; `from` is untouched.
    ///
    /// # Panics
    /// When the delta is not a whole number of cache lines, the two nodes'
    /// caches differ in size, `to`'s cache has already been used, `from`'s
    /// is a capture-mode cache, or the destination overlaps the source or
    /// leaves the pool.
    // `#[inline]` for the reason on [`Region::copy_disjoint`]: compiled
    // into its caller's crate, this module's hot code is grouped as it was.
    #[inline]
    pub fn copy_lease(&mut self, from: NodeId, from_off: u64, to: NodeId, to_off: u64, len: u64) {
        assert!(
            from_off.abs_diff(to_off).is_multiple_of(CACHE_LINE),
            "lease delta is not a whole number of cache lines"
        );
        let delta = (to_off / CACHE_LINE) as i64 - (from_off / CACHE_LINE) as i64;
        assert!(
            self.caches[to.0].is_untouched(),
            "destination node's cache has already been used"
        );
        assert_eq!(
            self.caches[to.0].sets(),
            self.caches[from.0].sets(),
            "destination node's cache differs in size"
        );
        let moved = self.caches[from.0].shifted(delta);
        self.region.copy_disjoint(from_off, to_off, len as usize);
        self.caches[to.0] = moved;
    }

    /// Borrow a node's full fabric view (serial mode: the real region).
    fn port(&mut self, node: NodeId) -> Port<'_> {
        let host = self.node_host[node.0];
        Port {
            node,
            remote: self.node_remote[node.0],
            direct: self.node_direct[node.0],
            cache: &mut self.caches[node.0],
            host_link: &mut self.host_links[host],
            switch: &mut self.switch,
            mem: Mem::Direct(&mut self.region),
        }
    }

    /// Cached read of `buf.len()` bytes at `off` by `node`.
    #[inline]
    pub fn read(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        self.read_into(node, off, buf.len(), Some(buf), now)
    }

    /// The timing plane of [`CxlPool::read`]: everything that read does
    /// to the model — fault gate, cache sweep (capture-mode fills
    /// included), link and switch charges, attribution, profiler row —
    /// and no bytes moved to a caller. For callers that discard them.
    #[inline]
    pub fn read_timing(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        self.read_into(node, off, len, None, now)
    }

    /// The one read body: `dst`, when given, is `len` bytes long.
    ///
    /// The lean branch is an access inside one line that hits the node's
    /// timing-mode cache. [`Port::read`] would sweep that one tag, count
    /// the hit, copy the bytes from the region (timing mode keeps it
    /// current), charge zero link bytes and return `now + CACHE_HIT_NS` —
    /// which is all this does, without building the port. Anything else
    /// (miss, several lines, capture mode, an observed run) takes the
    /// general path.
    #[inline(always)]
    fn read_into(
        &mut self,
        node: NodeId,
        off: u64,
        len: usize,
        dst: Option<&mut [u8]>,
        now: SimTime,
    ) -> Access {
        let lines = line_range(off, len);
        if simkit::unobserved()
            && lines.end - lines.start == 1
            && self.caches[node.0].read_hit(lines.start)
        {
            if let Some(buf) = dst {
                self.region.read(off, buf);
            }
            return Access {
                end: now + CACHE_HIT_NS,
                link_bytes: 0,
                hits: 1,
                misses: 0,
            };
        }
        self.read_general(node, off, len, dst, now)
    }

    /// The general read path, out of line so that the lean branch stays
    /// small enough to inline into the pools.
    fn read_general(
        &mut self,
        node: NodeId,
        off: u64,
        len: usize,
        dst: Option<&mut [u8]>,
        now: SimTime,
    ) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).read(off, len, dst, now)
    }

    /// Cached write of `data` at `off` by `node` (write-allocate,
    /// write-back: dirty lines stay in the node's cache).
    pub fn write(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).write(off, data, now)
    }

    /// Uncached read (metadata flags): always goes to the device,
    /// observing other nodes' non-temporal stores immediately.
    pub fn read_uncached(
        &mut self,
        node: NodeId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).read_uncached(off, buf, now)
    }

    /// Uncached (non-temporal) store: bytes land in the device directly
    /// and become visible to every node; local cache copies are dropped.
    pub fn write_uncached(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).write_uncached(off, data, now)
    }

    /// `clflush` the byte range: write back dirty lines and invalidate all
    /// cached lines (the §3.3 protocol's publish / self-invalidate step).
    pub fn clflush(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).clflush(off, len, now)
    }

    /// Invalidate (without writeback) every cached line of the range —
    /// the reader-side step after observing an `invalid` flag (§3.3: the
    /// lines are clean because writers hold the page lock exclusively).
    pub fn invalidate(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port(node).invalidate(off, len, now)
    }

    /// Crash the node's host: its CPU cache (including dirty lines) is
    /// lost. The pool region itself survives — the memory box has an
    /// independent power supply (§3.2).
    pub fn crash_node(&mut self, node: NodeId) {
        self.caches[node.0].crash();
    }

    /// Hardware-coherent store (CXL 3.0 semantics, §2.1/§2.2(4)): the
    /// write lands in the device *and* every other node's cached copy of
    /// the touched lines is back-invalidated by the fabric — no software
    /// `clflush`, no invalidation flags. The store pays the normal write
    /// path plus a per-sharer snoop latency; the writer's own cache keeps
    /// a clean copy.
    ///
    /// No sharing node issues it: the paper measures CXL 2.0, and sharing
    /// runs the §3.3 software protocol only. The `benchmark` package
    /// still times it (`memsim.cxl.write_coherent_ns`), so it stays as it
    /// was until the next change to that package deletes the row and
    /// this method.
    pub fn write_coherent(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        // Back-invalidate sharers first, then let the shared tail write
        // the device and refresh the writer's copy: snoops touch only
        // other nodes' caches and the writer's accesses touch only its
        // own, so this order is equivalent to interleaving them per line.
        let mut snooped = 0u64;
        for line in line_range(off, data.len()) {
            for (j, cache) in self.caches.iter_mut().enumerate() {
                if j == node.0 {
                    continue;
                }
                if cache.contains(line) {
                    cache.invalidate(line);
                    snooped += 1;
                }
            }
        }
        self.port(node).write_coherent_tail(off, data, snooped, now)
    }

    /// Detach `node` into a phase-private [`CxlShard`]: the node's cache
    /// moves out of the pool, its links become [`LinkFork`] proxies, and
    /// memory accesses run against a reader + write-log pair. The pool
    /// keeps an empty placeholder cache for the node until
    /// [`CxlPool::attach_node`] returns the shard.
    pub fn detach_node(&mut self, node: NodeId) -> CxlShard {
        let host = self.node_host[node.0];
        let cache = std::mem::replace(&mut self.caches[node.0], Cache::new(0));
        CxlShard {
            node,
            host,
            remote: self.node_remote[node.0],
            direct: self.node_direct[node.0],
            cache,
            host_link: self.host_links[host].fork(),
            switch: self.switch.fork(),
            reader: RegionReader::new(&self.region),
            log: WriteLog::new(),
        }
    }

    /// Re-attach a detached node (e.g. after its simulated host dies, so
    /// barrier-boundary serial code can touch its frozen cache): merges
    /// the shard's link deltas, applies its write log and moves the cache
    /// back in.
    pub fn attach_node(&mut self, mut shard: CxlShard) {
        self.host_links[shard.host].merge(&shard.host_link);
        self.switch.merge(&shard.switch);
        shard.log.apply(&mut self.region);
        self.caches[shard.node.0] = shard.cache;
    }

    /// Barrier: fold every shard's quantum deltas back into the shared
    /// state **in the order given** (drivers pass fixed node order), then
    /// refresh each shard's private views for the next quantum.
    ///
    /// Order of effects: each shard's link-backlog deltas merge and its
    /// write log applies, shard by shard; then the readers and link forks
    /// are re-derived from the merged state. No cache changes here: a
    /// peer's stale lines leave only through the §3.3 invalid flags.
    pub fn barrier(&mut self, shards: &mut [CxlShard]) {
        for s in shards.iter_mut() {
            self.host_links[s.host].merge(&s.host_link);
            self.switch.merge(&s.switch);
            s.log.apply(&mut self.region);
        }
        for s in shards.iter_mut() {
            s.host_link = self.host_links[s.host].fork();
            s.switch = self.switch.fork();
            s.reader = RegionReader::new(&self.region);
        }
    }
}

impl CxlFabric for CxlPool {
    fn read(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        CxlPool::read(self, node, off, buf, now)
    }
    fn write(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        CxlPool::write(self, node, off, data, now)
    }
    fn read_uncached(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        CxlPool::read_uncached(self, node, off, buf, now)
    }
    fn write_uncached(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        CxlPool::write_uncached(self, node, off, data, now)
    }
    fn clflush(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        CxlPool::clflush(self, node, off, len, now)
    }
    fn invalidate(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        CxlPool::invalidate(self, node, off, len, now)
    }
}

/// One node's detached, phase-private attachment to the pool: owns the
/// node's cache, forked link proxies, and a reader + write-log view of
/// the region. It steps one node for one quantum; [`CxlPool::barrier`]
/// merges and refreshes it.
#[derive(Debug)]
pub struct CxlShard {
    node: NodeId,
    host: usize,
    remote: bool,
    direct: bool,
    cache: Cache,
    host_link: LinkFork,
    switch: LinkFork,
    reader: RegionReader,
    log: WriteLog,
}

impl CxlShard {
    /// The node this shard detached.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Prefetch what an access to `off..off + len` will load first into
    /// the host's cache: the region's lines and the node cache's tag and
    /// copy-index words for them. A host-side hint — no modelled state,
    /// no profiler scope, no span. Empty, or starting at or past the end
    /// of the region, it does nothing.
    #[inline]
    pub fn prefetch(&self, off: u64, len: usize) {
        let len = (len as u64).min((self.reader.len() as u64).saturating_sub(off));
        if len == 0 {
            return;
        }
        self.reader.prefetch(off, len as usize);
        self.cache.prefetch(line_range(off, len as usize));
    }

    fn port(&mut self) -> Port<'_> {
        Port {
            node: self.node,
            remote: self.remote,
            direct: self.direct,
            cache: &mut self.cache,
            host_link: &mut self.host_link,
            switch: &mut self.switch,
            mem: Mem::Logged(&self.reader, &mut self.log),
        }
    }
}

impl CxlFabric for CxlShard {
    fn read(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().read(off, buf.len(), Some(buf), now)
    }
    fn write(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().write(off, data, now)
    }
    fn read_uncached(&mut self, node: NodeId, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().read_uncached(off, buf, now)
    }
    fn write_uncached(&mut self, node: NodeId, off: u64, data: &[u8], now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().write_uncached(off, data, now)
    }
    fn clflush(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().clflush(off, len, now)
    }
    fn invalidate(&mut self, node: NodeId, off: u64, len: usize, now: SimTime) -> Access {
        debug_assert_eq!(node, self.node);
        let _prof = simkit::profile::scope(simkit::profile::Subsys::CxlMem);
        self.port().invalidate(off, len, now)
    }
}

#[cfg(test)]
impl CxlPool {
    /// A node's cache, for the memsim tests' oracles.
    pub(crate) fn node_cache(&self, node: NodeId) -> &Cache {
        &self.caches[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::PAGE_SIZE;

    fn pool(capture: bool) -> CxlPool {
        CxlPool::single_host(1 << 20, 2, 64 << 10, capture)
    }

    #[test]
    fn write_then_read_roundtrip_same_node() {
        for capture in [false, true] {
            let mut p = pool(capture);
            let a = p.write(NodeId(0), 128, b"polarcxlmem", SimTime::ZERO);
            let mut buf = [0u8; 11];
            let b = p.read(NodeId(0), 128, &mut buf, a.end);
            assert_eq!(&buf, b"polarcxlmem");
            assert!(b.end > a.end);
        }
    }

    #[test]
    fn second_read_hits_cache_and_skips_link() {
        let mut p = pool(false);
        let mut buf = [0u8; 64];
        let first = p.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(first.misses, 1);
        assert_eq!(first.link_bytes, 64);
        let second = p.read(NodeId(0), 0, &mut buf, first.end);
        assert_eq!(second.hits, 1);
        assert_eq!(second.link_bytes, 0);
        assert!(second.end - first.end < first.end - SimTime::ZERO);
    }

    #[test]
    fn page_read_latency_matches_table2() {
        let mut p = pool(false);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let a = p.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(a.misses, 256);
        let ns = a.end.as_nanos();
        // Paper Table 2: 16 KB CXL read ≈ 2.46 µs.
        assert!((2_000..3_000).contains(&ns), "{ns}");
    }

    #[test]
    fn capture_mode_holds_dirty_data_out_of_region() {
        let mut p = pool(true);
        p.write(NodeId(0), 0, &[0xAB; 64], SimTime::ZERO);
        // The store is still in node 0's cache: the region has old bytes.
        assert_eq!(p.raw().slice(0, 1), &[0]);
        // ...and node 1, reading the device, sees stale data (no CXL 2.0
        // hardware coherency!).
        let mut buf = [0u8; 64];
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf[0], 0, "node 1 must see pre-store bytes");
        // After clflush the store is visible.
        p.clflush(NodeId(0), 0, 64, SimTime::ZERO);
        assert_eq!(p.raw().slice(0, 1), &[0xAB]);
    }

    #[test]
    fn stale_cache_without_invalidation_is_observable() {
        // The failure mode the §3.3 protocol exists to prevent.
        let mut p = pool(true);
        let mut buf = [0u8; 64];
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO); // node 1 caches zeros
        p.write_uncached(NodeId(0), 0, &[0x77; 64], SimTime::ZERO);
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf[0], 0, "without invalidation node 1 reads stale data");
        p.invalidate(NodeId(1), 0, 64, SimTime::ZERO);
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf[0], 0x77, "after invalidation the new data is visible");
    }

    #[test]
    fn uncached_ops_bypass_cache_both_ways() {
        let mut p = pool(true);
        let mut buf = [0u8; 8];
        p.read(NodeId(0), 0, &mut [0u8; 64], SimTime::ZERO); // cache the line
        p.write_uncached(NodeId(1), 0, &[9; 8], SimTime::ZERO);
        p.read_uncached(NodeId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [9; 8]);
        // And the cached path was invalidated by our own uncached read.
        let mut b2 = [0u8; 8];
        p.read(NodeId(0), 0, &mut b2, SimTime::ZERO);
        assert_eq!(b2, [9; 8]);
    }

    #[test]
    fn crash_loses_dirty_lines_but_region_survives() {
        let mut p = pool(true);
        p.write_uncached(NodeId(0), 0, &[1; 64], SimTime::ZERO); // durable
        p.write(NodeId(0), 64, &[2; 64], SimTime::ZERO); // dirty in cache
        p.crash_node(NodeId(0));
        assert_eq!(p.raw().slice(0, 1), &[1], "flushed data survives");
        assert_eq!(p.raw().slice(64, 1), &[0], "unflushed dirty line is lost");
    }

    #[test]
    fn direct_attach_is_faster_than_switched() {
        let mk = |direct: bool| {
            CxlPool::new(
                1 << 16,
                [CxlNodeConfig {
                    cache_bytes: 64,
                    direct_attach: direct,
                    ..CxlNodeConfig::default()
                }],
            )
        };
        let mut sw = mk(false);
        let mut di = mk(true);
        let mut b = [0u8; 64];
        let s = sw.read(NodeId(0), 0, &mut b, SimTime::ZERO).end.as_nanos();
        let d = di.read(NodeId(0), 0, &mut b, SimTime::ZERO).end.as_nanos();
        // Table 1: switch adds 549-265 = 284 ns per load.
        assert_eq!(s - d, 284, "switch premium: {s} vs {d}");
    }

    #[test]
    fn remote_numa_pays_extra_latency() {
        let cfgs = vec![
            CxlNodeConfig::default(),
            CxlNodeConfig {
                remote_numa: true,
                ..CxlNodeConfig::default()
            },
        ];
        let mut p = CxlPool::new(1 << 16, &cfgs);
        let mut b = [0u8; 64];
        let local = p.read(NodeId(0), 0, &mut b, SimTime::ZERO);
        let remote = p.read(NodeId(1), 64, &mut b, SimTime::ZERO);
        assert!(remote.end - SimTime::ZERO > local.end - SimTime::ZERO);
    }

    #[test]
    fn link_accounts_miss_traffic_only() {
        let mut p = pool(false);
        let mut buf = vec![0u8; 1024];
        p.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        p.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(p.host_link_bytes(0), 1024);
        assert_eq!(p.switch_bytes(), 1024);
    }

    #[test]
    fn hardware_coherent_store_back_invalidates_sharers() {
        let mut p = pool(true);
        let mut buf = [0u8; 8];
        // Node 1 caches the line.
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0; 8]);
        // Node 0 issues a CXL 3.0 coherent store: no clflush anywhere.
        p.write_coherent(NodeId(0), 0, &[0x3A; 8], SimTime::ZERO);
        // Node 1's next read misses (invalidated) and sees fresh data.
        p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0x3A; 8], "hardware coherency delivers the store");
        // The writer's own copy is clean and current.
        let mut b0 = [0u8; 8];
        p.read(NodeId(0), 0, &mut b0, SimTime::ZERO);
        assert_eq!(b0, [0x3A; 8]);
    }

    #[test]
    fn coherent_store_charges_per_sharer_snoop() {
        let mut p = pool(false);
        let mut buf = [0u8; 64];
        let base = p.write_coherent(NodeId(0), 0, &[1; 64], SimTime::ZERO).end;
        // Make node 1 a sharer, then store again: must cost more.
        p.read(NodeId(1), 64, &mut buf, SimTime::ZERO);
        let with_sharer = {
            let a = p.write_coherent(NodeId(0), 64, &[1; 64], SimTime::ZERO);
            a.end
        };
        assert!(
            with_sharer.as_nanos() > base.as_nanos(),
            "snoop adds latency"
        );
    }

    #[test]
    fn coherent_store_writes_back_the_dirty_line_it_evicts() {
        for capture in [true, false] {
            // 64 sets: line 64 aliases line 0.
            let mut p = CxlPool::single_host(1 << 20, 2, 4 << 10, capture);
            p.write(NodeId(0), 0, &[7; 8], SimTime::ZERO); // dirty in node 0's cache
            let a = p.write_coherent(NodeId(0), 64 * 64, &[9; 8], SimTime::ZERO);
            assert_eq!(a.link_bytes, 2 * 64, "the stored line and its victim");
            assert_eq!(p.cache_stats(NodeId(0)).writebacks, 1);
            assert_eq!(p.raw().slice(0, 8), &[7; 8], "capture={capture}");
            // Nothing of line 0 is left behind in the cache to flush.
            let flush = p.clflush(NodeId(0), 0, 64, SimTime::ZERO);
            assert_eq!(flush.link_bytes, 0);
            let mut buf = [0u8; 8];
            p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
            assert_eq!(buf, [7; 8], "capture={capture}");
        }
    }

    // ---- batched fast path vs per-line reference ----------------------
    //
    // The capture-mode pool still runs the original per-line loop, and
    // capture only changes where line *data* lives — never the hit/miss
    // accounting or the latency/link formulas. Driving the same access
    // sequence through a timing pool (batched path) and a capture pool
    // (per-line path) therefore pins the batched `read`/`write`/
    // `write_coherent` to the per-line reference bit for bit: Access,
    // CacheStats, link counters, and returned data must all agree.

    fn assert_batched_matches_reference(ops: &[(u8, u64, usize)]) {
        let cache_bytes = 4 << 10; // 64 slots: small enough to thrash
        let mut fast = CxlPool::single_host(1 << 20, 2, cache_bytes, false);
        let mut refp = CxlPool::single_host(1 << 20, 2, cache_bytes, true);
        let mut t_fast = SimTime::ZERO;
        let mut t_ref = SimTime::ZERO;
        for &(kind, off, len) in ops {
            let (a, b) = match kind {
                0 => {
                    let mut b1 = vec![0u8; len];
                    let mut b2 = vec![0u8; len];
                    let a = fast.read(NodeId(0), off, &mut b1, t_fast);
                    let b = refp.read(NodeId(0), off, &mut b2, t_ref);
                    assert_eq!(b1, b2, "read data diverged at off={off} len={len}");
                    (a, b)
                }
                1 => {
                    let data: Vec<u8> = (0..len).map(|i| (off as usize + i) as u8).collect();
                    (
                        fast.write(NodeId(0), off, &data, t_fast),
                        refp.write(NodeId(0), off, &data, t_ref),
                    )
                }
                _ => {
                    let data: Vec<u8> = (0..len).map(|i| (off as usize + i) as u8).collect();
                    (
                        fast.write_coherent(NodeId(0), off, &data, t_fast),
                        refp.write_coherent(NodeId(0), off, &data, t_ref),
                    )
                }
            };
            assert_eq!(a, b, "Access diverged at kind={kind} off={off} len={len}");
            t_fast = a.end;
            t_ref = b.end;
        }
        assert_eq!(fast.cache_stats(NodeId(0)), refp.cache_stats(NodeId(0)));
        assert_eq!(fast.host_link_bytes(0), refp.host_link_bytes(0));
        assert_eq!(fast.switch_bytes(), refp.switch_bytes());
    }

    #[test]
    fn batched_matches_reference_aligned() {
        assert_batched_matches_reference(&[
            (0, 0, 16 << 10), // cold page read
            (0, 0, 16 << 10), // warm re-read (partially evicted by itself)
            (1, 0, 4 << 10),  // full-line writes, no allocate fetch
            (0, 2 << 10, 4 << 10),
            (1, 0, 64),
            (0, 0, 64),
        ]);
    }

    #[test]
    fn batched_matches_reference_unaligned() {
        assert_batched_matches_reference(&[
            (1, 7, 50),     // sub-line store: allocate fetch
            (1, 60, 8),     // straddles two lines, both partial
            (1, 64, 64),    // exactly one full line
            (1, 100, 1000), // partial head + full middles + partial tail
            (0, 3, 801),
            (1, 100, 1000), // same range again: all hits now
            (0, 99, 1002),
        ]);
    }

    #[test]
    fn batched_matches_reference_thrashing() {
        // 64-slot cache, 128-line ranges: every run aliases with itself,
        // so later lines of one request evict earlier lines of the same
        // request (dirty evictions inside a single write).
        assert_batched_matches_reference(&[
            (1, 0, 8 << 10),
            (0, 0, 8 << 10),
            (1, 31, 8 << 10),
            (0, 4096, 8 << 10),
            (2, 0, 4 << 10),
            (0, 0, 8 << 10),
        ]);
    }

    #[test]
    fn batched_matches_reference_coherent_with_sharers() {
        let cache_bytes = 4 << 10;
        let mut fast = CxlPool::single_host(1 << 20, 3, cache_bytes, false);
        let mut refp = CxlPool::single_host(1 << 20, 3, cache_bytes, true);
        for p in [&mut fast, &mut refp] {
            let mut buf = vec![0u8; 4096];
            p.read(NodeId(1), 0, &mut buf, SimTime::ZERO);
            p.read(NodeId(2), 2048, &mut buf[..2048], SimTime::ZERO);
        }
        let data = vec![0x42u8; 4096];
        let a = fast.write_coherent(NodeId(0), 0, &data, SimTime::ZERO);
        let b = refp.write_coherent(NodeId(0), 0, &data, SimTime::ZERO);
        assert_eq!(a, b, "snoop accounting must match per-line reference");
        for n in 0..3 {
            assert_eq!(fast.cache_stats(NodeId(n)), refp.cache_stats(NodeId(n)));
        }
    }

    #[test]
    fn batched_matches_reference_edge_ranges() {
        // Edge geometry for the batched run path, pinned against the
        // per-line capture reference in both modes: zero-length accesses
        // (aligned offsets produce an empty line range, unaligned ones a
        // single line), a run exactly filling the 64-slot cache, and
        // runs ending exactly at the 1 MiB region end.
        let region_end = 1u64 << 20;
        assert_batched_matches_reference(&[
            (0, 0, 0),                            // empty, aligned: no lines
            (1, 64, 0),                           // empty aligned write
            (0, 100, 0),                          // empty, unaligned: one line
            (1, 100, 0),                          // ditto on the write path
            (1, 0, 4 << 10),                      // exactly fills all 64 sets
            (0, 0, 4 << 10),                      // full re-read, all hits
            (0, region_end - (4 << 10), 4 << 10), // run ends at region end
            (1, region_end - 100, 100),           // unaligned tail to the end
            (0, region_end - 1, 1),               // last byte alone
            (1, region_end, 0),                   // empty at the very end
        ]);
    }

    #[test]
    fn batched_matches_reference_randomized() {
        use simkit::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(0xBA7C_4ED0);
        for _ in 0..8 {
            // Cached reads and writes only: coherent stores over lines the
            // writer holds dirty legitimately return different *data* in
            // capture vs timing mode (back-invalidation drops unflushed
            // bytes that timing mode had already written through), so the
            // write_coherent equivalence is pinned by the deterministic
            // tests above instead.
            let ops: Vec<(u8, u64, usize)> = (0..40)
                .map(|_| {
                    let kind = rng.gen_range(0..2u32) as u8;
                    let off = rng.gen_range(0..(1u64 << 19));
                    let len = rng.gen_range(1..20_000usize).min((1 << 20) - off as usize);
                    (kind, off, len)
                })
                .collect();
            assert_batched_matches_reference(&ops);
        }
    }

    #[test]
    fn read_timing_is_read_minus_the_bytes() {
        // Twin pools under one seeded mix of cached reads, writes, flushes
        // and non-temporal stores; one twin's reads are `read`, the
        // other's `read_timing`. Timing mode (lean and general branches)
        // and capture mode (per-line loop, fills included) must agree on
        // every `Access`, on cache stats, link bytes and device bytes —
        // and a full read-back afterwards on the bytes either cache holds.
        for capture in [false, true] {
            let mk = || CxlPool::single_host(64 << 10, 1, 4 << 10, capture);
            let (mut full, mut timing) = (mk(), mk());
            let mut rng = simkit::rng::SimRng::seed_from_u64(0x71D1);
            let mut t = SimTime::ZERO;
            for step in 0..6_000 {
                let n = [2usize, 8, 8, 60, 188, 1024][rng.gen_range(0..6usize)];
                let off = rng.gen_range(0..(64u64 << 10) - n as u64);
                let mut buf = vec![rng.gen::<u8>(); n];
                let (a, b) = match rng.gen_range(0..10u32) {
                    0..=5 => (
                        full.read(NodeId(0), off, &mut buf, t),
                        timing.read_timing(NodeId(0), off, n, t),
                    ),
                    6..=7 => (
                        full.write(NodeId(0), off, &buf, t),
                        timing.write(NodeId(0), off, &buf, t),
                    ),
                    8 => (
                        full.clflush(NodeId(0), off, n, t),
                        timing.clflush(NodeId(0), off, n, t),
                    ),
                    _ => (
                        full.write_uncached(NodeId(0), off, &buf[..n.min(8)], t),
                        timing.write_uncached(NodeId(0), off, &buf[..n.min(8)], t),
                    ),
                };
                assert_eq!(a, b, "capture={capture} step {step}");
                t = a.end;
            }
            let cs = full.cache_stats(NodeId(0));
            assert!(cs.hits > 1_000 && cs.misses > 1_000 && cs.writebacks > 100);
            assert_eq!(timing.cache_stats(NodeId(0)), cs);
            assert_eq!(timing.host_link_bytes(0), full.host_link_bytes(0));
            assert_eq!(timing.switch_bytes(), full.switch_bytes());
            assert_eq!(
                timing.raw().slice(0, 64 << 10),
                full.raw().slice(0, 64 << 10)
            );
            let (mut b1, mut b2) = (vec![0u8; 64 << 10], vec![0u8; 64 << 10]);
            assert_eq!(
                timing.read(NodeId(0), 0, &mut b2, t),
                full.read(NodeId(0), 0, &mut b1, t)
            );
            assert_eq!(b1, b2, "capture={capture}");
        }
    }

    #[test]
    fn partial_clflush_tears_at_a_line_boundary() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut p = pool(true);
        // Dirty three lines in the capture cache.
        p.write(NodeId(0), 0, &[0xAA; 192], SimTime::ZERO);
        assert_eq!(p.raw().slice(0, 1), &[0]);
        faults::install(FaultPlan::PartialClflush {
            nth: 0,
            keep_lines: 1,
        });
        let crash = faults::catch(|| p.clflush(NodeId(0), 0, 192, SimTime::ZERO));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        p.crash_node(NodeId(0)); // unflushed dirty lines die with the host
        assert_eq!(p.raw().slice(0, 1), &[0xAA], "first line made it");
        assert_eq!(p.raw().slice(64, 1), &[0], "second line was torn off");
        assert_eq!(p.raw().slice(128, 1), &[0], "third line was torn off");
    }

    #[test]
    fn a_crash_unwinds_at_its_site_and_lands_nothing_after() {
        use simkit::faults::{self, FaultPlan, FaultSite, Trigger};
        faults::clear();
        let mut p = pool(true);
        p.write(NodeId(0), 0, &[7; 64], SimTime::ZERO); // dirty in cache
        let cache = p.cache_stats(NodeId(0));
        // The host dies at its first non-temporal store: the earlier
        // cached read runs, the store and everything after it do not.
        faults::install(FaultPlan::Crash(Trigger::SiteHit(FaultSite::CxlNtStore, 0)));
        let mut buf = [0u8; 64];
        let mut reached = 0;
        let crash = faults::catch(|| {
            p.read(NodeId(0), 0, &mut buf, SimTime(4));
            reached += 1;
            p.write_uncached(NodeId(0), 64, &[9; 64], SimTime(4));
            reached += 1;
        });
        assert_eq!(crash, Err(faults::Crashed));
        assert_eq!((reached, buf), (1, [7; 64]));
        // Every later gate unwinds too, until the plan is cleared.
        let again = faults::catch(|| p.clflush(NodeId(0), 0, 64, SimTime(4)));
        assert_eq!(again, Err(faults::Crashed));
        assert_eq!(faults::stats().total_hits(), 2);
        faults::clear();
        assert_eq!(p.raw().slice(0, 1), &[0], "the dirty line never landed");
        assert_eq!(p.raw().slice(64, 1), &[0], "the store never landed");
        assert_eq!(p.cache_stats(NodeId(0)).hits, cache.hits + 1);
    }

    #[test]
    fn clflush_clean_range_moves_no_bytes() {
        let mut p = pool(false);
        let mut buf = [0u8; 256];
        p.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        let before = p.host_link_bytes(0);
        let a = p.clflush(NodeId(0), 0, 256, SimTime::ZERO);
        assert_eq!(a.link_bytes, 0);
        assert_eq!(p.host_link_bytes(0), before);
    }

    // ---- shard mode ---------------------------------------------------

    #[test]
    fn shard_writes_commit_at_the_barrier_in_node_order() {
        let mut p = CxlPool::single_host(1 << 16, 2, 4 << 10, false);
        let mut shards = vec![p.detach_node(NodeId(0)), p.detach_node(NodeId(1))];
        // Both nodes store to the same word in one quantum.
        shards[0].write_uncached(NodeId(0), 0, &[1; 8], SimTime::ZERO);
        shards[1].write_uncached(NodeId(1), 0, &[2; 8], SimTime::ZERO);
        // Mid-phase: the region is untouched, but each node reads its own
        // store back (read-your-own-writes) and not its peer's.
        assert_eq!(p.raw().slice(0, 1), &[0]);
        let mut b = [0u8; 8];
        shards[0].read_uncached(NodeId(0), 0, &mut b, SimTime::ZERO);
        assert_eq!(b, [1; 8]);
        shards[1].read_uncached(NodeId(1), 0, &mut b, SimTime::ZERO);
        assert_eq!(b, [2; 8]);
        p.barrier(&mut shards);
        // Fixed node order: node 1's store lands last.
        assert_eq!(p.raw().slice(0, 8), &[2; 8]);
        // Next quantum both see the merged bytes.
        shards[0].read_uncached(NodeId(0), 0, &mut b, SimTime::ZERO);
        assert_eq!(b, [2; 8]);
    }

    #[test]
    fn shard_link_backlog_merges_to_the_serial_total() {
        // The same byte volume through pool ops and through shard ops
        // must leave identical link byte counters after the barrier.
        let mut serial = CxlPool::single_host(1 << 16, 2, 64, false);
        let mut buf = vec![0u8; 2048];
        serial.read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        serial.read(NodeId(1), 2048, &mut buf, SimTime::ZERO);

        let mut phased = CxlPool::single_host(1 << 16, 2, 64, false);
        let mut shards = vec![phased.detach_node(NodeId(0)), phased.detach_node(NodeId(1))];
        shards[0].read(NodeId(0), 0, &mut buf, SimTime::ZERO);
        shards[1].read(NodeId(1), 2048, &mut buf, SimTime::ZERO);
        phased.barrier(&mut shards);

        assert_eq!(serial.host_link_bytes(0), phased.host_link_bytes(0));
        assert_eq!(serial.switch_bytes(), phased.switch_bytes());
    }

    #[test]
    fn attach_node_returns_the_cache_and_applies_the_log() {
        let mut p = CxlPool::single_host(1 << 16, 2, 4 << 10, true);
        let mut shard = p.detach_node(NodeId(0));
        shard.write(NodeId(0), 0, &[9; 64], SimTime::ZERO);
        shard.write_uncached(NodeId(0), 64, &[8; 8], SimTime::ZERO);
        p.attach_node(shard);
        // The uncached store landed in the region; the cached store is
        // dirty in the re-attached cache, observable via a pool read.
        assert_eq!(p.raw().slice(64, 1), &[8]);
        let mut b = [0u8; 64];
        p.read(NodeId(0), 0, &mut b, SimTime::ZERO);
        assert_eq!(b, [9; 64]);
    }

    #[test]
    fn shard_prefetch_is_a_no_op_at_the_edges() {
        let size = 1u64 << 16;
        let mut p = CxlPool::single_host(size as usize, 1, 4 << 10, true);
        let mut shard = p.detach_node(NodeId(0));
        shard.write(NodeId(0), size - 64, &[3; 64], SimTime::ZERO);
        let stats = shard.cache_stats();
        // Empty, at the end, past it, far past it, and a length that
        // would overflow the offset; then one clipped at the end and one
        // well inside.
        for (off, len) in [
            (0, 0),
            (size, 0),
            (size, 64),
            (size + 1, 64),
            (u64::MAX, 1),
            (size - 1, usize::MAX),
            (size - 100, 4096),
            (128, 120),
        ] {
            shard.prefetch(off, len);
            shard.reader.prefetch(off, len);
        }
        assert_eq!(shard.cache_stats(), stats, "a prefetch models nothing");
        let mut b = [0u8; 64];
        shard.read(NodeId(0), size - 64, &mut b, SimTime::ZERO);
        assert_eq!(b, [3; 64]);
    }

    // ---- copy_lease vs the same traffic made at the other base ---------

    /// Seeded cached reads and writes, flushes and non-temporal stores by
    /// `node` over a `len`-byte lease at `base`.
    fn lease_traffic(p: &mut CxlPool, node: NodeId, base: u64, len: u64, seed: u64) -> Vec<Access> {
        let mut rng = simkit::rng::SimRng::seed_from_u64(seed);
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        for _ in 0..3_000 {
            let n = rng.gen_range(1..=200usize);
            let off = base + rng.gen_range(0..len - n as u64);
            let mut buf = vec![rng.gen::<u8>(); n];
            let a = match rng.gen_range(0..10u32) {
                0..=3 => p.read(node, off, &mut buf, t),
                4..=6 => p.write(node, off, &buf, t),
                7 => p.clflush(node, off, n, t),
                8 => p.write_uncached(node, off, &buf[..n.min(8)], t),
                _ => p.read_uncached(node, off, &mut buf[..n.min(8)], t),
            };
            t = a.end;
            out.push(a);
        }
        out
    }

    #[test]
    fn copied_lease_equals_the_one_built_in_place() {
        // A 64-set cache over a 24 KB lease, so aliasing is constant.
        let (len, a_off, b_off) = (24 << 10, 0u64, (40 << 10) + 64);
        let mk = || CxlPool::single_host(128 << 10, 2, 4 << 10, false);
        // Node 1 seated at `b_off` by its own traffic...
        let mut built = mk();
        lease_traffic(&mut built, NodeId(1), b_off, len, 7);
        // ...and as a copy of node 0, which made that traffic at `a_off`.
        let mut copied = mk();
        lease_traffic(&mut copied, NodeId(0), a_off, len, 7);
        copied.copy_lease(NodeId(0), a_off, NodeId(1), b_off, len);
        let lease = |p: &CxlPool| p.raw().slice(b_off, len as usize).to_vec();
        assert_eq!(lease(&copied), lease(&built));
        assert_eq!(copied.cache_stats(NodeId(1)), built.cache_stats(NodeId(1)));
        assert!(built.cache_stats(NodeId(1)).writebacks > 0);
        // From here on the two nodes cannot be told apart. (Link clocks
        // differ — node 0's traffic is on the copy's — so reset them, as
        // every harness does after set-up.)
        built.reset_link_counters();
        copied.reset_link_counters();
        assert_eq!(
            lease_traffic(&mut copied, NodeId(1), b_off, len, 8),
            lease_traffic(&mut built, NodeId(1), b_off, len, 8)
        );
        assert_eq!(lease(&copied), lease(&built));
        assert_eq!(copied.cache_stats(NodeId(1)), built.cache_stats(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "not a whole number of cache lines")]
    fn copy_lease_refuses_a_ragged_delta() {
        pool(false).copy_lease(NodeId(0), 0, NodeId(1), 4096 + 8, 1024);
    }

    #[test]
    #[should_panic(expected = "cache has already been used")]
    fn copy_lease_refuses_a_used_destination_cache() {
        let mut p = pool(false);
        p.read(NodeId(1), 8192, &mut [0u8; 8], SimTime::ZERO);
        p.copy_lease(NodeId(0), 0, NodeId(1), 4096, 1024);
    }

    #[test]
    #[should_panic(expected = "cache differs in size")]
    fn copy_lease_refuses_a_differently_sized_cache() {
        let node = |cache_bytes| CxlNodeConfig {
            cache_bytes,
            ..CxlNodeConfig::default()
        };
        let mut p = CxlPool::new(1 << 16, [node(4 << 10), node(8 << 10)]);
        p.copy_lease(NodeId(0), 0, NodeId(1), 4096, 1024);
    }

    #[test]
    #[should_panic(expected = "capture-mode cache cannot be shifted")]
    fn copy_lease_refuses_capture_mode() {
        pool(true).copy_lease(NodeId(0), 0, NodeId(1), 4096, 1024);
    }

    #[test]
    #[should_panic(expected = "overlaps its source")]
    fn copy_lease_refuses_an_overlapping_destination() {
        pool(false).copy_lease(NodeId(0), 0, NodeId(1), 512, 1024);
    }

    #[test]
    #[should_panic(expected = "leaves the region")]
    fn copy_lease_refuses_a_destination_outside_the_pool() {
        pool(false).copy_lease(NodeId(0), 0, NodeId(1), (1 << 20) - 512, 1024);
    }
}
