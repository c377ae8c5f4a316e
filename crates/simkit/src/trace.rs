//! Virtual-time tracing and latency attribution: explain every simulated
//! nanosecond.
//!
//! [`profile`](crate::profile) answers "where does the *host* CPU go?";
//! this module answers the question the paper's figures are actually
//! about — "where does the *simulated* time go?". Two complementary
//! instruments share one runtime switchboard:
//!
//! - **Spans** ([`span`]): timed events in virtual time (a query, a
//!   buffer-pool miss, a CXL page read, a WAL flush...), recorded into a
//!   fixed-capacity per-thread ring buffer and exportable as Chrome
//!   `trace_event` JSON ([`chrome_trace_json`]) that loads directly in
//!   Perfetto / `chrome://tracing`.
//! - **Attribution** ([`attr_add`]): every *leaf* timed primitive adds
//!   the nanoseconds it contributed to a per-thread [`Lane`] accumulator.
//!   Virtual time in this simulator composes by sequential chaining
//!   (`t = op(t)` everywhere, never in parallel within one query), so
//!   the sum of leaf deltas between two [`attr_snapshot`] calls equals
//!   the end-to-end simulated latency *exactly* — a conservation
//!   invariant pinned by `tests/attribution_conservation.rs` for all
//!   four buffer-pool designs.
//!
//! Discipline (same as the profiler's):
//!
//! - **One flag test when unused.** A disabled tracer costs one inlined
//!   thread-local flag test per call site, and the hot path performs no
//!   heap allocation whether tracing is enabled or not (the ring buffer
//!   is preallocated when spans are enabled).
//! - **Observation only.** Recording never feeds back into virtual
//!   time, RNG streams, or simulated state, so enabling tracing cannot
//!   change any simulation result; both switches default to off on
//!   every thread, which keeps serial and parallel sweeps bit-identical.

use crate::json;
use crate::time::SimTime;
use std::cell::{Cell, RefCell};

// ---------------------------------------------------------------------------
// Lanes: where a simulated nanosecond is spent.
// ---------------------------------------------------------------------------

/// Latency-attribution lane — the component a leaf primitive charges its
/// simulated nanoseconds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Lane {
    /// CPU service and CPU-queue wait ([`crate::resource::MultiServer`])
    /// plus fixed per-transaction CPU overheads.
    Cpu = 0,
    /// CXL fabric: base load/store latency plus host-link (PCIe Gen5)
    /// queueing.
    CxlLink = 1,
    /// Extra wait attributable to the CXL switch stage beyond the host
    /// link (zero until the switch itself becomes the bottleneck).
    Switch = 2,
    /// RDMA NIC: protocol base latency, per-op serialization and NIC
    /// bandwidth queueing.
    RdmaNic = 3,
    /// Accesses served by the CPU cache in front of a memory space.
    CacheHit = 4,
    /// Local DRAM latency (buffer-pool frame reads/writes).
    Dram = 5,
    /// WAL device transfers and flush overhead.
    Wal = 6,
    /// Simulated NVMe page-store reads and writes.
    Storage = 7,
    /// Everything else: control-plane RPCs (memory manager, page-address
    /// requests) and other fixed costs outside the data path.
    Other = 8,
}

/// Number of [`Lane`] variants (length of attribution tables).
pub const LANE_COUNT: usize = 9;

impl Lane {
    /// Stable snake_case name (used as BENCH JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Cpu => "cpu",
            Lane::CxlLink => "cxl_link",
            Lane::Switch => "switch",
            Lane::RdmaNic => "rdma_nic",
            Lane::CacheHit => "cache_hit",
            Lane::Dram => "dram",
            Lane::Wal => "wal",
            Lane::Storage => "storage",
            Lane::Other => "other",
        }
    }

    /// All variants, in table order.
    pub const ALL: [Lane; LANE_COUNT] = [
        Lane::Cpu,
        Lane::CxlLink,
        Lane::Switch,
        Lane::RdmaNic,
        Lane::CacheHit,
        Lane::Dram,
        Lane::Wal,
        Lane::Storage,
        Lane::Other,
    ];
}

/// Simulated-nanosecond totals per [`Lane`]; the difference of two
/// [`attr_snapshot`] calls decomposes the latency in between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryBreakdown {
    /// Nanoseconds per lane, indexed by [`Lane`] (see [`Lane::ALL`]).
    pub ns: [u64; LANE_COUNT],
}

impl QueryBreakdown {
    /// Nanoseconds attributed to one lane.
    pub fn lane(&self, lane: Lane) -> u64 {
        self.ns[lane as usize]
    }

    /// Sum over all lanes — equals the end-to-end simulated latency of
    /// the enclosed interval (the conservation invariant).
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Lane-wise difference `self - earlier` (both from
    /// [`attr_snapshot`], `self` taken later).
    pub fn since(&self, earlier: &QueryBreakdown) -> QueryBreakdown {
        let mut out = QueryBreakdown::default();
        for i in 0..LANE_COUNT {
            out.ns[i] = self.ns[i].saturating_sub(earlier.ns[i]);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Spans: timed events in virtual time.
// ---------------------------------------------------------------------------

/// What a trace span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// One query/transaction through the engine (harness-level).
    Query = 0,
    /// Buffer-pool miss: page fill from storage / remote memory / CXL.
    BpMiss = 1,
    /// CXL memory read (cached or uncached path).
    CxlRead = 2,
    /// CXL memory write (cached, uncached or coherent-store path).
    CxlWrite = 3,
    /// Cache-line flush or invalidation against CXL memory.
    Clflush = 4,
    /// RDMA read: page (or scratch) pulled from remote memory.
    RdmaPageIn = 5,
    /// RDMA write: page pushed to remote memory.
    RdmaPageOut = 6,
    /// Small RDMA message (invalidation, doorbell).
    RdmaMsg = 7,
    /// WAL flush (group commit) on the log device.
    WalFlush = 8,
    /// Checkpoint: WAL flush + dirty-page writeback.
    Checkpoint = 9,
    /// Crash-recovery replay (ARIES-style or PolarRecv).
    RecoveryReplay = 10,
}

/// Number of [`SpanKind`] variants.
pub const SPAN_KIND_COUNT: usize = 11;

impl SpanKind {
    /// Stable snake_case name (Perfetto track / event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::BpMiss => "bp_miss",
            SpanKind::CxlRead => "cxl_read",
            SpanKind::CxlWrite => "cxl_write",
            SpanKind::Clflush => "clflush",
            SpanKind::RdmaPageIn => "rdma_page_in",
            SpanKind::RdmaPageOut => "rdma_page_out",
            SpanKind::RdmaMsg => "rdma_msg",
            SpanKind::WalFlush => "wal_flush",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::RecoveryReplay => "recovery_replay",
        }
    }
}

/// One recorded span: a [`SpanKind`] interval in virtual time on a
/// node/host, with the bytes it moved (0 for pure-latency events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: SpanKind,
    /// Node / host / instance id the event belongs to (Perfetto pid).
    pub node: u32,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time (`>= start`).
    pub end: SimTime,
    /// Bytes moved over the relevant link (0 when none).
    pub bytes: u64,
}

/// Ring-buffer capacity (events per thread). When the buffer is full the
/// oldest events are overwritten; [`dropped_events`] counts casualties.
pub const RING_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Instrumentation: per-thread switches, lane totals and span ring.
// ---------------------------------------------------------------------------

const SPANS: u8 = 1 << 0;
const ATTR: u8 = 1 << 1;

struct Ring {
    buf: Vec<TraceEvent>,
    /// Oldest event's index once the buffer has wrapped.
    head: usize,
    dropped: u64,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % RING_CAPACITY;
            self.dropped += 1;
        }
    }

    /// Remove every event, oldest first. Keeps the allocation and the
    /// dropped count.
    fn drain(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        out
    }
}

thread_local! {
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static LANES: RefCell<[u64; LANE_COUNT]> = const { RefCell::new([0; LANE_COUNT]) };
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

/// Turn span recording on or off for the current thread.
pub fn enable_spans(on: bool) {
    FLAGS.with(|f| {
        f.set(if on {
            f.get() | SPANS
        } else {
            f.get() & !SPANS
        })
    });
    if on {
        // Preallocate once so recording never touches the heap.
        RING.with(|r| r.borrow_mut().buf.reserve(RING_CAPACITY));
    }
}

/// Turn latency attribution on or off for the current thread.
pub fn enable_attribution(on: bool) {
    FLAGS.with(|f| f.set(if on { f.get() | ATTR } else { f.get() & !ATTR }));
}

/// Whether latency attribution is enabled on this thread.
#[inline]
pub fn attribution_enabled() -> bool {
    FLAGS.with(|f| f.get()) & ATTR != 0
}

/// Whether either instrument is enabled (single-test gate for helpers
/// that would otherwise compute span *and* attribution arguments).
#[inline]
pub fn active() -> bool {
    FLAGS.with(|f| f.get()) != 0
}

/// Clear this thread's lane totals, ring buffer and dropped count.
pub fn reset() {
    LANES.with(|l| *l.borrow_mut() = [0; LANE_COUNT]);
    RING.with(|r| {
        let mut r = r.borrow_mut();
        r.buf.clear();
        r.head = 0;
        r.dropped = 0;
    });
}

/// Copy of this thread's accumulated lane totals.
pub fn attr_snapshot() -> QueryBreakdown {
    LANES.with(|l| QueryBreakdown { ns: *l.borrow() })
}

/// Drain this thread's recorded spans, oldest first. Keeps the ring's
/// allocation; [`dropped_events`] is *not* reset.
pub fn take_events() -> Vec<TraceEvent> {
    RING.with(|r| r.borrow_mut().drain())
}

/// Events this thread's ring buffer overwrote because it was full,
/// since the last [`reset`].
pub fn dropped_events() -> u64 {
    RING.with(|r| r.borrow().dropped)
}

/// Attribute `ns` simulated nanoseconds to `lane`. Called by every leaf
/// timed primitive; a single inlined flag test when attribution is off.
#[inline]
pub fn attr_add(lane: Lane, ns: u64) {
    if FLAGS.with(|f| f.get()) & ATTR != 0 {
        attr_add_slow(lane, ns);
    }
}

#[cold]
fn attr_add_slow(lane: Lane, ns: u64) {
    LANES.with(|l| l.borrow_mut()[lane as usize] += ns);
}

/// Record a span. A single inlined flag test when spans are off.
#[inline]
pub fn span(kind: SpanKind, node: u32, start: SimTime, end: SimTime, bytes: u64) {
    if FLAGS.with(|f| f.get()) & SPANS != 0 {
        span_slow(kind, node, start, end, bytes);
    }
}

#[cold]
fn span_slow(kind: SpanKind, node: u32, start: SimTime, end: SimTime, bytes: u64) {
    debug_assert!(end >= start, "span ends before it starts");
    let ev = TraceEvent {
        kind,
        node,
        start,
        end,
        bytes,
    };
    RING.with(|r| r.borrow_mut().push(ev));
}

// ---------------------------------------------------------------------------
// Chrome trace_event export.
// ---------------------------------------------------------------------------

/// tid stride per span kind; lanes above this fold into the last track
/// (never reached in practice — it would take >4096 spans of one kind
/// overlapping one instant on one node).
const LANE_STRIDE: usize = 4096;

/// The order [`chrome_trace_json`] draws `events` in — by start time —
/// and the `tid` track of each, as `(index into events, tid)`. Each
/// [`SpanKind`] gets its own group of `tid`s; events of one kind on one
/// node that overlap in virtual time (interleaved workers) are spread
/// greedily over as many lanes as needed, so **within any single
/// `(node, tid)` track spans never overlap** (`tests/traced_run.rs`
/// holds a whole traced run to that).
pub fn chrome_tracks(events: &[TraceEvent]) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| {
        let e = &events[i];
        (e.start, e.end, e.kind as u8, e.node)
    });

    // Greedy lane assignment: per (node, kind), first lane free at start.
    let mut lane_ends: crate::FastMap<(u32, u8), Vec<SimTime>> = crate::FastMap::default();
    order
        .into_iter()
        .map(|i| {
            let e = &events[i];
            let ends = lane_ends.entry((e.node, e.kind as u8)).or_default();
            let lane = match ends.iter().position(|&end| end <= e.start) {
                Some(l) => l,
                None if ends.len() < LANE_STRIDE - 1 => {
                    ends.push(SimTime::ZERO);
                    ends.len() - 1
                }
                None => ends.len() - 1,
            };
            ends[lane] = e.end;
            (i, e.kind as usize * LANE_STRIDE + lane)
        })
        .collect()
}

/// Render spans as Chrome `trace_event` JSON (the "JSON Array Format"
/// with a `traceEvents` wrapper), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Layout: `pid` = node/host id, `tid` = the event's [`chrome_tracks`]
/// track. Timestamps are microseconds (the format's unit) with
/// nanosecond fractions.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut rows: Vec<String> = Vec::with_capacity(events.len());
    let mut tracks: Vec<(u32, usize, SpanKind)> = Vec::new(); // (pid, tid, kind)
    for (i, tid) in chrome_tracks(events) {
        let e = &events[i];
        if !tracks.iter().any(|t| t.0 == e.node && t.1 == tid) {
            tracks.push((e.node, tid, e.kind));
        }
        let ts = e.start.as_nanos() as f64 / 1000.0;
        let dur = (e.end.as_nanos() - e.start.as_nanos()) as f64 / 1000.0;
        rows.push(format!(
            "{{\"name\": \"{}\", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
             \"pid\": {}, \"tid\": {}, \"args\": {{\"bytes\": {}}}}}",
            e.kind.name(),
            json::num(ts),
            json::num(dur),
            e.node,
            tid,
            e.bytes
        ));
    }

    // Name the tracks so Perfetto shows "cxl_read.0" instead of tid soup.
    tracks.sort_unstable_by_key(|t| (t.0, t.1));
    let mut meta: Vec<String> = Vec::with_capacity(tracks.len());
    for (pid, tid, kind) in tracks {
        meta.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{}.{}\"}}}}",
            kind.name(),
            tid % LANE_STRIDE
        ));
    }

    meta.extend(rows);
    format!(
        "{{\"displayTimeUnit\": \"ns\", \"traceEvents\": [{}]}}\n",
        meta.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + ns
    }

    #[test]
    fn disabled_records_nothing() {
        reset();
        enable_spans(false);
        enable_attribution(false);
        span(SpanKind::Query, 0, t(0), t(10), 0);
        attr_add(Lane::Cpu, 100);
        assert!(take_events().is_empty());
        assert_eq!(attr_snapshot(), QueryBreakdown::default());
    }

    #[test]
    fn spans_round_trip_in_order() {
        reset();
        enable_spans(true);
        span(SpanKind::CxlRead, 1, t(5), t(9), 64);
        span(SpanKind::Query, 0, t(0), t(20), 2);
        enable_spans(false);
        let ev = take_events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, SpanKind::CxlRead);
        assert_eq!(ev[0].bytes, 64);
        assert_eq!(ev[1].start, t(0));
        assert!(take_events().is_empty(), "drained");
        reset();
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        reset();
        enable_spans(true);
        for i in 0..(RING_CAPACITY as u64 + 3) {
            span(SpanKind::RdmaMsg, 0, t(i), t(i + 1), 64);
        }
        enable_spans(false);
        assert_eq!(dropped_events(), 3);
        let ev = take_events();
        assert_eq!(ev.len(), RING_CAPACITY);
        // Oldest three were overwritten; drain starts at event 3.
        assert_eq!(ev[0].start, t(3));
        assert_eq!(ev.last().unwrap().start, t(RING_CAPACITY as u64 + 2));
        reset();
    }

    #[test]
    fn attribution_accumulates_and_diffs() {
        reset();
        enable_attribution(true);
        attr_add(Lane::Cpu, 100);
        let before = attr_snapshot();
        attr_add(Lane::Cpu, 10);
        attr_add(Lane::Wal, 5);
        let diff = attr_snapshot().since(&before);
        enable_attribution(false);
        assert_eq!(diff.lane(Lane::Cpu), 10);
        assert_eq!(diff.lane(Lane::Wal), 5);
        assert_eq!(diff.total_ns(), 15);
        reset();
    }

    #[test]
    fn chrome_export_separates_overlapping_spans() {
        // Two overlapping cxl_read spans on one node must land on
        // different tid tracks; a later non-overlapping one reuses lane 0.
        let events = [
            TraceEvent {
                kind: SpanKind::CxlRead,
                node: 0,
                start: t(0),
                end: t(100),
                bytes: 64,
            },
            TraceEvent {
                kind: SpanKind::CxlRead,
                node: 0,
                start: t(50),
                end: t(150),
                bytes: 64,
            },
            TraceEvent {
                kind: SpanKind::CxlRead,
                node: 0,
                start: t(200),
                end: t(300),
                bytes: 64,
            },
        ];
        let out = chrome_trace_json(&events);
        let base = SpanKind::CxlRead as usize * 4096;
        assert!(out.contains(&format!("\"tid\": {}", base)));
        assert!(out.contains(&format!("\"tid\": {}", base + 1)));
        assert!(out.contains("\"name\": \"cxl_read.1\""));
        // Exactly two lanes: the third span fits back on lane 0.
        assert!(!out.contains(&format!("\"tid\": {}", base + 2)));
        assert!(out.contains("\"displayTimeUnit\": \"ns\""));
        assert!(out.contains("\"ts\": 0.05")); // 50 ns = 0.05 µs
    }

    #[test]
    fn lane_and_kind_names_are_snake_case() {
        for lane in Lane::ALL {
            let n = lane.name();
            assert!(n
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
        for k in 0..SPAN_KIND_COUNT {
            // Names must be unique per kind.
            for j in 0..k {
                let a = [
                    SpanKind::Query,
                    SpanKind::BpMiss,
                    SpanKind::CxlRead,
                    SpanKind::CxlWrite,
                    SpanKind::Clflush,
                    SpanKind::RdmaPageIn,
                    SpanKind::RdmaPageOut,
                    SpanKind::RdmaMsg,
                    SpanKind::WalFlush,
                    SpanKind::Checkpoint,
                    SpanKind::RecoveryReplay,
                ];
                assert_ne!(a[k].name(), a[j].name());
            }
        }
    }
}
