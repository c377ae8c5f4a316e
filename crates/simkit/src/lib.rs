//! # simkit — deterministic virtual-time simulation kernel
//!
//! The foundation of the PolarCXLMem reproduction: a small discrete
//! virtual-time kernel. Real data structures (pages, B+trees, WAL) execute
//! real operations, while *time* is simulated — latencies, bandwidth
//! queueing, CPU service and lock contention are all accounted in
//! nanoseconds of virtual time. This yields deterministic,
//! hardware-independent reproductions of the paper's throughput, latency,
//! bandwidth and recovery-timeline figures.
//!
//! Building blocks:
//! - [`time::SimTime`] — the virtual clock unit (ns).
//! - [`resource::MultiServer`] — M/G/k-style station (instance vCPUs).
//! - [`resource::Link`] — FIFO bandwidth pipe (RDMA NIC, CXL host link,
//!   NVMe channel), the origin of every saturation knee in the paper.
//! - [`lock::LockTable`] — virtual-time S/X locks (page latches,
//!   distributed page locks).
//! - [`worker::WorkerSet`] — closed-loop scheduler that interleaves
//!   sysbench-style workers in start-time order.
//! - [`stats`] — HDR-style histograms, time-bucketed series,
//!   and the named [`stats::MetricsRegistry`] snapshotted into BENCH JSON.
//! - [`rng`] — seeded, stream-split randomness.
//! - [`trace`] — virtual-time spans and per-lane latency attribution
//!   (the simulated-time counterpart of [`profile`]).
//! - [`faults`] — seeded, deterministic fault injection over the same
//!   leaf primitives the tracer instruments.
//! - [`json`] — the dependency-free JSON writer behind every artifact.

#![warn(missing_docs)]

pub mod fastmap;
pub mod faults;
pub mod json;
pub mod lock;
pub mod par;
pub mod profile;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod worker;

pub use fastmap::{FastMap, FastSet};
pub use faults::{FaultPlan, FaultSite, FaultStats, Verdict};
pub use lock::{LockDelta, LockMode, LockShard, LockTable, VLock};
pub use resource::{Grant, Link, LinkFork, MultiServer};
pub use stats::{Histogram, MetricValue, MetricsRegistry, TimeSeries};
pub use time::{dur, SimTime};
pub use trace::{Lane, QueryBreakdown, SpanKind, TraceEvent};
pub use worker::{Step, WorkerId, WorkerSet};

/// Whether nothing observes or perturbs individual operations right now:
/// host profiler off, tracer off, no fault plan installed. Only then may
/// a lean path skip the per-operation profiler scope, attribution note,
/// fault gate or poison probe; an instrumented or fault-armed run takes
/// the general path, so `prof.*.calls`, lane totals, spans and fault-site
/// hit indices are those of the general path by construction. The one
/// definition: every lean path asks this.
#[inline]
pub fn unobserved() -> bool {
    !profile::is_enabled() && !trace::active() && !faults::active()
}

/// Run `f` over `len` zeroed scratch bytes: on the stack when they fit
/// in 256 (a B+tree slot-directory shift, a record), on the heap above
/// that — so the common small case never touches the allocator.
#[inline]
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut stack = [0u8; 256];
    match stack.get_mut(..len) {
        Some(buf) => f(buf),
        None => f(&mut vec![0u8; len]),
    }
}

/// Clone `v` keeping its *capacity*. `Vec::clone` allocates for the
/// length alone, so a clone of a buffer that was pre-sized to keep a hot
/// path off the allocator would start growing where the original never
/// does — and a copied instance must allocate exactly as the one it was
/// copied from.
#[allow(clippy::ptr_arg)] // a slice has no capacity to read
pub fn clone_reserved<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(v.capacity());
    out.extend_from_slice(v);
    out
}
