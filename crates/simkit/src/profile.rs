//! Host-side simulator profiler: per-subsystem wall time and allocation
//! counts for the simulator *itself*.
//!
//! The simulation models virtual time; this module measures **host**
//! time — where the simulator's own CPU cycles and heap allocations go
//! while producing a run. Pure-software CXL simulators are only useful
//! if their per-access host overhead stays orders of magnitude below
//! full-system simulation, so host cost is a first-class performance
//! target (the ledger under `benchmark/` reports it as `prof.*`).
//!
//! Design constraints:
//!
//! - **One flag test when off.** The guards are always compiled; each
//!   is a single thread-local flag test until [`enable`] turns the
//!   profiler on. Timed benchmark passes run with profiling disabled; a
//!   separate profiled pass collects the breakdown.
//! - **Deterministic results.** Profiling only ever *observes* host
//!   time; it never feeds back into virtual time, RNG streams, or any
//!   simulated state, so enabling it cannot change simulation results.
//! - **Nesting-aware self time.** Guards nest (a B+tree operation calls
//!   into the buffer pool, which calls into the CXL model, which charges
//!   a link): each subsystem is credited only its *self* time and
//!   allocations, with children subtracted, so the breakdown sums to
//!   roughly the instrumented total instead of double counting.
//!
//! Accounting is per-thread: profile a run on the thread that enabled
//! the profiler.
//!
//! Allocation counting relies on the host binary installing
//! [`CountingAlloc`] as its `#[global_allocator]`; without it the
//! allocation columns read zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Simulator subsystems attributed by the profiler.
///
/// Granularity follows the crate/data-structure boundaries of the
/// reproduction: one scoped guard per operation at each layer's entry
/// point, nested naturally (Btree → BufferPool → CxlMem/Rdma/Storage →
/// Link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Subsys {
    /// B+tree operations (point lookups, scans, inserts, deletes).
    Btree = 0,
    /// Buffer pool read/write/fix paths (DRAM, tiered RDMA, CXL pools).
    BufferPool = 1,
    /// CXL memory model (cache sweeps, link charging, coherence).
    CxlMem = 2,
    /// RDMA remote-memory model.
    Rdma = 3,
    /// Write-ahead log encode/flush.
    Wal = 4,
    /// Page store (simulated NVMe) reads and writes.
    Storage = 5,
    /// Bandwidth links (NIC / CXL host link / switch / NVMe channel).
    Link = 6,
}

/// Number of [`Subsys`] variants (length of per-subsystem tables).
pub const SUBSYS_COUNT: usize = 7;

impl Subsys {
    /// Stable display name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Subsys::Btree => "btree",
            Subsys::BufferPool => "bufferpool",
            Subsys::CxlMem => "cxl_mem",
            Subsys::Rdma => "rdma",
            Subsys::Wal => "wal",
            Subsys::Storage => "storage",
            Subsys::Link => "link",
        }
    }

    /// All variants, in table order.
    pub const ALL: [Subsys; SUBSYS_COUNT] = [
        Subsys::Btree,
        Subsys::BufferPool,
        Subsys::CxlMem,
        Subsys::Rdma,
        Subsys::Wal,
        Subsys::Storage,
        Subsys::Link,
    ];
}

/// One row of a profiler [`Snapshot`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SubsysRow {
    /// Guard activations (instrumented operations entered).
    pub calls: u64,
    /// Host nanoseconds spent in this subsystem, excluding time spent
    /// in nested instrumented subsystems.
    pub self_ns: u64,
    /// Heap allocations performed in this subsystem, excluding nested
    /// instrumented subsystems (zero unless [`CountingAlloc`] is the
    /// global allocator).
    pub self_allocs: u64,
}

/// Per-thread profiler totals, indexed by [`Subsys`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// One row per subsystem, in [`Subsys::ALL`] order.
    pub rows: [SubsysRow; SUBSYS_COUNT],
}

impl Snapshot {
    /// Row for one subsystem.
    pub fn row(&self, s: Subsys) -> SubsysRow {
        self.rows[s as usize]
    }
}

// ---------------------------------------------------------------------------
// Allocation counting (always compiled; inert unless installed).
// ---------------------------------------------------------------------------

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Number of heap allocations made by the current thread since start,
/// as counted by [`CountingAlloc`]. Zero if the host binary did not
/// install it.
#[inline]
pub fn alloc_count() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Bytes the current thread has requested through [`CountingAlloc`]'s
/// `alloc`, `alloc_zeroed` and `realloc` (its new size) since start;
/// frees are not subtracted. Zero if the host binary did not install it.
#[inline]
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

/// A `GlobalAlloc` wrapper around [`System`] that counts allocations
/// per thread. Install it from the profiling binary:
///
/// ```
/// use simkit::profile::{alloc_bytes, alloc_count, CountingAlloc};
///
/// #[global_allocator]
/// static ALLOC: CountingAlloc = CountingAlloc;
///
/// fn main() {
///     let (count, bytes) = (alloc_count(), alloc_bytes());
///     let v = std::hint::black_box(vec![0u8; 100]);
///     assert_eq!(alloc_count(), count + 1);
///     assert!(alloc_bytes() >= bytes + 100);
///     drop(v);
/// }
/// ```
///
/// The counters are const-initialized thread-local `Cell`s with no
/// destructor, so counting never allocates or recurses.
pub struct CountingAlloc;

#[inline]
fn bump_allocs(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: delegates every operation to `System`; the only addition is
// two thread-local counter increments, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_allocs(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump_allocs(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_allocs(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

// ---------------------------------------------------------------------------
// Instrumentation (always compiled; off until `enable`).
// ---------------------------------------------------------------------------

/// Deepest guard nesting tracked; deeper guards are ignored (their
/// time stays attributed to the enclosing subsystem).
const MAX_DEPTH: usize = 16;

#[derive(Clone, Copy)]
struct Frame {
    subsys: u8,
    start: Instant,
    child_ns: u64,
    allocs_at_entry: u64,
    child_allocs: u64,
}

struct State {
    rows: Snapshot,
    depth: usize,
    stack: [Frame; MAX_DEPTH],
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State {
        rows: Snapshot::default(),
        depth: 0,
        stack: [Frame {
            subsys: 0,
            start: Instant::now(),
            child_ns: 0,
            allocs_at_entry: 0,
            child_allocs: 0,
        }; MAX_DEPTH],
    });
}

/// Scoped profiling guard; accounting happens on drop.
#[must_use = "profiling stops when the guard is dropped"]
pub struct Guard {
    active: bool,
}

/// Turn profiling on or off for the current thread. Leaves accumulated
/// totals untouched.
#[inline]
pub fn enable(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether profiling is currently enabled on this thread.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Clear the current thread's accumulated totals (and any dangling
/// nesting state).
pub fn reset() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.rows = Snapshot::default();
        s.depth = 0;
    });
}

/// Copy of the current thread's accumulated per-subsystem totals.
pub fn snapshot() -> Snapshot {
    STATE.with(|s| s.borrow().rows.clone())
}

/// Enter `subsys`: host time and allocations until the returned guard
/// drops are attributed to it (minus nested instrumented scopes).
///
/// Costs one thread-local flag test when profiling is disabled.
#[inline]
pub fn scope(subsys: Subsys) -> Guard {
    if !ENABLED.with(|e| e.get()) {
        return Guard { active: false };
    }
    let active = STATE.with(|s| {
        let mut s = s.borrow_mut();
        if s.depth >= MAX_DEPTH {
            return false;
        }
        let depth = s.depth;
        s.stack[depth] = Frame {
            subsys: subsys as u8,
            start: Instant::now(),
            child_ns: 0,
            allocs_at_entry: alloc_count(),
            child_allocs: 0,
        };
        s.depth = depth + 1;
        true
    });
    Guard { active }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        self.record();
    }
}

impl Guard {
    /// Out-of-line accounting slow path, so the disabled-profiler drop
    /// inlines to a single predictable branch at every call site.
    #[cold]
    fn record(&mut self) {
        let now_allocs = alloc_count();
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert!(s.depth > 0, "guard drop without matching scope");
            s.depth -= 1;
            let f = s.stack[s.depth];
            let total_ns = f.start.elapsed().as_nanos() as u64;
            let total_allocs = now_allocs.saturating_sub(f.allocs_at_entry);
            let row = &mut s.rows.rows[f.subsys as usize];
            row.calls += 1;
            row.self_ns += total_ns.saturating_sub(f.child_ns);
            row.self_allocs += total_allocs.saturating_sub(f.child_allocs);
            if s.depth > 0 {
                let parent_idx = s.depth - 1;
                let parent = &mut s.stack[parent_idx];
                parent.child_ns += total_ns;
                parent.child_allocs += total_allocs;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t0 = std::time::Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_guards_record_nothing() {
        reset();
        enable(false);
        {
            let _g = scope(Subsys::Btree);
            spin(10_000);
        }
        assert_eq!(snapshot().row(Subsys::Btree).calls, 0);
    }

    #[test]
    fn nested_guards_attribute_self_time() {
        reset();
        enable(true);
        let wall = std::time::Instant::now();
        {
            let _outer = scope(Subsys::Btree);
            spin(200_000);
            {
                let _inner = scope(Subsys::BufferPool);
                spin(200_000);
            }
        }
        let outer_wall_ns = wall.elapsed().as_nanos() as u64;
        enable(false);
        let snap = snapshot();
        let outer = snap.row(Subsys::Btree);
        let inner = snap.row(Subsys::BufferPool);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Each scope holds its own spin, and the two self times split the
        // outer scope's span, which lies inside `wall`'s: nested intervals,
        // so these hold however busy the host is.
        assert!(inner.self_ns >= 200_000, "inner {} ns", inner.self_ns);
        assert!(outer.self_ns >= 200_000, "outer {} ns", outer.self_ns);
        assert!(
            outer.self_ns + inner.self_ns <= outer_wall_ns,
            "outer {} + inner {} > wall {outer_wall_ns}",
            outer.self_ns,
            inner.self_ns
        );
        reset();
    }

    #[test]
    fn reset_clears_totals() {
        reset();
        enable(true);
        {
            let _g = scope(Subsys::Wal);
        }
        enable(false);
        assert_eq!(snapshot().row(Subsys::Wal).calls, 1);
        reset();
        assert_eq!(snapshot(), Snapshot::default());
    }
}
