//! Deterministic crash injection: fault plans over the leaf primitives
//! of the simulated fabric.
//!
//! [`trace`](crate::trace) *observes* the leaf timed primitives; this
//! module *perturbs* them. A [`FaultPlan`] schedules at most one host
//! crash — the adversary PolarRecv's safety claim is about — by global
//! or per-site hit index, and is installed per thread. Every leaf
//! primitive a host crash can interrupt polls [`gate`] at its injection
//! [`FaultSite`]. The crash takes one of three shapes:
//!
//! - **Torn WAL flush** — only a prefix of the *n*-th WAL flush becomes
//!   durable before the host dies (a torn multi-block log write).
//! - **Partial clflush** — only the first *k* dirty cache lines of the
//!   *n*-th clflush reach the CXL box before the host dies (a torn
//!   multi-cacheline flush, the §3.3 protocol's adversary).
//! - **Crash** — the host dies at the *n*-th site hit, before that
//!   primitive does anything.
//!
//! A crash is an instant, not a mode: it ends the host's execution. The
//! gate records where it landed and unwinds with the [`Crashed`]
//! payload; a torn or partial site first lands its prefix, then calls
//! the same [`unwind`]. Nothing runs on the dead host, so no layer
//! below the harness has a dead-host path: the harness [`catch`]es the
//! payload and runs the normal crash path (the pool's `crash`, then
//! recovery). Until [`install`] or [`clear`], every later gate unwinds
//! again. A plan therefore needs the default `panic = "unwind"`; no
//! build here sets `abort`, and the ledger never installs a plan.
//!
//! Discipline (same as the tracer's):
//!
//! - **Zero cost when unused.** With no plan installed, [`gate`] is one
//!   inlined thread-local flag test returning [`Verdict::Run`] — no
//!   heap traffic, no branch into the engine.
//! - **Deterministic.** Triggers count gate polls, never host time.
//!   Same plan ⇒ bit-identical fault schedule, metrics and recovered
//!   contents, on any thread (state is thread-local, so serial and
//!   parallel sweeps agree).

// ---------------------------------------------------------------------------
// Sites, verdicts, plans.
// ---------------------------------------------------------------------------

/// An injection site: a leaf primitive where faults can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// WAL group-commit flush on the log device ([`Verdict::Torn`]).
    WalFlush = 0,
    /// Cache-line flush against CXL memory ([`Verdict::Partial`]).
    Clflush = 1,
    /// Cached CXL memory read.
    CxlRead = 2,
    /// Uncached (non-temporal) CXL store — the durable-metadata path.
    CxlNtStore = 3,
    /// RDMA read from remote memory.
    RdmaRead = 4,
    /// RDMA write to remote memory.
    RdmaWrite = 5,
    /// Page write to the simulated NVMe store.
    StorageWrite = 6,
}

/// Number of [`FaultSite`] variants (length of per-site stat tables).
pub const SITE_COUNT: usize = 7;

impl FaultSite {
    /// Stable snake_case name (used as metric keys and in reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalFlush => "wal_flush",
            FaultSite::Clflush => "clflush",
            FaultSite::CxlRead => "cxl_read",
            FaultSite::CxlNtStore => "cxl_nt_store",
            FaultSite::RdmaRead => "rdma_read",
            FaultSite::RdmaWrite => "rdma_write",
            FaultSite::StorageWrite => "storage_write",
        }
    }

    /// All variants, in table order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::WalFlush,
        FaultSite::Clflush,
        FaultSite::CxlRead,
        FaultSite::CxlNtStore,
        FaultSite::RdmaRead,
        FaultSite::RdmaWrite,
        FaultSite::StorageWrite,
    ];
}

/// What the polled primitive must do. A plain crash returns none: the
/// gate unwinds instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No fault: execute normally.
    Run,
    /// Torn WAL flush: only the first `keep_bytes` bytes of the flushed
    /// buffer become durable; the site lands them, then calls
    /// [`unwind`].
    Torn {
        /// Durable prefix length in bytes (clamped by the flush size).
        keep_bytes: u64,
    },
    /// Partial clflush: only the first `keep_lines` dirty lines of this
    /// flush reach the device; the site lands them, then calls
    /// [`unwind`].
    Partial {
        /// Cache lines that complete before the crash.
        keep_lines: u64,
    },
}

/// Where a [`FaultPlan::Crash`] lands. Both counters are 0-indexed and
/// count *armed, pre-crash* gate polls only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The `n`-th gate poll across all sites.
    HitIndex(u64),
    /// The `n`-th gate poll at one specific site.
    SiteHit(FaultSite, u64),
}

/// A deterministic fault schedule: at most one host crash. The default
/// plan crashes nowhere but still counts every site poll: sweeps
/// install one to enumerate the reachable injection sites. A torn or
/// partial shape names its own site, so it always lands where its
/// prefix can be honoured. Every index counts that site's armed,
/// pre-crash polls from 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultPlan {
    /// Count polls only.
    #[default]
    NoCrash,
    /// Kill the host at the triggering poll, before that primitive
    /// does anything.
    Crash(Trigger),
    /// Tear the `nth` WAL flush at a byte boundary, then kill the host.
    TornWalFlush {
        /// Which [`FaultSite::WalFlush`] poll tears.
        nth: u64,
        /// Durable prefix length in bytes.
        keep_bytes: u64,
    },
    /// Flush only the first `keep_lines` lines of the `nth` clflush,
    /// then kill the host.
    PartialClflush {
        /// Which [`FaultSite::Clflush`] poll is cut short.
        nth: u64,
        /// Cache lines that complete before the crash.
        keep_lines: u64,
    },
}

impl FaultPlan {
    /// A plan with a single crash at the `n`-th global site hit.
    pub fn crash_at_hit(n: u64) -> Self {
        FaultPlan::Crash(Trigger::HitIndex(n))
    }
}

/// What the installed plan has done so far. Counters freeze at the
/// crash instant (a gate reached after it unwinds uncounted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Gate polls per site, indexed by [`FaultSite`] (see
    /// [`FaultSite::ALL`]).
    pub hits: [u64; SITE_COUNT],
    /// Global hit index at which the host crashed, if it did.
    pub crash_hit: Option<u64>,
    /// Site whose poll the crash landed on, if it did.
    pub crash_site: Option<FaultSite>,
}

impl FaultStats {
    /// Gate polls across all sites.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// The per-thread engine.
// ---------------------------------------------------------------------------

struct Engine {
    plan: FaultPlan,
    stats: FaultStats,
}

impl Engine {
    const fn empty() -> Self {
        Engine {
            plan: FaultPlan::NoCrash,
            stats: FaultStats {
                hits: [0; SITE_COUNT],
                crash_hit: None,
                crash_site: None,
            },
        }
    }
}

use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ENGINE: RefCell<Engine> = const { RefCell::new(Engine::empty()) };
}

/// Install a fault plan on this thread (replacing any previous one) and
/// arm the gates. Counters start from zero and the host lives again.
pub fn install(plan: FaultPlan) {
    ENGINE.with(|e| {
        let mut e = e.borrow_mut();
        *e = Engine::empty();
        e.plan = plan;
    });
    ARMED.with(|a| a.set(true));
}

/// Disarm fault injection on this thread and drop the plan. Gates go
/// back to the single-flag-test fast path.
pub fn clear() {
    ARMED.with(|a| a.set(false));
    ENGINE.with(|e| *e.borrow_mut() = Engine::empty());
}

/// Whether a plan is installed on this thread.
#[inline]
pub fn active() -> bool {
    ARMED.with(Cell::get)
}

/// Snapshot of the installed plan's counters.
pub fn stats() -> FaultStats {
    ENGINE.with(|e| e.borrow().stats)
}

/// The payload a host crash unwinds with. [`catch`] tells it apart from
/// any other panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

/// End the host's execution: unwind to the harness's [`catch`] with the
/// [`Crashed`] payload. `resume_unwind` runs no panic hook, so a crash
/// prints nothing. A torn or partial site calls this after landing its
/// prefix; plain crashes unwind from [`gate`] itself.
pub fn unwind() -> ! {
    panic::resume_unwind(Box::new(Crashed))
}

/// Run `f`, the host's work under an installed plan: `Err(Crashed)` when
/// the plan's crash unwound out of it. Any other panic propagates, so a
/// bug on a crash path still fails its test. What `f` borrows is taken
/// as unwind-safe because the caller's crash path discards every
/// volatile part of it: that is the crash model itself.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, Crashed> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) if payload.is::<Crashed>() => Err(Crashed),
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// Poll the fault engine at an injection site. One inlined thread-local
/// flag test when no plan is installed; otherwise the slow path counts
/// the hit and matches it against the plan. A plain crash here unwinds
/// and never returns; a torn or partial one returns its shape.
#[inline]
pub fn gate(site: FaultSite) -> Verdict {
    if !active() {
        return Verdict::Run;
    }
    gate_slow(site)
}

#[cold]
fn gate_slow(site: FaultSite) -> Verdict {
    let (fires, shape) = ENGINE.with(|e| {
        let mut e = e.borrow_mut();
        if e.stats.crash_hit.is_some() {
            // Nothing runs on a dead host; the counters stay frozen.
            return (true, Verdict::Run);
        }
        let idx = e.stats.total_hits();
        let site_idx = e.stats.hits[site as usize];
        e.stats.hits[site as usize] += 1;
        // A plain crash keeps none of the primitive (`Run` stands for
        // "no prefix"); a torn or partial one keeps its prefix.
        let (fires, shape) = match e.plan {
            FaultPlan::NoCrash => (false, Verdict::Run),
            FaultPlan::Crash(Trigger::HitIndex(n)) => (n == idx, Verdict::Run),
            FaultPlan::Crash(Trigger::SiteHit(s, n)) => (s == site && n == site_idx, Verdict::Run),
            FaultPlan::TornWalFlush { nth, keep_bytes } => (
                site == FaultSite::WalFlush && nth == site_idx,
                Verdict::Torn { keep_bytes },
            ),
            FaultPlan::PartialClflush { nth, keep_lines } => (
                site == FaultSite::Clflush && nth == site_idx,
                Verdict::Partial { keep_lines },
            ),
        };
        if fires {
            e.stats.crash_hit = Some(idx);
            e.stats.crash_site = Some(site);
        }
        (fires, shape)
    });
    match (fires, shape) {
        (false, _) => Verdict::Run,
        (true, Verdict::Run) => unwind(),
        (true, shape) => shape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain() {
        clear();
    }

    #[test]
    fn disarmed_gate_is_run_and_counts_nothing() {
        drain();
        assert_eq!(gate(FaultSite::WalFlush), Verdict::Run);
        assert_eq!(stats().total_hits(), 0);
        assert!(!active());
    }

    #[test]
    fn empty_plan_counts_per_site() {
        drain();
        install(FaultPlan::default());
        for _ in 0..3 {
            assert_eq!(gate(FaultSite::CxlRead), Verdict::Run);
        }
        assert_eq!(gate(FaultSite::WalFlush), Verdict::Run);
        let s = stats();
        assert_eq!(s.hits[FaultSite::CxlRead as usize], 3);
        assert_eq!(s.hits[FaultSite::WalFlush as usize], 1);
        assert_eq!(s.total_hits(), 4);
        assert_eq!(s.crash_hit, None);
        drain();
    }

    #[test]
    fn crash_at_hit_kills_and_freezes_counters() {
        drain();
        install(FaultPlan::crash_at_hit(2));
        let mut ran = 0;
        let r = catch(|| {
            for _ in 0..4 {
                gate(FaultSite::CxlRead);
                ran += 1;
            }
        });
        assert_eq!(r, Err(Crashed));
        assert_eq!(ran, 2, "the crash unwinds at its own poll");
        // A later poll unwinds again and is not counted.
        assert_eq!(catch(|| gate(FaultSite::WalFlush)), Err(Crashed));
        let s = stats();
        assert_eq!(s.total_hits(), 3);
        assert_eq!(s.crash_hit, Some(2));
        assert_eq!(s.crash_site, Some(FaultSite::CxlRead));
        drain();
    }

    #[test]
    fn torn_flush_fires_at_its_nth_wal_flush() {
        drain();
        install(FaultPlan::TornWalFlush {
            nth: 1,
            keep_bytes: 100,
        });
        assert_eq!(gate(FaultSite::WalFlush), Verdict::Run);
        assert_eq!(gate(FaultSite::CxlRead), Verdict::Run);
        // A shaped crash returns for its site to land the prefix.
        assert_eq!(gate(FaultSite::WalFlush), Verdict::Torn { keep_bytes: 100 });
        assert_eq!(stats().crash_site, Some(FaultSite::WalFlush));
        assert_eq!(catch(|| gate(FaultSite::CxlRead)), Err(Crashed));
        drain();
    }

    #[test]
    fn clear_disarms_and_resets() {
        drain();
        install(FaultPlan::crash_at_hit(0));
        assert_eq!(catch(|| gate(FaultSite::CxlRead)), Err(Crashed));
        clear();
        assert!(!active());
        assert_eq!(gate(FaultSite::CxlRead), Verdict::Run);
        assert_eq!(stats().total_hits(), 0);
    }

    #[test]
    #[should_panic(expected = "not a crash")]
    fn catch_lets_any_other_panic_through() {
        let _ = catch(|| panic!("not a crash"));
    }
}
