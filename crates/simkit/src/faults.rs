//! Deterministic fault injection: seeded fault plans over the leaf
//! primitives of the simulated fabric.
//!
//! [`trace`](crate::trace) *observes* the leaf timed primitives; this
//! module *perturbs* them. A [`FaultPlan`] is a declarative schedule of
//! fault events — triggered by global hit index, per-site hit index, or
//! virtual time — installed per thread. Every leaf primitive that can
//! fail in a real disaggregated-memory deployment polls [`gate`] at its
//! injection [`FaultSite`] and obeys the returned [`Verdict`]:
//!
//! - **Torn WAL flush** — only a prefix of the flush becomes durable
//!   before the host dies (a torn multi-block log write).
//! - **Partial clflush** — only the first *k* dirty cache lines reach
//!   the CXL box before the host dies (a torn multi-cacheline flush,
//!   the §3.3 protocol's adversary).
//! - **Poisoned CXL read** — the device reports a poisoned line; the
//!   consumer must rebuild from storage or retry.
//! - **RDMA transient** — the NIC fails an op (with a latency spike);
//!   the consumer retries with backoff or falls back to storage.
//! - **Crash** — the host dies at the *n*-th site hit. After a crash
//!   every subsequent gate returns [`Verdict::Dead`]: durable-boundary
//!   mutators become no-ops and reads serve the frozen pre-crash view,
//!   so the in-flight statement completes harmlessly and the harness
//!   then discards all volatile state via the normal crash path.
//!
//! Discipline (same as the tracer's):
//!
//! - **Zero cost when unused.** With no plan installed, [`gate`] is one
//!   inlined thread-local flag test returning [`Verdict::Run`] — no
//!   heap traffic, no branch into the engine.
//! - **Deterministic.** Triggers count virtual-time events, never host
//!   time; [`FaultPlan::random`] derives its schedule from a seed via
//!   [`SimRng`]. Same plan ⇒ bit-identical fault schedule, metrics and
//!   recovered contents, on any thread (state is thread-local, so
//!   serial and parallel sweeps agree).

use crate::rng::SimRng;
use crate::time::SimTime;

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
    /// Cached CXL memory read ([`Verdict::Poison`]).
    CxlRead = 2,
    /// Uncached (non-temporal) CXL store — the durable-metadata path.
    CxlNtStore = 3,
    /// RDMA read from remote memory ([`Verdict::Transient`]).
    RdmaRead = 4,
    /// RDMA write to remote memory ([`Verdict::Transient`]).
    RdmaWrite = 5,
    /// Page write to the simulated NVMe store.
    StorageWrite = 6,
    /// Control-plane RPC to the memory manager / fusion server
    /// ([`Verdict::Transient`] delays and retries the RPC).
    Rpc = 7,
}

/// Number of [`FaultSite`] variants (length of per-site stat tables).
pub const SITE_COUNT: usize = 8;

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
            FaultSite::Rpc => "rpc",
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
        FaultSite::Rpc,
    ];
}

/// What the polled primitive must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No fault: execute normally.
    Run,
    /// The host has already crashed: mutators of durable state are
    /// no-ops, reads serve the frozen pre-crash view, nothing is timed.
    Dead,
    /// Torn WAL flush: only the first `keep_bytes` bytes of the flushed
    /// buffer become durable, then the host is dead.
    Torn {
        /// Durable prefix length in bytes (clamped by the flush size).
        keep_bytes: u64,
    },
    /// Partial clflush: only the first `keep_lines` dirty lines of this
    /// flush reach the device, then the host is dead.
    Partial {
        /// Cache lines that complete before the crash.
        keep_lines: u64,
    },
    /// The read returns poisoned data; the consumer must recover
    /// (rebuild from storage, or retry against the device).
    Poison,
    /// Transient fabric error: the op fails after a latency spike; the
    /// consumer retries (with backoff) or falls back.
    Transient {
        /// Extra latency the failed attempt burned, in nanoseconds.
        spike_ns: u64,
    },
}

/// When a [`FaultEvent`] fires. All counters are 0-indexed and count
/// *armed, pre-crash* gate polls only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// The `n`-th gate poll across all sites.
    HitIndex(u64),
    /// The `n`-th gate poll at one specific site.
    SiteHit(FaultSite, u64),
    /// The first gate poll at or after a virtual-time instant.
    At(SimTime),
}

/// What happens when a trigger fires. Actions whose shape requires a
/// specific site kind (a torn flush needs a WAL flush) degrade to a
/// plain [`Action::Crash`] if they fire elsewhere, so a plan built from
/// global hit indices stays meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Kill the host at this hit (subsequent gates return
    /// [`Verdict::Dead`]).
    Crash,
    /// Tear the WAL flush at a byte boundary, then kill the host.
    TornWalFlush {
        /// Durable prefix length in bytes.
        keep_bytes: u64,
    },
    /// Flush only the first `keep_lines` lines, then kill the host.
    PartialClflush {
        /// Cache lines that complete before the crash.
        keep_lines: u64,
    },
    /// Poison one CXL read (no crash).
    PoisonLine,
    /// Fail the next `failures` ops at the triggering site with a
    /// latency spike each (no crash).
    RdmaTransient {
        /// Consecutive failed attempts before the fabric heals.
        failures: u32,
        /// Extra latency per failed attempt, in nanoseconds.
        spike_ns: u64,
    },
    /// Kill one cluster node (not the whole host thread). The harness
    /// polls [`take_node_crash`] between statements, discards that
    /// node's volatile state and declares it dead; the engine itself
    /// keeps running so survivors keep serving.
    CrashNode {
        /// Node index to kill (the harness maps it to its `NodeId`).
        node: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When it fires (each event fires at most once).
    pub trigger: Trigger,
    /// What it does.
    pub action: Action,
}

/// A declarative, deterministic schedule of fault events. An empty plan
/// (`FaultPlan::default()`) fires nothing but still counts every site
/// poll: sweeps install one to enumerate the reachable injection sites.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The schedule; at most one unfired event fires per gate poll
    /// (first match in order wins).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with a single crash at the `n`-th global site hit.
    pub fn crash_at_hit(n: u64) -> Self {
        FaultPlan::default().with(Trigger::HitIndex(n), Action::Crash)
    }

    /// Append an event (builder style).
    pub fn with(mut self, trigger: Trigger, action: Action) -> Self {
        self.events.push(FaultEvent { trigger, action });
        self
    }

    /// A seeded background schedule of `events` non-crashing faults
    /// (RDMA transients and poisoned CXL reads) spread uniformly over
    /// the first `horizon_hits` site hits: the fault load for the
    /// scenario fuzzer (ROADMAP 4(b)) to draw per seed. Same seed ⇒
    /// same schedule.
    pub fn random(seed: u64, horizon_hits: u64, events: usize) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut plan = FaultPlan::default();
        for _ in 0..events {
            let at = rng.gen_range(0..horizon_hits.max(1));
            let action = if rng.gen_bool(0.5) {
                Action::RdmaTransient {
                    failures: rng.gen_range(1u32..=3),
                    spike_ns: rng.gen_range(2_000u64..=20_000),
                }
            } else {
                Action::PoisonLine
            };
            plan.events.push(FaultEvent {
                trigger: Trigger::HitIndex(at),
                action,
            });
        }
        plan
    }
}

/// What the installed plan has done so far. Counters freeze at the
/// crash instant (post-crash [`Verdict::Dead`] polls are not counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Gate polls per site, indexed by [`FaultSite`] (see
    /// [`FaultSite::ALL`]).
    pub hits: [u64; SITE_COUNT],
    /// Non-[`Verdict::Run`] verdicts injected per site.
    pub injected: [u64; SITE_COUNT],
    /// Global hit index at which the host crashed, if it did.
    pub crash_hit: Option<u64>,
    /// Site whose poll the crash landed on, if it did.
    pub crash_site: Option<FaultSite>,
    /// Node-granular crashes declared via [`Action::CrashNode`].
    pub node_crashes: u64,
}

impl FaultStats {
    /// Gate polls across all sites.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Fold another engine's counters into this one (used to aggregate
    /// per-node [`FaultState`]s in fixed node order at the end of a
    /// parallel-stepped run). The crash markers keep the first crash
    /// observed.
    pub fn absorb(&mut self, other: &FaultStats) {
        for i in 0..SITE_COUNT {
            self.hits[i] += other.hits[i];
            self.injected[i] += other.injected[i];
        }
        self.node_crashes += other.node_crashes;
        if self.crash_hit.is_none() {
            self.crash_hit = other.crash_hit;
            self.crash_site = other.crash_site;
        }
    }

    /// Injected faults across all sites.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// The per-thread engine.
// ---------------------------------------------------------------------------

const ACTIVE: u8 = 1 << 0;
const CRASHED: u8 = 1 << 1;
const POISONED: u8 = 1 << 2;
const NODE_CRASH: u8 = 1 << 3;

struct Engine {
    events: Vec<(FaultEvent, bool)>, // (event, fired)
    stats: FaultStats,
    total_hits: u64,
    transient_left: u32,
    transient_spike: u64,
    transient_site: FaultSite,
    pending_node_crashes: Vec<u32>,
}

impl Engine {
    const fn empty() -> Self {
        Engine {
            events: Vec::new(),
            stats: FaultStats {
                hits: [0; SITE_COUNT],
                injected: [0; SITE_COUNT],
                crash_hit: None,
                crash_site: None,
                node_crashes: 0,
            },
            total_hits: 0,
            transient_left: 0,
            transient_spike: 0,
            transient_site: FaultSite::RdmaRead,
            pending_node_crashes: Vec::new(),
        }
    }

    /// Pop the oldest pending node crash, clearing [`NODE_CRASH`] in
    /// `flags` once none is left: the one body behind the thread's
    /// [`take_node_crash`] and a detached [`FaultState::take_node_crash`].
    fn pop_node_crash(&mut self, flags: &mut u8) -> Option<u32> {
        if self.pending_node_crashes.is_empty() {
            return None;
        }
        let node = self.pending_node_crashes.remove(0);
        if self.pending_node_crashes.is_empty() {
            *flags &= !NODE_CRASH;
        }
        Some(node)
    }
}

use std::cell::{Cell, RefCell};

thread_local! {
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    static ENGINE: RefCell<Engine> = const { RefCell::new(Engine::empty()) };
}

/// Install a fault plan on this thread (replacing any previous one) and
/// arm the gates. Counters start from zero; the crashed and poisoned
/// flags are cleared.
pub fn install(plan: FaultPlan) {
    ENGINE.with(|e| {
        let mut e = e.borrow_mut();
        *e = Engine::empty();
        e.events = plan.events.into_iter().map(|ev| (ev, false)).collect();
    });
    FLAGS.with(|f| f.set(ACTIVE));
}

/// Disarm fault injection on this thread and drop the plan. Gates go
/// back to the single-flag-test fast path.
pub fn clear() {
    FLAGS.with(|f| f.set(0));
    ENGINE.with(|e| *e.borrow_mut() = Engine::empty());
}

/// Whether a plan is installed on this thread.
#[inline]
pub fn active() -> bool {
    FLAGS.with(|f| f.get()) & ACTIVE != 0
}

/// A detached fault-engine state: one node's private schedule, flags
/// and counters.
///
/// Barrier-synchronized stepping gives every simulated node its own
/// engine: the harness prepares one state per node (routing each plan
/// event to the node whose primitives it perturbs), swaps the state in
/// around the node's quantum with [`swap_state`], and polls / merges
/// the detached states at barriers. Because each node's gates only
/// ever consult its own engine, the fault schedule is a function of the
/// node's own deterministic poll sequence — hit-index triggers count
/// that node's polls only, whatever the lane order.
pub struct FaultState {
    flags: u8,
    engine: Engine,
}

impl FaultState {
    /// An inactive state: gates behave as if no plan were installed.
    pub fn inactive() -> Self {
        FaultState {
            flags: 0,
            engine: Engine::empty(),
        }
    }

    /// A state armed with `plan`, counters at zero (the detached
    /// equivalent of [`install`]).
    pub fn prepared(plan: FaultPlan) -> Self {
        let mut engine = Engine::empty();
        engine.events = plan.events.into_iter().map(|ev| (ev, false)).collect();
        FaultState {
            flags: ACTIVE,
            engine,
        }
    }

    /// Consume one pending node crash from this state (the detached
    /// equivalent of [`take_node_crash`], polled at barriers).
    pub fn take_node_crash(&mut self) -> Option<u32> {
        self.engine.pop_node_crash(&mut self.flags)
    }

    /// Counter snapshot of this state.
    pub fn stats(&self) -> FaultStats {
        self.engine.stats
    }
}

/// Exchange the calling thread's fault-engine state with `state`. Used
/// by `workloads::cluster` around each lane's quantum: swap the lane's
/// state in, run the quantum, swap it back out, so the engine counts
/// that lane's polls only.
pub fn swap_state(state: &mut FaultState) {
    FLAGS.with(|f| {
        let cur = f.get();
        f.set(state.flags);
        state.flags = cur;
    });
    ENGINE.with(|e| std::mem::swap(&mut *e.borrow_mut(), &mut state.engine));
}

/// Whether the installed plan has killed the host. The harness polls
/// this between statements and then runs the real crash path.
#[inline]
pub fn crashed() -> bool {
    FLAGS.with(|f| f.get()) & CRASHED != 0
}

/// Snapshot of the installed plan's counters.
pub fn stats() -> FaultStats {
    ENGINE.with(|e| e.borrow().stats)
}

/// Consume the pending-poison flag set by a [`Verdict::Poison`] at a
/// CXL read. The buffer pool polls this right after the read it wraps
/// and runs its degradation path when set.
#[inline]
pub fn take_poisoned() -> bool {
    FLAGS.with(|f| {
        let v = f.get();
        if v & POISONED != 0 {
            f.set(v & !POISONED);
            true
        } else {
            false
        }
    })
}

/// Consume one pending node crash declared by [`Action::CrashNode`].
/// The cluster harness polls this between statements; on `Some(node)`
/// it discards that node's volatile state and starts the detection
/// clock. One inlined flag test when no node crash is pending.
#[inline]
pub fn take_node_crash() -> Option<u32> {
    let mut flags = FLAGS.with(|f| f.get());
    if flags & NODE_CRASH == 0 {
        return None;
    }
    let node = ENGINE.with(|e| e.borrow_mut().pop_node_crash(&mut flags));
    FLAGS.with(|f| f.set(flags));
    node
}

/// Poll the fault engine at an injection site. One inlined thread-local
/// flag test when no plan is installed; otherwise the slow path counts
/// the hit and matches it against the plan.
#[inline]
pub fn gate(site: FaultSite, now: SimTime) -> Verdict {
    if FLAGS.with(|f| f.get()) == 0 {
        return Verdict::Run;
    }
    gate_slow(site, now)
}

#[cold]
fn gate_slow(site: FaultSite, now: SimTime) -> Verdict {
    let flags = FLAGS.with(|f| f.get());
    if flags & ACTIVE == 0 {
        return Verdict::Run;
    }
    if flags & CRASHED != 0 {
        return Verdict::Dead;
    }
    ENGINE.with(|e| {
        let mut e = e.borrow_mut();
        let e = &mut *e;
        let idx = e.total_hits;
        e.total_hits += 1;
        let site_idx = e.stats.hits[site as usize];
        e.stats.hits[site as usize] += 1;

        // An armed transient burst consumes hits at its site first.
        if e.transient_left > 0 && e.transient_site == site {
            e.transient_left -= 1;
            e.stats.injected[site as usize] += 1;
            return Verdict::Transient {
                spike_ns: e.transient_spike,
            };
        }

        let fired = e.events.iter_mut().find(|(ev, fired)| {
            !*fired
                && match ev.trigger {
                    Trigger::HitIndex(n) => n == idx,
                    Trigger::SiteHit(s, n) => s == site && n == site_idx,
                    Trigger::At(t) => now >= t,
                }
        });
        let Some((ev, fired)) = fired else {
            return Verdict::Run;
        };
        *fired = true;
        let action = ev.action;

        let crash = |e: &mut Engine| {
            e.stats.crash_hit = Some(idx);
            e.stats.crash_site = Some(site);
            e.stats.injected[site as usize] += 1;
            FLAGS.with(|f| f.set(f.get() | CRASHED));
        };
        match action {
            Action::Crash => {
                crash(e);
                Verdict::Dead
            }
            Action::TornWalFlush { keep_bytes } => {
                crash(e);
                if site == FaultSite::WalFlush {
                    Verdict::Torn { keep_bytes }
                } else {
                    Verdict::Dead
                }
            }
            Action::PartialClflush { keep_lines } => {
                crash(e);
                if site == FaultSite::Clflush {
                    Verdict::Partial { keep_lines }
                } else {
                    Verdict::Dead
                }
            }
            Action::PoisonLine => {
                if site == FaultSite::CxlRead {
                    e.stats.injected[site as usize] += 1;
                    FLAGS.with(|f| f.set(f.get() | POISONED));
                    Verdict::Poison
                } else {
                    // Poison is only meaningful on the read path; firing
                    // elsewhere (a coarse random plan) is a no-op.
                    Verdict::Run
                }
            }
            Action::RdmaTransient { failures, spike_ns } => {
                e.transient_left = failures.saturating_sub(1);
                e.transient_spike = spike_ns;
                e.transient_site = site;
                e.stats.injected[site as usize] += 1;
                Verdict::Transient { spike_ns }
            }
            Action::CrashNode { node } => {
                // Death is declared at the next statement boundary (the
                // harness polls `take_node_crash`), so the in-flight op
                // completes and there is no old-or-new ambiguity.
                e.stats.injected[site as usize] += 1;
                e.stats.node_crashes += 1;
                e.pending_node_crashes.push(node);
                FLAGS.with(|f| f.set(f.get() | NODE_CRASH));
                Verdict::Run
            }
        }
    })
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
        assert_eq!(gate(FaultSite::WalFlush, SimTime(5)), Verdict::Run);
        assert_eq!(stats().total_hits(), 0);
        assert!(!active());
        assert!(!crashed());
    }

    #[test]
    fn empty_plan_counts_per_site() {
        drain();
        install(FaultPlan::default());
        for _ in 0..3 {
            assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        }
        assert_eq!(gate(FaultSite::WalFlush, SimTime::ZERO), Verdict::Run);
        let s = stats();
        assert_eq!(s.hits[FaultSite::CxlRead as usize], 3);
        assert_eq!(s.hits[FaultSite::WalFlush as usize], 1);
        assert_eq!(s.total_hits(), 4);
        assert_eq!(s.total_injected(), 0);
        drain();
    }

    #[test]
    fn crash_at_hit_kills_and_freezes_counters() {
        drain();
        install(FaultPlan::crash_at_hit(2));
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Dead);
        assert!(crashed());
        // Post-crash polls are Dead and uncounted.
        assert_eq!(gate(FaultSite::WalFlush, SimTime::ZERO), Verdict::Dead);
        let s = stats();
        assert_eq!(s.total_hits(), 3);
        assert_eq!(s.crash_hit, Some(2));
        assert_eq!(s.crash_site, Some(FaultSite::CxlRead));
        drain();
    }

    #[test]
    fn torn_flush_fires_on_wal_site_only() {
        drain();
        let plan = FaultPlan::default().with(
            Trigger::SiteHit(FaultSite::WalFlush, 1),
            Action::TornWalFlush { keep_bytes: 100 },
        );
        install(plan.clone());
        assert_eq!(gate(FaultSite::WalFlush, SimTime::ZERO), Verdict::Run);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(
            gate(FaultSite::WalFlush, SimTime::ZERO),
            Verdict::Torn { keep_bytes: 100 }
        );
        assert!(crashed());
        drain();
        // The same action landing on a non-WAL site degrades to Crash.
        install(FaultPlan::default().with(
            Trigger::HitIndex(0),
            Action::TornWalFlush { keep_bytes: 100 },
        ));
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Dead);
        assert!(crashed());
        drain();
    }

    #[test]
    fn poison_sets_pending_flag_once() {
        drain();
        install(
            FaultPlan::default().with(Trigger::SiteHit(FaultSite::CxlRead, 0), Action::PoisonLine),
        );
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Poison);
        assert!(take_poisoned());
        assert!(!take_poisoned());
        assert!(!crashed());
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        drain();
    }

    #[test]
    fn transient_burst_consumes_consecutive_site_hits() {
        drain();
        install(FaultPlan::default().with(
            Trigger::SiteHit(FaultSite::RdmaRead, 0),
            Action::RdmaTransient {
                failures: 2,
                spike_ns: 7,
            },
        ));
        assert_eq!(
            gate(FaultSite::RdmaRead, SimTime::ZERO),
            Verdict::Transient { spike_ns: 7 }
        );
        // Other sites are untouched mid-burst.
        assert_eq!(gate(FaultSite::RdmaWrite, SimTime::ZERO), Verdict::Run);
        assert_eq!(
            gate(FaultSite::RdmaRead, SimTime::ZERO),
            Verdict::Transient { spike_ns: 7 }
        );
        assert_eq!(gate(FaultSite::RdmaRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(stats().injected[FaultSite::RdmaRead as usize], 2);
        drain();
    }

    #[test]
    fn time_trigger_fires_at_first_late_poll() {
        drain();
        install(FaultPlan::default().with(Trigger::At(SimTime(100)), Action::Crash));
        assert_eq!(gate(FaultSite::CxlRead, SimTime(99)), Verdict::Run);
        assert_eq!(gate(FaultSite::CxlRead, SimTime(100)), Verdict::Dead);
        assert!(crashed());
        drain();
    }

    #[test]
    fn random_plans_replay_by_seed() {
        assert_eq!(FaultPlan::random(7, 1000, 8), FaultPlan::random(7, 1000, 8));
        assert_ne!(FaultPlan::random(7, 1000, 8), FaultPlan::random(8, 1000, 8));
    }

    #[test]
    fn crash_node_is_deferred_to_statement_boundary() {
        drain();
        install(FaultPlan::default().with(
            Trigger::SiteHit(FaultSite::CxlRead, 1),
            Action::CrashNode { node: 2 },
        ));
        assert_eq!(take_node_crash(), None);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(take_node_crash(), None);
        // The triggering poll itself still runs — death is declared at
        // the next harness poll, not mid-op.
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert!(!crashed());
        assert_eq!(take_node_crash(), Some(2));
        assert_eq!(take_node_crash(), None);
        let s = stats();
        assert_eq!(s.node_crashes, 1);
        assert_eq!(s.crash_hit, None);
        drain();
    }

    #[test]
    fn detached_states_isolate_node_schedules() {
        drain();
        let mut a = FaultState::prepared(FaultPlan::crash_at_hit(0));
        let mut b = FaultState::prepared(FaultPlan::default().with(
            Trigger::SiteHit(FaultSite::CxlRead, 0),
            Action::CrashNode { node: 3 },
        ));
        swap_state(&mut a);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Dead);
        swap_state(&mut a);
        assert!(a.stats().crash_hit.is_some());
        assert!(!crashed(), "main-thread state untouched");
        assert_eq!(stats().total_hits(), 0);
        swap_state(&mut b);
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        swap_state(&mut b);
        assert_eq!(b.take_node_crash(), Some(3));
        assert_eq!(b.take_node_crash(), None);
        let mut total = a.stats();
        total.absorb(&b.stats());
        assert_eq!(total.total_hits(), 2);
        assert_eq!(total.node_crashes, 1);
        assert_eq!(total.crash_hit, Some(0));
        drain();
    }

    #[test]
    fn clear_disarms_and_resets() {
        drain();
        install(FaultPlan::crash_at_hit(0));
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Dead);
        clear();
        assert!(!active());
        assert!(!crashed());
        assert_eq!(gate(FaultSite::CxlRead, SimTime::ZERO), Verdict::Run);
        assert_eq!(stats().total_hits(), 0);
    }
}
