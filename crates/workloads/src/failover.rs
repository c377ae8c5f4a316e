//! Node-failover harness for the multi-primary fusion cluster (§3.3 /
//! §4.3's availability argument).
//!
//! N primaries share one dataset through the buffer fusion server; a
//! seeded fault plan kills one primary mid-run ([`Action::CrashNode`]).
//! The cluster then plays the paper's availability story:
//!
//! 1. **Detection** — a supervisor declares the node dead one detection
//!    window after the fault fires (you cannot distinguish dead from
//!    slow, which is why fencing exists).
//! 2. **Fencing** — the fusion server bumps the node's epoch word in
//!    CXL; any late guarded store/publish from its zombie incarnation
//!    is rejected ([`polarcxlmem::FencedError`]).
//! 3. **Takeover** — a standby registers under the bumped epoch regime,
//!    adopts the dead node's DBP pages straight out of CXL (PolarRecv
//!    band: RPCs + flag stores, no storage replay), and starts serving
//!    its group.
//! 4. **Self-healing** — the server reclaims the dead node's page
//!    locks, clears its flag words, recycles slots nobody else uses,
//!    and the memory manager revokes its scratch lease and reassigns
//!    its flag-array lease to the standby.
//!
//! Survivors keep serving throughout (dip-and-recover, never wedged).
//! Every row write is recorded in an oracle model; the end-of-run
//! safety check re-reads everything through the protocol, so a wrong
//! fencing policy ([`FencingPolicy::Disabled`] + a zombie's late write)
//! produces an *observable* stale read and fails
//! [`FailoverResult::assert_safety`].

use crate::cluster::{Cluster, Fenced, FusionCluster};
use crate::metrics::TimelinePoint;
use crate::sharing::{seed_storage, GroupLayout};
use memsim::calib::{CPU_TXN_OVERHEAD_NS, PAGE_SIZE};
use memsim::NodeId;
use polarcxlmem::{CxlMemoryManager, FencingPolicy, FusionStats, Lease, SharingNode};
use simkit::faults::{self, Action, FaultPlan, FaultSite, FaultState, FaultStats, Trigger};
use simkit::rng::stream_rng;
use simkit::stats::TimeSeries;
use simkit::telemetry::{Metric, SloRule, TelemetryConfig, TelemetryReport};
use simkit::trace::{self, SpanKind};
use simkit::{MetricsRegistry, SimTime, Step};
use std::collections::BTreeMap;
use storage::PageId;

/// How the victim node dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathMode {
    /// The host truly dies: its CPU caches freeze mid-flight
    /// ([`memsim::CxlPool::crash_node`]) and it never speaks again.
    Crash,
    /// The node is only *declared* dead (partition / long pause): it
    /// stops serving when declared, but issues one late guarded write
    /// after takeover — the adversary epoch fencing exists to stop.
    Zombie,
}

/// Optional fabric degradation striking a survivor during failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkChaos {
    /// Healthy fabric.
    None,
    /// Degrade `host`'s CXL link by `factor` for `heal_ns` once the
    /// crash fires (survivors keep serving, slower).
    Degrade {
        /// Host whose link degrades.
        host: u32,
        /// Latency multiplier.
        factor: u32,
        /// Outage length, ns.
        heal_ns: u64,
    },
    /// Take `host`'s CXL link fully down for `down_ns` once the crash
    /// fires: the host's accesses stall until the link returns (the
    /// fabric replays them), so its completions go silent for the
    /// outage — the signature the telemetry absence rule detects.
    Flap {
        /// Host whose link flaps.
        host: u32,
        /// Outage length, ns.
        down_ns: u64,
        /// Suggested retry backoff for software-retry fabrics, ns.
        retry_ns: u64,
    },
}

impl LinkChaos {
    /// The host this chaos strikes, if any.
    pub fn host(&self) -> Option<u32> {
        match *self {
            LinkChaos::None => None,
            LinkChaos::Degrade { host, .. } | LinkChaos::Flap { host, .. } => Some(host),
        }
    }
}

/// Percentage of statements on the shared group.
pub const SHARED_PCT: u32 = 20;

/// Failover experiment configuration.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Primary database nodes.
    pub nodes: usize,
    /// Closed-loop workers per node (the standby gets the same count).
    pub workers_per_node: usize,
    /// Data layout (`nodes + 1` groups: one private per node + shared).
    pub layout: GroupLayout,
    /// Simulated run length.
    pub duration: SimTime,
    /// Timeline bucket width.
    pub bucket: SimTime,
    /// Workload RNG seed.
    pub seed: u64,
    /// Fault-schedule seed (picks the crash instant).
    pub fault_seed: u64,
    /// Which primary dies.
    pub crash_node: usize,
    /// Detection window between the fault and the fence.
    pub detection: SimTime,
    /// Fencing policy ([`FencingPolicy::Disabled`] is the ablation).
    pub fencing: FencingPolicy,
    /// How the victim dies.
    pub death: DeathMode,
    /// Optional link degradation riding along with the crash.
    pub link_chaos: LinkChaos,
    /// Telemetry window width (`SimTime::ZERO` disables the online
    /// telemetry pipeline).
    pub telemetry_window: SimTime,
    /// Run entirely fault-free — no crash, no link chaos. The control
    /// run for the telemetry false-positive measurement.
    pub fault_free: bool,
}

impl FailoverConfig {
    /// Standard scaled-down failover scenario for `nodes` primaries.
    pub fn standard(nodes: usize) -> Self {
        FailoverConfig {
            nodes,
            workers_per_node: 8,
            layout: GroupLayout {
                groups: nodes + 1,
                rows_per_group: 4_000,
            },
            duration: SimTime::from_millis(60),
            bucket: SimTime::from_millis(2),
            seed: 11,
            fault_seed: 7,
            crash_node: 0,
            detection: SimTime::from_millis(2),
            fencing: FencingPolicy::Epoch,
            death: DeathMode::Zombie,
            link_chaos: LinkChaos::None,
            telemetry_window: SimTime::from_millis(2),
            fault_free: false,
        }
    }

    /// Smoke-sized variant for CI.
    pub fn smoke(nodes: usize) -> Self {
        let mut cfg = Self::standard(nodes);
        cfg.layout.rows_per_group = 1_000;
        cfg.duration = SimTime::from_millis(24);
        cfg.bucket = SimTime::from_millis(1);
        cfg.workers_per_node = 4;
        cfg.detection = SimTime::from_millis(1);
        cfg.telemetry_window = cfg.bucket;
        cfg
    }
}

/// What the takeover cost, for the recorded timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeoverSummary {
    /// When the supervisor declared the node dead.
    pub death_declared: SimTime,
    /// When fencing started (declaration + detection window).
    pub fence_start: SimTime,
    /// When the standby finished adopting the DBP and began serving.
    pub takeover_done: SimTime,
    /// `takeover_done - fence_start`.
    pub takeover_ns: u64,
    /// What a vanilla standby would pay replaying the group from
    /// storage (measured against an identical cold store).
    pub replay_estimate_ns: u64,
    /// DBP pages the standby adopted out of CXL.
    pub pages_recovered: u64,
    /// Storage fills the adoption needed (0 = pure PolarRecv band).
    pub storage_fills_during_takeover: u64,
    /// Page locks whose dead-holder holds were cut short.
    pub locks_reclaimed: u64,
    /// DBP slots recycled because only the dead node used them.
    pub slots_reclaimed: u64,
}

/// Result of a failover run.
#[derive(Debug, Clone)]
pub struct FailoverResult {
    /// Statements completed over the whole run.
    pub queries: u64,
    /// Statements per node; index `nodes` is the standby.
    pub queries_per_node: Vec<u64>,
    /// Per-node throughput timeline (same indexing), one point per
    /// bucket.
    pub per_node_timeline: Vec<Vec<TimelinePoint>>,
    /// Timeline bucket width.
    pub bucket: SimTime,
    /// Takeover record (`None` if the fault never fired).
    pub takeover: Option<TakeoverSummary>,
    /// Whether every end-of-run protocol read matched the oracle.
    pub safety_ok: bool,
    /// Rows whose protocol read disagreed with the oracle.
    pub safety_mismatches: u64,
    /// Longest window with zero survivor throughput, ns.
    pub max_survivor_gap_ns: u64,
    /// Fault-engine counters.
    pub fault_stats: FaultStats,
    /// Fusion-server counters.
    pub fusion: FusionStats,
    /// Online telemetry report (`None` when `telemetry_window` is ZERO).
    pub telemetry: Option<TelemetryReport>,
    /// All counters, for tables and machine diffing.
    pub registry: MetricsRegistry,
}

impl FailoverResult {
    /// Panic unless every end-of-run protocol read matched the oracle.
    /// The fencing ablation is *expected* to fail this — that is the
    /// point of the negative test pinned in `tests/fault_sweep.rs`.
    pub fn assert_safety(&self) {
        assert!(
            self.safety_ok,
            "SAFETY: {} row(s) observed stale/foreign data after failover \
             (a fenced node's late write reached readers)",
            self.safety_mismatches
        );
    }
}

/// p99 budget (ns) for the `p99_slow` burn-rate rule: safely above the
/// healthy per-window p99 of the failover workload at every shipped
/// config, and well below what a 4x link degrade sustains.
const P99_SLOW_BUDGET_NS: f64 = 400_000.0;

/// Deterministic payload byte for the `k`-th write of worker `w`.
/// Never zero and never the zombie's 0xEE sentinel.
fn fill_byte(w: usize, k: u64) -> u8 {
    let b = (((w as u64)
        .wrapping_mul(131)
        .wrapping_add(k.wrapping_mul(17)))
        % 250
        + 1) as u8;
    if b == 0xEE {
        17
    } else {
        b
    }
}

/// What a lane (primaries `0..n`, the standby at lane `n`) accumulates:
/// per-worker write sequence numbers, the throughput timeline, and the
/// quantum's committed writes awaiting the oracle at the barrier.
struct Served {
    write_seq: Vec<u64>,
    series: TimeSeries,
    queries: u64,
    writes: Vec<((PageId, u16), u8)>,
}

/// Run the failover scenario.
pub fn run_failover(cfg: &FailoverConfig) -> FailoverResult {
    let layout = cfg.layout;
    let n = cfg.nodes;
    assert!(n >= 2, "failover needs at least one survivor");
    assert!(cfg.crash_node < n);
    assert_eq!(layout.groups, n + 1, "one private group per node + shared");
    let wpn = cfg.workers_per_node;
    let total_pages = layout.total_pages();
    let pages_per_group = layout.pages_per_group();

    // ---- CXL layout, carved out by the memory manager ---------------
    let slots_bytes = total_pages * PAGE_SIZE;
    let flags_bytes = total_pages * 16;
    // Identities: primaries 0..n, fusion server n, standby n+1.
    let pool_size = slots_bytes + flags_bytes * (n as u64 + 1) + 4096 + n as u64 * 4096;
    let mut mgr = CxlMemoryManager::new(pool_size);
    let server_id = NodeId(n);
    let standby_id = NodeId(n + 1);
    let (slots_lease, _) = mgr
        .allocate(server_id, slots_bytes, SimTime::ZERO)
        .expect("slot lease");
    assert_eq!(slots_lease.offset, 0);
    // The spare flag array (index n) is held by the control plane until
    // takeover reassigns it to the standby.
    let flag_leases: Vec<Lease> = (0..=n)
        .map(|i| {
            let owner = if i == n { server_id } else { NodeId(i) };
            mgr.allocate(owner, flags_bytes, SimTime::ZERO)
                .expect("flag lease")
                .0
        })
        .collect();
    let (epoch_lease, _) = mgr
        .allocate(server_id, (n as u64 + 2) * 8, SimTime::ZERO)
        .expect("epoch lease");
    let scratch_leases: Vec<Lease> = (0..n)
        .map(|i| {
            mgr.allocate(NodeId(i), 4096, SimTime::ZERO)
                .expect("scratch lease")
                .0
        })
        .collect();

    // ---- Fabric, storage, fusion server, nodes ----------------------
    let mut fusion = FusionCluster::new(&layout, pool_size, n + 2, server_id);
    fusion
        .server
        .enable_fencing(cfg.fencing, epoch_lease.offset);
    // Under the ablation the server still grants epochs; nodes just
    // never re-validate them.
    let guard = (cfg.fencing == FencingPolicy::Epoch).then_some(epoch_lease.offset);
    let mut nodes: Vec<SharingNode> = (0..n)
        .map(|i| {
            let mut node = SharingNode::new(NodeId(i), flag_leases[i].offset, PAGE_SIZE);
            fusion.admit(&mut node, flag_leases[i].offset, guard, SimTime::ZERO);
            node
        })
        .collect();
    fusion.warm_home(&mut nodes, &layout);
    // Lane n is the standby: it registers, adopts and starts at takeover.
    let standby = SharingNode::new(standby_id, flag_leases[n].offset, PAGE_SIZE);
    nodes.push(standby);
    let warm_fills = fusion.server.stats().storage_fills;

    // ---- Fault plan --------------------------------------------------
    // The crash instant is derived from the fault seed: same
    // (seed, fault_seed) ⇒ bit-identical run. Each plan event is routed
    // to the node whose primitives it perturbs — gates only ever
    // consult their own node's detached engine, so the fault schedule
    // is a function of that node's deterministic poll sequence, and
    // the lanes step in lane order.
    let dead = cfg.crash_node;
    let mut frng = stream_rng(cfg.fault_seed, 0xFA11);
    let span = cfg.duration.as_nanos();
    let crash_at = SimTime(span / 4 + frng.gen_range(0..span / 8));
    let mut lane_plans: Vec<FaultPlan> = (0..n + 1).map(|_| FaultPlan::default()).collect();
    if !cfg.fault_free {
        lane_plans[dead] = std::mem::take(&mut lane_plans[dead]).with(
            Trigger::At(crash_at),
            Action::CrashNode {
                node: cfg.crash_node as u32,
            },
        );
        // Link health is consulted by the afflicted host's own accesses,
        // so the chaos event rides that host's lane.
        match cfg.link_chaos {
            LinkChaos::None => {}
            LinkChaos::Degrade {
                host,
                factor,
                heal_ns,
            } => {
                let lane = (host as usize).min(n);
                lane_plans[lane] = std::mem::take(&mut lane_plans[lane]).with(
                    Trigger::At(crash_at),
                    Action::LinkDegrade {
                        host,
                        factor,
                        heal_ns,
                    },
                );
            }
            LinkChaos::Flap {
                host,
                down_ns,
                retry_ns,
            } => {
                let lane = (host as usize).min(n);
                lane_plans[lane] = std::mem::take(&mut lane_plans[lane]).with(
                    Trigger::At(crash_at),
                    Action::LinkFlap {
                        host,
                        down_ns,
                        retry_ns,
                    },
                );
            }
        }
    }

    // Oracle: committed row contents, keyed (page, offset). Shared row 0
    // is reserved as the zombie's target — the workload never writes it,
    // so its expected content stays the deterministic seed byte and a
    // late fenced write is guaranteed to be observable.
    let mut model: BTreeMap<(PageId, u16), u8> = BTreeMap::new();
    let zombie_row = layout.locate(n, 0);
    model.insert(zombie_row, n as u8);

    let mut death_declared: Option<SimTime> = None;
    let mut takeover: Option<TakeoverSummary> = None;
    let mut zombie_due: Option<SimTime> = None;
    let detection_ns = cfg.detection.as_nanos();
    let idle_tick = (detection_ns / 4).max(10_000);

    // Vanilla-replay estimate: what the takeover would cost if the
    // standby had to reload the dead node's group from storage (an
    // identical cold store, so the measurement is side-effect free).
    let replay_estimate_ns = {
        let mut cold = seed_storage(&layout);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let mut t = SimTime::ZERO;
        for page in layout.group_pages(dead) {
            t = cold.read_page(PageId(page), &mut buf, t).end;
        }
        t.as_nanos()
    };

    // ---- The cluster -------------------------------------------------
    // Every node (and, once serving, the standby) steps on its own lane
    // of the [`crate::cluster`] driver, one supervisor idle tick per
    // quantum. One probe per identity: the absence rule is the
    // telemetry-driven death detector scored against the fault plan's
    // ground truth; the p99 burn-rate rule catches link degradation
    // (sustained latency inflation with the short mean reacting and the
    // long confirming).
    let tcfg = TelemetryConfig::new(cfg.telemetry_window, n + 1)
        .lanes(&["private", "shared"])
        .rule(
            SloRule::absence("node_absent", 2)
                .fire_after(1)
                .clear_after(2),
        )
        .rule(
            SloRule::burn_rate("p99_slow", Metric::P99Ns, P99_SLOW_BUDGET_NS, 2, 4)
                .fire_after(1)
                .clear_after(2),
        );
    let served = (0..=n)
        .map(|_| Served {
            write_seq: vec![0u64; wpn],
            series: TimeSeries::with_capacity_for(cfg.bucket.as_nanos(), cfg.duration),
            queries: 0,
            writes: Vec::new(),
        })
        .collect();
    let faults = lane_plans.into_iter().map(FaultState::prepared).collect();
    let mut cluster = Cluster::new(fusion, nodes, served, faults, tcfg, wpn, cfg.seed);
    // The standby is silent until takeover — not a missing heartbeat.
    cluster.hub.set_inactive(n as u32);
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }

    let rows = layout.rows_per_group;
    let telemetry_report = cluster.run(
        cfg.duration,
        SimTime(idle_tick),
        |ctx, w, start| {
            // The standby serves the dead node's group.
            let serve_group = if ctx.lane < n { ctx.lane } else { dead };
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            let mut stmts = 0u64;
            for _ in 0..4 {
                let s0 = t;
                let rng = &mut ctx.rngs[w];
                let group = if rng.gen_range(0..100) < SHARED_PCT {
                    n
                } else {
                    serve_group
                };
                let lane_ix = (group == n) as usize;
                // Shared row 0 is the zombie's reserved target.
                let row = if group == n {
                    rng.gen_range(1..rows)
                } else {
                    rng.gen_range(0..rows)
                };
                let (page, off) = layout.locate(group, row);
                let is_write = rng.gen_range(0..100) < 40;
                if is_write {
                    ctx.ext.write_seq[w] += 1;
                    let b = fill_byte(ctx.lane * wpn + w, ctx.ext.write_seq[w]);
                    match ctx.locked_write_publish(page, off as u64, &[b; 120], t) {
                        Ok(t2) => {
                            t = t2;
                            ctx.ext.writes.push(((page, off), b));
                        }
                        Err(Fenced(at)) => {
                            // Fenced mid-run: the write never committed,
                            // so the oracle keeps the old value; stop
                            // serving.
                            ctx.probe.record_errs(lane_ix, at, 1);
                            return Step::Park;
                        }
                    }
                } else {
                    t = ctx.locked_read(page, off as u64, 120, t);
                }
                ctx.probe.record_op(lane_ix, t, t.saturating_since(s0));
                ctx.probe.record_bytes(lane_ix, t, 120);
                stmts += 1;
            }
            ctx.ext.series.record_at(t, stmts);
            ctx.ext.queries += stmts;
            Step::Done(t)
        },
        // ---- Barrier-boundary control plane --------------------------
        // Detection, fencing, takeover and the zombie's late write run
        // serially here, once per idle tick — where the supervisor polls.
        |cl, now| {
            // The oracle's commits fold in lane order, like the fabric's
            // write logs, so its last-writer-wins agrees with the region's.
            for served in cl.exts.iter_mut() {
                model.extend(served.writes.drain(..));
            }
            if death_declared.is_none() {
                if let Some(node) = cl.cores[dead].faults.take_node_crash() {
                    debug_assert_eq!(node as usize, dead);
                    death_declared = Some(now);
                    // The victim stops being stepped; its shard merges
                    // back so serial code (the zombie, the crash path)
                    // works through the pool.
                    cl.deactivate(dead);
                    if cfg.death == DeathMode::Crash {
                        cl.fabric.pool.borrow_mut().crash_node(NodeId(dead));
                    }
                    // Ground-truth acknowledged: pin the victim's health to
                    // Dead from this window on. Its rules keep evaluating —
                    // the absence alert still fires and scores MTTD.
                    cl.hub.retire(dead as u32, now);
                }
            } else if let Some(declared) = death_declared {
                if takeover.is_none() && now >= declared + detection_ns {
                    let fence_start = now;
                    let (fabric, sb) = (&mut cl.fabric, &mut cl.nodes[n]);
                    // 1. Fence: bump the dead node's epoch word. Serial at
                    //    the barrier — shard reads observe it next quantum.
                    let mut t = fabric.server.fence_node(NodeId(dead), fence_start);
                    // 2. Reclaim its page locks (its group + shared pages).
                    let mut locks_reclaimed = 0u64;
                    for page in layout.home_pages(dead) {
                        if cl.locks.reclaim(page, t) {
                            locks_reclaimed += 1;
                        }
                    }
                    // 3. Lease surgery: revoke the dead node's scratch
                    //    lease (idempotent — failover can race shutdown)
                    //    and hand the spare flag array to the standby.
                    let (revoked, t2) = mgr.revoke(scratch_leases[dead], t);
                    debug_assert!(revoked);
                    let (again, t3) = mgr.revoke(scratch_leases[dead], t2);
                    debug_assert!(!again);
                    let (_, t4) = mgr
                        .reassign(flag_leases[n], standby_id, t3)
                        .expect("standby flag lease");
                    t = t4;
                    // 4. Standby adopts the DBP straight out of CXL while
                    //    the pages are still mapped (PolarRecv band).
                    let fills_before = fabric.server.stats().storage_fills;
                    t = fabric.admit(sb, flag_leases[n].offset, guard, t);
                    // One bulk RPC adopts the dead node's whole group out of
                    // the DBP directory — no per-page round trips, no
                    // storage replay.
                    let first = PageId(layout.group_pages(dead).start);
                    let (adopted, t2) = sb.adopt(&mut fabric.server, first, pages_per_group, t);
                    t = t2;
                    // 5. Self-heal the server: drop the dead node from every
                    //    active list, clear its flag words, recycle slots
                    //    nobody else holds.
                    let slots_before = fabric.server.stats().reclaimed_slots;
                    t = fabric.server.reclaim_node(NodeId(dead), t);
                    trace::span(
                        SpanKind::RecoveryReplay,
                        standby_id.0 as u32,
                        fence_start,
                        t,
                        pages_per_group * PAGE_SIZE,
                    );
                    takeover = Some(TakeoverSummary {
                        death_declared: declared,
                        fence_start,
                        takeover_done: t,
                        takeover_ns: t.saturating_since(fence_start),
                        replay_estimate_ns,
                        pages_recovered: adopted,
                        storage_fills_during_takeover: fabric.server.stats().storage_fills
                            - fills_before,
                        locks_reclaimed,
                        slots_reclaimed: fabric.server.stats().reclaimed_slots - slots_before,
                    });
                    // The standby also serves the shared group: resolve its
                    // pages serially so no RPC happens mid-phase, then start
                    // its workers at takeover_done on a shard of its own.
                    fabric.warm(sb, layout.group_pages(n).map(PageId), t);
                    cl.activate(n, t);
                    cl.hub.expect_from(n as u32, t);
                    cl.refresh_dir();
                    if cfg.death == DeathMode::Zombie {
                        zombie_due = Some(t + idle_tick);
                    }
                }
            }
            if zombie_due.is_some_and(|due| now >= due) {
                zombie_due = None;
                // The zombie speaks: one late guarded write+publish
                // against a shared row. Epoch fencing refuses it; the
                // ablation lets it straight through to readers.
                let (page, off) = zombie_row;
                let (zombie, server) = (&mut cl.nodes[dead], &mut cl.fabric.server);
                if let Ok(t2) = zombie.guarded_write(server, page, off as u64, &[0xEE; 120], now) {
                    let _ = zombie.guarded_publish(server, page, t2);
                }
            }
        },
    );
    // Fold per-lane fault counters and end-of-run link state in lane
    // order.
    let mut fault_stats = FaultStats::default();
    let mut link_snap = faults::LinkSnapshot::default();
    for core in &cluster.cores {
        fault_stats.absorb(&core.faults.stats());
        let ls = core.faults.link_snapshot(cfg.duration);
        link_snap.degraded += ls.degraded;
        link_snap.down += ls.down;
        link_snap.worst_factor = link_snap.worst_factor.max(ls.worst_factor);
    }
    let queries_per_node: Vec<u64> = cluster.exts.iter().map(|s| s.queries).collect();

    // ---- End-of-run safety check: protocol reads vs the oracle -------
    let reader_for = |page: PageId| -> usize {
        let group = (page.0 / pages_per_group) as usize;
        if group == dead {
            n // the standby serves the dead group now
        } else if group < n {
            group
        } else {
            // Shared group: lowest surviving primary.
            (0..n).find(|&i| i != dead).expect("a survivor exists")
        }
    };
    let mut mismatches = 0u64;
    let mut buf = vec![0u8; 120];
    for (&(page, off), &expect) in model.iter() {
        let ridx = reader_for(page);
        if ridx == n && takeover.is_none() {
            continue; // takeover never happened: nothing to check
        }
        buf.fill(0);
        let server = &mut cluster.fabric.server;
        cluster.nodes[ridx].read(server, page, off as u64, &mut buf, cfg.duration);
        if buf.iter().any(|&b| b != expect) {
            mismatches += 1;
        }
    }
    let safety_ok = mismatches == 0;

    // ---- Timelines, liveness, registry --------------------------------
    let series: Vec<TimeSeries> = cluster.exts.into_iter().map(|s| s.series).collect();
    let per_node_timeline: Vec<Vec<TimelinePoint>> = series
        .iter()
        .map(|s| {
            s.rates_per_sec()
                .iter()
                .enumerate()
                .map(|(i, &qps)| TimelinePoint {
                    second: i as u64,
                    qps,
                })
                .collect()
        })
        .collect();
    let bucket_ns = cfg.bucket.as_nanos();
    let mut max_survivor_gap_ns = 0u64;
    for (i, s) in series.iter().enumerate().take(n) {
        if i == dead {
            continue;
        }
        let mut gap = 0u64;
        for &b in s.buckets() {
            if b == 0 {
                gap += bucket_ns;
                max_survivor_gap_ns = max_survivor_gap_ns.max(gap);
            } else {
                gap = 0;
            }
        }
    }

    let queries: u64 = queries_per_node.iter().sum();
    let server = &cluster.fabric.server;
    let fusion = server.stats();
    let mut registry = MetricsRegistry::new();
    registry.set_int("queries", queries);
    registry.set_num("qps", queries as f64 / cfg.duration.as_secs_f64());
    registry.set_int("failover_crash_node", dead as u64);
    registry.set_int("failover_crash_at_ns", crash_at.as_nanos());
    registry.set_int("failover_detection_ns", detection_ns);
    registry.set_int("failover_safety_ok", safety_ok as u64);
    registry.set_int("failover_safety_mismatches", mismatches);
    registry.set_int("failover_max_survivor_gap_ns", max_survivor_gap_ns);
    registry.set_int("fusion_rpcs", fusion.rpcs);
    registry.set_int("fusion_invalidations", fusion.invalidations);
    registry.set_int(
        "fusion_storage_fills",
        fusion.storage_fills.saturating_sub(warm_fills),
    );
    registry.set_int("fusion_fenced_nodes", fusion.fenced_nodes);
    registry.set_int("fusion_fenced_rejects", fusion.fenced_rejects);
    registry.set_int("fusion_reclaimed_slots", fusion.reclaimed_slots);
    registry.set_int("fusion_reclaimed_flags", fusion.reclaimed_flags);
    registry.set_int("manager_rpcs", mgr.rpcs());
    registry.set_int("faults_hits", fault_stats.total_hits());
    registry.set_int("faults_injected", fault_stats.total_injected());
    registry.set_int("faults_node_crashes", fault_stats.node_crashes);
    registry.set_int("faults_link_degrades", fault_stats.link_degrades);
    registry.set_int("faults_link_flaps", fault_stats.link_flaps);
    registry.set_int("links_degraded", link_snap.degraded as u64);
    registry.set_int("links_down", link_snap.down as u64);
    registry.set_int("links_worst_factor", link_snap.worst_factor as u64);
    for site in FaultSite::ALL {
        registry.set_int(
            &format!("faults_injected_{}", site.name()),
            fault_stats.injected[site as usize],
        );
    }
    if let Some(s) = &takeover {
        registry.set_int("failover_death_declared_ns", s.death_declared.as_nanos());
        registry.set_int("failover_fence_start_ns", s.fence_start.as_nanos());
        registry.set_int("failover_takeover_done_ns", s.takeover_done.as_nanos());
        registry.set_int("failover_takeover_ns", s.takeover_ns);
        registry.set_int("failover_replay_estimate_ns", s.replay_estimate_ns);
        registry.set_int("failover_pages_recovered", s.pages_recovered);
        registry.set_int(
            "failover_storage_fills_during_takeover",
            s.storage_fills_during_takeover,
        );
        registry.set_int("failover_locks_reclaimed", s.locks_reclaimed);
        registry.set_int("failover_slots_reclaimed", s.slots_reclaimed);
    }
    if let Some(rep) = &telemetry_report {
        rep.register_into(&mut registry);
        if takeover.is_some() {
            if let Some(mttd) = rep.mttd_ns("node_absent", dead as u32, crash_at) {
                registry.set_int("telemetry_mttd_crash_ns", mttd);
            }
        }
        if let Some(host) = cfg.link_chaos.host() {
            // Link chaos is detected by whichever rule reacts first:
            // a flap silences the host (absence), a degrade inflates
            // its p99 (burn rate).
            let mttd = ["node_absent", "p99_slow"]
                .iter()
                .filter_map(|r| rep.mttd_ns(r, host, crash_at))
                .min();
            if let Some(mttd) = mttd {
                registry.set_int("telemetry_mttd_link_ns", mttd);
            }
        }
    }

    // The DBP must never leak slots, whatever the failure did.
    assert_eq!(
        server.pages_in_use() + server.free_slots(),
        total_pages as usize,
        "DBP slot conservation"
    );

    FailoverResult {
        queries,
        queries_per_node,
        per_node_timeline,
        bucket: cfg.bucket,
        takeover,
        safety_ok,
        safety_mismatches: mismatches,
        max_survivor_gap_ns,
        fault_stats,
        fusion,
        telemetry: telemetry_report,
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_recovers_and_stays_safe() {
        let cfg = FailoverConfig::smoke(3);
        let r = run_failover(&cfg);
        r.assert_safety();
        let s = r.takeover.expect("the crash fired");
        assert_eq!(s.storage_fills_during_takeover, 0, "PolarRecv band");
        assert!(s.pages_recovered > 0);
        assert!(
            s.takeover_ns * 5 < s.replay_estimate_ns,
            "takeover {} ns must be well under vanilla replay {} ns",
            s.takeover_ns,
            s.replay_estimate_ns
        );
        // Survivors keep serving: no silence longer than the detection
        // window plus one bucket of quantization.
        assert!(
            r.max_survivor_gap_ns <= cfg.detection.as_nanos() + cfg.bucket.as_nanos(),
            "survivor gap {} ns",
            r.max_survivor_gap_ns
        );
        // The zombie's late write was refused.
        assert!(r.fusion.fenced_nodes >= 1);
        // The standby actually served work after takeover.
        assert!(r.queries_per_node[cfg.nodes] > 0, "standby must serve");
    }

    #[test]
    fn disabled_fencing_is_observably_unsafe() {
        let mut cfg = FailoverConfig::smoke(3);
        cfg.fencing = FencingPolicy::Disabled;
        let r = run_failover(&cfg);
        assert!(
            !r.safety_ok,
            "without fencing the zombie's late write must reach readers"
        );
        assert!(r.safety_mismatches > 0);
    }

    #[test]
    fn true_crash_mode_also_recovers() {
        let mut cfg = FailoverConfig::smoke(3);
        cfg.death = DeathMode::Crash;
        let r = run_failover(&cfg);
        r.assert_safety();
        assert!(r.takeover.is_some());
        assert!(r.queries_per_node[cfg.nodes] > 0);
    }

    #[test]
    fn link_chaos_slows_but_does_not_wedge_survivors() {
        let mut cfg = FailoverConfig::smoke(3);
        // Degrade survivor host 1's CXL link for most of the run.
        cfg.link_chaos = LinkChaos::Degrade {
            host: 1,
            factor: 4,
            heal_ns: 8_000_000,
        };
        let healthy = run_failover(&FailoverConfig::smoke(3));
        let r = run_failover(&cfg);
        r.assert_safety();
        assert!(r.takeover.is_some());
        // Node 1 still completes work, but less of it.
        assert!(r.queries_per_node[1] > 0, "degraded survivor keeps serving");
        assert!(
            r.queries_per_node[1] < healthy.queries_per_node[1],
            "degradation must cost throughput: {} vs {}",
            r.queries_per_node[1],
            healthy.queries_per_node[1]
        );
    }

    #[test]
    fn telemetry_detects_the_crash_on_the_victim_only() {
        let cfg = FailoverConfig::smoke(3);
        let r = run_failover(&cfg);
        r.assert_safety();
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        let crash_at = SimTime(
            r.registry
                .get("failover_crash_at_ns")
                .expect("crash instant recorded")
                .as_u64(),
        );
        let mttd = rep
            .mttd_ns("node_absent", cfg.crash_node as u32, crash_at)
            .expect("absence alert fired for the victim");
        // Fire at a window boundary, within a few detection windows.
        assert!(
            mttd <= 4 * cfg.telemetry_window.as_nanos(),
            "MTTD {mttd} ns too slow"
        );
        assert_eq!(
            r.registry
                .get("telemetry_mttd_crash_ns")
                .map(|v| v.as_u64()),
            Some(mttd)
        );
        // No other node trips the absence rule.
        for a in rep.alerts.iter().filter(|a| a.firing) {
            assert!(
                a.rule != "node_absent" || a.node == cfg.crash_node as u32,
                "absence fired on non-victim node {}",
                a.node
            );
        }
    }

    #[test]
    fn fault_free_failover_run_raises_no_alerts() {
        let mut cfg = FailoverConfig::smoke(3);
        cfg.fault_free = true;
        let r = run_failover(&cfg);
        r.assert_safety();
        assert!(r.takeover.is_none(), "fault-free run must not fail over");
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        assert_eq!(rep.alert_fires(), 0, "{}", rep.alert_log());
        assert_eq!(rep.alert_clears(), 0);
    }

    #[test]
    fn telemetry_detects_a_link_flap_and_clears() {
        let mut cfg = FailoverConfig::smoke(3);
        cfg.link_chaos = LinkChaos::Flap {
            host: 1,
            down_ns: 4 * cfg.telemetry_window.as_nanos(),
            retry_ns: 100_000,
        };
        let r = run_failover(&cfg);
        r.assert_safety();
        let mttd = r
            .registry
            .get("telemetry_mttd_link_ns")
            .expect("flap detected")
            .as_u64();
        assert!(
            mttd <= 8 * cfg.telemetry_window.as_nanos(),
            "flap MTTD {mttd} ns too slow"
        );
        // The outage heals, so the alert must clear again.
        let rep = r.telemetry.as_ref().unwrap();
        assert!(
            rep.alert_clears() > 0,
            "flap alert never cleared:\n{}",
            rep.alert_log()
        );
    }

    #[test]
    fn telemetry_is_observation_only() {
        // Turning the window width to ZERO (probes off) must not change
        // a single simulated outcome.
        let on = run_failover(&FailoverConfig::smoke(3));
        let mut cfg = FailoverConfig::smoke(3);
        cfg.telemetry_window = SimTime::ZERO;
        let off = run_failover(&cfg);
        assert!(off.telemetry.is_none());
        assert_eq!(on.queries, off.queries);
        assert_eq!(on.queries_per_node, off.queries_per_node);
        assert_eq!(on.per_node_timeline, off.per_node_timeline);
        assert_eq!(on.max_survivor_gap_ns, off.max_survivor_gap_ns);
    }

    #[test]
    fn fill_bytes_are_nonzero_and_deterministic() {
        for w in 0..64 {
            for k in 0..32 {
                let b = fill_byte(w, k);
                assert!(b != 0 && b != 0xEE, "{b}");
                assert_eq!(b, fill_byte(w, k));
            }
        }
    }
}
