//! Node-failover harness for the multi-primary fusion cluster (§3.3 /
//! §4.3's availability argument).
//!
//! N primaries share one dataset through the buffer fusion server; a
//! seeded fault plan kills one primary mid-run ([`Action::CrashNode`]).
//! The cluster then plays the paper's availability story:
//!
//! 1. **Detection** — the [`Supervisor`] declares the node dead one
//!    detection window after the fault fires (you cannot distinguish
//!    dead from slow, which is why fencing exists).
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
use crate::control::Supervisor;
use crate::metrics::TimelinePoint;
use crate::sharing::{seed_storage, GroupLayout};
use memsim::calib::{CPU_TXN_OVERHEAD_NS, PAGE_SIZE};
use memsim::NodeId;
use polarcxlmem::{CxlMemoryManager, FencingPolicy, FusionStats, Lease, SharingNode};
use simkit::faults::{Action, FaultPlan, FaultSite, FaultState, FaultStats, Trigger};
use simkit::rng::stream_rng;
use simkit::stats::TimeSeries;
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
    /// outage.
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
    /// The host this chaos strikes and the fault it injects there, if any.
    pub fn strike(self) -> Option<(u32, Action)> {
        let (host, action) = match self {
            LinkChaos::None => return None,
            LinkChaos::Degrade {
                host,
                factor,
                heal_ns,
            } => (
                host,
                Action::LinkDegrade {
                    host,
                    factor,
                    heal_ns,
                },
            ),
            LinkChaos::Flap {
                host,
                down_ns,
                retry_ns,
            } => (
                host,
                Action::LinkFlap {
                    host,
                    down_ns,
                    retry_ns,
                },
            ),
        };
        Some((host, action))
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
    let mut lease = |owner, bytes| {
        let leased = mgr.allocate(owner, bytes, SimTime::ZERO);
        leased.expect("pool sized for every lease").0
    };
    assert_eq!(lease(server_id, slots_bytes).offset, 0, "slots first");
    // The spare flag array (index n) is held by the control plane until
    // takeover reassigns it to the standby.
    let flag_owner = |i| if i == n { server_id } else { NodeId(i) };
    let flag_leases: Vec<Lease> = (0..=n).map(|i| lease(flag_owner(i), flags_bytes)).collect();
    let epoch_lease = lease(server_id, (n as u64 + 2) * 8);
    let scratch_leases: Vec<Lease> = (0..n).map(|i| lease(NodeId(i), 4096)).collect();

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
    lane_plans[dead] = std::mem::take(&mut lane_plans[dead]).with(
        Trigger::At(crash_at),
        Action::CrashNode {
            node: cfg.crash_node as u32,
        },
    );
    // Link health is consulted by the afflicted host's own accesses, so
    // the chaos event rides that host's lane.
    if let Some((host, action)) = cfg.link_chaos.strike() {
        let lane = (host as usize).min(n);
        let plan = std::mem::take(&mut lane_plans[lane]);
        lane_plans[lane] = plan.with(Trigger::At(crash_at), action);
    }

    // Oracle: committed row contents, keyed (page, offset). Shared row 0
    // is reserved as the zombie's target — the workload never writes it,
    // so its expected content stays the deterministic seed byte and a
    // late fenced write is guaranteed to be observable.
    let mut model: BTreeMap<(PageId, u16), u8> = BTreeMap::new();
    let zombie_row = layout.locate(n, 0);
    model.insert(zombie_row, n as u8);

    let mut sup = Supervisor::new(dead, cfg.detection, cfg.death);
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
    // quantum.
    let served = (0..=n)
        .map(|_| Served {
            write_seq: vec![0u64; wpn],
            series: TimeSeries::with_capacity_for(cfg.bucket.as_nanos(), cfg.duration),
            queries: 0,
            writes: Vec::new(),
        })
        .collect();
    let faults = lane_plans.into_iter().map(FaultState::prepared).collect();
    let mut cluster = Cluster::new(fusion, nodes, served, faults, wpn, cfg.seed);
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }

    let rows = layout.rows_per_group;
    cluster.run(
        cfg.duration,
        SimTime(idle_tick),
        |ctx, w, start| {
            // The standby serves the dead node's group.
            let serve_group = if ctx.lane < n { ctx.lane } else { dead };
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            let mut stmts = 0u64;
            for _ in 0..4 {
                let rng = &mut ctx.rngs[w];
                let group = if rng.gen_range(0..100) < SHARED_PCT {
                    n
                } else {
                    serve_group
                };
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
                        Err(Fenced(_)) => {
                            // Fenced mid-run: the write never committed,
                            // so the oracle keeps the old value; stop
                            // serving.
                            return Step::Park;
                        }
                    }
                } else {
                    t = ctx.locked_read(page, off as u64, 120, t);
                }
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
            // Handover: reclaim the dead node's page locks (its group +
            // shared), revoke its scratch lease (twice: idempotent), give the
            // standby the spare flag array; it registers, then adopts the
            // whole group out of the DBP in one bulk RPC (PolarRecv band).
            // Nothing before the handover fills a page or recycles a slot,
            // so counters read here are the takeover's baseline.
            let before = cl.fabric.server.stats();
            let (mut locks_reclaimed, mut adopted) = (0, 0);
            let done = sup.at_barrier(cl, now, |cl, t| {
                let (fabric, sb) = (&mut cl.fabric, &mut cl.nodes[n]);
                let reclaimed = layout.home_pages(dead).map(|p| cl.locks.reclaim(p, t));
                locks_reclaimed = reclaimed.map(u64::from).sum();
                let (revoked, t) = mgr.revoke(scratch_leases[dead], t);
                let (again, t) = mgr.revoke(scratch_leases[dead], t);
                debug_assert!(revoked && !again);
                let relet = mgr.reassign(flag_leases[n], standby_id, t);
                let t = relet.expect("standby flag lease").1;
                let t = fabric.admit(sb, flag_leases[n].offset, guard, t);
                let first = PageId(layout.group_pages(dead).start);
                let (pages, t) = sb.adopt(&mut fabric.server, first, pages_per_group, t);
                adopted = pages;
                t
            });
            if let Some(t) = done {
                let (id, bytes) = (standby_id.0 as u32, pages_per_group * PAGE_SIZE);
                trace::span(SpanKind::RecoveryReplay, id, now, t, bytes);
                let after = cl.fabric.server.stats();
                takeover = Some(TakeoverSummary {
                    death_declared: sup.declared.expect("declared before the takeover"),
                    fence_start: now,
                    takeover_done: t,
                    takeover_ns: t.saturating_since(now),
                    replay_estimate_ns,
                    pages_recovered: adopted,
                    storage_fills_during_takeover: after.storage_fills - before.storage_fills,
                    locks_reclaimed,
                    slots_reclaimed: after.reclaimed_slots - before.reclaimed_slots,
                });
                // The standby also serves the shared group: resolve its
                // pages serially so no RPC happens mid-phase, then start
                // its workers at takeover_done on a shard of its own.
                cl.fabric
                    .warm(&mut cl.nodes[n], layout.group_pages(n).map(PageId), t);
                cl.activate(n, t);
                cl.refresh_dir();
                if cfg.death == DeathMode::Zombie {
                    zombie_due = Some(t + idle_tick);
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
    // Fold per-lane fault counters in lane order.
    let mut fault_stats = FaultStats::default();
    for core in &cluster.cores {
        fault_stats.absorb(&core.faults.stats());
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
        let healthy = run_failover(&FailoverConfig::smoke(3));
        // Survivor host 1's CXL link degrades for most of the run, or
        // goes fully down for 4 ms and comes back.
        let chaos = [
            LinkChaos::Degrade {
                host: 1,
                factor: 4,
                heal_ns: 8_000_000,
            },
            LinkChaos::Flap {
                host: 1,
                down_ns: 4_000_000,
                retry_ns: 100_000,
            },
        ];
        for link_chaos in chaos {
            let mut cfg = FailoverConfig::smoke(3);
            cfg.link_chaos = link_chaos;
            let r = run_failover(&cfg);
            r.assert_safety();
            assert!(r.takeover.is_some(), "{link_chaos:?}");
            // Node 1 still completes work, but less of it.
            assert!(r.queries_per_node[1] > 0, "degraded survivor keeps serving");
            assert!(
                r.queries_per_node[1] < healthy.queries_per_node[1],
                "{link_chaos:?} must cost throughput: {} vs {}",
                r.queries_per_node[1],
                healthy.queries_per_node[1]
            );
        }
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
