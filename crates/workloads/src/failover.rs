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
//!    is rejected ([`FencedError`]).
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

use crate::metrics::TimelinePoint;
use crate::sharing::{seed_storage, GroupLayout};
use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_STMT_NS, LOCK_SERVICE_NS, PAGE_SIZE,
};
use memsim::{CxlNodeConfig, CxlPool, CxlShard, NodeId};
use polarcxlmem::{CxlMemoryManager, FencingPolicy, FusionServer, FusionStats, Lease, SharingNode};
use simkit::faults::{self, Action, FaultPlan, FaultSite, FaultState, FaultStats, Trigger};
use simkit::rng::{stream_rng, SimRng};
use simkit::stats::TimeSeries;
use simkit::telemetry::{
    self, Metric, NodeProbe, SloRule, TelemetryConfig, TelemetryHub, TelemetryReport,
};
use simkit::trace::{self, Lane, SpanKind, TraceState};
use simkit::{
    par, LockDelta, LockMode, LockShard, LockTable, MetricsRegistry, MultiServer, SimTime, Step,
    WorkerId, WorkerSet,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use storage::PageId;

/// How the victim node dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeathMode {
    /// The host truly dies: its CPU caches freeze mid-flight
    /// ([`CxlPool::crash_node`]) and it never speaks again.
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
    /// Percentage of statements on the shared group.
    pub shared_pct: u32,
    /// Detection window between the fault and the fence.
    pub detection: SimTime,
    /// Fencing policy ([`FencingPolicy::Disabled`] is the ablation).
    pub fencing: FencingPolicy,
    /// How the victim dies.
    pub death: DeathMode,
    /// Optional link degradation riding along with the crash.
    pub link_chaos: LinkChaos,
    /// Telemetry window width (`SimTime::ZERO` disables the online
    /// telemetry pipeline at runtime; the `telemetry` cargo feature
    /// compiles it out entirely).
    pub telemetry_window: SimTime,
    /// Run entirely fault-free — no crash, no link chaos. The control
    /// run for the telemetry false-positive measurement.
    pub fault_free: bool,
    /// Host worker threads stepping nodes between barriers
    /// (`0` = [`par::host_threads`]). Any value yields bit-identical
    /// results; it only changes wall-clock time.
    pub host_threads: usize,
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
            shared_pct: 20,
            detection: SimTime::from_millis(2),
            fencing: FencingPolicy::Epoch,
            death: DeathMode::Zombie,
            link_chaos: LinkChaos::None,
            telemetry_window: SimTime::from_millis(2),
            fault_free: false,
            host_threads: 0,
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
    /// Online telemetry report (`None` when the layer is compiled out
    /// or the run disabled it).
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

/// Per-node driver state surviving across quanta (primaries `0..n`,
/// the standby at index `n`): the node's closed-loop scheduler, CPU
/// cores, RNG streams, write sequence numbers, timeline, reusable I/O
/// buffers, the per-quantum committed-write log for the oracle, and
/// the node's detached tracer / fault-engine states (swapped in around
/// each quantum).
struct FoLoop {
    ws: WorkerSet,
    cpu: MultiServer,
    rngs: Vec<SimRng>,
    write_seq: Vec<u64>,
    wbase: usize,
    series: TimeSeries,
    queries: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    writes: Vec<((PageId, u16), u8)>,
    trace: TraceState,
    faults: FaultState,
    probe: NodeProbe,
    /// Fusion-stat snapshot at the last quantum edge (miss/retry deltas
    /// feed the probe per quantum).
    prev: polarcxlmem::SharingNodeStats,
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

    // ---- Fabric, storage, fusion server -----------------------------
    // Identity i on host i: primaries 0..n, server on n, standby on n+1.
    let cfgs: Vec<CxlNodeConfig> = (0..n + 2)
        .map(|host| CxlNodeConfig {
            host,
            cache_bytes: 8 << 20,
            capture: true,
            remote_numa: false,
            direct_attach: false,
        })
        .collect();
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool_size as usize, &cfgs)));
    let store = Rc::new(RefCell::new(seed_storage(&layout)));
    let mut server = FusionServer::new(
        Rc::clone(&cxl),
        server_id,
        0,
        total_pages as u32,
        Rc::clone(&store),
    );
    server.enable_fencing(cfg.fencing, epoch_lease.offset);
    let guard_nodes = cfg.fencing == FencingPolicy::Epoch;
    let mut nodes: Vec<SharingNode> = (0..n)
        .map(|i| {
            let (grant, _) =
                server.register_node_fenced(NodeId(i), flag_leases[i].offset, SimTime::ZERO);
            let mut node = SharingNode::new(NodeId(i), flag_leases[i].offset, PAGE_SIZE);
            if guard_nodes {
                node.enable_fencing(epoch_lease.offset, grant);
            }
            node
        })
        .collect();
    // Warm: every node resolves its own group + the shared group.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for g in [i, n] {
            for p in 0..pages_per_group {
                let page = PageId(g as u64 * pages_per_group + p);
                nodes[i].access(&mut server, page, SimTime::ZERO);
            }
        }
    }
    cxl.borrow_mut().reset_link_counters();
    let warm_fills = server.stats().storage_fills;

    // ---- Fault plan --------------------------------------------------
    // The crash instant is derived from the fault seed: same
    // (seed, fault_seed) ⇒ bit-identical run. Each plan event is routed
    // to the node whose primitives it perturbs — gates only ever
    // consult their own node's detached engine, so the fault schedule
    // is a function of that node's deterministic poll sequence,
    // invariant to the host worker count.
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

    // ---- The cluster run ---------------------------------------------
    let mut locks: LockTable<PageId> = LockTable::new();

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
    let mut standby_node: Option<SharingNode> = None;
    let detection_ns = cfg.detection.as_nanos();
    let idle_tick = (detection_ns / 4).max(10_000);
    let payload_len = 120usize;

    // Vanilla-replay estimate: what the takeover would cost if the
    // standby had to reload the dead node's group from storage (an
    // identical cold store, so the measurement is side-effect free).
    let replay_estimate_ns = {
        let mut cold = seed_storage(&layout);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let mut t = SimTime::ZERO;
        for p in 0..pages_per_group {
            let page = PageId(dead as u64 * pages_per_group + p);
            t = cold.read_page(page, &mut buf, t).end;
        }
        t.as_nanos()
    };

    // ---- Phased stepping between virtual-time barriers ---------------
    // Every node (and, once serving, the standby) steps on its own lane
    // between barriers; cross-node effects — CXL write logs, lock
    // deltas, invalid flags, oracle commits — land at each barrier in
    // fixed node order. Detection, fencing, takeover and the zombie's
    // late write are control-plane actions: they run serially at
    // barrier boundaries on the driver thread, which is also where the
    // serial supervisor polled them (once per idle tick).
    let threads = if cfg.host_threads == 0 {
        par::host_threads()
    } else {
        cfg.host_threads
    };
    let quantum = idle_tick;

    // ---- Online telemetry ---------------------------------------------
    // One probe per identity (primaries + standby), ingested and sealed
    // at every barrier. The absence rule is the telemetry-driven death
    // detector scored against the fault plan's ground truth; the p99
    // burn-rate rule catches link degradation (sustained latency
    // inflation with the short mean reacting and the long confirming).
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
    let mut hub = TelemetryHub::new(tcfg.clone());
    // The standby is silent until takeover — not a missing heartbeat.
    hub.set_inactive(n as u32);

    let mut loops: Vec<FoLoop> = (0..n + 1)
        .map(|i| {
            let mut ws = WorkerSet::new();
            if i < n {
                for k in 0..wpn {
                    ws.spawn(WorkerId(k), SimTime::ZERO);
                }
            } // the standby's workers spawn at takeover_done
            FoLoop {
                ws,
                cpu: MultiServer::new(16),
                rngs: (0..wpn)
                    .map(|k| stream_rng(cfg.seed, (i * wpn + k) as u64))
                    .collect(),
                write_seq: vec![0u64; wpn],
                wbase: i * wpn,
                series: TimeSeries::with_capacity_for(cfg.bucket.as_nanos(), cfg.duration),
                queries: 0,
                rbuf: vec![0u8; payload_len],
                wbuf: vec![0u8; payload_len],
                writes: Vec::new(),
                trace: TraceState::armed(),
                faults: FaultState::prepared(std::mem::take(&mut lane_plans[i])),
                probe: NodeProbe::new(i as u32, &tcfg),
                prev: polarcxlmem::SharingNodeStats::default(),
            }
        })
        .collect();
    let mut dir = server.dir_snapshot();
    // Shards of currently-stepping identities, ascending: primaries
    // 0..n, minus the victim once declared, plus the standby once
    // serving (its identity n+1 sorts last).
    let mut shards: Vec<CxlShard> = {
        let mut pool = cxl.borrow_mut();
        (0..n).map(|i| pool.detach_node(NodeId(i))).collect()
    };

    struct FoLane<'a> {
        serve_group: usize,
        node: &'a mut SharingNode,
        shard: &'a mut CxlShard,
        lock: LockShard<'a, PageId>,
        lp: &'a mut FoLoop,
    }

    let shared_pct = cfg.shared_pct;
    let rows = layout.rows_per_group;
    let mut now = SimTime::ZERO;
    while now < cfg.duration {
        let q_end = (now + quantum).min(cfg.duration);
        let mut lanes: Vec<FoLane> = Vec::with_capacity(shards.len());
        {
            let node_iter = nodes
                .iter_mut()
                .map(Some)
                .chain(std::iter::once(standby_node.as_mut()));
            let mut shard_iter = shards.iter_mut();
            for ((idx, node_opt), lp) in node_iter.enumerate().zip(loops.iter_mut()) {
                let active = if idx < n {
                    !(idx == dead && death_declared.is_some())
                } else {
                    takeover.is_some()
                };
                if !active {
                    continue;
                }
                lanes.push(FoLane {
                    serve_group: if idx < n { idx } else { dead },
                    node: node_opt.expect("active node exists"),
                    shard: shard_iter.next().expect("one shard per active node"),
                    lock: locks.shard(),
                    lp,
                });
            }
        }
        let dir_ref = &dir;
        par::run_phase(threads, &mut lanes, |_, lane| {
            let FoLane {
                serve_group,
                node,
                shard,
                lock,
                lp,
            } = lane;
            let serve_group = *serve_group;
            let FoLoop {
                ws,
                cpu,
                rngs,
                write_seq,
                wbase,
                series,
                queries,
                rbuf,
                wbuf,
                writes,
                trace: tr,
                faults: fs,
                probe,
                prev,
            } = &mut **lp;
            trace::swap_state(tr);
            faults::swap_state(fs);
            ws.run_until(q_end, |WorkerId(w), start| {
                let rng = &mut rngs[w];
                let mut t = start + CPU_TXN_OVERHEAD_NS;
                let mut stmts = 0u64;
                for _ in 0..4 {
                    let s0 = t;
                    let group = if rng.gen_range(0..100) < shared_pct {
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
                        t = cpu.acquire(t, CPU_WRITE_STMT_NS).end;
                        t += LOCK_SERVICE_NS;
                        let (grant, _) = lock.acquire(page, t, LockMode::Exclusive, 0);
                        t = grant;
                        write_seq[w] += 1;
                        let b = fill_byte(*wbase + w, write_seq[w]);
                        wbuf.fill(b);
                        match node
                            .guarded_write_resident(*shard, page, off as u64, wbuf, t)
                            .and_then(|t2| node.guarded_publish_resident(*shard, dir_ref, page, t2))
                        {
                            Ok(t2) => {
                                t = t2;
                                writes.push(((page, off), b));
                            }
                            Err(_) => {
                                // Fenced mid-run: the write never
                                // committed, so the oracle keeps the old
                                // value; stop serving.
                                lock.extend_exclusive(page, t);
                                probe.record_errs(lane_ix, t, 1);
                                return Step::Park;
                            }
                        }
                        lock.extend_exclusive(page, t);
                    } else {
                        t = cpu.acquire(t, CPU_POINT_SELECT_NS).end;
                        t += LOCK_SERVICE_NS;
                        let (grant, _) = lock.acquire(page, t, LockMode::Shared, 0);
                        t = grant;
                        t = node.read_resident(*shard, page, off as u64, rbuf, t);
                        lock.extend_shared(page, t);
                    }
                    probe.record_op(lane_ix, t, t.saturating_since(s0));
                    probe.record_bytes(lane_ix, t, 120);
                    stmts += 1;
                }
                series.record_at(t, stmts);
                *queries += stmts;
                Step::Done(t)
            });
            // Fold the quantum's fusion-protocol deltas into the window
            // still open at the quantum edge (misses = RPCs, retries =
            // coherency drops/reloads).
            if probe.enabled() {
                let s1 = node.stats();
                let d = s1.since(prev);
                let edge = SimTime(q_end.as_nanos().saturating_sub(1));
                probe.record_misses(0, edge, d.rpcs);
                probe.record_retries(0, edge, d.invalid_drops + d.removal_reloads);
                *prev = s1;
            }
            faults::swap_state(fs);
            trace::swap_state(tr);
        });
        // Barrier: fold lock deltas, then the oracle's committed writes,
        // then the fabric write logs — all in fixed node order, so the
        // oracle's last-writer-wins agrees with the region's.
        let deltas: Vec<LockDelta<PageId>> =
            lanes.into_iter().map(|lane| lane.lock.finish()).collect();
        for mut delta in deltas {
            locks.absorb(&mut delta);
        }
        for lp in loops.iter_mut() {
            for (key, b) in lp.writes.drain(..) {
                model.insert(key, b);
            }
        }
        cxl.borrow_mut().barrier(&mut shards);
        now = q_end;
        // Telemetry barrier: hand every window that closed before `now`
        // to the hub (fixed node order), then seal — rows, health and
        // alert transitions are a function of virtual time only.
        for lp in loops.iter_mut() {
            hub.ingest(&mut lp.probe, now);
        }
        hub.seal(now);

        // ---- Barrier-boundary control plane --------------------------
        if death_declared.is_none() {
            if let Some(node) = loops[dead].faults.take_node_crash() {
                debug_assert_eq!(node as usize, dead);
                death_declared = Some(now);
                // The victim stops being stepped; its shard re-attaches
                // so barrier-boundary serial code (the zombie, the crash
                // path) works through the pool.
                let sh = shards.remove(dead);
                let mut pool = cxl.borrow_mut();
                pool.attach_node(sh);
                if cfg.death == DeathMode::Crash {
                    pool.crash_node(NodeId(dead));
                }
                // Ground-truth acknowledged: pin the victim's health to
                // Dead from this window on. Its rules keep evaluating —
                // the absence alert still fires and scores MTTD.
                hub.retire(dead as u32, now);
            }
        } else if let Some(declared) = death_declared {
            if takeover.is_none() && now >= declared + detection_ns {
                let fence_start = now;
                // 1. Fence: bump the dead node's epoch word. Serial at
                //    the barrier — shard reads observe it next quantum.
                let mut t = server.fence_node(NodeId(dead), fence_start);
                // 2. Reclaim its page locks (its group + shared pages).
                let mut locks_reclaimed = 0u64;
                for g in [dead, n] {
                    for p in 0..pages_per_group {
                        let page = PageId(g as u64 * pages_per_group + p);
                        if locks.reclaim(page, t) {
                            locks_reclaimed += 1;
                        }
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
                let fills_before = server.stats().storage_fills;
                let (grant, t2) = server.register_node_fenced(standby_id, flag_leases[n].offset, t);
                t = t2;
                let mut sb = SharingNode::new(standby_id, flag_leases[n].offset, PAGE_SIZE);
                if guard_nodes {
                    sb.enable_fencing(epoch_lease.offset, grant);
                }
                // One bulk RPC adopts the dead node's whole group out of
                // the DBP directory — no per-page round trips, no
                // storage replay.
                let (adopted, t2) = sb.adopt(
                    &mut server,
                    PageId(dead as u64 * pages_per_group),
                    pages_per_group,
                    t,
                );
                t = t2;
                // 5. Self-heal the server: drop the dead node from every
                //    active list, clear its flag words, recycle slots
                //    nobody else holds.
                let slots_before = server.stats().reclaimed_slots;
                t = server.reclaim_node(NodeId(dead), t);
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
                    storage_fills_during_takeover: server.stats().storage_fills - fills_before,
                    locks_reclaimed,
                    slots_reclaimed: server.stats().reclaimed_slots - slots_before,
                });
                // The standby also serves the shared group: resolve its
                // pages serially so no RPC happens mid-phase, then start
                // its workers at takeover_done and hand it a fabric
                // shard for the next quantum.
                for p in 0..pages_per_group {
                    let page = PageId(n as u64 * pages_per_group + p);
                    sb.access(&mut server, page, t);
                }
                standby_node = Some(sb);
                for k in 0..wpn {
                    loops[n].ws.spawn(WorkerId(k), t);
                }
                hub.expect_from(n as u32, t);
                shards.push(cxl.borrow_mut().detach_node(standby_id));
                dir = server.dir_snapshot();
                if cfg.death == DeathMode::Zombie {
                    zombie_due = Some(t + idle_tick);
                }
            }
        }
        if let Some(due) = zombie_due {
            if now >= due {
                zombie_due = None;
                // The zombie speaks: one late guarded write+publish
                // against a shared row. Epoch fencing refuses it; the
                // ablation lets it straight through to readers.
                let (page, off) = zombie_row;
                if let Ok(t2) =
                    nodes[dead].guarded_write(&mut server, page, off as u64, &[0xEE; 120], now)
                {
                    let _ = nodes[dead].guarded_publish(&mut server, page, t2);
                }
            }
        }
    }
    // Re-attach the surviving shards: the safety check below reads
    // serially through the pool.
    {
        let mut pool = cxl.borrow_mut();
        for shard in shards.drain(..) {
            pool.attach_node(shard);
        }
    }
    server.absorb_invalidations(
        nodes
            .iter()
            .chain(standby_node.iter())
            .map(|node| node.stats().invalidations_sent)
            .sum(),
    );
    // Drain the probes' tail windows (operation overshoot past the last
    // barrier) and seal through the end of the run.
    for lp in loops.iter_mut() {
        hub.drain(&mut lp.probe);
    }
    hub.finish(cfg.duration);
    let telemetry_report = if telemetry::compiled() && hub.enabled() {
        Some(hub.report())
    } else {
        None
    };
    // Fold per-lane fault counters, end-of-run link state and trace
    // state back in node order.
    let mut fault_stats = FaultStats::default();
    let mut link_snap = faults::LinkSnapshot::default();
    for lp in loops.iter_mut() {
        fault_stats.absorb(&lp.faults.stats());
        let ls = lp.faults.link_snapshot(cfg.duration);
        link_snap.degraded += ls.degraded;
        link_snap.down += ls.down;
        link_snap.worst_factor = link_snap.worst_factor.max(ls.worst_factor);
        let bd = lp.trace.breakdown();
        for lane in Lane::ALL {
            let ns = bd.lane(lane);
            if ns > 0 {
                trace::attr_add(lane, ns);
            }
        }
        for ev in lp.trace.take_events() {
            trace::span(ev.kind, ev.node, ev.start, ev.end, ev.bytes);
        }
    }
    let queries_per_node: Vec<u64> = loops.iter().map(|lp| lp.queries).collect();
    let series: Vec<TimeSeries> = loops.into_iter().map(|lp| lp.series).collect();

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
    let t_check = cfg.duration;
    let mut buf = vec![0u8; payload_len];
    for (&(page, off), &expect) in model.iter() {
        let ridx = reader_for(page);
        buf.fill(0);
        if ridx == n {
            match standby_node.as_mut() {
                Some(sb) => {
                    sb.read(&mut server, page, off as u64, &mut buf, t_check);
                }
                None => continue, // takeover never happened: nothing to check
            }
        } else {
            nodes[ridx].read(&mut server, page, off as u64, &mut buf, t_check);
        }
        if buf.iter().any(|&b| b != expect) {
            mismatches += 1;
        }
    }
    let safety_ok = mismatches == 0;

    // ---- Timelines, liveness, registry --------------------------------
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
        if !telemetry::compiled() {
            assert!(r.telemetry.is_none());
            return;
        }
        let rep = r.telemetry.as_ref().expect("telemetry compiled in");
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
        if !telemetry::compiled() {
            return;
        }
        let rep = r.telemetry.as_ref().expect("telemetry compiled in");
        assert_eq!(rep.alert_fires(), 0, "{}", rep.alert_log());
        assert_eq!(rep.alert_clears(), 0);
    }

    #[test]
    fn telemetry_detects_a_link_flap_and_clears() {
        if !telemetry::compiled() {
            return;
        }
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
