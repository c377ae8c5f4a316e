//! The one cluster driver: N database nodes, a coherency server and a
//! fabric, stepped in virtual-time quanta between barriers.
//!
//! Every multi-node harness (sharing on CXL and on RDMA, failover,
//! overload, elasticity) is a *scenario* on this driver: it builds a
//! [`Fabric`], hands over one node + one lane-state value per lane, and
//! supplies two closures —
//!
//! * a **transaction body**, monomorphised into the phase and run once
//!   per closed-loop worker step against a [`LaneCtx`] (the lane's CPU,
//!   RNG streams, probe, scenario state and the two locked statements);
//! * a **barrier hook**, run serially on the driver thread after every
//!   barrier with the whole [`Cluster`] back in hand (server, nodes,
//!   lock table, hub, per-lane state) — failover's detect/fence/
//!   takeover, overload's brownout controller and elasticity's
//!   PREPARE/COMMIT live there.
//!
//! One quantum, in fixed order: for each active lane, ascending, on the
//! calling thread — make its lock shard → swap its tracer and fault
//! engine in → run its workers to the quantum end → land its protocol
//! delta → swap out → finish the lock shard; then fold lock deltas, the
//! fabric barrier, probe ingest + window seal, all in lane order → the
//! hook. A lane sees its peers only through what the barrier published,
//! so results are a function of the quantum and the lane order. At the
//! end of the run the shards re-attach, per-node invalidation counters
//! fold into the server, the hub drains and reports, and every lane's
//! trace state re-lands on the calling thread's tracer in lane order.
//!
//! A hook may touch anything on the [`Cluster`], but fabric shards only
//! through [`Cluster::deactivate`] / [`Cluster::activate`] /
//! [`Cluster::merged`] / [`Cluster::rewarm`], and it must call [`Cluster::refresh_dir`] after
//! mutating the server's directory — lanes read a snapshot.

use crate::sharing::GroupLayout;
use bufferpool::tiered::SharedRdma;
use memsim::calib::{CPU_POINT_SELECT_NS, CPU_WRITE_STMT_NS, LOCK_SERVICE_NS, PAGE_SIZE};
use memsim::{CxlNodeConfig, CxlPool, CxlShard, NodeId, RdmaShard};
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{
    FusionDir, FusionServer, RdmaDbp, RdmaDir, RdmaNodeStats, RdmaSharingNode, SharedCxl,
    SharingNode, SharingNodeStats,
};
use simkit::faults::{self, FaultState};
use simkit::rng::{stream_rng, SimRng};
use simkit::telemetry::{NodeProbe, TelemetryConfig, TelemetryHub, TelemetryReport};
use simkit::trace::{self, TraceState};
use simkit::{
    LockDelta, LockMode, LockShard, LockTable, MultiServer, SimTime, Step, WorkerId, WorkerSet,
};
use std::cell::RefCell;
use std::rc::Rc;
use storage::PageId;

/// A write refused because the writer's epoch was fenced; carries the
/// virtual time the node learned it (its X-lock grant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fenced(pub SimTime);

/// What the driver needs from a sharing design: how nodes detach into
/// phase-private shards and merge back, and the two statements a lane
/// runs under a page lock.
pub trait Fabric {
    /// A database node's protocol state.
    type Node;
    /// A node's phase-private view of the fabric.
    type Shard;
    /// Read-only directory snapshot lanes publish against.
    type Dir;
    /// Per-node protocol counters (snapshotted at quantum edges).
    type Stats: Default;

    /// Zero the link counters: the measured window starts here.
    fn reset_link_counters(&mut self);
    /// Bytes the interconnect moved since the counters were zeroed.
    fn link_bytes(&self) -> u64;
    /// Snapshot the server's directory.
    fn dir(&self) -> Self::Dir;
    /// Detach `node` into a phase-private shard.
    fn detach(&mut self, node: &Self::Node) -> Self::Shard;
    /// Permanently merge a shard back.
    fn attach(&mut self, shard: Self::Shard);
    /// Fold every shard's quantum back in the order given, then land
    /// cross-node effects on `nodes`.
    fn barrier(&mut self, shards: &mut [Self::Shard], nodes: &mut [Self::Node]);
    /// Read under an S lock the caller holds.
    fn read(
        node: &mut Self::Node,
        shard: &mut Self::Shard,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime;
    /// Write then publish under an X lock the caller holds; `None` if
    /// the node was fenced (nothing committed).
    fn write_publish(
        node: &mut Self::Node,
        shard: &mut Self::Shard,
        dir: &Self::Dir,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Option<SimTime>;
    /// `(misses, retries)` the node's protocol counted since `prev`;
    /// advances `prev`.
    fn protocol_delta(node: &Self::Node, prev: &mut Self::Stats) -> (u64, u64);
    /// End of run: fold the nodes' invalidation counters into the server.
    fn absorb_invalidations(&mut self, nodes: &[Self::Node]);
}

/// Per-lane core state that survives across quanta: the closed-loop
/// scheduler, CPU cores, one RNG stream per worker, a read buffer, the
/// lane's detached tracer / fault engine (swapped in around each
/// quantum), its probe and its spent lock delta.
pub struct NodeCore<S> {
    ws: WorkerSet,
    cpu: MultiServer,
    rngs: Vec<SimRng>,
    buf: Vec<u8>,
    trace: TraceState,
    /// The lane's fault engine (hooks poll it; scenarios fold its stats).
    pub faults: FaultState,
    probe: NodeProbe,
    prev: S,
    lock_buf: LockDelta<PageId>,
    started: bool,
}

/// What a transaction body sees of its lane for one worker step.
pub struct LaneCtx<'a, 'l, F: Fabric, X> {
    /// Lane index (= node identity order; stable across activations).
    pub lane: usize,
    /// The node's CPU cores.
    pub cpu: &'a mut MultiServer,
    /// One RNG stream per worker.
    pub rngs: &'a mut [SimRng],
    /// The lane's telemetry probe.
    pub probe: &'a mut NodeProbe,
    /// Scenario state of this lane.
    pub ext: &'a mut X,
    buf: &'a mut [u8],
    node: &'a mut F::Node,
    shard: &'a mut F::Shard,
    lock: &'a mut LockShard<'l, PageId>,
    dir: &'a F::Dir,
}

impl<F: Fabric, X> LaneCtx<'_, '_, F, X> {
    /// One read statement: CPU, S lock, `len` bytes of `page` at `off`.
    pub fn locked_read(&mut self, page: PageId, off: u64, len: usize, now: SimTime) -> SimTime {
        let t = self.cpu.acquire(now, CPU_POINT_SELECT_NS).end + LOCK_SERVICE_NS;
        let (t, _) = self.lock.acquire(page, t, LockMode::Shared, 0);
        let t = F::read(self.node, self.shard, page, off, &mut self.buf[..len], t);
        self.lock.extend_shared(page, t);
        t
    }

    /// One write statement: CPU, X lock, store `data`, publish (flush +
    /// invalidate) before the lock is observed released.
    pub fn locked_write_publish(
        &mut self,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimTime, Fenced> {
        let t = self.cpu.acquire(now, CPU_WRITE_STMT_NS).end + LOCK_SERVICE_NS;
        let (t, _) = self.lock.acquire(page, t, LockMode::Exclusive, 0);
        let done = F::write_publish(self.node, self.shard, self.dir, page, off, data, t);
        self.lock.extend_exclusive(page, done.unwrap_or(t));
        done.ok_or(Fenced(t))
    }
}

/// A cluster between barriers: everything a hook may touch.
pub struct Cluster<F: Fabric, X> {
    /// Pool + coherency server.
    pub fabric: F,
    /// Node protocol state, lane order.
    pub nodes: Vec<F::Node>,
    /// Core lane state, lane order.
    pub cores: Vec<NodeCore<F::Stats>>,
    /// Scenario lane state, lane order.
    pub exts: Vec<X>,
    /// The distributed page-lock table.
    pub locks: LockTable<PageId>,
    /// Telemetry aggregation (sealed at every barrier).
    pub hub: TelemetryHub,
    /// Land the protocol's miss/retry counters on probe lane 0 at each
    /// quantum edge (on unless the scenario defines misses itself).
    pub protocol_probe: bool,
    /// Lanes currently stepping, ascending, and their shards.
    active: Vec<usize>,
    shards: Vec<F::Shard>,
    dir: F::Dir,
}

impl<F: Fabric, X> Cluster<F, X> {
    /// Assemble a cluster of `nodes.len()` lanes, all inactive until
    /// [`Cluster::activate`], each with `wpn` closed-loop workers (worker
    /// `k` of lane `i` draws RNG stream `i·wpn + k` of `seed`). `fabric`
    /// is warmed; its link counters are zeroed here.
    pub fn new(
        mut fabric: F,
        nodes: Vec<F::Node>,
        exts: Vec<X>,
        faults: Vec<FaultState>,
        tcfg: TelemetryConfig,
        wpn: usize,
        seed: u64,
    ) -> Self {
        assert!(nodes.len() == exts.len() && nodes.len() == faults.len());
        let cores = faults
            .into_iter()
            .enumerate()
            .map(|(i, faults)| NodeCore {
                ws: WorkerSet::new(),
                cpu: MultiServer::new(16),
                rngs: (0..wpn)
                    .map(|k| stream_rng(seed, (i * wpn + k) as u64))
                    .collect(),
                buf: vec![0u8; 256],
                trace: TraceState::armed(),
                faults,
                probe: NodeProbe::new(i as u32, &tcfg),
                prev: F::Stats::default(),
                lock_buf: LockDelta::default(),
                started: false,
            })
            .collect();
        fabric.reset_link_counters();
        Cluster {
            dir: fabric.dir(),
            fabric,
            nodes,
            cores,
            exts,
            locks: LockTable::new(),
            hub: TelemetryHub::new(tcfg),
            protocol_probe: true,
            active: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// Start (or resume) stepping `lane`: its node detaches into a
    /// shard, and the first time its workers become ready at `at`.
    pub fn activate(&mut self, lane: usize, at: SimTime) {
        let pos = self.active.partition_point(|&l| l < lane);
        self.active.insert(pos, lane);
        self.shards
            .insert(pos, self.fabric.detach(&self.nodes[lane]));
        let core = &mut self.cores[lane];
        if !core.started {
            core.started = true;
            for k in 0..core.rngs.len() {
                core.ws.spawn(WorkerId(k), at);
            }
        }
    }

    /// Stop stepping `lane`: its shard merges back, so serial code can
    /// reach the node through the pool.
    pub fn deactivate(&mut self, lane: usize) {
        let pos = self.active.binary_search(&lane).expect("lane is active");
        self.active.remove(pos);
        self.fabric.attach(self.shards.remove(pos));
    }

    /// Run serial code with every stepping lane's shard merged back (the
    /// pool as the server sees it), then detach them all again.
    pub fn merged<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let lanes = self.active.clone();
        lanes.iter().for_each(|&lane| self.deactivate(lane));
        let r = f(self);
        lanes
            .iter()
            .for_each(|&lane| self.activate(lane, SimTime::ZERO));
        r
    }

    /// Re-snapshot the directory after a hook mutated the server's.
    pub fn refresh_dir(&mut self) {
        self.dir = self.fabric.dir();
    }

    /// Step `duration` of virtual time in `quantum`-wide phases, the
    /// active lanes in ascending order on the calling thread. Returns the
    /// telemetry report (`None` when the window is ZERO).
    pub fn run(
        &mut self,
        duration: SimTime,
        quantum: SimTime,
        body: impl Fn(&mut LaneCtx<'_, '_, F, X>, usize, SimTime) -> Step,
        mut hook: impl FnMut(&mut Self, SimTime),
    ) -> Option<TelemetryReport> {
        let mut now = SimTime::ZERO;
        while now < duration {
            let q_end = (now + quantum.as_nanos().max(1)).min(duration);
            for (&ix, shard) in self.active.iter().zip(self.shards.iter_mut()) {
                let core = &mut self.cores[ix];
                let mut lock = self.locks.shard_reusing(&mut core.lock_buf);
                trace::swap_state(&mut core.trace);
                faults::swap_state(&mut core.faults);
                let mut ctx = LaneCtx {
                    lane: ix,
                    cpu: &mut core.cpu,
                    rngs: &mut core.rngs,
                    probe: &mut core.probe,
                    ext: &mut self.exts[ix],
                    buf: &mut core.buf,
                    node: &mut self.nodes[ix],
                    shard,
                    lock: &mut lock,
                    dir: &self.dir,
                };
                core.ws
                    .run_until(q_end, |WorkerId(w), start| body(&mut ctx, w, start));
                if self.protocol_probe && ctx.probe.enabled() {
                    // Protocol counters land as misses/retries in the
                    // window still open at this quantum edge.
                    let (misses, retries) = F::protocol_delta(ctx.node, &mut core.prev);
                    let edge = SimTime(q_end.as_nanos().saturating_sub(1));
                    ctx.probe.record_misses(0, edge, misses);
                    ctx.probe.record_retries(0, edge, retries);
                }
                faults::swap_state(&mut core.faults);
                trace::swap_state(&mut core.trace);
                core.lock_buf = lock.finish();
            }
            // Barrier, all in lane order: lock deltas, the fabric's write
            // logs and link backlog, then telemetry windows.
            for core in self.cores.iter_mut() {
                self.locks.absorb(&mut core.lock_buf);
            }
            self.fabric.barrier(&mut self.shards, &mut self.nodes);
            now = q_end;
            if self.hub.enabled() {
                for core in self.cores.iter_mut() {
                    self.hub.ingest(&mut core.probe, now);
                }
                self.hub.seal(now);
            }
            hook(self, now);
        }
        for shard in self.shards.drain(..) {
            self.fabric.attach(shard);
        }
        self.active.clear();
        self.fabric.absorb_invalidations(&self.nodes);
        let probes = self.cores.iter_mut().map(|core| &mut core.probe);
        let report = self.hub.conclude(probes, duration);
        // Each lane's lane totals, spans and dropped-span count re-land
        // on the calling thread's tracer in lane order, so consumers
        // observe one coherent stream.
        for core in self.cores.iter_mut() {
            trace::absorb(&mut core.trace);
        }
        report
    }
}

// ---- the CXL fusion cluster ---------------------------------------------

/// PolarCXLMem sharing: one CXL pool, the buffer-fusion server, seeded
/// storage behind it. Identity `i` sits on host `i`.
pub struct FusionCluster {
    /// The switch-attached pool.
    pub pool: SharedCxl,
    /// The buffer-fusion server.
    pub server: FusionServer,
}

impl FusionCluster {
    /// A `pool_bytes` pool with `hosts` identities, `layout`'s dataset
    /// seeded in storage, and the fusion server as identity `server`
    /// with one DBP slot per page at offset 0.
    pub fn new(layout: &GroupLayout, pool_bytes: u64, hosts: usize, server: NodeId) -> Self {
        let cfgs: Vec<CxlNodeConfig> = (0..hosts)
            .map(|host| CxlNodeConfig {
                host,
                cache_bytes: 8 << 20,
                capture: true,
                remote_numa: false,
                direct_attach: false,
            })
            .collect();
        let pool = Rc::new(RefCell::new(CxlPool::new(pool_bytes as usize, &cfgs)));
        let store = Rc::new(RefCell::new(crate::sharing::seed_storage(layout)));
        let server = FusionServer::new(
            Rc::clone(&pool),
            server,
            0,
            layout.total_pages() as u32,
            store,
        );
        FusionCluster { pool, server }
    }

    /// The standard unfenced cluster: primaries `0..n` with their flag
    /// arrays behind the DBP slots, the server as identity `n`.
    pub fn with_nodes(
        layout: &GroupLayout,
        n: usize,
        mode: CoherencyMode,
    ) -> (Self, Vec<SharingNode>) {
        let slots_bytes = layout.total_pages() * PAGE_SIZE;
        let flags_bytes = layout.total_pages() * 16;
        let pool_bytes = slots_bytes + flags_bytes * n as u64 + 4096;
        let mut fusion = FusionCluster::new(layout, pool_bytes, n + 1, NodeId(n));
        let nodes = (0..n)
            .map(|i| {
                let flag_base = slots_bytes + i as u64 * flags_bytes;
                fusion.server.register_node(NodeId(i), flag_base);
                SharingNode::with_mode(NodeId(i), flag_base, PAGE_SIZE, mode)
            })
            .collect();
        (fusion, nodes)
    }

    /// Register `node` under the server's fencing regime at `at`; with
    /// `guard` (the epoch-word base) the node also re-validates its
    /// grant before every guarded store and publish.
    pub fn admit(
        &mut self,
        node: &mut SharingNode,
        flag_base: u64,
        guard: Option<u64>,
        at: SimTime,
    ) -> SimTime {
        let (grant, t) = self.server.register_node_fenced(node.id(), flag_base, at);
        if let Some(epoch_base) = guard {
            node.enable_fencing(epoch_base, grant);
        }
        t
    }

    /// Resolve `pages` on `node` serially at `at`, so no RPC — and no
    /// directory mutation — can happen inside a parallel phase.
    pub fn warm(
        &mut self,
        node: &mut SharingNode,
        pages: impl Iterator<Item = PageId>,
        at: SimTime,
    ) {
        for page in pages {
            node.access(&mut self.server, page, at);
        }
    }

    /// [`FusionCluster::warm`] every node on its own group + the shared
    /// (last) group.
    pub fn warm_home(&mut self, nodes: &mut [SharingNode], layout: &GroupLayout) {
        for (i, node) in nodes.iter_mut().enumerate() {
            self.warm(node, layout.home_pages(i), SimTime::ZERO);
        }
    }
}

impl<X> Cluster<FusionCluster, X> {
    /// Re-resolve `pages` on an active lane serially at `now`: its shard
    /// merges back for the RPCs and detaches again.
    pub fn rewarm(&mut self, lane: usize, pages: impl Iterator<Item = PageId>, now: SimTime) {
        self.deactivate(lane);
        self.fabric.warm(&mut self.nodes[lane], pages, now);
        self.activate(lane, now);
    }
}

impl Fabric for FusionCluster {
    type Node = SharingNode;
    type Shard = CxlShard;
    type Dir = FusionDir;
    type Stats = SharingNodeStats;

    fn reset_link_counters(&mut self) {
        self.pool.borrow_mut().reset_link_counters();
    }
    fn link_bytes(&self) -> u64 {
        self.pool.borrow().switch_bytes()
    }
    fn dir(&self) -> FusionDir {
        self.server.dir_snapshot()
    }
    fn detach(&mut self, node: &SharingNode) -> CxlShard {
        self.pool.borrow_mut().detach_node(node.id())
    }
    fn attach(&mut self, shard: CxlShard) {
        self.pool.borrow_mut().attach_node(shard);
    }
    fn barrier(&mut self, shards: &mut [CxlShard], _: &mut [SharingNode]) {
        self.pool.borrow_mut().barrier(shards);
    }
    fn read(
        node: &mut SharingNode,
        shard: &mut CxlShard,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        node.read_resident(shard, page, off, buf, now)
    }
    fn write_publish(
        node: &mut SharingNode,
        shard: &mut CxlShard,
        dir: &FusionDir,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Option<SimTime> {
        // Unfenced nodes pass both epoch guards for free.
        let t = node
            .guarded_write_resident(shard, page, off, data, now)
            .ok()?;
        node.guarded_publish_resident(shard, dir, page, t).ok()
    }
    fn protocol_delta(node: &SharingNode, prev: &mut SharingNodeStats) -> (u64, u64) {
        let now = node.stats();
        let d = now.since(prev);
        *prev = now;
        (d.rpcs, d.invalid_drops + d.removal_reloads)
    }
    fn absorb_invalidations(&mut self, nodes: &[SharingNode]) {
        let sent = nodes.iter().map(|n| n.stats().invalidations_sent).sum();
        self.server.absorb_invalidations(sent);
    }
}

// ---- the RDMA baseline ---------------------------------------------------

/// RDMA-based PolarDB-MP: a remote DBP behind NICs, page-granularity
/// flushes, invalidation messages fanned out by the server.
pub struct RdmaCluster {
    /// The remote memory pool and its NICs.
    pub pool: SharedRdma,
    /// The DBP server (on host `server_host`).
    pub server: RdmaDbp,
    /// Host the server's NIC pair sits on.
    pub server_host: usize,
}

/// An RDMA node's invalidation outbox: `publish` queues `(target,
/// page)`; the barrier drops the targets' local copies.
pub type Outbox = Vec<(NodeId, PageId)>;

impl Fabric for RdmaCluster {
    type Node = (RdmaSharingNode, Outbox);
    type Shard = RdmaShard;
    type Dir = RdmaDir;
    type Stats = RdmaNodeStats;

    fn reset_link_counters(&mut self) {
        self.pool.borrow_mut().reset_link_counters();
    }
    fn link_bytes(&self) -> u64 {
        self.pool.borrow().total_bytes()
    }
    fn dir(&self) -> RdmaDir {
        self.server.dir_snapshot()
    }
    fn detach(&mut self, node: &(RdmaSharingNode, Outbox)) -> RdmaShard {
        let host = node.0.id().0;
        self.pool.borrow_mut().detach_host(host, self.server_host)
    }
    fn attach(&mut self, shard: RdmaShard) {
        self.pool.borrow_mut().attach_host(shard);
    }
    fn barrier(&mut self, shards: &mut [RdmaShard], nodes: &mut [(RdmaSharingNode, Outbox)]) {
        self.pool.borrow_mut().barrier(shards);
        for i in 0..nodes.len() {
            let mut outbox = std::mem::take(&mut nodes[i].1);
            for (target, page) in outbox.drain(..) {
                nodes[target.0].0.invalidate_local(page);
            }
            nodes[i].1 = outbox;
        }
    }
    fn read(
        node: &mut (RdmaSharingNode, Outbox),
        shard: &mut RdmaShard,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        node.0.read_resident(shard, page, off, buf, now)
    }
    fn write_publish(
        node: &mut (RdmaSharingNode, Outbox),
        shard: &mut RdmaShard,
        dir: &RdmaDir,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Option<SimTime> {
        // The full-page flush and the invalidation messages sit on the
        // lock hold path; their effects on peers land at the barrier.
        let t = node.0.write_resident(shard, page, off, data, now);
        Some(node.0.publish_resident(shard, dir, page, &mut node.1, t))
    }
    fn protocol_delta(node: &(RdmaSharingNode, Outbox), prev: &mut RdmaNodeStats) -> (u64, u64) {
        let now = node.0.stats();
        let d = now.since(prev);
        *prev = now;
        (d.page_reads, d.invalidations)
    }
    fn absorb_invalidations(&mut self, nodes: &[(RdmaSharingNode, Outbox)]) {
        let sent = (nodes.iter())
            .map(|n| n.0.stats().invalidation_msgs_sent)
            .sum();
        self.server.absorb_invalidation_msgs(sent);
    }
}
