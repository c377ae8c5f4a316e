//! The one cluster driver: N database nodes, a coherency server and a
//! fabric, stepped in virtual-time quanta between barriers.
//!
//! Two scenarios run on it — sharing on CXL ([`FusionCluster`]) and
//! on RDMA ([`RdmaCluster`]). Each builds a [`Fabric`], hands over one
//! node + one lane-state value per lane, and supplies a **transaction
//! body**, monomorphised into the phase and run once per closed-loop
//! worker step against a [`LaneCtx`] (the lane's CPU, RNG streams,
//! scenario state and the two locked statements).
//!
//! Every lane steps from t = 0 to the end of the run. One quantum, in
//! fixed order: for each lane, ascending, on the calling thread — make
//! its lock shard → run its workers to the quantum end → finish the
//! lock shard; then fold lock deltas and the fabric barrier, both in
//! lane order. A lane sees its peers only through what the barrier
//! published, so results are a function of the quantum and the lane
//! order. Lanes record on the calling thread's tracer, so spans land in
//! stepping order. At the end of the run the shards re-attach and
//! per-node invalidation counters fold into the server.

use crate::sharing::GroupLayout;
use bufferpool::tiered::SharedRdma;
use memsim::calib::{CPU_POINT_SELECT_NS, CPU_WRITE_STMT_NS, LOCK_SERVICE_NS, PAGE_SIZE};
use memsim::{CxlNodeConfig, CxlPool, CxlShard, NodeId, RdmaShard};
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{
    FusionDir, FusionServer, RdmaDbp, RdmaDir, RdmaSharingNode, SharedCxl, SharingNode,
};
use simkit::rng::{stream_rng, SimRng};
use simkit::{
    LockDelta, LockMode, LockShard, LockTable, MultiServer, SimTime, Step, WorkerId, WorkerSet,
};
use std::cell::RefCell;
use std::rc::Rc;
use storage::PageId;

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
    /// Write then publish under an X lock the caller holds.
    fn write_publish(
        node: &mut Self::Node,
        shard: &mut Self::Shard,
        dir: &Self::Dir,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime;
    /// End of run: fold the nodes' invalidation counters into the server.
    fn absorb_invalidations(&mut self, nodes: &[Self::Node]);
    /// Host-side hint ahead of a statement on `len` bytes at `off` in
    /// `page`: start loading what it will touch. Changes nothing
    /// modelled; the default does nothing.
    fn prefetch(_node: &Self::Node, _shard: &Self::Shard, _page: PageId, _off: u64, _len: usize) {}
}

/// Per-lane core state that survives across quanta: the closed-loop
/// scheduler, CPU cores, one RNG stream per worker, a read buffer and
/// the lane's spent lock delta.
struct NodeCore {
    ws: WorkerSet,
    cpu: MultiServer,
    rngs: Vec<SimRng>,
    buf: Vec<u8>,
    lock_buf: LockDelta<PageId>,
}

/// What a transaction body sees of its lane for one worker step.
pub struct LaneCtx<'a, 'l, F: Fabric, X> {
    /// Lane index (= node identity order).
    pub lane: usize,
    /// The node's CPU cores.
    pub cpu: &'a mut MultiServer,
    /// One RNG stream per worker.
    pub rngs: &'a mut [SimRng],
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

    /// Prefetch what a statement on `len` bytes at `off` in `page` will
    /// touch ([`Fabric::prefetch`]): a host-side hint, no modelled state.
    pub fn prefetch(&self, page: PageId, off: u64, len: usize) {
        F::prefetch(self.node, self.shard, page, off, len);
    }

    /// One write statement: CPU, X lock, store `data`, publish (flush +
    /// invalidate) before the lock is observed released.
    pub fn locked_write_publish(
        &mut self,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let t = self.cpu.acquire(now, CPU_WRITE_STMT_NS).end + LOCK_SERVICE_NS;
        let (t, _) = self.lock.acquire(page, t, LockMode::Exclusive, 0);
        let done = F::write_publish(self.node, self.shard, self.dir, page, off, data, t);
        self.lock.extend_exclusive(page, done);
        done
    }
}

/// A cluster of lanes over one fabric.
pub struct Cluster<F: Fabric, X> {
    /// Pool + coherency server.
    pub fabric: F,
    /// Node protocol state, lane order.
    pub nodes: Vec<F::Node>,
    /// Scenario lane state, lane order.
    pub exts: Vec<X>,
    /// The distributed page-lock table.
    pub locks: LockTable<PageId>,
    cores: Vec<NodeCore>,
}

impl<F: Fabric, X> Cluster<F, X> {
    /// Assemble a cluster of `nodes.len()` lanes, each with `wpn`
    /// closed-loop workers ready at t = 0 (worker `k` of lane `i` draws
    /// RNG stream `i·wpn + k` of `seed`). `fabric` is warmed; its link
    /// counters are zeroed here.
    pub fn new(mut fabric: F, nodes: Vec<F::Node>, exts: Vec<X>, wpn: usize, seed: u64) -> Self {
        assert_eq!(nodes.len(), exts.len());
        let cores = (0..nodes.len())
            .map(|i| {
                let mut ws = WorkerSet::new();
                for k in 0..wpn {
                    ws.spawn(WorkerId(k), SimTime::ZERO);
                }
                NodeCore {
                    ws,
                    cpu: MultiServer::new(16),
                    rngs: (0..wpn)
                        .map(|k| stream_rng(seed, (i * wpn + k) as u64))
                        .collect(),
                    buf: vec![0u8; 256],
                    lock_buf: LockDelta::default(),
                }
            })
            .collect();
        fabric.reset_link_counters();
        Cluster {
            fabric,
            nodes,
            exts,
            locks: LockTable::new(),
            cores,
        }
    }

    /// Step `duration` of virtual time in `quantum`-wide phases: every
    /// node detaches into a shard, the lanes step in ascending order on
    /// the calling thread, and the shards merge back at the end.
    pub fn run(
        &mut self,
        duration: SimTime,
        quantum: SimTime,
        body: impl Fn(&mut LaneCtx<'_, '_, F, X>, usize, SimTime) -> Step,
    ) {
        let dir = self.fabric.dir();
        let mut shards: Vec<F::Shard> = (self.nodes.iter())
            .map(|node| self.fabric.detach(node))
            .collect();
        let mut now = SimTime::ZERO;
        while now < duration {
            let q_end = (now + quantum.as_nanos().max(1)).min(duration);
            let lanes = self.cores.iter_mut().zip(&mut self.nodes).zip(&mut shards);
            for (ix, ((core, node), shard)) in lanes.enumerate() {
                let mut lock = self.locks.shard_reusing(&mut core.lock_buf);
                let mut ctx = LaneCtx {
                    lane: ix,
                    cpu: &mut core.cpu,
                    rngs: &mut core.rngs,
                    ext: &mut self.exts[ix],
                    buf: &mut core.buf,
                    node,
                    shard,
                    lock: &mut lock,
                    dir: &dir,
                };
                core.ws
                    .run_until(q_end, |WorkerId(w), start| body(&mut ctx, w, start));
                core.lock_buf = lock.finish();
            }
            // Barrier, all in lane order: lock deltas, then the fabric's
            // write logs and link backlog.
            for core in self.cores.iter_mut() {
                self.locks.absorb(&mut core.lock_buf);
            }
            self.fabric.barrier(&mut shards, &mut self.nodes);
            now = q_end;
        }
        for shard in shards {
            self.fabric.attach(shard);
        }
        self.fabric.absorb_invalidations(&self.nodes);
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
    /// The standard cluster: `layout`'s dataset seeded in storage,
    /// primaries `0..n` on hosts `0..n`, and the fusion server as
    /// identity `n` with one DBP slot per page at offset 0 and every
    /// primary's flag array behind the slots.
    pub fn with_nodes(
        layout: &GroupLayout,
        n: usize,
        mode: CoherencyMode,
    ) -> (Self, Vec<SharingNode>) {
        let slots_bytes = layout.total_pages() * PAGE_SIZE;
        let flags_bytes = layout.total_pages() * 16;
        let pool_bytes = slots_bytes + flags_bytes * n as u64 + 4096;
        let cfgs: Vec<CxlNodeConfig> = (0..=n)
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
        let pages = layout.total_pages() as u32;
        let mut server = FusionServer::new(Rc::clone(&pool), NodeId(n), 0, pages, store);
        let nodes = (0..n)
            .map(|i| {
                let flag_base = slots_bytes + i as u64 * flags_bytes;
                server.register_node(NodeId(i), flag_base);
                SharingNode::with_mode(NodeId(i), flag_base, PAGE_SIZE, mode)
            })
            .collect();
        (FusionCluster { pool, server }, nodes)
    }

    /// Resolve every node's own group + the shared (last) group serially
    /// at t = 0, so no RPC — and no directory mutation — can happen
    /// inside a phase.
    pub fn warm_home(&mut self, nodes: &mut [SharingNode], layout: &GroupLayout) {
        for (i, node) in nodes.iter_mut().enumerate() {
            for page in layout.home_pages(i) {
                node.access(&mut self.server, page, SimTime::ZERO);
            }
        }
    }
}

impl Fabric for FusionCluster {
    type Node = SharingNode;
    type Shard = CxlShard;
    type Dir = FusionDir;

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
    ) -> SimTime {
        let t = node.write_resident(shard, page, off, data, now);
        node.publish_resident(shard, dir, page, t)
    }
    fn absorb_invalidations(&mut self, nodes: &[SharingNode]) {
        let sent = nodes.iter().map(|n| n.stats().invalidations_sent).sum();
        self.server.absorb_invalidations(sent);
    }
    fn prefetch(node: &SharingNode, shard: &CxlShard, page: PageId, off: u64, len: usize) {
        node.prefetch_resident(shard, page, off, len);
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
    ) -> SimTime {
        // The full-page flush and the invalidation messages sit on the
        // lock hold path; their effects on peers land at the barrier.
        let t = node.0.write_resident(shard, page, off, data, now);
        node.0.publish_resident(shard, dir, page, &mut node.1, t)
    }
    fn absorb_invalidations(&mut self, nodes: &[(RdmaSharingNode, Outbox)]) {
        let sent = (nodes.iter())
            .map(|n| n.0.stats().invalidation_msgs_sent)
            .sum();
        self.server.absorb_invalidation_msgs(sent);
    }
}
