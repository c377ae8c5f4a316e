//! The multi-primary data-sharing harness (§4.4, Figures 11–13, Table 3).
//!
//! N database nodes share one dataset through a distributed buffer pool:
//! either PolarCXLMem (buffer fusion + cache-line coherency protocol) or
//! the RDMA baseline (local page copies + page-granularity flushes and
//! invalidation messages). Tables are divided into N private groups plus
//! one shared group; a knob directs X % of statements at the shared
//! group (§4.4's methodology).
//!
//! The sharing layer operates below the transaction engine — nodes read
//! and write record slots in pages of a fixed-layout heap table (the
//! B+tree is exercised by the pooling experiments). Every statement
//! acquires the page's distributed S/X lock; writers publish (flush +
//! invalidate) before the lock is observed released, which is exactly
//! the interaction that makes RDMA's full-page flushes hurt under
//! contention.

use crate::metrics::RunMetrics;
use crate::sysbench::RECORD_SIZE;
use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_STMT_NS, LOCK_SERVICE_NS, PAGE_SIZE,
};
use memsim::{CxlNodeConfig, CxlPool, CxlShard, NodeId, RdmaPool, RdmaShard};
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{FusionServer, RdmaDbp, RdmaSharingNode, SharingNode};
use simkit::faults::{self, FaultState};
use simkit::rng::{stream_rng, SimRng};
use simkit::telemetry::{self, NodeProbe, TelemetryConfig, TelemetryHub, TelemetryReport};
use simkit::trace::{self, Lane, TraceState};
use simkit::{
    par, Histogram, LockDelta, LockMode, LockShard, LockTable, MultiServer, SimTime, Step,
    WorkerId, WorkerSet,
};
use std::cell::RefCell;
use std::rc::Rc;
use storage::{PageId, PageStore};

/// Maps (group, row) to (page, in-page offset) for a fixed-layout heap
/// table of [`RECORD_SIZE`]-byte records.
#[derive(Debug, Clone, Copy)]
pub struct GroupLayout {
    /// Table groups (N private + 1 shared).
    pub groups: usize,
    /// Rows in each group.
    pub rows_per_group: u64,
}

impl GroupLayout {
    /// Records per page (8-byte key + record, 16-byte page header).
    pub fn rows_per_page(&self) -> u64 {
        (PAGE_SIZE - 16) / (8 + RECORD_SIZE as u64)
    }

    /// Pages each group occupies.
    pub fn pages_per_group(&self) -> u64 {
        self.rows_per_group.div_ceil(self.rows_per_page())
    }

    /// Total pages across all groups.
    pub fn total_pages(&self) -> u64 {
        self.pages_per_group() * self.groups as u64
    }

    /// Locate a row: (page, byte offset of its record).
    pub fn locate(&self, group: usize, row: u64) -> (PageId, u16) {
        debug_assert!(group < self.groups && row < self.rows_per_group);
        let rpp = self.rows_per_page();
        let page = group as u64 * self.pages_per_group() + row / rpp;
        let off = 16 + (row % rpp) * (8 + RECORD_SIZE as u64) + 8;
        (PageId(page), off as u16)
    }
}

/// One statement in a sharing transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShOp {
    /// Read `len` bytes of a row's record.
    Read {
        /// Target page.
        page: PageId,
        /// Byte offset within the page.
        off: u16,
        /// Bytes read.
        len: u16,
    },
    /// Write `len` bytes of a row's record.
    Write {
        /// Target page.
        page: PageId,
        /// Byte offset within the page.
        off: u16,
        /// Bytes written.
        len: u16,
    },
}

impl ShOp {
    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, ShOp::Write { .. })
    }
}

/// Which sharing system runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingSystem {
    /// PolarCXLMem-based sharing (buffer fusion, §3.3): software
    /// coherency at cache-line granularity.
    Cxl,
    /// Ablation: the software protocol but flushing whole pages on
    /// publish (page-granularity thinking ported to CXL).
    CxlFullPageFlush,
    /// Forward-looking: CXL 3.0 hardware coherency — no flushes, no
    /// invalid flags.
    Cxl3Hw,
    /// RDMA-based PolarDB-MP with a local buffer pool sized to the given
    /// fraction of each node's accessed dataset.
    Rdma {
        /// LBP size as a fraction of the node's accessed dataset.
        lbp_fraction: f64,
    },
}

/// Sharing experiment configuration.
#[derive(Debug, Clone)]
pub struct SharingConfig {
    /// System under test.
    pub system: SharingSystem,
    /// Database nodes.
    pub nodes: usize,
    /// Closed-loop workers per node.
    pub workers_per_node: usize,
    /// Data layout (nodes + 1 groups).
    pub layout: GroupLayout,
    /// Measured window.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Virtual-time barrier quantum: nodes step independently between
    /// barriers; cross-node effects commit at each barrier in fixed
    /// node order. Results are a function of the quantum, never of the
    /// host thread count.
    pub quantum: SimTime,
    /// Host worker threads stepping nodes between barriers
    /// (`0` = [`par::host_threads`]). Any value yields bit-identical
    /// results; it only changes wall-clock time.
    pub host_threads: usize,
    /// Eviction policy for node-local page frames (the RDMA design's
    /// local buffer pool; ignored by designs without one).
    pub policy: bufferpool::PolicyKind,
    /// Telemetry window width (ZERO = probes off, the default: this
    /// harness is a throughput experiment, not an ops scenario).
    pub telemetry_window: SimTime,
}

impl SharingConfig {
    /// Standard scaled-down setup for `nodes` nodes.
    pub fn standard(system: SharingSystem, nodes: usize) -> Self {
        SharingConfig {
            system,
            nodes,
            workers_per_node: 16,
            layout: GroupLayout {
                groups: nodes + 1,
                rows_per_group: 8_000,
            },
            duration: SimTime::from_millis(200),
            seed: 11,
            quantum: SimTime::from_micros(200),
            host_threads: 0,
            policy: bufferpool::PolicyKind::Lru,
            telemetry_window: SimTime::ZERO,
        }
    }
}

/// Sysbench point-update transactions (10 updates of the `c` column),
/// X % of statements on the shared group.
pub fn point_update_gen(
    layout: GroupLayout,
    shared_pct: u32,
) -> impl Fn(&mut SimRng, usize) -> Vec<ShOp> + Sync {
    move |rng, node| {
        (0..10)
            .map(|_| {
                let group = if rng.gen_range(0..100) < shared_pct {
                    layout.groups - 1
                } else {
                    node
                };
                let row = rng.gen_range(0..layout.rows_per_group);
                let (page, off) = layout.locate(group, row);
                ShOp::Write {
                    page,
                    off: off + 8,
                    len: 120,
                }
            })
            .collect()
    }
}

/// Sysbench read-write transactions (14 reads + 4 writes), X % of
/// statements on the shared group.
pub fn read_write_gen(
    layout: GroupLayout,
    shared_pct: u32,
) -> impl Fn(&mut SimRng, usize) -> Vec<ShOp> + Sync {
    move |rng, node| {
        let pick = |rng: &mut SimRng| {
            let group = if rng.gen_range(0..100) < shared_pct {
                layout.groups - 1
            } else {
                node
            };
            let row = rng.gen_range(0..layout.rows_per_group);
            layout.locate(group, row)
        };
        let mut txn = Vec::with_capacity(18);
        for _ in 0..14 {
            let (page, off) = pick(rng);
            txn.push(ShOp::Read {
                page,
                off: off + 8,
                len: 120,
            });
        }
        for _ in 0..4 {
            let (page, off) = pick(rng);
            txn.push(ShOp::Write {
                page,
                off: off + 8,
                len: 120,
            });
        }
        txn
    }
}

/// Result of a sharing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingResult {
    /// Aggregate metrics (QPS = statements/s, latency = txn latency).
    pub metrics: RunMetrics,
    /// Distributed lock acquisitions that had to wait.
    pub lock_contended: u64,
    /// Mean lock wait, ns.
    pub lock_mean_wait_ns: f64,
    /// Windowed per-node ops report (`None` when the `telemetry`
    /// feature is compiled out or `telemetry_window` is ZERO).
    pub telemetry: Option<TelemetryReport>,
}

pub(crate) fn seed_storage(layout: &GroupLayout) -> PageStore {
    let mut store = PageStore::new(layout.total_pages());
    for _ in 0..layout.total_pages() {
        store.allocate();
    }
    // Deterministic row payloads so coherency checks can verify data.
    for g in 0..layout.groups {
        for r in 0..layout.rows_per_group {
            let (page, off) = layout.locate(g, r);
            let mut rec = vec![(g as u8).wrapping_add(r as u8); 8 + RECORD_SIZE as usize - 8];
            rec.truncate(RECORD_SIZE as usize);
            let po = page.0 * PAGE_SIZE + off as u64;
            let _ = po;
            let base = off as usize;
            let pagebuf = {
                let mut buf = store.raw_page(page).to_vec();
                buf[base - 8..base].copy_from_slice(&r.to_le_bytes());
                buf[base..base + RECORD_SIZE as usize].copy_from_slice(&rec);
                buf
            };
            store.raw_write_page(page, &pagebuf);
        }
    }
    store
}

/// Run a sharing experiment with the given transaction generator.
///
/// The run is *always* phased (barrier-synchronized parallel stepping,
/// see [`par::run_phase`]): nodes step between virtual-time barriers on
/// up to [`SharingConfig::host_threads`] host threads, and the results
/// are bit-identical for every thread count — including 1, which runs
/// the same phased code inline.
pub fn run_sharing<F>(cfg: &SharingConfig, gen: F) -> SharingResult
where
    F: Fn(&mut SimRng, usize) -> Vec<ShOp> + Sync,
{
    match cfg.system {
        SharingSystem::Cxl => run_cxl(cfg, &gen, CoherencyMode::SoftwareLines),
        SharingSystem::CxlFullPageFlush => run_cxl(cfg, &gen, CoherencyMode::SoftwareFullPage),
        SharingSystem::Cxl3Hw => run_cxl(cfg, &gen, CoherencyMode::Hardware),
        SharingSystem::Rdma { lbp_fraction } => run_rdma(cfg, &gen, lbp_fraction),
    }
}

/// Per-node driver state that survives across quanta: the node's
/// closed-loop scheduler, CPU cores, RNG streams, latency histogram,
/// statement counters, a reusable read buffer, and the node's detached
/// tracer / fault-engine states (swapped in around each quantum).
struct NodeLoop {
    ws: WorkerSet,
    cpu: MultiServer,
    rngs: Vec<SimRng>,
    hist: Histogram,
    queries: u64,
    txns: u64,
    buf: Vec<u8>,
    trace: TraceState,
    faults: FaultState,
    probe: NodeProbe,
}

fn node_loops(n: usize, wpn: usize, seed: u64, tcfg: &TelemetryConfig) -> Vec<NodeLoop> {
    (0..n)
        .map(|i| {
            let mut ws = WorkerSet::new();
            for k in 0..wpn {
                ws.spawn(WorkerId(k), SimTime::ZERO);
            }
            NodeLoop {
                ws,
                cpu: MultiServer::new(16),
                rngs: (0..wpn)
                    .map(|k| stream_rng(seed, (i * wpn + k) as u64))
                    .collect(),
                hist: Histogram::new(),
                queries: 0,
                txns: 0,
                buf: vec![0u8; 256],
                trace: TraceState::armed(),
                faults: FaultState::inactive(),
                probe: NodeProbe::new(i as u32, tcfg),
            }
        })
        .collect()
}

/// Telemetry shape shared by both systems: one probe per node, the
/// statement's target group as the lane. No SLO rules — this harness is
/// fault-free; the report is a per-node windowed throughput/latency map.
fn sharing_tcfg(cfg: &SharingConfig) -> TelemetryConfig {
    TelemetryConfig::new(cfg.telemetry_window, cfg.nodes).lanes(&["private", "shared"])
}

/// Fold per-node loop state back into driver-level aggregates **in node
/// order**: histograms and counters merge, and each node's lane totals
/// and spans re-land on the driver thread's tracer so attribution and
/// span consumers observe one coherent stream.
fn merge_loops(loops: Vec<NodeLoop>) -> (Histogram, u64, u64) {
    let mut hist = Histogram::new();
    let mut queries = 0u64;
    let mut txns = 0u64;
    for mut lp in loops {
        hist.merge(&lp.hist);
        queries += lp.queries;
        txns += lp.txns;
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
    (hist, queries, txns)
}

// Private result assembler: the argument list IS the result shape.
#[allow(clippy::too_many_arguments)]
fn finish(
    queries: u64,
    txns: u64,
    hist: Histogram,
    window: SimTime,
    bytes: u64,
    memory: u64,
    locks: &LockTable<PageId>,
    telemetry: Option<TelemetryReport>,
) -> SharingResult {
    let secs = window.as_secs_f64();
    SharingResult {
        metrics: RunMetrics {
            qps: queries as f64 / secs,
            tps: txns as f64 / secs,
            avg_latency_us: hist.mean_us(),
            p50_latency_us: hist.p50_us(),
            p95_latency_us: hist.p95_us(),
            p99_latency_us: hist.p99_us(),
            p999_latency_us: hist.p999_us(),
            interconnect_gbps: bytes as f64 / window.as_nanos() as f64,
            memory_bytes: memory,
            window,
            latency: hist,
        },
        lock_contended: locks.contended(),
        lock_mean_wait_ns: locks.mean_wait_ns(),
        telemetry,
    }
}

fn run_cxl<F>(cfg: &SharingConfig, gen: &F, mode: CoherencyMode) -> SharingResult
where
    F: Fn(&mut SimRng, usize) -> Vec<ShOp> + Sync,
{
    let layout = cfg.layout;
    let n = cfg.nodes;
    let total_pages = layout.total_pages();
    // CXL layout: DBP slots, then one flag array per node.
    let slots_bytes = total_pages * PAGE_SIZE;
    let flags_bytes = total_pages * 16;
    let pool_size = slots_bytes + flags_bytes * n as u64 + 4096;
    // Node i = DB node on host i; node n = fusion server on its own host.
    let node_cfg = |_: usize| CxlNodeConfig {
        host: 0,
        cache_bytes: 8 << 20,
        capture: true,
        remote_numa: false,
        direct_attach: false,
    };
    let mut cfgs: Vec<CxlNodeConfig> = (0..=n).map(node_cfg).collect();
    for (host, c) in cfgs.iter_mut().enumerate() {
        c.host = host; // each node on its own host/link
    }
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool_size as usize, &cfgs)));
    let store = Rc::new(RefCell::new(seed_storage(&layout)));
    let mut server = FusionServer::new(
        Rc::clone(&cxl),
        NodeId(n),
        0,
        total_pages as u32,
        Rc::clone(&store),
    );
    let mut nodes: Vec<SharingNode> = (0..n)
        .map(|i| {
            let flag_base = slots_bytes + i as u64 * flags_bytes;
            server.register_node(NodeId(i), flag_base);
            SharingNode::with_mode(NodeId(i), flag_base, PAGE_SIZE, mode)
        })
        .collect();
    // Warm the DBP serially: every node resolves the pages of the
    // groups it can touch (its own + shared), so no RPC — and no
    // directory mutation — can happen inside a parallel phase.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        for g in [i, layout.groups - 1] {
            for p in 0..layout.pages_per_group() {
                let page = PageId(g as u64 * layout.pages_per_group() + p);
                nodes[i].access(&mut server, page, SimTime::ZERO);
            }
        }
    }
    cxl.borrow_mut().reset_link_counters();

    let threads = if cfg.host_threads == 0 {
        par::host_threads()
    } else {
        cfg.host_threads
    };
    let quantum = cfg.quantum.max(SimTime(1));
    let dir = server.dir_snapshot();
    let mut locks: LockTable<PageId> = LockTable::new();
    // Each node's lock delta; the barrier merge drains it and the next
    // quantum's shard reuses its buffers.
    let mut lock_bufs: Vec<LockDelta<PageId>> = (0..n).map(|_| LockDelta::default()).collect();
    let tcfg = sharing_tcfg(cfg);
    let mut hub = TelemetryHub::new(tcfg.clone());
    let mut loops = node_loops(n, cfg.workers_per_node, cfg.seed, &tcfg);
    let mut prevs: Vec<polarcxlmem::SharingNodeStats> = vec![Default::default(); n];
    let shared_start = (layout.groups - 1) as u64 * layout.pages_per_group();
    let mut shards: Vec<CxlShard> = {
        let mut pool = cxl.borrow_mut();
        (0..n).map(|i| pool.detach_node(NodeId(i))).collect()
    };

    struct CxlLane<'a> {
        node: &'a mut SharingNode,
        shard: &'a mut CxlShard,
        lock: LockShard<'a, PageId>,
        lp: &'a mut NodeLoop,
        prev: &'a mut polarcxlmem::SharingNodeStats,
    }

    let payload = [0xC5u8; 120];
    let mut now = SimTime::ZERO;
    while now < cfg.duration {
        let q_end = (now + quantum.as_nanos()).min(cfg.duration);
        let mut lanes: Vec<CxlLane> = nodes
            .iter_mut()
            .zip(shards.iter_mut())
            .zip(loops.iter_mut())
            .zip(prevs.iter_mut())
            .zip(lock_bufs.iter_mut())
            .map(|((((node, shard), lp), prev), lock_buf)| CxlLane {
                node,
                shard,
                lock: locks.shard_reusing(lock_buf),
                lp,
                prev,
            })
            .collect();
        par::run_phase(threads, &mut lanes, |i, lane| {
            let CxlLane {
                node,
                shard,
                lock,
                lp,
                prev,
            } = lane;
            let NodeLoop {
                ws,
                cpu,
                rngs,
                hist,
                queries,
                txns,
                buf,
                trace: tr,
                faults: fs,
                probe,
            } = &mut **lp;
            trace::swap_state(tr);
            faults::swap_state(fs);
            ws.run_until(q_end, |WorkerId(w), start| {
                let txn = gen(&mut rngs[w], i);
                let mut t = start + CPU_TXN_OVERHEAD_NS;
                for op in &txn {
                    let s0 = t;
                    match *op {
                        ShOp::Read { page, off, len } => {
                            t = cpu.acquire(t, CPU_POINT_SELECT_NS).end;
                            t += LOCK_SERVICE_NS;
                            let (grant, _) = lock.acquire(page, t, LockMode::Shared, 0);
                            t = grant;
                            t = node.read_resident(
                                *shard,
                                page,
                                off as u64,
                                &mut buf[..len as usize],
                                t,
                            );
                            lock.extend_shared(page, t);
                            if probe.enabled() {
                                let lane_ix = (page.0 >= shared_start) as usize;
                                probe.record_op(lane_ix, t, t.saturating_since(s0));
                                probe.record_bytes(lane_ix, t, len as u64);
                            }
                        }
                        ShOp::Write { page, off, len } => {
                            t = cpu.acquire(t, CPU_WRITE_STMT_NS).end;
                            t += LOCK_SERVICE_NS;
                            let (grant, _) = lock.acquire(page, t, LockMode::Exclusive, 0);
                            t = grant;
                            t = node.write_resident(
                                *shard,
                                page,
                                off as u64,
                                &payload[..len as usize],
                                t,
                            );
                            // Publish (clflush modified lines + invalid
                            // flags) happens before the lock is
                            // observed released.
                            t = node.publish_resident(*shard, &dir, page, t);
                            lock.extend_exclusive(page, t);
                            if probe.enabled() {
                                let lane_ix = (page.0 >= shared_start) as usize;
                                probe.record_op(lane_ix, t, t.saturating_since(s0));
                                probe.record_bytes(lane_ix, t, len as u64);
                            }
                        }
                    }
                    *queries += 1;
                }
                *txns += 1;
                hist.record(t - start);
                Step::Done(t)
            });
            if probe.enabled() {
                // Coherency-protocol counters land as misses/retries in
                // the window closing at this quantum edge.
                let s1 = node.stats();
                let d = s1.since(prev);
                let edge = SimTime(q_end.as_nanos().saturating_sub(1));
                probe.record_misses(0, edge, d.rpcs);
                probe.record_retries(0, edge, d.invalid_drops + d.removal_reloads);
                **prev = s1;
            }
            faults::swap_state(fs);
            trace::swap_state(tr);
        });
        // Barrier: fold lock deltas, write logs and link backlog back
        // into the shared state in fixed node order.
        for (buf, lane) in lock_bufs.iter_mut().zip(lanes) {
            *buf = lane.lock.finish();
        }
        for buf in lock_bufs.iter_mut() {
            locks.absorb(buf);
        }
        cxl.borrow_mut().barrier(&mut shards);
        now = q_end;
        if hub.enabled() {
            for lp in loops.iter_mut() {
                hub.ingest(&mut lp.probe, now);
            }
            hub.seal(now);
        }
    }
    {
        let mut pool = cxl.borrow_mut();
        for shard in shards {
            pool.attach_node(shard);
        }
    }
    server.absorb_invalidations(
        nodes
            .iter()
            .map(|node| node.stats().invalidations_sent)
            .sum(),
    );
    for lp in loops.iter_mut() {
        hub.drain(&mut lp.probe);
    }
    hub.finish(cfg.duration);
    let telemetry_report = if telemetry::compiled() && hub.enabled() {
        Some(hub.report())
    } else {
        None
    };
    let (hist, queries, txns) = merge_loops(loops);
    let bytes = cxl.borrow().switch_bytes();
    let memory = slots_bytes + flags_bytes * n as u64;
    finish(
        queries,
        txns,
        hist,
        cfg.duration,
        bytes,
        memory,
        &locks,
        telemetry_report,
    )
}

fn run_rdma<F>(cfg: &SharingConfig, gen: &F, lbp_fraction: f64) -> SharingResult
where
    F: Fn(&mut SimRng, usize) -> Vec<ShOp> + Sync,
{
    let layout = cfg.layout;
    let n = cfg.nodes;
    let total_pages = layout.total_pages();
    let rdma = Rc::new(RefCell::new(RdmaPool::new(
        (total_pages * PAGE_SIZE) as usize,
        n + 1,
    )));
    let store = Rc::new(RefCell::new(seed_storage(&layout)));
    let mut server = RdmaDbp::new(
        Rc::clone(&rdma),
        n,
        0,
        total_pages as u32,
        Rc::clone(&store),
    );
    // Each node accesses 2 groups (its own + shared): LBP sized to a
    // fraction of that.
    let accessed_pages = 2 * layout.pages_per_group();
    let lbp_frames = ((accessed_pages as f64 * lbp_fraction).ceil() as usize).max(4);
    let mut nodes: Vec<RdmaSharingNode> = (0..n)
        .map(|i| RdmaSharingNode::with_policy(NodeId(i), i, lbp_frames, PAGE_SIZE, cfg.policy))
        .collect();
    // Warm serially: resolve the DBP address of *every* page the node
    // may touch (no server RPC can happen mid-phase), then fault in up
    // to the LBP capacity.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let mut warmed = 0;
        for g in [i, layout.groups - 1] {
            for p in 0..layout.pages_per_group() {
                let page = PageId(g as u64 * layout.pages_per_group() + p);
                nodes[i].resolve(&mut server, page, SimTime::ZERO);
                if warmed < lbp_frames {
                    let mut b = [0u8; 8];
                    nodes[i].read(&mut server, page, 16, &mut b, SimTime::ZERO);
                    warmed += 1;
                }
            }
        }
    }
    rdma.borrow_mut().reset_link_counters();

    let threads = if cfg.host_threads == 0 {
        par::host_threads()
    } else {
        cfg.host_threads
    };
    let quantum = cfg.quantum.max(SimTime(1));
    let dir = server.dir_snapshot();
    let mut locks: LockTable<PageId> = LockTable::new();
    // Each node's lock delta; the barrier merge drains it and the next
    // quantum's shard reuses its buffers.
    let mut lock_bufs: Vec<LockDelta<PageId>> = (0..n).map(|_| LockDelta::default()).collect();
    let tcfg = sharing_tcfg(cfg);
    let mut hub = TelemetryHub::new(tcfg.clone());
    let mut loops = node_loops(n, cfg.workers_per_node, cfg.seed, &tcfg);
    let mut prevs: Vec<polarcxlmem::RdmaNodeStats> = vec![Default::default(); n];
    let shared_start = (layout.groups - 1) as u64 * layout.pages_per_group();
    let mut shards: Vec<RdmaShard> = {
        let mut pool = rdma.borrow_mut();
        (0..n).map(|i| pool.detach_host(i, n)).collect()
    };
    // Per-node invalidation outboxes: `publish_resident` queues
    // (target, page); the driver drops the targets' local copies at the
    // barrier in fixed node order.
    let mut outboxes: Vec<Vec<(NodeId, PageId)>> = (0..n).map(|_| Vec::new()).collect();

    struct RdmaLane<'a> {
        node: &'a mut RdmaSharingNode,
        shard: &'a mut RdmaShard,
        lock: LockShard<'a, PageId>,
        lp: &'a mut NodeLoop,
        outbox: &'a mut Vec<(NodeId, PageId)>,
        prev: &'a mut polarcxlmem::RdmaNodeStats,
    }

    let payload = [0xC5u8; 120];
    let mut now = SimTime::ZERO;
    while now < cfg.duration {
        let q_end = (now + quantum.as_nanos()).min(cfg.duration);
        let mut lanes: Vec<RdmaLane> = nodes
            .iter_mut()
            .zip(shards.iter_mut())
            .zip(loops.iter_mut())
            .zip(outboxes.iter_mut())
            .zip(prevs.iter_mut())
            .zip(lock_bufs.iter_mut())
            .map(
                |(((((node, shard), lp), outbox), prev), lock_buf)| RdmaLane {
                    node,
                    shard,
                    lock: locks.shard_reusing(lock_buf),
                    lp,
                    outbox,
                    prev,
                },
            )
            .collect();
        par::run_phase(threads, &mut lanes, |i, lane| {
            let RdmaLane {
                node,
                shard,
                lock,
                lp,
                outbox,
                prev,
            } = lane;
            let NodeLoop {
                ws,
                cpu,
                rngs,
                hist,
                queries,
                txns,
                buf,
                trace: tr,
                faults: fs,
                probe,
            } = &mut **lp;
            trace::swap_state(tr);
            faults::swap_state(fs);
            ws.run_until(q_end, |WorkerId(w), start| {
                let txn = gen(&mut rngs[w], i);
                let mut t = start + CPU_TXN_OVERHEAD_NS;
                for op in &txn {
                    let s0 = t;
                    match *op {
                        ShOp::Read { page, off, len } => {
                            t = cpu.acquire(t, CPU_POINT_SELECT_NS).end;
                            t += LOCK_SERVICE_NS;
                            let (grant, _) = lock.acquire(page, t, LockMode::Shared, 0);
                            t = grant;
                            t = node.read_resident(
                                *shard,
                                page,
                                off as u64,
                                &mut buf[..len as usize],
                                t,
                            );
                            lock.extend_shared(page, t);
                            if probe.enabled() {
                                let lane_ix = (page.0 >= shared_start) as usize;
                                probe.record_op(lane_ix, t, t.saturating_since(s0));
                                probe.record_bytes(lane_ix, t, len as u64);
                            }
                        }
                        ShOp::Write { page, off, len } => {
                            t = cpu.acquire(t, CPU_WRITE_STMT_NS).end;
                            t += LOCK_SERVICE_NS;
                            let (grant, _) = lock.acquire(page, t, LockMode::Exclusive, 0);
                            t = grant;
                            t = node.write_resident(
                                *shard,
                                page,
                                off as u64,
                                &payload[..len as usize],
                                t,
                            );
                            // Full-page flush + invalidation messages
                            // sit on the lock hold path; the *effects*
                            // on peers land at the barrier.
                            t = node.publish_resident(*shard, &dir, page, outbox, t);
                            lock.extend_exclusive(page, t);
                            if probe.enabled() {
                                let lane_ix = (page.0 >= shared_start) as usize;
                                probe.record_op(lane_ix, t, t.saturating_since(s0));
                                probe.record_bytes(lane_ix, t, len as u64);
                            }
                        }
                    }
                    *queries += 1;
                }
                *txns += 1;
                hist.record(t - start);
                Step::Done(t)
            });
            if probe.enabled() {
                // Page-fetch / invalidation counters land as
                // misses/retries in the window closing at this edge.
                let s1 = node.stats();
                let d = s1.since(prev);
                let edge = SimTime(q_end.as_nanos().saturating_sub(1));
                probe.record_misses(0, edge, d.page_reads);
                probe.record_retries(0, edge, d.invalidations);
                **prev = s1;
            }
            faults::swap_state(fs);
            trace::swap_state(tr);
        });
        // Barrier: fold lock deltas and NIC backlog in fixed node
        // order, then apply queued invalidations to their targets.
        for (buf, lane) in lock_bufs.iter_mut().zip(lanes) {
            *buf = lane.lock.finish();
        }
        for buf in lock_bufs.iter_mut() {
            locks.absorb(buf);
        }
        rdma.borrow_mut().barrier(&mut shards);
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for (target, page) in outboxes[i].drain(..) {
                nodes[target.0].invalidate_local(page);
            }
        }
        now = q_end;
        if hub.enabled() {
            for lp in loops.iter_mut() {
                hub.ingest(&mut lp.probe, now);
            }
            hub.seal(now);
        }
    }
    {
        let mut pool = rdma.borrow_mut();
        for shard in shards {
            pool.attach_host(shard);
        }
    }
    server.absorb_invalidation_msgs(
        nodes
            .iter()
            .map(|node| node.stats().invalidation_msgs_sent)
            .sum(),
    );
    for lp in loops.iter_mut() {
        hub.drain(&mut lp.probe);
    }
    hub.finish(cfg.duration);
    let telemetry_report = if telemetry::compiled() && hub.enabled() {
        Some(hub.report())
    } else {
        None
    };
    let (hist, queries, txns) = merge_loops(loops);
    let bytes = rdma.borrow().total_bytes();
    let memory = total_pages * PAGE_SIZE + n as u64 * lbp_frames as u64 * PAGE_SIZE;
    finish(
        queries,
        txns,
        hist,
        cfg.duration,
        bytes,
        memory,
        &locks,
        telemetry_report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(system: SharingSystem, shared_pct: u32) -> SharingResult {
        let mut cfg = SharingConfig::standard(system, 4);
        cfg.layout.rows_per_group = 1_000;
        cfg.duration = SimTime::from_millis(30);
        cfg.workers_per_node = 4;
        let layout = cfg.layout;
        run_sharing(&cfg, point_update_gen(layout, shared_pct))
    }

    #[test]
    fn both_systems_complete_work() {
        let c = tiny(SharingSystem::Cxl, 20);
        let r = tiny(SharingSystem::Rdma { lbp_fraction: 0.3 }, 20);
        assert!(c.metrics.qps > 0.0);
        assert!(r.metrics.qps > 0.0);
    }

    #[test]
    fn cxl_outperforms_rdma_under_sharing() {
        // Figure 11's core claim, at small scale.
        let c = tiny(SharingSystem::Cxl, 40);
        let r = tiny(SharingSystem::Rdma { lbp_fraction: 0.3 }, 40);
        assert!(
            c.metrics.qps > r.metrics.qps,
            "cxl {} <= rdma {}",
            c.metrics.qps,
            r.metrics.qps
        );
    }

    #[test]
    fn cxl_memory_footprint_is_lower() {
        let c = tiny(SharingSystem::Cxl, 20);
        let r = tiny(SharingSystem::Rdma { lbp_fraction: 0.3 }, 20);
        assert!(c.metrics.memory_bytes < r.metrics.memory_bytes);
    }

    #[test]
    fn contention_rises_with_shared_percentage() {
        // At 0 % sharing each node's workers spread over their private
        // group; at 100 % all nodes pile onto the single shared group,
        // so cross-node lock waits must grow and throughput must drop.
        let lo = tiny(SharingSystem::Cxl, 0);
        let hi = tiny(SharingSystem::Cxl, 100);
        assert!(
            hi.lock_mean_wait_ns > lo.lock_mean_wait_ns,
            "hi {} <= lo {}",
            hi.lock_mean_wait_ns,
            lo.lock_mean_wait_ns
        );
        assert!(
            hi.metrics.qps < lo.metrics.qps,
            "contention must cost throughput"
        );
    }

    #[test]
    fn telemetry_lanes_split_private_from_shared_traffic() {
        if !telemetry::compiled() {
            return;
        }
        let run = |shared_pct| {
            let mut cfg = SharingConfig::standard(SharingSystem::Cxl, 4);
            cfg.layout.rows_per_group = 1_000;
            cfg.duration = SimTime::from_millis(20);
            cfg.workers_per_node = 4;
            cfg.telemetry_window = SimTime::from_millis(2);
            let layout = cfg.layout;
            run_sharing(&cfg, point_update_gen(layout, shared_pct))
        };
        let r0 = run(0);
        let rep0 = r0.telemetry.as_ref().expect("telemetry compiled in");
        let lane_sum = |rep: &simkit::telemetry::TelemetryReport, lane: usize| {
            rep.rows.iter().map(|w| w.lane_ops[lane]).sum::<u64>()
        };
        assert!(lane_sum(rep0, 0) > 0);
        assert_eq!(
            lane_sum(rep0, 1),
            0,
            "0% shared puts nothing on the shared lane"
        );

        let r40 = run(40);
        let rep40 = r40.telemetry.as_ref().unwrap();
        let (private, shared) = (lane_sum(rep40, 0), lane_sum(rep40, 1));
        assert!(shared > 0);
        // ~40% of statements aim at the shared group.
        let frac = shared as f64 / (private + shared) as f64;
        assert!((0.25..0.55).contains(&frac), "shared fraction {frac}");
        // Fault-free throughput run: no rules, so no alerts ever.
        assert_eq!(rep40.alert_fires(), 0);
    }

    #[test]
    fn telemetry_is_identical_across_host_thread_counts() {
        if !telemetry::compiled() {
            return;
        }
        let run = |threads| {
            let mut cfg = SharingConfig::standard(SharingSystem::Rdma { lbp_fraction: 0.3 }, 4);
            cfg.layout.rows_per_group = 1_000;
            cfg.duration = SimTime::from_millis(20);
            cfg.workers_per_node = 4;
            cfg.telemetry_window = SimTime::from_millis(2);
            cfg.host_threads = threads;
            let layout = cfg.layout;
            run_sharing(&cfg, point_update_gen(layout, 30))
        };
        let a = run(1);
        let b = run(2);
        let c = run(4);
        assert_eq!(a.telemetry, b.telemetry, "1 vs 2 host threads");
        assert_eq!(b.telemetry, c.telemetry, "2 vs 4 host threads");
        assert!(a.telemetry.as_ref().unwrap().windows > 0);
    }

    #[test]
    fn layout_is_dense_and_disjoint() {
        let l = GroupLayout {
            groups: 3,
            rows_per_group: 500,
        };
        let mut seen = std::collections::HashSet::new();
        for g in 0..3 {
            for r in 0..500 {
                let (p, off) = l.locate(g, r);
                assert!(p.0 < l.total_pages());
                assert!((off as u64) < PAGE_SIZE);
                assert!(seen.insert((p, off)), "rows must not alias");
            }
        }
    }

    #[test]
    fn generators_respect_sharing_percentage() {
        let l = GroupLayout {
            groups: 5,
            rows_per_group: 1_000,
        };
        let shared_range = (l.pages_per_group() * 4)..(l.pages_per_group() * 5);
        let mut rng = stream_rng(3, 0);
        let gen = point_update_gen(l, 100);
        for op in gen(&mut rng, 0) {
            let ShOp::Write { page, .. } = op else {
                panic!()
            };
            assert!(shared_range.contains(&page.0), "100% shared");
        }
        let gen0 = point_update_gen(l, 0);
        let own_range = 0..l.pages_per_group();
        for op in gen0(&mut rng, 0) {
            let ShOp::Write { page, .. } = op else {
                panic!()
            };
            assert!(own_range.contains(&page.0), "0% shared hits own group");
        }
    }
}
