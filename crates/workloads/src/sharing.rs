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

use crate::cluster::{Cluster, Fabric, FusionCluster, LaneCtx, RdmaCluster};
use crate::metrics::RunMetrics;
use crate::sysbench::RECORD_SIZE;
use memsim::calib::{CPU_TXN_OVERHEAD_NS, PAGE_SIZE};
use memsim::{NodeId, RdmaPool};
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{RdmaDbp, RdmaSharingNode};
use simkit::faults::FaultState;
use simkit::rng::SimRng;
use simkit::{Histogram, SimTime, Step};
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

    /// The page numbers of group `g`.
    pub fn group_pages(&self, g: usize) -> std::ops::Range<u64> {
        let ppg = self.pages_per_group();
        g as u64 * ppg..(g as u64 + 1) * ppg
    }

    /// The pages node `i` serves: its own group, then the shared (last)
    /// group.
    pub fn home_pages(&self, i: usize) -> impl Iterator<Item = PageId> {
        (self.group_pages(i).chain(self.group_pages(self.groups - 1))).map(PageId)
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
    /// node order. Results are a function of the quantum and that order.
    pub quantum: SimTime,
    /// Inert: no code reads it. Lanes step inline on the calling thread.
    /// Kept only because the `benchmark` package's cells still write it;
    /// the next change to that package deletes it.
    pub host_threads: usize,
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
        }
    }
}

/// Sysbench point-update transactions (10 updates of the `c` column),
/// X % of statements on the shared group. Like every generator
/// [`run_sharing`] takes, it appends one transaction's statements to the
/// buffer it is handed.
pub fn point_update_gen(
    layout: GroupLayout,
    shared_pct: u32,
) -> impl Fn(&mut SimRng, usize, &mut Vec<ShOp>) {
    move |rng, node, txn| {
        for _ in 0..10 {
            let group = if rng.gen_range(0..100) < shared_pct {
                layout.groups - 1
            } else {
                node
            };
            let row = rng.gen_range(0..layout.rows_per_group);
            let (page, off) = layout.locate(group, row);
            txn.push(ShOp::Write {
                page,
                off: off + 8,
                len: 120,
            });
        }
    }
}

/// Sysbench read-write transactions (14 reads + 4 writes), X % of
/// statements on the shared group.
pub fn read_write_gen(
    layout: GroupLayout,
    shared_pct: u32,
) -> impl Fn(&mut SimRng, usize, &mut Vec<ShOp>) {
    move |rng, node, txn| {
        let pick = |rng: &mut SimRng| {
            let group = if rng.gen_range(0..100) < shared_pct {
                layout.groups - 1
            } else {
                node
            };
            let row = rng.gen_range(0..layout.rows_per_group);
            layout.locate(group, row)
        };
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
}

pub(crate) fn seed_storage(layout: &GroupLayout) -> PageStore {
    let mut store = PageStore::new(layout.total_pages());
    for _ in 0..layout.total_pages() {
        store.allocate();
    }
    // Deterministic row payloads so coherency checks can verify data.
    // A group's rows fill its pages in order, so each page is built once
    // in `buf` and written once.
    let rpp = layout.rows_per_page();
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    for g in 0..layout.groups {
        for first in (0..layout.rows_per_group).step_by(rpp as usize) {
            let page = layout.locate(g, first).0;
            buf.copy_from_slice(store.raw_page(page));
            for r in first..(first + rpp).min(layout.rows_per_group) {
                let base = layout.locate(g, r).1 as usize;
                buf[base - 8..base].copy_from_slice(&r.to_le_bytes());
                buf[base..base + RECORD_SIZE as usize].fill((g as u8).wrapping_add(r as u8));
            }
            store.raw_write_page(page, &buf);
        }
    }
    store
}

/// Run a sharing experiment with the given transaction generator, which
/// appends a worker's next transaction to the (empty) buffer it is
/// handed; each lane reuses one buffer.
///
/// The run is *always* phased (barrier-synchronized stepping on the
/// [`crate::cluster`] loop): nodes step between virtual-time barriers
/// in lane order, and cross-node effects land at each barrier.
pub fn run_sharing<F>(cfg: &SharingConfig, gen: F) -> SharingResult
where
    F: Fn(&mut SimRng, usize, &mut Vec<ShOp>),
{
    let (layout, n) = (cfg.layout, cfg.nodes);
    let mode = match cfg.system {
        SharingSystem::Cxl => CoherencyMode::SoftwareLines,
        SharingSystem::CxlFullPageFlush => CoherencyMode::SoftwareFullPage,
        SharingSystem::Rdma { lbp_fraction } => return run_rdma(cfg, &gen, lbp_fraction),
    };
    let (mut fusion, mut nodes) = FusionCluster::with_nodes(&layout, n, mode);
    fusion.warm_home(&mut nodes, &layout);
    // Footprint: the DBP slots plus one flag array per node.
    let memory = layout.total_pages() * (PAGE_SIZE + 16 * n as u64);
    run_on(cfg, &gen, fusion, nodes, memory)
}

fn run_rdma<F>(cfg: &SharingConfig, gen: &F, lbp_fraction: f64) -> SharingResult
where
    F: Fn(&mut SimRng, usize, &mut Vec<ShOp>),
{
    let (layout, n) = (cfg.layout, cfg.nodes);
    let dbp_bytes = layout.total_pages() * PAGE_SIZE;
    let pool = Rc::new(RefCell::new(RdmaPool::new(dbp_bytes as usize, n + 1)));
    let store = Rc::new(RefCell::new(seed_storage(&layout)));
    let total_pages = layout.total_pages() as u32;
    let mut server = RdmaDbp::new(Rc::clone(&pool), n, 0, total_pages, store);
    // Each node accesses 2 groups (its own + shared): LBP sized to a
    // fraction of that.
    let accessed_pages = 2 * layout.pages_per_group();
    let lbp_frames = ((accessed_pages as f64 * lbp_fraction).ceil() as usize).max(4);
    let mut nodes: Vec<RdmaSharingNode> = (0..n)
        .map(|i| RdmaSharingNode::new(NodeId(i), i, lbp_frames, PAGE_SIZE))
        .collect();
    // Warm serially: resolve the DBP address of *every* page the node
    // may touch (no server RPC can happen mid-phase), then fault in up
    // to the LBP capacity.
    for (i, node) in nodes.iter_mut().enumerate() {
        for (k, page) in layout.home_pages(i).enumerate() {
            node.resolve(&mut server, page, SimTime::ZERO);
            if k < lbp_frames {
                node.read(&mut server, page, 16, &mut [0u8; 8], SimTime::ZERO);
            }
        }
    }
    let fabric = RdmaCluster {
        pool,
        server,
        server_host: n,
    };
    let nodes = nodes.into_iter().map(|node| (node, Vec::new())).collect();
    // Footprint: the DBP plus every node's local buffer pool.
    let memory = dbp_bytes + n as u64 * lbp_frames as u64 * PAGE_SIZE;
    run_on(cfg, gen, fabric, nodes, memory)
}

/// What a sharing lane accumulates: the txn-latency histogram and the
/// statement / transaction counters — and the lane's transaction buffer.
#[derive(Default)]
struct Tally {
    hist: Histogram,
    queries: u64,
    txns: u64,
    txn: Vec<ShOp>,
}

/// Start loading the fabric lines `op` will touch (a host-side hint).
fn prefetch_op<F: Fabric, X>(ctx: &LaneCtx<'_, '_, F, X>, op: ShOp) {
    let (ShOp::Read { page, off, len } | ShOp::Write { page, off, len }) = op;
    ctx.prefetch(page, off as u64, len as usize);
}

/// Execute one [`ShOp`] on a lane as its locked statement.
fn exec_op<F: Fabric, X>(
    ctx: &mut LaneCtx<'_, '_, F, X>,
    op: ShOp,
    payload: &[u8],
    now: SimTime,
) -> SimTime {
    match op {
        ShOp::Read { page, off, len } => ctx.locked_read(page, off as u64, len as usize, now),
        ShOp::Write { page, off, len } => ctx
            .locked_write_publish(page, off as u64, &payload[..len as usize], now)
            .expect("no node of this cluster is ever fenced"),
    }
}

/// The sharing scenario on either fabric: every lane runs `gen`'s
/// transactions; there is no control plane, so the barrier hook is
/// empty. `memory` is the design's footprint.
fn run_on<Fb: Fabric, F>(
    cfg: &SharingConfig,
    gen: &F,
    fabric: Fb,
    nodes: Vec<Fb::Node>,
    memory: u64,
) -> SharingResult
where
    F: Fn(&mut SimRng, usize, &mut Vec<ShOp>),
{
    let n = cfg.nodes;
    let tallies = (0..n).map(|_| Tally::default()).collect();
    let faults = (0..n).map(|_| FaultState::inactive()).collect();
    let (wpn, seed) = (cfg.workers_per_node, cfg.seed);
    let mut cluster = Cluster::new(fabric, nodes, tallies, faults, wpn, seed);
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }
    let payload = [0xC5u8; 120];
    cluster.run(
        cfg.duration,
        cfg.quantum,
        |ctx, w, start| {
            let mut txn = std::mem::take(&mut ctx.ext.txn);
            txn.clear();
            gen(&mut ctx.rngs[w], ctx.lane, &mut txn);
            // Each statement's lines are requested one statement ahead,
            // so the host loads them while the one before it runs.
            if let Some(&first) = txn.first() {
                prefetch_op(ctx, first);
            }
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            for (k, &op) in txn.iter().enumerate() {
                if let Some(&next) = txn.get(k + 1) {
                    prefetch_op(ctx, next);
                }
                t = exec_op(ctx, op, &payload, t);
            }
            ctx.ext.queries += txn.len() as u64;
            ctx.ext.txns += 1;
            ctx.ext.hist.record(t - start);
            ctx.ext.txn = txn;
            Step::Done(t)
        },
        |_, _| {},
    );
    let mut hist = Histogram::new();
    let (mut queries, mut txns) = (0u64, 0u64);
    for tally in &cluster.exts {
        hist.merge(&tally.hist);
        queries += tally.queries;
        txns += tally.txns;
    }
    let window = cfg.duration;
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
            interconnect_gbps: cluster.fabric.link_bytes() as f64 / window.as_nanos() as f64,
            memory_bytes: memory,
            window,
            latency: hist,
        },
        lock_contended: cluster.locks.contended(),
        lock_mean_wait_ns: cluster.locks.mean_wait_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::stream_rng;

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
        let gen = |g: &dyn Fn(&mut SimRng, usize, &mut Vec<ShOp>), rng: &mut SimRng| {
            let mut txn = Vec::new();
            g(rng, 0, &mut txn);
            txn
        };
        for op in gen(&point_update_gen(l, 100), &mut rng) {
            let ShOp::Write { page, .. } = op else {
                panic!()
            };
            assert!(shared_range.contains(&page.0), "100% shared");
        }
        let own_range = 0..l.pages_per_group();
        for op in gen(&point_update_gen(l, 0), &mut rng) {
            let ShOp::Write { page, .. } = op else {
                panic!()
            };
            assert!(own_range.contains(&page.0), "0% shared hits own group");
        }
    }
}
