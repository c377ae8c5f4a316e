//! The multi-instance pooling harness (§4.2, Figures 1/3/7/8/9).
//!
//! Builds N database instances on one 192-vCPU host, all backed by the
//! pool design under test (local DRAM, tiered RDMA, or PolarCXLMem),
//! drives closed-loop sysbench workers over them in virtual time, and
//! reports throughput, latency and interconnect bandwidth.

use crate::metrics::{RunMetrics, TimelinePoint};
use crate::sysbench::{
    fill_record, make_record, Statement, Sysbench, SysbenchKind, C_LEN, C_OFF, K_OFF, RANGE_LEN,
    RECORD_SIZE,
};
use bufferpool::dram_bp::DramBp;
use bufferpool::tiered::TieredRdmaBp;
use bufferpool::BufferPool;
use engine::Db;
use memsim::calib::PAGE_SIZE;
use memsim::{CxlPool, NodeId, RdmaPool};
use polarcxlmem::{CxlBp, CxlMemoryManager};
use simkit::rng::{stream_rng, SimRng};
use simkit::trace::{self, Lane, QueryBreakdown, SpanKind};
use simkit::{dur, Histogram, MetricsRegistry, SimTime, Step, WorkerId, WorkerSet};
use std::cell::RefCell;
use std::rc::Rc;
use storage::PageStore;

/// Which buffer pool design backs the instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Local DRAM buffer pool (DRAM-BP).
    Dram,
    /// Tiered RDMA disaggregated memory (the baseline).
    TieredRdma,
    /// PolarCXLMem: the whole pool in CXL memory.
    Cxl,
}

/// Pooling experiment configuration.
#[derive(Debug, Clone)]
pub struct PoolingConfig {
    /// Pool design under test.
    pub kind: PoolKind,
    /// Sysbench variant.
    pub workload: SysbenchKind,
    /// Number of instances on the host (1–12 in the paper).
    pub instances: usize,
    /// Closed-loop workers per instance (48 for point workloads, 32 for
    /// range-select in the paper).
    pub workers_per_instance: usize,
    /// Rows per instance's table.
    pub table_size: u64,
    /// Measured window of virtual time.
    pub duration: SimTime,
    /// CPU cache available per instance for its pool traffic.
    pub cache_bytes: usize,
    /// Local buffer fraction of the dataset (tiered RDMA only; the
    /// paper's default is 0.3).
    pub lbp_fraction: f64,
    /// CXL only: model direct-attached memory (no switch) instead of the
    /// switched pool — the §2.3 latency counterfactual.
    pub direct_attach: bool,
    /// Root RNG seed.
    pub seed: u64,
}

/// [`PoolingConfig::standard`]'s CPU cache per instance and local-buffer
/// fraction; the single-host seats below are built from the same two.
const STANDARD_CACHE_BYTES: usize = 4 << 20;
const STANDARD_LBP_FRACTION: f64 = 0.3;

impl PoolingConfig {
    /// The paper's standard setup for a given design/workload/scale,
    /// scaled down in dataset size to keep simulation time reasonable.
    pub fn standard(kind: PoolKind, workload: SysbenchKind, instances: usize) -> Self {
        PoolingConfig {
            kind,
            workload,
            instances,
            workers_per_instance: if workload == SysbenchKind::RangeSelect {
                32
            } else {
                48
            },
            table_size: 30_000,
            duration: SimTime::from_millis(300),
            cache_bytes: STANDARD_CACHE_BYTES,
            lbp_fraction: STANDARD_LBP_FRACTION,
            direct_attach: false,
            seed: 42,
        }
    }
}

/// Result of a pooling run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolingResult {
    /// Aggregate metrics.
    pub metrics: RunMetrics,
    /// Per-instance QPS (for scaling plots).
    pub per_instance_qps: Vec<f64>,
    /// Uniform snapshot of every subsystem counter (buffer pool, WAL,
    /// engine, storage, interconnect, latency quantiles); print with
    /// [`MetricsRegistry::table`] or serialize with
    /// [`MetricsRegistry::to_json`].
    pub registry: MetricsRegistry,
    /// Run-level latency decomposition by [`Lane`] — present only when
    /// [`trace::enable_attribution`] was on during the run.
    pub attribution: Option<QueryBreakdown>,
}

/// Pages needed to hold `table_size` rows plus B+tree overhead and
/// insert slack (every single-host harness sizes its store with this).
pub fn pages_for(table_size: u64, page_size: u64) -> u64 {
    let rows_per_page = (page_size - 16) / (8 + RECORD_SIZE as u64);
    let leaves = table_size.div_ceil(rows_per_page.max(1));
    // meta + root chain + split slack.
    leaves * 2 + leaves / 8 + 64
}

/// Local-buffer frames of a tiered pool over `pages` pages.
fn lbp_frames(pages: u64, fraction: f64) -> usize {
    ((pages as f64 * fraction).ceil() as usize).max(8)
}

/// A database over `pool` holding the standard `table_size` rows.
fn loaded<P: BufferPool>(pool: P, table_size: u64) -> Db<P> {
    let mut db = Db::create(pool, RECORD_SIZE);
    db.load((1..=table_size).map(|k| (k, make_record(k, (k % 251) as u8))));
    db
}

/// The single-host seat of the local-DRAM design: one loaded instance
/// whose pool holds the whole table (the recovery harness).
pub(crate) fn single_dram(table_size: u64) -> Db<DramBp> {
    let pages = pages_for(table_size, PAGE_SIZE);
    let store = PageStore::new(pages);
    loaded(
        DramBp::new(pages as usize, STANDARD_CACHE_BYTES, store),
        table_size,
    )
}

/// The single-host seat of the tiered RDMA design.
pub(crate) fn single_rdma(table_size: u64) -> Db<TieredRdmaBp> {
    let pages = pages_for(table_size, PAGE_SIZE);
    let store = PageStore::new(pages);
    let rdma = Rc::new(RefCell::new(RdmaPool::new((pages * PAGE_SIZE) as usize, 1)));
    let lbp = lbp_frames(pages, STANDARD_LBP_FRACTION);
    loaded(
        TieredRdmaBp::new(rdma, 0, 0, lbp, STANDARD_CACHE_BYTES, store),
        table_size,
    )
}

/// The single-host seat of PolarCXLMem: a one-node pool, formatted.
pub(crate) fn single_cxl(table_size: u64) -> Db<CxlBp> {
    let pages = pages_for(table_size, PAGE_SIZE);
    let store = PageStore::new(pages);
    let geo = 64 + pages * (64 + PAGE_SIZE) + 4096;
    let cxl = CxlPool::single_host(geo as usize, 1, STANDARD_CACHE_BYTES, false);
    let cxl = Rc::new(RefCell::new(cxl));
    loaded(CxlBp::format(cxl, NodeId(0), 0, pages, store), table_size)
}

/// Closed-loop set-up: one RNG stream per worker, and every worker
/// spawned at time zero.
pub(crate) fn closed_loop(workers: usize, seed: u64) -> (Vec<SimRng>, WorkerSet) {
    let rngs = (0..workers).map(|w| stream_rng(seed, w as u64)).collect();
    let mut ws = WorkerSet::new();
    for w in 0..workers {
        ws.spawn(WorkerId(w), SimTime::ZERO);
    }
    (rngs, ws)
}

/// A series' per-bucket rates as a throughput-over-time curve.
pub(crate) fn timeline(rates: &[f64], bucket: u64) -> Vec<TimelinePoint> {
    let point = |(i, &qps)| TimelinePoint {
        second: (i as u64 * bucket) / dur::SEC,
        qps,
    };
    rates.iter().enumerate().map(point).collect()
}

/// Execute one sysbench transaction against a database; returns its
/// completion time.
pub fn exec_txn<P: BufferPool>(db: &mut Db<P>, txn: &[Statement], start: SimTime) -> SimTime {
    let mut t = start;
    let mut wrote = false;
    let mut cbuf = [0u8; C_LEN as usize];
    let mut rec = [0u8; RECORD_SIZE as usize];
    for s in txn {
        match s {
            Statement::PointSelect { key } => {
                t = db.select_field(*key, C_OFF, &mut cbuf, t).1;
            }
            Statement::RangeSelect { start } => {
                t = db.range_select(*start, RANGE_LEN, t).1;
            }
            Statement::UpdateIndex { key, value } => {
                t = db.update_no_commit(*key, K_OFF, &value.to_le_bytes(), t).1;
                wrote = true;
            }
            Statement::UpdateNonIndex { key, fill } => {
                let payload = [*fill; C_LEN as usize];
                t = db.update_no_commit(*key, C_OFF, &payload, t).1;
                wrote = true;
            }
            Statement::Delete { key } => {
                t = db.delete_no_commit(*key, t).1;
                wrote = true;
            }
            Statement::Insert { key, fill } => {
                fill_record(*key, *fill, &mut rec);
                t = db.insert_no_commit(*key, &rec, t).1;
                wrote = true;
            }
        }
    }
    if wrote {
        t = db.commit(t);
    }
    t
}

fn drive<P: BufferPool>(dbs: &mut [Db<P>], cfg: &PoolingConfig) -> (u64, u64, Histogram, Vec<u64>) {
    for db in dbs.iter_mut() {
        db.reset_timing_queues();
    }
    let wpi = cfg.workers_per_instance;
    let gen = Sysbench::new(cfg.workload, cfg.table_size);
    let (mut rngs, mut ws) = closed_loop(dbs.len() * wpi, cfg.seed);
    let mut hist = Histogram::new();
    let mut queries = 0u64;
    let mut txns = 0u64;
    let mut per_instance = vec![0u64; dbs.len()];
    // One transaction buffer for the whole run: `fill_txn` clears and
    // refills it, so the hot loop never touches the allocator.
    let mut txn = crate::sysbench::Transaction::with_capacity(18);
    // Latencies are staged in a pre-sized batch and folded into the
    // histogram in chunks; record_batch is equivalent to per-sample
    // record (all histogram updates commute), so results are unchanged.
    let mut lat_batch: Vec<u64> = Vec::with_capacity(1024);
    ws.run_until(cfg.duration, |WorkerId(w), start| {
        let inst = w / wpi;
        gen.fill_txn(&mut rngs[w], &mut txn);
        let end = exec_txn(&mut dbs[inst], &txn, start);
        trace::span(SpanKind::Query, inst as u32, start, end, txn.len() as u64);
        lat_batch.push(end - start);
        if lat_batch.len() == lat_batch.capacity() {
            hist.record_batch(&lat_batch);
            lat_batch.clear();
        }
        queries += txn.len() as u64;
        txns += 1;
        per_instance[inst] += txn.len() as u64;
        Step::Done(end)
    });
    hist.record_batch(&lat_batch);
    (queries, txns, hist, per_instance)
}

/// Collect every subsystem's counters into one registry — the uniform
/// snapshot that `BENCH_*.json` and the per-config summary tables print.
/// Keys are asserted snake_case and unique by the registry itself.
fn collect_registry<P: BufferPool>(
    dbs: &[Db<P>],
    metrics: &RunMetrics,
    attribution: Option<&QueryBreakdown>,
) -> MetricsRegistry {
    let mut bp = bufferpool::BpStats::default();
    let (mut wal_flushes, mut wal_bytes) = (0u64, 0u64);
    let mut db_sum = engine::DbStats::default();
    let (mut io_reads, mut io_writes, mut channel_bytes) = (0u64, 0u64, 0u64);
    for db in dbs {
        let s = db.pool.stats();
        bp.hits += s.hits;
        bp.misses += s.misses;
        bp.evictions += s.evictions;
        bp.writebacks += s.writebacks;
        bp.storage_read_bytes += s.storage_read_bytes;
        bp.storage_write_bytes += s.storage_write_bytes;
        bp.remote_read_bytes += s.remote_read_bytes;
        bp.remote_write_bytes += s.remote_write_bytes;
        bp.fault_retries += s.fault_retries;
        bp.fault_fallbacks += s.fault_fallbacks;
        bp.poison_rebuilds += s.poison_rebuilds;
        let (f, b) = db.wal.flush_stats();
        wal_flushes += f;
        wal_bytes += b;
        let d = db.stats();
        db_sum.queries += d.queries;
        db_sum.rows_read += d.rows_read;
        db_sum.commits += d.commits;
        db_sum.checkpoints += d.checkpoints;
        let (r, w) = db.pool.store().io_counts();
        io_reads += r;
        io_writes += w;
        channel_bytes += db.pool.store().channel_bytes();
    }
    let mut reg = MetricsRegistry::default();
    reg.set_int("bp_hits", bp.hits);
    reg.set_int("bp_misses", bp.misses);
    reg.set_int("bp_evictions", bp.evictions);
    reg.set_int("bp_writebacks", bp.writebacks);
    reg.set_int("bp_storage_read_bytes", bp.storage_read_bytes);
    reg.set_int("bp_storage_write_bytes", bp.storage_write_bytes);
    reg.set_int("bp_remote_read_bytes", bp.remote_read_bytes);
    reg.set_int("bp_remote_write_bytes", bp.remote_write_bytes);
    reg.set_num("bp_hit_ratio", bp.hit_ratio());
    reg.set_int("bp_fault_retries", bp.fault_retries);
    reg.set_int("bp_fault_fallbacks", bp.fault_fallbacks);
    reg.set_int("bp_poison_rebuilds", bp.poison_rebuilds);
    reg.set_int("wal_flushes", wal_flushes);
    reg.set_int("wal_bytes_flushed", wal_bytes);
    reg.set_int("db_queries", db_sum.queries);
    reg.set_int("db_rows_read", db_sum.rows_read);
    reg.set_int("db_commits", db_sum.commits);
    reg.set_int("db_checkpoints", db_sum.checkpoints);
    reg.set_int("storage_reads", io_reads);
    reg.set_int("storage_writes", io_writes);
    reg.set_int("storage_channel_bytes", channel_bytes);
    reg.set_num("qps", metrics.qps);
    reg.set_num("tps", metrics.tps);
    reg.set_histogram("latency", &metrics.latency);
    if let Some(a) = attribution {
        for lane in Lane::ALL {
            reg.set_int(&format!("attr_{}_ns", lane.name()), a.lane(lane));
        }
        reg.set_int("attr_total_ns", a.total_ns());
    }
    reg
}

/// Seat `cfg.instances` identically configured instances. Instance 0 is
/// built over `fresh(0)` and loaded; every other one is a copy of it over
/// `copy(&pool_0, i)` — bit for bit the instance its own load would have
/// produced (DESIGN.md, "Set-up"), at the cost of a memcpy instead of
/// tens of thousands of logged inserts. `ALL_LOADED` is the reference
/// the tests hold that claim to: every instance built by its own load.
fn seat<P: BufferPool, const ALL_LOADED: bool>(
    cfg: &PoolingConfig,
    mut fresh: impl FnMut(usize) -> P,
    copy: impl Fn(&P, usize) -> P,
) -> Vec<Db<P>> {
    let mut load = |i| loaded(fresh(i), cfg.table_size);
    let mut dbs = Vec::with_capacity(cfg.instances);
    dbs.push(load(0));
    for i in 1..cfg.instances {
        let db = if ALL_LOADED {
            load(i)
        } else {
            dbs[0].copy_onto(copy(&dbs[0].pool, i))
        };
        dbs.push(db);
    }
    dbs
}

/// The measured window over seated instances and everything reported
/// from it. `interconnect_bytes` reads the design's fabric counter once
/// the window has run.
fn measure<P: BufferPool>(
    mut dbs: Vec<Db<P>>,
    cfg: &PoolingConfig,
    memory_bytes: u64,
    interconnect_bytes: impl FnOnce() -> u64,
) -> PoolingResult {
    let attr_before = trace::attr_snapshot();
    let (queries, txns, hist, per) = drive(&mut dbs, cfg);
    let attribution =
        trace::attribution_enabled().then(|| trace::attr_snapshot().since(&attr_before));
    let window = cfg.duration;
    let secs = window.as_secs_f64();
    let metrics = RunMetrics {
        qps: queries as f64 / secs,
        tps: txns as f64 / secs,
        avg_latency_us: hist.mean_us(),
        p50_latency_us: hist.p50_us(),
        p95_latency_us: hist.p95_us(),
        p99_latency_us: hist.p99_us(),
        p999_latency_us: hist.p999_us(),
        interconnect_gbps: interconnect_bytes() as f64 / window.as_nanos() as f64,
        memory_bytes,
        window,
        latency: hist,
    };
    let registry = collect_registry(&dbs, &metrics, attribution.as_ref());
    PoolingResult {
        metrics,
        per_instance_qps: per.iter().map(|&c| c as f64 / secs).collect(),
        registry,
        attribution,
    }
}

/// Run a pooling experiment.
pub fn run_pooling(cfg: &PoolingConfig) -> PoolingResult {
    pooling::<false>(cfg)
}

fn pooling<const ALL_LOADED: bool>(cfg: &PoolingConfig) -> PoolingResult {
    let n = cfg.instances as u64;
    let pages = pages_for(cfg.table_size, PAGE_SIZE);
    match cfg.kind {
        PoolKind::Dram => {
            let dbs = seat::<_, ALL_LOADED>(
                cfg,
                |_| {
                    let store = PageStore::new(pages);
                    DramBp::new(pages as usize, cfg.cache_bytes, store)
                },
                |first, _| first.clone(),
            );
            measure(dbs, cfg, n * pages * PAGE_SIZE, || 0)
        }
        PoolKind::TieredRdma => {
            let slice = pages * PAGE_SIZE;
            let rdma = Rc::new(RefCell::new(RdmaPool::new((slice * n) as usize, 1)));
            let lbp_frames = lbp_frames(pages, cfg.lbp_fraction);
            let dbs = seat::<_, ALL_LOADED>(
                cfg,
                |i| {
                    TieredRdmaBp::new(
                        Rc::clone(&rdma),
                        0,
                        i as u64 * slice,
                        lbp_frames,
                        cfg.cache_bytes,
                        PageStore::new(pages),
                    )
                },
                |first, i| first.copy_to(i as u64 * slice),
            );
            rdma.borrow_mut().reset_link_counters();
            let mem = n * (slice + lbp_frames as u64 * PAGE_SIZE);
            let mut r = measure(dbs, cfg, mem, || rdma.borrow().total_bytes());
            r.registry
                .set_int("rdma_nic_bytes", rdma.borrow().total_bytes());
            r
        }
        PoolKind::Cxl => {
            // One CXL pool on the host, carved up by the memory manager.
            let geo_size = 64 + pages * (64 + PAGE_SIZE);
            let pool_size = (geo_size + 4096) * n;
            let node_cfg = memsim::CxlNodeConfig {
                host: 0,
                cache_bytes: cfg.cache_bytes,
                capture: false,
                remote_numa: false,
                direct_attach: cfg.direct_attach,
            };
            let cxl = Rc::new(RefCell::new(CxlPool::new(
                pool_size as usize,
                (0..cfg.instances).map(move |_| node_cfg),
            )));
            let mut mgr = CxlMemoryManager::new(pool_size);
            let leases: Vec<u64> = (0..cfg.instances)
                .map(|i| {
                    let (lease, _) = mgr
                        .allocate(NodeId(i), geo_size, SimTime::ZERO)
                        .expect("pool sized for all instances");
                    lease.offset
                })
                .collect();
            let dbs = seat::<_, ALL_LOADED>(
                cfg,
                |i| {
                    let store = PageStore::new(pages);
                    let (cxl, node) = (Rc::clone(&cxl), NodeId(i));
                    CxlBp::format(cxl, node, leases[i], pages, store)
                },
                |first, i| first.copy_to(NodeId(i), leases[i]),
            );
            cxl.borrow_mut().reset_link_counters();
            let mut r = measure(dbs, cfg, n * geo_size, || cxl.borrow().switch_bytes());
            let cxl = cxl.borrow();
            r.registry.set_int("cxl_switch_bytes", cxl.switch_bytes());
            r.registry
                .set_int("cxl_host_link_bytes", cxl.host_link_bytes(0));
            let (cache_hits, cache_misses) = (0..cfg.instances).fold((0u64, 0u64), |(h, m), i| {
                let s = cxl.cache_stats(NodeId(i));
                (h + s.hits, m + s.misses)
            });
            r.registry.set_int("cxl_cache_hits", cache_hits);
            r.registry.set_int("cxl_cache_misses", cache_misses);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_for_covers_rows_with_slack() {
        let pages = pages_for(30_000, PAGE_SIZE);
        // 82 rows/page => ~366 leaves; with tree overhead and slack the
        // estimate must exceed that comfortably but not absurdly.
        assert!(pages > 400, "{pages}");
        assert!(pages < 2_000, "{pages}");
    }

    #[test]
    fn standard_configs_follow_the_paper() {
        let p = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::PointSelect, 3);
        assert_eq!(p.workers_per_instance, 48);
        let r = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::RangeSelect, 3);
        assert_eq!(r.workers_per_instance, 32);
        assert_eq!(p.instances, 3);
        assert!((p.lbp_fraction - 0.3).abs() < 1e-9);
    }

    #[test]
    fn tiny_run_produces_consistent_metrics() {
        let mut cfg = PoolingConfig::standard(PoolKind::Dram, SysbenchKind::PointSelect, 1);
        cfg.table_size = 4_000;
        cfg.duration = SimTime::from_millis(10);
        let r = run_pooling(&cfg);
        assert!(r.metrics.qps > 0.0);
        // Closed loop: qps * latency ≈ workers (Little's law).
        let in_flight = r.metrics.qps * r.metrics.avg_latency_us / 1e6;
        assert!(
            (in_flight - 48.0).abs() < 6.0,
            "Little's law violated: {in_flight} in flight"
        );
        assert_eq!(
            r.metrics.qps, r.metrics.tps,
            "point-select: 1 query per txn"
        );
        assert_eq!(r.per_instance_qps.len(), 1);
    }

    /// Copying instance 0 is *exact*: against the reference that loads
    /// every instance itself, the whole result — metrics, latency
    /// histogram, per-instance QPS, every registry entry — is equal, for
    /// every design, a read-only and a logging workload, both instance
    /// counts past one, and modelled caches small enough to alias
    /// constantly (a power-of-two set count at n = 2, 1 536 sets at
    /// n = 3).
    #[test]
    fn copied_instances_equal_loaded_ones() {
        for kind in [PoolKind::Dram, PoolKind::TieredRdma, PoolKind::Cxl] {
            for workload in [SysbenchKind::PointSelect, SysbenchKind::ReadWrite] {
                for n in [2, 3] {
                    let mut cfg = PoolingConfig::standard(kind, workload, n);
                    cfg.table_size = 3_000;
                    cfg.duration = SimTime::from_millis(3);
                    cfg.workers_per_instance = 8;
                    cfg.cache_bytes = if n == 2 { 64 << 10 } else { 96 << 10 };
                    cfg.lbp_fraction = 0.2;
                    let copied = run_pooling(&cfg);
                    assert_eq!(copied, pooling::<true>(&cfg), "{cfg:?}");
                    assert!(copied.per_instance_qps.iter().all(|&q| q > 0.0));
                }
            }
        }
    }

    /// The same under attribution: the lanes of the measured window are
    /// those of the all-loaded run.
    #[test]
    fn copied_instances_attribute_like_loaded_ones() {
        let mut cfg = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::ReadWrite, 3);
        cfg.table_size = 3_000;
        cfg.duration = SimTime::from_millis(3);
        cfg.cache_bytes = 96 << 10;
        trace::reset();
        trace::enable_attribution(true);
        let copied = run_pooling(&cfg);
        let loaded = pooling::<true>(&cfg);
        trace::reset();
        assert!(copied.attribution.is_some());
        assert_eq!(copied, loaded);
    }
}
