//! The crash-recovery timeline harness (§4.3, Figure 10).
//!
//! Runs one instance under a sysbench workload, kills the database
//! process at a chosen instant (volatile state dies; storage, remote
//! memory, and the CXL box survive per design), runs the recovery scheme
//! under test, resumes the workload, and reports the
//! throughput-over-time curve plus the derived recovery and warm-up
//! times the paper quotes.

use crate::harness::{exec_txn, pages_for, PoolKind, PoolingConfig};
use crate::metrics::TimelinePoint;
use crate::sysbench::{make_record, Sysbench, SysbenchKind};
use bufferpool::dram_bp::DramBp;
use bufferpool::tiered::TieredRdmaBp;
use bufferpool::{BufferPool, Crashable};
use engine::{recover_polar, recover_polar_policy, recover_replay, Db, RecoverySummary};
use memsim::calib::PAGE_SIZE;
use memsim::{CxlPool, NodeId, RdmaPool};
use polarcxlmem::{CxlBp, TrustPolicy};
use simkit::rng::{stream_rng, SimRng};
use simkit::{dur, SimTime, Step, TimeSeries, WorkerId, WorkerSet};
use std::cell::RefCell;
use std::rc::Rc;
use storage::PageStore;

/// Which recovery scheme (and therefore which pool design) to test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Local DRAM pool + full ARIES replay from storage.
    Vanilla,
    /// Tiered RDMA pool + replay served from remote memory.
    RdmaBased,
    /// PolarCXLMem + PolarRecv.
    PolarRecv,
    /// Ablation: PolarCXLMem *without* trusting the durable metadata —
    /// every in-use page is rebuilt from storage + redo.
    PolarRecvNoMeta,
}

impl Scheme {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Vanilla => "vanilla",
            Scheme::RdmaBased => "rdma-based",
            Scheme::PolarRecv => "polarrecv",
            Scheme::PolarRecvNoMeta => "polarrecv-nometa",
        }
    }
}

/// Recovery experiment configuration.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Scheme (implies the pool design).
    pub scheme: Scheme,
    /// Sysbench variant (read-only / read-write / write-only in §4.3).
    pub workload: SysbenchKind,
    /// Rows in the table.
    pub table_size: u64,
    /// Closed-loop workers.
    pub workers: usize,
    /// When the process is killed.
    pub crash_at: SimTime,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Time-series bucket width.
    pub bucket: u64,
    /// RNG seed.
    pub seed: u64,
}

impl RecoveryConfig {
    /// A scaled-down version of the paper's setup (crash at 1/3 of the
    /// run). Buckets are 100 ms so the curves have useful resolution at
    /// simulation scale.
    pub fn standard(scheme: Scheme, workload: SysbenchKind) -> Self {
        RecoveryConfig {
            scheme,
            workload,
            table_size: 30_000,
            workers: 48,
            crash_at: SimTime::from_secs(2),
            duration: SimTime::from_secs(6),
            bucket: 100 * dur::MS,
            seed: 7,
        }
    }
}

/// Result of a recovery run.
#[derive(Debug, Clone)]
pub struct RecoveryRunResult {
    /// Scheme name.
    pub scheme: &'static str,
    /// Throughput curve (queries per bucket, normalized to QPS).
    pub timeline: Vec<TimelinePoint>,
    /// Mean pre-crash QPS (steady state).
    pub pre_crash_qps: f64,
    /// Seconds from crash until the engine accepts queries again.
    pub recovery_secs: f64,
    /// Seconds from recovery completion until throughput regains 90 %
    /// of the pre-crash level.
    pub warmup_secs: f64,
    /// Details from the recovery scheme.
    pub summary: RecoverySummary,
}

/// One closed-loop step: the worker's next transaction, run and
/// counted into the throughput series.
fn step<P: BufferPool>(
    gen: &Sysbench,
    rng: &mut SimRng,
    db: &mut Db<P>,
    series: &mut TimeSeries,
    start: SimTime,
) -> Step {
    let txn = gen.next_txn(rng);
    let end = exec_txn(db, &txn, start);
    series.record_at(end, txn.len() as u64);
    Step::Done(end)
}

fn run_phases<P, FR>(cfg: &RecoveryConfig, mut db: Db<P>, recover: FR) -> RecoveryRunResult
where
    P: BufferPool + Crashable,
    FR: FnOnce(&mut Db<P>, SimTime) -> RecoverySummary,
{
    let gen = Sysbench::new(cfg.workload, cfg.table_size);
    let mut rngs: Vec<_> = (0..cfg.workers)
        .map(|w| stream_rng(cfg.seed, w as u64))
        .collect();
    // Pre-size the bucket slab for the whole run; capacity only, so the
    // observable series is identical to a grown one.
    let mut series = TimeSeries::with_capacity_for(cfg.bucket, cfg.duration);
    let mut ws = WorkerSet::new();
    for w in 0..cfg.workers {
        ws.spawn(WorkerId(w), SimTime::ZERO);
    }
    db.reset_timing_queues();

    // Phase 1: steady state until the crash.
    ws.run_until(cfg.crash_at, |WorkerId(w), start| {
        step(&gen, &mut rngs[w], &mut db, &mut series, start)
    });

    // Crash: every worker dies with the process.
    ws.park_matching(|_| true);
    db.crash();

    // Recovery.
    let summary = recover(&mut db, cfg.crash_at);
    let recovery_secs = (summary.done - cfg.crash_at) as f64 / dur::SEC as f64;

    // Phase 2: workers restart when the engine is back.
    for w in 0..cfg.workers {
        ws.spawn(WorkerId(w), summary.done);
    }
    ws.run_until(cfg.duration, |WorkerId(w), start| {
        step(&gen, &mut rngs[w], &mut db, &mut series, start)
    });

    // Derived numbers.
    let rates = series.rates_per_sec();
    let crash_bucket = (cfg.crash_at.as_nanos() / cfg.bucket) as usize;
    let warm = &rates[crash_bucket / 2..crash_bucket.max(1)];
    let pre_crash_qps = if warm.is_empty() {
        0.0
    } else {
        warm.iter().sum::<f64>() / warm.len() as f64
    };
    let warmup_secs = series
        .first_reaching(summary.done, 0.9 * pre_crash_qps)
        .map(|b| {
            (b as f64 * cfg.bucket as f64 - summary.done.as_nanos() as f64).max(0.0)
                / dur::SEC as f64
        })
        .unwrap_or(f64::INFINITY);
    let timeline = rates
        .iter()
        .enumerate()
        .map(|(i, &qps)| TimelinePoint {
            second: (i as u64 * cfg.bucket) / dur::SEC,
            qps,
        })
        .collect();
    RecoveryRunResult {
        scheme: cfg.scheme.name(),
        timeline,
        pre_crash_qps,
        recovery_secs,
        warmup_secs,
        summary,
    }
}

/// PolarRecv trusting no block's metadata ([`Scheme::PolarRecvNoMeta`]):
/// every in-use page is rebuilt from storage + redo.
pub(crate) fn recover_untrusted(db: &mut Db<CxlBp>, now: SimTime) -> RecoverySummary {
    RecoverySummary {
        scheme: "polarrecv-nometa",
        ..recover_polar_policy(db, TrustPolicy::Nothing, now)
    }
}

/// Run one recovery experiment.
pub fn run_recovery(cfg: &RecoveryConfig) -> RecoveryRunResult {
    let pages = pages_for(cfg.table_size, PAGE_SIZE);
    // Cache size and local-buffer fraction are the pooling harness's.
    let base = PoolingConfig::standard(PoolKind::TieredRdma, cfg.workload, 1);
    let rows = || (1..=cfg.table_size).map(|k| (k, make_record(k, (k % 251) as u8)));
    match cfg.scheme {
        Scheme::Vanilla => {
            let store = PageStore::new(pages);
            let mut db = Db::create(
                DramBp::new(pages as usize, base.cache_bytes, store),
                crate::sysbench::RECORD_SIZE,
            );
            db.load(rows());
            run_phases(cfg, db, |db, t| recover_replay(db, "vanilla", t))
        }
        Scheme::RdmaBased => {
            let store = PageStore::new(pages);
            let rdma = Rc::new(RefCell::new(RdmaPool::new((pages * PAGE_SIZE) as usize, 1)));
            let lbp = ((pages as f64 * base.lbp_fraction).ceil() as usize).max(8);
            let mut db = Db::create(
                TieredRdmaBp::new(rdma, 0, 0, lbp, base.cache_bytes, store),
                crate::sysbench::RECORD_SIZE,
            );
            db.load(rows());
            run_phases(cfg, db, |db, t| recover_replay(db, "rdma-based", t))
        }
        Scheme::PolarRecv | Scheme::PolarRecvNoMeta => {
            let store = PageStore::new(pages);
            let geo = 64 + pages * (64 + PAGE_SIZE) + 4096;
            let cxl = Rc::new(RefCell::new(CxlPool::single_host(
                geo as usize,
                1,
                base.cache_bytes,
                false,
            )));
            let mut db = Db::create(
                CxlBp::format(cxl, NodeId(0), 0, pages, store),
                crate::sysbench::RECORD_SIZE,
            );
            db.load(rows());
            let recover: fn(&mut Db<CxlBp>, SimTime) -> RecoverySummary =
                if cfg.scheme == Scheme::PolarRecv {
                    recover_polar
                } else {
                    recover_untrusted
                };
            run_phases(cfg, db, recover)
        }
    }
}
