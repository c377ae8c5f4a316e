//! The crash-recovery timeline harness (§4.3, Figure 10).
//!
//! Runs one instance under a sysbench workload, kills the database
//! process at a chosen instant (volatile state dies; storage, remote
//! memory, and the CXL box survive per design), runs the recovery scheme
//! under test, resumes the workload, and reports the
//! throughput-over-time curve plus the derived recovery and warm-up
//! times the paper quotes.

use crate::harness::{closed_loop, exec_txn, single_cxl, single_dram, single_rdma, timeline};
use crate::metrics::TimelinePoint;
use crate::sysbench::{Sysbench, SysbenchKind, Transaction};
use bufferpool::BufferPool;
use engine::{recover_polar, recover_replay, Db, RecoverySummary};
use polarcxlmem::TrustPolicy;
use simkit::rng::SimRng;
use simkit::{dur, SimTime, Step, TimeSeries, WorkerId};

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

/// One closed-loop step: the worker's next transaction, drawn into the
/// run's one reused buffer, run and counted into the throughput series.
fn step<P: BufferPool>(
    gen: &Sysbench,
    rng: &mut SimRng,
    txn: &mut Transaction,
    db: &mut Db<P>,
    series: &mut TimeSeries,
    start: SimTime,
) -> Step {
    gen.fill_txn(rng, txn);
    let end = exec_txn(db, txn, start);
    series.record_at(end, txn.len() as u64);
    Step::Done(end)
}

fn run_phases<P, FR>(cfg: &RecoveryConfig, mut db: Db<P>, recover: FR) -> RecoveryRunResult
where
    P: BufferPool,
    FR: FnOnce(&mut Db<P>, SimTime) -> RecoverySummary,
{
    let gen = Sysbench::new(cfg.workload, cfg.table_size);
    // Pre-sized for the whole run; capacity only, so the observable
    // series is identical to a grown one.
    let mut series = TimeSeries::with_capacity_for(cfg.bucket, cfg.duration);
    let (mut rngs, mut ws) = closed_loop(cfg.workers, cfg.seed);
    let mut txn = Transaction::new();
    db.reset_timing_queues();

    // Phase 1: steady state until the crash.
    ws.run_until(cfg.crash_at, |WorkerId(w), start| {
        step(&gen, &mut rngs[w], &mut txn, &mut db, &mut series, start)
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
        step(&gen, &mut rngs[w], &mut txn, &mut db, &mut series, start)
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
    RecoveryRunResult {
        scheme: cfg.scheme.name(),
        timeline: timeline(&rates, cfg.bucket),
        pre_crash_qps,
        recovery_secs,
        warmup_secs,
        summary,
    }
}

/// Run one recovery experiment.
pub fn run_recovery(cfg: &RecoveryConfig) -> RecoveryRunResult {
    let rows = cfg.table_size;
    match cfg.scheme {
        Scheme::Vanilla => run_phases(cfg, single_dram(rows), |db, t| {
            recover_replay(db, "vanilla", t)
        }),
        Scheme::RdmaBased => run_phases(cfg, single_rdma(rows), |db, t| {
            recover_replay(db, "rdma-based", t)
        }),
        Scheme::PolarRecv => run_phases(cfg, single_cxl(rows), |db, t| {
            recover_polar(db, TrustPolicy::Durable, t)
        }),
        // No block's metadata trusted: every in-use page is rebuilt from
        // storage + redo.
        Scheme::PolarRecvNoMeta => run_phases(cfg, single_cxl(rows), |db, t| RecoverySummary {
            scheme: "polarrecv-nometa",
            ..recover_polar(db, TrustPolicy::Nothing, t)
        }),
    }
}
