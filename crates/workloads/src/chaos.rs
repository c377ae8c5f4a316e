//! The chaos harness: throughput under injected faults.
//!
//! Drives one instance with a sysbench workload while a seeded
//! [`FaultPlan`] injects transient fabric faults and poisoned CXL reads
//! (plus, optionally, a full host crash at a chosen site hit). The
//! result is a throughput-over-time curve with the fault counters and —
//! when a crash fired — the recovery summary, so a run shows *graceful
//! degradation*: transients cost latency spikes, poisons cost rebuild
//! I/O, and only a real crash interrupts service.
//!
//! The whole run is deterministic: same `(seed, fault_seed)` ⇒ the same
//! fault schedule, the same timeline, bit for bit.

use crate::harness::{closed_loop, exec_txn, single_cxl, single_dram, single_rdma, timeline};
use crate::metrics::TimelinePoint;
use crate::recovery_harness::{recover_untrusted, Scheme};
use crate::sysbench::{Sysbench, SysbenchKind, Transaction};
use bufferpool::{BpStats, BufferPool, Crashable};
use engine::{recover_polar, recover_replay, Db, RecoverySummary};
use simkit::faults::{self, Action, FaultPlan, FaultSite, FaultStats, Trigger};
use simkit::telemetry::{NodeProbe, SloRule, TelemetryConfig, TelemetryHub, TelemetryReport};
use simkit::{dur, MetricsRegistry, SimTime, Step, TimeSeries, WorkerId};

/// Chaos experiment configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Pool design / recovery scheme under test.
    pub scheme: Scheme,
    /// Sysbench variant.
    pub workload: SysbenchKind,
    /// Rows in the table.
    pub table_size: u64,
    /// Closed-loop workers.
    pub workers: usize,
    /// Total simulated duration.
    pub duration: SimTime,
    /// Time-series bucket width.
    pub bucket: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// Fault-schedule RNG seed (see [`FaultPlan::random`]).
    pub fault_seed: u64,
    /// Number of non-crashing fault events in the schedule.
    pub fault_events: usize,
    /// Site-hit horizon the events are spread over.
    pub horizon_hits: u64,
    /// Also crash the host at this global site hit, then recover with
    /// the scheme under test and resume.
    pub crash_at_hit: Option<u64>,
    /// Telemetry window width (ZERO disables the probe).
    pub telemetry_window: SimTime,
}

impl ChaosConfig {
    /// A short standard chaos run: ~1 s of sysbench with a couple dozen
    /// faults and a mid-run crash.
    pub fn standard(scheme: Scheme, workload: SysbenchKind) -> Self {
        ChaosConfig {
            scheme,
            workload,
            table_size: 10_000,
            workers: 16,
            duration: SimTime::from_secs(1),
            bucket: 50 * dur::MS,
            seed: 11,
            fault_seed: 0xC4A05,
            fault_events: 24,
            horizon_hits: 200_000,
            crash_at_hit: Some(60_000),
            telemetry_window: SimTime::from_millis(5),
        }
    }
}

/// Result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosRunResult {
    /// Scheme name.
    pub scheme: &'static str,
    /// Throughput curve (queries per bucket, normalized to QPS).
    pub timeline: Vec<TimelinePoint>,
    /// Fault-engine counters, snapshotted before the plan was cleared.
    pub fault_stats: FaultStats,
    /// Host crashes that fired (0 or 1).
    pub crashes: u64,
    /// Recovery details, when a crash fired.
    pub recovery: Option<RecoverySummary>,
    /// Queries completed across the whole run.
    pub queries: u64,
    /// Uniform counter snapshot (fault injections, degradation
    /// counters, recovery numbers, throughput).
    pub registry: MetricsRegistry,
    /// Windowed ops report (`None` when `telemetry_window` is ZERO).
    pub telemetry: Option<TelemetryReport>,
}

/// Feed one finished transaction to the probe: its latency, and what
/// the pool's counters moved by since the previous one.
fn probe_txn<P: BufferPool>(
    probe: &mut NodeProbe,
    prev_bp: &mut BpStats,
    pool: &P,
    start: SimTime,
    end: SimTime,
) {
    if !probe.enabled() {
        return;
    }
    probe.record_op(0, end, end.saturating_since(start));
    let s = pool.stats();
    let d = s.since(prev_bp);
    probe.record_misses(0, end, d.misses);
    probe.record_retries(0, end, d.fault_retries);
    probe.record_bytes(0, end, d.remote_read_bytes + d.remote_write_bytes);
    *prev_bp = s;
}

fn run_chaos_phases<P, FR>(cfg: &ChaosConfig, mut db: Db<P>, recover: FR) -> ChaosRunResult
where
    P: BufferPool + Crashable,
    FR: FnOnce(&mut Db<P>, SimTime) -> RecoverySummary,
{
    let mut plan = FaultPlan::random(cfg.fault_seed, cfg.horizon_hits, cfg.fault_events);
    if let Some(n) = cfg.crash_at_hit {
        plan = plan.with(Trigger::HitIndex(n), Action::Crash);
    }
    faults::install(plan);

    let gen = Sysbench::new(cfg.workload, cfg.table_size);
    // Pre-sized for the whole run; capacity only, so the observable
    // series is identical to a grown one.
    let mut series = TimeSeries::with_capacity_for(cfg.bucket, cfg.duration);
    let (mut rngs, mut ws) = closed_loop(cfg.workers, cfg.seed);
    // One transaction buffer for both phases, refilled by `fill_txn`.
    let mut txn = Transaction::new();
    db.reset_timing_queues();

    // Single-host telemetry: one probe, one "txn" lane. The absence
    // rule is the crash detector — after the plan kills the host every
    // worker parks, the probe goes silent, and the alert fires; it
    // clears once recovery finishes and service resumes.
    let tcfg = TelemetryConfig::new(cfg.telemetry_window, 1)
        .lanes(&["txn"])
        .rule(
            SloRule::absence("host_absent", 2)
                .fire_after(1)
                .clear_after(2),
        );
    let mut hub = TelemetryHub::new(tcfg.clone());
    let mut probe = NodeProbe::new(0, &tcfg);
    let mut prev_bp = db.pool.stats();

    // Phase 1: run under the fault plan. Workers park the moment the
    // plan kills the host; an in-flight transaction dies with it and is
    // not recorded.
    let mut queries = 0u64;
    let mut crash_time: Option<SimTime> = None;
    ws.run_until(cfg.duration, |WorkerId(w), start| {
        if faults::crashed() {
            crash_time.get_or_insert(start);
            return Step::Park;
        }
        gen.fill_txn(&mut rngs[w], &mut txn);
        let end = exec_txn(&mut db, &txn, start);
        if faults::crashed() {
            crash_time.get_or_insert(end);
            return Step::Park;
        }
        series.record_at(end, txn.len() as u64);
        queries += txn.len() as u64;
        probe_txn(&mut probe, &mut prev_bp, &db.pool, start, end);
        Step::Done(end)
    });

    // Snapshot the counters *before* clearing: clear() wipes them.
    let fault_stats = faults::stats();
    let link_snap = faults::link_snapshot(cfg.duration);
    faults::clear();

    // Phase 2 (only when the plan crashed the host): recover with the
    // scheme under test and resume fault-free until the horizon.
    let mut recovery = None;
    if let Some(t_crash) = crash_time {
        db.crash();
        let summary = recover(&mut db, t_crash);
        for w in 0..cfg.workers {
            ws.spawn(WorkerId(w), summary.done);
        }
        // The crash reset the pool's counters; re-base the delta so the
        // first post-recovery transaction doesn't see a wrap.
        prev_bp = db.pool.stats();
        ws.run_until(cfg.duration, |WorkerId(w), start| {
            gen.fill_txn(&mut rngs[w], &mut txn);
            let end = exec_txn(&mut db, &txn, start);
            series.record_at(end, txn.len() as u64);
            queries += txn.len() as u64;
            probe_txn(&mut probe, &mut prev_bp, &db.pool, start, end);
            Step::Done(end)
        });
        recovery = Some(summary);
    }

    let telemetry_report = hub.conclude([&mut probe], cfg.duration);

    let mut reg = MetricsRegistry::new();
    let crashes = u64::from(crash_time.is_some());
    reg.set_int("chaos_crashes", crashes);
    reg.set_int("faults_hits", fault_stats.total_hits());
    reg.set_int("faults_injected", fault_stats.total_injected());
    for (i, site) in FaultSite::ALL.iter().enumerate() {
        reg.set_int(&format!("faults_injected_{}", site.name()), {
            fault_stats.injected[i]
        });
    }
    reg.set_int("faults_link_degrades", fault_stats.link_degrades);
    reg.set_int("faults_link_flaps", fault_stats.link_flaps);
    reg.set_int("links_degraded", link_snap.degraded as u64);
    reg.set_int("links_down", link_snap.down as u64);
    reg.set_int("links_worst_factor", link_snap.worst_factor as u64);
    let bp = db.pool.stats();
    reg.set_int("bp_fault_retries", bp.fault_retries);
    reg.set_int("bp_fault_fallbacks", bp.fault_fallbacks);
    reg.set_int("bp_poison_rebuilds", bp.poison_rebuilds);
    if let Some(s) = &recovery {
        reg.set_int("recovery_pages_rebuilt", s.pages_rebuilt);
        reg.set_int("recovery_records_applied", s.records_applied);
        reg.set_int("recovery_log_bytes", s.log_bytes);
        reg.set_num(
            "recovery_secs",
            (s.done - crash_time.unwrap_or(SimTime::ZERO)) as f64 / dur::SEC as f64,
        );
    }
    reg.set_int("queries", queries);
    reg.set_num("qps", queries as f64 / cfg.duration.as_secs_f64());
    if let Some(rep) = &telemetry_report {
        rep.register_into(&mut reg);
        if let Some(mttd) = crash_time.and_then(|t| rep.mttd_ns("host_absent", 0, t)) {
            reg.set_int("telemetry_mttd_crash_ns", mttd);
        }
    }

    ChaosRunResult {
        scheme: cfg.scheme.name(),
        timeline: timeline(&series.rates_per_sec(), cfg.bucket),
        fault_stats,
        crashes,
        recovery,
        queries,
        registry: reg,
        telemetry: telemetry_report,
    }
}

/// Run one chaos experiment.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosRunResult {
    let rows = cfg.table_size;
    match cfg.scheme {
        Scheme::Vanilla => run_chaos_phases(cfg, single_dram(rows), |db, t| {
            recover_replay(db, "vanilla", t)
        }),
        Scheme::RdmaBased => run_chaos_phases(cfg, single_rdma(rows), |db, t| {
            recover_replay(db, "rdma-based", t)
        }),
        Scheme::PolarRecv => run_chaos_phases(cfg, single_cxl(rows), recover_polar),
        Scheme::PolarRecvNoMeta => run_chaos_phases(cfg, single_cxl(rows), recover_untrusted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scheme: Scheme, crash: Option<u64>) -> ChaosConfig {
        let mut cfg = ChaosConfig::standard(scheme, SysbenchKind::ReadWrite);
        cfg.table_size = 2_000;
        cfg.workers = 8;
        cfg.duration = SimTime::from_millis(120);
        cfg.fault_events = 12;
        cfg.horizon_hits = 20_000;
        cfg.crash_at_hit = crash;
        cfg
    }

    #[test]
    fn faults_degrade_but_do_not_stop_a_polar_run() {
        let r = run_chaos(&quick(Scheme::PolarRecv, None));
        assert_eq!(r.crashes, 0);
        assert!(r.recovery.is_none());
        assert!(r.queries > 0);
        assert!(r.fault_stats.total_hits() > 0);
        // Faults were scheduled inside the horizon actually reached, so
        // at least one must have fired.
        assert!(r.fault_stats.total_injected() > 0, "{:?}", r.fault_stats);
        assert!(!faults::active());
    }

    #[test]
    fn crash_recover_resume_produces_a_full_timeline() {
        let r = run_chaos(&quick(Scheme::PolarRecv, Some(5_000)));
        assert_eq!(r.crashes, 1);
        let s = r.recovery.expect("crash fired");
        assert_eq!(s.scheme, "polarrecv");
        assert!(
            r.fault_stats.crash_hit == Some(5_000),
            "{:?}",
            r.fault_stats
        );
        // Service resumed: queries completed after the recovery instant.
        let post = r
            .timeline
            .iter()
            .skip((s.done.as_nanos() / (50 * dur::MS)) as usize)
            .map(|p| p.qps)
            .sum::<f64>();
        assert!(post > 0.0, "no throughput after recovery");
        assert!(!faults::active());
    }

    #[test]
    fn telemetry_detects_the_chaos_crash() {
        // RdmaBased replays the full log on recovery, so the outage
        // spans several 500 us windows; PolarRecv's instant recovery is
        // sub-window and (correctly) invisible to the absence rule.
        let mut cfg = quick(Scheme::RdmaBased, Some(5_000));
        cfg.telemetry_window = SimTime(500_000);
        let r = run_chaos(&cfg);
        assert_eq!(r.crashes, 1);
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        assert!(rep.windows > 0);
        // The absence alert fired after the crash, and the registry
        // carries the detection delay.
        let mttd = r
            .registry
            .get("telemetry_mttd_crash_ns")
            .expect("crash detected by absence rule")
            .as_u64();
        assert!(
            mttd >= cfg.telemetry_window.as_nanos() && mttd <= 8 * cfg.telemetry_window.as_nanos(),
            "implausible MTTD {mttd}"
        );
        // Service resumed, so the alert also cleared.
        assert!(rep.alert_clears() > 0, "{}", rep.alert_log());
    }

    #[test]
    fn fault_free_chaos_run_raises_no_alerts() {
        let mut cfg = quick(Scheme::PolarRecv, None);
        cfg.fault_events = 0;
        cfg.telemetry_window = SimTime::from_millis(2);
        let r = run_chaos(&cfg);
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        assert_eq!(rep.alert_fires(), 0, "{}", rep.alert_log());
    }

    #[test]
    fn chaos_is_deterministic_per_seed_pair() {
        let a = run_chaos(&quick(Scheme::RdmaBased, Some(3_000)));
        let b = run_chaos(&quick(Scheme::RdmaBased, Some(3_000)));
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.registry, b.registry);
        let c = run_chaos(&{
            let mut cfg = quick(Scheme::RdmaBased, Some(3_000));
            cfg.fault_seed += 1;
            cfg
        });
        // A different fault seed reshuffles the schedule.
        assert_ne!(a.fault_stats.injected, c.fault_stats.injected);
    }
}
