//! Determinism: every harness must reproduce bit-identical results for
//! the same seed, and diverge when the seed changes. Reproducibility is
//! the property that makes a simulation-based reproduction auditable.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::workloads::sharing::point_update_gen;
use simkit::SimTime;

fn pooling(seed: u64) -> (f64, f64, f64) {
    let mut c = PoolingConfig::standard(PoolKind::TieredRdma, SysbenchKind::ReadWrite, 2);
    c.table_size = 6_000;
    c.duration = SimTime::from_millis(40);
    c.seed = seed;
    let r = run_pooling(&c);
    (
        r.metrics.qps,
        r.metrics.avg_latency_us,
        r.metrics.interconnect_gbps,
    )
}

#[test]
fn pooling_is_deterministic() {
    assert_eq!(pooling(1), pooling(1));
}

#[test]
fn pooling_depends_on_seed() {
    assert_ne!(pooling(1), pooling(2));
}

fn sharing(seed: u64) -> (f64, f64) {
    let mut c = SharingConfig::standard(SharingSystem::Cxl, 3);
    c.layout.rows_per_group = 1_000;
    c.duration = SimTime::from_millis(20);
    c.seed = seed;
    let layout = c.layout;
    let r = run_sharing(&c, point_update_gen(layout, 30));
    (r.metrics.qps, r.metrics.avg_latency_us)
}

#[test]
fn sharing_is_deterministic() {
    assert_eq!(sharing(5), sharing(5));
    assert_ne!(sharing(5), sharing(6));
}

// ---- serial vs parallel sweeps -----------------------------------------
//
// The parallel sweep runner fans independent runs across host threads;
// each run constructs its own simulated world (pools, links, caches, RNG
// streams all derive from the run's config), so host-thread scheduling
// can never leak into virtual time. `RunMetrics` derives `PartialEq`
// including the full latency histogram, so equality here is bit-for-bit.

fn sweep_pooling_configs() -> Vec<PoolingConfig> {
    let mut configs = Vec::new();
    for kind in [PoolKind::Dram, PoolKind::TieredRdma, PoolKind::Cxl] {
        for n in [1usize, 2] {
            let mut c = PoolingConfig::standard(kind, SysbenchKind::ReadWrite, n);
            c.table_size = 6_000;
            c.duration = SimTime::from_millis(20);
            configs.push(c);
        }
    }
    configs
}

#[test]
fn pooling_sweep_is_thread_count_invariant() {
    use bench::run_sweep_threads;
    let configs = sweep_pooling_configs();
    let serial = run_sweep_threads(&configs, 1, run_pooling);
    let parallel = run_sweep_threads(&configs, 4, run_pooling);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(s.metrics, p.metrics, "config {i}: metrics diverged");
        assert_eq!(
            s.per_instance_qps, p.per_instance_qps,
            "config {i}: per-instance QPS diverged"
        );
    }
    // And a second parallel pass agrees too (no run-to-run drift).
    let again = run_sweep_threads(&configs, 4, run_pooling);
    assert_eq!(parallel, again);
}

#[test]
fn sharing_sweep_is_thread_count_invariant() {
    use bench::run_sweep_threads;
    let configs: Vec<(SharingSystem, usize, u32)> = vec![
        (SharingSystem::Rdma { lbp_fraction: 0.3 }, 4, 40),
        (SharingSystem::Cxl, 4, 40),
        (SharingSystem::Cxl, 6, 80),
    ];
    let run = |&(system, nodes, pct): &(SharingSystem, usize, u32)| {
        let mut cfg = SharingConfig::standard(system, nodes);
        cfg.layout.rows_per_group = 1_000;
        cfg.duration = SimTime::from_millis(20);
        run_sharing(&cfg, point_update_gen(cfg.layout, pct))
    };
    let serial = run_sweep_threads(&configs, 1, run);
    let parallel = run_sweep_threads(&configs, 4, run);
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(s.metrics, p.metrics, "config {i}: metrics diverged");
    }
}

// ---- recovery ----------------------------------------------------------
//
// Crash, recover and resume: the crash instant and the rebuilt state are
// functions of the seed, so the recovery figures rerun bit-identically.

#[test]
fn recovery_is_deterministic() {
    let run = || {
        let mut c = RecoveryConfig::standard(Scheme::PolarRecv, SysbenchKind::ReadWrite);
        c.table_size = 6_000;
        c.crash_at = SimTime::from_millis(300);
        c.duration = SimTime::from_millis(800);
        let r = run_recovery(&c);
        (
            r.pre_crash_qps,
            r.recovery_secs,
            r.summary.pages_rebuilt,
            r.summary.records_applied,
        )
    };
    assert_eq!(run(), run());
}

// ---- failover ----------------------------------------------------------
//
// The failover harness folds the fault engine, the fencing protocol and
// the standby takeover into one run; `(seed, fault_seed)` must pin the
// whole thing — crash instant, per-node timelines, takeover cost,
// counters and registry alike.

fn failover(seed: u64, fault_seed: u64) -> FailoverResult {
    let mut c = FailoverConfig::smoke(3);
    c.seed = seed;
    c.fault_seed = fault_seed;
    run_failover(&c)
}

#[test]
fn failover_timeline_is_bit_deterministic() {
    let a = failover(11, 7);
    let b = failover(11, 7);
    assert_eq!(a.queries, b.queries);
    assert_eq!(a.queries_per_node, b.queries_per_node);
    assert_eq!(a.per_node_timeline, b.per_node_timeline);
    assert_eq!(a.takeover, b.takeover);
    assert_eq!(a.fault_stats, b.fault_stats);
    assert_eq!(a.fusion, b.fusion);
    assert_eq!(a.max_survivor_gap_ns, b.max_survivor_gap_ns);
    assert_eq!(a.registry, b.registry);
    // A different fault schedule moves the crash instant and with it
    // the whole takeover timeline.
    let c = failover(11, 0xBEEF);
    assert_ne!(a.takeover, c.takeover);
}

#[test]
fn failover_sweep_is_thread_count_invariant() {
    use bench::run_sweep_threads;
    let configs: Vec<FailoverConfig> = [(11u64, 7u64), (11, 21), (23, 7)]
        .into_iter()
        .map(|(seed, fault_seed)| {
            let mut c = FailoverConfig::smoke(3);
            c.seed = seed;
            c.fault_seed = fault_seed;
            c
        })
        .collect();
    let serial = run_sweep_threads(&configs, 1, run_failover);
    let parallel = run_sweep_threads(&configs, 3, run_failover);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(s.queries, p.queries, "config {i}: queries diverged");
        assert_eq!(
            s.per_node_timeline, p.per_node_timeline,
            "config {i}: timelines diverged"
        );
        assert_eq!(s.takeover, p.takeover, "config {i}: takeover diverged");
        assert_eq!(s.registry, p.registry, "config {i}: registry diverged");
    }
}

// ---- reruns of one config ----------------------------------------------
//
// Two fresh runs in one process: every std `HashMap` draws its own
// random key, so a host-order dependence anywhere in the stepped lanes
// shows up as a diverging rerun.

fn sharing_run(system: SharingSystem) -> SharingResult {
    let mut c = SharingConfig::standard(system, 4);
    c.layout.rows_per_group = 1_000;
    c.duration = SimTime::from_millis(20);
    let layout = c.layout;
    run_sharing(&c, point_update_gen(layout, 40))
}

#[test]
fn sharing_intra_config_reruns_bit_identically() {
    for system in [
        SharingSystem::Cxl,
        SharingSystem::Rdma { lbp_fraction: 0.3 },
    ] {
        assert_eq!(
            sharing_run(system),
            sharing_run(system),
            "{system:?}: rerun diverged"
        );
    }
}

#[test]
fn sharing_traces_reruns_bit_identically() {
    // Each lane's spans re-land on the calling thread in lane order at
    // the end of the run, so the trace stream (and the attribution it
    // sums to) is itself part of the determinism contract.
    use polardb_cxl_repro::simkit::trace;
    let capture = || {
        trace::reset();
        trace::enable_spans(true);
        trace::enable_attribution(true);
        let r = sharing_run(SharingSystem::Cxl);
        trace::enable_spans(false);
        trace::enable_attribution(false);
        let attr = trace::attr_snapshot();
        let events = trace::take_events();
        trace::reset();
        (r, attr, events)
    };
    let (r1, a1, e1) = capture();
    let (r2, a2, e2) = capture();
    assert_eq!(r1, r2, "tracing changed results on a rerun");
    assert_eq!(a1, a2, "attribution diverged on a rerun");
    assert!(!e1.is_empty(), "traced run recorded no spans");
    assert_eq!(e1, e2, "span streams diverged on a rerun");
}

#[test]
fn failover_intra_config_reruns_bit_identically() {
    // Failover folds the fault engine into the stepped run: each lane's
    // fault state counts only that lane's polls, so the fault schedule
    // is the sharpest place for a host-order leak to show up.
    let run = || {
        let mut c = FailoverConfig::smoke(3);
        c.seed = 11;
        c.fault_seed = 7;
        run_failover(&c)
    };
    let (one, p) = (run(), run());
    assert_eq!(one.queries, p.queries, "queries");
    assert_eq!(one.queries_per_node, p.queries_per_node, "per-node queries");
    assert_eq!(one.per_node_timeline, p.per_node_timeline, "timelines");
    assert_eq!(one.takeover, p.takeover, "takeover");
    assert_eq!(one.fault_stats, p.fault_stats, "fault schedule");
    assert_eq!(one.fusion, p.fusion, "fusion stats");
    assert_eq!(
        one.max_survivor_gap_ns, p.max_survivor_gap_ns,
        "survivor gap"
    );
    assert_eq!(one.registry, p.registry, "registry");
}
