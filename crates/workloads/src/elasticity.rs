//! Diurnal two-tenant elasticity scenario: live CXL re-partitioning
//! under load vs a static partition.
//!
//! Two tenants (= database nodes) own disjoint sets of *extents* (one
//! table group of pages each) in the shared CXL pool. Traffic follows
//! the sun: in the first half of the run tenant 0 fronts most of the
//! row space, in the second half demand flips to tenant 1. A statement
//! whose extent the tenant *owns* is served fabric-local (lock +
//! resident read/write); a statement on a foreign extent is served
//! storage-direct — the tens-of-microseconds path that blows the tail.
//!
//! With `adaptive` on, an [`ElasticController`] watches per-tenant miss
//! pressure at quantum barriers (the `miss_burn` telemetry rule while
//! the window is on, a remote-share threshold either way) and re-partitions
//! live: each plan runs the two-phase lease migration of
//! [`MigrationCoordinator`] — PREPARE (journal + write-protect + flush)
//! at one barrier, COMMIT (reassign + hand-off + bulk adopt + retire)
//! at the next, so there is a real write-protected window with both
//! tenants serving traffic through it. With `adaptive` off the
//! partition is static and the growing tenant thrashes on storage for
//! the whole second half.
//!
//! Everything is a function of virtual time, per-node state and lane
//! order, so a rerun is bit-identical.

use crate::cluster::{Cluster, FusionCluster};
use crate::sharing::GroupLayout;
use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_STMT_NS, PAGE_SIZE, STORAGE_READ_NS,
    STORAGE_WRITE_NS,
};
use memsim::NodeId;
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{
    CxlMemoryManager, ElasticConfig, ElasticController, ElasticStats, FusionStats,
    MigrationCoordinator, MigrationPlan, MigrationRequest,
};
use simkit::faults::FaultState;
use simkit::telemetry::{Metric, SloRule, TelemetryConfig, TelemetryReport};
use simkit::{Histogram, MetricsRegistry, SimTime, Step};
use storage::PageId;

/// CPU charged to refuse a write into the write-protected (migrating)
/// range: the donor returns a retryable error without touching locks
/// or the fabric. Same cost as the brownout write refusal.
pub const PROTECTED_WRITE_NS: u64 = 5_000;

/// Number of tenants in the diurnal scenario (the shift is two-sided).
pub const ELASTIC_TENANTS: usize = 2;

/// Extents (= table groups). Initial split: tenant 0 owns the first
/// 3/4, tenant 1 the rest — matching first-half demand.
pub const EXTENTS: usize = 8;
const _: () = assert!(EXTENTS >= 4, "need at least 4 extents for the shift");

/// Virtual-time barrier quantum.
pub const QUANTUM: SimTime = SimTime::from_micros(200);

/// Closed-loop workers per node.
pub const WORKERS_PER_NODE: usize = 4;

/// Per-tenant p99 SLO (ns) for the settled window; feeds the example's
/// pass/fail and the report, not the controller.
pub const SLO_P99_NS: u64 = 420_000;

/// Miss-rate SLO for the `miss_burn` burn-rate rule (misses/op).
pub const MISS_BURN_SLO: f64 = 0.2;

/// Fallback pressure threshold: percent of a tenant's statements in the
/// last quantum that went storage-direct.
pub const PRESSURE_PCT: u64 = 20;

/// Controller knobs (hysteresis, cooldown, shrink floor).
pub const ELASTIC: ElasticConfig = ElasticConfig {
    min_extents: 1,
    fire_streak: 2,
    cool_quanta: 1,
};

/// Elasticity experiment configuration.
#[derive(Debug, Clone)]
pub struct ElasticityConfig {
    /// Rows per extent group.
    pub rows_per_group: u64,
    /// Measured window.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Telemetry window width (ZERO disables probes; the controller
    /// then runs on the remote-share fallback alone).
    pub telemetry_window: SimTime,
    /// Live migration on (`true`) or static-partition ablation.
    pub adaptive: bool,
    /// Percent of statements that are writes.
    pub write_pct: u32,
    /// Percent of statements aimed at a uniformly random extent the
    /// tenant *owns* rather than its demand set — the residual trickle
    /// every tenant keeps over its whole share. This is what makes the
    /// write-protect window observable: the donor keeps touching an
    /// extent even after demand moved off it.
    pub background_pct: u32,
}

impl ElasticityConfig {
    /// Standard scaled-down diurnal shift.
    pub fn standard() -> Self {
        ElasticityConfig {
            rows_per_group: 2_000,
            duration: SimTime::from_millis(60),
            seed: 23,
            telemetry_window: SimTime::from_millis(2),
            adaptive: true,
            write_pct: 20,
            background_pct: 10,
        }
    }

    /// Small fast config for CI smoke runs and tests.
    pub fn smoke() -> Self {
        let mut cfg = ElasticityConfig::standard();
        cfg.rows_per_group = 800;
        cfg.duration = SimTime::from_millis(30);
        cfg
    }
}

/// Per-tenant outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticTenantOutcome {
    /// Tenant id (= node id).
    pub tenant: usize,
    /// Served transactions.
    pub txns: u64,
    /// Served statements.
    pub queries: u64,
    /// Statements served storage-direct off a foreign extent.
    pub remote_reads: u64,
    /// Writes forwarded storage-direct off a foreign extent.
    pub remote_writes: u64,
    /// Writes refused because they hit the migrating (write-protected)
    /// range — the live-migration window made visible.
    pub protected_writes: u64,
    /// p99 latency over the whole run, ns.
    pub p99_ns: u64,
    /// p99 latency over the settled window (last third — the diurnal
    /// shift has happened and migrations, if any, have completed), ns.
    pub settled_p99_ns: u64,
    /// Mean latency of served transactions, ns.
    pub mean_ns: u64,
}

/// Result of an elasticity run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticityResult {
    /// Whether live migration was enabled.
    pub adaptive: bool,
    /// Served statements across both tenants.
    pub queries: u64,
    /// Served transactions across both tenants.
    pub txns: u64,
    /// Per-tenant outcomes, tenant order.
    pub per_tenant: Vec<ElasticTenantOutcome>,
    /// Extent → owning tenant at the end of the run.
    pub final_owners: Vec<usize>,
    /// Migrations committed (extents moved).
    pub migrations: u64,
    /// Migration coordinator counters.
    pub elastic: ElasticStats,
    /// Fusion-server counters (includes `migrated_out`).
    pub fusion: FusionStats,
    /// Flat metrics export.
    pub registry: MetricsRegistry,
    /// Windowed per-node ops report (`None` when the window is ZERO).
    pub telemetry: Option<TelemetryReport>,
}

/// What a tenant's lane accumulates, plus its view of the partition —
/// refreshed by the barrier hook, read-only inside a phase.
#[derive(Default)]
struct Tenant {
    hist: Histogram,
    settled: Histogram,
    queries: u64,
    txns: u64,
    remote_reads: u64,
    remote_writes: u64,
    protected_writes: u64,
    /// Per-extent storage-direct statements this quantum (controller
    /// food; reset at each barrier).
    remote: Vec<u64>,
    /// Statements this quantum.
    q_ops: u64,
    /// Extent → owning tenant.
    owners: Vec<usize>,
    /// The write-protected (migrating) page range, if any.
    protected: Option<(PageId, u64)>,
}

fn elasticity_tcfg(cfg: &ElasticityConfig) -> TelemetryConfig {
    TelemetryConfig::new(cfg.telemetry_window, ELASTIC_TENANTS)
        .lanes(&["local", "remote"])
        .rule(
            SloRule::burn_rate("miss_burn", Metric::MissRate, MISS_BURN_SLO, 2, 4)
                .fire_after(1)
                .clear_after(2),
        )
}

/// The extents tenant `tenant` demands at virtual time `now`: tenant 0
/// fronts the first 3/4 of the row space in the first half of the run
/// and shrinks to the first 1/4 in the second; tenant 1 mirrors it.
fn demand_range(cfg: &ElasticityConfig, tenant: usize, now: SimTime) -> std::ops::Range<usize> {
    let e = EXTENTS;
    let hot = (e * 3) / 4;
    let cold = e / 4;
    let evening = now.as_nanos() >= cfg.duration.as_nanos() / 2;
    match (tenant, evening) {
        (0, false) => 0..hot,
        (1, false) => hot..e,
        (0, true) => 0..cold,
        (1, true) => cold..e,
        _ => 0..e,
    }
}

/// Run the diurnal-shift elasticity scenario.
pub fn run_elasticity(cfg: &ElasticityConfig) -> ElasticityResult {
    let n = ELASTIC_TENANTS;
    let layout = GroupLayout {
        groups: EXTENTS,
        rows_per_group: cfg.rows_per_group,
    };
    let ext_pages = layout.pages_per_group();
    let ext_bytes = ext_pages * PAGE_SIZE;
    let total_pages = layout.total_pages();
    // The migration journal sits behind the DBP slots and flag arrays.
    let journal_base = total_pages * (PAGE_SIZE + 16 * n as u64);
    let (mut fusion, mut nodes) =
        FusionCluster::with_nodes(&layout, n, CoherencyMode::SoftwareLines);
    // Initial partition matches first-half demand: tenant 0 owns the
    // first 3/4 of the extents, tenant 1 the rest. One manager lease
    // per extent over the page-address space, so every extent is an
    // independently migratable unit.
    let hot = (EXTENTS * 3) / 4;
    let initial_owner = |e: usize| -> usize { usize::from(e >= hot) };
    let mut mgr = CxlMemoryManager::new(total_pages * PAGE_SIZE);
    for e in 0..EXTENTS {
        let (lease, _) = mgr
            .allocate(NodeId(initial_owner(e)), ext_bytes, SimTime::ZERO)
            .expect("pool sized for every extent");
        debug_assert_eq!(lease.offset, e as u64 * ext_bytes);
    }
    // Each tenant resolves every page of its extents.
    for e in 0..EXTENTS {
        let pages = layout.group_pages(e).map(PageId);
        fusion.warm(&mut nodes[initial_owner(e)], pages, SimTime::ZERO);
    }

    let settle_from = SimTime(cfg.duration.as_nanos() * 2 / 3);
    let mut coord = MigrationCoordinator::new(NodeId(n), journal_base);
    let mut ctl = ElasticController::new((0..EXTENTS).map(initial_owner).collect(), n, ELASTIC);
    let tenants = (0..n)
        .map(|_| Tenant {
            remote: vec![0; EXTENTS],
            owners: ctl.owners().to_vec(),
            ..Tenant::default()
        })
        .collect();
    let faults = (0..n).map(|_| FaultState::inactive()).collect();
    let (tcfg, wpn) = (elasticity_tcfg(cfg), WORKERS_PER_NODE);
    let mut cluster = Cluster::new(fusion, nodes, tenants, faults, tcfg, wpn, cfg.seed);
    // This scenario defines a miss itself: a storage-direct statement.
    cluster.protocol_probe = false;
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }

    let payload = [0xE7u8; 96];
    let mut inflight: Option<MigrationRequest> = None;
    let mut migrations = 0u64;
    let telemetry_report = cluster.run(
        cfg.duration,
        QUANTUM,
        |ctx, w, start| {
            let i = ctx.lane;
            let demand = demand_range(cfg, i, start);
            let span = (demand.end - demand.start) as u64;
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            for _ in 0..4 {
                let (rng, owners) = (&mut ctx.rngs[w], &ctx.ext.owners);
                let background = rng.gen_range(0..100) < cfg.background_pct as u64;
                let e = if background {
                    // Residual trickle: a uniform pick over the
                    // extents this tenant currently owns.
                    let owned_cnt = owners.iter().filter(|&&o| o == i).count() as u64;
                    let k = rng.gen_range(0..owned_cnt.max(1)) as usize;
                    (0..owners.len())
                        .filter(|&e| owners[e] == i)
                        .nth(k)
                        .unwrap_or(demand.start)
                } else {
                    demand.start + rng.gen_range(0..span) as usize
                };
                let row = rng.gen_range(0..layout.rows_per_group);
                let (page, off) = layout.locate(e, row);
                let is_write = rng.gen_range(0..100) < cfg.write_pct as u64;
                let owned = owners[e] == i;
                let in_protected = (ctx.ext.protected)
                    .is_some_and(|(from, count)| page.0 >= from.0 && page.0 < from.0 + count);
                let s0 = t;
                if owned && is_write && in_protected {
                    // The migrating range is write-protected on the
                    // donor: refuse fast, client retries after the
                    // hand-off. Reads below keep flowing.
                    t = ctx.cpu.acquire(t, PROTECTED_WRITE_NS).end;
                    ctx.ext.protected_writes += 1;
                    ctx.probe.record_errs(0, t, 1);
                } else if owned {
                    t = if is_write {
                        ctx.locked_write_publish(page, off as u64 + 8, &payload, t)
                            .expect("no node of this cluster is ever fenced")
                    } else {
                        ctx.locked_read(page, off as u64 + 8, 96, t)
                    };
                    ctx.probe.record_op(0, t, t.saturating_since(s0));
                    ctx.probe.record_bytes(0, t, 96);
                } else {
                    // Foreign extent: storage-direct service — the
                    // thrash the controller exists to remove.
                    if is_write {
                        t = ctx.cpu.acquire(t, CPU_WRITE_STMT_NS).end + STORAGE_WRITE_NS;
                        ctx.ext.remote_writes += 1;
                    } else {
                        t = ctx.cpu.acquire(t, CPU_POINT_SELECT_NS).end + STORAGE_READ_NS;
                        ctx.ext.remote_reads += 1;
                    }
                    ctx.ext.remote[e] += 1;
                    ctx.probe.record_op(1, t, t.saturating_since(s0));
                    ctx.probe.record_misses(1, t, 1);
                }
                ctx.ext.queries += 1;
                ctx.ext.q_ops += 1;
            }
            ctx.ext.txns += 1;
            ctx.ext.hist.record(t - start);
            if start >= settle_from {
                ctx.ext.settled.record(t - start);
            }
            Step::Done(t)
        },
        |cl, now| {
            if !cfg.adaptive {
                return;
            }
            // Controller food: per-tenant per-extent remote ops and totals
            // for the quantum just ended, folded in node order.
            let mut remote_window: Vec<Vec<u64>> = Vec::with_capacity(n);
            let mut ops_window: Vec<u64> = Vec::with_capacity(n);
            for lp in cl.exts.iter_mut() {
                remote_window.push(std::mem::replace(&mut lp.remote, vec![0; EXTENTS]));
                ops_window.push(std::mem::take(&mut lp.q_ops));
            }
            // Both migration phases run with every shard merged back.
            if let Some(req) = inflight.take() {
                // COMMIT barrier: the intent journalled last barrier
                // goes through phase 2 while the lanes were serving
                // through the write-protected window.
                cl.merged(|cl| {
                    let (lo, hi) = cl.nodes.split_at_mut(1);
                    let (d, r) = match req.donor {
                        0 => (&mut lo[0], &mut hi[0]),
                        _ => (&mut hi[0], &mut lo[0]),
                    };
                    coord.commit(&mut cl.fabric.server, &mut mgr, d, r, now)
                })
                .expect("fault-free commit");
                ctl.apply(req);
                cl.refresh_dir();
                migrations += 1;
            } else {
                // Pressure: the telemetry burn-rate rule while the
                // window is on, OR the remote-share fallback
                // (deterministic from folded counters either way).
                let mut pressured = vec![false; n];
                for (t, p) in pressured.iter_mut().enumerate() {
                    let remote_total: u64 = remote_window[t].iter().sum();
                    let share_hit = remote_total * 100 > ops_window[t] * PRESSURE_PCT;
                    *p = share_hit || cl.hub.firing("miss_burn", t as u32);
                }
                if let Some(req) = ctl.tick(&pressured, &remote_window) {
                    // PREPARE barrier: journal the intent and flush the
                    // donor range; the next quantum runs with the range
                    // write-protected on the donor.
                    let plan = MigrationPlan {
                        donor: NodeId(req.donor),
                        recipient: NodeId(req.recipient),
                        from: PageId(layout.group_pages(req.extent).start),
                        count: ext_pages,
                        lease: mgr
                            .lease_at(req.extent as u64 * ext_bytes, ext_bytes)
                            .expect("every extent keeps its lease"),
                    };
                    cl.merged(|cl| coord.prepare(&mut cl.fabric.server, plan, now))
                        .expect("fault-free prepare");
                    inflight = Some(req);
                }
            }
            for lp in cl.exts.iter_mut() {
                lp.owners.clone_from_slice(ctl.owners());
                lp.protected = coord.protected();
            }
        },
    );

    // Partition sanity: slot conservation, lease invariants, and the
    // lease map agreeing with the controller's extent map.
    let server = &cluster.fabric.server;
    debug_assert_eq!(
        server.pages_in_use() + server.free_slots(),
        total_pages as usize,
        "DBP slot conservation"
    );
    mgr.check_invariants();
    for e in 0..EXTENTS {
        let lease = mgr
            .lease_at(e as u64 * ext_bytes, ext_bytes)
            .expect("every extent keeps its lease");
        assert_eq!(
            lease.client,
            NodeId(ctl.owner(e)),
            "lease owner and controller map agree for extent {e}"
        );
    }

    // Fold lanes in node order: outcomes and aggregates.
    let mut per_tenant = Vec::with_capacity(n);
    let mut queries = 0u64;
    let mut txns = 0u64;
    for (i, lp) in cluster.exts.iter().enumerate() {
        queries += lp.queries;
        txns += lp.txns;
        per_tenant.push(ElasticTenantOutcome {
            tenant: i,
            txns: lp.txns,
            queries: lp.queries,
            remote_reads: lp.remote_reads,
            remote_writes: lp.remote_writes,
            protected_writes: lp.protected_writes,
            p99_ns: lp.hist.quantile_ns(0.99),
            settled_p99_ns: lp.settled.quantile_ns(0.99),
            mean_ns: (lp.hist.mean_us() * 1_000.0).round() as u64,
        });
    }
    let fusion = server.stats();
    let elastic = coord.stats();
    let final_owners = ctl.owners().to_vec();

    let mut registry = MetricsRegistry::new();
    registry.set_int("elasticity_adaptive", cfg.adaptive as u64);
    registry.set_int("elasticity_queries", queries);
    registry.set_int("elasticity_txns", txns);
    registry.set_num(
        "elasticity_qps",
        queries as f64 / cfg.duration.as_secs_f64(),
    );
    registry.set_int("elasticity_migrations", migrations);
    registry.set_int("elasticity_rollbacks", elastic.rollbacks);
    registry.set_int("elasticity_pages_flushed", elastic.pages_flushed);
    registry.set_int(
        "elasticity_remote_reads",
        per_tenant.iter().map(|t| t.remote_reads).sum(),
    );
    registry.set_int(
        "elasticity_remote_writes",
        per_tenant.iter().map(|t| t.remote_writes).sum(),
    );
    registry.set_int(
        "elasticity_protected_writes",
        per_tenant.iter().map(|t| t.protected_writes).sum(),
    );
    for t in &per_tenant {
        registry.set_int(
            &format!("elasticity_t{}_settled_p99_ns", t.tenant),
            t.settled_p99_ns,
        );
        registry.set_int(&format!("elasticity_t{}_p99_ns", t.tenant), t.p99_ns);
    }
    registry.set_int("fusion_rpcs", fusion.rpcs);
    registry.set_int("fusion_storage_fills", fusion.storage_fills);
    registry.set_int("fusion_migrated_out", fusion.migrated_out);
    if let Some(rep) = telemetry_report.as_ref() {
        rep.register_into(&mut registry);
    }

    ElasticityResult {
        adaptive: cfg.adaptive,
        queries,
        txns,
        per_tenant,
        final_owners,
        migrations,
        elastic,
        fusion,
        registry,
        telemetry: telemetry_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(adaptive: bool) -> ElasticityConfig {
        let mut cfg = ElasticityConfig::smoke();
        cfg.adaptive = adaptive;
        cfg
    }

    #[test]
    fn adaptive_run_migrates_and_clears_the_thrash() {
        // Window on: the `miss_burn` rule and the remote-share threshold
        // both feed the controller. Window ZERO: the threshold alone.
        for window in [SimTime::from_millis(2), SimTime::ZERO] {
            let mut cfg = smoke_cfg(true);
            cfg.telemetry_window = window;
            let r = run_elasticity(&cfg);
            assert_eq!(r.telemetry.is_some(), window != SimTime::ZERO);
            // The diurnal flip moves exactly the extents tenant 1 newly
            // demands: 3/4·E − 1/4·E = E/2 of them.
            let expect = (EXTENTS * 3 / 4 - EXTENTS / 4) as u64;
            assert_eq!(r.migrations, expect, "owners: {:?}", r.final_owners);
            assert_eq!(r.elastic.commits, expect);
            assert_eq!(r.elastic.rollbacks, 0);
            assert!(r.fusion.migrated_out > 0, "pages handed off in place");
            // Post-shift ownership matches second-half demand exactly.
            let cold = EXTENTS / 4;
            for e in 0..EXTENTS {
                assert_eq!(r.final_owners[e], usize::from(e >= cold));
            }
            // Settled tails: both tenants inside the SLO once migration
            // has caught the partition up with demand.
            for t in &r.per_tenant {
                assert!(
                    t.settled_p99_ns <= SLO_P99_NS,
                    "window {window:?}: tenant {} settled p99 {} > SLO {}",
                    t.tenant,
                    t.settled_p99_ns,
                    SLO_P99_NS
                );
            }
        }
    }

    #[test]
    fn static_partition_thrashes_the_growing_tenant() {
        let r = run_elasticity(&smoke_cfg(false));
        assert_eq!(r.migrations, 0);
        // Tenant 1's second-half demand never fits its static share:
        // its settled p99 is storage-bound, far outside the SLO.
        assert!(
            r.per_tenant[1].settled_p99_ns > SLO_P99_NS,
            "static partition should thrash: settled p99 {}",
            r.per_tenant[1].settled_p99_ns
        );
        assert!(r.per_tenant[1].remote_reads > 0);
    }

    #[test]
    fn protected_window_refuses_donor_writes_but_serves_reads() {
        let mut cfg = smoke_cfg(true);
        // Plenty of writes and background traffic so the one-quantum
        // protect window between PREPARE and COMMIT is hit.
        cfg.write_pct = 50;
        cfg.background_pct = 30;
        let r = run_elasticity(&cfg);
        assert!(r.migrations > 0);
        let refused: u64 = r.per_tenant.iter().map(|t| t.protected_writes).sum();
        assert!(
            refused > 0,
            "the write-protected window must be observable under a 40% write mix"
        );
    }
}
