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
//! With `adaptive` on, the barrier hook runs a [`Rebalancer`]: its
//! controller watches per-tenant miss pressure (the share of a quantum
//! served storage-direct, read from the lanes' own counters) and each
//! plan runs
//! the two-phase lease migration — PREPARE (journal + write-protect +
//! flush) at one barrier, COMMIT (reassign + hand-off + bulk adopt +
//! retire) at the next, with both tenants serving through the
//! write-protected window. With `adaptive` off the partition
//! is static and the growing tenant thrashes on storage for the whole
//! second half.
//!
//! Everything is a function of virtual time, per-node state and lane
//! order, so a rerun is bit-identical.

use crate::cluster::{Cluster, FusionCluster};
use crate::control::{Partition, Rebalancer};
use crate::sharing::GroupLayout;
use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_REFUSE_NS, CPU_WRITE_STMT_NS,
    STORAGE_READ_NS, STORAGE_WRITE_NS,
};
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::{ElasticConfig, ElasticStats, FusionStats};
use simkit::faults::FaultState;
use simkit::{Histogram, MetricsRegistry, SimTime, Step};

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
#[derive(Debug, Clone, Default, PartialEq)]
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
}

/// What a tenant's lane accumulates — its outcome's counters and two
/// latency histograms — plus its view of the partition.
#[derive(Default)]
struct Tenant {
    out: ElasticTenantOutcome,
    hist: Histogram,
    settled: Histogram,
    part: Partition,
}

/// The extents tenant `tenant` demands at virtual time `now`: tenant 0
/// fronts the first 3/4 of the row space in the first half of the run
/// and shrinks to the first 1/4 in the second; tenant 1 mirrors it.
fn demand_range(cfg: &ElasticityConfig, tenant: usize, now: SimTime) -> std::ops::Range<usize> {
    let evening = now.as_nanos() >= cfg.duration.as_nanos() / 2;
    let cut = EXTENTS * if evening { 1 } else { 3 } / 4;
    if tenant == 0 {
        0..cut
    } else {
        cut..EXTENTS
    }
}

/// Run the diurnal-shift elasticity scenario.
pub fn run_elasticity(cfg: &ElasticityConfig) -> ElasticityResult {
    let n = ELASTIC_TENANTS;
    let layout = GroupLayout {
        groups: EXTENTS,
        rows_per_group: cfg.rows_per_group,
    };
    let (mut fusion, mut nodes) =
        FusionCluster::with_nodes(&layout, n, CoherencyMode::SoftwareLines);
    // Initial partition matches first-half demand: tenant 0 owns the
    // first 3/4 of the extents, tenant 1 the rest. One manager lease
    // per extent over the page-address space, so every extent is an
    // independently migratable unit, resolved on its owner.
    let owners = (0..EXTENTS)
        .map(|e| usize::from(e >= EXTENTS * 3 / 4))
        .collect();
    let mut reb = Rebalancer::new(&mut fusion, &mut nodes, layout, owners, n, ELASTIC);

    let settle_from = SimTime(cfg.duration.as_nanos() * 2 / 3);
    let tenants = (0..n)
        .map(|_| Tenant {
            part: reb.partition(),
            ..Tenant::default()
        })
        .collect();
    let faults = (0..n).map(|_| FaultState::inactive()).collect();
    let wpn = WORKERS_PER_NODE;
    let mut cluster = Cluster::new(fusion, nodes, tenants, faults, wpn, cfg.seed);
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }

    let payload = [0xE7u8; 96];
    cluster.run(
        cfg.duration,
        QUANTUM,
        |ctx, w, start| {
            let i = ctx.lane;
            let demand = demand_range(cfg, i, start);
            let span = (demand.end - demand.start) as u64;
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            for _ in 0..4 {
                let (rng, owners) = (&mut ctx.rngs[w], &ctx.ext.part.owners);
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
                let in_protected = ctx.ext.part.protects(page);
                if owned && is_write && in_protected {
                    // The migrating range is write-protected on the
                    // donor: refuse fast, client retries after the
                    // hand-off. Reads below keep flowing.
                    t = ctx.cpu.acquire(t, CPU_WRITE_REFUSE_NS).end;
                    ctx.ext.out.protected_writes += 1;
                } else if owned {
                    t = if is_write {
                        ctx.locked_write_publish(page, off as u64 + 8, &payload, t)
                            .expect("no node of this cluster is ever fenced")
                    } else {
                        ctx.locked_read(page, off as u64 + 8, 96, t)
                    };
                } else {
                    // Foreign extent: storage-direct service — the
                    // thrash the controller exists to remove.
                    if is_write {
                        t = ctx.cpu.acquire(t, CPU_WRITE_STMT_NS).end + STORAGE_WRITE_NS;
                        ctx.ext.out.remote_writes += 1;
                    } else {
                        t = ctx.cpu.acquire(t, CPU_POINT_SELECT_NS).end + STORAGE_READ_NS;
                        ctx.ext.out.remote_reads += 1;
                    }
                    ctx.ext.part.remote[e] += 1;
                }
                ctx.ext.out.queries += 1;
                ctx.ext.part.q_ops += 1;
            }
            ctx.ext.out.txns += 1;
            ctx.ext.hist.record(t - start);
            if start >= settle_from {
                ctx.ext.settled.record(t - start);
            }
            Step::Done(t)
        },
        |cl, now| {
            if cfg.adaptive {
                reb.observe(cl, |x| &mut x.part);
                reb.step(cl, now, |x| &mut x.part);
            }
        },
    );

    reb.audit(&cluster);

    // Fold lanes in node order: outcomes and aggregates.
    let per_tenant: Vec<ElasticTenantOutcome> = (cluster.exts.iter().enumerate())
        .map(|(tenant, lp)| ElasticTenantOutcome {
            tenant,
            p99_ns: lp.hist.quantile_ns(0.99),
            settled_p99_ns: lp.settled.quantile_ns(0.99),
            mean_ns: (lp.hist.mean_us() * 1_000.0).round() as u64,
            ..lp.out.clone()
        })
        .collect();
    let total = |count: fn(&ElasticTenantOutcome) -> u64| per_tenant.iter().map(count).sum();
    let (queries, txns) = (total(|t| t.queries), total(|t| t.txns));
    let fusion = cluster.fabric.server.stats();
    let elastic = reb.coord.stats();
    let final_owners = reb.ctl.owners().to_vec();
    let migrations = reb.ctl.moves();

    let mut registry = MetricsRegistry::new();
    registry.set_int("elasticity_adaptive", cfg.adaptive as u64);
    registry.set_int("elasticity_queries", queries);
    registry.set_int("elasticity_txns", txns);
    let qps = queries as f64 / cfg.duration.as_secs_f64();
    registry.set_num("elasticity_qps", qps);
    registry.set_int("elasticity_migrations", migrations);
    registry.set_int("elasticity_rollbacks", elastic.rollbacks);
    registry.set_int("elasticity_pages_flushed", elastic.pages_flushed);
    registry.set_int("elasticity_remote_reads", total(|t| t.remote_reads));
    registry.set_int("elasticity_remote_writes", total(|t| t.remote_writes));
    registry.set_int("elasticity_protected_writes", total(|t| t.protected_writes));
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
        let r = run_elasticity(&smoke_cfg(true));
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
        // Settled tails: both tenants inside the SLO once migration has
        // caught the partition up with demand.
        for t in &r.per_tenant {
            assert!(
                t.settled_p99_ns <= SLO_P99_NS,
                "tenant {} settled p99 {} > SLO {}",
                t.tenant,
                t.settled_p99_ns,
                SLO_P99_NS
            );
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
