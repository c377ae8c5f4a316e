//! Noisy-neighbor overload scenario: one zipfian-burst aggressor tenant
//! vs N well-behaved victim tenants on the fusion cluster.
//!
//! Tenant = database node. Node 0 is the aggressor: a low-priority
//! tenant that fires square-wave bursts of X-writes at the zipf-hot
//! rows of the shared group. Nodes 1..N are victims running read-only
//! point selects (partly on the same shared hot set). Without QoS the
//! aggressor's exclusive locks on the hot pages inflate every victim's
//! tail latency — the whole cluster browns out. With QoS enabled three
//! layers engage, in order of cost:
//!
//! 1. **Admission** ([`simkit::qos::Admission`]): every transaction is
//!    checked against its tenant's token bucket and latency-EWMA
//!    deadline *before* any CPU, lock, or fabric work. Shed work costs
//!    one rejection round-trip, nothing else.
//! 2. **Circuit breaker** ([`simkit::qos::CircuitBreaker`]): each lane
//!    polls its fabric link health before touching the CXL path. A
//!    down link burns one retry, trips the breaker, and subsequent
//!    transactions fast-fail to storage-direct service with no retry
//!    burn until a half-open probe sees the link healthy again.
//! 3. **Brownout** (driver, at barriers): when a victim's windowed p99
//!    burn-rate rule fires — or CXL-pool occupancy crosses the
//!    configured ceiling — the lowest-priority tenant is degraded to
//!    storage-direct service ([`polarcxlmem::FusionServer::set_brownout`]) and its
//!    exclusive buffer-pool share is shrunk
//!    ([`polarcxlmem::FusionServer::shrink_node_share`]). Restoration is hysteretic:
//!    only after [`CLEAR_QUANTA`] consecutive clear
//!    quanta does the tenant return to fabric service (its pages are
//!    re-resolved serially, so no RPC happens inside a parallel phase).
//!
//! Every QoS decision is a function of virtual time, per-node state and
//! lane order only, so a rerun is bit-identical.

use crate::cluster::{Cluster, FusionCluster};
use crate::sharing::{exec_op, GroupLayout, ShOp};
use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_REFUSE_NS, STORAGE_READ_NS,
};
use memsim::NodeId;
use polarcxlmem::fusion::CoherencyMode;
use polarcxlmem::FusionStats;
use simkit::faults::{self, Action, FaultPlan, FaultSite, FaultState, LinkHealth, Trigger};
use simkit::qos::{
    Admission, AdmissionStats, BreakerConfig, BreakerStats, CircuitBreaker, Decision, QosConfig,
    TenantClass,
};
use simkit::rng::{SimRng, Zipf};
use simkit::telemetry::{Metric, SloRule, TelemetryConfig, TelemetryReport};
use simkit::{Histogram, MetricsRegistry, SimTime, Step};

/// CPU + client turnaround charged to a shed transaction: the node
/// rejects at admission (no locks, no fabric) and the closed-loop
/// client backs off before retrying.
pub const SHED_SERVICE_NS: u64 = 50_000;

/// Virtual-time barrier quantum.
pub const QUANTUM: SimTime = SimTime::from_micros(200);

/// Closed-loop workers per node.
pub const WORKERS_PER_NODE: usize = 4;

/// Admission contract for victims (tenants 1..N).
pub const VICTIM_CLASS: TenantClass = TenantClass {
    ops_per_sec: 200_000,
    burst: 1_000,
    deadline_ns: 5_000_000,
    priority: 1,
};

/// Victim p99 SLO (ns); feeds the `p99_slow` burn-rate rule.
pub const SLO_P99_NS: u64 = 800_000;

/// Percent of victim statements aimed at the shared hot set.
pub const SHARED_READ_PCT: u32 = 60;

/// Zipf skew over shared-group rows (rank 0 = hottest).
pub const ZIPF_THETA: f64 = 0.99;

/// Total DBP pages the browned tenant keeps. Pages shared with other
/// tenants are pinned by them and set the floor — a request below the
/// floor is clamped (typed `ShrinkError`, counted in
/// `fusion_brownout_clamped`).
pub const BROWNOUT_KEEP: usize = 2;

/// Consecutive clear quanta required before brownout is lifted.
pub const CLEAR_QUANTA: u32 = 10;

/// One deterministic link-flap fault for the breaker scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlapSpec {
    /// Host (= tenant lane) whose CXL link flaps.
    pub host: u32,
    /// Virtual time the outage starts.
    pub at: SimTime,
    /// Outage duration, ns.
    pub down_ns: u64,
    /// Backoff burned per failed attempt, ns.
    pub retry_ns: u64,
}

/// Overload experiment configuration.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Tenants (= nodes), including the aggressor at index 0.
    pub tenants: usize,
    /// Rows per table group (tenants + 1 groups; the last is shared).
    pub rows_per_group: u64,
    /// Measured window.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
    /// Telemetry window width (ZERO disables probes and with them the
    /// p99-driven brownout rule; the occupancy rule still works).
    pub telemetry_window: SimTime,
    /// Master switch: admission + breaker + brownout. Off = baseline.
    pub qos: bool,
    /// Admission contract for the aggressor (tenant 0).
    pub aggressor_class: TenantClass,
    /// Aggressor burst square-wave period, ns of virtual time.
    pub burst_period: u64,
    /// Leading slice of each period the aggressor bursts for, ns.
    pub burst_on: u64,
    /// X-writes per aggressor transaction while bursting.
    pub burst_writes: usize,
    /// Optional link flap for the breaker scenario.
    pub link_flap: Option<FlapSpec>,
    /// Brown out when DBP occupancy exceeds this percentage. The
    /// default (101) disables the occupancy rule — this harness warms
    /// every page, so occupancy sits at 100% by construction.
    pub occupancy_max_pct: u32,
}

impl OverloadConfig {
    /// Standard scaled-down setup for `tenants` tenants (>= 2).
    pub fn standard(tenants: usize) -> Self {
        assert!(tenants >= 2, "need an aggressor and at least one victim");
        OverloadConfig {
            tenants,
            rows_per_group: 2_000,
            duration: SimTime::from_millis(60),
            seed: 17,
            telemetry_window: SimTime::from_millis(2),
            qos: true,
            aggressor_class: TenantClass::new(300, 4, 600_000).low_priority(),
            burst_period: 10_000_000,
            burst_on: 5_000_000,
            burst_writes: 8,
            link_flap: None,
            occupancy_max_pct: 101,
        }
    }

    /// Small fast config for CI smoke runs and tests.
    pub fn smoke(tenants: usize) -> Self {
        let mut cfg = OverloadConfig::standard(tenants);
        cfg.rows_per_group = 1_000;
        cfg.duration = SimTime::from_millis(24);
        cfg.burst_period = 8_000_000;
        cfg.burst_on = 4_000_000;
        cfg
    }
}

/// Per-tenant outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant id (= node id).
    pub tenant: usize,
    /// Served transactions (admitted + degraded).
    pub txns: u64,
    /// Served statements.
    pub queries: u64,
    /// Transactions shed at admission (rate + deadline).
    pub shed_txns: u64,
    /// Transactions served storage-direct under brownout.
    pub browned_txns: u64,
    /// Transactions served storage-direct because the lane's fabric
    /// breaker was open (or tripped on this very transaction).
    pub breaker_fallbacks: u64,
    /// Writes refused while the tenant was degraded to read-only.
    pub refused_writes: u64,
    /// p99 latency of served transactions, ns.
    pub p99_ns: u64,
    /// Mean latency of served transactions, ns.
    pub mean_ns: u64,
    /// Admission counters for this tenant.
    pub admission: AdmissionStats,
    /// This lane's fabric-breaker counters.
    pub breaker: BreakerStats,
}

/// Result of an overload run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadResult {
    /// Served statements across all tenants.
    pub queries: u64,
    /// Served transactions across all tenants.
    pub txns: u64,
    /// Per-tenant outcomes, tenant order.
    pub per_tenant: Vec<TenantOutcome>,
    /// Aggregate admission counters.
    pub admission: AdmissionStats,
    /// Aggregate breaker counters (all lanes folded).
    pub breaker: BreakerStats,
    /// Times the driver browned the aggressor out.
    pub brownout_entries: u64,
    /// Times brownout was lifted after the hysteresis window.
    pub brownout_exits: u64,
    /// Worst victim p99 (max over tenants 1..N), ns.
    pub victim_p99_ns: u64,
    /// Aggressor p99, ns.
    pub aggressor_p99_ns: u64,
    /// Distributed lock acquisitions that had to wait.
    pub lock_contended: u64,
    /// Fusion-server counters (includes brownout entries/reclaims).
    pub fusion: FusionStats,
    /// Flat metrics export.
    pub registry: MetricsRegistry,
    /// Windowed per-node ops report (`None` when the window is ZERO).
    pub telemetry: Option<TelemetryReport>,
}

/// What a tenant's lane accumulates, plus the admission gate and fabric
/// breaker it owns; the driver flips brownout flags serially at
/// barriers.
struct Tenant {
    hist: Histogram,
    queries: u64,
    txns: u64,
    shed_txns: u64,
    browned_txns: u64,
    breaker_fallbacks: u64,
    refused_writes: u64,
    adm: Admission,
    breaker: CircuitBreaker,
    /// The transaction being executed (buffer reused across steps).
    ops: Vec<ShOp>,
}

fn qos_config(cfg: &OverloadConfig) -> QosConfig {
    let mut q = QosConfig::new().tenant(cfg.aggressor_class);
    for _ in 1..cfg.tenants {
        q = q.tenant(VICTIM_CLASS);
    }
    q
}

fn overload_tcfg(cfg: &OverloadConfig) -> TelemetryConfig {
    TelemetryConfig::new(cfg.telemetry_window, cfg.tenants)
        .lanes(&["private", "shared"])
        .rule(
            SloRule::burn_rate("p99_slow", Metric::P99Ns, SLO_P99_NS as f64, 2, 4)
                .fire_after(1)
                .clear_after(2),
        )
}

/// Generate one transaction for tenant `i`. Victims issue 4 point
/// selects; the aggressor issues 2 private reads off-burst and
/// `burst_writes` zipf-hot shared X-writes while bursting.
fn gen_txn(
    cfg: &OverloadConfig,
    layout: &GroupLayout,
    zipf: &Zipf,
    rng: &mut SimRng,
    i: usize,
    start: SimTime,
    ops: &mut Vec<ShOp>,
) {
    ops.clear();
    let shared = layout.groups - 1;
    if i == 0 {
        let in_burst = start.as_nanos() % cfg.burst_period < cfg.burst_on;
        if in_burst {
            for _ in 0..cfg.burst_writes {
                let (page, off) = layout.locate(shared, zipf.sample(rng));
                ops.push(ShOp::Write {
                    page,
                    off: off + 8,
                    len: 120,
                });
            }
        } else {
            for _ in 0..2 {
                let row = rng.gen_range(0..layout.rows_per_group);
                let (page, off) = layout.locate(0, row);
                ops.push(ShOp::Read {
                    page,
                    off: off + 8,
                    len: 120,
                });
            }
        }
    } else {
        for _ in 0..4 {
            let (group, row) = if rng.gen_range(0..100) < SHARED_READ_PCT {
                (shared, zipf.sample(rng))
            } else {
                (i, rng.gen_range(0..layout.rows_per_group))
            };
            let (page, off) = layout.locate(group, row);
            ops.push(ShOp::Read {
                page,
                off: off + 8,
                len: 120,
            });
        }
    }
}

/// Run the noisy-neighbor overload scenario on the fusion cluster.
pub fn run_overload(cfg: &OverloadConfig) -> OverloadResult {
    let n = cfg.tenants;
    assert!(n >= 2, "need an aggressor and at least one victim");
    let layout = GroupLayout {
        groups: n + 1,
        rows_per_group: cfg.rows_per_group,
    };
    let (mut fusion, mut nodes) =
        FusionCluster::with_nodes(&layout, n, CoherencyMode::SoftwareLines);
    fusion.warm_home(&mut nodes, &layout);

    let qcfg = qos_config(cfg);
    let zipf = Zipf::new(cfg.rows_per_group, ZIPF_THETA);
    // One fault plan per lane; a configured flap lands on its host's
    // lane so the outage is visible exactly where that tenant steps.
    let mut lane_plans: Vec<FaultPlan> = (0..n).map(|_| FaultPlan::default()).collect();
    if let Some(flap) = cfg.link_flap {
        assert!((flap.host as usize) < n, "flap host must be a tenant lane");
        lane_plans[flap.host as usize] = std::mem::take(&mut lane_plans[flap.host as usize]).with(
            Trigger::At(flap.at),
            Action::LinkFlap {
                host: flap.host,
                down_ns: flap.down_ns,
                retry_ns: flap.retry_ns,
            },
        );
    }
    let tenants = (0..n)
        .map(|_| Tenant {
            hist: Histogram::new(),
            queries: 0,
            txns: 0,
            shed_txns: 0,
            browned_txns: 0,
            breaker_fallbacks: 0,
            refused_writes: 0,
            adm: Admission::new(&qcfg),
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            ops: Vec::with_capacity(16),
        })
        .collect();
    let faults = lane_plans.into_iter().map(FaultState::prepared).collect();
    let (tcfg, wpn) = (overload_tcfg(cfg), WORKERS_PER_NODE);
    let mut cluster = Cluster::new(fusion, nodes, tenants, faults, tcfg, wpn, cfg.seed);
    for i in 0..n {
        cluster.activate(i, SimTime::ZERO);
    }

    let shared_start = layout.group_pages(n).start;
    let payload = [0xA6u8; 120];
    let mut browned_now = false;
    let mut clear_streak = 0u32;
    let mut brownout_entries = 0u64;
    let mut brownout_exits = 0u64;
    let telemetry_report = cluster.run(
        cfg.duration,
        QUANTUM,
        |ctx, w, start| {
            let i = ctx.lane;
            // Layer 1: admission — before any CPU, lock, or fabric
            // work. Shed transactions burn one rejection turnaround.
            let dec = if cfg.qos {
                ctx.ext.adm.admit(i, start)
            } else {
                Decision::Admit
            };
            if matches!(dec, Decision::ShedRate | Decision::ShedDeadline) {
                ctx.ext.shed_txns += 1;
                let t = start + SHED_SERVICE_NS;
                ctx.probe.record_errs(0, t, 1);
                return Step::Done(t);
            }
            let mut ops = std::mem::take(&mut ctx.ext.ops);
            gen_txn(cfg, &layout, &zipf, &mut ctx.rngs[w], i, start, &mut ops);
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            // Layer 2: the lane's fabric breaker. An open breaker
            // fast-fails to storage-direct with no retry burn; a
            // down link burns exactly one retry, then trips.
            let mut storage_direct = matches!(dec, Decision::Brownout);
            if storage_direct {
                ctx.ext.browned_txns += 1;
            } else if cfg.qos {
                if !ctx.ext.breaker.allow(t) {
                    ctx.ext.breaker_fallbacks += 1;
                    storage_direct = true;
                } else {
                    match faults::link_health(FaultSite::CxlLink, i as u32, t) {
                        LinkHealth::Down { retry_ns, .. } => {
                            t += retry_ns;
                            ctx.ext.breaker.on_failure(t);
                            ctx.ext.breaker_fallbacks += 1;
                            storage_direct = true;
                        }
                        _ => ctx.ext.breaker.on_success(t),
                    }
                }
            }
            for &op in &ops {
                if !storage_direct {
                    t = exec_op(ctx, op, &payload, shared_start, t);
                    ctx.ext.queries += 1;
                    continue;
                }
                // Degraded service: reads bypass locks and the fabric
                // entirely; writes are refused (retryable).
                let s0 = t;
                match op {
                    ShOp::Read { page, .. } => {
                        t = ctx.cpu.acquire(t, CPU_POINT_SELECT_NS).end + STORAGE_READ_NS;
                        ctx.ext.queries += 1;
                        let lane_ix = (page.0 >= shared_start) as usize;
                        ctx.probe.record_op(lane_ix, t, t.saturating_since(s0));
                    }
                    ShOp::Write { page, .. } => {
                        t = ctx.cpu.acquire(t, CPU_WRITE_REFUSE_NS).end;
                        ctx.ext.refused_writes += 1;
                        let lane_ix = (page.0 >= shared_start) as usize;
                        ctx.probe.record_errs(lane_ix, t, 1);
                    }
                }
            }
            ctx.ext.ops = ops;
            if cfg.qos && !matches!(dec, Decision::Brownout) {
                ctx.ext.adm.observe(i, t.saturating_since(start));
            }
            ctx.ext.txns += 1;
            ctx.ext.hist.record(t - start);
            Step::Done(t)
        },
        // Layer 3: brownout controller — serial, virtual-time driven.
        |cl, now| {
            if !cfg.qos {
                return;
            }
            let server = &mut cl.fabric.server;
            let slots = server.pages_in_use() + server.free_slots();
            let occ_pct = (server.pages_in_use() * 100 / slots.max(1)) as u32;
            let pressure = occ_pct > cfg.occupancy_max_pct
                || (1..n).any(|v| cl.hub.firing("p99_slow", v as u32));
            if pressure && !browned_now {
                browned_now = true;
                brownout_entries += 1;
                clear_streak = 0;
                server.set_brownout(NodeId(0), true);
                // A clamp (share request below the tenant's pinned
                // pages) is expected under brownout: the shrink still
                // recycled every exclusive page and counted the clamp
                // into `FusionStats::brownout_clamped` for the registry.
                if let Err(clamp) = server.shrink_node_share(NodeId(0), BROWNOUT_KEEP, now) {
                    debug_assert!(clamp.achievable > BROWNOUT_KEEP);
                }
                cl.refresh_dir();
                cl.exts[0].adm.set_brownout(0, true);
            } else if browned_now {
                clear_streak = if pressure { 0 } else { clear_streak + 1 };
                if clear_streak >= CLEAR_QUANTA {
                    browned_now = false;
                    brownout_exits += 1;
                    server.set_brownout(NodeId(0), false);
                    cl.exts[0].adm.set_brownout(0, false);
                    // Re-warm the restored tenant serially: its recycled
                    // pages carry removal flags, and resolving them here
                    // keeps RPCs out of the parallel phase.
                    cl.rewarm(0, layout.home_pages(0), now);
                    cl.refresh_dir();
                }
            }
        },
    );

    // Fold lanes in node order: outcomes and aggregates.
    let mut per_tenant = Vec::with_capacity(n);
    let mut hist = Histogram::new();
    let mut admission = AdmissionStats::default();
    let mut breaker = BreakerStats::default();
    let mut queries = 0u64;
    let mut txns = 0u64;
    for (i, lp) in cluster.exts.iter().enumerate() {
        let a = lp.adm.stats(i);
        let b = lp.breaker.stats();
        admission.absorb(&a);
        breaker.trips += b.trips;
        breaker.fast_fails += b.fast_fails;
        breaker.probes += b.probes;
        breaker.recoveries += b.recoveries;
        queries += lp.queries;
        txns += lp.txns;
        per_tenant.push(TenantOutcome {
            tenant: i,
            txns: lp.txns,
            queries: lp.queries,
            shed_txns: lp.shed_txns,
            browned_txns: lp.browned_txns,
            breaker_fallbacks: lp.breaker_fallbacks,
            refused_writes: lp.refused_writes,
            p99_ns: lp.hist.quantile_ns(0.99),
            mean_ns: (lp.hist.mean_us() * 1_000.0).round() as u64,
            admission: a,
            breaker: b,
        });
        hist.merge(&lp.hist);
    }
    let (server, locks) = (&cluster.fabric.server, &cluster.locks);
    let victim_p99_ns = per_tenant[1..].iter().map(|t| t.p99_ns).max().unwrap_or(0); // lint: order-insensitive
    let aggressor_p99_ns = per_tenant[0].p99_ns;
    let fusion = server.stats();
    debug_assert_eq!(
        server.pages_in_use() + server.free_slots(),
        layout.total_pages() as usize,
        "DBP slot conservation"
    );

    let mut registry = MetricsRegistry::new();
    registry.set_int("overload_qos_enabled", cfg.qos as u64);
    registry.set_int("overload_queries", queries);
    registry.set_int("overload_txns", txns);
    registry.set_num("overload_qps", queries as f64 / cfg.duration.as_secs_f64());
    registry.set_int("overload_admitted", admission.admitted);
    registry.set_int("overload_shed_rate", admission.shed_rate);
    registry.set_int("overload_shed_deadline", admission.shed_deadline);
    registry.set_int("overload_browned_ops", admission.browned);
    registry.set_int(
        "overload_refused_writes",
        per_tenant.iter().map(|t| t.refused_writes).sum(),
    );
    registry.set_int("overload_victim_p99_ns", victim_p99_ns);
    registry.set_int("overload_aggressor_p99_ns", aggressor_p99_ns);
    registry.set_int("overload_brownout_entries", brownout_entries);
    registry.set_int("overload_brownout_exits", brownout_exits);
    registry.set_int("overload_breaker_trips", breaker.trips);
    registry.set_int("overload_breaker_fast_fails", breaker.fast_fails);
    registry.set_int("overload_breaker_probes", breaker.probes);
    registry.set_int("overload_breaker_recoveries", breaker.recoveries);
    registry.set_int("overload_lock_contended", locks.contended());
    registry.set_histogram("overload_latency", &hist);
    registry.set_int("fusion_rpcs", fusion.rpcs);
    registry.set_int("fusion_invalidations", fusion.invalidations);
    registry.set_int("fusion_storage_fills", fusion.storage_fills);
    registry.set_int("fusion_brownouts", fusion.brownouts);
    registry.set_int("fusion_brownout_reclaims", fusion.brownout_reclaims);
    registry.set_int("fusion_brownout_clamped", fusion.brownout_clamped);
    if let Some(rep) = telemetry_report.as_ref() {
        rep.register_into(&mut registry);
    }

    OverloadResult {
        queries,
        txns,
        per_tenant,
        admission,
        breaker,
        brownout_entries,
        brownout_exits,
        victim_p99_ns,
        aggressor_p99_ns,
        lock_contended: locks.contended(),
        fusion,
        registry,
        telemetry: telemetry_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::MetricValue;

    fn smoke(qos: bool) -> OverloadResult {
        let mut cfg = OverloadConfig::smoke(3);
        cfg.qos = qos;
        run_overload(&cfg)
    }

    #[test]
    fn qos_off_is_a_clean_baseline() {
        let r = smoke(false);
        assert!(r.txns > 0 && r.queries > 0);
        assert_eq!(r.admission, AdmissionStats::default());
        assert_eq!(r.breaker, BreakerStats::default());
        assert_eq!(r.brownout_entries, 0);
        assert_eq!(r.fusion.brownouts, 0);
        assert_eq!(
            r.registry.get("overload_qos_enabled"),
            Some(MetricValue::Int(0))
        );
    }

    #[test]
    fn qos_shields_victims_from_the_noisy_neighbor() {
        let on = smoke(true);
        let off = smoke(false);
        assert!(on.txns > 0 && off.txns > 0);
        assert!(
            on.admission.shed() > 0,
            "the bursting aggressor must get shed at admission"
        );
        assert_eq!(
            on.per_tenant[1].shed_txns + on.per_tenant[2].shed_txns,
            0,
            "well-behaved victims are never shed"
        );
        assert!(
            on.victim_p99_ns < off.victim_p99_ns,
            "QoS must improve victim tail latency: on {} >= off {}",
            on.victim_p99_ns,
            off.victim_p99_ns
        );
    }

    #[test]
    fn occupancy_rule_browns_out_the_low_priority_tenant() {
        // Every page is warmed, so occupancy is 100% by construction;
        // a 50% ceiling forces a brownout at the first barrier that
        // never clears.
        let mut cfg = OverloadConfig::smoke(3);
        cfg.occupancy_max_pct = 50;
        cfg.telemetry_window = SimTime::ZERO; // occupancy alone drives it
        let r = run_overload(&cfg);
        assert_eq!(r.brownout_entries, 1);
        assert_eq!(r.brownout_exits, 0);
        assert_eq!(r.fusion.brownouts, 1);
        assert!(r.fusion.brownout_reclaims > 0, "exclusive share shrinks");
        assert!(
            r.fusion.brownout_clamped >= 1,
            "keep=2 sits below the shared-group pin floor: the clamp is typed and counted"
        );
        assert_eq!(
            r.registry
                .get("fusion_brownout_clamped")
                .map(|v| v.as_u64()),
            Some(r.fusion.brownout_clamped),
            "clamp counter exported to the registry"
        );
        assert!(
            r.per_tenant[0].browned_txns > 0,
            "aggressor serves storage-direct"
        );
        assert!(
            r.per_tenant[0].refused_writes > 0,
            "browned tenant is read-only"
        );
        assert_eq!(
            r.per_tenant[1].browned_txns + r.per_tenant[2].browned_txns,
            0,
            "victims keep fabric service"
        );
    }

    #[test]
    fn breaker_trips_and_recovers_on_a_link_flap() {
        let mut cfg = OverloadConfig::smoke(3);
        cfg.link_flap = Some(FlapSpec {
            host: 1,
            at: SimTime::from_millis(6),
            down_ns: 4_000_000,
            retry_ns: 100_000,
        });
        let r = run_overload(&cfg);
        let victim = &r.per_tenant[1];
        assert!(victim.breaker.trips >= 1, "breaker must trip: {victim:?}");
        assert!(
            victim.breaker.fast_fails > 0,
            "open breaker must fast-fail instead of burning retries"
        );
        assert!(
            victim.breaker.recoveries >= 1,
            "half-open probe must close the breaker after heal"
        );
        assert!(victim.breaker_fallbacks > 0);
        // The untouched lanes' breakers never move.
        assert_eq!(r.per_tenant[2].breaker.trips, 0);
        assert_eq!(r.per_tenant[0].breaker.trips, 0);
    }

    #[test]
    fn sustained_burst_browns_out_and_hysteresis_restores() {
        // One long burst up front, then calm: the p99 burn-rate rule
        // browns the aggressor out, and after the rule clears the
        // hysteresis window restores it. An unthrottled aggressor
        // class keeps admission from defusing the burst first.
        let mut cfg = OverloadConfig::smoke(3);
        cfg.duration = SimTime::from_millis(40);
        cfg.burst_period = 80_000_000;
        cfg.burst_on = 10_000_000;
        cfg.burst_writes = 12;
        cfg.aggressor_class = TenantClass::new(500_000, 1_000, 50_000_000).low_priority();
        let r = run_overload(&cfg);
        assert!(
            r.brownout_entries >= 1,
            "p99 rule must brown the aggressor out: {:?}",
            r.telemetry.as_ref().map(|t| t.alert_fires())
        );
        assert!(
            r.brownout_exits >= 1,
            "calm period must restore the aggressor (entries {})",
            r.brownout_entries
        );
        assert!(r.per_tenant[0].browned_txns > 0);
        assert!(r.fusion.brownout_reclaims > 0);
        let rep = r.telemetry.as_ref().expect("telemetry window is on");
        assert!(rep.alert_fires() > 0, "the p99_slow rule fired");
    }
}
