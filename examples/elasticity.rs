//! Crash-safe online elasticity demo: live CXL re-partitioning via the
//! two-phase lease-migration protocol, under a diurnal two-tenant shift.
//!
//! Two runs of the same cluster:
//!
//! 1. **Adaptive** — the elastic controller watches per-tenant miss
//!    pressure at quantum barriers and live-migrates extents from the
//!    shrinking tenant to the growing one (PREPARE at one barrier,
//!    COMMIT at the next, both tenants serving through the
//!    write-protected window). After the diurnal flip both tenants'
//!    settled p99 stays inside the SLO.
//! 2. **Static** — the same flip with migration disabled: the growing
//!    tenant serves most of its demand storage-direct for the whole
//!    second half and its settled p99 blows through the SLO.
//!
//! Run with: `cargo run --release --example elasticity`
//! (`ELASTIC_SMOKE=1` shrinks the run for CI.)

use workloads::elasticity::{EXTENTS, SLO_P99_NS};
use workloads::{run_elasticity, ElasticityConfig, ElasticityResult};

fn base_cfg() -> ElasticityConfig {
    if std::env::var_os("ELASTIC_SMOKE").is_some() {
        ElasticityConfig::smoke()
    } else {
        ElasticityConfig::standard()
    }
}

fn print_run(tag: &str, r: &ElasticityResult) {
    println!(
        "[{tag}] migrations {}, pages handed off {}, flushed {}, protected-write refusals {}",
        r.migrations,
        r.fusion.migrated_out,
        r.elastic.pages_flushed,
        r.per_tenant.iter().map(|t| t.protected_writes).sum::<u64>()
    );
    for t in &r.per_tenant {
        println!(
            "    tenant {}: {:>6} txns, settled p99 {:>9} ns, full-run p99 {:>9} ns, \
             remote {:>6} reads / {:>4} writes",
            t.tenant, t.txns, t.settled_p99_ns, t.p99_ns, t.remote_reads, t.remote_writes
        );
    }
    println!("    final extent owners: {:?}", r.final_owners);
}

fn main() {
    let cfg = base_cfg();
    let slo = SLO_P99_NS;

    // ---- 1. Adaptive: live migration follows the sun -----------------
    let adaptive = run_elasticity(&cfg);
    print_run("adaptive", &adaptive);
    let moved = (EXTENTS * 3 / 4 - EXTENTS / 4) as u64;
    assert_eq!(
        adaptive.migrations, moved,
        "the diurnal flip must move exactly the {moved} newly demanded extents"
    );
    assert_eq!(
        adaptive.elastic.rollbacks, 0,
        "fault-free run never rolls back"
    );
    assert!(adaptive.fusion.migrated_out > 0, "pages hand off in place");
    for t in &adaptive.per_tenant {
        assert!(
            t.settled_p99_ns <= slo,
            "tenant {} settled p99 {} ns must stay inside the {} ns SLO",
            t.tenant,
            t.settled_p99_ns,
            slo
        );
    }

    // ---- 2. Static: the growing tenant thrashes ----------------------
    let mut static_cfg = cfg.clone();
    static_cfg.adaptive = false;
    let fixed = run_elasticity(&static_cfg);
    print_run("static  ", &fixed);
    assert_eq!(fixed.migrations, 0);
    assert!(
        fixed.per_tenant[1].settled_p99_ns > slo,
        "static partition must thrash the growing tenant: settled p99 {} ns vs SLO {} ns",
        fixed.per_tenant[1].settled_p99_ns,
        slo
    );
    assert!(
        fixed.per_tenant[1].remote_reads > adaptive.per_tenant[1].remote_reads,
        "migration must shed remote traffic"
    );

    println!(
        "elasticity demo passed: live migration kept both tenants inside the {slo} ns SLO \
         while the static partition thrashed"
    );
}
