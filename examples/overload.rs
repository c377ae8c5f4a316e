//! Overload protection demo: one zipfian-burst aggressor tenant vs N
//! well-behaved victims on the fusion cluster.
//!
//! Four runs of the same cluster:
//!
//! 1. **QoS on** — per-tenant admission sheds the aggressor's bursts at
//!    the door; the victims' p99 stays within the SLO.
//! 2. **QoS off** — the same bursts land on the shared hot pages and
//!    the whole cluster browns out: every tenant's p99 blows through
//!    the SLO and the telemetry burn-rate rule fires.
//! 3. **QoS on + link flap** — a victim's CXL link goes down for a few
//!    milliseconds; its lane breaker trips, fast-fails to
//!    storage-direct service instead of burning retries, and a
//!    half-open probe closes it once the link heals.
//! 4. **Sustained burst** — an unthrottled aggressor overwhelms
//!    admission alone; the windowed p99 rule browns it out
//!    (storage-direct service + buffer-pool share shrink) and
//!    hysteresis restores it after the burst ends.
//!
//! Run with: `cargo run --release --example overload`
//! (`OVERLOAD_SMOKE=1` shrinks the run for CI.)

use simkit::qos::TenantClass;
use simkit::{MetricValue, SimTime};
use workloads::overload::SLO_P99_NS;
use workloads::{run_overload, FlapSpec, OverloadConfig, OverloadResult};

fn base_cfg() -> OverloadConfig {
    if std::env::var_os("OVERLOAD_SMOKE").is_some() {
        OverloadConfig::smoke(3)
    } else {
        OverloadConfig::standard(4)
    }
}

fn metric(r: &OverloadResult, name: &str) -> u64 {
    match r.registry.get(name) {
        Some(MetricValue::Int(v)) => v,
        other => panic!("metric {name}: {other:?}"),
    }
}

fn print_registry(r: &OverloadResult) {
    for key in [
        "overload_admitted",
        "overload_shed_rate",
        "overload_shed_deadline",
        "overload_browned_ops",
        "overload_refused_writes",
        "overload_victim_p99_ns",
        "overload_aggressor_p99_ns",
        "overload_brownout_entries",
        "overload_brownout_exits",
        "overload_breaker_trips",
        "overload_breaker_fast_fails",
        "overload_breaker_recoveries",
        "overload_lock_contended",
    ] {
        println!("    {key:<32} {}", metric(r, key));
    }
}

fn main() {
    let cfg = base_cfg();
    let slo = SLO_P99_NS;

    // ---- 1. QoS on: victims protected, aggressor shed ----------------
    let on = run_overload(&cfg);
    println!(
        "[qos on]   victim p99 {:>9} ns (SLO {} ns), aggressor shed {} txns",
        on.victim_p99_ns, slo, on.per_tenant[0].shed_txns
    );
    print_registry(&on);
    assert!(
        on.victim_p99_ns <= slo,
        "victim p99 {} must stay within the {} ns SLO",
        on.victim_p99_ns,
        slo
    );
    assert!(
        on.per_tenant[0].shed_txns > 0,
        "the bursting aggressor must be shed at admission"
    );
    assert_eq!(
        on.per_tenant[1..].iter().map(|t| t.shed_txns).sum::<u64>(),
        0,
        "well-behaved victims are never shed"
    );

    // ---- 2. QoS off: the whole cluster browns out --------------------
    let mut off_cfg = cfg.clone();
    off_cfg.qos = false;
    let off = run_overload(&off_cfg);
    println!(
        "[qos off]  victim p99 {:>9} ns, aggressor p99 {} ns, {} alert fires",
        off.victim_p99_ns,
        off.aggressor_p99_ns,
        off.telemetry.as_ref().map_or(0, |t| t.alert_fires())
    );
    print_registry(&off);
    assert!(
        off.victim_p99_ns > slo,
        "without QoS the victims' p99 {} must violate the {} ns SLO",
        off.victim_p99_ns,
        slo
    );
    if let Some(rep) = off.telemetry.as_ref() {
        assert!(rep.alert_fires() > 0, "the p99_slow rule must fire");
    }

    // ---- 3. QoS on + link flap: breaker trips and recovers -----------
    let mut flap_cfg = cfg.clone();
    flap_cfg.link_flap = Some(FlapSpec {
        host: 1,
        at: SimTime::from_millis(6),
        down_ns: 4_000_000,
        retry_ns: 100_000,
    });
    let flap = run_overload(&flap_cfg);
    println!(
        "[flap]     breaker trips {}, fast-fails {}, recoveries {}, victim p99 {} ns",
        flap.breaker.trips, flap.breaker.fast_fails, flap.breaker.recoveries, flap.victim_p99_ns
    );
    print_registry(&flap);
    assert!(flap.breaker.trips >= 1, "the flap must trip the breaker");
    assert!(
        flap.breaker.fast_fails > 0,
        "an open breaker must fast-fail instead of burning retries"
    );
    assert!(
        flap.breaker.recoveries >= 1,
        "a half-open probe must close the breaker after the link heals"
    );

    // ---- 4. Sustained burst: brownout + hysteretic restore -----------
    // An unthrottled aggressor class takes admission out of the play;
    // one long burst up front, then calm, so the windowed p99 rule
    // browns the aggressor out and the calm period restores it.
    let mut brown_cfg = cfg.clone();
    brown_cfg.duration = SimTime::from_millis(40);
    brown_cfg.burst_period = 80_000_000;
    brown_cfg.burst_on = 10_000_000;
    brown_cfg.burst_writes = 12;
    brown_cfg.aggressor_class = TenantClass::new(500_000, 1_000, 50_000_000).low_priority();
    let brown = run_overload(&brown_cfg);
    println!(
        "[brownout] entries {}, exits {}, browned txns {}, refused writes {}, reclaims {}",
        brown.brownout_entries,
        brown.brownout_exits,
        brown.per_tenant[0].browned_txns,
        brown.per_tenant[0].refused_writes,
        brown.fusion.brownout_reclaims
    );
    print_registry(&brown);
    assert!(
        brown.brownout_entries >= 1,
        "the p99 rule must brown the aggressor out"
    );
    assert!(
        brown.brownout_exits >= 1,
        "hysteresis must restore the aggressor after the burst"
    );
    assert!(brown.fusion.brownout_reclaims > 0);

    println!("all overload scenarios passed");
}
