//! The paper's pooling claim is that a CXL-native buffer pool needs no
//! tiering loop. These are the six cells of the retired 36-cell tiering
//! sweep that carry it, at the sweep's 80 ms window: adaptive migration
//! beat static demand paging only where the zipfian head fits in DRAM
//! (θ = 1.8, under LRU and 2Q); at the YCSB default (θ = 0.99) the hot
//! mass is wider than DRAM + CXL and every regime sits on storage.

use polardb_cxl_repro::prelude::*;

fn cell(theta: f64, policy: PolicyKind, adaptive: bool) -> TieringResult {
    let mut cfg = TieringConfig::standard(policy, adaptive);
    cfg.theta = theta;
    cfg.duration = SimTime::from_millis(80);
    run_tiering(&cfg)
}

fn promotes(r: &TieringResult) -> u64 {
    r.registry
        .get("bp_tier_promotes")
        .expect("bp_tier_promotes registered")
        .as_u64()
}

#[test]
fn at_theta_099_both_regimes_are_storage_bound_and_adaptive_wins_nothing() {
    let stat = cell(0.99, PolicyKind::Lru, false);
    let adap = cell(0.99, PolicyKind::Lru, true);
    let storage_p99 = 184.32;
    assert_eq!(stat.metrics.p99_latency_us, storage_p99);
    assert_eq!(adap.metrics.p99_latency_us, storage_p99);
    assert!(adap.storage_miss_rate >= stat.storage_miss_rate);
    assert!(adap.metrics.qps <= stat.metrics.qps);
    assert_eq!(stat.sweeps, 0);
    assert_eq!(adap.sweeps, 79);
}

#[test]
fn at_theta_18_adaptive_wins_p99_miss_rate_and_qps_with_a_tenth_of_the_promotions() {
    // (policy, adaptive p99 in µs, adaptive promotions, static promotions)
    for (policy, adaptive_p99, few, many) in [
        (PolicyKind::Lru, 0.72, 396, 13_468),
        (PolicyKind::TwoQ, 0.688, 208, 10_004),
    ] {
        let stat = cell(1.8, policy, false);
        let adap = cell(1.8, policy, true);
        assert_eq!(stat.metrics.p99_latency_us, 2.624, "{policy:?}");
        assert_eq!(adap.metrics.p99_latency_us, adaptive_p99, "{policy:?}");
        assert!(
            adap.storage_miss_rate < stat.storage_miss_rate,
            "{policy:?}"
        );
        assert!(adap.metrics.qps > stat.metrics.qps, "{policy:?}");
        assert_eq!(
            (promotes(&adap), promotes(&stat)),
            (few, many),
            "{policy:?}"
        );
        assert!(few * 10 < many);
        assert_eq!(cell(1.8, policy, true), adap, "{policy:?} rerun");
    }
}
