//! Cross-commit golden values for the barrier-stepped cluster harness.
//!
//! `tests/determinism.rs` proves a run equals itself; this file pins what
//! a run *is*, for one small sharing config per fabric (CXL and RDMA),
//! so a refactor of the run loop is checked against the commit that
//! wrote these values (`018232b`), not against itself. Every config runs
//! twice, untraced and with attribution + spans on: the two results must
//! be equal (tracing observes, never perturbs), and the nine lane totals
//! and the span count are pinned too. The file also pinned two failover
//! dumps (crash and zombie); they left with node failover itself, which
//! no paper figure measures, and the two sharing dumps stayed
//! byte-for-byte as pinned.
//!
//! Small outputs (every metric, counter and registry entry) are pinned as
//! text; bulky ones (latency histograms) as a 64-bit FNV-1a of their
//! `Debug` rendering. On a mismatch the test prints the whole actual
//! dump, so it can be diffed against the same dump from any earlier
//! commit.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::workloads::sharing::{point_update_gen, read_write_gen};
use simkit::trace::{self, Lane};

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run `f` with attribution and spans on; returns its result and a
/// "lanes … spans N" line.
fn traced<R>(f: impl FnOnce() -> R) -> (R, String) {
    trace::reset();
    trace::enable_attribution(true);
    trace::enable_spans(true);
    let r = f();
    trace::enable_attribution(false);
    trace::enable_spans(false);
    let attr = trace::attr_snapshot();
    let spans = trace::take_events().len() as u64 + trace::dropped_events();
    trace::reset();
    let lanes: Vec<String> = Lane::ALL
        .iter()
        .map(|&l| format!("{}={}", l.name(), attr.lane(l)))
        .collect();
    (r, format!("lanes {} spans {spans}\n", lanes.join(" ")))
}

/// Run `run` untraced and traced, require equal dumps, and compare the
/// dump + trace line against `want`.
fn check<R>(name: &str, want: &str, run: impl Fn() -> R, dump: impl Fn(&R) -> String) {
    let plain = dump(&run());
    let (r, trace_line) = traced(&run);
    assert_eq!(plain, dump(&r), "{name}: tracing changed the result");
    let got = format!("{plain}{trace_line}");
    assert!(
        got.trim() == want.trim(),
        "{name}: golden mismatch\n=== actual ===\n{got}=== expected ===\n{}\n",
        want.trim()
    );
}

// ---- sharing -------------------------------------------------------------

fn sharing_cfg(system: SharingSystem) -> SharingConfig {
    let mut c = SharingConfig::standard(system, 3);
    c.layout.rows_per_group = 1_000;
    c.duration = SimTime::from_millis(30);
    c.workers_per_node = 4;
    c
}

fn dump_sharing(r: &SharingResult) -> String {
    let m = &r.metrics;
    format!(
        "qps={:?} tps={:?} avg_us={:?} p50_us={:?} p95_us={:?} p99_us={:?} p999_us={:?}\n\
         gbps={:?} memory_bytes={} window_ns={} latency={:016x}\n\
         lock_contended={} lock_mean_wait_ns={:?}\n",
        m.qps,
        m.tps,
        m.avg_latency_us,
        m.p50_latency_us,
        m.p95_latency_us,
        m.p99_latency_us,
        m.p999_latency_us,
        m.interconnect_gbps,
        m.memory_bytes,
        m.window.as_nanos(),
        fnv(&format!("{:?}", m.latency)),
        r.lock_contended,
        r.lock_mean_wait_ns,
    )
}

const SHARING_CXL: &str = r#"
qps=84000.0 tps=4666.666666666667 avg_us=2711.9743857142857 p50_us=2686.976 p95_us=3407.872 p99_us=3735.552 p999_us=3801.088
gbps=0.022107733333333334 memory_bytes=854464 window_ns=30000000 latency=5d89de71783c165b
lock_contended=249 lock_mean_wait_ns=105093.89325396826
lanes cpu=100292000 cxl_link=6610919 switch=0 rdma_nic=0 cache_hit=3864 dram=0 wal=0 storage=9633272 other=1950000 spans 6572
"#;

#[test]
fn sharing_cxl_matches_golden() {
    let c = sharing_cfg(SharingSystem::Cxl);
    let layout = c.layout;
    check(
        "sharing_cxl",
        SHARING_CXL,
        || run_sharing(&c, read_write_gen(layout, 30)),
        dump_sharing,
    );
}

const SHARING_RDMA: &str = r#"
qps=71333.33333333334 tps=7133.333333333334 avg_us=1722.2743785046728 p50_us=1736.704 p95_us=2228.224 p99_us=2555.904 p999_us=2686.976
gbps=1.8962133333333333 memory_bytes=1245184 window_ns=30000000 latency=dd436a27ab7db312
lock_contended=423 lock_mean_wait_ns=110577.37943925234
lanes cpu=96522000 cxl_link=0 switch=0 rdma_nic=27556545 cache_hit=0 dram=318084 wal=0 storage=9633272 other=1950000 spans 4841
"#;

#[test]
fn sharing_rdma_matches_golden() {
    let c = sharing_cfg(SharingSystem::Rdma { lbp_fraction: 0.3 });
    let layout = c.layout;
    check(
        "sharing_rdma",
        SHARING_RDMA,
        || run_sharing(&c, point_update_gen(layout, 30)),
        dump_sharing,
    );
}
