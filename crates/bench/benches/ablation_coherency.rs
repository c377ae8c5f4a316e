//! Ablation: what line-granularity flushing is worth.
//!
//! Compares two coherency modes on the sysbench point-update sharing
//! workload (8 nodes):
//! - `cxl-fullpage`— the §3.3 protocol but flushing whole pages on
//!   publish (page-granularity thinking ported to CXL);
//! - `cxl-lines`   — the paper's §3.3 protocol (flush modified 64-B lines).

use bench::{banner, footer, kqps};
use workloads::sharing::{point_update_gen, run_sharing, SharingConfig, SharingSystem};

fn main() {
    banner(
        "Ablation A1",
        "Coherency design: line-flush vs full-page-flush",
        "the paper argues 64-B-granularity sync is the key saving over page-granularity",
    );
    println!(
        "{:>7} | {:>14} {:>14}",
        "shared", "cxl-fullpage", "cxl-lines"
    );
    for &pct in &[20u32, 40, 60, 80, 100] {
        let mut row = Vec::new();
        for sys in [SharingSystem::CxlFullPageFlush, SharingSystem::Cxl] {
            let cfg = SharingConfig::standard(sys, 8);
            let r = run_sharing(&cfg, point_update_gen(cfg.layout, pct));
            row.push(r.metrics.qps);
        }
        println!("{:>6}% | {:>14} {:>14}", pct, kqps(row[0]), kqps(row[1]));
    }
    footer("all columns K-QPS; line-granularity flushing moves only the modified lines");
}
