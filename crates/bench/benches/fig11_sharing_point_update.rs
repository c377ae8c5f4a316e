//! Figure 11: multi-primary data sharing, sysbench point-update on an
//! 8-node cluster — throughput, improvement over RDMA, and latency as
//! the shared-data percentage sweeps 0–100 %.

use bench::{banner, footer, improvement_pct, kqps, sharing_sweep};
use workloads::SysbenchKind;

const SHARED: [u32; 6] = [0, 20, 40, 60, 80, 100];

fn main() {
    banner(
        "Figure 11",
        "Sharing: point-update, 8 nodes",
        "PolarCXLMem +33% at 0% shared, peaking +62% at 40%, still +27% at 100%; latency follows",
    );
    println!(
        "{:>7} | {:>12} {:>12} {:>8} | {:>12} {:>12}",
        "shared", "RDMA K-QPS", "CXL K-QPS", "improve", "RDMA lat us", "CXL lat us"
    );
    let sweep = sharing_sweep(&[8], &SHARED, SysbenchKind::PointUpdate, |_| {});
    for ([r, c], pct) in sweep.iter().zip(SHARED) {
        println!(
            "{:>6}% | {:>12} {:>12} {:>7.0}% | {:>12.1} {:>12.1}",
            pct,
            kqps(r.qps),
            kqps(c.qps),
            improvement_pct(c.qps, r.qps),
            r.avg_latency_us,
            c.avg_latency_us
        );
    }
    footer("RDMA flushes whole pages inside the lock hold; CXL flushes only modified lines and stores a flag");
}
