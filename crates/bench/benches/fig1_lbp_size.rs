//! Figure 1: impact of the local-buffer-pool size in RDMA-based
//! systems — throughput and RDMA bandwidth as the LBP grows from 10 %
//! to 100 % of the disaggregated memory, for point-select and
//! read-write.

use bench::{banner, footer, kqps, lbp_sweep, LBP_FRACTIONS};
use simkit::SimTime;
use workloads::SysbenchKind;

fn main() {
    banner(
        "Figure 1",
        "Impact of LBP size in RDMA-based systems",
        "point-select: 6.9 GB/s at 10% LBP falling to 0 at 100%; read-write: 3.9 GB/s at 10%; throughput rises as LBP grows",
    );
    let workloads = [SysbenchKind::PointSelect, SysbenchKind::ReadWrite];
    let results = lbp_sweep(&workloads, |cfg| cfg.duration = SimTime::from_millis(200));
    for (series, &w) in results.iter().zip(workloads.iter()) {
        println!("[{w:?}]");
        println!(
            "{:>6} {:>14} {:>16} {:>14}",
            "LBP", "K-QPS", "RDMA GB/s", "avg lat (us)"
        );
        for (r, &frac) in series.iter().zip(LBP_FRACTIONS.iter()) {
            println!(
                "{:>5.0}% {:>14} {:>16.2} {:>14.1}",
                frac * 100.0,
                kqps(r.qps),
                r.interconnect_gbps,
                r.avg_latency_us
            );
        }
        println!();
    }
    footer(
        "bandwidth falls and throughput rises with LBP size - the cost is the LBP memory itself",
    );
}
