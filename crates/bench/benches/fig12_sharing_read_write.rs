//! Figure 12: sharing under sysbench read-write on 8- and 12-node
//! clusters, 20–100 % shared data.

use bench::{banner, footer, improvement_pct, kqps, sharing_sweep};
use workloads::SysbenchKind;

const NODES: [usize; 2] = [8, 12];
const SHARED: [u32; 5] = [20, 40, 60, 80, 100];

fn main() {
    banner(
        "Figure 12",
        "Sharing: read-write, 8 and 12 nodes",
        "peak improvement +68.2% (8 nodes) and +154.4% (12 nodes) at 60% shared; +34%/+126% even at 100%",
    );
    let sweep = sharing_sweep(&NODES, &SHARED, SysbenchKind::ReadWrite, |_| {});
    for (series, nodes) in sweep.chunks(SHARED.len()).zip(NODES) {
        println!("[{nodes} nodes]");
        println!(
            "{:>7} | {:>12} {:>12} {:>8}",
            "shared", "RDMA K-QPS", "CXL K-QPS", "improve"
        );
        for ([r, c], pct) in series.iter().zip(SHARED) {
            println!(
                "{:>6}% | {:>12} {:>12} {:>7.0}%",
                pct,
                kqps(r.qps),
                kqps(c.qps),
                improvement_pct(c.qps, r.qps)
            );
        }
        println!();
    }
    footer("more nodes -> more synchronization -> a bigger CXL advantage, until lock contention levels both");
}
