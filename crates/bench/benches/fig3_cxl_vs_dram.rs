//! Figure 3: DRAM-based vs CXL-based buffer pool throughput as the
//! number of instances on one 192-vCPU host grows from 1 to 12, for
//! point-select, range-select and read-write.

use bench::{banner, footer, kqps, pooling_sweep, DRAM_VS_CXL};
use workloads::SysbenchKind;

const POINTS: [usize; 7] = [1, 2, 4, 6, 8, 10, 12];

fn main() {
    banner(
        "Figure 3",
        "DRAM-based vs CXL-based buffer pool in the database",
        "CXL-BP within ~7-10% of DRAM-BP at every scale; both scale to 12 instances",
    );
    for w in [
        SysbenchKind::PointSelect,
        SysbenchKind::RangeSelect,
        SysbenchKind::ReadWrite,
    ] {
        let series = pooling_sweep(DRAM_VS_CXL, w, &POINTS, |_| {});
        println!("[{w:?}]");
        println!(
            "{:>10} {:>14} {:>14} {:>8}",
            "instances", "DRAM-BP K-QPS", "CXL-BP K-QPS", "CXL/DRAM"
        );
        for ([d, c], n) in series.iter().zip(POINTS) {
            println!(
                "{:>10} {:>14} {:>14} {:>7.1}%",
                n,
                kqps(d.qps),
                kqps(c.qps),
                100.0 * c.qps / d.qps
            );
        }
        println!();
    }
    footer("running the buffer pool directly on CXL memory costs only a few percent vs local DRAM");
}
