//! Figure 13: breakdown — RDMA-based sharing with LBP sizes from 10 %
//! to 100 % of each node's accessed dataset vs PolarCXLMem, sysbench
//! point-update, 8 nodes.

use bench::{banner, footer, kqps, sharing_sweep, LBP_FRACTIONS};
use workloads::SysbenchKind;

const SHARED: [u32; 5] = [20, 40, 60, 80, 100];

fn main() {
    banner(
        "Figure 13",
        "Breakdown: RDMA LBP size sweep vs PolarCXLMem (point-update, 8 nodes)",
        "at 20% shared CXL = 2.14x RDMA-LBP10; LBP size stops mattering as sharing grows; CXL wins even vs LBP-100",
    );
    print!("{:>7} |", "shared");
    for f in LBP_FRACTIONS {
        print!(" {:>10}", format!("LBP-{:.0}%", f * 100.0));
    }
    println!(" {:>12}", "PolarCXLMem");
    let sweep = sharing_sweep(
        &[8],
        &SHARED,
        &LBP_FRACTIONS,
        SysbenchKind::PointUpdate,
        |_| {},
    );
    for (row, pct) in sweep.iter().zip(SHARED) {
        let (lbp, cxl) = row.split_at(LBP_FRACTIONS.len());
        print!("{:>6}% |", pct);
        for m in lbp {
            print!(" {:>10}", kqps(m.qps));
        }
        println!(" {:>12}", kqps(cxl[0].qps));
    }
    footer(
        "all columns are K-QPS; growing the LBP buys RDMA little once synchronization dominates",
    );
}
