//! The multi-primary sharing entries: Figures 11–13 and ablation A1.

use super::{paper, Paper, LBP_FRACTIONS};
use crate::{banner, footer, improvement_pct, kqps, sharing_sweep};
use workloads::sharing::SharingSystem::{self, Cxl, CxlFullPageFlush, Rdma};
use workloads::RunMetrics;
use workloads::SysbenchKind::{PointUpdate, ReadWrite};

/// Figures 11–12: RDMA with a 30 % LBP (of its accessed data), then CXL.
pub const RDMA30_VS_CXL: [SharingSystem; 2] = [Rdma { lbp_fraction: 0.3 }, Cxl];

/// Where `x` sits in `xs`.
fn index_of<T: PartialEq>(xs: &[T], x: T) -> usize {
    xs.iter().position(|y| *y == x).expect("a swept point")
}

/// Figure 11: multi-primary data sharing, sysbench point-update on an
/// 8-node cluster — throughput, improvement over RDMA, and latency as
/// the shared-data percentage sweeps 0–100 %.
pub mod fig11 {
    use super::*;
    pub const NODES: [usize; 1] = [8];
    pub const PCTS: [u32; 6] = [0, 20, 40, 60, 80, 100];
    /// Point-update, 8 nodes, 0 % shared: "PolarCXLMem +33% at 0%
    /// shared".
    pub const GAIN_UPD0: Paper = paper("cxl_gain_upd0", 1.33);
    /// Point-update, 8 nodes, 40 % shared: PolarCXLMem +62 % over RDMA.
    pub const GAIN_UPD40: Paper = paper("cxl_gain_upd40", 1.62);
    pub const PAPER: &[Paper] = &[GAIN_UPD0, GAIN_UPD40];

    /// CXL over RDMA at `pct` % shared, from one `[rdma, cxl]` pair per
    /// point.
    pub fn gain_at(pairs: &[[RunMetrics; 2]], pct: u32) -> f64 {
        let [rdma, cxl] = &pairs[index_of(&PCTS, pct)];
        cxl.qps / rdma.qps
    }

    pub fn print() {
        banner(
            "Figure 11",
            "Sharing: point-update, 8 nodes",
            "PolarCXLMem +33% at 0% shared, peaking +62% at 40%, still +27% at 100%; latency follows",
        );
        println!(
            "{:>7} | {:>12} {:>12} {:>8} | {:>12} {:>12}",
            "shared", "RDMA K-QPS", "CXL K-QPS", "improve", "RDMA lat us", "CXL lat us"
        );
        let sweep = sharing_sweep(&NODES, &PCTS, &RDMA30_VS_CXL, PointUpdate, |_| {});
        for (row, pct) in sweep.iter().zip(PCTS) {
            let (r, c) = (&row[0], &row[1]);
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
}

/// Figure 12: sharing under sysbench read-write on 8- and 12-node
/// clusters, 20–100 % shared data.
pub mod fig12 {
    use super::*;
    pub const NODES: [usize; 2] = [8, 12];
    pub const PCTS: [u32; 5] = [20, 40, 60, 80, 100];
    /// Read-write, 8 nodes, 60 % shared: PolarCXLMem +68.2 % over RDMA.
    pub const GAIN_RW60: Paper = paper("cxl_gain_rw60", 1.682);
    pub const PAPER: &[Paper] = &[GAIN_RW60];

    /// CXL over RDMA on `nodes` nodes at `pct` % shared, from one
    /// `[rdma, cxl]` pair per point, nodes outer.
    pub fn gain_at(pairs: &[[RunMetrics; 2]], nodes: usize, pct: u32) -> f64 {
        let [rdma, cxl] = &pairs[index_of(&NODES, nodes) * PCTS.len() + index_of(&PCTS, pct)];
        cxl.qps / rdma.qps
    }

    /// [`GAIN_RW60`] measured.
    pub fn gain_rw60(pairs: &[[RunMetrics; 2]]) -> f64 {
        gain_at(pairs, 8, 60)
    }

    pub fn print() {
        banner(
            "Figure 12",
            "Sharing: read-write, 8 and 12 nodes",
            "peak improvement +68.2% (8 nodes) and +154.4% (12 nodes) at 60% shared; +34%/+126% even at 100%",
        );
        let sweep = sharing_sweep(&NODES, &PCTS, &RDMA30_VS_CXL, ReadWrite, |_| {});
        for (series, nodes) in sweep.chunks(PCTS.len()).zip(NODES) {
            println!("[{nodes} nodes]");
            println!(
                "{:>7} | {:>12} {:>12} {:>8}",
                "shared", "RDMA K-QPS", "CXL K-QPS", "improve"
            );
            for (row, pct) in series.iter().zip(PCTS) {
                let (r, c) = (&row[0], &row[1]);
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
}

/// Figure 13: breakdown — RDMA-based sharing with LBP sizes from 10 %
/// to 100 % of each node's accessed dataset vs PolarCXLMem, sysbench
/// point-update, 8 nodes.
pub mod fig13 {
    use super::*;
    pub const NODES: [usize; 1] = [8];
    pub const PCTS: [u32; 5] = [20, 40, 60, 80, 100];
    /// RDMA with an LBP of each of [`LBP_FRACTIONS`], then CXL.
    pub fn systems() -> Vec<SharingSystem> {
        let rdma = LBP_FRACTIONS.map(|lbp_fraction| Rdma { lbp_fraction });
        rdma.into_iter().chain([Cxl]).collect()
    }
    /// At 20 % shared, PolarCXLMem serves 2.14× RDMA with a 10 % LBP.
    pub const CXL_OVER_LBP10_S20: Paper = paper("cxl_over_lbp10_s20", 2.14);
    pub const PAPER: &[Paper] = &[CXL_OVER_LBP10_S20];

    /// The LBP columns' max / min throughput in one row.
    pub fn lbp_spread(lbp: &[RunMetrics]) -> f64 {
        let (lo, hi) = lbp.iter().fold((f64::MAX, 0.0f64), |(lo, hi), m| {
            (lo.min(m.qps), hi.max(m.qps))
        });
        hi / lo
    }

    /// [`CXL_OVER_LBP10_S20`] measured, from one row per point: the RDMA
    /// runs over [`LBP_FRACTIONS`], CXL last.
    pub fn cxl_over_lbp10_s20(rows: &[Vec<RunMetrics>]) -> f64 {
        let row = &rows[index_of(&PCTS, 20)];
        row[LBP_FRACTIONS.len()].qps / row[0].qps
    }

    pub fn print() {
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
        let sweep = sharing_sweep(&NODES, &PCTS, &systems(), PointUpdate, |_| {});
        for (row, pct) in sweep.iter().zip(PCTS) {
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
}

/// Ablation A1: what line-granularity flushing is worth.
///
/// Compares two coherency modes on the sysbench point-update sharing
/// workload (8 nodes):
/// - `cxl-fullpage`— the §3.3 protocol but flushing whole pages on
///   publish (page-granularity thinking ported to CXL);
/// - `cxl-lines`   — the paper's §3.3 protocol (flush modified 64-B lines).
pub mod a1 {
    use super::*;
    pub const NODES: [usize; 1] = [8];
    const PCTS: [u32; 5] = [20, 40, 60, 80, 100];
    /// The cells the shape reads: three of the five printed.
    pub const SHAPE_PCTS: [u32; 3] = [20, 60, 100];
    pub const SYSTEMS: [SharingSystem; 2] = [CxlFullPageFlush, Cxl];

    pub fn print() {
        banner(
            "Ablation A1",
            "Coherency design: line-flush vs full-page-flush",
            "the paper argues 64-B-granularity sync is the key saving over page-granularity",
        );
        println!(
            "{:>7} | {:>14} {:>14}",
            "shared", "cxl-fullpage", "cxl-lines"
        );
        let sweep = sharing_sweep(&NODES, &PCTS, &SYSTEMS, PointUpdate, |_| {});
        for (pct, row) in PCTS.iter().zip(sweep) {
            println!(
                "{:>6}% | {:>14} {:>14}",
                pct,
                kqps(row[0].qps),
                kqps(row[1].qps)
            );
        }
        footer("all columns K-QPS; line-granularity flushing moves only the modified lines");
    }
}
