//! The single-host pooling entries: Figures 1, 3, 7–9 and ablations A3–A4.

use super::{paper, Paper, LBP_FRACTIONS};
use crate::{banner, footer, kqps, lbp_sweep, pooling_sweep, run_sweep, PoolingSweep};
use simkit::SimTime;
use workloads::{run_pooling, PoolKind, PoolingConfig, PoolingResult, RunMetrics, SysbenchKind};

/// The pools Figure 3 compares, in [`pooling_sweep`]'s order.
pub const DRAM_VS_CXL: [PoolKind; 2] = [PoolKind::Dram, PoolKind::Cxl];
/// The pools Figures 7–9 compare, in [`pooling_sweep`]'s order.
pub const RDMA_VS_CXL: [PoolKind; 2] = [PoolKind::TieredRdma, PoolKind::Cxl];
/// The instance counts a knee and the NIC ceiling are read at.
pub const KNEE_POINTS: [usize; 4] = [1, 2, 3, 4];

/// A pooling sweep's points and shapes, pairs in [`RDMA_VS_CXL`] order.
impl PoolingSweep {
    /// The pair of runs at `n` instances (panics if `n` was not swept).
    pub fn at(&self, n: usize) -> &[RunMetrics; 2] {
        &self.pairs[self.points.iter().position(|&p| p == n).expect("a point")]
    }

    /// The ledger's `rdma_knee_instances`: the first of [`KNEE_POINTS`]
    /// past 1 where RDMA runs under 90 % of linear scaling (5: none).
    pub fn knee(&self) -> usize {
        let base = self.at(1)[0].qps;
        KNEE_POINTS[1..]
            .iter()
            .copied()
            .find(|&n| self.at(n)[0].qps < 0.9 * n as f64 * base)
            .unwrap_or(5)
    }

    /// CXL throughput at `n` instances over `n` × its throughput at one.
    pub fn cxl_linearity(&self, n: usize) -> f64 {
        self.at(n)[1].qps / (n as f64 * self.at(1)[1].qps)
    }

    /// The ledger's `rdma_sat_gbps`: the most RDMA bandwidth any of
    /// [`KNEE_POINTS`] moves.
    pub fn nic_ceiling(&self) -> f64 {
        KNEE_POINTS
            .iter()
            .map(|&n| self.at(n)[0].interconnect_gbps)
            .fold(0.0, f64::max)
    }
}

/// Figures 7–9: tiered RDMA against PolarCXLMem under `workload` at each
/// instance count of `points` — the banner, one row per point
/// (throughput, mean latency, interconnect bandwidth) and the note.
fn pooling_figure(
    id: &str,
    title: &str,
    paper_summary: &str,
    workload: SysbenchKind,
    points: &[usize],
    note: &str,
) {
    banner(id, title, paper_summary);
    println!(
        "{:>4} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>10}",
        "n", "RDMA K-QPS", "CXL K-QPS", "RDMA lat us", "CXL lat us", "RDMA GB/s", "CXL GB/s"
    );
    let sweep = pooling_sweep(RDMA_VS_CXL, workload, points, |_| {});
    for ([r, c], n) in sweep.pairs.iter().zip(points) {
        println!(
            "{:>4} | {:>12} {:>12} | {:>12.1} {:>12.1} | {:>10.2} {:>10.2}",
            n,
            kqps(r.qps),
            kqps(c.qps),
            r.avg_latency_us,
            c.avg_latency_us,
            r.interconnect_gbps,
            c.interconnect_gbps
        );
    }
    footer(note);
}

/// Figure 1: impact of the local-buffer-pool size in RDMA-based
/// systems — throughput and RDMA bandwidth as the LBP grows from 10 %
/// to 100 % of the disaggregated memory, for point-select and
/// read-write.
pub mod fig1 {
    use super::*;
    pub const KINDS: [SysbenchKind; 2] = [SysbenchKind::PointSelect, SysbenchKind::ReadWrite];
    /// Throughput rises about 25 % as the LBP grows from 10 % to 100 %.
    pub const QPS_GAIN: Paper = paper("rdma_qps_gain_lbp100", 1.25);
    /// At LBP = 10 % the RDMA system moves 3.9 GB/s under read-write.
    pub const RDMA_BW_LBP10: Paper = paper("rdma_bw_gbps_lbp10", 3.9);
    pub const PAPER: &[Paper] = &[QPS_GAIN, RDMA_BW_LBP10];

    pub fn print() {
        banner(
            "Figure 1",
            "Impact of LBP size in RDMA-based systems",
            "point-select: 6.9 GB/s at 10% LBP falling to 0 at 100%; read-write: 3.9 GB/s at 10%; throughput rises as LBP grows",
        );
        let results = lbp_sweep(&KINDS, |cfg| cfg.duration = SimTime::from_millis(200));
        for (series, &w) in results.iter().zip(KINDS.iter()) {
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
}

/// Figure 3: DRAM-based vs CXL-based buffer pool throughput as the
/// number of instances on one 192-vCPU host grows from 1 to 12, for
/// point-select, range-select and read-write.
pub mod fig3 {
    use super::*;
    use SysbenchKind::*;
    const POINTS: [usize; 7] = [1, 2, 4, 6, 8, 10, 12];
    const KINDS: [SysbenchKind; 3] = [PointSelect, RangeSelect, ReadWrite];
    /// The cells the shapes read: CXL / DRAM at each, linearity at 4.
    pub const SHAPE_POINTS: [usize; 3] = [1, 2, 4];
    pub const SHAPE_KINDS: [SysbenchKind; 2] = [PointSelect, ReadWrite];
    /// CXL-BP runs about 7 % behind DRAM-BP under point-select.
    pub const CXL_OVER_DRAM_POINT: Paper = paper("cxl_over_dram_point_select", 0.93);
    /// CXL-BP runs about 10 % behind DRAM-BP under range-select.
    pub const CXL_OVER_DRAM_RANGE: Paper = paper("cxl_over_dram_range_select", 0.90);
    pub const PAPER: &[Paper] = &[CXL_OVER_DRAM_POINT, CXL_OVER_DRAM_RANGE];

    pub fn print() {
        banner(
            "Figure 3",
            "DRAM-based vs CXL-based buffer pool in the database",
            "CXL-BP within ~7-10% of DRAM-BP at every scale; both scale to 12 instances",
        );
        for w in KINDS {
            let series = pooling_sweep(DRAM_VS_CXL, w, &POINTS, |_| {});
            println!("[{w:?}]");
            println!(
                "{:>10} {:>14} {:>14} {:>8}",
                "instances", "DRAM-BP K-QPS", "CXL-BP K-QPS", "CXL/DRAM"
            );
            for ([d, c], n) in series.pairs.iter().zip(POINTS) {
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
        footer(
            "running the buffer pool directly on CXL memory costs only a few percent vs local DRAM",
        );
    }
}

/// Figure 7: PolarCXLMem vs RDMA-based disaggregated memory, sysbench
/// point-select — total throughput, average latency, and RDMA/CXL
/// bandwidth as instances scale 1–12 on one host.
pub mod fig7 {
    use super::*;
    const POINTS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
    /// The cells the shapes read: [`KNEE_POINTS`] and 8 for linearity.
    pub const SHAPE_POINTS: [usize; 5] = [1, 2, 3, 4, 8];
    /// RDMA throughput stops scaling at 3 instances.
    pub const KNEE: Paper = paper("rdma_knee_instances", 3.0);
    /// PolarCXLMem scales linearly: qps(8) / (8 × qps(1)) = 1.
    pub const LINEARITY_8X: Paper = paper("cxl_linearity_8x", 1.0);
    /// RDMA NIC bandwidth saturates at ~11 GB/s.
    pub const NIC_GBPS: Paper = paper("rdma_sat_gbps", 11.0);
    pub const PAPER: &[Paper] = &[KNEE, LINEARITY_8X, NIC_GBPS];

    pub fn print() {
        pooling_figure(
            "Figure 7",
            "Pooling: point-select, RDMA vs PolarCXLMem",
            "RDMA saturates at 3 instances (~1.1M QPS, 11 GB/s); PolarCXLMem scales to 3.6M QPS at 12 with stable latency",
            SysbenchKind::PointSelect,
            &POINTS,
            "RDMA hits its NIC ceiling early (read amplification: whole pages per row); CXL touches only needed lines",
        );
    }
}

/// Figure 8: pooling comparison under sysbench range-select
/// (32 threads/instance) at 2/4/8/12 instances.
pub mod fig8 {
    use super::*;
    const POINTS: [usize; 4] = [2, 4, 8, 12];
    /// Under range-select RDMA saturates at 4 instances (~11 GB/s).
    pub const KNEE: Paper = paper("rdma_knee_instances", 4.0);
    /// PolarCXLMem keeps scaling.
    pub const LINEARITY_4X: Paper = paper("cxl_linearity_4x", 1.0);
    pub const PAPER: &[Paper] = &[KNEE, LINEARITY_4X];

    pub fn print() {
        pooling_figure(
            "Figure 8",
            "Pooling: range-select, RDMA vs PolarCXLMem",
            "RDMA saturates at 4 instances (~11 GB/s); PolarCXLMem keeps scaling",
            SysbenchKind::RangeSelect,
            &POINTS,
            "ranges read whole pages usefully, so RDMA's amplification is smaller - but bandwidth still caps it",
        );
    }
}

/// Figure 9: pooling comparison under sysbench read-write
/// (48 threads/instance) at 2/4/8/12 instances.
pub mod fig9 {
    use super::*;
    const POINTS: [usize; 5] = [1, 2, 4, 8, 12];
    /// Under read-write RDMA saturates at 8 instances.
    pub const KNEE: Paper = paper("rdma_knee_instances", 8.0);
    /// At 1 instance RDMA moves about 1.4× CXL's bandwidth.
    pub const RDMA_OVER_CXL_BW_N1: Paper = paper("rdma_over_cxl_bw_n1", 1.4);
    pub const PAPER: &[Paper] = &[KNEE, RDMA_OVER_CXL_BW_N1];

    /// [`RDMA_OVER_CXL_BW_N1`] measured.
    pub fn rdma_over_cxl_bw_n1(sweep: &PoolingSweep) -> f64 {
        let [rdma, cxl] = sweep.at(1);
        rdma.interconnect_gbps / cxl.interconnect_gbps
    }

    pub fn print() {
        pooling_figure(
            "Figure 9",
            "Pooling: read-write, RDMA vs PolarCXLMem",
            "RDMA saturates at 8 instances; PolarCXLMem keeps scaling; RDMA bandwidth ~40% above CXL at 1 instance",
            SysbenchKind::ReadWrite,
            &POINTS,
            "writes amplify too: a dirty eviction ships a whole page over the NIC",
        );
    }
}

/// Ablation A3: CPU-cache sensitivity of the CXL-resident buffer pool.
///
/// The paper's §2.3 argues "CPU caching further enhances performance
/// when directly accessing CXL memory". This sweeps the per-instance
/// cache budget and reports throughput, latency and CXL link traffic
/// for sysbench point-select.
pub mod a3 {
    use super::*;
    pub const CACHE_KIB: [usize; 5] = [64, 256, 1024, 4096, 16384];

    /// One CXL point-select run on 4 instances per size of [`CACHE_KIB`],
    /// on [`PoolingConfig::standard`] as `adjust` leaves it.
    pub fn sweep(adjust: impl Fn(&mut PoolingConfig)) -> Vec<PoolingResult> {
        let configs: Vec<PoolingConfig> = CACHE_KIB
            .iter()
            .map(|&kib| {
                let mut cfg = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::PointSelect, 4);
                cfg.cache_bytes = kib << 10;
                adjust(&mut cfg);
                cfg
            })
            .collect();
        run_sweep(&configs, run_pooling)
    }

    pub fn print() {
        banner(
            "Ablation A3",
            "CXL-BP sensitivity to CPU cache capacity",
            "the CPU cache absorbs CXL traffic; with no cache every line rides the switch",
        );
        println!(
            "{:>10} {:>12} {:>14} {:>12}",
            "cache", "K-QPS", "avg lat (us)", "CXL GB/s"
        );
        let runs = sweep(|cfg| cfg.duration = SimTime::from_millis(150));
        for (&kb, r) in CACHE_KIB.iter().zip(&runs) {
            println!(
                "{:>7}KiB {:>12} {:>14.1} {:>12.2}",
                kb,
                kqps(r.metrics.qps),
                r.metrics.avg_latency_us,
                r.metrics.interconnect_gbps
            );
        }
        footer("bigger caches trade switch bandwidth for hit latency; throughput stays CPU-bound as the paper observes");
    }
}

/// Ablation A4: is the CXL switch's extra latency really negligible?
///
/// §2.3 measures that the switch roughly doubles load latency (265 → 549
/// ns) and claims "the additional latency introduced by the CXL switch
/// proves to be negligible in cloud database scenarios". This runs the
/// same pooling workloads with direct-attach latencies vs switched
/// latencies and reports the end-to-end difference.
pub mod a4 {
    use super::*;

    pub fn print() {
        banner(
            "Ablation A4",
            "End-to-end cost of the CXL switch (direct-attach vs switched)",
            "§2.3: switch doubles raw load latency (265→549 ns) yet is 'negligible in cloud database scenarios'",
        );
        println!(
            "{:<12} {:>4} | {:>14} {:>14} {:>9} | {:>12} {:>12}",
            "workload", "n", "direct K-QPS", "switch K-QPS", "delta", "direct lat", "switch lat"
        );
        for wl in [SysbenchKind::PointSelect, SysbenchKind::ReadWrite] {
            for n in [1usize, 8] {
                let mut direct = PoolingConfig::standard(PoolKind::Cxl, wl, n);
                direct.direct_attach = true;
                let mut switched = PoolingConfig::standard(PoolKind::Cxl, wl, n);
                switched.direct_attach = false;
                let d = run_pooling(&direct);
                let s = run_pooling(&switched);
                println!(
                    "{:<12} {:>4} | {:>14} {:>14} {:>8.2}% | {:>10.1}us {:>10.1}us",
                    format!("{wl:?}"),
                    n,
                    kqps(d.metrics.qps),
                    kqps(s.metrics.qps),
                    (d.metrics.qps / s.metrics.qps - 1.0) * 100.0,
                    d.metrics.avg_latency_us,
                    s.metrics.avg_latency_us
                );
            }
        }
        footer(
            "the switch's ~284 ns per miss disappears under CPU service time - the paper's claim holds",
        );
    }
}
