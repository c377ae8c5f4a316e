//! Shared helpers for the paper-figure bench harness.
//!
//! Each `[[bench]]` target (harness = false) regenerates one table or
//! figure of the paper and prints the same rows/series the paper
//! reports, with a header recalling what the paper measured so the
//! shapes can be compared side by side. `EXPERIMENTS.md` records a
//! paper-vs-measured summary for every target.

pub mod sweep;

pub use sweep::{host_threads, run_sweep, run_sweep_threads};

use memsim::{CxlNodeConfig, CxlPool, DramSpace, NodeId, RdmaPool};
use simkit::SimTime;
use workloads::recovery_harness::{run_recovery, RecoveryConfig, RecoveryRunResult, Scheme};
use workloads::sharing::{point_update_gen, read_write_gen, run_sharing};
use workloads::{
    run_pooling, PoolKind, PoolingConfig, RunMetrics, SharingConfig, SharingSystem, SysbenchKind,
};

/// Print a figure/table banner.
pub fn banner(id: &str, title: &str, paper_summary: &str) {
    println!("\n=== {id}: {title} ===");
    println!("paper: {paper_summary}");
    println!("{}", "-".repeat(78));
}

/// Print a closing note.
pub fn footer(note: &str) {
    println!("{}", "-".repeat(78));
    println!("note: {note}\n");
}

/// Format a QPS value in K-QPS as the paper plots.
pub fn kqps(qps: f64) -> String {
    format!("{:.1}", qps / 1e3)
}

/// Relative improvement in percent: (a/b - 1) * 100.
pub fn improvement_pct(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a / b - 1.0) * 100.0
    }
}

/// The two pools Figure 3 compares, in [`pooling_sweep`]'s order.
pub const DRAM_VS_CXL: [PoolKind; 2] = [PoolKind::Dram, PoolKind::Cxl];

/// The two pools Figures 7–9 compare, in [`pooling_sweep`]'s order.
pub const RDMA_VS_CXL: [PoolKind; 2] = [PoolKind::TieredRdma, PoolKind::Cxl];

/// Figures 7–9: tiered RDMA against PolarCXLMem under `workload` at each
/// instance count of `points` — the banner, one row per point
/// (throughput, mean latency, interconnect bandwidth) and the note.
pub fn pooling_figure(
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
    for ([r, c], n) in sweep.iter().zip(points) {
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

/// The sweep behind Figure 3 and [`pooling_figure`]: at each instance
/// count of `points`, one run of `workload` per pool of `kinds` on
/// [`PoolingConfig::standard`] as `adjust` leaves it, in that order.
pub fn pooling_sweep(
    kinds: [PoolKind; 2],
    workload: SysbenchKind,
    points: &[usize],
    adjust: impl Fn(&mut PoolingConfig),
) -> Vec<[RunMetrics; 2]> {
    let configs: Vec<PoolingConfig> = points
        .iter()
        .flat_map(|&n| {
            kinds.map(|kind| {
                let mut cfg = PoolingConfig::standard(kind, workload, n);
                adjust(&mut cfg);
                cfg
            })
        })
        .collect();
    run_sweep(&configs, run_pooling)
        .chunks(2)
        .map(|pair| [pair[0].metrics.clone(), pair[1].metrics.clone()])
        .collect()
}

/// Figure 1's LBP sizes, as fractions of the disaggregated memory.
pub const LBP_FRACTIONS: [f64; 5] = [0.10, 0.30, 0.50, 0.70, 1.00];

/// Figure 1's sweep: per workload of `kinds`, one row of single-instance
/// tiered-RDMA runs on [`PoolingConfig::standard`] as `adjust` leaves
/// it, one per fraction of [`LBP_FRACTIONS`].
pub fn lbp_sweep(
    kinds: &[SysbenchKind],
    adjust: impl Fn(&mut PoolingConfig),
) -> Vec<Vec<RunMetrics>> {
    let configs: Vec<PoolingConfig> = kinds
        .iter()
        .flat_map(|&kind| {
            LBP_FRACTIONS.map(|frac| {
                let mut cfg = PoolingConfig::standard(PoolKind::TieredRdma, kind, 1);
                cfg.lbp_fraction = frac;
                adjust(&mut cfg);
                cfg
            })
        })
        .collect();
    run_sweep(&configs, run_pooling)
        .chunks(LBP_FRACTIONS.len())
        .map(|row| row.iter().map(|r| r.metrics.clone()).collect())
        .collect()
}

/// Figure 10's sweep: for each workload of `kinds`, one crash-and-recover
/// run per scheme of `schemes` on [`RecoveryConfig::standard`] as
/// `adjust` leaves it — one row per kind, the schemes in the order given.
pub fn recovery_sweep(
    kinds: &[SysbenchKind],
    schemes: &[Scheme],
    adjust: impl Fn(&mut RecoveryConfig),
) -> Vec<Vec<RecoveryRunResult>> {
    let adjust = &adjust;
    let configs: Vec<RecoveryConfig> = kinds
        .iter()
        .flat_map(|&kind| {
            schemes.iter().map(move |&scheme| {
                let mut cfg = RecoveryConfig::standard(scheme, kind);
                adjust(&mut cfg);
                cfg
            })
        })
        .collect();
    run_sweep(&configs, run_recovery)
        .chunks(schemes.len())
        .map(<[RecoveryRunResult]>::to_vec)
        .collect()
}

/// Figures 11–12's sweep: at each node count of `nodes` and shared
/// percentage of `pcts`, the RDMA (30 % LBP) and the PolarCXLMem run of
/// `mix` — `PointUpdate` or `ReadWrite` — on [`SharingConfig::standard`]
/// as `adjust` leaves it: one `[rdma, cxl]` pair per point, nodes outer.
pub fn sharing_sweep(
    nodes: &[usize],
    pcts: &[u32],
    mix: SysbenchKind,
    adjust: impl Fn(&mut SharingConfig),
) -> Vec<[RunMetrics; 2]> {
    let rdma = SharingSystem::Rdma { lbp_fraction: 0.3 };
    let mut configs = Vec::new();
    for (&n, &pct) in nodes.iter().flat_map(|n| pcts.iter().map(move |p| (n, p))) {
        for system in [rdma, SharingSystem::Cxl] {
            let mut cfg = SharingConfig::standard(system, n);
            adjust(&mut cfg);
            configs.push((cfg, pct));
        }
    }
    let run = |(cfg, pct): &(SharingConfig, u32)| match mix {
        SysbenchKind::PointUpdate => run_sharing(cfg, point_update_gen(cfg.layout, *pct)),
        SysbenchKind::ReadWrite => run_sharing(cfg, read_write_gen(cfg.layout, *pct)),
        other => panic!("no sharing generator for {other:?}"),
    };
    run_sweep(&configs, run)
        .chunks(2)
        .map(|pair| [pair[0].metrics.clone(), pair[1].metrics.clone()])
        .collect()
}

/// Table 1, measured: mean latency in ns of 10 000 dependent single-line
/// loads at distinct addresses (defeating the cache, as Intel MLC does),
/// `[local, remote]` NUMA, for DRAM, direct-attached CXL and switched
/// CXL in that order. The CXL rows go through the pool's uncached load,
/// so they carry the copy-loop overhead the database path pays.
pub fn table1_latencies() -> [(&'static str, [f64; 2]); 3] {
    const N: u64 = 10_000;
    let dram = |remote: bool| {
        let mut space = DramSpace::new(2 << 20, 64, remote);
        let mut t = SimTime::ZERO;
        for i in 0..N {
            // A fresh line each time: every access misses the CPU cache.
            let at = (i * 64) % (space.len() as u64 - 64);
            t = space.read(at, &mut [0u8; 8], t).end;
        }
        t.as_nanos() as f64 / N as f64
    };
    let cxl = |direct_attach: bool, remote_numa: bool| {
        let node = CxlNodeConfig {
            cache_bytes: 64,
            remote_numa,
            direct_attach,
            ..CxlNodeConfig::default()
        };
        let mut pool = CxlPool::new(2 << 20, [node]);
        let mut t = SimTime::ZERO;
        for i in 0..N {
            t = pool.read_uncached(NodeId(0), i * 64, &mut [0u8; 8], t).end;
        }
        t.as_nanos() as f64 / N as f64
    };
    [
        ("DRAM", [dram(false), dram(true)]),
        ("CXL w/o switch", [cxl(true, false), cxl(true, true)]),
        ("CXL w/ switch", [cxl(false, false), cxl(false, true)]),
    ]
}

/// One size of Table 2, measured: µs to move `size` bytes over an idle
/// fabric, local → remote (write) and remote → local (read).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferRow {
    /// Transfer size in bytes.
    pub size: usize,
    /// RDMA write.
    pub rdma_write_us: f64,
    /// CXL non-temporal store stream.
    pub cxl_write_us: f64,
    /// RDMA read.
    pub rdma_read_us: f64,
    /// CXL uncached load stream.
    pub cxl_read_us: f64,
}

/// Table 2, measured: 64 B – 16 KB, each size over fresh fabrics so the
/// queues carry no backlog between rows.
pub fn table2_transfers() -> Vec<TransferRow> {
    let us = |end: SimTime| end.as_nanos() as f64 / 1e3;
    [64usize, 512, 1024, 4096, 16384]
        .into_iter()
        .map(|size| {
            let mut rdma = RdmaPool::new(1 << 20, 1);
            let mut cxl = CxlPool::single_host(1 << 20, 1, 64, false); // tiny cache: all misses
            let data = vec![0xA5u8; size];
            let mut buf = vec![0u8; size];
            let zero = SimTime::ZERO;
            TransferRow {
                size,
                rdma_write_us: us(rdma.write(0, 0, &data, zero).end),
                rdma_read_us: us(rdma.read(0, 0, &mut buf, zero).end),
                cxl_write_us: us(cxl.write_uncached(NodeId(0), 0, &data, zero).end),
                cxl_read_us: us(cxl.read_uncached(NodeId(0), 0, &mut buf, zero).end),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert!((improvement_pct(210.0, 100.0) - 110.0).abs() < 1e-9);
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn kqps_formats() {
        assert_eq!(kqps(3_600_000.0), "3600.0");
    }
}
