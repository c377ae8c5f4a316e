//! Shared helpers for the paper-figure bench harness.
//!
//! [`figures`] holds one entry per table and figure of the paper (and
//! per ablation); the `paper` bench (harness = false) prints any of them
//! by id, each with the same rows/series the paper reports and a header
//! recalling what the paper measured so the shapes can be compared side
//! by side. `EXPERIMENTS.md` records a paper-vs-measured summary for
//! every entry.

pub mod figures;
pub mod sweep;

pub use sweep::{host_threads, run_sweep, run_sweep_threads};

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

/// One [`pooling_sweep`]: a pair of runs per point, in `kinds` order.
#[derive(Debug, Clone)]
pub struct PoolingSweep {
    pub points: Vec<usize>,
    pub pairs: Vec<[RunMetrics; 2]>,
}

/// Run `run` in parallel over the configuration `make` builds for each
/// `(a, b)` of `outer` × `inner`: one row of results per `a`.
pub(crate) fn grid<A, B, C: Sync, R: Send>(
    outer: &[A],
    inner: &[B],
    make: impl Fn(&A, &B) -> C,
    run: impl Fn(&C) -> R + Sync,
) -> Vec<Vec<R>> {
    let make = &make;
    let configs: Vec<C> = outer
        .iter()
        .flat_map(|a| inner.iter().map(move |b| make(a, b)))
        .collect();
    let mut results = run_sweep(&configs, run).into_iter();
    outer
        .iter()
        .map(|_| results.by_ref().take(inner.len()).collect())
        .collect()
}

/// The sweep behind Figure 3 and Figures 7–9: at each instance
/// count of `points`, one run of `workload` per pool of `kinds` on
/// [`PoolingConfig::standard`] as `adjust` leaves it, in that order.
pub fn pooling_sweep(
    kinds: [PoolKind; 2],
    workload: SysbenchKind,
    points: &[usize],
    adjust: impl Fn(&mut PoolingConfig),
) -> PoolingSweep {
    let make = |&n: &usize, &kind: &PoolKind| {
        let mut cfg = PoolingConfig::standard(kind, workload, n);
        adjust(&mut cfg);
        cfg
    };
    let rows = grid(points, &kinds, make, |cfg| run_pooling(cfg).metrics);
    let pairs = rows.into_iter().map(|row| row.try_into().expect("a pair"));
    PoolingSweep {
        points: points.to_vec(),
        pairs: pairs.collect(),
    }
}

/// Figure 1's sweep: per workload of `kinds`, one row of single-instance
/// tiered-RDMA runs on [`PoolingConfig::standard`] as `adjust` leaves
/// it, one per fraction of [`figures::LBP_FRACTIONS`].
pub fn lbp_sweep(
    kinds: &[SysbenchKind],
    adjust: impl Fn(&mut PoolingConfig),
) -> Vec<Vec<RunMetrics>> {
    let make = |&kind: &SysbenchKind, &frac: &f64| {
        let mut cfg = PoolingConfig::standard(PoolKind::TieredRdma, kind, 1);
        cfg.lbp_fraction = frac;
        adjust(&mut cfg);
        cfg
    };
    grid(kinds, &figures::LBP_FRACTIONS, make, |cfg| {
        run_pooling(cfg).metrics
    })
}

/// Figure 10's sweep: for each workload of `kinds`, one crash-and-recover
/// run per scheme of `schemes` on [`RecoveryConfig::standard`] as
/// `adjust` leaves it — one row per kind, the schemes in the order given.
pub fn recovery_sweep(
    kinds: &[SysbenchKind],
    schemes: &[Scheme],
    adjust: impl Fn(&mut RecoveryConfig),
) -> Vec<Vec<RecoveryRunResult>> {
    let make = |&kind: &SysbenchKind, &scheme: &Scheme| {
        let mut cfg = RecoveryConfig::standard(scheme, kind);
        adjust(&mut cfg);
        cfg
    };
    grid(kinds, schemes, make, run_recovery)
}

/// Figures 11–13's sweep (and A1's): at each node count of `nodes` and
/// shared percentage of `pcts`, one run of `mix` — `PointUpdate` or
/// `ReadWrite` — per system of `systems`, on [`SharingConfig::standard`]
/// as `adjust` leaves it: one row per point, nodes outer, the systems in
/// the order given.
pub fn sharing_sweep(
    nodes: &[usize],
    pcts: &[u32],
    systems: &[SharingSystem],
    mix: SysbenchKind,
    adjust: impl Fn(&mut SharingConfig),
) -> Vec<Vec<RunMetrics>> {
    let points: Vec<(usize, u32)> = nodes
        .iter()
        .flat_map(|&n| pcts.iter().map(move |&p| (n, p)))
        .collect();
    let make = |&(n, pct): &(usize, u32), &system: &SharingSystem| {
        let mut cfg = SharingConfig::standard(system, n);
        adjust(&mut cfg);
        (cfg, pct)
    };
    let run = |(cfg, pct): &(SharingConfig, u32)| match mix {
        SysbenchKind::PointUpdate => run_sharing(cfg, point_update_gen(cfg.layout, *pct)).metrics,
        SysbenchKind::ReadWrite => run_sharing(cfg, read_write_gen(cfg.layout, *pct)).metrics,
        other => panic!("no sharing generator for {other:?}"),
    };
    grid(&points, systems, make, run)
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
