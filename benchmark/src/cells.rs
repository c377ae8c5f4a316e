//! Workload cells: each cell is one call into a public harness entry
//! point (`run_pooling`, `run_sharing`, `run_recovery`) — the same call the
//! figure benches make, so the numbers are what regenerating a figure costs.
//!
//! Cell shapes follow ISSUE 11; only the windows were retuned so that a rep
//! (every cell once zero-window, once full) fits the driver's time budget.

use simkit::SimTime;
use workloads::sharing::{point_update_gen, read_write_gen};
use workloads::{
    run_pooling, run_recovery, run_sharing, PoolKind, PoolingConfig, PoolingResult, RecoveryConfig,
    RecoveryRunResult, Scheme, SharingConfig, SharingResult, SharingSystem, SysbenchKind,
};

/// Window of the set-up-only pass: one virtual microsecond, so the call
/// loads tables and formats pools and runs (next to) nothing.
const ZERO_WINDOW: SimTime = SimTime::from_micros(1);

/// Transaction mix of a sharing cell (the generator closures are not
/// nameable types, so the cell stores which one to build).
#[derive(Debug, Clone, Copy)]
pub enum ShareMix {
    /// `point_update_gen`, this percentage of statements on the shared group.
    PointUpdate(u32),
    /// `read_write_gen`, this percentage of statements on the shared group.
    ReadWrite(u32),
}

#[derive(Debug, Clone)]
pub enum Cell {
    Pool(PoolingConfig),
    Share(SharingConfig, ShareMix),
    Recover(RecoveryConfig),
}

#[derive(Debug, Clone)]
pub struct CellSpec {
    pub name: String,
    pub cell: Cell,
}

/// What a cell's harness call returned.
#[derive(Debug, Clone)]
pub enum CellOut {
    Pool(PoolingResult),
    Share(SharingResult),
    Recover(RecoveryRunResult),
}

fn pool_cell(
    kind: PoolKind,
    workload: SysbenchKind,
    n: usize,
    seed: u64,
) -> (String, PoolingConfig) {
    let prefix = match kind {
        PoolKind::TieredRdma => "rdma",
        PoolKind::Cxl => "cxl",
        PoolKind::Dram => "dram",
    };
    let mut cfg = PoolingConfig::standard(kind, workload, n);
    cfg.seed = seed;
    (format!("{prefix}_n{n}"), cfg)
}

/// The cells of `workload` at `seed`. `quick` is the smoke mode: the same
/// cells and code paths with 20 ms windows and quarter-size tables (the
/// table load is most of a short run).
pub fn workload_cells(workload: &str, seed: u64, quick: bool) -> Vec<CellSpec> {
    let window = |full_ms: u64| SimTime::from_millis(if quick { 20 } else { full_ms });
    let rows = |full: u64| if quick { full / 4 } else { full };
    use PoolKind::{Cxl, TieredRdma};
    match workload {
        "pool_point" => [
            (TieredRdma, 1),
            (TieredRdma, 2),
            (TieredRdma, 3),
            (TieredRdma, 4),
            (Cxl, 1),
            (Cxl, 4),
            (Cxl, 8),
        ]
        .into_iter()
        .map(|(kind, n)| {
            let (name, mut cfg) = pool_cell(kind, SysbenchKind::PointSelect, n, seed);
            cfg.table_size = rows(30_000);
            cfg.cache_bytes = 4 << 20;
            cfg.lbp_fraction = 0.3;
            cfg.duration = window(150);
            CellSpec {
                name,
                cell: Cell::Pool(cfg),
            }
        })
        .collect(),
        "pool_rw_spill" => [(TieredRdma, 1), (TieredRdma, 3), (Cxl, 1), (Cxl, 3)]
            .into_iter()
            .map(|(kind, n)| {
                let (name, mut cfg) = pool_cell(kind, SysbenchKind::ReadWrite, n, seed);
                cfg.table_size = rows(60_000);
                cfg.cache_bytes = 256 << 10;
                cfg.lbp_fraction = 0.1;
                cfg.duration = window(300);
                CellSpec {
                    name,
                    cell: Cell::Pool(cfg),
                }
            })
            .collect(),
        "share_mixed" => {
            let rdma = SharingSystem::Rdma { lbp_fraction: 0.3 };
            [
                ("cxl_upd40", SharingSystem::Cxl, ShareMix::PointUpdate(40)),
                ("rdma_upd40", rdma, ShareMix::PointUpdate(40)),
                ("cxl_rw60", SharingSystem::Cxl, ShareMix::ReadWrite(60)),
                ("rdma_rw60", rdma, ShareMix::ReadWrite(60)),
            ]
            .into_iter()
            .map(|(name, system, mix)| {
                let mut cfg = SharingConfig::standard(system, 8);
                cfg.workers_per_node = 16;
                cfg.quantum = SimTime::from_micros(200);
                cfg.duration = window(2_000);
                cfg.seed = seed;
                // One host thread: the phase loop runs inline in node
                // order, so the host profile sees the whole run.
                cfg.host_threads = 1;
                CellSpec {
                    name: name.into(),
                    cell: Cell::Share(cfg, mix),
                }
            })
            .collect()
        }
        "recover" => [Scheme::Vanilla, Scheme::RdmaBased, Scheme::PolarRecv]
            .into_iter()
            .flat_map(|scheme| {
                [
                    (SysbenchKind::WriteOnly, "wo"),
                    (SysbenchKind::ReadWrite, "rw"),
                ]
                .into_iter()
                .map(move |(kind, tag)| {
                    let mut cfg = RecoveryConfig::standard(scheme, kind);
                    cfg.table_size = rows(30_000);
                    cfg.workers = 48;
                    cfg.duration = window(900);
                    cfg.crash_at = SimTime::from_nanos(cfg.duration.as_nanos() / 2);
                    cfg.seed = seed;
                    CellSpec {
                        name: format!("{}_{tag}", scheme.name().replace('-', "")),
                        cell: Cell::Recover(cfg),
                    }
                })
            })
            .collect(),
        other => panic!("unknown workload {other}"),
    }
}

impl CellSpec {
    /// Run the cell: the full window, or (`zero_window`) the set-up-only
    /// pass that loads the tables and formats the pools.
    pub fn run(&self, zero_window: bool) -> CellOut {
        match &self.cell {
            Cell::Pool(cfg) => {
                let mut cfg = cfg.clone();
                if zero_window {
                    cfg.duration = ZERO_WINDOW;
                }
                CellOut::Pool(run_pooling(&cfg))
            }
            Cell::Share(cfg, mix) => {
                let mut cfg = cfg.clone();
                if zero_window {
                    cfg.duration = ZERO_WINDOW;
                }
                CellOut::Share(match *mix {
                    ShareMix::PointUpdate(pct) => {
                        run_sharing(&cfg, point_update_gen(cfg.layout, pct))
                    }
                    ShareMix::ReadWrite(pct) => run_sharing(&cfg, read_write_gen(cfg.layout, pct)),
                })
            }
            Cell::Recover(cfg) => {
                let mut cfg = cfg.clone();
                if zero_window {
                    cfg.duration = ZERO_WINDOW;
                    cfg.crash_at = SimTime::from_nanos(ZERO_WINDOW.as_nanos() / 2);
                }
                CellOut::Recover(run_recovery(&cfg))
            }
        }
    }

    /// Closed-loop workers of a pooling cell (for the Little's-law check).
    pub fn pool_workers(&self) -> Option<f64> {
        match &self.cell {
            Cell::Pool(cfg) => Some((cfg.instances * cfg.workers_per_instance) as f64),
            _ => None,
        }
    }
}

impl CellOut {
    /// Simulated statements the call executed.
    pub fn statements(&self) -> f64 {
        match self {
            CellOut::Pool(r) => r.metrics.qps * r.metrics.window.as_secs_f64(),
            CellOut::Share(r) => r.metrics.qps * r.metrics.window.as_secs_f64(),
            // The timeline is statements per bucket scaled to a rate; the
            // buckets are 100 ms wide (RecoveryConfig::standard).
            CellOut::Recover(r) => r.timeline.iter().map(|p| p.qps).sum::<f64>() * 0.1,
        }
    }

    /// Simulated statements per second (pre-crash for a recovery cell).
    pub fn qps(&self) -> f64 {
        match self {
            CellOut::Pool(r) => r.metrics.qps,
            CellOut::Share(r) => r.metrics.qps,
            CellOut::Recover(r) => r.pre_crash_qps,
        }
    }

    /// The cell's virtual-time latency, µs: mean transaction latency, or
    /// for a recovery cell the time from crash until queries are accepted.
    pub fn latency_us(&self) -> f64 {
        match self {
            CellOut::Pool(r) => r.metrics.avg_latency_us,
            CellOut::Share(r) => r.metrics.avg_latency_us,
            CellOut::Recover(r) => r.recovery_secs * 1e6,
        }
    }

    /// Mean transaction latency as a share of the window: how far the
    /// transactions still in flight at the window's end can move a count.
    pub fn window_edge(&self) -> f64 {
        match self {
            CellOut::Pool(r) => r.metrics.avg_latency_us / 1e6 / r.metrics.window.as_secs_f64(),
            CellOut::Share(r) => r.metrics.avg_latency_us / 1e6 / r.metrics.window.as_secs_f64(),
            CellOut::Recover(_) => 0.0,
        }
    }

    /// Interconnect bandwidth, GB/s (0 for a recovery cell).
    pub fn gbps(&self) -> f64 {
        match self {
            CellOut::Pool(r) => r.metrics.interconnect_gbps,
            CellOut::Share(r) => r.metrics.interconnect_gbps,
            CellOut::Recover(_) => 0.0,
        }
    }

    /// Every virtual-clock number of the result that `golden.json` pins.
    pub fn sim_values(&self) -> Vec<(&'static str, f64)> {
        let run_metrics = |m: &workloads::RunMetrics| {
            vec![
                ("qps", m.qps),
                ("mean_us", m.avg_latency_us),
                ("p50_us", m.p50_latency_us),
                ("p99_us", m.p99_latency_us),
                ("gbps", m.interconnect_gbps),
                ("txns", m.latency.count() as f64),
            ]
        };
        match self {
            CellOut::Pool(r) => run_metrics(&r.metrics),
            CellOut::Share(r) => {
                let mut v = run_metrics(&r.metrics);
                v.push(("lock_contended", r.lock_contended as f64));
                v.push(("lock_mean_wait_ns", r.lock_mean_wait_ns));
                v
            }
            CellOut::Recover(r) => vec![
                ("pre_crash_qps", r.pre_crash_qps),
                ("recovery_ms", r.recovery_secs * 1e3),
                ("pages_rebuilt", r.summary.pages_rebuilt as f64),
                ("records_applied", r.summary.records_applied as f64),
                ("log_bytes", r.summary.log_bytes as f64),
            ],
        }
    }

    /// Bit-for-bit equality of two results of the same cell.
    pub fn same_as(&self, other: &CellOut) -> bool {
        match (self, other) {
            (CellOut::Pool(a), CellOut::Pool(b)) => a == b,
            (CellOut::Share(a), CellOut::Share(b)) => a == b,
            // RecoveryRunResult has no PartialEq: field by field.
            (CellOut::Recover(a), CellOut::Recover(b)) => {
                a.scheme == b.scheme
                    && a.timeline == b.timeline
                    && a.pre_crash_qps.to_bits() == b.pre_crash_qps.to_bits()
                    && a.recovery_secs.to_bits() == b.recovery_secs.to_bits()
                    && a.warmup_secs.to_bits() == b.warmup_secs.to_bits()
                    && a.summary == b.summary
            }
            _ => false,
        }
    }
}
