//! The recovery entries: Figure 10 and ablation A2.

use super::{paper, Paper};
use crate::{banner, footer, recovery_sweep};
use workloads::recovery_harness::Scheme;
use workloads::SysbenchKind::{self, *};

/// Figure 10: recovery performance — throughput timeline around a crash
/// for vanilla / RDMA-based / PolarRecv under read-only, read-write and
/// write-only workloads, plus the recovery and warm-up times the paper
/// quotes.
pub mod fig10 {
    use super::*;
    const KINDS: [SysbenchKind; 3] = [ReadOnly, ReadWrite, WriteOnly];
    pub const SCHEMES: [Scheme; 3] = [Scheme::Vanilla, Scheme::RdmaBased, Scheme::PolarRecv];
    /// The cells the shapes read, the ledger's `recover` cells.
    pub const SHAPE_KINDS: [SysbenchKind; 2] = [WriteOnly, ReadWrite];
    /// Write-only recovery: vanilla 173 s, PolarRecv 15 s.
    pub const VANILLA_OVER_POLAR_WO: Paper = paper("vanilla_over_polar_wo", 173.0 / 15.0);
    /// Write-only recovery: RDMA-based 73 s, PolarRecv 15 s.
    pub const RDMA_OVER_POLAR_WO: Paper = paper("rdma_over_polar_wo", 73.0 / 15.0);
    /// Read-write recovery: vanilla 110 s, RDMA-based 33 s.
    pub const VANILLA_OVER_RDMA_RW: Paper = paper("vanilla_over_rdma_rw", 110.0 / 33.0);
    pub const PAPER: &[Paper] = &[
        VANILLA_OVER_POLAR_WO,
        RDMA_OVER_POLAR_WO,
        VANILLA_OVER_RDMA_RW,
    ];

    /// [`PAPER`] measured, from recovery seconds per scheme of [`SCHEMES`]
    /// on each of [`SHAPE_KINDS`].
    pub fn ratios([wo, rw]: [&[f64]; 2]) -> [f64; 3] {
        [wo[0] / wo[2], wo[1] / wo[2], rw[0] / rw[1]]
    }

    pub fn print() {
        banner(
            "Figure 10",
            "Recovery performance comparison",
            "read-write recovery: vanilla 110s, RDMA 33s, PolarRecv 8s; warm-up after read-only crash: 30s/10s/~0",
        );
        for (wl, runs) in KINDS.iter().zip(recovery_sweep(&KINDS, &SCHEMES, |_| {})) {
            println!("[{wl:?}] (crash at t=2s of 6s; 100ms buckets)");
            println!(
                "{:<11} {:>12} {:>14} {:>12} {:>14} {:>12}",
                "scheme", "pre K-QPS", "recovery (s)", "warmup (s)", "pages rebuilt", "log bytes"
            );
            for r in &runs {
                println!(
                    "{:<11} {:>12.1} {:>14.3} {:>12.3} {:>14} {:>12}",
                    r.scheme,
                    r.pre_crash_qps / 1e3,
                    r.recovery_secs,
                    if r.warmup_secs.is_finite() {
                        r.warmup_secs
                    } else {
                        -1.0
                    },
                    r.summary.pages_rebuilt,
                    r.summary.log_bytes
                );
            }
            // Timeline around the crash (t = 1.5s .. 4.0s, 100 ms buckets):
            // the dip and ramp are visible at this resolution.
            println!("  timeline around crash (K-QPS per 100ms, t=1.5s..4.0s):");
            for r in &runs {
                let seg: Vec<String> = r
                    .timeline
                    .iter()
                    .skip(15)
                    .take(25)
                    .map(|p| format!("{:>4.0}", p.qps / 1e3))
                    .collect();
                println!("  {:<11} {}", r.scheme, seg.join(" "));
            }
            println!();
        }
        footer("PolarRecv restores a warm pool in milliseconds; replay-based schemes scan the redo tail and re-warm");
    }
}

/// Ablation A2: what durable metadata in CXL is worth to recovery.
///
/// PolarRecv trusts a block when its persisted `lock_state` is clear and
/// its `lsn` is covered by durable redo. Without that metadata, every
/// in-use page must be rebuilt from storage + redo even though its data
/// survived in CXL — this measures that gap (§3.2's design rationale).
pub mod a2 {
    use super::*;
    const KINDS: [SysbenchKind; 2] = [ReadWrite, WriteOnly];
    pub const SCHEMES: [Scheme; 2] = [Scheme::PolarRecv, Scheme::PolarRecvNoMeta];

    pub fn print() {
        banner(
            "Ablation A2",
            "PolarRecv with vs without durable block metadata",
            "storing {lock_state, lsn} in CXL is what lets recovery trust surviving pages instead of replaying everything",
        );
        println!(
            "{:<18} {:>14} {:>16} {:>14} {:>14}",
            "scheme", "workload", "recovery (s)", "pages rebuilt", "records"
        );
        for (wl, runs) in KINDS.iter().zip(recovery_sweep(&KINDS, &SCHEMES, |_| {})) {
            for r in &runs {
                println!(
                    "{:<18} {:>14} {:>16.4} {:>14} {:>14}",
                    r.scheme,
                    format!("{wl:?}"),
                    r.recovery_secs,
                    r.summary.pages_rebuilt,
                    r.summary.records_applied
                );
            }
        }
        footer(
            "without metadata the 'instant' recovery degenerates to a full rebuild of the resident set",
        );
    }
}
