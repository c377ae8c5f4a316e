//! Figure 10: recovery performance — throughput timeline around a crash
//! for vanilla / RDMA-based / PolarRecv under read-only, read-write and
//! write-only workloads, plus the recovery and warm-up times the paper
//! quotes.

use bench::{banner, footer, recovery_sweep};
use workloads::recovery_harness::Scheme;
use workloads::SysbenchKind;

fn main() {
    banner(
        "Figure 10",
        "Recovery performance comparison",
        "read-write recovery: vanilla 110s, RDMA 33s, PolarRecv 8s; warm-up after read-only crash: 30s/10s/~0",
    );
    let kinds = [
        SysbenchKind::ReadOnly,
        SysbenchKind::ReadWrite,
        SysbenchKind::WriteOnly,
    ];
    let schemes = [Scheme::Vanilla, Scheme::RdmaBased, Scheme::PolarRecv];
    for (wl, runs) in kinds.iter().zip(recovery_sweep(&kinds, &schemes, |_| {})) {
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
