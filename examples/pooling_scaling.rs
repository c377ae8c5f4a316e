//! Pooling scenario (paper §4.2): run many database instances on one
//! host against tiered-RDMA vs CXL disaggregated memory and watch the
//! RDMA NIC saturate while CXL keeps scaling.
//!
//! The scaling points are independent simulated worlds, so they fan out
//! across host threads through `bench::pooling_sweep`, Figure 7's sweep.
//!
//! Run with: `cargo run --release --example pooling_scaling`
//!
//! Pass `--trace out.json` to rerun the first configuration with span
//! recording + latency attribution on and dump a Chrome `trace_event`
//! file — open it at https://ui.perfetto.dev (or `chrome://tracing`) to
//! see every simulated nanosecond on a per-node, per-span-kind timeline.

use bench::figures::RDMA_VS_CXL;
use bench::pooling_sweep;
use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::trace;
use polardb_cxl_repro::workloads::PoolingResult;
use std::path::{Path, PathBuf};

const POINTS: [usize; 5] = [1, 2, 4, 8, 12];

fn main() {
    println!("sysbench point-select, 48 workers/instance, whole dataset in disaggregated memory\n");
    println!(
        "{:>10} {:>16} {:>16} {:>12} {:>12}",
        "instances", "RDMA K-QPS", "CXL K-QPS", "RDMA GB/s", "CXL GB/s"
    );
    let sweep = pooling_sweep(RDMA_VS_CXL, SysbenchKind::PointSelect, &POINTS, |_| {});
    for ([rdma, cxl], n) in sweep.pairs.iter().zip(POINTS) {
        println!(
            "{:>10} {:>16.1} {:>16.1} {:>12.2} {:>12.2}",
            n,
            rdma.qps / 1e3,
            cxl.qps / 1e3,
            rdma.interconnect_gbps,
            cxl.interconnect_gbps
        );
    }
    println!("\nthe tiered design moves a 16 KB page per miss; the ConnectX-6 (12 GB/s) becomes the wall.");

    if let Some(path) = trace_out_path() {
        let first = PoolingConfig::standard(RDMA_VS_CXL[0], SysbenchKind::PointSelect, POINTS[0]);
        println!(
            "\ntraced rerun of the first configuration ({:?}):",
            first.kind
        );
        let r = run_traced(&first, &path);
        println!("{}", r.registry.table());
        println!("open the trace at https://ui.perfetto.dev (Open trace file)");
    }
}

/// Trace output path from the `--trace <path>` command-line switch;
/// `None` when it is not given.
fn trace_out_path() -> Option<PathBuf> {
    let mut args = std::env::args();
    args.position(|a| a == "--trace")?;
    args.next().map(Into::into)
}

/// Run `cfg` with span recording and latency attribution enabled,
/// then write the recorded spans as Chrome `trace_event` JSON to `path`
/// (load it in <https://ui.perfetto.dev> or `chrome://tracing`).
/// Tracing is observation-only, so the returned result is bit-identical
/// to an untraced run.
fn run_traced(cfg: &PoolingConfig, path: &Path) -> PoolingResult {
    trace::reset();
    trace::enable_spans(true);
    trace::enable_attribution(true);
    let r = run_pooling(cfg);
    trace::enable_spans(false);
    trace::enable_attribution(false);
    let events = trace::take_events();
    let dropped = trace::dropped_events();
    std::fs::write(path, trace::chrome_trace_json(&events))
        .unwrap_or_else(|e| panic!("writing trace to {}: {e}", path.display()));
    eprintln!(
        "trace: {} spans -> {} ({} dropped; open in Perfetto)",
        events.len(),
        path.display(),
        dropped
    );
    trace::reset();
    r
}
