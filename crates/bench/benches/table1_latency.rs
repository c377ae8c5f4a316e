//! Table 1: access latency of DRAM vs CXL (with/without switch),
//! local vs remote NUMA — an Intel-MLC-style single-line pointer chase
//! against each memory path.

use bench::{banner, footer, table1_latencies};
use memsim::calib::{
    CXL_DIRECT_LOCAL_NS, CXL_DIRECT_REMOTE_NS, CXL_SWITCH_LOCAL_NS, CXL_SWITCH_REMOTE_NS,
};

fn main() {
    banner(
        "Table 1",
        "Access latency comparison between DRAM and CXL",
        "DRAM 146/231 ns (local/remote), CXL w/o switch 265.2/345.9 ns, CXL w/ switch 549/651 ns",
    );
    println!("{:<25} {:>12} {:>12}", "path", "local (ns)", "remote (ns)");
    let row = |path: &str, [local, remote]: [f64; 2]| {
        println!("{path:<25} {local:>12.0} {remote:>12.0}");
    };
    let [(_, dram), (_, direct), (_, switched)] = table1_latencies();
    row("DRAM", dram);
    // The raw load latencies are calibration constants; the "sw path"
    // rows are what a pool access measures.
    let calib = |local: u64, remote: u64| [local as f64, remote as f64];
    row(
        "CXL w/o switch (calib)",
        calib(CXL_DIRECT_LOCAL_NS, CXL_DIRECT_REMOTE_NS),
    );
    row("CXL w/o switch (sw path)", direct);
    row(
        "CXL w/ switch (load)",
        calib(CXL_SWITCH_LOCAL_NS, CXL_SWITCH_REMOTE_NS),
    );
    row("CXL w/ switch (sw path)", switched);
    footer("sw-path loads include the software copy overhead the database path pays");
}
