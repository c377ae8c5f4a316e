//! Table 3: TPC-C and TATP on a 15-node cluster — RDMA-based PolarDB-MP
//! with 10 % and 30 % LBP vs PolarCXLMem; throughput, latency and
//! relative memory overhead.

use bench::{banner, footer, improvement_pct, run_sweep};
use workloads::sharing::{run_sharing, GroupLayout, SharingConfig, SharingSystem};
use workloads::tatp::Tatp;
use workloads::tpcc::Tpcc;

const NODES: usize = 15;

fn cfg(system: SharingSystem) -> SharingConfig {
    let mut c = SharingConfig::standard(system, NODES);
    // TPC-C/TATP partitions: one group per node (no extra shared group;
    // cross-warehouse ops target other nodes' groups directly).
    c.layout = GroupLayout {
        groups: NODES,
        rows_per_group: 6_000,
    };
    c.duration = simkit::SimTime::from_millis(150);
    c
}

fn run_tpcc(system: SharingSystem) -> (f64, f64, u64) {
    let c = cfg(system);
    let layout = c.layout;
    let gen = Tpcc::new(layout, NODES);
    let r = run_sharing(&c, |rng, node, txn| *txn = gen.next_txn(rng, node).0);
    // TpmC: New-Order transactions per minute (45% of the mix).
    let tpmc = r.metrics.tps * 0.45 * 60.0;
    (tpmc, r.metrics.p95_latency_us / 1e3, r.metrics.memory_bytes)
}

fn run_tatp(system: SharingSystem) -> (f64, f64, u64) {
    let c = cfg(system);
    let layout = c.layout;
    let gen = Tatp::new(layout);
    let r = run_sharing(&c, |rng, node, txn| *txn = gen.next_txn(rng, node).0);
    (
        r.metrics.qps,
        r.metrics.avg_latency_us / 1e3,
        r.metrics.memory_bytes,
    )
}

fn main() {
    banner(
        "Table 3",
        "TPC-C and TATP on 15 nodes",
        "TPC-C: 1.11/1.65/1.92 MtpmC (RDMA-10/RDMA-30/CXL); TATP: 2.35/2.77/3.61 MQPS; CXL has the lowest memory",
    );
    let systems = [
        ("RDMA 10% LBP", SharingSystem::Rdma { lbp_fraction: 0.1 }),
        ("RDMA 30% LBP", SharingSystem::Rdma { lbp_fraction: 0.3 }),
        ("PolarCXLMem", SharingSystem::Cxl),
    ];

    // One sweep over benchmark x system: all six cluster simulations are
    // independent worlds, so they fan out across host threads.
    let configs: Vec<(bool, SharingSystem)> = [false, true]
        .into_iter()
        .flat_map(|tatp| systems.iter().map(move |&(_, sys)| (tatp, sys)))
        .collect();
    let results = run_sweep(
        &configs,
        |&(tatp, sys)| {
            if tatp {
                run_tatp(sys)
            } else {
                run_tpcc(sys)
            }
        },
    );

    println!("[TPC-C]");
    println!(
        "{:<14} {:>12} {:>16} {:>14}",
        "system", "TpmC (K)", "p95 lat (ms)", "memory (MB)"
    );
    let mut tpcc = Vec::new();
    for ((name, _), &(tpmc, lat, mem)) in systems.iter().zip(&results[..3]) {
        println!(
            "{:<14} {:>12.1} {:>16.2} {:>14.1}",
            name,
            tpmc / 1e3,
            lat,
            mem as f64 / 1e6
        );
        tpcc.push(tpmc);
    }
    println!(
        "  CXL vs RDMA-10: {:+.1}%   CXL vs RDMA-30: {:+.1}%",
        improvement_pct(tpcc[2], tpcc[0]),
        improvement_pct(tpcc[2], tpcc[1])
    );

    println!("\n[TATP]");
    println!(
        "{:<14} {:>12} {:>16} {:>14}",
        "system", "K-QPS", "avg lat (ms)", "memory (MB)"
    );
    let mut tatp = Vec::new();
    for ((name, _), &(qps, lat, mem)) in systems.iter().zip(&results[3..]) {
        println!(
            "{:<14} {:>12.1} {:>16.3} {:>14.1}",
            name,
            qps / 1e3,
            lat,
            mem as f64 / 1e6
        );
        tatp.push(qps);
    }
    println!(
        "  CXL vs RDMA-10: {:+.1}%   CXL vs RDMA-30: {:+.1}%",
        improvement_pct(tatp[2], tatp[0]),
        improvement_pct(tatp[2], tatp[1])
    );
    footer(
        "well-partitioned workloads still benefit from no amplification and no LBP memory overhead",
    );
}
