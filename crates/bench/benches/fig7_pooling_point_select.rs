//! Figure 7: PolarCXLMem vs RDMA-based disaggregated memory, sysbench
//! point-select — total throughput, average latency, and RDMA/CXL
//! bandwidth as instances scale 1–12 on one host.

use bench::pooling_figure;
use workloads::SysbenchKind;

fn main() {
    pooling_figure(
        "Figure 7",
        "Pooling: point-select, RDMA vs PolarCXLMem",
        "RDMA saturates at 3 instances (~1.1M QPS, 11 GB/s); PolarCXLMem scales to 3.6M QPS at 12 with stable latency",
        SysbenchKind::PointSelect,
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        "RDMA hits its NIC ceiling early (read amplification: whole pages per row); CXL touches only needed lines",
    );
}
