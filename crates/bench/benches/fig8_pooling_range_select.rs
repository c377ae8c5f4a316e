//! Figure 8: pooling comparison under sysbench range-select
//! (32 threads/instance) at 2/4/8/12 instances.

use bench::pooling_figure;
use workloads::SysbenchKind;

fn main() {
    pooling_figure(
        "Figure 8",
        "Pooling: range-select, RDMA vs PolarCXLMem",
        "RDMA saturates at 4 instances (~11 GB/s); PolarCXLMem keeps scaling",
        SysbenchKind::RangeSelect,
        &[2, 4, 8, 12],
        "ranges read whole pages usefully, so RDMA's amplification is smaller - but bandwidth still caps it",
    );
}
