//! Figure 9: pooling comparison under sysbench read-write
//! (48 threads/instance) at 2/4/8/12 instances.

use bench::pooling_figure;
use workloads::SysbenchKind;

fn main() {
    pooling_figure(
        "Figure 9",
        "Pooling: read-write, RDMA vs PolarCXLMem",
        "RDMA saturates at 8 instances; PolarCXLMem keeps scaling; RDMA bandwidth ~40% above CXL at 1 instance",
        SysbenchKind::ReadWrite,
        &[1, 2, 4, 8, 12],
        "writes amplify too: a dirty eviction ships a whole page over the NIC",
    );
}
