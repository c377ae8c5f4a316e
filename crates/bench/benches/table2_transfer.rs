//! Table 2: data-transfer latency of RDMA vs CXL for 64 B – 16 KB,
//! reads (remote → local) and writes (local → remote).

use bench::{banner, footer, table2_transfers};

fn main() {
    banner(
        "Table 2",
        "Data transfer latency of RDMA vs CXL",
        "64B: RDMA 4.48/4.55 us vs CXL 0.78/0.75 us; 16KB: RDMA 6.12/7.13 us vs CXL 1.68/2.46 us",
    );
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14}",
        "size", "RDMA wr (us)", "CXL wr (us)", "RDMA rd (us)", "CXL rd (us)"
    );
    for r in table2_transfers() {
        let label = if r.size >= 1024 {
            format!("{}KB", r.size / 1024)
        } else {
            format!("{}B", r.size)
        };
        println!(
            "{label:>8} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            r.rdma_write_us, r.cxl_write_us, r.rdma_read_us, r.cxl_read_us
        );
    }
    footer("CXL wins ~6x at 64B; its lead narrows as size grows (store-buffer-depth-limited streaming), as in the paper");
}
