//! The paper's shapes, measured (ROADMAP 1(a)). Tables 1–2: every
//! modelled latency and transfer time measured through `DramSpace` /
//! `CxlPool` / `RdmaPool`'s public API — the loops the `table1_latency`
//! and `table2_transfer` benches print — beside the paper's value.
//! Figure 7: the three pooling shapes of the ledger's `pool_point`
//! workload, from `run_pooling` at smoke scale through the
//! `fig7_pooling_point_select` bench's own sweep. Orderings and knees are
//! held exactly, each magnitude inside a stated band of
//! |ln(ours / paper)|. `cargo test --test paper_shapes -- --nocapture`
//! prints the rows EXPERIMENTS.md quotes.

use bench::{pooling_sweep, table1_latencies, table2_transfers, TransferRow};
use simkit::SimTime;
use workloads::SysbenchKind;

fn ln_ratio(ours: f64, paper: f64) -> f64 {
    (ours / paper).ln().abs()
}

/// Table 1 of the paper, ns `[local, remote]` per path, and the band
/// each of our two magnitudes must sit in. DRAM is a calibration anchor
/// and exact. The CXL rows are not: the paper's are raw MLC loads, ours
/// go through the pool's load path, which charges Table 2's 64-byte
/// *copy* base (0.70 µs, software included) for the first line of every
/// miss — 151 ns over the raw switched load, the same 151 ns over the
/// direct one.
const TABLE1_PAPER: [(&str, [f64; 2], f64); 3] = [
    ("DRAM", [146.0, 231.0], 0.001),
    ("CXL w/o switch", [265.2, 345.9], 0.46),
    ("CXL w/ switch", [549.0, 651.0], 0.25),
];

#[test]
fn table1_latencies_keep_the_papers_orderings_and_bands() {
    let ours = table1_latencies();
    println!("| path | paper local / remote (ns) | ours | \\|ln ratio\\| |");
    println!("|---|---|---|---|");
    for ((path, paper, band), (measured_path, measured)) in TABLE1_PAPER.iter().zip(&ours) {
        assert_eq!(path, measured_path);
        let err = [0, 1].map(|i| ln_ratio(measured[i], paper[i]));
        println!(
            "| {path} | {} / {} | {:.0} / {:.0} | {:.3} / {:.3} |",
            paper[0], paper[1], measured[0], measured[1], err[0], err[1]
        );
        assert!(
            err.iter().all(|e| e <= band),
            "{path}: {measured:?} vs {paper:?}, |ln ratio| {err:?} outside {band}"
        );
        assert!(measured[0] < measured[1], "{path}: local must beat remote");
    }
    let [(_, dram), (_, direct), (_, switched)] = ours;
    for numa in [0, 1] {
        assert!(
            dram[numa] < direct[numa] && direct[numa] < switched[numa],
            "DRAM < direct CXL < switched CXL must hold (column {numa})"
        );
    }
    // What the switch adds is the paper's to the nanosecond, whatever
    // both rows carry on top: 549 − 265.2 local.
    let hop = switched[0] - direct[0];
    assert!((hop - (549.0 - 265.2)).abs() < 1.0, "switch hop {hop} ns");
}

/// Table 2 of the paper, µs: size, RDMA write, CXL write, RDMA read,
/// CXL read.
const TABLE2_PAPER: [TransferRow; 5] = [
    row(64, 4.48, 0.78, 4.55, 0.75),
    row(512, 4.69, 0.84, 4.79, 0.85),
    row(1024, 4.77, 0.88, 4.91, 1.07),
    row(4096, 5.06, 1.02, 5.58, 1.86),
    row(16384, 6.12, 1.68, 7.13, 2.46),
];

const fn row(size: usize, rdma_wr: f64, cxl_wr: f64, rdma_rd: f64, cxl_rd: f64) -> TransferRow {
    TransferRow {
        size,
        rdma_write_us: rdma_wr,
        cxl_write_us: cxl_wr,
        rdma_read_us: rdma_rd,
        cxl_read_us: cxl_rd,
    }
}

/// Per-column bands. The model is base + per-line streaming fitted to
/// the 64 B and 16 KB ends, so the middle sizes carry the error: the
/// paper's CXL read grows faster between 1 KB and 4 KB than a straight
/// line through its ends (1.86 µs at 4 KB against our 1.14).
const BAND_RDMA_WRITE: f64 = 0.05;
const BAND_CXL_WRITE: f64 = 0.12;
const BAND_RDMA_READ: f64 = 0.17;
const BAND_CXL_READ: f64 = 0.50;

#[test]
fn table2_transfers_keep_the_papers_orderings_and_bands() {
    let ours = table2_transfers();
    assert_eq!(ours.len(), TABLE2_PAPER.len());
    println!(
        "| size | RDMA write paper / ours / \\|ln\\| (µs) | CXL write | RDMA read | CXL read |"
    );
    println!("|---|---|---|---|---|");
    let mut lead = Vec::new();
    for (paper, m) in TABLE2_PAPER.iter().zip(&ours) {
        assert_eq!(paper.size, m.size);
        let cells = [
            (paper.rdma_write_us, m.rdma_write_us, BAND_RDMA_WRITE),
            (paper.cxl_write_us, m.cxl_write_us, BAND_CXL_WRITE),
            (paper.rdma_read_us, m.rdma_read_us, BAND_RDMA_READ),
            (paper.cxl_read_us, m.cxl_read_us, BAND_CXL_READ),
        ];
        let line: Vec<String> = cells
            .iter()
            .map(|&(p, o, _)| format!("{p:.2} / {o:.2} / {:.3}", ln_ratio(o, p)))
            .collect();
        println!("| {} B | {} |", m.size, line.join(" | "));
        for (p, o, band) in cells {
            let err = ln_ratio(o, p);
            assert!(
                err <= band,
                "{} B: {o} vs {p}, |ln ratio| {err} > {band}",
                m.size
            );
        }
        assert!(m.cxl_write_us < m.rdma_write_us && m.cxl_read_us < m.rdma_read_us);
        lead.push((
            m.rdma_write_us / m.cxl_write_us,
            m.rdma_read_us / m.cxl_read_us,
        ));
    }
    // CXL's lead over RDMA narrows with size in both directions, from
    // about 6× at one line (paper: 5.74× write, 6.07× read).
    assert!(
        lead.windows(2).all(|w| w[1].0 < w[0].0 && w[1].1 < w[0].1),
        "{lead:?}"
    );
    assert!((5.0..7.5).contains(&lead[0].0) && (5.0..7.5).contains(&lead[0].1));
}

/// Figure 7 of the paper: RDMA pooling stops scaling at 3 instances on
/// an 11 GB/s NIC, PolarCXLMem scales linearly to 8 and beyond.
const FIG7_PAPER_KNEE: usize = 3;
const FIG7_PAPER_CXL_LINEARITY: f64 = 1.0;
const FIG7_PAPER_NIC_GBPS: f64 = 11.0;

/// Bands at smoke scale (a quarter of the ledger's table, a 20 ms
/// window). CXL's eight instances share nothing the workload saturates,
/// so linearity is exact (1.000, as at full size). The NIC ceiling reads
/// 10.29 GB/s here against 10.16 at full size (|ln ratio| 0.067 / 0.079):
/// a smaller table hits the same page-per-row amplification, and 0.10
/// leaves room for either scale.
const BAND_CXL_LINEARITY: f64 = 0.02;
const BAND_NIC_GBPS: f64 = 0.10;

/// The ledger's `pool_point` shapes through the Figure 7 bench's sweep:
/// the knee is the first instance count whose RDMA throughput falls under
/// 90 % of linear scaling from one instance, linearity is qps(8) over
/// 8 × qps(1), the ceiling is the most an RDMA point from 1 to 4 moves.
#[test]
fn figure7_pooling_keeps_the_papers_knee_linearity_and_nic_ceiling() {
    let points = [1, 2, 3, 4, 8];
    let pairs = pooling_sweep(SysbenchKind::PointSelect, &points, |cfg| {
        cfg.table_size = 7_500;
        cfg.duration = SimTime::from_millis(20);
    });
    let at = |n: usize| &pairs[points.iter().position(|&p| p == n).expect("a point")];
    let base = at(1)[0].qps;
    let knee = (2..=4)
        .find(|&n| at(n)[0].qps < 0.9 * n as f64 * base)
        .unwrap_or(5);
    let linearity = at(8)[1].qps / (8.0 * at(1)[1].qps);
    let nic = (1..=4)
        .map(|n| at(n)[0].interconnect_gbps)
        .fold(0.0, f64::max);
    println!("| shape | paper | ours | \\|ln ratio\\| |");
    println!("|---|---|---|---|");
    println!("| `rdma_knee_instances` | {FIG7_PAPER_KNEE} | {knee} | |");
    for (name, paper, ours) in [
        ("cxl_linearity_8x", FIG7_PAPER_CXL_LINEARITY, linearity),
        ("rdma_sat_gbps", FIG7_PAPER_NIC_GBPS, nic),
    ] {
        println!(
            "| `{name}` | {paper} | {ours:.3} | {:.3} |",
            ln_ratio(ours, paper)
        );
    }
    assert_eq!(knee, FIG7_PAPER_KNEE, "{pairs:?}");
    assert!(
        ln_ratio(linearity, FIG7_PAPER_CXL_LINEARITY) <= BAND_CXL_LINEARITY,
        "{linearity}"
    );
    assert!(
        ln_ratio(nic, FIG7_PAPER_NIC_GBPS) <= BAND_NIC_GBPS,
        "{nic} GB/s"
    );
    // Past the knee the NIC, not the instances, sets RDMA's throughput,
    // and CXL pulls ahead.
    for n in [3, 4, 8] {
        assert!(at(n)[1].qps > at(n)[0].qps, "n = {n}: CXL must beat RDMA");
    }
}
