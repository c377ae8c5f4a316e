//! The paper's Tables 1–2 as shapes (ROADMAP 1(a), first slice): every
//! modelled latency and transfer time measured through `DramSpace` /
//! `CxlPool` / `RdmaPool`'s public API — the loops the `table1_latency`
//! and `table2_transfer` benches print — beside the paper's value.
//! Orderings are held exactly, each magnitude inside a stated band of
//! |ln(ours / paper)|. `cargo test --test paper_shapes -- --nocapture`
//! prints the rows EXPERIMENTS.md quotes. No harness runs here.

use bench::{table1_latencies, table2_transfers, TransferRow};

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
