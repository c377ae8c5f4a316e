//! The paper's shapes, measured (ROADMAP 1(a)). Tables 1–2: every
//! modelled latency and transfer time measured through `DramSpace` /
//! `CxlPool` / `RdmaPool`'s public API — the loops the `table1_latency`
//! and `table2_transfer` benches print — beside the paper's value.
//! Figure 1: the RDMA design's LBP sweep, through the `fig1_lbp_size`
//! bench's own sweep. Figures 3 and 7–9: the pooling shapes, from
//! `run_pooling` at smoke scale through the `fig3`/`fig7`/`fig8`/`fig9`
//! benches' own sweep — Figure 3's are the paper's case against a DRAM
//! tier, Figure 7's are the ledger's `pool_point` workload, Figure 9's
//! bandwidth ratio is its `pool_rw_spill` one. Orderings and knees are held exactly, each
//! magnitude inside a stated band of |ln(ours / paper)|, or of
//! |ln(ours / today)| where the two are still far apart. Figure 10: the
//! recovery-time orderings from `run_recovery` through the
//! `fig10_recovery` bench's sweep, on the ledger's `recover` cells, and
//! ablation A2 (PolarRecv without its block metadata) on the same cells.
//! Ablation A1: line-granularity against full-page flushing on publish,
//! the `ablation_coherency` bench's two columns.
//! Ablation A3: the CPU cache's size against CXL switch bytes and
//! throughput, through the `ablation_cache_size` bench's sizes.
//! Figures 11–13: the sharing orderings from `run_sharing` through the
//! `fig11`/`fig12`/`fig13` benches' sweep, with the ledger's
//! `share_mixed` gains and Figure 13's LBP breakdown.
//! `cargo test --test paper_shapes -- --nocapture` prints the rows
//! EXPERIMENTS.md quotes.

use bench::{
    lbp_sweep, pooling_sweep, recovery_sweep, run_sweep, sharing_sweep, table1_latencies,
    table2_transfers, TransferRow, DRAM_VS_CXL, LBP_FRACTIONS, RDMA_VS_CXL,
};
use simkit::stats::MetricValue;
use simkit::SimTime;
use workloads::recovery_harness::{RecoveryConfig, RecoveryRunResult, Scheme};
use workloads::sharing::point_update_gen;
use workloads::{
    run_pooling, run_sharing, PoolKind, PoolingConfig, RunMetrics, SharingConfig, SharingSystem,
    SysbenchKind,
};

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

/// Figure 1 of the paper: the tiered RDMA design's throughput rises
/// about 25 % as its local buffer pool grows from 10 % to 100 % of the
/// disaggregated memory, while its RDMA bandwidth falls to 0.
const FIG1_PAPER_QPS_GAIN: f64 = 1.25;

/// Figure 1 at Figure 3's scale (7 500 rows, 10 ms windows) through
/// `bench::lbp_sweep`, as the `fig1_lbp_size` bench runs it. Held
/// exactly: RDMA bandwidth never rises as the LBP grows, and it is 0 at
/// 100 %. The throughput gain is the divergence (EXPERIMENTS.md "Figure
/// 1"): ours is flat, because a statement's memory stalls hide under its
/// CPU cost (ROADMAP 1(b)(ii)), so it is printed beside the paper's,
/// not banded.
#[test]
fn figure1_rdma_bandwidth_falls_to_zero_as_the_lbp_grows() {
    let kinds = [SysbenchKind::PointSelect, SysbenchKind::ReadWrite];
    let sweep = lbp_sweep(&kinds, |cfg| {
        cfg.table_size = 7_500;
        cfg.duration = SimTime::from_millis(10);
    });
    println!("| workload | LBP | K-QPS | RDMA GB/s |");
    println!("|---|---|---|---|");
    for (series, kind) in sweep.iter().zip(kinds) {
        for (m, frac) in series.iter().zip(LBP_FRACTIONS) {
            println!(
                "| {kind:?} | {:.0} % | {:.1} | {:.3} |",
                frac * 100.0,
                m.qps / 1e3,
                m.interconnect_gbps
            );
        }
        let gbps: Vec<f64> = series.iter().map(|m| m.interconnect_gbps).collect();
        assert!(
            gbps.windows(2).all(|w| w[1] <= w[0]),
            "{kind:?}: RDMA bandwidth rose with the LBP: {gbps:?}"
        );
        assert_eq!(gbps[gbps.len() - 1], 0.0, "{kind:?}: RDMA traffic at 100 %");
        let gain = series[series.len() - 1].qps / series[0].qps;
        println!(
            "| {kind:?} | 100 % / 10 % | {gain:.4} (paper {FIG1_PAPER_QPS_GAIN}, \\|ln\\| {:.3}) | |",
            ln_ratio(gain, FIG1_PAPER_QPS_GAIN)
        );
    }
}

/// Figure 3 of the paper: CXL-BP runs 7–10 % behind DRAM-BP at every
/// scale (≈ 7 % point-select, ≈ 10 % range-select) and both scale to 12
/// instances — the evidence that a CXL-native pool needs no DRAM tier.
/// As CXL-over-DRAM throughput ratios, the two ends of that range.
const FIG3_PAPER_CXL_OVER_DRAM: [f64; 2] = [0.93, 0.90];

/// Figure 3 at smoke scale: DRAM-BP against CXL-BP through
/// `bench::pooling_sweep`, as the `fig3_cxl_vs_dram` bench runs it, on
/// Figure 7's 7 500-row table at 1, 2 and 4 instances. The window is
/// 10 ms, half the other pooling figures', which keeps the test near
/// Figure 7's cost unoptimised. The gap is the divergence
/// (EXPERIMENTS.md "Figure 3"): CXL-BP reads 99.45 % of DRAM-BP under
/// read-write here and 100 % under point-select (0–0.1 % behind at full
/// size), so it is printed, not banded. Held exactly: CXL is never ahead
/// of DRAM, and it scales linearly to 4 instances inside the band Figure
/// 8's linearity uses.
#[test]
fn figure3_cxl_never_beats_dram_and_scales_linearly() {
    let [close, far] = FIG3_PAPER_CXL_OVER_DRAM;
    println!(
        "| workload | n | DRAM K-QPS | CXL K-QPS | CXL / DRAM | \\|ln\\| vs {close} / {far} |"
    );
    println!("|---|---|---|---|---|---|");
    for workload in [SysbenchKind::PointSelect, SysbenchKind::ReadWrite] {
        let sweep = Sweep::run(DRAM_VS_CXL, workload, &[1, 2, 4], |cfg| {
            cfg.table_size = 7_500;
            cfg.duration = SimTime::from_millis(10);
        });
        for (n, [dram, cxl]) in sweep.points.iter().zip(&sweep.pairs) {
            let ratio = cxl.qps / dram.qps;
            println!(
                "| {workload:?} | {n} | {:.1} | {:.1} | {ratio:.4} | {:.3} / {:.3} |",
                dram.qps / 1e3,
                cxl.qps / 1e3,
                ln_ratio(ratio, close),
                ln_ratio(ratio, far)
            );
            assert!(
                cxl.qps <= dram.qps,
                "{workload:?}, n = {n}: CXL ahead of DRAM"
            );
        }
        let linearity = sweep.cxl_linearity(4);
        println!("| {workload:?} | `cxl_linearity_4x` | | | {linearity:.3} | |");
        assert!(
            ln_ratio(linearity, 1.0) <= BAND_FIG8_CXL_LINEARITY,
            "{workload:?}: {linearity}"
        );
    }
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

/// A pooling sweep at smoke scale, looked up by instance count.
struct Sweep {
    points: Vec<usize>,
    pairs: Vec<[RunMetrics; 2]>,
}

impl Sweep {
    /// `bench::pooling_sweep` of `kinds` under `workload` at `points`
    /// with a 20 ms window, `adjust` setting the rest.
    fn run(
        kinds: [PoolKind; 2],
        workload: SysbenchKind,
        points: &[usize],
        adjust: impl Fn(&mut PoolingConfig),
    ) -> Self {
        let pairs = pooling_sweep(kinds, workload, points, |cfg| {
            cfg.duration = SimTime::from_millis(20);
            adjust(cfg);
        });
        Sweep {
            points: points.to_vec(),
            pairs,
        }
    }

    /// The pair of runs at `n` instances, in the sweep's `kinds` order.
    fn at(&self, n: usize) -> &[RunMetrics; 2] {
        &self.pairs[self.points.iter().position(|&p| p == n).expect("a point")]
    }

    /// The ledger's `rdma_knee_instances`: the first instance count from
    /// 2 to 4 whose RDMA throughput falls under 90 % of linear scaling
    /// from one instance (5: none does).
    fn knee(&self) -> usize {
        let base = self.at(1)[0].qps;
        (2..=4)
            .find(|&n| self.at(n)[0].qps < 0.9 * n as f64 * base)
            .unwrap_or(5)
    }

    /// CXL throughput at `n` instances over `n` × its throughput at one.
    fn cxl_linearity(&self, n: usize) -> f64 {
        self.at(n)[1].qps / (n as f64 * self.at(1)[1].qps)
    }

    /// Past the knee the NIC, not the instances, sets RDMA's throughput,
    /// and CXL pulls ahead at every point from the knee on.
    fn assert_cxl_ahead_from(&self, knee: usize) {
        for &n in self.points.iter().filter(|&&n| n >= knee) {
            let [rdma, cxl] = self.at(n);
            assert!(cxl.qps > rdma.qps, "n = {n}: CXL must beat RDMA");
        }
    }
}

fn print_header() {
    println!("| shape | paper | ours | \\|ln ratio\\| |");
    println!("|---|---|---|---|");
}

/// The ledger's `pool_point` shapes through the Figure 7 bench's sweep:
/// the knee, linearity at 8 instances, and the ceiling — the most an
/// RDMA point from 1 to 4 moves.
#[test]
fn figure7_pooling_keeps_the_papers_knee_linearity_and_nic_ceiling() {
    let sweep = Sweep::run(
        RDMA_VS_CXL,
        SysbenchKind::PointSelect,
        &[1, 2, 3, 4, 8],
        |cfg| {
            cfg.table_size = 7_500;
        },
    );
    let knee = sweep.knee();
    let linearity = sweep.cxl_linearity(8);
    let nic = (1..=4)
        .map(|n| sweep.at(n)[0].interconnect_gbps)
        .fold(0.0, f64::max);
    print_header();
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
    assert_eq!(knee, FIG7_PAPER_KNEE, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(linearity, FIG7_PAPER_CXL_LINEARITY) <= BAND_CXL_LINEARITY,
        "{linearity}"
    );
    assert!(
        ln_ratio(nic, FIG7_PAPER_NIC_GBPS) <= BAND_NIC_GBPS,
        "{nic} GB/s"
    );
    sweep.assert_cxl_ahead_from(knee);
}

/// Figure 8 of the paper: under range-select RDMA saturates at 4
/// instances and PolarCXLMem keeps scaling.
const FIG8_PAPER_KNEE: usize = 4;

/// Ours, by the knee's definition: 3 here and at full size (RDMA runs at
/// 0.85 / 0.73 of linear at 3 instances). The bench's 2/4/8/12 points
/// cannot tell 3 from 4. CXL moves bytes at every point and stays linear
/// to the last digit, as in Figure 7.
const FIG8_KNEE: usize = 3;
const BAND_FIG8_CXL_LINEARITY: f64 = 0.02;

/// Figure 8 at smoke scale: a quarter of the table and of the CPU cache
/// (with the full 4 MB a quarter-size table never leaves the cache on the
/// CXL side), up to 4 instances.
#[test]
fn figure8_range_select_keeps_its_knee_and_cxl_linearity() {
    let sweep = Sweep::run(
        RDMA_VS_CXL,
        SysbenchKind::RangeSelect,
        &[1, 2, 3, 4],
        |cfg| {
            cfg.table_size = 7_500;
            cfg.cache_bytes = 1 << 20;
        },
    );
    let knee = sweep.knee();
    let linearity = sweep.cxl_linearity(4);
    print_header();
    println!("| `rdma_knee_instances` | {FIG8_PAPER_KNEE} | {knee} | |");
    println!(
        "| `cxl_linearity_4x` | 1 | {linearity:.3} | {:.3} |",
        ln_ratio(linearity, 1.0)
    );
    assert_eq!(knee, FIG8_KNEE, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(linearity, 1.0) <= BAND_FIG8_CXL_LINEARITY,
        "{linearity}"
    );
    assert!(sweep.at(1)[1].interconnect_gbps > 0.0, "CXL moved no bytes");
    sweep.assert_cxl_ahead_from(knee);
}

/// Figure 9 of the paper: under read-write RDMA saturates at 8 instances,
/// and at one instance it moves 1.4× CXL's bytes.
const FIG9_PAPER_KNEE: usize = 8;
const FIG9_PAPER_RDMA_OVER_CXL_BW: f64 = 1.4;

/// Ours, held where they stand until item 1(b) fits a cause: the knee is
/// 2 (RDMA at 0.894 of linear at 2 instances here, 0.872 at full size),
/// and RDMA moves 5.33× CXL's bytes at one instance here (4.85 in the
/// ledger's full-size `pool_rw_spill`).
const FIG9_KNEE: usize = 2;
const FIG9_RDMA_OVER_CXL_BW: f64 = 5.33;
const BAND_FIG9_RDMA_OVER_CXL_BW: f64 = 0.02;

/// Figure 9 at smoke scale, on the ledger's `pool_rw_spill` cells as
/// `benchmark run --quick` sizes them: a 15 000-row table, the LBP 10 %
/// of it and a 256 KB CPU cache, so both designs spill.
#[test]
fn figure9_read_write_keeps_its_knee_and_bandwidth_ratio() {
    let sweep = Sweep::run(RDMA_VS_CXL, SysbenchKind::ReadWrite, &[1, 2, 3, 4], |cfg| {
        cfg.table_size = 15_000;
        cfg.cache_bytes = 256 << 10;
        cfg.lbp_fraction = 0.1;
    });
    let knee = sweep.knee();
    let [rdma, cxl] = sweep.at(1);
    let bw = rdma.interconnect_gbps / cxl.interconnect_gbps;
    print_header();
    println!("| `rdma_knee_instances` | {FIG9_PAPER_KNEE} | {knee} | |");
    println!(
        "| `rdma_over_cxl_bw_n1` | {FIG9_PAPER_RDMA_OVER_CXL_BW} | {bw:.3} | {:.3} |",
        ln_ratio(bw, FIG9_PAPER_RDMA_OVER_CXL_BW)
    );
    assert_eq!(knee, FIG9_KNEE, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(bw, FIG9_RDMA_OVER_CXL_BW) <= BAND_FIG9_RDMA_OVER_CXL_BW,
        "{bw}"
    );
    sweep.assert_cxl_ahead_from(knee);
}

/// Figure 10 of the paper, recovery seconds: write-only vanilla 173,
/// RDMA-based 73, PolarRecv 15; read-write vanilla 110, RDMA-based 33.
const FIG10_PAPER: [(&str, f64); 3] = [
    ("vanilla_over_polar_wo", 173.0 / 15.0),
    ("rdma_over_polar_wo", 73.0 / 15.0),
    ("vanilla_over_rdma_rw", 110.0 / 33.0),
];

/// Ours, held where they stand until item 1(b)(i) fits recovery scale:
/// on these cells 75.34 / 9.52 / 10.07 (the ledger's full-size `recover`
/// reads 95.5 / 25.7 / 6.76). The orderings hold from 250 rows up, but
/// the ratios move with scale (73.9 / 10.4 / 11.7 at 1 000 rows), so the
/// test runs the cells `benchmark run --workload recover --quick` runs,
/// whose shapes are these three values, in ≈ 1 s unoptimised.
const FIG10_OURS: [f64; 3] = [75.34, 9.52, 10.07];
const BAND_FIG10: f64 = 0.02;

/// The ledger's `recover` cells as `--quick` sizes them: 7 500 rows,
/// 48 workers, a crash at 10 ms of a 20 ms run, seed 42.
fn fig10_quick(cfg: &mut RecoveryConfig) {
    cfg.table_size = 7_500;
    cfg.duration = SimTime::from_millis(20);
    cfg.crash_at = SimTime::from_millis(10);
    cfg.seed = 42;
}

/// Figure 10 on the ledger's `recover` cells as `--quick` sizes them.
#[test]
fn figure10_recovery_keeps_its_ordering() {
    let kinds = [SysbenchKind::WriteOnly, SysbenchKind::ReadWrite];
    let schemes = [Scheme::Vanilla, Scheme::RdmaBased, Scheme::PolarRecv];
    let runs = recovery_sweep(&kinds, &schemes, fig10_quick);
    let [wo, rw] = [0, 1].map(|k| runs[k].iter().map(|r| r.recovery_secs).collect::<Vec<_>>());
    println!("| workload | vanilla | rdma-based | polarrecv |");
    println!("|---|---|---|---|");
    for (name, secs) in [("write-only", &wo), ("read-write", &rw)] {
        let ms: Vec<String> = secs.iter().map(|s| format!("{:.3} ms", s * 1e3)).collect();
        println!("| {name} recovery | {} |", ms.join(" | "));
    }
    assert!(
        wo[0] > wo[1] && wo[1] > wo[2],
        "write-only: vanilla > RDMA-based > PolarRecv must hold: {wo:?}"
    );
    assert!(
        rw[0] > rw[1],
        "read-write: vanilla > RDMA-based must hold: {rw:?}"
    );
    let ours = [wo[0] / wo[2], wo[1] / wo[2], rw[0] / rw[1]];
    print_header();
    for ((name, paper), ours) in FIG10_PAPER.iter().zip(ours) {
        println!(
            "| `{name}` | {paper:.2} | {ours:.2} | {:.3} |",
            ln_ratio(ours, *paper)
        );
    }
    for ((name, _), (ours, today)) in FIG10_PAPER.iter().zip(ours.iter().zip(FIG10_OURS)) {
        assert!(
            ln_ratio(*ours, today) <= BAND_FIG10,
            "{name}: {ours} outside {BAND_FIG10} of {today}"
        );
    }
}

/// Ablation A1's shared percentages, three of the `ablation_coherency`
/// bench's five.
const A1_PCTS: [u32; 3] = [20, 60, 100];

/// Ablation A1 (§3.3's granularity argument): publishing a write flushes
/// only the modified 64-B lines, and that beats flushing the whole page
/// at every sharing level. The `ablation_coherency` bench's two columns
/// on 8 nodes, point-update, 20 ms windows, seed 11
/// (`SharingConfig::standard`'s). The paper gives no number for the gap;
/// |ln(lines / full page)| is printed per point.
#[test]
fn ablation_a1_line_flushing_beats_full_page_flushing() {
    let systems = [SharingSystem::CxlFullPageFlush, SharingSystem::Cxl];
    let configs: Vec<(SharingConfig, u32)> = A1_PCTS
        .iter()
        .flat_map(|&pct| {
            systems.map(|system| {
                let mut cfg = SharingConfig::standard(system, 8);
                cfg.duration = SimTime::from_millis(20);
                (cfg, pct)
            })
        })
        .collect();
    let qps = run_sweep(&configs, |(cfg, pct)| {
        run_sharing(cfg, point_update_gen(cfg.layout, *pct))
            .metrics
            .qps
    });
    println!("| shared | full page K-QPS | lines K-QPS | lines / full page | |ln ratio| |");
    println!("|---|---|---|---|---|");
    for (pct, pair) in A1_PCTS.iter().zip(qps.chunks(2)) {
        let (full, lines) = (pair[0], pair[1]);
        println!(
            "| {pct} % | {:.1} | {:.1} | {:.3} | {:.3} |",
            full / 1e3,
            lines / 1e3,
            lines / full,
            ln_ratio(lines, full)
        );
        assert!(
            lines > full,
            "{pct} %: line flushing {lines} must beat full-page {full}"
        );
    }
}

/// Ablation A2 on Figure 10's cells: PolarRecv trusting no block's
/// metadata rebuilds every in-use page from storage and redo — the only
/// run of `polarcxlmem::recovery`'s replay of the log into rebuilt
/// blocks. Pages rebuilt and records applied are exact at this seed,
/// `[write-only, read-write]`; the paper gives no number for the gap.
const A2_NOMETA_WORK: [(u64, u64); 2] = [(184, 10_952), (184, 2_154)];

/// Ours, held where they stand: recovery without metadata over recovery
/// with it (28.08 / 21.38 ms against 0.2645 ms).
const A2_NOMETA_OVER_POLAR: [f64; 2] = [106.2, 80.8];
const BAND_A2: f64 = 0.02;

/// Ablation A2 (§3.2's design rationale): durable `{lock_state, lsn}` in
/// CXL is what lets PolarRecv trust the surviving pages instead of
/// rebuilding the resident set.
#[test]
fn ablation_a2_durable_metadata_spares_the_rebuild() {
    let kinds = [SysbenchKind::WriteOnly, SysbenchKind::ReadWrite];
    let schemes = [Scheme::PolarRecv, Scheme::PolarRecvNoMeta];
    let runs = recovery_sweep(&kinds, &schemes, fig10_quick);
    println!("| workload | polarrecv | no metadata | pages rebuilt | records applied | ratio |");
    println!("|---|---|---|---|---|---|");
    let done = |r: &RecoveryRunResult| (r.summary.pages_rebuilt, r.summary.records_applied);
    for (k, name) in ["write-only", "read-write"].into_iter().enumerate() {
        let (polar, nometa) = (&runs[k][0], &runs[k][1]);
        let ratio = nometa.recovery_secs / polar.recovery_secs;
        println!(
            "| {name} | {:.4} ms | {:.2} ms | {} | {} | {ratio:.1} |",
            polar.recovery_secs * 1e3,
            nometa.recovery_secs * 1e3,
            nometa.summary.pages_rebuilt,
            nometa.summary.records_applied,
        );
        assert_eq!(done(polar), (0, 0), "{name}: PolarRecv rebuilt");
        assert!(nometa.summary.pages_rebuilt > 0, "{name}: nothing rebuilt");
        assert_eq!(done(nometa), A2_NOMETA_WORK[k], "{name}: rebuild work");
        let today = A2_NOMETA_OVER_POLAR[k];
        assert!(
            ln_ratio(ratio, today) <= BAND_A2,
            "{name}: {ratio} outside {BAND_A2} of {today}"
        );
    }
}

/// Ablation A3's cache sizes, the `ablation_cache_size` bench's sweep.
const A3_CACHE_KIB: [usize; 5] = [64, 256, 1024, 4096, 16384];

/// How far point-select throughput may move across the cache sizes,
/// |ln(qps / qps at 64 KiB)|. It reads 0.0009 at every larger size:
/// 425.2 K-QPS at 64 KiB, 425.6 K from 256 KiB on.
const BAND_A3_QPS: f64 = 0.002;

/// Ablation A3 (§2.3: buffer-pool workloads are bandwidth-, not
/// latency-sensitive) at smoke scale: one CXL point-select instance on
/// the standard 30 000-row table, a 10 ms window per cache size.
/// Held exactly: the switch bytes fall strictly across the bench's
/// sizes, 2.39 MB at 64 KiB to 0 at 16 MiB. The fall is not monotone at
/// every size: a 3 MiB cache maps the table to other sets than 4 MiB
/// does and moves 0.9 % fewer bytes. Throughput stays inside
/// [`BAND_A3_QPS`] of the smallest cache's, since the workload is
/// CPU-bound.
#[test]
fn ablation_a3_the_cache_absorbs_switch_traffic_not_throughput() {
    let configs: Vec<PoolingConfig> = A3_CACHE_KIB
        .iter()
        .map(|&kib| {
            let mut cfg = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::PointSelect, 1);
            cfg.duration = SimTime::from_millis(10);
            cfg.cache_bytes = kib << 10;
            cfg
        })
        .collect();
    let runs = run_sweep(&configs, run_pooling);
    println!("| cache | K-QPS | switch bytes | CXL GB/s |");
    println!("|---|---|---|---|");
    let switch_bytes: Vec<u64> = runs
        .iter()
        .map(|r| match r.registry.get("cxl_switch_bytes") {
            Some(MetricValue::Int(b)) => b,
            other => panic!("cxl_switch_bytes: {other:?}"),
        })
        .collect();
    for ((kib, r), bytes) in A3_CACHE_KIB.iter().zip(&runs).zip(&switch_bytes) {
        println!(
            "| {kib} KiB | {:.2} | {bytes} | {:.3} |",
            r.metrics.qps / 1e3,
            r.metrics.interconnect_gbps
        );
    }
    for (w, kib) in switch_bytes.windows(2).zip(&A3_CACHE_KIB[1..]) {
        assert!(w[1] < w[0], "{kib} KiB: switch bytes {} !< {}", w[1], w[0]);
    }
    let base = runs[0].metrics.qps;
    for (kib, r) in A3_CACHE_KIB.iter().zip(&runs) {
        let moved = ln_ratio(r.metrics.qps, base);
        println!("{kib} KiB: |ln(qps / qps at 64 KiB)| = {moved:.4}");
        assert!(
            moved <= BAND_A3_QPS,
            "{kib} KiB: {moved} outside {BAND_A3_QPS}"
        );
    }
}

/// The paper's CXL-over-RDMA throughput gains the ledger's `share_mixed`
/// cells measure: point-update at 40 % shared (Figure 11's peak, +62 %)
/// and read-write at 60 % shared on 8 nodes (Figure 12's, +68.2 %).
const FIG11_PAPER_GAIN_UPD40: f64 = 1.62;
const FIG12_PAPER_GAIN_RW60: f64 = 1.68;

/// Bands around the paper, wide enough for this window and the ledger's
/// full size: a 20 ms window leaves the closed loop short of steady state
/// at high contention, so both gains read low here (1.262 / 1.046,
/// |ln ratio| 0.249 / 0.474) against 1.535 / 1.170 in the ledger's 2 s
/// windows (0.054 / 0.362).
const BAND_FIG11_GAIN_UPD40: f64 = 0.30;
const BAND_FIG12_GAIN_RW60: f64 = 0.50;

/// `bench::sharing_sweep` at `nodes` × `pcts` × `lbps` with a 20 ms
/// window: the ledger's 8 nodes × 16 workers, 8 000 rows per group.
fn sharing_window(
    nodes: &[usize],
    pcts: &[u32],
    lbps: &[f64],
    mix: SysbenchKind,
) -> Vec<Vec<RunMetrics>> {
    let window = |cfg: &mut SharingConfig| cfg.duration = SimTime::from_millis(20);
    sharing_sweep(nodes, pcts, lbps, mix, window)
}

/// RDMA (30 % LBP) against CXL at `nodes` × `pcts`, as Figures 11–12
/// run it: one `[rdma, cxl]` pair per point, CXL ahead at each.
fn sharing_points(nodes: &[usize], pcts: &[u32], mix: SysbenchKind) -> Vec<[RunMetrics; 2]> {
    let sweep: Vec<[RunMetrics; 2]> = sharing_window(nodes, pcts, &[0.3], mix)
        .into_iter()
        .map(|row| row.try_into().expect("one RDMA and one CXL run"))
        .collect();
    println!("| nodes | shared | RDMA K-QPS | CXL K-QPS | CXL / RDMA |");
    println!("|---|---|---|---|---|");
    let points = nodes
        .iter()
        .flat_map(|&n| pcts.iter().map(move |&p| (n, p)));
    for ((n, pct), [r, c]) in points.zip(&sweep) {
        let (rk, ck) = (r.qps / 1e3, c.qps / 1e3);
        println!(
            "| {n} | {pct} % | {rk:.1} | {ck:.1} | {:.3} |",
            c.qps / r.qps
        );
        assert!(c.qps > r.qps, "{n} nodes, {pct} %: CXL must beat RDMA");
    }
    sweep
}

fn print_gain(name: &str, paper: f64, ours: f64) {
    print_header();
    println!(
        "| `{name}` | {paper} | {ours:.3} | {:.3} |",
        ln_ratio(ours, paper)
    );
}

/// Figure 11 of the paper: on 8 nodes CXL wins at every shared
/// percentage, by +62 % at 40 %, and both systems lose throughput as
/// sharing grows (contention).
#[test]
fn figure11_point_update_keeps_cxl_ahead_and_both_falling() {
    let pcts = [0, 20, 40, 60, 80, 100];
    let sweep = sharing_points(&[8], &pcts, SysbenchKind::PointUpdate);
    for side in [0, 1] {
        let qps: Vec<f64> = sweep.iter().map(|pair| pair[side].qps).collect();
        assert!(qps.windows(2).all(|w| w[1] < w[0]), "must fall: {qps:?}");
    }
    let [rdma, cxl] = &sweep[2];
    let gain = cxl.qps / rdma.qps;
    print_gain("cxl_gain_upd40", FIG11_PAPER_GAIN_UPD40, gain);
    let err = ln_ratio(gain, FIG11_PAPER_GAIN_UPD40);
    assert!(err <= BAND_FIG11_GAIN_UPD40, "{gain}: |ln ratio| {err}");
}

/// Figure 12 of the paper: under read-write CXL wins at every point on 8
/// and 12 nodes, and more nodes mean more synchronisation and a bigger
/// CXL gain. The `fig12` bench's full-size table (EXPERIMENTS.md) shows
/// the 12-node gain ahead at 20 % and 40 % shared only; those two are
/// held.
#[test]
fn figure12_read_write_keeps_cxl_ahead_and_the_larger_cluster_gaining_more() {
    let pcts = [20, 40, 60, 80, 100];
    let sweep = sharing_points(&[8, 12], &pcts, SysbenchKind::ReadWrite);
    let gain = |[r, c]: &[RunMetrics; 2]| c.qps / r.qps;
    for (k, pct) in [(0, 20), (1, 40)] {
        let (g8, g12) = (gain(&sweep[k]), gain(&sweep[pcts.len() + k]));
        assert!(
            g12 > g8,
            "{pct} %: 12-node gain {g12} must exceed 8-node {g8}"
        );
    }
    let rw60 = gain(&sweep[2]);
    print_gain("cxl_gain_rw60", FIG12_PAPER_GAIN_RW60, rw60);
    let err = ln_ratio(rw60, FIG12_PAPER_GAIN_RW60);
    assert!(err <= BAND_FIG12_GAIN_RW60, "{rw60}: |ln ratio| {err}");
}

/// Figure 13 of the paper: on 8 nodes at 20 % shared, CXL serves 2.14×
/// what RDMA sharing with a 10 % LBP does.
const FIG13_PAPER_CXL_OVER_LBP10_S20: f64 = 2.14;

/// Band around the paper, set from the measured value as Figures 11–12's
/// are: 1.321 here (|ln ratio| 0.482), 1.372 in the `fig13` bench's
/// 200 ms windows (0.444). Our sharing gaps are narrower than the
/// paper's for Figure 11's reason (EXPERIMENTS.md).
const BAND_FIG13_CXL_OVER_LBP10_S20: f64 = 0.52;

/// Figure 13's grid through the `fig13_breakdown` bench's sweep: RDMA
/// sharing at every LBP size of [`LBP_FRACTIONS`] against CXL,
/// point-update on 8 nodes. Held: CXL beats every LBP column at every
/// shared percentage, and the LBP size matters less as sharing grows —
/// the LBP columns' max/min spread is narrower at 100 % shared than at
/// 20 %. The columns are not monotone in the LBP size at this window, so
/// no order among them is held.
#[test]
fn figure13_cxl_beats_every_lbp_and_the_lbp_matters_less_as_sharing_grows() {
    let pcts = [20, 40, 60, 80, 100];
    let sweep = sharing_window(&[8], &pcts, &LBP_FRACTIONS, SysbenchKind::PointUpdate);
    let lbps = LBP_FRACTIONS.len();
    println!("| shared | LBP 10 / 30 / 50 / 70 / 100 % K-QPS | CXL K-QPS | LBP max / min |");
    println!("|---|---|---|---|");
    let mut spread = Vec::new();
    for (row, pct) in sweep.iter().zip(pcts) {
        let (lbp, cxl) = (&row[..lbps], &row[lbps]);
        let qps: Vec<f64> = lbp.iter().map(|m| m.qps).collect();
        let (lo, hi) = qps
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &q| (lo.min(q), hi.max(q)));
        let kqps: Vec<String> = qps.iter().map(|q| format!("{:.1}", q / 1e3)).collect();
        println!(
            "| {pct} % | {} | {:.1} | {:.3} |",
            kqps.join(" / "),
            cxl.qps / 1e3,
            hi / lo
        );
        assert!(cxl.qps > hi, "{pct} %: CXL must beat every LBP: {qps:?}");
        spread.push(hi / lo);
    }
    let (s20, s100) = (spread[0], spread[pcts.len() - 1]);
    assert!(
        s100 < s20,
        "LBP spread must narrow as sharing grows: {s20} at 20 %, {s100} at 100 %"
    );
    let ratio = sweep[0][lbps].qps / sweep[0][0].qps;
    print_gain("cxl_over_lbp10_s20", FIG13_PAPER_CXL_OVER_LBP10_S20, ratio);
    let err = ln_ratio(ratio, FIG13_PAPER_CXL_OVER_LBP10_S20);
    assert!(
        err <= BAND_FIG13_CXL_OVER_LBP10_S20,
        "{ratio}: |ln ratio| {err}"
    );
}
