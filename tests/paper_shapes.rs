//! The paper's shapes, measured (ROADMAP 1(a)), on the entries of
//! `bench::figures`: each test takes its sweep axes, the paper's values
//! and the shape arithmetic from the entry the `paper` bench prints, and
//! sets its own smoke-size scale. Tables 1–2: every modelled latency and
//! transfer time measured through `DramSpace` / `CxlPool` / `RdmaPool`'s
//! public API beside the paper's value. Figure 1: the RDMA design's LBP
//! sweep. Figures 3 and 7–9: the pooling shapes from `run_pooling` —
//! Figure 3's are the paper's case against a DRAM tier, Figure 7's are
//! the ledger's `pool_point` workload, Figure 9's bandwidth ratio is its
//! `pool_rw_spill` one. Orderings and knees are held exactly, each
//! magnitude inside a stated band of |ln(ours / paper)|, or of
//! |ln(ours / today)| where the two are still far apart. Figure 10: the
//! recovery-time orderings from `run_recovery`, on the ledger's
//! `recover` cells, and ablation A2 (PolarRecv without its block
//! metadata) on the same cells. Ablation A1: line-granularity against
//! full-page flushing on publish. Ablation A3: the CPU cache's size
//! against CXL switch bytes and throughput. Figures 11–13: the sharing
//! orderings from `run_sharing`, with the ledger's `share_mixed` gains
//! and Figure 13's LBP breakdown. The ledger's `reference.json` is
//! checked against the registry's paper values.
//! `cargo test --test paper_shapes -- --nocapture` prints the rows
//! EXPERIMENTS.md quotes.

use bench::figures::{
    self, a1, a2, a3, fig1, fig10, fig11, fig12, fig13, fig3, fig7, fig8, fig9, table1, table2,
    Paper, DRAM_VS_CXL, KNEE_POINTS, LBP_FRACTIONS, RDMA30_VS_CXL, RDMA_VS_CXL,
};
use bench::{lbp_sweep, pooling_sweep, recovery_sweep, sharing_sweep, PoolingSweep};
use simkit::stats::MetricValue;
use simkit::SimTime;
use workloads::recovery_harness::{RecoveryConfig, RecoveryRunResult};
use workloads::{PoolKind, PoolingConfig, RunMetrics, SharingConfig, SharingSystem, SysbenchKind};

fn ln_ratio(ours: f64, paper: f64) -> f64 {
    (ours / paper).ln().abs()
}

/// The band each of Table 1's magnitudes must sit in, per path of
/// `table1::PAPER`. DRAM is a calibration anchor and exact. The CXL rows
/// are not: the paper's are raw MLC loads, ours go through the pool's
/// load path, which charges Table 2's 64-byte *copy* base (0.70 µs,
/// software included) for the first line of every miss — 151 ns over the
/// raw switched load, the same 151 ns over the direct one.
const BAND_TABLE1: [f64; 3] = [0.001, 0.46, 0.25];

#[test]
fn table1_latencies_keep_the_papers_orderings_and_bands() {
    let ours = table1::latencies();
    println!("| path | paper local / remote (ns) | ours | \\|ln ratio\\| |");
    println!("|---|---|---|---|");
    for (((path, paper), band), (measured_path, measured)) in
        table1::PAPER.iter().zip(&BAND_TABLE1).zip(&ours)
    {
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
    let [_, (_, paper_direct), (_, paper_switched)] = table1::PAPER;
    let hop = switched[0] - direct[0];
    assert!(
        (hop - (paper_switched[0] - paper_direct[0])).abs() < 1.0,
        "switch hop {hop} ns"
    );
}

/// Per-column bands, in `table2::PAPER`'s columns (RDMA write, CXL
/// write, RDMA read, CXL read). The model is base + per-line streaming
/// fitted to the 64 B and 16 KB ends, so the middle sizes carry the
/// error: the paper's CXL read grows faster between 1 KB and 4 KB than a
/// straight line through its ends (1.86 µs at 4 KB against our 1.14).
const BAND_TABLE2: [f64; 4] = [0.05, 0.12, 0.17, 0.50];

#[test]
fn table2_transfers_keep_the_papers_orderings_and_bands() {
    let ours = table2::transfers();
    assert_eq!(ours.len(), table2::PAPER.len());
    println!(
        "| size | RDMA write paper / ours / \\|ln\\| (µs) | CXL write | RDMA read | CXL read |"
    );
    println!("|---|---|---|---|---|");
    let mut lead = Vec::new();
    for ((size, paper), (measured_size, m)) in table2::PAPER.iter().zip(&ours) {
        assert_eq!(size, measured_size);
        let line: Vec<String> = (0..4)
            .map(|k| {
                format!(
                    "{:.2} / {:.2} / {:.3}",
                    paper[k],
                    m[k],
                    ln_ratio(m[k], paper[k])
                )
            })
            .collect();
        println!("| {size} B | {} |", line.join(" | "));
        for ((p, o), band) in paper.iter().zip(m).zip(BAND_TABLE2) {
            let err = ln_ratio(*o, *p);
            assert!(
                err <= band,
                "{size} B: {o} vs {p}, |ln ratio| {err} > {band}"
            );
        }
        let [rdma_write, cxl_write, rdma_read, cxl_read] = *m;
        assert!(cxl_write < rdma_write && cxl_read < rdma_read);
        lead.push((rdma_write / cxl_write, rdma_read / cxl_read));
    }
    // CXL's lead over RDMA narrows with size in both directions, from
    // about 6× at one line (paper: 5.74× write, 6.07× read).
    assert!(
        lead.windows(2).all(|w| w[1].0 < w[0].0 && w[1].1 < w[0].1),
        "{lead:?}"
    );
    assert!((5.0..7.5).contains(&lead[0].0) && (5.0..7.5).contains(&lead[0].1));
}

/// Figure 1 at Figure 3's scale (7 500 rows, 10 ms windows). Held
/// exactly: RDMA bandwidth never rises as the LBP grows, and it is 0 at
/// 100 %. The throughput gain is the divergence (EXPERIMENTS.md "Figure
/// 1"): ours is flat, because a statement's memory stalls hide under its
/// CPU cost (ROADMAP 1(b)(ii)), so it is printed beside the paper's
/// about 25 %, not banded.
#[test]
fn figure1_rdma_bandwidth_falls_to_zero_as_the_lbp_grows() {
    let sweep = lbp_sweep(&fig1::KINDS, |cfg| {
        cfg.table_size = 7_500;
        cfg.duration = SimTime::from_millis(10);
    });
    println!("| workload | LBP | K-QPS | RDMA GB/s |");
    println!("|---|---|---|---|");
    for (series, kind) in sweep.iter().zip(fig1::KINDS) {
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
            "| {kind:?} | 100 % / 10 % | {gain:.4} (paper {}, \\|ln\\| {:.3}) | |",
            fig1::QPS_GAIN.value,
            ln_ratio(gain, fig1::QPS_GAIN.value)
        );
    }
}

/// Figure 3 at smoke scale: DRAM-BP against CXL-BP on Figure 7's 7 500-row
/// table. The window is 10 ms, half the other pooling figures', which
/// keeps the test near Figure 7's cost unoptimised. The gap to the
/// paper's 7–10 % is the divergence (EXPERIMENTS.md "Figure 3"): CXL-BP
/// reads 99.45 % of DRAM-BP under read-write here and 100 % under
/// point-select (0–0.1 % behind at full size), so it is printed, not
/// banded. Held exactly: CXL is never ahead of DRAM, and it scales
/// linearly to 4 instances inside the band Figure 8's linearity uses.
#[test]
fn figure3_cxl_never_beats_dram_and_scales_linearly() {
    let (close, far) = (
        fig3::CXL_OVER_DRAM_POINT.value,
        fig3::CXL_OVER_DRAM_RANGE.value,
    );
    println!(
        "| workload | n | DRAM K-QPS | CXL K-QPS | CXL / DRAM | \\|ln\\| vs {close} / {far} |"
    );
    println!("|---|---|---|---|---|---|");
    for workload in fig3::SHAPE_KINDS {
        let sweep = pooling_window(DRAM_VS_CXL, workload, &fig3::SHAPE_POINTS, |cfg| {
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

/// Bands at smoke scale (a quarter of the ledger's table, a 20 ms
/// window). CXL's eight instances share nothing the workload saturates,
/// so linearity is exact (1.000, as at full size). The NIC ceiling reads
/// 10.29 GB/s here against 10.16 at full size (|ln ratio| 0.067 / 0.079):
/// a smaller table hits the same page-per-row amplification, and 0.10
/// leaves room for either scale.
const BAND_CXL_LINEARITY: f64 = 0.02;
const BAND_NIC_GBPS: f64 = 0.10;

/// `bench::pooling_sweep` of `kinds` under `workload` at `points` with a
/// 20 ms window, `adjust` setting the rest.
fn pooling_window(
    kinds: [PoolKind; 2],
    workload: SysbenchKind,
    points: &[usize],
    adjust: impl Fn(&mut PoolingConfig),
) -> PoolingSweep {
    pooling_sweep(kinds, workload, points, |cfg| {
        cfg.duration = SimTime::from_millis(20);
        adjust(cfg);
    })
}

/// Past the knee the NIC, not the instances, sets RDMA's throughput,
/// and CXL pulls ahead at every point from the knee on.
fn assert_cxl_ahead_from(sweep: &PoolingSweep, knee: usize) {
    for &n in sweep.points.iter().filter(|&&n| n >= knee) {
        let [rdma, cxl] = sweep.at(n);
        assert!(cxl.qps > rdma.qps, "n = {n}: CXL must beat RDMA");
    }
}

fn print_header() {
    println!("| shape | paper | ours | \\|ln ratio\\| |");
    println!("|---|---|---|---|");
}

/// One `| shape | paper | ours | |ln ratio| |` row.
fn print_shape(paper: &Paper, ours: f64) {
    println!(
        "| `{}` | {} | {ours:.3} | {:.3} |",
        paper.name,
        paper.value,
        ln_ratio(ours, paper.value)
    );
}

/// The ledger's `pool_point` shapes through Figure 7's sweep: the knee,
/// linearity at 8 instances, and the ceiling — the most an RDMA point
/// from 1 to 4 moves.
#[test]
fn figure7_pooling_keeps_the_papers_knee_linearity_and_nic_ceiling() {
    let sweep = pooling_window(
        RDMA_VS_CXL,
        SysbenchKind::PointSelect,
        &fig7::SHAPE_POINTS,
        |cfg| {
            cfg.table_size = 7_500;
        },
    );
    let knee = sweep.knee();
    let linearity = sweep.cxl_linearity(8);
    let nic = sweep.nic_ceiling();
    print_header();
    println!(
        "| `{}` | {} | {knee} | |",
        fig7::KNEE.name,
        fig7::KNEE.value
    );
    print_shape(&fig7::LINEARITY_8X, linearity);
    print_shape(&fig7::NIC_GBPS, nic);
    assert_eq!(knee as f64, fig7::KNEE.value, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(linearity, fig7::LINEARITY_8X.value) <= BAND_CXL_LINEARITY,
        "{linearity}"
    );
    assert!(
        ln_ratio(nic, fig7::NIC_GBPS.value) <= BAND_NIC_GBPS,
        "{nic} GB/s"
    );
    assert_cxl_ahead_from(&sweep, knee);
}

/// Ours, by the knee's definition: 3 here and at full size (RDMA runs at
/// 0.85 / 0.73 of linear at 3 instances), against the paper's 4. The
/// entry's 2/4/8/12 points cannot tell 3 from 4. CXL moves bytes at every
/// point and stays linear to the last digit, as in Figure 7.
const FIG8_KNEE: usize = 3;
const BAND_FIG8_CXL_LINEARITY: f64 = 0.02;

/// Figure 8 at smoke scale: a quarter of the table and of the CPU cache
/// (with the full 4 MB a quarter-size table never leaves the cache on the
/// CXL side), up to 4 instances.
#[test]
fn figure8_range_select_keeps_its_knee_and_cxl_linearity() {
    let sweep = pooling_window(
        RDMA_VS_CXL,
        SysbenchKind::RangeSelect,
        &KNEE_POINTS,
        |cfg| {
            cfg.table_size = 7_500;
            cfg.cache_bytes = 1 << 20;
        },
    );
    let knee = sweep.knee();
    let linearity = sweep.cxl_linearity(4);
    print_header();
    println!(
        "| `{}` | {} | {knee} | |",
        fig8::KNEE.name,
        fig8::KNEE.value
    );
    print_shape(&fig8::LINEARITY_4X, linearity);
    assert_eq!(knee, FIG8_KNEE, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(linearity, fig8::LINEARITY_4X.value) <= BAND_FIG8_CXL_LINEARITY,
        "{linearity}"
    );
    assert!(sweep.at(1)[1].interconnect_gbps > 0.0, "CXL moved no bytes");
    assert_cxl_ahead_from(&sweep, knee);
}

/// Ours, held where they stand until item 1(b) fits a cause (the paper:
/// a knee at 8, RDMA moving 1.4× CXL's bytes): the knee is 2 (RDMA at
/// 0.894 of linear at 2 instances here, 0.872 at full size), and RDMA
/// moves 5.33× CXL's bytes at one instance here (4.85 in the ledger's
/// full-size `pool_rw_spill`).
const FIG9_KNEE: usize = 2;
const FIG9_RDMA_OVER_CXL_BW: f64 = 5.33;
const BAND_FIG9_RDMA_OVER_CXL_BW: f64 = 0.02;

/// Figure 9 at smoke scale, on the ledger's `pool_rw_spill` cells as
/// `benchmark run --quick` sizes them: a 15 000-row table, the LBP 10 %
/// of it and a 256 KB CPU cache, so both designs spill.
#[test]
fn figure9_read_write_keeps_its_knee_and_bandwidth_ratio() {
    let sweep = pooling_window(RDMA_VS_CXL, SysbenchKind::ReadWrite, &KNEE_POINTS, |cfg| {
        cfg.table_size = 15_000;
        cfg.cache_bytes = 256 << 10;
        cfg.lbp_fraction = 0.1;
    });
    let knee = sweep.knee();
    let bw = fig9::rdma_over_cxl_bw_n1(&sweep);
    print_header();
    println!(
        "| `{}` | {} | {knee} | |",
        fig9::KNEE.name,
        fig9::KNEE.value
    );
    print_shape(&fig9::RDMA_OVER_CXL_BW_N1, bw);
    assert_eq!(knee, FIG9_KNEE, "{:?}", sweep.pairs);
    assert!(
        ln_ratio(bw, FIG9_RDMA_OVER_CXL_BW) <= BAND_FIG9_RDMA_OVER_CXL_BW,
        "{bw}"
    );
    assert_cxl_ahead_from(&sweep, knee);
}

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
    let runs = recovery_sweep(&fig10::SHAPE_KINDS, &fig10::SCHEMES, fig10_quick);
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
    let ours = fig10::ratios([&wo, &rw]);
    print_header();
    for (paper, ours) in fig10::PAPER.iter().zip(ours) {
        println!(
            "| `{}` | {:.2} | {ours:.2} | {:.3} |",
            paper.name,
            paper.value,
            ln_ratio(ours, paper.value)
        );
    }
    for (paper, (ours, today)) in fig10::PAPER.iter().zip(ours.iter().zip(FIG10_OURS)) {
        assert!(
            ln_ratio(*ours, today) <= BAND_FIG10,
            "{}: {ours} outside {BAND_FIG10} of {today}",
            paper.name
        );
    }
}

/// Ablation A1 (§3.3's granularity argument): publishing a write flushes
/// only the modified 64-B lines, and that beats flushing the whole page
/// at every sharing level. The entry's two columns on 8 nodes,
/// point-update, 20 ms windows, seed 11 (`SharingConfig::standard`'s).
/// The paper gives no number for the gap; |ln(lines / full page)| is
/// printed per point.
#[test]
fn ablation_a1_line_flushing_beats_full_page_flushing() {
    let qps = sharing_window(
        &a1::NODES,
        &a1::SHAPE_PCTS,
        &a1::SYSTEMS,
        SysbenchKind::PointUpdate,
    );
    println!("| shared | full page K-QPS | lines K-QPS | lines / full page | |ln ratio| |");
    println!("|---|---|---|---|---|");
    for (pct, row) in a1::SHAPE_PCTS.iter().zip(qps) {
        let (full, lines) = (row[0].qps, row[1].qps);
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
    let runs = recovery_sweep(&fig10::SHAPE_KINDS, &a2::SCHEMES, fig10_quick);
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

/// How far point-select throughput may move across the cache sizes,
/// |ln(qps / qps at 64 KiB)|. It reads 0.0009 at every larger size:
/// 425.2 K-QPS at 64 KiB, 425.6 K from 256 KiB on.
const BAND_A3_QPS: f64 = 0.002;

/// Ablation A3 (§2.3: buffer-pool workloads are bandwidth-, not
/// latency-sensitive) at smoke scale: one CXL point-select instance on
/// the standard 30 000-row table, a 10 ms window per cache size.
/// Held exactly: the switch bytes fall strictly across the entry's
/// sizes, 2.39 MB at 64 KiB to 0 at 16 MiB. The fall is not monotone at
/// every size: a 3 MiB cache maps the table to other sets than 4 MiB
/// does and moves 0.9 % fewer bytes. Throughput stays inside
/// [`BAND_A3_QPS`] of the smallest cache's, since the workload is
/// CPU-bound.
#[test]
fn ablation_a3_the_cache_absorbs_switch_traffic_not_throughput() {
    let runs = a3::sweep(|cfg| {
        cfg.instances = 1;
        cfg.duration = SimTime::from_millis(10);
    });
    println!("| cache | K-QPS | switch bytes | CXL GB/s |");
    println!("|---|---|---|---|");
    let switch_bytes: Vec<u64> = runs
        .iter()
        .map(|r| match r.registry.get("cxl_switch_bytes") {
            Some(MetricValue::Int(b)) => b,
            other => panic!("cxl_switch_bytes: {other:?}"),
        })
        .collect();
    for ((kib, r), bytes) in a3::CACHE_KIB.iter().zip(&runs).zip(&switch_bytes) {
        println!(
            "| {kib} KiB | {:.2} | {bytes} | {:.3} |",
            r.metrics.qps / 1e3,
            r.metrics.interconnect_gbps
        );
    }
    for (w, kib) in switch_bytes.windows(2).zip(&a3::CACHE_KIB[1..]) {
        assert!(w[1] < w[0], "{kib} KiB: switch bytes {} !< {}", w[1], w[0]);
    }
    let base = runs[0].metrics.qps;
    for (kib, r) in a3::CACHE_KIB.iter().zip(&runs) {
        let moved = ln_ratio(r.metrics.qps, base);
        println!("{kib} KiB: |ln(qps / qps at 64 KiB)| = {moved:.4}");
        assert!(
            moved <= BAND_A3_QPS,
            "{kib} KiB: {moved} outside {BAND_A3_QPS}"
        );
    }
}

/// Bands around the paper, wide enough for this window and the ledger's
/// full size: a 20 ms window leaves the closed loop short of steady state
/// at high contention, so both gains read low here (1.262 / 1.046,
/// |ln ratio| 0.249 / 0.475) against 1.535 / 1.170 in the ledger's 2 s
/// windows (0.054 / 0.363). Fig 11's 0 % gain, which no ledger workload
/// reads, is set from this window alone: 1.106, |ln ratio| 0.185.
const BAND_FIG11_GAIN_UPD0: f64 = 0.25;
const BAND_FIG11_GAIN_UPD40: f64 = 0.30;
const BAND_FIG12_GAIN_RW60: f64 = 0.50;

/// `bench::sharing_sweep` at `nodes` × `pcts` × `systems` with a 20 ms
/// window: the ledger's 8 nodes × 16 workers, 8 000 rows per group.
fn sharing_window(
    nodes: &[usize],
    pcts: &[u32],
    systems: &[SharingSystem],
    mix: SysbenchKind,
) -> Vec<Vec<RunMetrics>> {
    let window = |cfg: &mut SharingConfig| cfg.duration = SimTime::from_millis(20);
    sharing_sweep(nodes, pcts, systems, mix, window)
}

/// RDMA (30 % LBP) against CXL at `nodes` × `pcts`, as Figures 11–12
/// run it: one `[rdma, cxl]` pair per point, CXL ahead at each.
fn sharing_points(nodes: &[usize], pcts: &[u32], mix: SysbenchKind) -> Vec<[RunMetrics; 2]> {
    let sweep: Vec<[RunMetrics; 2]> = sharing_window(nodes, pcts, &RDMA30_VS_CXL, mix)
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

fn print_gain(paper: &Paper, ours: f64) {
    print_header();
    print_shape(paper, ours);
}

/// Figure 11 of the paper: on 8 nodes CXL wins at every shared
/// percentage (`sharing_points` holds each), by +33 % at 0 % and +62 % at
/// 40 %, and both systems lose throughput as sharing grows (contention).
#[test]
fn figure11_point_update_keeps_cxl_ahead_and_both_falling() {
    let sweep = sharing_points(&fig11::NODES, &fig11::PCTS, SysbenchKind::PointUpdate);
    for side in [0, 1] {
        let qps: Vec<f64> = sweep.iter().map(|pair| pair[side].qps).collect();
        assert!(qps.windows(2).all(|w| w[1] < w[0]), "must fall: {qps:?}");
    }
    print_header();
    let bands = [
        (0, &fig11::GAIN_UPD0, BAND_FIG11_GAIN_UPD0),
        (40, &fig11::GAIN_UPD40, BAND_FIG11_GAIN_UPD40),
    ];
    for (pct, paper, band) in bands {
        let gain = fig11::gain_at(&sweep, pct);
        print_shape(paper, gain);
        let err = ln_ratio(gain, paper.value);
        assert!(err <= band, "{pct} %: {gain}: |ln ratio| {err}");
    }
}

/// Figure 12 of the paper: under read-write CXL wins at every point on 8
/// and 12 nodes, and more nodes mean more synchronisation and a bigger
/// CXL gain. The entry's full-size table (EXPERIMENTS.md) shows the
/// 12-node gain ahead at 20 % and 40 % shared only; those two are held.
#[test]
fn figure12_read_write_keeps_cxl_ahead_and_the_larger_cluster_gaining_more() {
    let sweep = sharing_points(&fig12::NODES, &fig12::PCTS, SysbenchKind::ReadWrite);
    let [small, large] = fig12::NODES;
    for pct in [20, 40] {
        let (g8, g12) = (
            fig12::gain_at(&sweep, small, pct),
            fig12::gain_at(&sweep, large, pct),
        );
        assert!(
            g12 > g8,
            "{pct} %: 12-node gain {g12} must exceed 8-node {g8}"
        );
    }
    let rw60 = fig12::gain_rw60(&sweep);
    print_gain(&fig12::GAIN_RW60, rw60);
    let err = ln_ratio(rw60, fig12::GAIN_RW60.value);
    assert!(err <= BAND_FIG12_GAIN_RW60, "{rw60}: |ln ratio| {err}");
}

/// Band around the paper, set from the measured value as Figures 11–12's
/// are: 1.321 here (|ln ratio| 0.482), 1.372 in the full-size entry's
/// 200 ms windows (0.444). Our sharing gaps are narrower than the
/// paper's for Figure 11's reason (EXPERIMENTS.md).
const BAND_FIG13_CXL_OVER_LBP10_S20: f64 = 0.52;

/// Figure 13's grid: RDMA sharing at every LBP size of [`LBP_FRACTIONS`]
/// against CXL, point-update on 8 nodes. Held: CXL beats every LBP
/// column at every shared percentage, and the LBP size matters less as
/// sharing grows — the LBP columns' max/min spread is narrower at 100 %
/// shared than at 20 %. The columns are not monotone in the LBP size at
/// this window, so no order among them is held.
#[test]
fn figure13_cxl_beats_every_lbp_and_the_lbp_matters_less_as_sharing_grows() {
    let sweep = sharing_window(
        &fig13::NODES,
        &fig13::PCTS,
        &fig13::systems(),
        SysbenchKind::PointUpdate,
    );
    println!("| shared | LBP 10 / 30 / 50 / 70 / 100 % K-QPS | CXL K-QPS | LBP max / min |");
    println!("|---|---|---|---|");
    let mut spread = Vec::new();
    for (row, pct) in sweep.iter().zip(fig13::PCTS) {
        let (lbp, cxl) = row.split_at(LBP_FRACTIONS.len());
        let qps: Vec<f64> = lbp.iter().map(|m| m.qps).collect();
        let kqps: Vec<String> = qps.iter().map(|q| format!("{:.1}", q / 1e3)).collect();
        let s = fig13::lbp_spread(lbp);
        println!(
            "| {pct} % | {} | {:.1} | {s:.3} |",
            kqps.join(" / "),
            cxl[0].qps / 1e3
        );
        assert!(
            qps.iter().all(|&q| cxl[0].qps > q),
            "{pct} %: CXL must beat every LBP: {qps:?}"
        );
        spread.push(s);
    }
    let (s20, s100) = (spread[0], spread[spread.len() - 1]);
    assert!(
        s100 < s20,
        "LBP spread must narrow as sharing grows: {s20} at 20 %, {s100} at 100 %"
    );
    let ratio = fig13::cxl_over_lbp10_s20(&sweep);
    print_gain(&fig13::CXL_OVER_LBP10_S20, ratio);
    let err = ln_ratio(ratio, fig13::CXL_OVER_LBP10_S20.value);
    assert!(
        err <= BAND_FIG13_CXL_OVER_LBP10_S20,
        "{ratio}: |ln ratio| {err}"
    );
}

/// The registry entries whose paper values each ledger workload's
/// `paper_logerr` reads (`benchmark/reference.json`).
const LEDGER: [(&str, &[&str]); 4] = [
    ("pool_point", &["fig7_pooling_point_select"]),
    (
        "pool_rw_spill",
        &["fig1_lbp_size", "fig9_pooling_read_write"],
    ),
    (
        "share_mixed",
        &["fig11_sharing_point_update", "fig12_sharing_read_write"],
    ),
    ("recover", &["fig10_recovery"]),
];

/// The `"key": ` value of a flat JSON object's text, up to the next `,`
/// or `}`, without quotes.
fn json_field<'a>(object: &'a str, key: &str) -> &'a str {
    let at = object
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no {key} in {object}"));
    let rest = object[at + key.len() + 3..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().trim_matches('"')
}

/// Every paper value of the ledger's frozen `reference.json` equals the
/// registry's, so the ledger's `paper_logerr` and the tier-1 shapes
/// compare against the same numbers. The file is only read.
#[test]
fn reference_json_paper_values_match_the_registry() {
    let text = include_str!("../benchmark/reference.json");
    let shapes: Vec<&str> = text.split("{\"workload\":").skip(1).collect();
    assert_eq!(shapes.len(), 10, "reference.json lists 10 shapes");
    for shape in shapes {
        let object = format!("{{\"workload\":{shape}");
        let workload = json_field(&object, "workload");
        let name = json_field(&object, "name");
        let paper: f64 = json_field(&object, "paper").parse().expect("a number");
        let (_, ids) = LEDGER
            .iter()
            .find(|(w, _)| *w == workload)
            .unwrap_or_else(|| panic!("unknown workload {workload}"));
        let ours: Vec<f64> = figures::ALL
            .iter()
            .filter(|e| ids.contains(&e.id))
            .flat_map(|e| e.paper)
            .filter(|p| p.name == name)
            .map(|p| p.value)
            .collect();
        assert_eq!(ours.len(), 1, "{workload}/{name}: {ours:?} in the registry");
        assert!(
            (ours[0] - paper).abs() < 1e-9,
            "{workload}/{name}: reference.json {paper}, registry {}",
            ours[0]
        );
    }
}
