//! The untraced pass: runs one workload's cells on one host thread, times
//! them, checks their outputs and reports the end-to-end metrics.

use crate::calib::{Calibrator, REFERENCE_TICK_S};
use crate::cells::{workload_cells, CellOut, CellSpec};
use crate::json::Json;
use crate::spec::{Clock, Metric, Workload, DEFAULT_SEED, END_TO_END, MIN_REPS};
use crate::stats::{geomean, logerr, summarize, Summary};
use simkit::json::Obj;
use simkit::profile;
use std::path::PathBuf;
use std::time::Instant;

/// Directory of the benchmark package (holds `reference.json`,
/// `golden.json` and `out/`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Host seconds of timed reps to aim for.
    pub seconds: f64,
    /// Smoke mode: 20 ms windows, one rep, no artifact, no golden check.
    pub quick: bool,
    /// Rewrite this workload's section of `golden.json` from this run.
    pub bless: bool,
}

/// Pass/fail ledger of the output checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub total: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.total += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One timed harness call.
pub struct CellRun {
    pub secs: f64,
    pub allocs: u64,
    pub out: CellOut,
}

pub fn timed(cell: &CellSpec, zero_window: bool) -> CellRun {
    let allocs = profile::alloc_count();
    let t = Instant::now();
    let out = cell.run(zero_window);
    CellRun {
        secs: t.elapsed().as_secs_f64(),
        allocs: profile::alloc_count() - allocs,
        out,
    }
}

/// Host samples of one rep: every cell once zero-window, once full.
pub struct Rep {
    /// (zero-window secs, full-window secs) per cell.
    pub cells: Vec<(f64, f64)>,
    /// Allocations of the full calls beyond those of the zero-window calls.
    pub steady_allocs: u64,
    /// Box speed during this rep: reference tick / median of the
    /// calibration ticks taken after each harness call (1 = reference).
    pub speed: f64,
}

/// A host time of the workload over the timed reps. The value is the sum
/// over cells of the cell's median over reps: a disturbance on this shared
/// box hits single cells of single reps (measured: +-20 % on the largest
/// cell, a third of the rep), and a per-cell median drops it where the
/// median of rep totals would keep the whole disturbed rep. Min and max
/// are those of the rep totals.
fn across_reps(reps: &[Rep], pick: impl Fn(&Rep, f64, f64) -> f64) -> Summary {
    let per_rep = |r: &Rep| {
        r.cells
            .iter()
            .map(|&(zero, full)| pick(r, zero, full))
            .sum::<f64>()
    };
    let totals = summarize(&reps.iter().map(per_rep).collect::<Vec<_>>());
    let cells = reps[0].cells.len();
    let median = (0..cells)
        .map(|c| {
            let samples: Vec<f64> = reps
                .iter()
                .map(|r| pick(r, r.cells[c].0, r.cells[c].1))
                .collect();
            summarize(&samples).median
        })
        .sum();
    Summary { median, ..totals }
}

/// A shape the paper reports, as measured here and as printed there.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub measured: f64,
    pub paper: f64,
}

pub struct Report {
    pub workload: &'static Workload,
    pub opts: RunOpts,
    pub reps: usize,
    /// Rows in `END_TO_END` order.
    pub rows: Vec<(&'static Metric, Summary)>,
    pub checks: Checks,
    pub shapes: Vec<Shape>,
    /// `cell.field` → value for every virtual-clock number.
    pub sim: Vec<(String, f64)>,
    pub allocs_per_sim_op: f64,
    /// Box speed over the reps (1 = reference box, quiet).
    pub host_speed: Summary,
    /// Statements per wall second of steady time, unscaled.
    pub wall_ops_per_s: f64,
}

fn out_of<'a>(cells: &[CellSpec], outs: &'a [CellOut], name: &str) -> &'a CellOut {
    let i = cells
        .iter()
        .position(|c| c.name == name)
        .unwrap_or_else(|| panic!("no cell {name}"));
    &outs[i]
}

/// The measured side of the workload's paper shapes (names match
/// `reference.json`).
pub fn measured_shapes(
    workload: &str,
    cells: &[CellSpec],
    outs: &[CellOut],
) -> Vec<(&'static str, f64)> {
    let o = |name: &str| out_of(cells, outs, name);
    match workload {
        "pool_point" => {
            // Knee: first instance count whose throughput falls below 90 %
            // of linear scaling from one instance (5 = none up to 4).
            let base = o("rdma_n1").qps();
            let knee = (2..=4)
                .find(|&n| o(&format!("rdma_n{n}")).qps() < 0.9 * n as f64 * base)
                .unwrap_or(5);
            let sat = (1..=4)
                .map(|n| o(&format!("rdma_n{n}")).gbps())
                .fold(0.0, f64::max);
            vec![
                ("rdma_knee_instances", knee as f64),
                (
                    "cxl_linearity_8x",
                    o("cxl_n8").qps() / (8.0 * o("cxl_n1").qps()),
                ),
                ("rdma_sat_gbps", sat),
            ]
        }
        "pool_rw_spill" => vec![
            ("rdma_bw_gbps_lbp10", o("rdma_n1").gbps()),
            (
                "rdma_over_cxl_bw_n1",
                o("rdma_n1").gbps() / o("cxl_n1").gbps(),
            ),
        ],
        "share_mixed" => vec![
            (
                "cxl_gain_upd40",
                o("cxl_upd40").qps() / o("rdma_upd40").qps(),
            ),
            ("cxl_gain_rw60", o("cxl_rw60").qps() / o("rdma_rw60").qps()),
        ],
        "recover" => vec![
            (
                "vanilla_over_polar_wo",
                o("vanilla_wo").latency_us() / o("polarrecv_wo").latency_us(),
            ),
            (
                "rdma_over_polar_wo",
                o("rdmabased_wo").latency_us() / o("polarrecv_wo").latency_us(),
            ),
            (
                "vanilla_over_rdma_rw",
                o("vanilla_rw").latency_us() / o("rdmabased_rw").latency_us(),
            ),
        ],
        other => panic!("unknown workload {other}"),
    }
}

/// Paper values of `workload`'s shapes from `reference.json`.
pub fn paper_values(reference: &Json, workload: &str) -> Vec<(String, f64)> {
    reference
        .get("shapes")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|s| s.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|s| {
            Some((
                s.get("name")?.as_str()?.to_string(),
                s.get("paper")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn load_json(file: &str) -> Result<Json, String> {
    let path = bench_dir().join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Orderings that must hold on any seed.
fn check_orderings(workload: &str, cells: &[CellSpec], outs: &[CellOut], checks: &mut Checks) {
    let o = |name: &str| out_of(cells, outs, name);
    let mut not_below = |cxl: &str, rdma: &str| {
        // CPU-bound pairs tie to within a fraction of a percent, and each
        // worker may finish one transaction past the window: "CXL is not
        // slower" is checked with 1 % of slack plus that window edge.
        let (c, r) = (o(cxl), o(rdma));
        let slack = 0.01 + c.window_edge().max(r.window_edge());
        checks.check(c.qps() >= (1.0 - slack) * r.qps(), || {
            format!(
                "{workload}: qps({cxl}) = {} below qps({rdma}) = {}",
                c.qps(),
                r.qps()
            )
        });
    };
    match workload {
        "pool_point" => {
            not_below("cxl_n1", "rdma_n1");
            not_below("cxl_n4", "rdma_n4");
        }
        "pool_rw_spill" => {
            not_below("cxl_n1", "rdma_n1");
            not_below("cxl_n3", "rdma_n3");
        }
        "share_mixed" => {
            not_below("cxl_upd40", "rdma_upd40");
            not_below("cxl_rw60", "rdma_rw60");
        }
        "recover" => {
            for tag in ["wo", "rw"] {
                let ms = |scheme: &str| o(&format!("{scheme}_{tag}")).latency_us();
                let (v, r, p) = (ms("vanilla"), ms("rdmabased"), ms("polarrecv"));
                checks.check(p < r && r < v, || {
                    format!(
                        "recover {tag}: recovery times not polarrecv {p} < rdma {r} < vanilla {v}"
                    )
                });
                for scheme in ["vanilla", "rdmabased", "polarrecv"] {
                    let CellOut::Recover(res) = o(&format!("{scheme}_{tag}")) else {
                        unreachable!("recover cells return recovery results")
                    };
                    let rebuilt = res.summary.pages_rebuilt;
                    let ok = (rebuilt == 0) == (scheme == "polarrecv");
                    checks.check(ok, || format!("{scheme}_{tag}: pages_rebuilt = {rebuilt}"));
                }
            }
        }
        _ => {}
    }
    // Little's law on the closed-loop pooling cells: transactions in
    // flight = tps x mean latency = workers, within 15 % plus the window
    // edge (each worker may finish one transaction past the window).
    for (cell, out) in cells.iter().zip(outs) {
        if let (Some(workers), CellOut::Pool(r)) = (cell.pool_workers(), out) {
            let in_flight = r.metrics.tps * r.metrics.avg_latency_us / 1e6;
            let slack = 0.15 + out.window_edge();
            checks.check((in_flight / workers - 1.0).abs() <= slack, || {
                format!(
                    "{}: {in_flight:.1} in flight vs {workers} workers",
                    cell.name
                )
            });
        }
    }
}

/// `cell.field` values of every cell plus `shape.<name>` of every shape.
fn sim_table(cells: &[CellSpec], outs: &[CellOut], shapes: &[Shape]) -> Vec<(String, f64)> {
    let mut table = Vec::new();
    for (cell, out) in cells.iter().zip(outs) {
        for (field, v) in out.sim_values() {
            table.push((format!("{}.{field}", cell.name), v));
        }
    }
    for s in shapes {
        table.push((format!("shape.{}", s.name), s.measured));
    }
    table
}

fn check_golden(workload: &str, sim: &[(String, f64)], checks: &mut Checks) {
    let golden = load_json("golden.json").unwrap_or(Json::Null);
    let Some(section) = golden.get(workload) else {
        checks.check(false, || {
            format!("golden.json has no section for {workload}: run with --bless")
        });
        return;
    };
    for (key, v) in sim {
        let pinned = section.get(key).and_then(Json::as_f64);
        checks.check(pinned.map(f64::to_bits) == Some(v.to_bits()), || {
            format!("{workload}: {key} = {v}, golden.json pins {pinned:?}")
        });
    }
}

fn bless_golden(workload: &str, sim: &[(String, f64)]) -> Result<(), String> {
    // Keep the other workloads' sections, replace or add this one.
    let golden = load_json("golden.json").unwrap_or(Json::Null);
    let mut sections: Vec<(String, Vec<(String, f64)>)> = golden
        .fields()
        .iter()
        .filter(|(name, _)| name != workload)
        .map(|(name, section)| {
            let pins = section.fields().iter();
            let pins = pins.filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)));
            (name.clone(), pins.collect())
        })
        .collect();
    sections.push((workload.to_string(), sim.to_vec()));
    let body: Vec<String> = sections
        .iter()
        .map(|(name, pins)| {
            let lines: Vec<String> = pins
                .iter()
                .map(|(k, v)| format!("    \"{k}\": {}", simkit::json::num(*v)))
                .collect();
            format!("  \"{name}\": {{\n{}\n  }}", lines.join(",\n"))
        })
        .collect();
    let path = bench_dir().join("golden.json");
    std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run `workload` untraced and report its end-to-end metrics.
pub fn run_workload(workload: &'static Workload, opts: &RunOpts) -> Result<Report, String> {
    let cells = workload_cells(workload.name, opts.seed, opts.quick);
    let mut checks = Checks::default();

    // Untimed warm-up rep (rep 0 runs 15-20 % slower); its outputs are the
    // reference every timed rep must reproduce bit for bit.
    let reference: Vec<CellOut> = cells.iter().map(|c| c.run(false)).collect();

    let mut calibrator = Calibrator::new();
    let min_reps = if opts.quick { 1 } else { MIN_REPS };
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < min_reps || (!opts.quick && started.elapsed().as_secs_f64() < opts.seconds) {
        let mut rep = Rep {
            cells: Vec::with_capacity(cells.len()),
            steady_allocs: 0,
            speed: 1.0,
        };
        let mut ticks = Vec::with_capacity(2 * cells.len());
        for (cell, expect) in cells.iter().zip(&reference) {
            let zero = timed(cell, true);
            ticks.push(calibrator.tick());
            let full = timed(cell, false);
            ticks.push(calibrator.tick());
            checks.check(full.out.same_as(expect), || {
                format!("{}: rep {} differs from rep 0", cell.name, reps.len() + 1)
            });
            rep.cells.push((zero.secs, full.secs));
            rep.steady_allocs += full.allocs.saturating_sub(zero.allocs);
        }
        rep.speed = REFERENCE_TICK_S / summarize(&ticks).median;
        reps.push(rep);
    }

    let statements: f64 = reference.iter().map(CellOut::statements).sum();
    let setup = across_reps(&reps, |_, zero, _| zero);
    // Steady time in reference seconds: each rep's wall time scaled by the
    // box speed the calibration kernel saw during that rep.
    let steady = across_reps(&reps, |rep, zero, full| (full - zero) * rep.speed);
    let steady_wall = across_reps(&reps, |_, zero, full| full - zero);
    // Higher steady time is lower throughput: min and max swap.
    let ops_per_s = Summary {
        median: statements / steady.median,
        min: statements / steady.max,
        max: statements / steady.min,
        n: steady.n,
    };
    let host_speed = summarize(&reps.iter().map(|r| r.speed).collect::<Vec<_>>());
    let exact = |v: f64| Summary {
        median: v,
        min: v,
        max: v,
        n: 1,
    };

    let paper = paper_values(&load_json("reference.json")?, workload.name);
    let shapes: Vec<Shape> = measured_shapes(workload.name, &cells, &reference)
        .into_iter()
        .map(|(name, measured)| {
            let paper = paper
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| {
                    format!("reference.json has no shape {name} for {}", workload.name)
                })?;
            Ok(Shape {
                name,
                measured,
                paper,
            })
        })
        .collect::<Result<_, String>>()?;
    let pairs: Vec<(f64, f64)> = shapes.iter().map(|s| (s.measured, s.paper)).collect();

    check_orderings(workload.name, &cells, &reference, &mut checks);
    let sim = sim_table(&cells, &reference, &shapes);
    if opts.bless {
        bless_golden(workload.name, &sim)?;
    } else if opts.seed == DEFAULT_SEED && !opts.quick {
        check_golden(workload.name, &sim, &mut checks);
    }

    let qps: Vec<f64> = reference.iter().map(CellOut::qps).collect();
    let latency: Vec<f64> = reference.iter().map(CellOut::latency_us).collect();
    let values = [
        setup,
        ops_per_s,
        exact(peak_rss_mb()),
        exact(geomean(&qps)),
        exact(geomean(&latency)),
        exact(logerr(&pairs)),
    ];
    Ok(Report {
        workload,
        opts: opts.clone(),
        reps: reps.len(),
        rows: END_TO_END.iter().zip(values).collect(),
        checks,
        shapes,
        sim,
        allocs_per_sim_op: reps[0].steady_allocs as f64 / statements,
        host_speed,
        wall_ops_per_s: statements / steady_wall.median,
    })
}

impl Report {
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// Every metric by name, with unit, clock and sample count.
    pub fn print(&self) {
        let w = self.workload.name;
        println!(
            "== {w} (seed {}, {} timed reps after 1 warm-up{}) ==",
            self.opts.seed,
            self.reps,
            if self.opts.quick { ", quick" } else { "" }
        );
        for (m, s) in &self.rows {
            match m.clock {
                Clock::Host if s.n == 1 => println!(
                    "{w} {:<20} {:>16.6} {:<9} host  one reading at the end of the process (n=1)",
                    m.name, s.median, m.unit
                ),
                Clock::Host => println!(
                    "{w} {:<20} {:>16.6} {:<9} host  per-cell medians of n={} reps; rep totals min {:.6}, max {:.6}",
                    m.name, s.median, m.unit, s.n, s.min, s.max
                ),
                Clock::Sim => println!(
                    "{w} {:<20} {:>16.6} {:<9} sim   exact at this seed (n=1)",
                    m.name, s.median, m.unit
                ),
            }
        }
        println!(
            "{w} host metrics are medians: with n={} reps no tail percentile has ten samples beyond it",
            self.reps
        );
        println!(
            "{w} host seconds are reference seconds: wall x box speed; box speed {:.4} (min {:.4}, max {:.4}) of the reference; unscaled wall throughput {:.1} 1/s",
            self.host_speed.median, self.host_speed.min, self.host_speed.max, self.wall_ops_per_s
        );
        println!(
            "{w} {:<20} {:>16.6} {:<9} host  count, first timed rep",
            "allocs_per_sim_op", self.allocs_per_sim_op, "1/op"
        );
        for s in &self.shapes {
            println!(
                "{w} shape {:<22} measured {:>10.4}  paper {:>8.4}  |ln ratio| {:.4}",
                s.name,
                s.measured,
                s.paper,
                (s.measured / s.paper).ln().abs()
            );
        }
        println!(
            "{w} {:<20} {:>16} {:<9}       {} of {} checks failed",
            "check_fail_ratio",
            self.checks.failures.len() as f64 / self.checks.total as f64,
            "ratio",
            self.checks.failures.len(),
            self.checks.total
        );
        for f in &self.checks.failures {
            println!("{w} CHECK FAILED: {f}");
        }
    }

    /// The workload's section of `results.json`.
    pub fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for (m, s) in &self.rows {
            let row = Obj::new()
                .num("value", s.median)
                .num("min", s.min)
                .num("max", s.max)
                .int("n", s.n as u64)
                .str("unit", m.unit)
                .str("clock", m.clock.name())
                .str("better", m.better())
                .num("bound", m.bound);
            metrics = metrics.raw(m.name, &row.build());
        }
        let mut shapes = Obj::new();
        for s in &self.shapes {
            let row = Obj::new().num("measured", s.measured).num("paper", s.paper);
            shapes = shapes.raw(s.name, &row.build());
        }
        let mut sim = Obj::new();
        for (k, v) in &self.sim {
            sim = sim.num(k, *v);
        }
        let failures: Vec<String> = self
            .checks
            .failures
            .iter()
            .map(|f| format!("\"{}\"", simkit::json::escape(f)))
            .collect();
        Obj::new()
            .str("workload", self.workload.name)
            .int("seed", self.opts.seed)
            .int("reps", self.reps as u64)
            .int("checks_total", self.checks.total)
            .int("checks_failed", self.checks.failures.len() as u64)
            .arr("failures", &failures)
            .num("allocs_per_sim_op", self.allocs_per_sim_op)
            .num("host_speed", self.host_speed.median)
            .num("wall_ops_per_s", self.wall_ops_per_s)
            .raw("metrics", &metrics.build())
            .raw("shapes", &shapes.build())
            .raw("sim", &sim.build())
            .build()
    }

    /// The driver's result line (`--trace 0`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<(String, f64, &str)> = self
            .rows
            .iter()
            .map(|(m, s)| (m.name.to_string(), s.median, m.unit))
            .collect();
        result_line(self.correct(), &self.checks, &metrics)
    }
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`:
/// attempted/failed count the output checks made on the harness results.
pub fn result_line(correct: bool, checks: &Checks, metrics: &[(String, f64, &str)]) -> String {
    let mut m = Obj::new();
    for (name, value, unit) in metrics {
        m = m.raw(
            name,
            &Obj::new().num("value", *value).str("unit", unit).build(),
        );
    }
    Obj::new()
        .raw("correct", if correct { "true" } else { "false" })
        .int("attempted", checks.total)
        .int("failed", checks.failures.len() as u64)
        .raw("metrics", &m.build())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_is_full_minus_zero_window_per_cell_median_summed() {
        // Two cells, three reps; rep 1 has a disturbed second cell.
        let rep = |cells: &[(f64, f64)]| Rep {
            cells: cells.to_vec(),
            steady_allocs: 0,
            speed: 1.0,
        };
        let reps = [
            rep(&[(1.0, 3.0), (2.0, 6.0)]),
            rep(&[(1.0, 3.5), (2.0, 9.0)]),
            rep(&[(1.5, 3.0), (2.5, 6.5)]),
        ];
        let setup = across_reps(&reps, |_, zero, _| zero);
        assert_eq!(
            (setup.median, setup.min, setup.max, setup.n),
            (3.0, 3.0, 4.0, 3)
        );
        // Cell 0 steady: 2.0, 2.5, 1.5 -> 2.0; cell 1: 4.0, 7.0, 4.0 -> 4.0.
        let steady = across_reps(&reps, |_, zero, full| full - zero);
        assert_eq!(steady.median, 6.0);
        // Rep totals: 6.0, 9.5, 5.5 (their median, 6.0, agrees here; the
        // per-cell form would not move had both cells spiked in different reps).
        assert_eq!((steady.min, steady.max), (5.5, 9.5));
    }
}
