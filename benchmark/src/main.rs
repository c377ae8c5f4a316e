//! Two-clock layered performance ledger for the PolarCXLMem reproduction.
//!
//! ```text
//! benchmark run     [--workload W] [--seed S] [--seconds N] [--quick] [--bless] [--out FILE]
//! benchmark trace   [--workload W] [--seed S] [--quick]
//! benchmark compare [--aa] A.json B.json
//! benchmark spec
//! ```
//!
//! `run --trace 1` is `trace`; the driver appends `--workload W --seed N
//! --seconds S --trace T` to `... -- run`. See README.md.

mod calib;
mod cells;
mod compare;
mod json;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{bench_dir, result_line, RunOpts};
use simkit::json::Obj;
use spans::Spans;
use spec::{Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// Every heap allocation is counted, so `allocs_per_sim_op` and the
// profiler's `self_allocs` columns read real numbers.
#[global_allocator]
static ALLOC: simkit::profile::CountingAlloc = simkit::profile::CountingAlloc;

#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<&'static Workload>,
    opts: RunOpts,
    trace: bool,
    aa: bool,
    out: Option<PathBuf>,
    files: Vec<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: argv.first().cloned().ok_or("missing subcommand")?,
        workload: None,
        opts: RunOpts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            quick: false,
            bless: false,
        },
        trace: false,
        aa: false,
        out: None,
        files: Vec::new(),
    };
    let mut it = argv[1..].iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(spec::workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                args.opts.seconds = s;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => args.opts.quick = true,
            "--bless" => args.opts.bless = true,
            "--aa" => args.aa = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if args.opts.bless && (args.opts.quick || args.opts.seed != DEFAULT_SEED) {
        return Err(format!(
            "--bless pins the full run at the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(args)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn part_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("out")
        .join(format!("results.{workload}.json"))
}

/// `run --workload W`: one workload in this process.
fn run_one(workload: &'static Workload, args: &Args) -> Result<bool, String> {
    let report = run::run_workload(workload, &args.opts)?;
    report.print();
    if !args.opts.quick {
        write_file(&part_path(workload.name), &report.to_json())?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// `run`: every workload, each in its own child process so that
/// `peak_rss_mb` (VmHWM) is per workload; merges their sections into
/// `results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()]);
        if args.opts.quick {
            cmd.arg("--quick");
        }
        if args.opts.bless {
            cmd.arg("--bless");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    if args.opts.quick {
        return Ok(ok);
    }
    let mut sections = Obj::new();
    for w in &WORKLOADS {
        let path = part_path(w.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        sections = sections.raw(w.name, &text);
    }
    let doc = Obj::new()
        .int("seed", args.opts.seed)
        .num("seconds", args.opts.seconds)
        .raw("workloads", &sections.build())
        .build_pretty();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| bench_dir().join("out").join("results.json"));
    write_file(&out, &doc)?;
    println!("wrote {}", out.display());
    Ok(ok)
}

/// `trace`: the traced pass over one workload or all four, then the
/// isolated layer loops; writes `layers.json` and `trace.json`.
fn trace_cmd(args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new();
    spans.open("run");
    let workloads: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let reports: Vec<_> = workloads
        .iter()
        .map(|w| trace::trace_workload(w, &args.opts, &mut spans))
        .collect();
    let loops = layers::run_layer_loops(&mut spans, args.opts.quick);
    spans.close();

    let chrome = spans.chrome_json();
    let n_spans = spans::validate_chrome(&chrome)?;
    println!("== isolated layer loops (host ns/op, median of the batches) ==");
    for l in &loops {
        println!(
            "{:<42} {:>12.2} ns  min {:.2} max {:.2} n={} x {} ops",
            l.name,
            l.ns_per_op.median,
            l.ns_per_op.min,
            l.ns_per_op.max,
            l.ns_per_op.n,
            l.ops_per_batch
        );
    }
    let mut ok = true;
    let mut sections = Obj::new();
    for r in &reports {
        r.print();
        ok &= r.checks.failures.is_empty();
        sections = sections.raw(r.workload.name, &r.to_json());
    }
    println!("trace: {n_spans} spans, well-formed, children inside parents");
    if !args.opts.quick {
        let doc = Obj::new()
            .int("seed", args.opts.seed)
            .raw("workloads", &sections.build())
            .raw("loops", &trace::loops_json(&loops))
            .build_pretty();
        let dir = bench_dir().join("out");
        write_file(&dir.join("layers.json"), &doc)?;
        write_file(&dir.join("trace.json"), &chrome)?;
        println!("wrote {} and trace.json", dir.join("layers.json").display());
    }
    for r in &reports {
        let mut metrics: Vec<(String, f64, &str)> = r
            .metrics()
            .into_iter()
            .map(|(name, v)| {
                let unit = trace::per_layer_unit(&name);
                (name, v, unit)
            })
            .collect();
        for l in &loops {
            metrics.push((l.name.to_string(), l.ns_per_op.median, "ns"));
        }
        println!(
            "{}",
            result_line(r.checks.failures.is_empty(), &r.checks, &metrics)
        );
    }
    Ok(ok)
}

fn compare_cmd(args: &Args) -> Result<bool, String> {
    let [a, b] = args.files.as_slice() else {
        return Err("compare takes two results.json files".into());
    };
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let pass = compare::compare(&load(a)?, &load(b)?, args.aa)?;
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

/// The text of `BENCHMARK.json`, generated from the tables in the code.
fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| Obj::new().str("name", w.name).str("why", w.why).build())
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better())
                .num("bound", m.bound)
                .build()
        })
        .collect();
    let per_layer: Vec<String> = trace::per_layer_names()
        .iter()
        .map(|name| {
            let better = if trace::per_layer_higher_is_better(name) {
                "higher"
            } else {
                "lower"
            };
            Obj::new()
                .str("name", name)
                .str("unit", trace::per_layer_unit(name))
                .str("better", better)
                .build()
        })
        .collect();
    let command: Vec<String> = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ]
    .iter()
    .map(|s| format!("\"{s}\""))
    .collect();
    let list = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        DEFAULT_SECONDS as u64,
        list(&workloads),
        list(&end_to_end),
        list(&per_layer)
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" if args.trace => trace_cmd(&args),
        "run" => match args.workload {
            Some(w) => run_one(w, &args),
            None => run_all(&args),
        },
        "trace" => trace_cmd(&args),
        "compare" => compare_cmd(&args),
        "spec" => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        other => Err(format!(
            "unknown subcommand {other} (run | trace | compare | spec)"
        )),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = bench_dir().join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `benchmark spec > BENCHMARK.json`"
        );
        let doc = Json::parse(&on_disk).unwrap();
        let mut names = Vec::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for item in doc.get(key).unwrap().as_arr() {
                names.push(item.get("name").unwrap().as_str().unwrap().to_string());
            }
        }
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(doc.get("per_layer").unwrap().as_arr().len() <= 128);
        assert!(on_disk.len() <= 64 << 10);
        for w in doc.get("workloads").unwrap().as_arr() {
            assert!(w.get("why").unwrap().as_str().unwrap().len() <= 200);
        }
    }

    #[test]
    fn every_shape_named_in_code_exists_in_reference_json() {
        let reference = run::load_json("reference.json").unwrap();
        for w in &WORKLOADS {
            let cells = cells::workload_cells(w.name, DEFAULT_SEED, true);
            let paper = run::paper_values(&reference, w.name);
            // Shape names do not depend on the results: use the quick run.
            let outs: Vec<_> = cells.iter().map(|c| c.run(false)).collect();
            let measured = run::measured_shapes(w.name, &cells, &outs);
            assert_eq!(measured.len(), paper.len(), "{}", w.name);
            for (name, _) in measured {
                let p = paper.iter().find(|(n, _)| n == name);
                assert!(p.is_some_and(|(_, v)| *v > 0.0), "{}: {name}", w.name);
            }
        }
    }

    /// `run --quick` and `trace --quick` emit every metric BENCHMARK.json
    /// names, for every workload, and the smoke run passes its checks.
    #[test]
    fn quick_run_emits_every_named_metric() {
        let opts = RunOpts {
            seed: 7,
            seconds: 1.0,
            quick: true,
            bless: false,
        };
        let mut spans = Spans::new();
        spans.open("run");
        let loops = layers::run_layer_loops(&mut spans, true);
        let loop_names: Vec<&str> = loops.iter().map(|l| l.name).collect();
        assert_eq!(loop_names, layers::LOOP_NAMES);
        assert!(loops.iter().all(|l| l.ns_per_op.median > 0.0));
        for w in &WORKLOADS {
            let report = run::run_workload(w, &opts).unwrap();
            assert!(report.correct(), "{:?}", report.checks.failures);
            let line = Json::parse(&report.result_line()).unwrap();
            for m in &END_TO_END {
                let v = line.get("metrics").unwrap().get(m.name).unwrap();
                let value = v.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite() && value > 0.0, "{} {}", w.name, m.name);
                assert_eq!(v.get("unit").unwrap().as_str(), Some(m.unit));
            }
            let traced = trace::trace_workload(w, &opts, &mut spans);
            assert!(
                traced.checks.failures.is_empty(),
                "{:?}",
                traced.checks.failures
            );
            let mut emitted: Vec<String> = traced.metrics().into_iter().map(|m| m.0).collect();
            emitted.extend(loop_names.iter().map(|n| n.to_string()));
            assert_eq!(emitted, trace::per_layer_names(), "{}", w.name);
        }
        spans.close();
        assert!(spans::validate_chrome(&spans.chrome_json()).unwrap() > 60);
    }
}
