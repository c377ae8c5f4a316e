//! host_perf: how fast does the simulator itself run, and where does the
//! host time go?
//!
//! Times a standard fig7-style pooling sweep (RDMA vs CXL point-select
//! across instance counts) twice in host wall-clock — once on a single
//! thread, once across [`host_threads`] workers — verifies the two
//! produce bit-identical simulation results, then runs a separate
//! profiled pass (single thread, `simkit::profile` enabled) to break the
//! host time down by simulator subsystem, and measures steady-state heap
//! allocations per simulated query on the two disaggregated designs.
//! Everything is written to `BENCH_host_perf.json` at the repository
//! root; `BENCH_host_perf.baseline.json` (if present) supplies the
//! pre-optimization reference the speedup is reported against.
//!
//! Regenerate with:
//! `cargo bench -p bench --bench host_perf`
//!
//! Set `HOST_PERF_SMOKE=1` for a CI-sized run (2 configs, short
//! windows) that exercises every code path but skips the JSON artifact.

use bench::sweep::json;
use bench::{host_threads, run_sweep_threads};
use bufferpool::PolicyKind;
use simkit::{profile, trace, Lane, QueryBreakdown, SimTime};
use std::time::Instant;
use workloads::sharing::{point_update_gen, run_sharing, SharingConfig, SharingSystem};
use workloads::{run_pooling, PoolKind, PoolingConfig, SysbenchKind};

// Count every heap allocation the simulator makes; the profiler's
// per-subsystem allocation columns and the allocs-per-query numbers
// below both read this counter.
#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// Scale knobs for the full run vs the CI smoke run.
struct Scale {
    max_instances: usize,
    window: SimTime,
    table_size: u64,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            max_instances: 1,
            window: SimTime::from_millis(20),
            table_size: 5_000,
        }
    } else {
        Scale {
            max_instances: 8,
            window: SimTime::from_millis(100),
            table_size: 30_000,
        }
    }
}

fn sweep_configs(sc: &Scale) -> Vec<PoolingConfig> {
    (1..=sc.max_instances)
        .flat_map(|n| {
            [
                PoolingConfig::standard(PoolKind::TieredRdma, SysbenchKind::PointSelect, n),
                PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::PointSelect, n),
            ]
        })
        .map(|mut c| {
            c.duration = sc.window;
            c.table_size = sc.table_size;
            c
        })
        .collect()
}

/// Steady-state heap allocations per simulated query for `kind`
/// point-select, isolated from setup costs by differencing two runs that
/// differ only in window length (setup allocations are identical, so
/// the difference is purely the measurement loop).
fn hot_path_allocs_per_query(kind: PoolKind, sc: &Scale) -> f64 {
    let mk = |window: SimTime| {
        let mut c = PoolingConfig::standard(kind, SysbenchKind::PointSelect, 1);
        c.duration = window;
        c.table_size = sc.table_size;
        c
    };
    let run = |cfg: &PoolingConfig| {
        let a0 = profile::alloc_count();
        let r = run_pooling(cfg);
        let allocs = profile::alloc_count().saturating_sub(a0);
        let queries = r.metrics.qps * r.metrics.window.as_secs_f64();
        (allocs as f64, queries)
    };
    let (a_short, q_short) = run(&mk(sc.window));
    let (a_long, q_long) = run(&mk(SimTime::from_nanos(sc.window.as_nanos() * 3)));
    ((a_long - a_short) / (q_long - q_short).max(1.0)).max(0.0)
}

/// Simulated-ns latency attribution for a single-instance run of
/// `kind`, recorded by `simkit::trace` (observation-only: the run
/// result is bit-identical to an untraced run).
fn attribution_for(kind: PoolKind, sc: &Scale) -> QueryBreakdown {
    let mut c = PoolingConfig::standard(kind, SysbenchKind::PointSelect, 1);
    c.duration = sc.window;
    c.table_size = sc.table_size;
    trace::reset();
    trace::enable_attribution(true);
    let r = run_pooling(&c);
    trace::enable_attribution(false);
    trace::reset();
    // Without the `trace` feature the hooks compile to nothing and no
    // attribution is recorded; report an (honest) all-zero breakdown.
    r.attribution.unwrap_or_default()
}

/// Validate an emitted Chrome `trace_event` document: structurally
/// well-formed JSON (balanced delimiters outside strings) and, for each
/// (pid, tid) track, complete events sorted by start with no overlap —
/// the contract Perfetto's importer expects.
fn validate_chrome_trace(doc: &str) -> usize {
    // Structural scan; also capture each event object (depth-2 `{...}`,
    // nested `args` objects included).
    let (mut obj, mut arr) = (0i64, 0i64);
    let (mut in_str, mut esc) = (false, false);
    let mut start = None;
    let mut events: Vec<String> = Vec::new();
    for (i, c) in doc.char_indices() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                obj += 1;
                if obj == 2 {
                    start = Some(i);
                }
            }
            '}' => {
                obj -= 1;
                assert!(obj >= 0, "unbalanced braces in trace JSON");
                if obj == 1 {
                    events.push(doc[start.take().unwrap()..=i].to_string());
                }
            }
            '[' => arr += 1,
            ']' => {
                arr -= 1;
                assert!(arr >= 0, "unbalanced brackets in trace JSON");
            }
            _ => {}
        }
    }
    assert!(
        !in_str && obj == 0 && arr == 0,
        "trace JSON not well-formed (unterminated string or delimiter)"
    );

    // Our emitter writes fields as `"key": value`.
    let fnum = |e: &str, key: &str| -> f64 {
        let pat = format!("\"{key}\": ");
        let s = e
            .find(&pat)
            .unwrap_or_else(|| panic!("missing {key} in {e}"))
            + pat.len();
        let rest = &e[s..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().unwrap()
    };
    let mut tracks: std::collections::HashMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::HashMap::new();
    let mut complete = 0usize;
    for e in &events {
        if !e.contains("\"ph\": \"X\"") {
            continue;
        }
        complete += 1;
        let (pid, tid) = (fnum(e, "pid") as u64, fnum(e, "tid") as u64);
        tracks
            .entry((pid, tid))
            .or_default()
            .push((fnum(e, "ts"), fnum(e, "dur")));
    }
    for ((pid, tid), spans) in &tracks {
        let mut prev_end = f64::NEG_INFINITY;
        let mut prev_ts = f64::NEG_INFINITY;
        for &(ts, dur) in spans {
            assert!(
                ts >= prev_ts,
                "track pid={pid} tid={tid} not sorted by start time"
            );
            assert!(
                ts + 1e-6 >= prev_end,
                "track pid={pid} tid={tid} has overlapping spans ({ts} < {prev_end})"
            );
            prev_ts = ts;
            prev_end = prev_end.max(ts + dur);
        }
    }
    complete
}

/// Pull a top-level numeric field out of a previously written
/// `BENCH_host_perf` JSON document (enough of a parser for our own
/// artifact format).
fn extract_num(doc: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = doc[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let smoke = std::env::var("HOST_PERF_SMOKE").is_ok_and(|v| v == "1");
    let sc = scale(smoke);
    let threads_available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads_used = host_threads();
    let configs = sweep_configs(&sc);
    println!(
        "host_perf{}: {} configs, {} host threads used ({} available)",
        if smoke { " [smoke]" } else { "" },
        configs.len(),
        threads_used,
        threads_available,
    );

    // Warm up with one full (untimed) sweep pass so the serial and
    // parallel timings below see the same allocator / page-cache state.
    // A partial warm-up makes the first timed pass look slower for
    // reasons that have nothing to do with threading.
    let _ = run_sweep_threads(&configs, 1, run_pooling);

    // Timed passes. Wall time on a shared box is noisy (scheduler,
    // frequency scaling, neighbours), so each sweep is timed over
    // several passes and the best one is reported — the standard way to
    // measure the cost of the *code* rather than of the interference.
    // The simulation results themselves are bit-identical across passes
    // (asserted below), so the extra passes only refine the clock.
    let passes = if smoke { 1 } else { 3 };

    // Serial passes, one config at a time so each gets a wall time.
    let mut serial = Vec::new();
    let mut wall_secs = Vec::new();
    let mut serial_secs = f64::INFINITY;
    for _ in 0..passes {
        let t0 = Instant::now();
        let mut pass = Vec::with_capacity(configs.len());
        let mut walls = Vec::with_capacity(configs.len());
        for c in &configs {
            let tc = Instant::now();
            pass.push(run_pooling(c));
            walls.push(tc.elapsed().as_secs_f64());
        }
        let secs = t0.elapsed().as_secs_f64();
        if !serial.is_empty() {
            assert_eq!(serial, pass, "serial passes disagree: nondeterminism");
        }
        if secs < serial_secs {
            serial_secs = secs;
            wall_secs = walls;
        }
        if serial.is_empty() {
            serial = pass;
        }
    }

    let mut parallel = Vec::new();
    let mut parallel_secs = f64::INFINITY;
    for _ in 0..passes {
        let t1 = Instant::now();
        let pass = run_sweep_threads(&configs, threads_used, run_pooling);
        parallel_secs = parallel_secs.min(t1.elapsed().as_secs_f64());
        parallel = pass;
    }

    // Parallelism is across runs, never within one virtual timeline:
    // the results must be bit-identical.
    assert_eq!(
        serial, parallel,
        "parallel sweep changed simulation results"
    );

    let sim_queries: f64 = serial
        .iter()
        .map(|r| r.metrics.qps * r.metrics.window.as_secs_f64())
        .sum();
    let serial_qps = sim_queries / serial_secs;
    let speedup = serial_secs / parallel_secs;
    println!("serial:   {serial_secs:.2} s  ({serial_qps:.0} simulated queries/s)");
    println!(
        "parallel: {parallel_secs:.2} s  ({:.0} simulated queries/s)",
        sim_queries / parallel_secs
    );
    println!("speedup:  {speedup:.2}x on {threads_used} threads (results bit-identical)");

    // ---- intra-config parallel stepping --------------------------------
    // The sweep above parallelises across independent runs. The phased
    // sharing engine also parallelises *within* one run: nodes step
    // concurrently between virtual-time barriers and cross-node effects
    // commit at the barrier in fixed node order. Time the largest single
    // config serial (host_threads = 1) against parallel stepping, after
    // asserting the simulation results are bit-identical across worker
    // counts — the determinism contract the barrier protocol guarantees.
    let mut big = SharingConfig::standard(SharingSystem::Cxl, if smoke { 4 } else { 12 });
    if smoke {
        big.layout.rows_per_group = 1_000;
        big.duration = SimTime::from_millis(20);
    }
    let gen = point_update_gen(big.layout, 40);
    let run_with = |threads: usize| {
        let mut c = big.clone();
        c.host_threads = threads;
        run_sharing(&c, &gen)
    };
    let reference = run_with(1);
    for workers in [2usize, 4] {
        assert_eq!(
            reference,
            run_with(workers),
            "intra-config results diverged at {workers} workers"
        );
    }
    // Parallel stepping only helps with real cores; still spawn at least
    // two workers so the measurement always exercises the thread pool.
    let single_threads = threads_used.max(2);
    let mut single_serial_secs = f64::INFINITY;
    let mut single_parallel_secs = f64::INFINITY;
    for _ in 0..passes {
        let t = Instant::now();
        let _ = run_with(1);
        single_serial_secs = single_serial_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let _ = run_with(single_threads);
        single_parallel_secs = single_parallel_secs.min(t.elapsed().as_secs_f64());
    }
    let single_speedup = single_serial_secs / single_parallel_secs;
    // On a one-core host the worker pool can only interleave, so the
    // "speedup" measures scheduling overhead, not the barrier protocol.
    // Keep reporting it (the determinism assertions above still bind)
    // but mark it informational instead of a performance claim.
    let single_speedup_informational = threads_available == 1;
    println!(
        "single config (CXL sharing, {} nodes): serial {single_serial_secs:.2} s, \
         parallel {single_parallel_secs:.2} s on {single_threads} workers -> \
         {single_speedup:.2}x (bit-identical across 1/2/4 workers){}",
        big.nodes,
        if single_speedup_informational {
            " [informational: 1 host thread available]"
        } else {
            ""
        }
    );

    // Steady-state allocations per query on the two disaggregated
    // designs; ~0 after the zero-allocation page-path work.
    let allocs_rdma = hot_path_allocs_per_query(PoolKind::TieredRdma, &sc);
    let allocs_cxl = hot_path_allocs_per_query(PoolKind::Cxl, &sc);
    println!("hot-path allocs/query: tiered_rdma {allocs_rdma:.4}, cxl {allocs_cxl:.4}");

    // Where do the simulated nanoseconds go? One single-instance run
    // per design with latency attribution enabled.
    let attr_rdma = attribution_for(PoolKind::TieredRdma, &sc);
    let attr_cxl = attribution_for(PoolKind::Cxl, &sc);
    println!("latency attribution (1 instance point-select, % of simulated ns):");
    println!("  {:<10} {:>12} {:>12}", "lane", "tiered_rdma", "cxl");
    let pct = |b: &QueryBreakdown, l: Lane| {
        let t = b.total_ns();
        if t == 0 {
            0.0
        } else {
            100.0 * b.lane(l) as f64 / t as f64
        }
    };
    for l in Lane::ALL {
        println!(
            "  {:<10} {:>11.1}% {:>11.1}%",
            l.name(),
            pct(&attr_rdma, l),
            pct(&attr_cxl, l)
        );
    }

    // Profiled pass: one representative config per design, single
    // thread, profiler on. Not used for any timing number above — the
    // guards cost a few ns each — only for the breakdown.
    let profiled: Vec<PoolingConfig> = [PoolKind::TieredRdma, PoolKind::Cxl]
        .into_iter()
        .map(|kind| {
            let mut c =
                PoolingConfig::standard(kind, SysbenchKind::PointSelect, sc.max_instances.min(4));
            c.duration = sc.window;
            c.table_size = sc.table_size;
            c
        })
        .collect();
    profile::reset();
    profile::enable(true);
    for c in &profiled {
        let _ = run_pooling(c);
    }
    profile::enable(false);
    let snap = profile::snapshot();

    println!("profile breakdown (serial, RDMA + CXL point-select):");
    println!(
        "  {:<12} {:>12} {:>12} {:>14}",
        "subsys", "calls", "self_ms", "self_allocs"
    );
    for s in profile::Subsys::ALL {
        let row = snap.row(s);
        println!(
            "  {:<12} {:>12} {:>12.3} {:>14}",
            s.name(),
            row.calls,
            row.self_ns as f64 / 1e6,
            row.self_allocs
        );
    }
    println!(
        "  {:<12} {:>12} {:>12.3} {:>14}",
        "total",
        "",
        snap.total_self_ns() as f64 / 1e6,
        snap.total_self_allocs()
    );
    if snap.row(profile::Subsys::Btree).calls == 0 {
        println!("  (empty: build without the simkit `profile` feature)");
    }

    // Per-policy bufferpool cost: the profiled RDMA config re-run under
    // each eviction policy, isolating the policy's hot-path price as
    // bufferpool self-ns per call. CLOCK's touch is a refbit store where
    // LRU's is a doubly-linked-list splice, so CLOCK should not cost
    // more per call; call counts are deterministic, so only the ns
    // column carries wall-clock noise (best of `passes` is kept).
    let mut policy_rows: Vec<(PolicyKind, u64, u64)> = Vec::new();
    for kind in PolicyKind::ALL {
        let mut c = profiled[0].clone();
        c.policy = kind;
        let mut best: Option<(u64, u64)> = None;
        for _ in 0..passes {
            profile::reset();
            profile::enable(true);
            let _ = run_pooling(&c);
            profile::enable(false);
            let row = profile::snapshot().row(profile::Subsys::BufferPool);
            if let Some((calls, _)) = best {
                assert_eq!(
                    calls, row.calls,
                    "bufferpool call count must be deterministic"
                );
            }
            best = Some(match best {
                Some((calls, ns)) => (calls, ns.min(row.self_ns)),
                None => (row.calls, row.self_ns),
            });
        }
        let (calls, self_ns) = best.unwrap();
        policy_rows.push((kind, calls, self_ns));
    }
    println!("bufferpool self-ns/call by eviction policy (RDMA point-select):");
    for &(kind, calls, self_ns) in &policy_rows {
        println!(
            "  {:<6} {:>12} calls {:>10.1} ns/call",
            kind.name(),
            calls,
            if calls > 0 {
                self_ns as f64 / calls as f64
            } else {
                0.0
            }
        );
    }

    // Compare against the committed pre-optimization baseline, if any.
    let baseline_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../BENCH_host_perf.baseline.json");
    let baseline_qps = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|doc| extract_num(&doc, "serial_sim_queries_per_sec"));
    if let Some(b) = baseline_qps {
        if !smoke {
            println!(
                "baseline: {b:.0} simulated queries/s serial -> {:.2}x vs baseline",
                serial_qps / b
            );
        }
    }

    if smoke {
        // Perf gate: with tracing disabled (the default above) the
        // disabled-path guards must keep the hot path allocation-free.
        // The telemetry layer rides the same contract: the pooling hot
        // path carries no probes.
        assert!(
            allocs_rdma < 0.5 && allocs_cxl < 0.5,
            "hot-path allocs/query regressed with tracing disabled: \
             tiered_rdma {allocs_rdma:.4}, cxl {allocs_cxl:.4}"
        );
        // And the profiler's own ledger must agree: the bufferpool
        // subsystem performs zero self-allocations over an entire run
        // (setup included — every growable container is pre-sized).
        let bp_row = snap.row(profile::Subsys::BufferPool);
        assert!(
            bp_row.calls == 0 || bp_row.self_allocs == 0,
            "bufferpool hot path allocated {} times",
            bp_row.self_allocs
        );

        // Traced smoke run: record spans on one config, export Chrome
        // trace JSON, and validate it (well-formed, per-track
        // non-overlapping) — and confirm tracing never perturbs the
        // simulation itself.
        trace::reset();
        trace::enable_spans(true);
        trace::enable_attribution(true);
        let traced = run_pooling(&configs[0]);
        trace::enable_spans(false);
        trace::enable_attribution(false);
        let events = trace::take_events();
        assert!(!events.is_empty(), "traced smoke run recorded no spans");
        let doc = trace::chrome_trace_json(&events);
        trace::reset();
        assert_eq!(
            traced.metrics, serial[0].metrics,
            "tracing changed simulation results"
        );
        let complete = validate_chrome_trace(&doc);
        assert!(complete > 0, "trace JSON contains no complete events");
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/host_perf_smoke_trace.json");
        std::fs::write(&out, &doc).expect("write smoke trace");
        println!(
            "smoke trace: {complete} spans validated -> {}",
            out.display()
        );
        println!("smoke mode: skipping BENCH_host_perf.json");
        return;
    }

    let runs: Vec<String> = serial
        .iter()
        .zip(configs.iter())
        .zip(wall_secs.iter())
        .map(|((r, c), w)| {
            json::Obj::new()
                .str("kind", &format!("{:?}", c.kind))
                .int("instances", c.instances as u64)
                .num("qps", r.metrics.qps)
                .num("avg_latency_us", r.metrics.avg_latency_us)
                .num("wall_secs", *w)
                .build()
        })
        .collect();
    let breakdown: Vec<String> = profile::Subsys::ALL
        .iter()
        .map(|&s| {
            let row = snap.row(s);
            json::Obj::new()
                .str("subsys", s.name())
                .int("calls", row.calls)
                .int("self_ns", row.self_ns)
                .int("self_allocs", row.self_allocs)
                .build()
        })
        .collect();
    let policy_profile: Vec<String> = policy_rows
        .iter()
        .map(|&(kind, calls, self_ns)| {
            json::Obj::new()
                .str("policy", kind.name())
                .int("bp_calls", calls)
                .int("bp_self_ns", self_ns)
                .num(
                    "bp_self_ns_per_call",
                    if calls > 0 {
                        self_ns as f64 / calls as f64
                    } else {
                        0.0
                    },
                )
                .build()
        })
        .collect();
    let attribution: Vec<String> = [("tiered_rdma", &attr_rdma), ("cxl", &attr_cxl)]
        .iter()
        .map(|(design, b)| {
            let total = b.total_ns();
            let lanes: Vec<String> = Lane::ALL
                .iter()
                .map(|&l| {
                    json::Obj::new()
                        .str("lane", l.name())
                        .int("ns", b.lane(l))
                        .num(
                            "fraction",
                            if total > 0 {
                                b.lane(l) as f64 / total as f64
                            } else {
                                0.0
                            },
                        )
                        .build()
                })
                .collect();
            json::Obj::new()
                .str("design", design)
                .int("total_ns", total)
                .arr("lanes", &lanes)
                .build()
        })
        .collect();
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut doc = json::Obj::new()
        .str("bench", "host_perf")
        .str(
            "sweep",
            "fig7-style pooling point-select, RDMA vs CXL, 1-8 instances, 100 ms windows",
        )
        .int("generated_unix", unix_secs)
        .int("host_threads_available", threads_available as u64)
        .int("host_threads_used", threads_used as u64)
        .int("configs", configs.len() as u64)
        .int("timing_passes", passes as u64)
        .num("serial_secs", serial_secs)
        .num("parallel_secs", parallel_secs)
        .num("speedup", speedup)
        .num("simulated_queries", sim_queries)
        .num("serial_sim_queries_per_sec", serial_qps)
        .num("parallel_sim_queries_per_sec", sim_queries / parallel_secs)
        .raw("results_bit_identical", "true")
        .int("single_config_nodes", big.nodes as u64)
        .int("single_config_workers", single_threads as u64)
        .num("single_config_serial_secs", single_serial_secs)
        .num("single_config_parallel_secs", single_parallel_secs)
        .num("single_config_speedup", single_speedup)
        .raw(
            "single_config_speedup_informational",
            if single_speedup_informational {
                "true"
            } else {
                "false"
            },
        )
        .raw("single_config_results_bit_identical", "true")
        .num("hot_path_allocs_per_query_tiered_rdma", allocs_rdma)
        .num("hot_path_allocs_per_query_cxl", allocs_cxl);
    if let Some(b) = baseline_qps {
        doc = doc
            .num("baseline_serial_sim_queries_per_sec", b)
            .num("speedup_vs_baseline", serial_qps / b);
    }
    let doc = doc
        .arr("profile_breakdown", &breakdown)
        .arr("policy_profile", &policy_profile)
        .arr("attribution", &attribution)
        .arr("runs", &runs)
        .build_pretty();

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_host_perf.json");
    std::fs::write(&path, doc + "\n").expect("write BENCH_host_perf.json");
    println!("wrote {}", path.display());
}
