//! The traced pass: one rep with the host profiler and the virtual-time
//! lane attribution on, beside one untraced rep of the same cells, plus
//! the isolated layer loops. Everything here is a per-layer number; the
//! end-to-end metrics come only from the untraced `run`.

use crate::cells::{workload_cells, CellOut};
use crate::layers::{LoopResult, LOOP_NAMES};
use crate::run::{timed, Checks, RunOpts};
use crate::spans::Spans;
use crate::spec::Workload;
use simkit::json::Obj;
use simkit::profile::{self, Snapshot, Subsys, SUBSYS_COUNT};
use simkit::trace::{self, Lane, QueryBreakdown};

/// Registry keys summed over the workload's cells (full-window call minus
/// zero-window call, so the load phase is excluded).
const RAW_COUNTERS: [&str; 14] = [
    "bp_hits",
    "bp_misses",
    "bp_evictions",
    "bp_writebacks",
    "bp_remote_read_bytes",
    "bp_remote_write_bytes",
    "cxl_cache_hits",
    "cxl_cache_misses",
    "cxl_switch_bytes",
    "rdma_nic_bytes",
    "wal_flushes",
    "wal_bytes_flushed",
    "storage_reads",
    "storage_writes",
];

/// What the traced rep saw of one cell.
pub struct CellTrace {
    pub name: String,
    /// Simulated statements of the full call.
    pub statements: f64,
    /// Full minus zero-window wall seconds, untraced and traced rep.
    pub steady_untraced_s: f64,
    pub steady_traced_s: f64,
    pub counters: [f64; RAW_COUNTERS.len()],
    pub lanes: QueryBreakdown,
    pub sim: Vec<(&'static str, f64)>,
}

pub struct LayerReport {
    pub workload: &'static Workload,
    pub cells: Vec<CellTrace>,
    /// Profiler rows over the steady part (full minus zero-window calls).
    pub steady_rows: Rows,
    /// Profiler rows over the zero-window (set-up) calls.
    pub setup_rows: Rows,
    pub steady_traced_s: f64,
    pub steady_untraced_s: f64,
    pub allocs_per_sim_op: f64,
    pub checks: Checks,
    headline: CellOut,
    /// (`lock_contended`, `lock_mean_wait_ns`) of each sharing cell.
    locks: Vec<(f64, f64)>,
    /// (`pages_rebuilt`, `log_bytes`) summed over the recovery cells.
    recovered: (f64, f64),
}

type Rows = [[u64; 3]; SUBSYS_COUNT];

/// Per-subsystem (calls, self ns, self allocs) accumulated between two
/// profiler snapshots.
fn rows_between(after: &Snapshot, before: &Snapshot) -> Rows {
    let mut rows = [[0u64; 3]; SUBSYS_COUNT];
    for sub in Subsys::ALL {
        let (a, b) = (after.row(sub), before.row(sub));
        rows[sub as usize] = [
            a.calls - b.calls,
            a.self_ns - b.self_ns,
            a.self_allocs - b.self_allocs,
        ];
    }
    rows
}

fn registry_value(out: &CellOut, key: &str) -> f64 {
    match out {
        CellOut::Pool(r) => r.registry.get(key).map_or(0.0, |v| v.as_f64()),
        _ => 0.0,
    }
}

/// Trace one workload: an untraced rep for the overhead baseline, then a
/// rep with `simkit::profile` and lane attribution enabled.
pub fn trace_workload(
    workload: &'static Workload,
    opts: &RunOpts,
    spans: &mut Spans,
) -> LayerReport {
    let cells = workload_cells(workload.name, opts.seed, opts.quick);
    let mut checks = Checks::default();
    spans.open(workload.name);

    // Warm-up, then the untraced rep.
    let reference: Vec<CellOut> = cells.iter().map(|c| c.run(false)).collect();
    let mut untraced_steady = Vec::with_capacity(cells.len());
    let mut steady_allocs = 0u64;
    for cell in &cells {
        let zero = timed(cell, true);
        let full = timed(cell, false);
        untraced_steady.push(full.secs - zero.secs);
        steady_allocs += full.allocs.saturating_sub(zero.allocs);
    }

    // The traced rep.
    spans.open("rep");
    let mut report_cells = Vec::with_capacity(cells.len());
    let mut steady_rows: Rows = [[0; 3]; SUBSYS_COUNT];
    let mut setup_rows: Rows = [[0; 3]; SUBSYS_COUNT];
    let mut locks = Vec::new();
    let mut recovered = (0.0, 0.0);
    profile::reset();
    trace::reset();
    for ((cell, expect), &steady_untraced_s) in cells.iter().zip(&reference).zip(&untraced_steady) {
        spans.open(&cell.name);
        profile::enable(true);
        trace::enable_attribution(true);

        spans.open("setup");
        let (before, lanes_before) = (profile::snapshot(), trace::attr_snapshot());
        let zero = timed(cell, true);
        let (mid, lanes_mid) = (profile::snapshot(), trace::attr_snapshot());
        spans.close();

        spans.open("full");
        let full = timed(cell, false);
        let (after, lanes_after) = (profile::snapshot(), trace::attr_snapshot());
        spans.close();
        // The load phase is deterministic, so the zero-window call's lanes
        // are exactly the full call's set-up share.
        let lanes = lanes_after
            .since(&lanes_mid)
            .since(&lanes_mid.since(&lanes_before));

        trace::enable_attribution(false);
        profile::enable(false);
        spans.close();

        // Steady rows: the full call's rows minus the set-up's share,
        // which the zero-window call just measured.
        let (cell_setup, cell_full) = (rows_between(&mid, &before), rows_between(&after, &mid));
        for s in 0..SUBSYS_COUNT {
            for k in 0..3 {
                setup_rows[s][k] += cell_setup[s][k];
                steady_rows[s][k] += cell_full[s][k].saturating_sub(cell_setup[s][k]);
            }
        }

        // Tracing observes; it must not change what the model does.
        checks.check(
            full.out
                .sim_values()
                .iter()
                .zip(expect.sim_values())
                .all(|(a, b)| a.1.to_bits() == b.1.to_bits()),
            || format!("{}: traced result differs from untraced", cell.name),
        );

        let mut counters = [0.0; RAW_COUNTERS.len()];
        for (slot, key) in counters.iter_mut().zip(RAW_COUNTERS) {
            *slot = (registry_value(&full.out, key) - registry_value(&zero.out, key)).max(0.0);
        }
        match &full.out {
            CellOut::Share(r) => locks.push((r.lock_contended as f64, r.lock_mean_wait_ns)),
            CellOut::Recover(r) => {
                recovered.0 += r.summary.pages_rebuilt as f64;
                recovered.1 += r.summary.log_bytes as f64;
            }
            CellOut::Pool(_) => {}
        }
        report_cells.push(CellTrace {
            name: cell.name.clone(),
            statements: full.out.statements(),
            steady_untraced_s,
            steady_traced_s: full.secs - zero.secs,
            counters,
            lanes,
            sim: full.out.sim_values(),
        });
    }
    spans.close();
    spans.close();

    let headline = cells
        .iter()
        .position(|c| c.name == workload.headline)
        .expect("headline names a cell of the workload");
    let statements: f64 = reference.iter().map(CellOut::statements).sum();
    LayerReport {
        workload,
        steady_traced_s: report_cells.iter().map(|c| c.steady_traced_s).sum(),
        steady_untraced_s: untraced_steady.iter().sum(),
        cells: report_cells,
        steady_rows,
        setup_rows,
        allocs_per_sim_op: steady_allocs as f64 / statements,
        checks,
        headline: reference[headline].clone(),
        locks,
        recovered,
    }
}

/// Every per-layer metric name, in emission order: the traced rows and
/// counters, then the isolated loops.
pub fn per_layer_names() -> Vec<String> {
    let mut names = Vec::new();
    for s in Subsys::ALL {
        for col in ["calls", "self_ns", "self_allocs"] {
            names.push(format!("prof.{}.{col}", s.name()));
        }
    }
    names.push("prof.unattributed_share".into());
    names.push("trace_overhead_ratio".into());
    names.push("allocs_per_sim_op".into());
    for l in Lane::ALL {
        names.push(format!("lane.{}_share", l.name()));
    }
    for c in [
        "bp.hit_ratio",
        "bp.evictions",
        "bp.writebacks",
        "bp.remote_read_bytes",
        "bp.remote_write_bytes",
        "cxl.cache_hit_ratio",
        "cxl.switch_bytes",
        "rdma.nic_bytes",
        "wal.flushes",
        "wal.bytes_flushed",
        "storage.reads",
        "storage.writes",
        "lock.contended",
        "lock.mean_wait_ns",
        "recov.pages_rebuilt",
        "recov.log_bytes",
        "headline.qps",
        "headline.p50_us",
        "headline.p99_us",
        "headline.recovery_ms",
    ] {
        names.push(c.into());
    }
    names.extend(LOOP_NAMES.iter().map(|n| n.to_string()));
    names
}

/// Unit of a per-layer metric, from its name.
pub fn per_layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ns") || name.contains("_ns.") {
        "ns"
    } else if name.ends_with("_share") || name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "B"
    } else if name.ends_with("_us") {
        "sim_us"
    } else if name.ends_with("_ms") {
        "sim_ms"
    } else if name == "headline.qps" {
        "sim_1/s"
    } else if name == "allocs_per_sim_op" {
        "1/op"
    } else {
        "count"
    }
}

/// Whether a higher value of the per-layer metric is the better one.
pub fn per_layer_higher_is_better(name: &str) -> bool {
    name == "headline.qps" || name == "bp.hit_ratio" || name == "cxl.cache_hit_ratio"
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerReport {
    fn counter(&self, key: &str) -> f64 {
        let i = RAW_COUNTERS
            .iter()
            .position(|k| *k == key)
            .expect("known counter");
        self.cells.iter().map(|c| c.counters[i]).sum()
    }

    /// The workload's per-layer metrics (all but the loops), in
    /// `per_layer_names` order. Counters a harness does not report read 0.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut m: Vec<(String, f64)> = Vec::new();
        let steady_ns = self.steady_traced_s * 1e9;
        for s in Subsys::ALL {
            let row = self.steady_rows[s as usize];
            for (col, v) in ["calls", "self_ns", "self_allocs"].iter().zip(row) {
                m.push((format!("prof.{}.{col}", s.name()), v as f64));
            }
        }
        let attributed: u64 = self.steady_rows.iter().map(|r| r[1]).sum();
        m.push((
            "prof.unattributed_share".into(),
            1.0 - attributed as f64 / steady_ns,
        ));
        m.push((
            "trace_overhead_ratio".into(),
            self.steady_traced_s / self.steady_untraced_s,
        ));
        m.push(("allocs_per_sim_op".into(), self.allocs_per_sim_op));

        let lane_total: u64 = self.cells.iter().map(|c| c.lanes.total_ns()).sum();
        for l in Lane::ALL {
            let ns: u64 = self.cells.iter().map(|c| c.lanes.lane(l)).sum();
            m.push((
                format!("lane.{}_share", l.name()),
                ratio(ns as f64, lane_total as f64),
            ));
        }

        let (hits, misses) = (self.counter("bp_hits"), self.counter("bp_misses"));
        let (chits, cmisses) = (
            self.counter("cxl_cache_hits"),
            self.counter("cxl_cache_misses"),
        );
        // (`fold`, not `sum`: an empty f64 sum is -0.0, which prints as "-0".)
        let contended = self.locks.iter().fold(0.0, |acc, l| acc + l.0);
        let mean_wait = ratio(
            self.locks.iter().fold(0.0, |acc, l| acc + l.1),
            self.locks.len() as f64,
        );
        let (p50, p99, recovery_ms) = match &self.headline {
            CellOut::Pool(r) => (r.metrics.p50_latency_us, r.metrics.p99_latency_us, 0.0),
            CellOut::Share(r) => (r.metrics.p50_latency_us, r.metrics.p99_latency_us, 0.0),
            CellOut::Recover(r) => (0.0, 0.0, r.recovery_secs * 1e3),
        };
        for (name, v) in [
            ("bp.hit_ratio", ratio(hits, hits + misses)),
            ("bp.evictions", self.counter("bp_evictions")),
            ("bp.writebacks", self.counter("bp_writebacks")),
            ("bp.remote_read_bytes", self.counter("bp_remote_read_bytes")),
            (
                "bp.remote_write_bytes",
                self.counter("bp_remote_write_bytes"),
            ),
            ("cxl.cache_hit_ratio", ratio(chits, chits + cmisses)),
            ("cxl.switch_bytes", self.counter("cxl_switch_bytes")),
            ("rdma.nic_bytes", self.counter("rdma_nic_bytes")),
            ("wal.flushes", self.counter("wal_flushes")),
            ("wal.bytes_flushed", self.counter("wal_bytes_flushed")),
            ("storage.reads", self.counter("storage_reads")),
            ("storage.writes", self.counter("storage_writes")),
            ("lock.contended", contended),
            ("lock.mean_wait_ns", mean_wait),
            ("recov.pages_rebuilt", self.recovered.0),
            ("recov.log_bytes", self.recovered.1),
            ("headline.qps", self.headline.qps()),
            ("headline.p50_us", p50),
            ("headline.p99_us", p99),
            ("headline.recovery_ms", recovery_ms),
        ] {
            m.push((name.into(), v));
        }
        m
    }

    pub fn print(&self) {
        let w = self.workload.name;
        println!(
            "== {w} traced (headline cell {}, host clock unless the unit says sim) ==",
            self.workload.headline
        );
        for (name, v) in self.metrics() {
            println!("{w} {name:<28} {v:>18.6} {}", per_layer_unit(&name));
        }
        let attributed_s = self.steady_rows.iter().map(|r| r[1]).sum::<u64>() as f64 / 1e9;
        println!(
            "{w} steady wall: traced {:.3} s = attributed {attributed_s:.3} s + unattributed {:.3} s; untraced {:.3} s",
            self.steady_traced_s,
            self.steady_traced_s - attributed_s,
            self.steady_untraced_s
        );
        for f in &self.checks.failures {
            println!("{w} CHECK FAILED: {f}");
        }
    }

    /// The workload's section of `layers.json`: the metrics, the set-up
    /// profile rows and the per-cell counters, lanes and sim values.
    pub fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for (name, v) in self.metrics() {
            metrics = metrics.num(&name, v);
        }
        let mut setup = Obj::new();
        for s in Subsys::ALL {
            let [calls, self_ns, self_allocs] = self.setup_rows[s as usize];
            let row = Obj::new()
                .int("calls", calls)
                .int("self_ns", self_ns)
                .int("self_allocs", self_allocs);
            setup = setup.raw(s.name(), &row.build());
        }
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let mut counters = Obj::new();
                for (k, v) in RAW_COUNTERS.iter().zip(c.counters) {
                    counters = counters.num(k, v);
                }
                let mut lanes = Obj::new();
                for l in Lane::ALL {
                    lanes = lanes.int(&format!("{}_ns", l.name()), c.lanes.lane(l));
                }
                let mut sim = Obj::new();
                for (k, v) in &c.sim {
                    sim = sim.num(k, *v);
                }
                Obj::new()
                    .str("cell", &c.name)
                    .num("statements", c.statements)
                    .num("steady_untraced_s", c.steady_untraced_s)
                    .num("steady_traced_s", c.steady_traced_s)
                    .raw("counters", &counters.build())
                    .raw("lanes", &lanes.build())
                    .raw("sim", &sim.build())
                    .build()
            })
            .collect();
        Obj::new()
            .str("workload", self.workload.name)
            .num("steady_traced_s", self.steady_traced_s)
            .num("steady_untraced_s", self.steady_untraced_s)
            .int("checks_total", self.checks.total)
            .int("checks_failed", self.checks.failures.len() as u64)
            .raw("metrics", &metrics.build())
            .raw("setup_prof", &setup.build())
            .arr("cells", &cells)
            .build()
    }
}

/// `loop name → {ns_per_op, min, max, batches, ops_per_batch}`.
pub fn loops_json(loops: &[LoopResult]) -> String {
    let mut o = Obj::new();
    for l in loops {
        let row = Obj::new()
            .num("ns_per_op", l.ns_per_op.median)
            .num("min", l.ns_per_op.min)
            .num("max", l.ns_per_op.max)
            .int("batches", l.ns_per_op.n as u64)
            .int("ops_per_batch", l.ops_per_batch);
        o = o.raw(l.name, &row.build());
    }
    o.build()
}
