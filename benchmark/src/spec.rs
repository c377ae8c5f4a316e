//! The benchmark's fixed vocabulary: workloads, end-to-end metrics and
//! their regression bounds. `BENCHMARK.json` at the repository root states
//! the same tables for the driver; a unit test keeps the two in step.

/// Seed used when none is given; `golden.json` pins the sim values at it.
pub const DEFAULT_SEED: u64 = 42;
/// Default measuring time of one workload run (`run_seconds`).
pub const DEFAULT_SECONDS: f64 = 16.0;
/// Timed reps a run makes even when the first ones overrun `--seconds`:
/// a median needs three samples to shrug off one disturbed rep.
pub const MIN_REPS: usize = 3;

/// Which clock a number is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the simulator process: noisy, box-dependent.
    Host,
    /// Virtual time of the modelled hardware: bit-identical at a fixed seed.
    Sim,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may get worse
    /// before `compare` (and the driver) call it a regression. Each bound is
    /// at least three times the spread seen over ten seeds (README.md has
    /// the table); at one fixed seed the sim metrics are exact and
    /// `compare --aa` holds them to equality.
    pub bound: f64,
}

impl Metric {
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

pub const END_TO_END: [Metric; 6] = [
    Metric {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "sim_ops_per_host_s",
        unit: "1/s",
        clock: Clock::Host,
        higher_is_better: true,
        bound: 0.25,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        higher_is_better: false,
        bound: 0.25,
    },
    Metric {
        name: "sim_qps",
        unit: "sim_1/s",
        clock: Clock::Sim,
        higher_is_better: true,
        bound: 0.05,
    },
    Metric {
        name: "sim_latency_us",
        unit: "sim_us",
        clock: Clock::Sim,
        higher_is_better: false,
        bound: 0.05,
    },
    Metric {
        name: "paper_logerr",
        unit: "ln_ratio",
        clock: Clock::Sim,
        higher_is_better: false,
        bound: 0.25,
    },
];

/// One workload: a fixed list of cells (see `cells.rs`).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The cell whose counters, lanes and quantiles the traced pass reports.
    pub headline: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pool_point",
        headline: "cxl_n8",
        why: "CPU-bound cache-resident point selects (Fig 7): scheduler, btree descend, pool and cache hit paths; WAL, locks, fusion, recovery idle",
    },
    Workload {
        name: "pool_rw_spill",
        headline: "cxl_n3",
        why: "read-write mix larger than the LBP and the modelled CPU cache (Figs 1/9): miss, evict, write-back, NIC ceiling, WAL flushes",
    },
    Workload {
        name: "share_mixed",
        headline: "cxl_upd40",
        why: "8-node multi-primary sharing (Figs 11/12): fusion coherency, RDMA page flushes, distributed locks, barrier loop; no btree, no WAL",
    },
    Workload {
        name: "recover",
        headline: "polarrecv_wo",
        why: "write-heavy single instance, crash, three recovery schemes (Fig 10): btree SMOs, WAL append/flush/replay, checkpoints, PolarRecv",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
