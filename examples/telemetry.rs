//! Online telemetry demo: the failover scenario observed *live* through
//! the windowed telemetry pipeline instead of post-mortem counters.
//!
//! Three runs of the same cluster:
//!
//! 1. **Crash** — a primary dies mid-run. The per-window health
//!    timeline shows it go silent, the absence rule fires, and the
//!    MTTD-vs-ground-truth line scores telemetry-driven detection
//!    against the fault plan's injection instant.
//! 2. **Crash + link flap** — a survivor's CXL link also goes down for
//!    a few windows; the same rules detect it and the alert clears
//!    once the link heals.
//! 3. **Fault-free control** — no crash, no chaos: the false-positive
//!    count must be zero.
//!
//! Run with: `cargo run --release --example telemetry`
//! (`TELEMETRY_SMOKE=1` shrinks the run for CI.)

use simkit::SimTime;
use workloads::{run_failover, FailoverConfig, LinkChaos};

fn base_cfg() -> FailoverConfig {
    let smoke = std::env::var_os("TELEMETRY_SMOKE").is_some();
    if smoke {
        FailoverConfig::smoke(3)
    } else {
        FailoverConfig::standard(3)
    }
}

fn main() {
    let cfg = base_cfg();
    let window_ms = cfg.telemetry_window.as_nanos() as f64 / 1e6;
    println!(
        "3 primaries + 1 standby; {} ms telemetry windows; rules: node_absent (absence >= 2 windows), \
         p99_slow (burn rate, short=2 long=4)\n",
        window_ms
    );

    // ---- 1. Crash ----------------------------------------------------
    println!("== run 1: node crash ==");
    let r = run_failover(&cfg);
    r.assert_safety();
    let rep = r.telemetry.as_ref().expect("telemetry window is on");
    print!("{}", rep.ascii_timeline());
    println!("alert log:");
    print!("{}", rep.alert_log());
    let crash_at = SimTime(
        r.registry
            .get("failover_crash_at_ns")
            .expect("crash instant recorded")
            .as_u64(),
    );
    let mttd = rep
        .mttd_ns("node_absent", cfg.crash_node as u32, crash_at)
        .expect("absence alert fired for the victim");
    println!(
        "MTTD vs ground truth: crash injected @ {:.3} ms, node_absent fired @ {:.3} ms -> {:.3} ms ({:.1} windows)",
        crash_at.as_nanos() as f64 / 1e6,
        (crash_at.as_nanos() + mttd) as f64 / 1e6,
        mttd as f64 / 1e6,
        mttd as f64 / cfg.telemetry_window.as_nanos() as f64,
    );

    // ---- 2. Crash + link flap ---------------------------------------
    println!("\n== run 2: node crash + survivor link flap ==");
    let mut cfg2 = base_cfg();
    let down_ns = 4 * cfg2.telemetry_window.as_nanos();
    cfg2.link_chaos = LinkChaos::Flap {
        host: 1,
        down_ns,
        retry_ns: 100_000,
    };
    let r2 = run_failover(&cfg2);
    r2.assert_safety();
    let rep2 = r2.telemetry.as_ref().expect("telemetry window is on");
    print!("{}", rep2.ascii_timeline());
    println!("alert log:");
    print!("{}", rep2.alert_log());
    let link_mttd = r2
        .registry
        .get("telemetry_mttd_link_ns")
        .expect("link flap detected")
        .as_u64();
    println!(
        "link flap: host 1 down {:.3} ms, detected in {:.3} ms, alert cleared after heal: {}",
        down_ns as f64 / 1e6,
        link_mttd as f64 / 1e6,
        rep2.alerts.iter().any(|a| a.node == 1 && !a.firing),
    );

    // ---- 3. Fault-free control --------------------------------------
    println!("\n== run 3: fault-free control (false-positive check) ==");
    let mut cfg3 = base_cfg();
    cfg3.fault_free = true;
    let r3 = run_failover(&cfg3);
    r3.assert_safety();
    let rep3 = r3.telemetry.as_ref().expect("telemetry window is on");
    assert!(r3.takeover.is_none(), "no fault, no takeover");
    assert_eq!(
        rep3.alert_fires(),
        0,
        "fault-free run must produce zero alerts"
    );
    print!("{}", rep3.ascii_timeline());
    println!(
        "false positives: {} fires over {} windows x {} nodes — PASS",
        rep3.alert_fires(),
        rep3.windows,
        rep3.nodes,
    );

    println!("\nJSON ops report (run 1, first 3 lines):");
    for line in rep.to_json().lines().take(3) {
        println!("  {line}");
    }
}
