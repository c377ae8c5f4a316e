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
//! Plus one run of the single-host chaos harness: a mid-run crash with
//! full log-replay recovery, detected by the absence rule and cleared
//! once service resumes.
//!
//! Run with: `cargo run --release --example telemetry`
//! (`TELEMETRY_SMOKE=1` shrinks the run for CI.)

use simkit::SimTime;
use workloads::{
    run_chaos, run_failover, ChaosConfig, FailoverConfig, LinkChaos, Scheme, SysbenchKind,
};

fn base_cfg() -> FailoverConfig {
    let smoke = std::env::var_os("TELEMETRY_SMOKE").is_some();
    if smoke {
        FailoverConfig::smoke(3)
    } else {
        FailoverConfig::standard(3)
    }
}

fn chaos_cfg() -> ChaosConfig {
    // RdmaBased replays the full log on recovery, so the outage spans
    // several 500 us windows; an instant-recovery scheme would be
    // sub-window and (correctly) invisible to the absence rule.
    let mut cfg = ChaosConfig::standard(Scheme::RdmaBased, SysbenchKind::ReadWrite);
    cfg.table_size = 2_000;
    cfg.workers = 8;
    cfg.duration = SimTime::from_millis(120);
    cfg.fault_events = 12;
    cfg.horizon_hits = 20_000;
    cfg.crash_at_hit = Some(5_000);
    cfg.telemetry_window = SimTime(500_000);
    cfg
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

    // ---- 4. Chaos harness: crash under background faults ------------
    println!("\n== run 4: chaos crash (single host, full log replay) ==");
    let ccfg = chaos_cfg();
    let c = run_chaos(&ccfg);
    assert_eq!(c.crashes, 1);
    let crep = c.telemetry.as_ref().expect("telemetry window is on");
    print!("{}", crep.ascii_timeline());
    println!("alert log:");
    print!("{}", crep.alert_log());
    let chaos_mttd = c
        .registry
        .get("telemetry_mttd_crash_ns")
        .expect("chaos crash detected by absence rule")
        .as_u64();
    println!(
        "chaos crash detected in {:.3} ms ({:.1} windows), alert cleared after recovery: {}",
        chaos_mttd as f64 / 1e6,
        chaos_mttd as f64 / ccfg.telemetry_window.as_nanos() as f64,
        crep.alert_clears() > 0,
    );

    println!("\nJSON ops report (run 1, first 3 lines):");
    for line in rep.to_json().lines().take(3) {
        println!("  {line}");
    }
}
