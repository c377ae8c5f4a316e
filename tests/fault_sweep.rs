//! Exhaustive crash-point sweep (ALICE-style): run a scripted, seeded
//! workload against every pool design, crash the host at each selected
//! injection-site hit — plain crashes, torn WAL flushes, partial
//! `clflush`es — recover with the design's scheme, and verify the
//! database against a model that tracks exactly what was committed.
//!
//! A recovered database must match the committed model, with the single
//! in-flight operation allowed to be either fully present or fully
//! absent (commit durability is decided by the WAL tail). Anything else
//! — a torn record, a half-applied page, a wrong row count — fails the
//! sweep.
//!
//! The deliberately broken [`TrustPolicy::TrustLatched`] recovery must
//! FAIL this sweep (see `broken_trust_policy_fails_the_sweep`): it
//! trusts write-latched CXL pages, so a partial clflush leaves torn
//! bytes that Durable would have rebuilt.
//!
//! Knobs: `FAULT_SWEEP_SMOKE=1` (CI; few points), `FAULT_SWEEP_FULL=1`
//! (dense), `FAULT_SWEEP_POINTS=n` (explicit global point count).

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::faults::FaultStats;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const REC: u16 = 120;
const KEYS: u64 = 140;
const OPS: usize = 120;
const MAX_KEY: u64 = KEYS + OPS as u64;
const OPS_SEED: u64 = 0xFA01;

// ---------------------------------------------------------------------------
// The scripted workload and its model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Update(u64, [u8; 72]),
    Insert(u64, Vec<u8>),
    Delete(u64),
    Select(u64),
    Checkpoint,
}

/// One deterministic op script shared by every design and every sweep
/// point (the checkpoint mid-run varies the replay floor).
fn gen_ops() -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(OPS_SEED);
    let mut next_key = KEYS + 1;
    let mut ops = Vec::with_capacity(OPS + 1);
    for i in 0..OPS {
        if i == OPS / 2 {
            ops.push(Op::Checkpoint);
        }
        ops.push(match rng.gen_range(0..10u32) {
            0..=3 => Op::Update(rng.gen_range(1..next_key), [rng.gen::<u8>(); 72]),
            4..=5 => {
                let rec = vec![rng.gen::<u8>(); REC as usize];
                next_key += 1;
                Op::Insert(next_key - 1, rec)
            }
            6 => Op::Delete(rng.gen_range(1..next_key)),
            _ => Op::Select(rng.gen_range(1..next_key)),
        });
    }
    ops
}

fn initial_model() -> BTreeMap<u64, Vec<u8>> {
    (1..=KEYS)
        .map(|k| (k, vec![(k % 250) as u8; REC as usize]))
        .collect()
}

fn apply_db<P: BufferPool>(db: &mut Db<P>, op: &Op, now: SimTime) -> SimTime {
    match op {
        Op::Update(k, v) => db.update(*k, 16, v, now).1,
        Op::Insert(k, rec) => db.insert(*k, rec, now).1,
        Op::Delete(k) => db.delete(*k, now).1,
        Op::Select(k) => db.point_select(*k, now).1,
        Op::Checkpoint => db.checkpoint(now),
    }
}

fn apply_model(model: &mut BTreeMap<u64, Vec<u8>>, op: &Op) {
    match op {
        Op::Update(k, v) => {
            if let Some(rec) = model.get_mut(k) {
                rec[16..16 + 72].copy_from_slice(v);
            }
        }
        Op::Insert(k, rec) => {
            model.insert(*k, rec.clone());
        }
        Op::Delete(k) => {
            model.remove(k);
        }
        Op::Select(_) | Op::Checkpoint => {}
    }
}

/// Run the script until it finishes or the installed plan kills the
/// host. The model tracks completed ops only; the index of the op that
/// was in flight at the crash (if any) is returned.
fn run_ops<P: BufferPool>(
    db: &mut Db<P>,
    ops: &[Op],
    model: &mut BTreeMap<u64, Vec<u8>>,
) -> (SimTime, Option<usize>) {
    let mut now = SimTime::ZERO;
    for (i, op) in ops.iter().enumerate() {
        now = apply_db(db, op, now);
        if faults::crashed() {
            return (now, Some(i));
        }
        apply_model(model, op);
    }
    (now, None)
}

// ---------------------------------------------------------------------------
// Verification: recovered state must be the model, modulo the in-flight op.
// ---------------------------------------------------------------------------

fn matches_model<P: BufferPool>(
    db: &mut Db<P>,
    model: &BTreeMap<u64, Vec<u8>>,
) -> Result<(), String> {
    for k in 1..=MAX_KEY {
        let (got, _) = db.table.get(&mut db.pool, k, SimTime::ZERO);
        if got.as_deref() != model.get(&k).map(|v| v.as_slice()) {
            return Err(format!(
                "key {k}: got {:?}…, want {:?}…",
                got.as_deref().map(|v| &v[..8.min(v.len())]),
                model.get(&k).map(|v| &v[..8])
            ));
        }
    }
    let rows = db.table.check_invariants(&mut db.pool);
    if rows != model.len() as u64 {
        return Err(format!("row count {rows}, want {}", model.len()));
    }
    Ok(())
}

/// The recovered database must equal the committed model with the
/// in-flight op either fully absent or fully applied. Panics inside the
/// tree (torn pages) count as failures, not aborts.
fn verify<P: BufferPool>(
    db: &mut Db<P>,
    model: &BTreeMap<u64, Vec<u8>>,
    in_flight: Option<&Op>,
) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let old = matches_model(db, model);
        if old.is_ok() {
            return Ok(());
        }
        if let Some(op) = in_flight {
            let mut after = model.clone();
            apply_model(&mut after, op);
            return matches_model(db, &after)
                .map_err(|e| format!("neither old ({}) nor new ({e}) state", old.unwrap_err()));
        }
        old
    }))
    .unwrap_or_else(|_| Err("verification panicked (corrupt tree)".into()))
}

// ---------------------------------------------------------------------------
// World builders, one per pool design.
// ---------------------------------------------------------------------------

fn load<P: BufferPool>(mut db: Db<P>) -> Db<P> {
    db.load((1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize])));
    db
}

fn build_vanilla() -> Db<DramBp> {
    let store = PageStore::with_page_size(512, 2048);
    // 16 frames force dirty evictions, so StorageWrite sites fire mid-run.
    load(Db::create(DramBp::new(16, 1 << 20, store), REC))
}

fn build_rdma() -> Db<TieredRdmaBp> {
    let store = PageStore::with_page_size(512, 2048);
    let rdma = Rc::new(RefCell::new(RdmaPool::new(512 * 2048, 1)));
    load(Db::create(
        TieredRdmaBp::new(rdma, 0, 0, 8, 1 << 20, store),
        REC,
    ))
}

fn build_cxl() -> Db<CxlBp> {
    let store = PageStore::with_page_size(512, 2048);
    // capture=true: stores sit in the CPU cache until clflush, so
    // partial-clflush points genuinely tear pages.
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        4 << 20,
        1,
        1 << 20,
        true,
    )));
    load(Db::create(
        CxlBp::format(cxl, NodeId(0), 0, 512, store),
        REC,
    ))
}

// ---------------------------------------------------------------------------
// The sweep driver.
// ---------------------------------------------------------------------------

struct SweepBudget {
    /// Crash points strided over the global hit index.
    global: usize,
    /// Crash points strided per reachable site (coverage guarantee).
    per_site: usize,
    /// Torn-WAL-flush points (WalFlush hits).
    torn: usize,
    /// Partial-clflush points (Clflush hits).
    partial: usize,
    /// Enforce the ≥40-distinct-crash-points floor.
    strict: bool,
}

fn budget() -> SweepBudget {
    let smoke = std::env::var_os("FAULT_SWEEP_SMOKE").is_some();
    let full = std::env::var_os("FAULT_SWEEP_FULL").is_some();
    let global = std::env::var("FAULT_SWEEP_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke {
            10
        } else if full {
            400
        } else {
            48
        });
    SweepBudget {
        global,
        per_site: if smoke { 2 } else { 4 },
        torn: if smoke { 3 } else { 8 },
        partial: if smoke { 3 } else { 8 },
        strict: !smoke && global >= 40,
    }
}

struct SweepOutcome {
    crash_hits: BTreeSet<u64>,
    crash_sites: BTreeSet<&'static str>,
    failures: Vec<String>,
    points_run: usize,
}

fn dry_run<P: BufferPool, B: Fn() -> Db<P>>(build: &B, ops: &[Op]) -> FaultStats {
    let mut db = build();
    let mut model = initial_model();
    faults::install(FaultPlan::default());
    let (_, crashed) = run_ops(&mut db, ops, &mut model);
    let dry = faults::stats();
    faults::clear();
    assert!(crashed.is_none(), "an empty plan must not crash");
    assert!(dry.total_hits() > 0, "workload must reach injection sites");
    dry
}

fn sweep_plans(dry: &FaultStats, b: &SweepBudget) -> Vec<FaultPlan> {
    let n = dry.total_hits();
    let mut plans = Vec::new();
    let global = (b.global as u64).min(n);
    for i in 0..global {
        plans.push(FaultPlan::crash_at_hit(i * n / global));
    }
    for site in FaultSite::ALL {
        let h = dry.hits[site as usize];
        let p = (b.per_site as u64).min(h);
        for j in 0..p {
            plans.push(FaultPlan::Crash(Trigger::SiteHit(site, j * h / p)));
        }
    }
    let hw = dry.hits[FaultSite::WalFlush as usize];
    for j in 0..(b.torn as u64).min(hw) {
        plans.push(FaultPlan::TornWalFlush {
            nth: j * hw / (b.torn as u64).min(hw),
            // Vary the tear byte-depth so both "nothing fit" and "some
            // whole groups fit" shapes occur.
            keep_bytes: 24 + 61 * j,
        });
    }
    let hc = dry.hits[FaultSite::Clflush as usize];
    for j in 0..(b.partial as u64).min(hc) {
        plans.push(FaultPlan::PartialClflush {
            nth: j * hc / (b.partial as u64).min(hc),
            keep_lines: 1 + (j % 2),
        });
    }
    plans
}

/// Run the script under `plan`; if the plan killed the host, crash the
/// pool, recover it with `recover` and verify it against the committed
/// model. `None`: the trigger landed past the workload's horizon.
fn crash_point<P, B, R>(
    build: &B,
    recover: &R,
    ops: &[Op],
    plan: FaultPlan,
) -> Option<(FaultStats, Result<(), String>)>
where
    P: BufferPool + Crashable,
    B: Fn() -> Db<P>,
    R: Fn(&mut Db<P>, SimTime),
{
    let mut db = build();
    let mut model = initial_model();
    faults::install(plan);
    let (now, in_flight) = run_ops(&mut db, ops, &mut model);
    let st = faults::stats();
    faults::clear();
    st.crash_hit?;
    db.crash();
    recover(&mut db, now);
    Some((st, verify(&mut db, &model, in_flight.map(|i| &ops[i]))))
}

fn sweep_design<P, B, R>(build: B, recover: R) -> SweepOutcome
where
    P: BufferPool + Crashable,
    B: Fn() -> Db<P>,
    R: Fn(&mut Db<P>, SimTime),
{
    let ops = gen_ops();
    let dry = dry_run(&build, &ops);
    let b = budget();
    let mut out = SweepOutcome {
        crash_hits: BTreeSet::new(),
        crash_sites: BTreeSet::new(),
        failures: Vec::new(),
        points_run: 0,
    };
    for plan in sweep_plans(&dry, &b) {
        let Some((st, verdict)) = crash_point(&build, &recover, &ops, plan) else {
            continue;
        };
        let hit = st.crash_hit.expect("crash_point returns crashed runs only");
        let site = st.crash_site.expect("crash has a site").name();
        out.points_run += 1;
        out.crash_hits.insert(hit);
        out.crash_sites.insert(site);
        if let Err(e) = verdict {
            out.failures
                .push(format!("crash at hit {hit} ({site}): {e}"));
        }
    }
    if b.strict {
        assert!(
            out.crash_hits.len() >= 40,
            "sweep must cover >=40 distinct crash points, got {}",
            out.crash_hits.len()
        );
    }
    out
}

fn assert_clean(out: &SweepOutcome, design: &str, expect_sites: &[&str]) {
    assert!(
        out.failures.is_empty(),
        "{design}: {} of {} crash points failed recovery:\n{}",
        out.failures.len(),
        out.points_run,
        out.failures.join("\n")
    );
    for s in expect_sites {
        assert!(
            out.crash_sites.contains(s),
            "{design}: sweep never crashed at {s} (covered: {:?})",
            out.crash_sites
        );
    }
}

// ---------------------------------------------------------------------------
// The sweeps, one per design.
// ---------------------------------------------------------------------------

#[test]
fn sweep_vanilla_dram_replay() {
    let out = sweep_design(build_vanilla, |db, t| {
        recover_replay(db, "vanilla", t);
    });
    assert_clean(&out, "vanilla", &["wal_flush", "storage_write"]);
}

#[test]
fn sweep_rdma_based_replay() {
    let out = sweep_design(build_rdma, |db, t| {
        recover_replay(db, "rdma-based", t);
    });
    assert_clean(
        &out,
        "rdma-based",
        &["wal_flush", "rdma_read", "rdma_write"],
    );
}

#[test]
fn sweep_polarrecv() {
    let out = sweep_design(build_cxl, |db, t| {
        recover_polar(db, t);
    });
    assert_clean(
        &out,
        "polarrecv",
        &[
            "wal_flush",
            "clflush",
            "cxl_read",
            "cxl_nt_store",
            "storage_write",
        ],
    );
}

#[test]
fn sweep_polarrecv_nometa() {
    let out = sweep_design(build_cxl, |db, t| {
        let report = polardb_cxl_repro::polarcxlmem::recovery::polar_recv_policy(
            &mut db.pool,
            &mut db.wal,
            t,
            TrustPolicy::Nothing,
        );
        let (table, _) = BTree::open(&mut db.pool, db.table.meta_page, report.done);
        db.table = table;
    });
    assert_clean(
        &out,
        "polarrecv-nometa",
        &["wal_flush", "clflush", "cxl_read", "cxl_nt_store"],
    );
}

/// Every site a design's script polls honours the crash a plan schedules
/// there: a plain crash at the site's first poll — and, at `wal_flush`
/// and `clflush`, a torn or partial one — lands on that site, and the
/// design's recovery restores the committed state.
#[test]
fn every_polled_site_honours_a_crash() {
    fn check<P, B, R>(design: &str, build: B, recover: R)
    where
        P: BufferPool + Crashable,
        B: Fn() -> Db<P>,
        R: Fn(&mut Db<P>, SimTime),
    {
        let ops = gen_ops();
        let dry = dry_run(&build, &ops);
        let shaped = [
            (
                FaultSite::WalFlush,
                FaultPlan::TornWalFlush {
                    nth: 0,
                    keep_bytes: 24,
                },
            ),
            (
                FaultSite::Clflush,
                FaultPlan::PartialClflush {
                    nth: 0,
                    keep_lines: 1,
                },
            ),
        ];
        let plans = FaultSite::ALL
            .map(|site| (site, FaultPlan::Crash(Trigger::SiteHit(site, 0))))
            .into_iter()
            .chain(shaped);
        for (site, plan) in plans {
            if dry.hits[site as usize] == 0 {
                continue;
            }
            let name = site.name();
            let (st, verdict) = crash_point(&build, &recover, &ops, plan)
                .unwrap_or_else(|| panic!("{design} {plan:?}: the scheduled crash never fired"));
            assert_eq!(
                st.crash_site,
                Some(site),
                "{design} {plan:?}: the crash lands on {name}"
            );
            if let Err(e) = verdict {
                panic!("{design} {plan:?}: recovery diverged from the model: {e}");
            }
        }
    }
    check("vanilla", build_vanilla, |db, t| {
        recover_replay(db, "vanilla", t);
    });
    check("rdma-based", build_rdma, |db, t| {
        recover_replay(db, "rdma-based", t);
    });
    check("polarrecv", build_cxl, |db, t| {
        recover_polar(db, t);
    });
}

/// Teeth: the deliberately broken trust policy must corrupt at least
/// one partial-clflush point. This proves the sweep can actually catch
/// a recovery bug — a sweep that passes everything proves nothing.
#[test]
fn broken_trust_policy_fails_the_sweep() {
    let ops = gen_ops();
    let dry = dry_run(&build_cxl, &ops);
    let hc = dry.hits[FaultSite::Clflush as usize];
    assert!(hc > 0, "the CXL design must reach clflush sites");
    let points = (if std::env::var_os("FAULT_SWEEP_SMOKE").is_some() {
        8u64
    } else {
        24
    })
    .min(hc);
    // Expected-failure points panic inside the torn tree; keep the test
    // log quiet while probing them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut broken = 0usize;
    let mut run = 0usize;
    for j in 0..points {
        let plan = FaultPlan::PartialClflush {
            nth: j * hc / points,
            keep_lines: 1 + (j % 2),
        };
        let mut db = build_cxl();
        let mut model = initial_model();
        faults::install(plan);
        let (now, in_flight) = run_ops(&mut db, &ops, &mut model);
        let st = faults::stats();
        faults::clear();
        if st.crash_hit.is_none() {
            continue;
        }
        run += 1;
        db.crash();
        let bad = catch_unwind(AssertUnwindSafe(|| {
            recover_polar_policy(&mut db, TrustPolicy::TrustLatched, now);
            verify(&mut db, &model, in_flight.map(|i| &ops[i])).is_err()
        }))
        .unwrap_or(true);
        if bad {
            broken += 1;
        }
    }
    std::panic::set_hook(hook);
    assert!(run > 0, "no partial-clflush point fired");
    assert!(
        broken > 0,
        "TrustLatched recovered all {run} partial-clflush points consistently — \
         the sweep has no teeth"
    );
}
