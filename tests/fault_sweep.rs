//! The crash oracle: every crash → recover → verify test of the pool
//! designs, written once.
//!
//! - **The sweep** (ALICE-style): run a scripted, seeded workload against
//!   each design, crash the host at each selected injection-site hit —
//!   plain crashes, torn WAL flushes, partial `clflush`es — recover with
//!   the design's scheme, and verify against a model that tracks exactly
//!   what was committed.
//! - **The storm**: five crashes at statement boundaries over one long
//!   script, the database serving on after each recovery.
//! - **The untrusted page**: PolarRecv rebuilds a page left write-latched
//!   at the crash, and one whose redo never became durable.
//! - **The recovery crash**: the host dies again inside recovery, and
//!   the next recovery must still restore the committed state.
//!
//! A crash unwinds out of the operation in flight
//! ([`faults::catch`]); the harness then crashes the pool and recovers
//! from the end of the last *completed* operation. A panic that is not
//! the crash fails the test. A recovered database must match the
//! committed model, with the single in-flight operation allowed to be
//! either fully present or fully absent (commit durability is decided
//! by the WAL tail). Anything else — a torn record, a half-applied
//! page, a wrong row count, a panic in recovery or in the tree — fails.
//!
//! The deliberately broken [`TrustPolicy::TrustLatched`] recovery must
//! FAIL the sweep (see `broken_trust_policy_fails_the_sweep`): it trusts
//! write-latched CXL pages, so a partial clflush leaves torn bytes that
//! Durable would have rebuilt.
//!
//! The budget is fixed: [`GLOBAL_POINTS`] global points plus
//! [`SITE_POINTS`] per site, [`TORN_POINTS`] torn WAL flushes and
//! [`PARTIAL_POINTS`] partial clflushes per design, and every design's
//! sweep must reach at least [`MIN_CRASH_HITS`] distinct crash hits. The
//! recovery crash draws [`FIRST_CRASHES`] first crashes and at most
//! [`RECOVERY_POINTS`] crashes inside each one's recovery.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::faults::FaultStats;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const REC: u16 = 120;
const KEYS: u64 = 140;
/// The sweep's script: its length and seed.
const OPS: usize = 120;
const OPS_SEED: u64 = 0xFA01;
/// The storm's script length, crashed this many times.
const STORM_OPS: usize = 600;
const STORM_CRASHES: usize = 5;

/// Crash points strided over the global hit index.
const GLOBAL_POINTS: u64 = 400;
/// Crash points strided over each reachable site (coverage guarantee).
const SITE_POINTS: u64 = 4;
/// Torn-WAL-flush points (`wal_flush` hits).
const TORN_POINTS: u64 = 8;
/// Partial-clflush points (`clflush` hits).
const PARTIAL_POINTS: u64 = 8;
/// Partial-clflush points the broken trust policy is probed at.
const BROKEN_POLICY_POINTS: u64 = 24;
/// Distinct crash hits each design's sweep must cover.
const MIN_CRASH_HITS: usize = 40;
/// First crashes (strided global hits) whose recovery is crashed too.
const FIRST_CRASHES: u64 = 12;
/// Crash points strided over one recovery's own gate polls.
const RECOVERY_POINTS: u64 = 64;

// ---------------------------------------------------------------------------
// The scripted workload and its model.
// ---------------------------------------------------------------------------

type Model = BTreeMap<u64, Vec<u8>>;

#[derive(Debug, Clone)]
enum Op {
    Update(u64, [u8; 72]),
    Insert(u64, Vec<u8>),
    Delete(u64),
    Select(u64),
    Checkpoint,
}

/// A deterministic op script of `len` statements; the checkpoint half-way
/// varies the replay floor.
fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut next_key = KEYS + 1;
    let mut ops = Vec::with_capacity(len + 1);
    for i in 0..len {
        if i == len / 2 {
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

fn rows() -> impl Iterator<Item = (u64, Vec<u8>)> {
    (1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize]))
}

/// Run `op` on the database: whether it found its key (an insert:
/// whether it added one) and its completion time.
fn apply_db<P: BufferPool>(db: &mut Db<P>, op: &Op, now: SimTime) -> (bool, SimTime) {
    match op {
        Op::Update(k, v) => db.update(*k, 16, v, now),
        Op::Insert(k, rec) => db.insert(*k, rec, now),
        Op::Delete(k) => db.delete(*k, now),
        Op::Select(k) => db.point_select(*k, now),
        Op::Checkpoint => (true, db.checkpoint(now)),
    }
}

/// Apply `op` to the model; returns what [`apply_db`] must return.
fn apply_model(model: &mut Model, op: &Op) -> bool {
    match op {
        Op::Update(k, v) => model
            .get_mut(k)
            .map(|rec| rec[16..16 + 72].copy_from_slice(v))
            .is_some(),
        Op::Insert(k, rec) => model.insert(*k, rec.clone()).is_none(),
        Op::Delete(k) => model.remove(k).is_some(),
        Op::Select(k) => model.contains_key(k),
        Op::Checkpoint => true,
    }
}

/// Run `ops` in order from `*now`. Each op must return what the model
/// predicts; it then joins the model, `*now` moves to its completion and
/// `*done` counts it. A crash unwinds out of the op in flight,
/// `ops[*done]`, and leaves all three at the last completed op.
fn run_ops<P: BufferPool>(
    db: &mut Db<P>,
    ops: &[Op],
    model: &mut Model,
    now: &mut SimTime,
    done: &mut usize,
) {
    for op in ops {
        let (got, t) = apply_db(db, op, *now);
        assert_eq!(
            got,
            apply_model(model, op),
            "{op:?} disagrees with the model"
        );
        *now = t;
        *done += 1;
    }
}

// ---------------------------------------------------------------------------
// Verification: recovered state must be the model, modulo the in-flight op.
// ---------------------------------------------------------------------------

fn matches_model<P: BufferPool>(db: &mut Db<P>, model: &Model) -> Result<(), String> {
    for (k, want) in model {
        let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
        if got.as_ref() != Some(want) {
            return Err(format!(
                "key {k}: got {:?}…, want {:?}…",
                got.as_deref().map(|v| &v[..8.min(v.len())]),
                &want[..8]
            ));
        }
    }
    // Every model key is present, so an equal count leaves no extra one.
    let rows = db.table.check_invariants(&mut db.pool);
    if rows != model.len() as u64 {
        return Err(format!("row count {rows}, want {}", model.len()));
    }
    Ok(())
}

/// The recovered database must equal the committed model with the
/// in-flight op either fully absent or fully applied, and no page may
/// read as the host's wiped volatile memory (0xDE fill): every page
/// comes back from memory that survived the crash, or from storage.
fn verify<P: BufferPool>(
    db: &mut Db<P>,
    model: &Model,
    in_flight: Option<&Op>,
) -> Result<(), String> {
    for p in 0..db.pool.store().allocated_pages() {
        let mut header = [0u8; 16];
        db.pool.read(PageId(p), 0, &mut header, SimTime::ZERO);
        if header == [0xDE; 16] {
            return Err(format!("page {p} reads as wiped"));
        }
    }
    let old = matches_model(db, model);
    match in_flight {
        Some(op) if old.is_err() => {
            let mut new = model.clone();
            apply_model(&mut new, op);
            matches_model(db, &new)
                .map_err(|e| format!("neither old ({}) nor new ({e}) state", old.unwrap_err()))
        }
        _ => old,
    }
}

// ---------------------------------------------------------------------------
// The designs under test.
// ---------------------------------------------------------------------------

/// One pool design: how to build it, how it recovers, and the sites its
/// sweep must crash at.
struct Design<P: BufferPool> {
    name: &'static str,
    build: fn() -> Db<P>,
    /// Recover a crashed database; returns the completion time.
    recover: fn(&mut Db<P>, SimTime) -> SimTime,
    sites: &'static [&'static str],
    /// Runs at a statement boundary just before each storm crash.
    before_crash: fn(&mut Db<P>, SimTime) -> SimTime,
}

fn loaded<P: BufferPool>(pool: P) -> Db<P> {
    let mut db = Db::create(pool, REC);
    db.load(rows());
    db
}

fn store() -> PageStore {
    PageStore::with_page_size(512, 2048)
}

const RDMA_FRAMES: usize = 8;

const VANILLA: Design<DramBp> = Design {
    name: "vanilla",
    // 16 frames force dirty evictions, so StorageWrite sites fire mid-run.
    build: || loaded(DramBp::new(16, 1 << 20, store())),
    recover: |db, t| recover_replay(db, "vanilla", t).done,
    sites: &["wal_flush", "storage_write"],
    before_crash: |_, t| t,
};

const RDMA: Design<TieredRdmaBp> = Design {
    name: "rdma-based",
    build: || {
        let rdma = Rc::new(RefCell::new(RdmaPool::new(512 * 2048, 1)));
        loaded(TieredRdmaBp::new(rdma, 0, 0, RDMA_FRAMES, 1 << 20, store()))
    },
    recover: |db, t| recover_replay(db, "rdma-based", t).done,
    sites: &["wal_flush", "rdma_read", "rdma_write"],
    // Land the crash while most LBP frames read at least one line in
    // place from remote memory: frames the writes filled from storage
    // hold only their own lines, so sweep clean leaves in with point
    // selects first.
    before_crash: |db, mut t| {
        for k in (1..=KEYS + STORM_OPS as u64).step_by(2) {
            t = db.point_select(k, t).1;
        }
        let aliased = db.pool.aliased_frames();
        assert!(
            aliased * 2 > RDMA_FRAMES,
            "only {aliased} of {RDMA_FRAMES} frames aliased at the crash"
        );
        t
    },
};

const POLARRECV: Design<CxlBp> = Design {
    name: "polarrecv",
    // capture=true: stores sit in the CPU cache until clflush, so
    // partial-clflush points genuinely tear pages.
    build: || {
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            4 << 20,
            1,
            1 << 20,
            true,
        )));
        loaded(CxlBp::format(cxl, NodeId(0), 0, 512, store()))
    },
    recover: |db, t| recover_polar(db, TrustPolicy::Durable, t).done,
    sites: &[
        "wal_flush",
        "clflush",
        "cxl_read",
        "cxl_nt_store",
        "storage_write",
    ],
    before_crash: |_, t| t,
};

// ---------------------------------------------------------------------------
// The crash point, and the sweep over them.
// ---------------------------------------------------------------------------

/// A design's database as a crash left it: pool crashed, not yet
/// recovered.
struct AtCrash<'a, P: BufferPool> {
    db: Db<P>,
    /// The committed model: every op that completed before the crash.
    model: Model,
    /// The end of the last completed op, where recovery starts.
    now: SimTime,
    in_flight: Option<&'a Op>,
}

/// Build the design and run `ops` under `plan`: the plan's counters, and
/// the crashed database when the plan fired within the script.
fn run_to_crash<'a, P: BufferPool>(
    d: &Design<P>,
    ops: &'a [Op],
    plan: FaultPlan,
) -> (FaultStats, Option<AtCrash<'a, P>>) {
    let mut db = (d.build)();
    let mut model: Model = rows().collect();
    let (mut now, mut done) = (SimTime::ZERO, 0);
    faults::install(plan);
    let run = faults::catch(|| run_ops(&mut db, ops, &mut model, &mut now, &mut done));
    let st = faults::stats();
    faults::clear();
    if run.is_ok() {
        return (st, None);
    }
    db.crash();
    let in_flight = ops.get(done);
    (
        st,
        Some(AtCrash {
            db,
            model,
            now,
            in_flight,
        }),
    )
}

/// Recover a crashed database with the design's scheme and verify it
/// against the committed model; a panic in either is a failed verdict.
fn recover_and_verify<P: BufferPool>(d: &Design<P>, c: &mut AtCrash<P>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        (d.recover)(&mut c.db, c.now);
        verify(&mut c.db, &c.model, c.in_flight)
    }))
    .unwrap_or_else(|_| Err("recovery or verification panicked".into()))
}

/// Build the design, run `ops` under `plan`, and if the plan killed the
/// host, recover and verify. The verdict is `None` when the trigger
/// landed past the script's horizon.
fn crash_point<P: BufferPool>(
    d: &Design<P>,
    ops: &[Op],
    plan: FaultPlan,
) -> (FaultStats, Option<Result<(), String>>) {
    let (st, crashed) = run_to_crash(d, ops, plan);
    (st, crashed.map(|mut c| recover_and_verify(d, &mut c)))
}

/// Crash the script under `first`, then run the recovery under `second`:
/// the recovery's counters, and — when `second` killed the host inside
/// it — the verdict of a second recovery with no plan. `None` when
/// either plan landed past its horizon.
fn recovery_crash_point<P: BufferPool>(
    d: &Design<P>,
    ops: &[Op],
    first: FaultPlan,
    second: FaultPlan,
) -> (FaultStats, Option<Result<(), String>>) {
    let (_, Some(mut c)) = run_to_crash(d, ops, first) else {
        return (FaultStats::default(), None);
    };
    faults::install(second);
    let recovery = faults::catch(|| (d.recover)(&mut c.db, c.now));
    let st = faults::stats();
    faults::clear();
    if recovery.is_ok() {
        return (st, None);
    }
    c.db.crash();
    (st, Some(recover_and_verify(d, &mut c)))
}

/// The hits per site of the sweep's script under an empty plan.
fn dry_run<P: BufferPool>(d: &Design<P>, ops: &[Op]) -> FaultStats {
    let (dry, verdict) = crash_point(d, ops, FaultPlan::default());
    assert!(
        verdict.is_none(),
        "{}: an empty plan must not crash",
        d.name
    );
    assert!(
        dry.total_hits() > 0,
        "{}: the script must reach injection sites",
        d.name
    );
    dry
}

/// `points` hit indices spread evenly over `0..hits` (every one when
/// there are fewer), each with its ordinal.
fn strided(points: u64, hits: u64) -> impl Iterator<Item = (u64, u64)> {
    let p = points.min(hits);
    (0..p).map(move |j| (j, j * hits / p))
}

fn partial_clflushes(points: u64, hits: u64) -> impl Iterator<Item = FaultPlan> {
    strided(points, hits).map(|(j, nth)| FaultPlan::PartialClflush {
        nth,
        keep_lines: 1 + (j % 2),
    })
}

fn sweep_plans(dry: &FaultStats) -> Vec<FaultPlan> {
    let hits = |site: FaultSite| dry.hits[site as usize];
    let mut plans: Vec<FaultPlan> = strided(GLOBAL_POINTS, dry.total_hits())
        .map(|(_, i)| FaultPlan::crash_at_hit(i))
        .collect();
    for site in FaultSite::ALL {
        plans.extend(
            strided(SITE_POINTS, hits(site))
                .map(|(_, h)| FaultPlan::Crash(Trigger::SiteHit(site, h))),
        );
    }
    // Vary the tear byte-depth so both "nothing fit" and "some whole
    // groups fit" shapes occur.
    plans.extend(
        strided(TORN_POINTS, hits(FaultSite::WalFlush)).map(|(j, nth)| FaultPlan::TornWalFlush {
            nth,
            keep_bytes: 24 + 61 * j,
        }),
    );
    plans.extend(partial_clflushes(PARTIAL_POINTS, hits(FaultSite::Clflush)));
    plans
}

/// Crash the design at every point of the budget: each recovery must
/// restore the committed state, the points must cover at least
/// [`MIN_CRASH_HITS`] distinct hits, and the crashes must land on every
/// site the design lists.
fn sweep<P: BufferPool>(d: &Design<P>) {
    let ops = script(OPS_SEED, OPS);
    let mut crash_hits = BTreeSet::new();
    let mut crash_sites = BTreeSet::new();
    let mut failures = Vec::new();
    let mut points = 0usize;
    for plan in sweep_plans(&dry_run(d, &ops)) {
        let (st, Some(verdict)) = crash_point(d, &ops, plan) else {
            continue;
        };
        let hit = st.crash_hit.expect("a verdict follows a crash");
        let site = st.crash_site.expect("crash has a site").name();
        points += 1;
        crash_hits.insert(hit);
        crash_sites.insert(site);
        if let Err(e) = verdict {
            failures.push(format!("crash at hit {hit} ({site}): {e}"));
        }
    }
    println!(
        "{}: {points} crash points, {} distinct crash hits",
        d.name,
        crash_hits.len()
    );
    assert!(
        failures.is_empty(),
        "{}: {} of {points} crash points failed recovery:\n{}",
        d.name,
        failures.len(),
        failures.join("\n")
    );
    assert!(
        crash_hits.len() >= MIN_CRASH_HITS,
        "{}: the sweep must cover >= {MIN_CRASH_HITS} distinct crash points, got {}",
        d.name,
        crash_hits.len()
    );
    for s in d.sites {
        assert!(
            crash_sites.contains(s),
            "{}: the sweep never crashed at {s} (covered: {crash_sites:?})",
            d.name
        );
    }
}

#[test]
fn sweep_vanilla_dram_replay() {
    sweep(&VANILLA);
}

#[test]
fn sweep_rdma_based_replay() {
    sweep(&RDMA);
}

#[test]
fn sweep_polarrecv() {
    sweep(&POLARRECV);
}

#[test]
fn sweep_polarrecv_nometa() {
    sweep(&Design {
        name: "polarrecv-nometa",
        recover: |db, t| recover_polar(db, TrustPolicy::Nothing, t).done,
        sites: &["wal_flush", "clflush", "cxl_read", "cxl_nt_store"],
        ..POLARRECV
    });
}

/// Every site a design's script polls honours the crash a plan schedules
/// there: a plain crash at the site's first poll — and, at `wal_flush`
/// and `clflush`, a torn or partial one — lands on that site, and the
/// design's recovery restores the committed state.
#[test]
fn every_polled_site_honours_a_crash() {
    fn check<P: BufferPool>(d: &Design<P>) {
        let ops = script(OPS_SEED, OPS);
        let dry = dry_run(d, &ops);
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
            let (st, verdict) = crash_point(d, &ops, plan);
            let verdict = verdict
                .unwrap_or_else(|| panic!("{} {plan:?}: the scheduled crash never fired", d.name));
            assert_eq!(
                st.crash_site,
                Some(site),
                "{} {plan:?}: the crash lands on {name}",
                d.name
            );
            if let Err(e) = verdict {
                panic!("{} {plan:?}: recovery diverged from the model: {e}", d.name);
            }
        }
    }
    check(&VANILLA);
    check(&RDMA);
    check(&POLARRECV);
}

/// Teeth: the deliberately broken trust policy must corrupt at least
/// one partial-clflush point. This proves the sweep can actually catch
/// a recovery bug — a sweep that passes everything proves nothing.
#[test]
fn broken_trust_policy_fails_the_sweep() {
    let latched = Design {
        name: "polarrecv-trust-latched",
        recover: |db, t| recover_polar(db, TrustPolicy::TrustLatched, t).done,
        ..POLARRECV
    };
    let ops = script(OPS_SEED, OPS);
    let hc = dry_run(&latched, &ops).hits[FaultSite::Clflush as usize];
    assert!(hc > 0, "the CXL design must reach clflush sites");
    // Expected-failure points panic inside the torn tree; keep the test
    // log quiet while probing them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let verdicts: Vec<_> = partial_clflushes(BROKEN_POLICY_POINTS, hc)
        .filter_map(|plan| crash_point(&latched, &ops, plan).1)
        .collect();
    std::panic::set_hook(hook);
    let broken = verdicts.iter().filter(|v| v.is_err()).count();
    println!(
        "{}: {broken} of {} partial-clflush points fail",
        latched.name,
        verdicts.len()
    );
    assert!(!verdicts.is_empty(), "no partial-clflush point fired");
    assert!(
        broken > 0,
        "TrustLatched recovered all {} partial-clflush points consistently — \
         the sweep has no teeth",
        verdicts.len()
    );
}

/// Recovery survives its own crash (ROADMAP item 18): crash each
/// design's script at [`FIRST_CRASHES`] strided global hits, crash each
/// recovery at up to [`RECOVERY_POINTS`] strided polls of its own (a dry
/// run under [`FaultPlan::NoCrash`] counts them), recover again with no
/// plan, and verify. Vanilla recovery polls a gate only when replay
/// evicts a dirty page, so only rdma-based and polarrecv must reach a
/// point.
#[test]
fn recovery_survives_its_own_crash() {
    fn check<P: BufferPool>(d: &Design<P>) -> usize {
        let ops = script(OPS_SEED, OPS);
        let mut points = 0;
        let mut failures = Vec::new();
        for (_, hit) in strided(FIRST_CRASHES, dry_run(d, &ops).total_hits()) {
            let first = FaultPlan::crash_at_hit(hit);
            let (polls, none) = recovery_crash_point(d, &ops, first, FaultPlan::NoCrash);
            assert!(
                none.is_none(),
                "{}: an empty plan must not crash recovery",
                d.name
            );
            for (_, i) in strided(RECOVERY_POINTS, polls.total_hits()) {
                let second = FaultPlan::crash_at_hit(i);
                let (st, Some(verdict)) = recovery_crash_point(d, &ops, first, second) else {
                    continue;
                };
                points += 1;
                if let Err(e) = verdict {
                    let site = st.crash_site.expect("crash has a site").name();
                    failures.push(format!(
                        "crash at hit {hit}, then at recovery poll {i} ({site}): {e}"
                    ));
                }
            }
        }
        println!("{}: {points} recovery crash points", d.name);
        assert!(
            failures.is_empty(),
            "{}: {} of {points} recovery crash points failed:\n{}",
            d.name,
            failures.len(),
            failures.join("\n")
        );
        points
    }
    check(&VANILLA);
    for points in [check(&RDMA), check(&POLARRECV)] {
        assert!(points > 0, "a recovery crash point must fire");
    }
}

// ---------------------------------------------------------------------------
// The storm: repeated crashes between statements, serving on in between.
// ---------------------------------------------------------------------------

/// Crash the design [`STORM_CRASHES`] times at statement boundaries of
/// one long script, recovering each time and serving on: every recovery
/// must restore exactly the committed state.
fn storm<P: BufferPool>(d: &Design<P>, seed: u64) {
    let ops = script(seed, STORM_OPS);
    let mut db = (d.build)();
    let mut model: Model = rows().collect();
    let mut now = SimTime::ZERO;
    for (round, ops) in ops.chunks(ops.len().div_ceil(STORM_CRASHES)).enumerate() {
        run_ops(&mut db, ops, &mut model, &mut now, &mut 0);
        now = (d.before_crash)(&mut db, now);
        db.crash();
        now = (d.recover)(&mut db, now);
        if let Err(e) = verify(&mut db, &model, None) {
            panic!("{} storm, round {round}: {e}", d.name);
        }
    }
}

#[test]
fn storm_vanilla_dram_replay() {
    storm(&VANILLA, 88);
}

#[test]
fn storm_rdma_based_replay() {
    storm(&RDMA, 77);
}

#[test]
fn storm_polarrecv() {
    storm(&POLARRECV, 99);
}

/// PolarRecv rebuilds a page it cannot trust from storage and durable
/// redo, whatever its CXL bytes hold: one left write-latched at the
/// crash, and one whose last update's redo never became durable (§3.2
/// challenge 4, the "too new" page).
#[test]
fn untrusted_page_is_rebuilt_from_durable_redo() {
    for latched in [true, false] {
        let mut db = (POLARRECV.build)();
        let t = db.update(7, 0, &[0x31; 8], SimTime::ZERO).1;
        let t = if latched {
            // Die inside a write-latch window on key 7's leaf: the page
            // the committed update stamped.
            let lsn = Some(db.wal.max_assigned_lsn());
            let leaf = (0..db.pool.store().allocated_pages())
                .map(PageId)
                .find(|&p| db.pool.page_lsn(p) == lsn)
                .expect("the update stamped key 7's leaf");
            db.pool.set_latch(leaf, true, t)
        } else {
            // The mtr commits (latch cleared), but its redo is never
            // flushed: the page is too new for the durable log.
            db.update_no_commit(7, 0, &[0x32; 8], t).1
        };
        db.crash();
        let report = recover_polar(&mut db, TrustPolicy::Durable, t);
        assert!(
            report.pages_rebuilt >= 1,
            "latched {latched}: the untrusted page must be rebuilt"
        );
        let (got, _) = db.table.get(&mut db.pool, 7, SimTime::ZERO);
        assert_eq!(
            &got.unwrap()[0..8],
            &[0x31; 8],
            "latched {latched}: only durable state survives"
        );
    }
}
