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
    faults::install(FaultPlan::count_only());
    let (_, crashed) = run_ops(&mut db, ops, &mut model);
    let dry = faults::stats();
    faults::clear();
    assert!(crashed.is_none(), "count-only plan must not crash");
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
            plans.push(
                FaultPlan::count_only().with(Trigger::SiteHit(site, j * h / p), Action::Crash),
            );
        }
    }
    let hw = dry.hits[FaultSite::WalFlush as usize];
    for j in 0..(b.torn as u64).min(hw) {
        plans.push(FaultPlan::count_only().with(
            Trigger::SiteHit(FaultSite::WalFlush, j * hw / (b.torn as u64).min(hw)),
            // Vary the tear byte-depth so both "nothing fit" and "some
            // whole groups fit" shapes occur.
            Action::TornWalFlush {
                keep_bytes: 24 + 61 * j,
            },
        ));
    }
    let hc = dry.hits[FaultSite::Clflush as usize];
    for j in 0..(b.partial as u64).min(hc) {
        plans.push(FaultPlan::count_only().with(
            Trigger::SiteHit(FaultSite::Clflush, j * hc / (b.partial as u64).min(hc)),
            Action::PartialClflush {
                keep_lines: 1 + (j % 2),
            },
        ));
    }
    plans
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
        let mut db = build();
        let mut model = initial_model();
        faults::install(plan);
        let (now, in_flight) = run_ops(&mut db, &ops, &mut model);
        let st = faults::stats();
        faults::clear();
        let Some(hit) = st.crash_hit else {
            continue; // the trigger landed past the workload's horizon
        };
        let site = st.crash_site.expect("crash has a site").name();
        out.points_run += 1;
        out.crash_hits.insert(hit);
        out.crash_sites.insert(site);
        db.crash();
        recover(&mut db, now);
        if let Err(e) = verify(&mut db, &model, in_flight.map(|i| &ops[i])) {
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
        let report = polardb_cxl_repro::polarcxlmem::recovery::polar_recv_with(
            &mut db.pool,
            &mut db.wal,
            t,
            false,
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

// ---------------------------------------------------------------------------
// Multi-primary fusion cluster: node-granular crash sweep.
// ---------------------------------------------------------------------------

mod fusion_cluster {
    use super::*;
    use polardb_cxl_repro::memsim::CxlNodeConfig;
    use polardb_cxl_repro::polarcxlmem::{FencingPolicy, FusionServer, SharingNode};

    pub const CL_NODES: usize = 3;
    pub const PPG: u64 = 8; // pages per group (one private group per node + shared)
    pub const CL_PAGES: u64 = (CL_NODES as u64 + 1) * PPG;
    pub const CL_PAGE: u64 = 2048;
    pub const CL_OPS: usize = 160;

    pub fn ppage(node: usize, i: u64) -> PageId {
        PageId(node as u64 * PPG + i)
    }
    pub fn spage(i: u64) -> PageId {
        PageId(CL_NODES as u64 * PPG + i)
    }

    pub struct Cluster {
        pub cxl: Rc<RefCell<CxlPool>>,
        pub server: FusionServer,
        pub nodes: Vec<SharingNode>,
    }

    /// Build a 3-primary cluster (capture-mode caches, each node on its
    /// own host) and warm it: every node resolves its private group and
    /// the shared group, so active lists are known exactly.
    pub fn build() -> Cluster {
        let slots_bytes = CL_PAGES * CL_PAGE;
        let flags_bytes = CL_PAGES * 16;
        let epoch_base = slots_bytes + CL_NODES as u64 * flags_bytes;
        let pool = epoch_base + 4096;
        let cfgs: Vec<CxlNodeConfig> = (0..CL_NODES + 1)
            .map(|host| CxlNodeConfig {
                host,
                cache_bytes: 1 << 20,
                capture: true,
                remote_numa: false,
                direct_attach: false,
            })
            .collect();
        let cxl = Rc::new(RefCell::new(CxlPool::new(pool as usize, &cfgs)));
        let mut store = PageStore::with_page_size(CL_PAGES, CL_PAGE);
        for _ in 0..CL_PAGES {
            store.allocate();
        }
        let store = Rc::new(RefCell::new(store));
        let mut server =
            FusionServer::new(Rc::clone(&cxl), NodeId(CL_NODES), 0, CL_PAGES as u32, store);
        server.enable_fencing(FencingPolicy::Epoch, epoch_base);
        let mut nodes: Vec<SharingNode> = (0..CL_NODES)
            .map(|i| {
                let flag_base = slots_bytes + i as u64 * flags_bytes;
                server.register_node_fenced(NodeId(i), flag_base, SimTime::ZERO);
                SharingNode::new(NodeId(i), flag_base, CL_PAGE)
            })
            .collect();
        for (i, node) in nodes.iter_mut().enumerate() {
            for p in 0..PPG {
                node.access(&mut server, ppage(i, p), SimTime::ZERO);
                node.access(&mut server, spage(p), SimTime::ZERO);
            }
        }
        Cluster { cxl, server, nodes }
    }

    /// One scripted statement: `node` writes `val` to (page, off) or
    /// reads it back.
    #[derive(Debug, Clone, Copy)]
    pub struct ClOp {
        pub node: usize,
        pub page: PageId,
        pub off: u64,
        pub val: u8,
        pub write: bool,
    }

    pub fn gen_cluster_ops() -> Vec<ClOp> {
        let mut rng = SimRng::seed_from_u64(0xC105);
        (0..CL_OPS)
            .map(|_| {
                let node = rng.gen_range(0..CL_NODES as u32) as usize;
                let page = if rng.gen_range(0..100u32) < 30 {
                    spage(rng.gen_range(0..PPG))
                } else {
                    ppage(node, rng.gen_range(0..PPG))
                };
                ClOp {
                    node,
                    page,
                    off: 64 + rng.gen_range(0..8u64) * 64,
                    val: rng.gen_range(1..=250u32) as u8,
                    write: rng.gen_range(0..100u32) < 60,
                }
            })
            .collect()
    }
}

/// Node-granular crash sweep over the fusion cluster: at each swept
/// global hit, one primary dies (its CPU cache vanishes, its CXL lease
/// survives). The server fences + reclaims it; the script then verifies
/// every survivor-reachable row against the oracle, that the dead
/// node's X locks were cut, and that reclamation leaked no slots.
#[test]
fn sweep_fusion_cluster_node_crashes() {
    use fusion_cluster::*;
    use polardb_cxl_repro::simkit::{LockMode, LockTable};

    let ops = gen_cluster_ops();
    // Dry run for the hit horizon.
    let dry = {
        let mut cl = build();
        let mut t = SimTime::ZERO;
        faults::install(FaultPlan::count_only());
        for op in &ops {
            t = exec(&mut cl, op, t, None);
        }
        let s = faults::stats();
        faults::clear();
        s
    };
    let n = dry.total_hits();
    assert!(n > 0, "cluster script must reach injection sites");
    let points = (if std::env::var_os("FAULT_SWEEP_SMOKE").is_some() {
        6u64
    } else {
        24
    })
    .min(n);

    fn exec(
        cl: &mut fusion_cluster::Cluster,
        op: &fusion_cluster::ClOp,
        t: SimTime,
        model: Option<&mut BTreeMap<(PageId, u64), u8>>,
    ) -> SimTime {
        let node = &mut cl.nodes[op.node];
        if op.write {
            let t2 = node.write(&mut cl.server, op.page, op.off, &[op.val; 32], t);
            let t3 = node.publish(&mut cl.server, op.page, t2);
            if let Some(m) = model {
                m.insert((op.page, op.off), op.val);
            }
            t3
        } else {
            let mut buf = [0u8; 32];
            let t2 = node.read(&mut cl.server, op.page, op.off, &mut buf, t);
            if let Some(m) = model {
                let want = *m.get(&(op.page, op.off)).unwrap_or(&0);
                assert_eq!(buf, [want; 32], "read-your-cluster-writes");
            }
            t2
        }
    }

    let mut crashes_seen = 0u64;
    for i in 0..points {
        let victim = (i % CL_NODES as u64) as u32;
        // Build (warm) fault-free, then arm the plan — hit indices then
        // line up with the dry run's script-only horizon.
        let mut cl = build();
        faults::install(FaultPlan::count_only().with(
            Trigger::HitIndex(i * n / points),
            Action::CrashNode { node: victim },
        ));
        let mut locks: LockTable<PageId> = LockTable::new();
        let mut model: BTreeMap<(PageId, u64), u8> = BTreeMap::new();
        let mut t = SimTime::ZERO;
        let mut dead: Option<usize> = None;
        for op in &ops {
            if Some(op.node) == dead {
                continue; // the dead node's sessions are gone
            }
            if op.write {
                let (grant, _) = locks.acquire(op.page, t, LockMode::Exclusive, 0);
                t = grant;
            }
            t = exec(&mut cl, op, t, Some(&mut model));
            if op.write {
                locks.extend_exclusive(op.page, t);
            }
            // Death is declared at the statement boundary: the op that
            // was in flight completed, so there is no old-or-new
            // ambiguity in the oracle.
            if dead.is_none() {
                if let Some(nd) = faults::take_node_crash() {
                    let d = nd as usize;
                    dead = Some(d);
                    cl.cxl.borrow_mut().crash_node(NodeId(d));
                    t = cl.server.fence_node(NodeId(d), t);
                    for p in 0..PPG {
                        locks.reclaim(ppage(d, p), t);
                        locks.reclaim(spage(p), t);
                    }
                    t = cl.server.reclaim_node(NodeId(d), t);
                    // The dead node's private pages die with it (sole
                    // active): the oracle reverts them to storage state.
                    model.retain(|(page, _), _| {
                        !(ppage(d, 0).0..ppage(d, 0).0 + PPG).contains(&page.0)
                    });
                }
            }
        }
        let st = faults::stats();
        faults::clear();
        if st.node_crashes == 0 {
            continue; // trigger landed past the horizon
        }
        crashes_seen += 1;
        let d = dead.expect("declared");
        let stats = cl.server.stats();
        assert_eq!(stats.fenced_nodes, 1, "point {i}");
        // Every page the dead node was active on had its flags cleared;
        // its private pages (sole active) were recycled.
        assert_eq!(stats.reclaimed_flags, 2 * PPG, "point {i}");
        assert_eq!(stats.reclaimed_slots, PPG, "point {i}");
        // No residual lock holds: a fresh X grant on the dead node's
        // pages is immediate.
        for p in 0..PPG {
            let (grant, _) = locks.acquire(ppage(d, p), t, LockMode::Exclusive, 0);
            assert_eq!(grant, t, "leaked lock on dead page {p} at point {i}");
        }
        // Survivors' view matches the oracle (fresh reads through the
        // protocol — the capture cache makes stale bytes observable).
        let survivor = (0..CL_NODES).find(|&s| s != d).expect("a survivor");
        let mut failures = Vec::new();
        for (&(page, off), &want) in &model {
            let reader = if page.0 < CL_NODES as u64 * PPG {
                (page.0 / PPG) as usize // the private group's owner
            } else {
                survivor
            };
            let mut buf = [0u8; 32];
            t = cl.nodes[reader].read(&mut cl.server, page, off, &mut buf, t);
            if buf != [want; 32] {
                failures.push(format!(
                    "point {i}: page {} off {off}: got {:#x}, want {want:#x}",
                    page.0, buf[0]
                ));
            }
        }
        assert!(failures.is_empty(), "{}", failures.join("\n"));
        // The dead node's recycled pages refill from storage (zeros) —
        // the slot really was freed, not leaked.
        let mut buf = [0u8; 32];
        let _ = cl.nodes[survivor].read(&mut cl.server, ppage(d, 0), 64, &mut buf, t);
        assert_eq!(buf, [0u8; 32], "recycled page refills from storage");
        // Slot conservation: nothing leaked, whatever the crash point.
        assert_eq!(
            cl.server.pages_in_use() + cl.server.free_slots(),
            CL_PAGES as usize,
            "point {i}: DBP slot conservation"
        );
    }
    assert!(crashes_seen > 0, "no swept point actually killed a node");
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
        let plan = FaultPlan::count_only().with(
            Trigger::SiteHit(FaultSite::Clflush, j * hc / points),
            Action::PartialClflush {
                keep_lines: 1 + (j % 2),
            },
        );
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
