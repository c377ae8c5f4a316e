//! Two control planes on one cluster, built only from driver pieces:
//! failover's `CrashNode` plan + detect / fence / reclaim / standby
//! takeover runs while elasticity's controller and two-phase
//! `MigrationCoordinator` re-partition the same pool under a diurnal
//! shift. The crash is aimed at the flip, so takeover lands among the
//! migrations. With `drain` a takeover waits for the in-flight migration
//! to COMMIT and no PREPARE is issued while a takeover is due, so lease
//! surgery and lease migration never interleave; without it they do, and
//! a migration whose donor was taken over between PREPARE and COMMIT ends
//! in `MigrationError::DonorReplaced` — aborted, dropped, re-planned.

use memsim::calib::{CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, PAGE_SIZE, STORAGE_READ_NS};
use memsim::NodeId;
use polarcxlmem::fusion::CoherencyMode::SoftwareLines;
use polarcxlmem::{
    CxlMemoryManager, ElasticConfig, ElasticController, FencingPolicy, MigrationCoordinator,
    MigrationError, MigrationPlan, MigrationRequest,
};
use polardb_cxl_repro::workloads::cluster::{Cluster, FusionCluster};
use polardb_cxl_repro::workloads::GroupLayout;
use simkit::faults::{Action, FaultPlan, FaultState, Trigger};
use simkit::telemetry::TelemetryConfig;
use simkit::{SimTime, Step};
use std::collections::BTreeMap;
use storage::PageId;

const EXTENTS: usize = 8;
/// Lanes = fabric identities 0..3: tenants 0 and 1, then the standby;
/// the fusion server and migration coordinator are identity 3.
const VICTIM: usize = 0;
const STANDBY: usize = 2;
const SERVER: NodeId = NodeId(3);
/// Supervisor's window between the crash surfacing and the fence.
const DETECTION_NS: u64 = 1_000_000;
const LAYOUT: GroupLayout = GroupLayout {
    groups: EXTENTS,
    rows_per_group: 400,
};

/// A lane's view of the partition plus what it accumulates.
#[derive(Default)]
struct Tenant {
    owners: Vec<usize>,
    protected: Option<(PageId, u64)>,
    remote: [u64; EXTENTS],
    q_ops: u64,
    seq: u64,
    writes: Vec<((PageId, u16), u8)>,
    queries: u64,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    queries: Vec<u64>,
    owners: Vec<usize>,
    migrations: u64,
    takeover_done: Option<SimTime>,
    oracle_rows: usize,
}

fn pair<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    let (lo, hi) = v.split_at_mut(a.max(b));
    if a < b {
        (&mut lo[a], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[b])
    }
}

fn run(seed: u64, crash_at: SimTime, drain: bool) -> Outcome {
    let duration = SimTime::from_millis(30);
    let (ext_pages, total) = (LAYOUT.pages_per_group(), LAYOUT.total_pages());
    let ext_bytes = ext_pages * PAGE_SIZE;
    let lease_of = |mgr: &CxlMemoryManager, e: usize| {
        mgr.lease_at(e as u64 * ext_bytes, ext_bytes)
            .expect("every extent keeps its lease")
    };
    // Three registered nodes (the standby idles until takeover); the spare
    // page behind their flag arrays holds the journal, then the epoch words.
    let (mut fusion, mut nodes) = FusionCluster::with_nodes(&LAYOUT, 3, SoftwareLines);
    let journal_base = total * (PAGE_SIZE + 3 * 16);
    let server = &mut fusion.server;
    server.enable_fencing(FencingPolicy::Epoch, journal_base + 2048);
    // Tenant 0 owns the first 3/4 of the extents (first-half demand), one
    // manager lease per extent.
    let initial_owner = |e: usize| usize::from(e >= EXTENTS * 3 / 4);
    let mut mgr = CxlMemoryManager::new(total * PAGE_SIZE);
    for e in 0..EXTENTS {
        let owner = initial_owner(e);
        mgr.allocate(NodeId(owner), ext_bytes, SimTime::ZERO)
            .expect("pool sized for every extent");
        let pages = LAYOUT.group_pages(e).map(PageId);
        fusion.warm(&mut nodes[owner], pages, SimTime::ZERO);
    }
    let mut coord = MigrationCoordinator::new(SERVER, journal_base);
    let owners = (0..EXTENTS).map(initial_owner).collect();
    let mut ctl = ElasticController::new(owners, 2, ElasticConfig::default());
    let node = VICTIM as u32;
    let crash = FaultPlan::default().with(Trigger::At(crash_at), Action::CrashNode { node });
    let faults = [crash, FaultPlan::default(), FaultPlan::default()].map(FaultState::prepared);
    let tenants = (0..3).map(|_| Tenant::default()).collect();
    let tcfg = TelemetryConfig::new(SimTime::ZERO, 3).lanes(&["all"]);
    let mut cluster = Cluster::new(fusion, nodes, tenants, faults.into(), tcfg, 4, seed);
    cluster.protocol_probe = false;
    (0..2).for_each(|lane| cluster.activate(lane, SimTime::ZERO));
    // Every lane reads its own copy of the partition, refreshed at barriers.
    let publish = |exts: &mut [Tenant], ctl: &ElasticController, coord: &MigrationCoordinator| {
        for x in exts {
            x.owners = ctl.owners().to_vec();
            x.protected = coord.protected();
        }
    };
    publish(&mut cluster.exts, &ctl, &coord);

    let mut model: BTreeMap<(PageId, u16), u8> = BTreeMap::new();
    let mut lane_of = [0usize, 1]; // tenant → serving lane
    let (mut declared, mut takeover_done, mut inflight) = (None, None, None::<MigrationRequest>);
    cluster.run(
        duration,
        SimTime::from_micros(200),
        |ctx, w, start| {
            let me = ctx.lane % STANDBY; // the standby serves as tenant 0
            let evening = start.as_nanos() >= duration.as_nanos() / 2;
            let cut = EXTENTS * if evening { 1 } else { 3 } / 4;
            let demand = if me == 0 { 0..cut } else { cut..EXTENTS };
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            for _ in 0..4 {
                let rng = &mut ctx.rngs[w];
                let e = rng.gen_range(demand.clone());
                let (page, off) = LAYOUT.locate(e, rng.gen_range(0..LAYOUT.rows_per_group));
                let is_write = rng.gen_range(0..100u32) < 30;
                let protected = (ctx.ext.protected)
                    .is_some_and(|(from, n)| page.0 >= from.0 && page.0 < from.0 + n);
                if ctx.ext.owners[e] != me {
                    // Foreign extent: storage-direct, the controller's food.
                    t = ctx.cpu.acquire(t, CPU_POINT_SELECT_NS).end + STORAGE_READ_NS;
                    ctx.ext.remote[e] += 1;
                } else if is_write && protected {
                    t = ctx.cpu.acquire(t, 5_000).end; // refused, retryable
                } else if is_write {
                    ctx.ext.seq += 1;
                    let b = ((ctx.lane as u64 * 89 + ctx.ext.seq * 17) % 250 + 1) as u8;
                    let done = ctx.locked_write_publish(page, off as u64, &[b; 96], t);
                    t = done.expect("nodes run unguarded: the victim dies, it never lingers");
                    ctx.ext.writes.push(((page, off), b));
                } else {
                    t = ctx.locked_read(page, off as u64, 96, t);
                }
                ctx.ext.q_ops += 1;
                ctx.ext.queries += 1;
            }
            Step::Done(t)
        },
        |cl, now| {
            let (mut remote_window, mut ops_window) = (Vec::new(), Vec::new());
            for lane in lane_of {
                let x = &mut cl.exts[lane];
                remote_window.push(std::mem::take(&mut x.remote).to_vec());
                ops_window.push(std::mem::take(&mut x.q_ops));
            }
            (cl.exts.iter_mut()).for_each(|x| model.extend(x.writes.drain(..)));
            // ---- failover: detect, then (once migrations drained) fence,
            // reclaim, re-lease and adopt onto the standby.
            if declared.is_none() && cl.cores[VICTIM].faults.take_node_crash().is_some() {
                declared = Some(now);
                cl.deactivate(VICTIM);
                cl.fabric.pool.borrow_mut().crash_node(NodeId(VICTIM));
            }
            let due = takeover_done.is_none() && declared.is_some_and(|d| now >= d + DETECTION_NS);
            if due && !(drain && inflight.is_some()) {
                let (fabric, sb) = (&mut cl.fabric, &mut cl.nodes[STANDBY]);
                let mut t = fabric.server.fence_node(NodeId(VICTIM), now);
                for e in (0..EXTENTS).filter(|&e| ctl.owner(e) == VICTIM) {
                    for page in LAYOUT.group_pages(e) {
                        cl.locks.reclaim(PageId(page), t);
                    }
                    let relet = mgr.reassign(lease_of(&mgr, e), NodeId(STANDBY), t);
                    t = relet.expect("re-lease to the standby").1;
                    let first = PageId(LAYOUT.group_pages(e).start);
                    t = sb.adopt(&mut fabric.server, first, ext_pages, t).1;
                }
                t = fabric.server.reclaim_node(NodeId(VICTIM), t);
                cl.activate(STANDBY, t);
                cl.refresh_dir();
                lane_of[VICTIM] = STANDBY;
                takeover_done = Some(t);
            }
            // ---- elasticity: COMMIT last barrier's intent, else maybe
            // PREPARE a new one; both with every shard merged back.
            if let Some(req) = inflight.take() {
                let committed = cl.merged(|cl| {
                    let (d, r) = pair(&mut cl.nodes, lane_of[req.donor], lane_of[req.recipient]);
                    coord.commit(&mut cl.fabric.server, &mut mgr, d, r, now)
                });
                match committed {
                    Ok(_) => {
                        ctl.apply(req);
                        cl.refresh_dir();
                    }
                    // Takeover re-leased the donor's extent since PREPARE:
                    // the intent is aborted, the request dropped, and the
                    // controller re-plans against `lane_of`.
                    Err(MigrationError::DonorReplaced { .. }) => {}
                    Err(e) => panic!("fault-free commit: {e}"),
                }
            } else if !(drain && due) {
                let pressured: Vec<bool> = (0..2)
                    .map(|t| remote_window[t].iter().sum::<u64>() * 5 > ops_window[t])
                    .collect();
                if let Some(req) = ctl.tick(&pressured, &remote_window) {
                    let plan = MigrationPlan {
                        donor: NodeId(lane_of[req.donor]),
                        recipient: NodeId(lane_of[req.recipient]),
                        from: PageId(LAYOUT.group_pages(req.extent).start),
                        count: ext_pages,
                        lease: lease_of(&mgr, req.extent),
                    };
                    cl.merged(|cl| coord.prepare(&mut cl.fabric.server, plan, now))
                        .expect("fault-free prepare");
                    inflight = Some(req);
                }
            }
            publish(&mut cl.exts, &ctl, &coord);
        },
    );

    // ---- the three end-of-run invariants -------------------------------
    let server = &mut cluster.fabric.server;
    let in_use = server.pages_in_use() + server.free_slots();
    assert_eq!(in_use, total as usize, "DBP slot conservation");
    mgr.check_invariants();
    for e in 0..EXTENTS {
        let holder = lease_of(&mgr, e).client;
        let owner = NodeId(lane_of[ctl.owner(e)]);
        assert_eq!(holder, owner, "lease/controller agreement, extent {e}");
    }
    let mut buf = [0u8; 96];
    for (&(page, off), &expect) in &model {
        let lane = lane_of[ctl.owner((page.0 / ext_pages) as usize)];
        if lane == VICTIM && declared.is_some() {
            continue; // crashed and never taken over: nobody serves it
        }
        cluster.nodes[lane].read(server, page, off as u64, &mut buf, duration);
        let intact = buf.iter().all(|&b| b == expect);
        assert!(intact, "lost committed write at {page:?}+{off}");
    }
    Outcome {
        queries: cluster.exts.iter().map(|x| x.queries).collect(),
        owners: ctl.owners().to_vec(),
        migrations: ctl.moves(),
        takeover_done,
        oracle_rows: model.len(),
    }
}

#[test]
fn failover_during_live_migration_keeps_every_invariant() {
    // Crash 200 us after the diurnal flip: the controller is mid-shift.
    let crash_at = SimTime::from_micros(15_200);
    let r = run(7, crash_at, true);
    assert!(
        r.migrations >= 2,
        "the shift must migrate: {}",
        r.migrations
    );
    assert!(r.takeover_done.is_some(), "the standby must take over");
    assert!(r.queries[2] > 0, "the standby must serve");
    assert!(r.oracle_rows > 0);
    assert_eq!(r, run(7, crash_at, true), "rerun diverged");
}

#[test]
fn crash_before_the_shift_still_lets_the_standby_donate() {
    // Takeover completes in the morning; every evening migration then
    // has the *standby* as donor — adopt followed by migrate-out.
    let r = run(11, SimTime::from_millis(6), true);
    assert!(r
        .takeover_done
        .is_some_and(|t| t < SimTime::from_millis(15)));
    assert!(r.migrations >= 2 && r.owners.iter().filter(|&&o| o == 1).count() > 2);
}

#[test]
fn crash_instants_around_the_shift_all_hold() {
    // Every 400 us from well before the flip to well after it: takeover
    // lands before, between and after the evening's migrations.
    for k in 0..30 {
        for drain in [true, false] {
            run(3, SimTime::from_micros(9_000 + k * 400), drain);
        }
    }
}

/// Seed 1, crash at 15.007 ms, no drain rule: the takeover's re-lease of
/// the victim's extents lands between a migration's PREPARE and COMMIT
/// with the victim as its donor. `commit` checks the lease before its
/// commit point, aborts the intent and names the standby; the controller
/// re-plans with the standby as donor and every end-of-run invariant
/// holds. (Until the check existed this run ended in `WrongOwner` past
/// the commit point.)
#[test]
fn takeover_racing_a_prepared_migration_aborts_and_replans() {
    let r = run(1, SimTime::from_micros(15_007), false);
    assert!(r.takeover_done.is_some(), "the standby must take over");
    assert!(r.migrations >= 2, "the shift must still migrate");
    assert_eq!(r, run(1, SimTime::from_micros(15_007), false));
}
