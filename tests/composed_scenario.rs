//! Two control planes on one cluster, the shipped ones: failover's
//! `Supervisor` (crash → detect → fence → hand over → reclaim) takes a
//! dead tenant's extents onto a standby while elasticity's `Rebalancer`
//! (controller + two-phase `MigrationCoordinator`) re-partitions the same
//! pool under a diurnal shift. The crash is aimed at the flip, so the
//! takeover lands among the migrations. Lease surgery and lease migration
//! interleave freely: a migration whose donor was taken over between
//! PREPARE and COMMIT ends in `MigrationError::DonorReplaced` — aborted,
//! dropped, re-planned.

use memsim::calib::{
    CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_REFUSE_NS, PAGE_SIZE, STORAGE_READ_NS,
};
use memsim::NodeId;
use polarcxlmem::fusion::CoherencyMode::SoftwareLines;
use polarcxlmem::{ElasticConfig, FencingPolicy};
use polardb_cxl_repro::workloads::cluster::{Cluster, FusionCluster};
use polardb_cxl_repro::workloads::control::{Partition, Rebalancer, Supervisor};
use polardb_cxl_repro::workloads::{DeathMode, GroupLayout};
use simkit::faults::{Action, FaultPlan, FaultState, Trigger};
use simkit::{SimTime, Step};
use std::collections::BTreeMap;
use storage::PageId;

const EXTENTS: usize = 8;
/// Lanes = fabric identities 0..3: tenants 0 and 1, then the standby;
/// the fusion server and migration coordinator are identity 3.
const VICTIM: usize = 0;
const STANDBY: usize = 2;
const LAYOUT: GroupLayout = GroupLayout {
    groups: EXTENTS,
    rows_per_group: 400,
};

/// A lane's view of the partition plus what it accumulates.
#[derive(Default)]
struct Tenant {
    part: Partition,
    seq: u64,
    writes: Vec<((PageId, u16), u8)>,
    queries: u64,
}

fn part(x: &mut Tenant) -> &mut Partition {
    &mut x.part
}

#[derive(Debug, PartialEq)]
struct Outcome {
    queries: Vec<u64>,
    owners: Vec<usize>,
    migrations: u64,
    rollbacks: u64,
    takeover_done: Option<SimTime>,
    oracle_rows: usize,
}

fn run(seed: u64, crash_at: SimTime) -> Outcome {
    let duration = SimTime::from_millis(30);
    let (ext_pages, total) = (LAYOUT.pages_per_group(), LAYOUT.total_pages());
    // Three registered nodes (the standby idles until takeover); the spare
    // page behind their flag arrays holds the journal, then the epoch words.
    let (mut fusion, mut nodes) = FusionCluster::with_nodes(&LAYOUT, 3, SoftwareLines);
    let epochs = total * (PAGE_SIZE + 3 * 16) + 2048;
    fusion.server.enable_fencing(FencingPolicy::Epoch, epochs);
    // Tenant 0 owns the first 3/4 of the extents (first-half demand).
    let owners = (0..EXTENTS)
        .map(|e| usize::from(e >= EXTENTS * 3 / 4))
        .collect();
    let cfg = ElasticConfig::default();
    let mut reb = Rebalancer::new(&mut fusion, &mut nodes, LAYOUT, owners, 2, cfg);
    let node = VICTIM as u32;
    let crash = FaultPlan::default().with(Trigger::At(crash_at), Action::CrashNode { node });
    let faults = [crash, FaultPlan::default(), FaultPlan::default()].map(FaultState::prepared);
    let tenants = (0..3)
        .map(|_| Tenant {
            part: reb.partition(),
            ..Tenant::default()
        })
        .collect();
    let mut cluster = Cluster::new(fusion, nodes, tenants, faults.into(), 4, seed);
    (0..2).for_each(|lane| cluster.activate(lane, SimTime::ZERO));

    let mut model: BTreeMap<(PageId, u16), u8> = BTreeMap::new();
    let detection = SimTime::from_millis(1);
    let mut sup = Supervisor::new(VICTIM, detection, DeathMode::Crash);
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
                if ctx.ext.part.owners[e] != me {
                    // Foreign extent: storage-direct, the controller's food.
                    t = ctx.cpu.acquire(t, CPU_POINT_SELECT_NS).end + STORAGE_READ_NS;
                    ctx.ext.part.remote[e] += 1;
                } else if is_write && ctx.ext.part.protects(page) {
                    t = ctx.cpu.acquire(t, CPU_WRITE_REFUSE_NS).end; // retryable
                } else if is_write {
                    ctx.ext.seq += 1;
                    let b = ((ctx.lane as u64 * 89 + ctx.ext.seq * 17) % 250 + 1) as u8;
                    let done = ctx.locked_write_publish(page, off as u64, &[b; 96], t);
                    t = done.expect("nodes run unguarded: the victim dies, it never lingers");
                    ctx.ext.writes.push(((page, off), b));
                } else {
                    t = ctx.locked_read(page, off as u64, 96, t);
                }
                ctx.ext.part.q_ops += 1;
                ctx.ext.queries += 1;
            }
            Step::Done(t)
        },
        |cl, now| {
            (cl.exts.iter_mut()).for_each(|x| model.extend(x.writes.drain(..)));
            // Counters fold before a takeover reseats the victim's tenant;
            // the plan is made after it.
            reb.observe(cl, part);
            // Takeover's lease surgery: every extent the victim owns has its
            // page locks reclaimed, is re-leased to the standby and adopted
            // there straight out of CXL.
            let hand_over = |cl: &mut Cluster<FusionCluster, Tenant>, mut t| {
                let (fabric, sb) = (&mut cl.fabric, &mut cl.nodes[STANDBY]);
                for e in (0..EXTENTS).filter(|&e| reb.ctl.owner(e) == VICTIM) {
                    let pages = LAYOUT.group_pages(e);
                    (pages.clone()).for_each(|page| _ = cl.locks.reclaim(PageId(page), t));
                    let relet = reb.mgr.reassign(reb.lease(e), NodeId(STANDBY), t);
                    t = relet.expect("re-lease to the standby").1;
                    let first = PageId(pages.start);
                    t = sb.adopt(&mut fabric.server, first, ext_pages, t).1;
                }
                t
            };
            if let Some(t) = sup.at_barrier(cl, now, hand_over) {
                reb.reseat(VICTIM, STANDBY);
                cl.activate(STANDBY, t);
                cl.refresh_dir();
            }
            reb.step(cl, now, part);
        },
    );

    // ---- the end-of-run invariants -------------------------------------
    reb.audit(&cluster);
    let server = &mut cluster.fabric.server;
    let mut buf = [0u8; 96];
    for (&(page, off), &expect) in &model {
        let lane = reb.lane_of(reb.ctl.owner((page.0 / ext_pages) as usize));
        if lane == VICTIM && sup.declared.is_some() {
            continue; // crashed and never taken over: nobody serves it
        }
        cluster.nodes[lane].read(server, page, off as u64, &mut buf, duration);
        let intact = buf.iter().all(|&b| b == expect);
        assert!(intact, "lost committed write at {page:?}+{off}");
    }
    Outcome {
        queries: cluster.exts.iter().map(|x| x.queries).collect(),
        owners: reb.ctl.owners().to_vec(),
        migrations: reb.ctl.moves(),
        rollbacks: reb.coord.stats().rollbacks,
        takeover_done: sup.done,
        oracle_rows: model.len(),
    }
}

#[test]
fn failover_during_live_migration_keeps_every_invariant() {
    // Crash 200 us after the diurnal flip: the controller is mid-shift.
    let crash_at = SimTime::from_micros(15_200);
    let r = run(7, crash_at);
    let moved = r.migrations;
    assert!(moved >= 2, "the shift must migrate: {moved}");
    assert!(r.takeover_done.is_some(), "the standby must take over");
    assert!(r.queries[2] > 0, "the standby must serve");
    assert!(r.oracle_rows > 0);
    assert_eq!(r, run(7, crash_at), "rerun diverged");
}

#[test]
fn crash_before_the_shift_still_lets_the_standby_donate() {
    // Takeover completes in the morning; every evening migration then
    // has the *standby* as donor — adopt followed by migrate-out.
    let r = run(11, SimTime::from_millis(6));
    let morning = SimTime::from_millis(15);
    assert!(r.takeover_done.is_some_and(|t| t < morning));
    assert!(r.migrations >= 2 && r.owners.iter().filter(|&&o| o == 1).count() > 2);
}

#[test]
fn crash_instants_around_the_shift_all_hold() {
    // Every 400 us from well before the flip to well after it: takeover
    // lands before, between and after the evening's migrations.
    for k in 0..30 {
        run(3, SimTime::from_micros(9_000 + k * 400));
    }
}

/// Seed 1, crash at 15.007 ms: the takeover's re-lease of the victim's
/// extents lands between a migration's PREPARE and COMMIT with the victim
/// as its donor. `commit` checks the lease before its commit point, aborts
/// the intent and names the standby; the controller re-plans with the
/// standby as donor and every end-of-run invariant holds. (Until the check
/// existed this run ended in `WrongOwner` past the commit point.) The
/// rollback count is what shows the race still happens.
#[test]
fn takeover_racing_a_prepared_migration_aborts_and_replans() {
    let r = run(1, SimTime::from_micros(15_007));
    assert!(r.takeover_done.is_some(), "the standby must take over");
    assert!(r.migrations >= 2, "the shift must still migrate");
    assert!(r.rollbacks >= 1, "the takeover must race a PREPARE");
    assert_eq!(r, run(1, SimTime::from_micros(15_007)));
}
