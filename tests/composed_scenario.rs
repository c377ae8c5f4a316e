//! Failover's shipped control plane on a two-tenant cluster: the
//! `Supervisor` (crash → detect → fence → hand over → reclaim) takes a
//! dead tenant's extents onto a standby. The hand-over is the test's own
//! lease surgery over a fixed extent → tenant map: every extent the victim
//! holds has its page locks reclaimed, its `CxlMemoryManager` lease re-let
//! to the standby and its pages adopted there straight out of CXL. A grid
//! of crash instants moves the takeover across the run; every point must
//! keep slots and leases conserved and lose no committed write.

use memsim::calib::{CPU_TXN_OVERHEAD_NS, PAGE_SIZE};
use memsim::NodeId;
use polarcxlmem::fusion::CoherencyMode::SoftwareLines;
use polarcxlmem::{CxlMemoryManager, FencingPolicy, Lease};
use polardb_cxl_repro::workloads::cluster::{Cluster, FusionCluster};
use polardb_cxl_repro::workloads::control::Supervisor;
use polardb_cxl_repro::workloads::{DeathMode, GroupLayout};
use simkit::faults::{Action, FaultPlan, FaultState, Trigger};
use simkit::{SimTime, Step};
use std::collections::BTreeMap;
use storage::PageId;

const EXTENTS: usize = 8;
/// Tenant 0 owns the extents below this one, tenant 1 the rest.
const CUT: usize = EXTENTS * 3 / 4;
/// Lanes = fabric identities 0..3: tenants 0 and 1, then the standby;
/// the fusion server is identity 3.
const VICTIM: usize = 0;
const STANDBY: usize = 2;
const LAYOUT: GroupLayout = GroupLayout {
    groups: EXTENTS,
    rows_per_group: 400,
};

/// The tenant owning `extent`.
fn owner(extent: usize) -> usize {
    usize::from(extent >= CUT)
}

/// What a lane accumulates.
#[derive(Default)]
struct Tenant {
    seq: u64,
    writes: Vec<((PageId, u16), u8)>,
    queries: u64,
}

#[derive(Debug, PartialEq)]
struct Outcome {
    queries: Vec<u64>,
    takeover_done: Option<SimTime>,
    oracle_rows: usize,
}

fn run(seed: u64, crash_at: SimTime) -> Outcome {
    let duration = SimTime::from_millis(30);
    let (ext_pages, total) = (LAYOUT.pages_per_group(), LAYOUT.total_pages());
    // Three registered nodes (the standby idles until takeover); the spare
    // page behind their flag arrays holds the epoch words.
    let (mut fusion, mut nodes) = FusionCluster::with_nodes(&LAYOUT, 3, SoftwareLines);
    let epochs = total * (PAGE_SIZE + 3 * 16);
    fusion.server.enable_fencing(FencingPolicy::Epoch, epochs);
    // One manager lease per extent, held by its owner's lane (tenant `t`
    // starts on lane `t`), each extent warmed on that lane's node.
    let mut mgr = CxlMemoryManager::new(total * PAGE_SIZE);
    let mut leases: Vec<Lease> = (0..EXTENTS)
        .map(|e| {
            let lane = owner(e);
            let pages = LAYOUT.group_pages(e).map(PageId);
            fusion.warm(&mut nodes[lane], pages, SimTime::ZERO);
            let got = mgr.allocate(NodeId(lane), ext_pages * PAGE_SIZE, SimTime::ZERO);
            got.expect("pool sized for every extent").0
        })
        .collect();
    let node = VICTIM as u32;
    let crash = FaultPlan::default().with(Trigger::At(crash_at), Action::CrashNode { node });
    let faults = [crash, FaultPlan::default(), FaultPlan::default()].map(FaultState::prepared);
    let tenants = (0..3).map(|_| Tenant::default()).collect();
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
            let owned = if me == 0 { 0..CUT } else { CUT..EXTENTS };
            let mut t = start + CPU_TXN_OVERHEAD_NS;
            for _ in 0..4 {
                let rng = &mut ctx.rngs[w];
                let e = rng.gen_range(owned.clone());
                let (page, off) = LAYOUT.locate(e, rng.gen_range(0..LAYOUT.rows_per_group));
                if rng.gen_range(0..100u32) < 30 {
                    ctx.ext.seq += 1;
                    let b = ((ctx.lane as u64 * 89 + ctx.ext.seq * 17) % 250 + 1) as u8;
                    let done = ctx.locked_write_publish(page, off as u64, &[b; 96], t);
                    t = done.expect("nodes run unguarded: the victim dies, it never lingers");
                    ctx.ext.writes.push(((page, off), b));
                } else {
                    t = ctx.locked_read(page, off as u64, 96, t);
                }
                ctx.ext.queries += 1;
            }
            Step::Done(t)
        },
        |cl, now| {
            (cl.exts.iter_mut()).for_each(|x| model.extend(x.writes.drain(..)));
            // Takeover's lease surgery: every extent the victim owns has its
            // page locks reclaimed, is re-leased to the standby and adopted
            // there straight out of CXL.
            let hand_over = |cl: &mut Cluster<FusionCluster, Tenant>, mut t| {
                let (fabric, sb) = (&mut cl.fabric, &mut cl.nodes[STANDBY]);
                for e in (0..EXTENTS).filter(|&e| owner(e) == VICTIM) {
                    let pages = LAYOUT.group_pages(e);
                    (pages.clone()).for_each(|page| _ = cl.locks.reclaim(PageId(page), t));
                    let relet = mgr.reassign(leases[e], NodeId(STANDBY), t);
                    (leases[e], t) = relet.expect("re-lease to the standby");
                    let first = PageId(pages.start);
                    t = sb.adopt(&mut fabric.server, first, ext_pages, t).1;
                }
                t
            };
            if let Some(t) = sup.at_barrier(cl, now, hand_over) {
                cl.activate(STANDBY, t);
                cl.refresh_dir();
            }
        },
    );

    // ---- the end-of-run invariants -------------------------------------
    // Every DBP slot is in use or free, the manager's leases do not
    // overlap, and every extent's lease is held by the lane serving it.
    let server = &mut cluster.fabric.server;
    let slots = server.pages_in_use() + server.free_slots();
    assert_eq!(slots as u64, total, "DBP slot conservation");
    mgr.check_invariants();
    let lane_of = |tenant| match sup.done {
        Some(_) if tenant == VICTIM => STANDBY,
        _ => tenant,
    };
    for (e, lease) in leases.iter().enumerate() {
        assert!(mgr.leases().contains(lease), "extent {e} lost its lease");
        assert_eq!(
            lease.client,
            NodeId(lane_of(owner(e))),
            "lease of extent {e}"
        );
    }
    let mut buf = [0u8; 96];
    for (&(page, off), &expect) in &model {
        let lane = lane_of(owner((page.0 / ext_pages) as usize));
        if lane == VICTIM && sup.declared.is_some() {
            continue; // crashed and never taken over: nobody serves it
        }
        cluster.nodes[lane].read(server, page, off as u64, &mut buf, duration);
        let intact = buf.iter().all(|&b| b == expect);
        assert!(intact, "lost committed write at {page:?}+{off}");
    }
    Outcome {
        queries: cluster.exts.iter().map(|x| x.queries).collect(),
        takeover_done: sup.done,
        oracle_rows: model.len(),
    }
}

#[test]
fn failover_keeps_every_invariant() {
    // Crash half-way through the run.
    let crash_at = SimTime::from_micros(15_200);
    let r = run(7, crash_at);
    assert!(r.takeover_done.is_some(), "the standby must take over");
    assert!(r.queries[2] > 0, "the standby must serve");
    assert!(r.oracle_rows > 0);
    assert_eq!(r, run(7, crash_at), "rerun diverged");
}

#[test]
fn crash_instants_across_the_run_all_hold() {
    // Every 400 us from 9 ms to 20.6 ms: the takeover lands at a
    // different barrier, under different in-flight writes, each time.
    for k in 0..30 {
        let crash_at = SimTime::from_micros(9_000 + k * 400);
        let r = run(3, crash_at);
        assert!(r.takeover_done.is_some(), "{crash_at}: no takeover");
        assert!(r.queries[2] > 0, "{crash_at}: the standby must serve");
    }
}
