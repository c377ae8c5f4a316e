//! Barrier-time control planes on the fusion cluster, each written once:
//! failover's [`Supervisor`] (detect → fence → hand over → reclaim) and
//! elasticity's [`Rebalancer`] (controller + two-phase lease migration).
//! A scenario's barrier hook owns the ones it runs and calls them in the
//! order it wants; `tests/composed_scenario.rs` runs both on one cluster.

use crate::cluster::{Cluster, FusionCluster};
use crate::failover::DeathMode;
use crate::sharing::GroupLayout;
use memsim::calib::PAGE_SIZE;
use memsim::NodeId;
use polarcxlmem::{
    CxlMemoryManager, ElasticConfig, ElasticController, Lease, MigrationCoordinator,
    MigrationError, MigrationPlan, MigrationRequest, SharingNode,
};
use simkit::SimTime;
use storage::PageId;

/// Percent of a tenant's quantum served storage-direct above which the
/// rebalancer calls it pressured: its one pressure signal.
pub const PRESSURE_PCT: u64 = 20;

/// Where a scenario's lane state keeps its [`Partition`].
pub type PartOf<X> = fn(&mut X) -> &mut Partition;

/// Failover's supervisor for one victim lane.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Lane whose `CrashNode` fault the supervisor watches.
    pub victim: usize,
    /// Window between the crash surfacing and the fence.
    pub detection: SimTime,
    /// Whether the victim truly dies or lingers as a zombie.
    pub death: DeathMode,
    /// When the victim was declared dead.
    pub declared: Option<SimTime>,
    /// When the takeover finished.
    pub done: Option<SimTime>,
}

impl Supervisor {
    /// A supervisor that has declared nothing yet.
    pub fn new(victim: usize, detection: SimTime, death: DeathMode) -> Self {
        Supervisor {
            victim,
            detection,
            death,
            declared: None,
            done: None,
        }
    }

    /// One barrier at `now`. The victim's crash fault firing declares it
    /// dead: its shard merges back, a crash freezes its CPU caches, and
    /// the hub pins its health Dead. One detection window later: fence,
    /// `handover` (lease surgery and the standby's adoption), reclaim.
    /// Returns the end time then; the caller starts the standby and calls
    /// [`Cluster::refresh_dir`].
    pub fn at_barrier<X>(
        &mut self,
        cl: &mut Cluster<FusionCluster, X>,
        now: SimTime,
        handover: impl FnOnce(&mut Cluster<FusionCluster, X>, SimTime) -> SimTime,
    ) -> Option<SimTime> {
        let dead = NodeId(self.victim);
        let Some(declared) = self.declared else {
            let node = cl.cores[self.victim].faults.take_node_crash()?;
            debug_assert_eq!(node as usize, self.victim);
            self.declared = Some(now);
            cl.deactivate(self.victim);
            if self.death == DeathMode::Crash {
                cl.fabric.pool.borrow_mut().crash_node(dead);
            }
            cl.hub.retire(self.victim as u32, now);
            return None;
        };
        if self.done.is_some() || now < declared + self.detection.as_nanos() {
            return None;
        }
        let t = cl.fabric.server.fence_node(dead, now);
        let t = handover(cl, t);
        self.done = Some(cl.fabric.server.reclaim_node(dead, t));
        self.done
    }
}

/// What a lane sees of the partition between barriers, plus the
/// per-quantum counters the [`Rebalancer`] folds.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Extent → owning tenant.
    pub owners: Vec<usize>,
    /// The write-protected (migrating) page range, if any.
    pub protected: Option<(PageId, u64)>,
    /// Per-extent storage-direct statements this quantum.
    pub remote: Vec<u64>,
    /// Statements this quantum.
    pub q_ops: u64,
}

impl Partition {
    /// Whether `page` lies in the write-protected range.
    pub fn protects(&self, page: PageId) -> bool {
        (self.protected).is_some_and(|(from, n)| page.0 >= from.0 && page.0 < from.0 + n)
    }
}

/// Elasticity's rebalancer: the controller, one manager lease per extent
/// (a table group) and the two-phase migration coordinator. A migration
/// PREPAREd at one barrier COMMITs at the next, so the lanes serve a
/// quantum through its write-protected window.
pub struct Rebalancer {
    /// The extent → tenant map and its grow/shrink planner.
    pub ctl: ElasticController,
    /// Two-phase lease migration over its CXL journal.
    pub coord: MigrationCoordinator,
    /// The page-address-space leases, one per extent.
    pub mgr: CxlMemoryManager,
    layout: GroupLayout,
    inflight: Option<MigrationRequest>,
    lane_of: Vec<usize>,
    remote: Vec<Vec<u64>>,
    ops: Vec<u64>,
}

impl Rebalancer {
    /// Lease every extent of `layout` to its tenant in `owners` and warm
    /// it on that tenant's node (tenant `t` starts on lane `t`). The
    /// journal sits in the spare page [`FusionCluster::with_nodes`] leaves
    /// behind the flag arrays; its traffic rides the server's identity.
    pub fn new(
        fusion: &mut FusionCluster,
        nodes: &mut [SharingNode],
        layout: GroupLayout,
        owners: Vec<usize>,
        tenants: usize,
        cfg: ElasticConfig,
    ) -> Self {
        let ext_bytes = layout.pages_per_group() * PAGE_SIZE;
        let mut mgr = CxlMemoryManager::new(layout.total_pages() * PAGE_SIZE);
        for (e, &owner) in owners.iter().enumerate() {
            mgr.allocate(NodeId(owner), ext_bytes, SimTime::ZERO)
                .expect("pool sized for every extent");
            let pages = layout.group_pages(e).map(PageId);
            fusion.warm(&mut nodes[owner], pages, SimTime::ZERO);
        }
        let journal = layout.total_pages() * (PAGE_SIZE + 16 * nodes.len() as u64);
        Rebalancer {
            ctl: ElasticController::new(owners, tenants, cfg),
            coord: MigrationCoordinator::new(NodeId(nodes.len()), journal),
            mgr,
            layout,
            inflight: None,
            lane_of: (0..tenants).collect(),
            remote: vec![vec![0; layout.groups]; tenants],
            ops: vec![0; tenants],
        }
    }

    /// A lane's view before the first barrier.
    pub fn partition(&self) -> Partition {
        Partition {
            owners: self.ctl.owners().to_vec(),
            remote: vec![0; self.layout.groups],
            ..Partition::default()
        }
    }

    /// The lane serving `tenant`.
    pub fn lane_of(&self, tenant: usize) -> usize {
        self.lane_of[tenant]
    }

    /// Serve `tenant` from `lane` from now on (a takeover's standby).
    pub fn reseat(&mut self, tenant: usize, lane: usize) {
        self.lane_of[tenant] = lane;
    }

    /// `extent`'s manager lease.
    pub fn lease(&self, extent: usize) -> Lease {
        let bytes = self.layout.pages_per_group() * PAGE_SIZE;
        (self.mgr.lease_at(extent as u64 * bytes, bytes)).expect("every extent keeps its lease")
    }

    /// Fold (and zero) the lanes' quantum counters, in tenant order.
    pub fn observe<X>(&mut self, cl: &mut Cluster<FusionCluster, X>, part: PartOf<X>) {
        for (t, &lane) in self.lane_of.iter().enumerate() {
            let p = part(&mut cl.exts[lane]);
            std::mem::swap(&mut self.remote[t], &mut p.remote);
            p.remote.fill(0);
            self.ops[t] = std::mem::take(&mut p.q_ops);
        }
    }

    /// One barrier at `now`: COMMIT last barrier's intent, or tick the
    /// controller on the observed quantum and PREPARE its plan (shards
    /// merged back); then publish owners and protected range to the lanes.
    pub fn step<X>(&mut self, cl: &mut Cluster<FusionCluster, X>, now: SimTime, part: PartOf<X>) {
        if let Some(req) = self.inflight.take() {
            let (d, r) = (self.lane_of[req.donor], self.lane_of[req.recipient]);
            let (coord, mgr) = (&mut self.coord, &mut self.mgr);
            let committed = cl.merged(|cl| {
                let [donor, recipient] = cl.nodes.get_disjoint_mut([d, r]).expect("two lanes");
                coord.commit(&mut cl.fabric.server, mgr, donor, recipient, now)
            });
            match committed {
                Ok(_) => {
                    self.ctl.apply(req);
                    cl.refresh_dir();
                }
                // A takeover re-leased the donor's extent since PREPARE:
                // the intent is aborted, the request dropped, and the
                // controller re-plans against `lane_of`.
                Err(MigrationError::DonorReplaced { .. }) => {}
                Err(e) => panic!("fault-free commit: {e}"),
            }
        } else {
            let pressured: Vec<bool> = (self.remote.iter().zip(&self.ops))
                .map(|(remote, &ops)| remote.iter().sum::<u64>() * 100 > ops * PRESSURE_PCT)
                .collect();
            if let Some(req) = self.ctl.tick(&pressured, &self.remote) {
                let pages = self.layout.group_pages(req.extent);
                let plan = MigrationPlan {
                    donor: NodeId(self.lane_of[req.donor]),
                    recipient: NodeId(self.lane_of[req.recipient]),
                    from: PageId(pages.start),
                    count: pages.end - pages.start,
                    lease: self.lease(req.extent),
                };
                let coord = &mut self.coord;
                cl.merged(|cl| coord.prepare(&mut cl.fabric.server, plan, now))
                    .expect("fault-free prepare");
                self.inflight = Some(req);
            }
        }
        for x in cl.exts.iter_mut() {
            let p = part(x);
            p.owners.clone_from_slice(self.ctl.owners());
            p.protected = self.coord.protected();
        }
    }

    /// End-of-run check: every DBP slot is in use or free, the manager's
    /// lease invariants hold, and every extent's lease is held by the
    /// lane serving its owner.
    pub fn audit<X>(&self, cl: &Cluster<FusionCluster, X>) {
        let server = &cl.fabric.server;
        let slots = server.pages_in_use() + server.free_slots();
        assert_eq!(
            slots as u64,
            self.layout.total_pages(),
            "DBP slot conservation"
        );
        self.mgr.check_invariants();
        for e in 0..self.layout.groups {
            let owner = NodeId(self.lane_of[self.ctl.owner(e)]);
            assert_eq!(self.lease(e).client, owner, "lease of extent {e}");
        }
    }
}
