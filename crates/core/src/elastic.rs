//! Crash-safe online elasticity: live re-partitioning of the CXL pool
//! via a two-phase lease migration.
//!
//! A tenant under pressure gets capacity moved to it, not taken away. A
//! migration hands a contiguous range of DBP pages — data in place,
//! nothing copied — from a donor tenant to a recipient while both keep
//! serving traffic:
//!
//! - **Phase 1 (PREPARE)**: the coordinator write-protects the range on
//!   the donor (control plane; reads keep flowing), records a migration
//!   intent in a CXL-resident journal, and flushes the donor's dirty
//!   lines for the range so the bytes in CXL are current.
//! - **Phase 2 (COMMIT)**: the journal flips to `COMMITTING` (the
//!   commit point), the range lease is transferred in place via
//!   [`CxlMemoryManager::reassign`], the donor is dropped from the
//!   fusion directory ([`FusionServer::migrate_out`]), the recipient
//!   bulk-adopts the range ([`FusionServer::adopt_range`]), and the
//!   intent retires.
//!
//! Every step is idempotent and every step is a named fault-injection
//! site (`mig_prepare` / `mig_flush` / `mig_reassign` / `mig_adopt` /
//! `mig_retire`). The journal lives in CXL — the box has its own PSU —
//! so a coordinator crash at *any* point is recoverable:
//! [`MigrationCoordinator::recover`] rolls a `PREPARED` intent back
//! (the donor never lost anything) and rolls a `COMMITTING` intent
//! forward (replaying each idempotent step), leaving the pool in
//! exactly the old or exactly the new partition — never a torn one.
//! `tests/fault_sweep.rs` proves this by crashing at every site.
//!
//! [`ElasticController`] sits on top: at quantum barriers it consumes
//! per-tenant pressure flags and storage-direct op counts (both folded
//! from the lanes' own counters) and emits
//! grow/shrink plans with hysteresis, which the harness executes
//! through the coordinator.

use crate::fusion::{FusionServer, SharingNode};
use crate::manager::{CxlMemoryManager, Lease};
use memsim::NodeId;
use simkit::faults::{self, FaultSite, Verdict};
use simkit::SimTime;
use storage::PageId;

/// Size of the CXL-resident migration journal record, in bytes. One
/// in-flight migration at a time — elasticity moves one extent per
/// controller tick, so a single record suffices (and keeps the commit
/// point a single 8-byte store).
pub const MIG_JOURNAL_BYTES: u64 = 64;

/// Journal state machine. The word at offset 0 of the journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationState {
    /// No intent recorded (or the record was retired and reused).
    Idle,
    /// Phase 1 ran: intent durable, donor range write-protected and
    /// flushed. Recovery rolls *back* — COMMIT never started, the
    /// donor's leases are intact.
    Prepared,
    /// The commit point passed. Recovery rolls *forward* — every
    /// remaining step is idempotent.
    Committing,
    /// The migration completed and the intent retired.
    Retired,
    /// The migration was rolled back; the old partition stands.
    Aborted,
}

impl MigrationState {
    /// Journal word for this state.
    pub fn word(self) -> u64 {
        match self {
            MigrationState::Idle => 0,
            MigrationState::Prepared => 1,
            MigrationState::Committing => 2,
            MigrationState::Retired => 3,
            MigrationState::Aborted => 4,
        }
    }

    /// Parse a journal word. Unknown words read as [`MigrationState::
    /// Idle`]: an unwritten or unrecognized record carries no intent.
    pub fn from_word(w: u64) -> MigrationState {
        match w {
            1 => MigrationState::Prepared,
            2 => MigrationState::Committing,
            3 => MigrationState::Retired,
            4 => MigrationState::Aborted,
            _ => MigrationState::Idle,
        }
    }
}

/// The protocol step a [`MigrationError`] occurred in (also the name of
/// its fault site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStep {
    /// Intent journaling + write-protect.
    Prepare,
    /// Dirty-frame flush of the donor range.
    Flush,
    /// Commit point + lease transfer + donor hand-off.
    Reassign,
    /// Bulk adoption on the recipient.
    Adopt,
    /// Intent retirement.
    Retire,
}

impl MigrationStep {
    /// The fault site gating this step.
    pub fn site(self) -> FaultSite {
        match self {
            MigrationStep::Prepare => FaultSite::MigPrepare,
            MigrationStep::Flush => FaultSite::MigFlush,
            MigrationStep::Reassign => FaultSite::MigReassign,
            MigrationStep::Adopt => FaultSite::MigAdopt,
            MigrationStep::Retire => FaultSite::MigRetire,
        }
    }
}

/// A migration plan: move the DBP pages `[from, from + count)` — whose
/// page-address-space lease is `lease` — from `donor` to `recipient`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Tenant giving the range up.
    pub donor: NodeId,
    /// Tenant receiving it.
    pub recipient: NodeId,
    /// First page of the range.
    pub from: PageId,
    /// Number of pages.
    pub count: u64,
    /// The manager lease covering the range (owner must be `donor`).
    pub lease: Lease,
}

/// Typed migration failures. `Crashed` is the interesting one: the
/// coordinator died at a fault site and a new coordinator must run
/// [`MigrationCoordinator::recover`] against the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationError {
    /// The coordinator crashed at `step`'s fault site. The journal
    /// holds whatever was durable; recovery decides old vs new.
    Crashed {
        /// Step whose gate returned a fatal verdict.
        step: MigrationStep,
    },
    /// The plan's lease is not owned by the plan's donor.
    WrongOwner {
        /// The offending lease.
        lease: Lease,
        /// The owner the plan expected.
        expected: NodeId,
    },
    /// The donor's lease moved to `successor` between PREPARE and COMMIT
    /// (a failover takeover re-leased the dead donor's extents). The
    /// intent was aborted — journal `ABORTED`, write-protect cleared —
    /// and the old partition stands under its new holder: re-plan
    /// against the successor.
    DonorReplaced {
        /// Who holds the lease now.
        successor: NodeId,
    },
    /// No lease covers the journalled extent (the journal and the
    /// manager disagree — a protocol bug the sweep would surface).
    LeaseUnknown {
        /// Journalled extent offset.
        offset: u64,
        /// Journalled extent size.
        size: u64,
    },
    /// `commit`/`abort` called with no prepared intent in flight.
    NotInFlight,
    /// `prepare` called while another intent is still in flight.
    Busy {
        /// Sequence number of the in-flight intent.
        seq: u64,
    },
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Crashed { step } => {
                write!(f, "coordinator crashed at {}", step.site().name())
            }
            MigrationError::WrongOwner { lease, expected } => write!(
                f,
                "lease at {}+{} owned by node {}, plan expected {}",
                lease.offset, lease.size, lease.client.0, expected.0
            ),
            MigrationError::DonorReplaced { successor } => write!(
                f,
                "donor replaced by node {} before commit; intent aborted",
                successor.0
            ),
            MigrationError::LeaseUnknown { offset, size } => {
                write!(f, "no lease covers journalled extent {offset}+{size}")
            }
            MigrationError::NotInFlight => write!(f, "no migration intent in flight"),
            MigrationError::Busy { seq } => {
                write!(f, "migration intent #{seq} still in flight")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// What [`MigrationCoordinator::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Journal quiescent (idle / retired / aborted): nothing to do.
    Nothing,
    /// A `PREPARED` intent was rolled back; the old partition stands.
    RolledBack {
        /// Sequence number of the rolled-back intent.
        seq: u64,
    },
    /// A `COMMITTING` intent was replayed to completion; the new
    /// partition stands.
    RolledForward {
        /// Sequence number of the completed intent.
        seq: u64,
    },
}

/// Counters kept by the coordinator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ElasticStats {
    /// Intents journalled (phase 1 completions).
    pub prepares: u64,
    /// Migrations committed and retired.
    pub commits: u64,
    /// Intents rolled back (explicit abort or recovery of `PREPARED`).
    pub rollbacks: u64,
    /// `COMMITTING` intents replayed to completion by recovery.
    pub rolled_forward: u64,
    /// Transient fault verdicts absorbed by retry/backoff at mig sites.
    pub transient_retries: u64,
    /// Pages flushed during PREPARE phases.
    pub pages_flushed: u64,
}

/// The durable journal record, decoded. All fields are little-endian
/// u64 words in CXL; the state word at offset 0 is written last on
/// PREPARE and alone on every transition, so the record is never torn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRecord {
    /// State machine word.
    pub state: MigrationState,
    /// Monotonic migration sequence number.
    pub seq: u64,
    /// Donor tenant.
    pub donor: NodeId,
    /// Recipient tenant.
    pub recipient: NodeId,
    /// First page of the range.
    pub from: PageId,
    /// Number of pages.
    pub count: u64,
    /// Lease extent offset (manager page-address space).
    pub lease_offset: u64,
    /// Lease extent size.
    pub lease_size: u64,
}

impl JournalRecord {
    fn decode(buf: &[u8; MIG_JOURNAL_BYTES as usize]) -> JournalRecord {
        let word = |i: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&buf[i * 8..i * 8 + 8]);
            u64::from_le_bytes(w)
        };
        JournalRecord {
            state: MigrationState::from_word(word(0)),
            seq: word(1),
            donor: NodeId(word(2) as usize),
            recipient: NodeId(word(3) as usize),
            from: PageId(word(4)),
            count: word(5),
            lease_offset: word(6),
            lease_size: word(7),
        }
    }

    fn encode(&self) -> [u8; MIG_JOURNAL_BYTES as usize] {
        let mut buf = [0u8; MIG_JOURNAL_BYTES as usize];
        let words = [
            self.state.word(),
            self.seq,
            self.donor.0 as u64,
            self.recipient.0 as u64,
            self.from.0,
            self.count,
            self.lease_offset,
            self.lease_size,
        ];
        for (i, w) in words.iter().enumerate() {
            buf[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
        }
        buf
    }
}

/// The migration coordinator: drives the two-phase protocol and owns
/// the CXL journal record at `journal_base`. All methods are serial
/// (barrier-time) operations; its in-memory state is a *cache* of the
/// journal — a fresh coordinator pointed at the same journal recovers
/// everything it needs from CXL.
pub struct MigrationCoordinator {
    /// Fabric identity the coordinator's journal I/O rides on
    /// (typically the fusion-server host).
    coord_node: NodeId,
    /// Byte offset of the journal record in the pool.
    journal_base: u64,
    /// Next sequence number (volatile; recovery re-reads the journal's).
    seq: u64,
    /// In-flight plan (volatile mirror of the journal).
    inflight: Option<MigrationPlan>,
    stats: ElasticStats,
}

impl MigrationCoordinator {
    /// Coordinator over the journal record at `journal_base`, issuing
    /// fabric traffic as `coord_node`.
    pub fn new(coord_node: NodeId, journal_base: u64) -> Self {
        MigrationCoordinator {
            coord_node,
            journal_base,
            seq: 0,
            inflight: None,
            stats: ElasticStats::default(),
        }
    }

    /// Coordinator counters.
    pub fn stats(&self) -> ElasticStats {
        self.stats
    }

    /// The range currently write-protected on its donor, if a migration
    /// is in flight. Harnesses consult this before donor writes: reads
    /// keep flowing during a migration, writes to the moving range are
    /// refused (typed, retryable at the workload layer).
    pub fn protected(&self) -> Option<(PageId, u64)> {
        self.inflight.map(|p| (p.from, p.count))
    }

    /// Whether `page` is inside the write-protected range.
    pub fn write_protected(&self, page: PageId) -> bool {
        self.protected()
            .is_some_and(|(from, count)| page.0 >= from.0 && page.0 < from.0 + count)
    }

    /// Poll `step`'s fault site: absorb transient verdicts with
    /// retry/backoff (each retry waits out the injected spike), turn a
    /// fatal verdict into the typed crash error.
    fn gate(&mut self, step: MigrationStep, now: SimTime) -> Result<SimTime, MigrationError> {
        let mut t = now;
        loop {
            match faults::gate(step.site(), t) {
                Verdict::Run => return Ok(t),
                Verdict::Transient { spike_ns } => {
                    self.stats.transient_retries += 1;
                    t += spike_ns;
                }
                // Dead, or a data-shaped verdict this control-plane
                // step cannot honor: the coordinator is gone.
                _ => return Err(MigrationError::Crashed { step }),
            }
        }
    }

    /// One uncached store of the full journal record.
    fn journal_store(&self, server: &FusionServer, rec: &JournalRecord, now: SimTime) -> SimTime {
        let a = server.fabric().borrow_mut().write_uncached(
            self.coord_node,
            self.journal_base,
            &rec.encode(),
            now,
        );
        a.end
    }

    /// One uncached 8-byte store of just the state word (atomic in the
    /// model — this is what makes `COMMITTING` a commit *point*).
    fn state_store(&self, server: &FusionServer, state: MigrationState, now: SimTime) -> SimTime {
        let a = server.fabric().borrow_mut().write_uncached(
            self.coord_node,
            self.journal_base,
            &state.word().to_le_bytes(),
            now,
        );
        a.end
    }

    /// Read and decode the journal record (one uncached load).
    pub fn read_journal(&self, server: &FusionServer, now: SimTime) -> (JournalRecord, SimTime) {
        let mut buf = [0u8; MIG_JOURNAL_BYTES as usize];
        let a = server.fabric().borrow_mut().read_uncached(
            self.coord_node,
            self.journal_base,
            &mut buf,
            now,
        );
        (JournalRecord::decode(&buf), a.end)
    }

    /// Phase 1: write-protect the donor range, journal the intent
    /// (`PREPARED`), and flush the donor's dirty frames so the bytes in
    /// CXL are current. Idempotent per plan: re-preparing the in-flight
    /// plan is a no-op re-entry point for retry loops.
    pub fn prepare(
        &mut self,
        server: &mut FusionServer,
        plan: MigrationPlan,
        now: SimTime,
    ) -> Result<SimTime, MigrationError> {
        if let Some(cur) = self.inflight {
            if cur == plan {
                return Ok(now);
            }
            return Err(MigrationError::Busy { seq: self.seq });
        }
        if plan.lease.client != plan.donor {
            return Err(MigrationError::WrongOwner {
                lease: plan.lease,
                expected: plan.donor,
            });
        }
        // Write-protect first (pure control plane): from here on the
        // harness refuses donor writes into the range, so the flush
        // below cannot be invalidated by a racing write.
        self.seq += 1;
        self.inflight = Some(plan);
        let t = match self.gate(MigrationStep::Prepare, now) {
            Ok(t) => t,
            Err(e) => {
                // Nothing durable yet: the volatile protect dies with
                // the coordinator, the old partition stands.
                self.inflight = None;
                return Err(e);
            }
        };
        let rec = JournalRecord {
            state: MigrationState::Prepared,
            seq: self.seq,
            donor: plan.donor,
            recipient: plan.recipient,
            from: plan.from,
            count: plan.count,
            lease_offset: plan.lease.offset,
            lease_size: plan.lease.size,
        };
        let mut t = self.journal_store(server, &rec, t);
        self.stats.prepares += 1;
        // Flush the donor's cached lines for every mapped page in the
        // range: after this, CXL holds every committed byte. Gated per
        // page — a crash mid-flush leaves a PREPARED intent to roll
        // back.
        let page_size = server.page_size();
        for p in plan.from.0..plan.from.0 + plan.count {
            let Some(addr) = server.slot_of(PageId(p)) else {
                continue;
            };
            t = self.gate(MigrationStep::Flush, t)?;
            let a = server
                .fabric()
                .borrow_mut()
                .clflush(plan.donor, addr, page_size as usize, t);
            t = a.end;
            self.stats.pages_flushed += 1;
        }
        Ok(t)
    }

    /// Phase 2: flip the journal to `COMMITTING` (the commit point),
    /// transfer the lease in place, drop the donor from the directory,
    /// bulk-adopt on the recipient, retire the intent. Every step
    /// idempotent; a crash anywhere after the commit point is replayed
    /// forward by [`MigrationCoordinator::recover`].
    ///
    /// The one precondition that can fail — the donor still holds the
    /// lease — is checked *before* the commit point: if a third node
    /// holds it, the intent is [`abort`](Self::abort)ed and
    /// [`MigrationError::DonorReplaced`] names the holder.
    pub fn commit(
        &mut self,
        server: &mut FusionServer,
        mgr: &mut CxlMemoryManager,
        donor: &mut SharingNode,
        recipient: &mut SharingNode,
        now: SimTime,
    ) -> Result<SimTime, MigrationError> {
        let Some(plan) = self.inflight else {
            return Err(MigrationError::NotInFlight);
        };
        let holder = mgr.lease_at(plan.lease.offset, plan.lease.size);
        if let Some(successor) = holder
            .map(|l| l.client)
            .filter(|&c| c != plan.donor && c != plan.recipient)
        {
            self.abort(server, now)?;
            return Err(MigrationError::DonorReplaced { successor });
        }
        let t = self.gate(MigrationStep::Reassign, now)?;
        let t = self.state_store(server, MigrationState::Committing, t);
        let t = self.roll_forward(server, mgr, plan, Some(donor), Some(recipient), t)?;
        self.stats.commits += 1;
        Ok(t)
    }

    /// Everything past the commit point, every step idempotent: transfer
    /// the lease in place from `plan.donor` — the node that holds it
    /// *now* — drop that node from the directory and its agent's entries,
    /// bulk-adopt on the recipient, retire the intent. A missing donor
    /// agent is skipped; a missing recipient agent leaves the server-side
    /// hand-off, which repairs the directory directly.
    fn roll_forward(
        &mut self,
        server: &mut FusionServer,
        mgr: &mut CxlMemoryManager,
        plan: MigrationPlan,
        donor: Option<&mut SharingNode>,
        recipient: Option<&mut SharingNode>,
        now: SimTime,
    ) -> Result<SimTime, MigrationError> {
        let t = self.gate(MigrationStep::Reassign, now)?;
        let t = self.reassign_lease(mgr, plan.lease.offset, plan.lease.size, plan, t)?;
        let t = self.gate(MigrationStep::Reassign, t)?;
        let t = server.migrate_out(plan.donor, plan.from, plan.count, t);
        if let Some(donor) = donor {
            donor.forget_range(plan.from, plan.count);
        }
        let t = self.gate(MigrationStep::Adopt, t)?;
        let t = match recipient {
            Some(node) => node.adopt(server, plan.from, plan.count, t).1,
            None => {
                server
                    .adopt_range(plan.recipient, plan.from, plan.count, t)
                    .1
            }
        };
        let t = self.gate(MigrationStep::Retire, t)?;
        let t = self.state_store(server, MigrationState::Retired, t);
        self.inflight = None;
        Ok(t)
    }

    /// Idempotent in-place lease transfer: reassign if the donor still
    /// owns the extent, succeed silently if the recipient already does
    /// (a recovery replay), fail typed otherwise.
    fn reassign_lease(
        &mut self,
        mgr: &mut CxlMemoryManager,
        offset: u64,
        size: u64,
        plan: MigrationPlan,
        now: SimTime,
    ) -> Result<SimTime, MigrationError> {
        let Some(cur) = mgr.lease_at(offset, size) else {
            return Err(MigrationError::LeaseUnknown { offset, size });
        };
        if cur.client == plan.recipient {
            return Ok(now);
        }
        if cur.client != plan.donor {
            return Err(MigrationError::WrongOwner {
                lease: cur,
                expected: plan.donor,
            });
        }
        match mgr.reassign(cur, plan.recipient, now) {
            Ok((_, t)) => Ok(t),
            // The lease was looked up just above; a miss here means the
            // manager mutated underneath us — surface it typed.
            Err(_) => Err(MigrationError::LeaseUnknown { offset, size }),
        }
    }

    /// Roll an in-flight `PREPARED` intent back (COMMIT never started):
    /// clear the write-protect and retire the intent as `ABORTED`. The
    /// donor's leases were never touched, so there is nothing to
    /// restore — the old partition simply stands.
    pub fn abort(
        &mut self,
        server: &mut FusionServer,
        now: SimTime,
    ) -> Result<SimTime, MigrationError> {
        if self.inflight.is_none() {
            return Err(MigrationError::NotInFlight);
        }
        let t = self.gate(MigrationStep::Retire, now)?;
        let t = self.state_store(server, MigrationState::Aborted, t);
        self.inflight = None;
        self.stats.rollbacks += 1;
        Ok(t)
    }

    /// Crash recovery: read the journal and finish what it says.
    /// `PREPARED` rolls back (old partition), `COMMITTING` rolls
    /// forward through the same idempotent steps (new partition),
    /// anything else is quiescent. `nodes` should contain the tenants'
    /// sharing agents so node-side metadata (donor entries, recipient
    /// adoption) is restored too; server-side state is repaired either
    /// way. Safe to call on a fresh coordinator — everything it needs
    /// is in CXL.
    pub fn recover(
        &mut self,
        server: &mut FusionServer,
        mgr: &mut CxlMemoryManager,
        nodes: &mut [SharingNode],
        now: SimTime,
    ) -> Result<(RecoveryAction, SimTime), MigrationError> {
        let (rec, t) = self.read_journal(server, now);
        self.seq = self.seq.max(rec.seq);
        match rec.state {
            MigrationState::Idle | MigrationState::Retired | MigrationState::Aborted => {
                self.inflight = None;
                Ok((RecoveryAction::Nothing, t))
            }
            MigrationState::Prepared => {
                // COMMIT never started: the donor's leases are intact,
                // its cache was only flushed. Retire the intent.
                let t = self.gate(MigrationStep::Retire, t)?;
                let t = self.state_store(server, MigrationState::Aborted, t);
                self.inflight = None;
                self.stats.rollbacks += 1;
                Ok((RecoveryAction::RolledBack { seq: rec.seq }, t))
            }
            MigrationState::Committing => {
                // The commit point passed: replay every remaining step.
                // A takeover may have re-leased the donor's extent since
                // (the coordinator died between the commit point and the
                // lease transfer): its successor holds what the donor
                // held, and stands in for it.
                let donor = mgr
                    .lease_at(rec.lease_offset, rec.lease_size)
                    .map(|l| l.client)
                    .filter(|&c| c != rec.recipient)
                    .unwrap_or(rec.donor);
                let plan = MigrationPlan {
                    donor,
                    recipient: rec.recipient,
                    from: rec.from,
                    count: rec.count,
                    lease: Lease {
                        client: donor,
                        offset: rec.lease_offset,
                        size: rec.lease_size,
                    },
                };
                let (mut from, mut to) = (None, None);
                for node in nodes.iter_mut() {
                    // lint: order-insensitive (slice, not a hash map)
                    if node.id() == plan.donor {
                        from = Some(node);
                    } else if node.id() == plan.recipient {
                        to = Some(node);
                    }
                }
                let t = self.roll_forward(server, mgr, plan, from, to, t)?;
                self.stats.rolled_forward += 1;
                Ok((RecoveryAction::RolledForward { seq: rec.seq }, t))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Elastic controller: lane counters → grow/shrink plans.
// ---------------------------------------------------------------------------

/// Controller knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticConfig {
    /// Smallest number of extents a tenant can be shrunk to.
    pub min_extents: usize,
    /// Consecutive pressured quanta before a plan fires (hysteresis
    /// against one-window spikes).
    pub fire_streak: u32,
    /// Quanta to wait after a migration before planning another.
    pub cool_quanta: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            min_extents: 1,
            fire_streak: 2,
            cool_quanta: 2,
        }
    }
}

/// A grow/shrink plan emitted by the controller: move `extent` from its
/// current owner to `recipient`. The harness maps it to a
/// [`MigrationPlan`] and drives the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRequest {
    /// Extent index to move.
    pub extent: usize,
    /// Current owner (donor tenant index).
    pub donor: usize,
    /// Growing tenant index.
    pub recipient: usize,
}

/// Barrier-time elasticity controller. Owns the extent→tenant map and
/// turns per-tenant pressure flags plus per-extent remote-op counts
/// into one migration request at a time, with hysteresis on entry and
/// a cooldown between moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticController {
    cfg: ElasticConfig,
    /// Extent → owning tenant index.
    owner: Vec<usize>,
    /// Per-tenant consecutive pressured quanta.
    streak: Vec<u32>,
    /// Quanta left before the next plan may fire.
    cool: u32,
    /// Migrations applied.
    moves: u64,
}

impl ElasticController {
    /// Controller over `owner[extent] = tenant` with `tenants` tenants.
    pub fn new(owner: Vec<usize>, tenants: usize, cfg: ElasticConfig) -> Self {
        ElasticController {
            cfg,
            owner,
            streak: vec![0; tenants],
            cool: 0,
            moves: 0,
        }
    }

    /// Current owner of `extent`.
    pub fn owner(&self, extent: usize) -> usize {
        self.owner.get(extent).copied().unwrap_or(usize::MAX)
    }

    /// The full extent→tenant map.
    pub fn owners(&self) -> &[usize] {
        &self.owner
    }

    /// Number of extents owned by `tenant`.
    pub fn share(&self, tenant: usize) -> usize {
        self.owner.iter().filter(|&&o| o == tenant).count()
    }

    /// Migrations applied so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// One quantum barrier: update hysteresis from `pressured[t]` (the
    /// tenant served too much of its quantum storage-direct) and, if a
    /// tenant has been pressured for `fire_streak` quanta, plan to grow
    /// it by the extent it most often had to serve storage-direct
    /// (`remote_ops[t][e]`, ties to the lowest extent id —
    /// deterministic). Donors below `min_extents` are never shrunk.
    pub fn tick(
        &mut self,
        pressured: &[bool],
        remote_ops: &[Vec<u64>],
    ) -> Option<MigrationRequest> {
        for (t, s) in self.streak.iter_mut().enumerate() {
            if pressured.get(t).copied().unwrap_or(false) {
                *s += 1;
            } else {
                *s = 0;
            }
        }
        if self.cool > 0 {
            self.cool -= 1;
            return None;
        }
        // Growing tenant: highest remote-op total among those over the
        // streak threshold; ties to the lowest tenant index.
        let mut grow: Option<(u64, usize)> = None;
        for (t, s) in self.streak.iter().enumerate() {
            if *s < self.cfg.fire_streak {
                continue;
            }
            let total: u64 = remote_ops.get(t).map(|v| v.iter().sum()).unwrap_or(0);
            if total == 0 {
                continue;
            }
            if grow.is_none_or(|(best, _)| total > best) {
                grow = Some((total, t));
            }
        }
        let (_, recipient) = grow?;
        // Its hottest foreign extent whose owner can still shrink.
        let mut pick: Option<(u64, usize)> = None;
        for (e, &ops) in remote_ops.get(recipient)?.iter().enumerate() {
            if ops == 0 || self.owner.get(e).copied() == Some(recipient) {
                continue;
            }
            let donor = self.owner.get(e).copied()?;
            if self.share(donor) <= self.cfg.min_extents {
                continue;
            }
            if pick.is_none_or(|(best, _)| ops > best) {
                pick = Some((ops, e));
            }
        }
        let (_, extent) = pick?;
        Some(MigrationRequest {
            extent,
            donor: self.owner[extent],
            recipient,
        })
    }

    /// Record a committed migration: the extent changes hands and the
    /// cooldown starts. (On a rolled-back migration, don't call this —
    /// the old map stands.)
    pub fn apply(&mut self, req: MigrationRequest) {
        if let Some(o) = self.owner.get_mut(req.extent) {
            *o = req.recipient;
            self.moves += 1;
            self.cool = self.cfg.cool_quanta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxl_bp::SharedCxl;
    use crate::fusion::SharedStore;
    use memsim::{CxlNodeConfig, CxlPool};
    use simkit::faults::{Action, FaultPlan, Trigger};
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage::PageStore;

    const PAGES: u64 = 8;
    const PAGE: u64 = 1024;
    const JOURNAL: u64 = 256 << 10;

    /// Two tenants (nodes 0, 1), a fusion server (node 2), a manager
    /// lease per 4-page extent, and the journal above the flag arrays.
    fn setup() -> (
        FusionServer,
        CxlMemoryManager,
        Vec<SharingNode>,
        MigrationCoordinator,
    ) {
        let cfg = CxlNodeConfig {
            cache_bytes: 1 << 20,
            capture: true,
            ..CxlNodeConfig::default()
        };
        let cxl: SharedCxl = Rc::new(RefCell::new(CxlPool::new(1 << 20, [cfg, cfg, cfg])));
        let mut store = PageStore::with_page_size(64, PAGE);
        for p in 0..PAGES {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; PAGE as usize]);
        }
        let store: SharedStore = Rc::new(RefCell::new(store));
        let mut server = FusionServer::new(Rc::clone(&cxl), NodeId(2), 0, PAGES as u32, store);
        server.register_node(NodeId(0), 64 << 10);
        server.register_node(NodeId(1), 96 << 10);
        let mut mgr = CxlMemoryManager::new(PAGES * PAGE);
        // One lease per 4-page extent: extent 0 → tenant 0, 1 → 1.
        for (e, client) in [(0u64, NodeId(0)), (1, NodeId(1))] {
            let (lease, _) = mgr
                .allocate(client, 4 * PAGE, SimTime::ZERO)
                .expect("pool sized for both extents");
            assert_eq!(lease.offset, e * 4 * PAGE);
        }
        let mut nodes = vec![
            SharingNode::new(NodeId(0), 64 << 10, PAGE),
            SharingNode::new(NodeId(1), 96 << 10, PAGE),
        ];
        // Warm each tenant's extent.
        let mut buf = [0u8; 8];
        for p in 0..PAGES {
            let t = (p / 4) as usize;
            nodes[t].read(&mut server, PageId(p), 0, &mut buf, SimTime::ZERO);
        }
        let coord = MigrationCoordinator::new(NodeId(2), JOURNAL);
        (server, mgr, nodes, coord)
    }

    fn plan(mgr: &CxlMemoryManager) -> MigrationPlan {
        let lease = mgr.lease_at(0, 4 * PAGE).expect("extent 0 lease");
        MigrationPlan {
            donor: NodeId(0),
            recipient: NodeId(1),
            from: PageId(0),
            count: 4,
            lease,
        }
    }

    /// Both tenants' active sets are disjoint and the invariants hold.
    fn check_partition(server: &FusionServer, mgr: &CxlMemoryManager) {
        mgr.check_invariants();
        assert_eq!(server.pages_in_use() + server.free_slots(), PAGES as usize);
    }

    #[test]
    fn happy_path_moves_the_range_and_retires() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        // Donor commits a write before the migration.
        let t = nodes[0].write(&mut server, PageId(1), 0, &[0xAB; 8], SimTime::ZERO);
        let t = nodes[0].publish(&mut server, PageId(1), t);
        let p = plan(&mgr);
        let t = coord.prepare(&mut server, p, t).expect("prepare");
        assert!(coord.write_protected(PageId(1)));
        assert!(!coord.write_protected(PageId(4)));
        let (rec, t) = coord.read_journal(&server, t);
        assert_eq!(rec.state, MigrationState::Prepared);
        assert_eq!(rec.count, 4);
        let (d, r) = nodes.split_at_mut(1);
        let t = coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect("commit");
        assert!(!coord.write_protected(PageId(1)));
        let (rec, t) = coord.read_journal(&server, t);
        assert_eq!(rec.state, MigrationState::Retired);
        // Lease transferred in place.
        let lease = mgr.lease_at(0, 4 * PAGE).expect("lease survives");
        assert_eq!(lease.client, NodeId(1));
        // No lost committed write: the recipient reads the donor's
        // published bytes without a storage fill.
        let fills = server.stats().storage_fills;
        let mut buf = [0u8; 8];
        nodes[1].read(&mut server, PageId(1), 0, &mut buf, t);
        assert_eq!(buf, [0xAB; 8]);
        assert_eq!(server.stats().storage_fills, fills);
        check_partition(&server, &mgr);
        assert_eq!(coord.stats().commits, 1);
        assert_eq!(coord.stats().pages_flushed, 4);
    }

    #[test]
    fn crash_before_commit_rolls_back() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        let p = plan(&mgr);
        let t = coord
            .prepare(&mut server, p, SimTime::ZERO)
            .expect("prepare");
        // Coordinator dies at the commit point's gate.
        faults::install(
            FaultPlan::count_only()
                .with(Trigger::SiteHit(FaultSite::MigReassign, 0), Action::Crash),
        );
        let (d, r) = nodes.split_at_mut(1);
        let err = coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect_err("gate kills the coordinator");
        assert_eq!(
            err,
            MigrationError::Crashed {
                step: MigrationStep::Reassign
            }
        );
        faults::clear();
        // A fresh coordinator recovers from the journal alone.
        let mut coord2 = MigrationCoordinator::new(NodeId(2), JOURNAL);
        let (action, _) = coord2
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("recovery");
        assert_eq!(action, RecoveryAction::RolledBack { seq: 1 });
        // Old partition stands: donor still owns the lease.
        assert_eq!(mgr.lease_at(0, 4 * PAGE).map(|l| l.client), Some(NodeId(0)));
        check_partition(&server, &mgr);
    }

    #[test]
    fn crash_after_commit_point_rolls_forward() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        let t = nodes[0].write(&mut server, PageId(2), 0, &[0xCD; 8], SimTime::ZERO);
        let t = nodes[0].publish(&mut server, PageId(2), t);
        let p = plan(&mgr);
        let t = coord.prepare(&mut server, p, t).expect("prepare");
        // Die at the adopt gate: COMMITTING is durable, reassign and
        // migrate_out already ran.
        faults::install(
            FaultPlan::count_only().with(Trigger::SiteHit(FaultSite::MigAdopt, 0), Action::Crash),
        );
        let (d, r) = nodes.split_at_mut(1);
        let err = coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect_err("gate kills the coordinator");
        assert_eq!(
            err,
            MigrationError::Crashed {
                step: MigrationStep::Adopt
            }
        );
        faults::clear();
        let mut coord2 = MigrationCoordinator::new(NodeId(2), JOURNAL);
        let (action, t) = coord2
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("recovery");
        assert_eq!(action, RecoveryAction::RolledForward { seq: 1 });
        // New partition stands, and the donor's committed write is
        // readable by the recipient straight out of CXL.
        assert_eq!(mgr.lease_at(0, 4 * PAGE).map(|l| l.client), Some(NodeId(1)));
        let fills = server.stats().storage_fills;
        let mut buf = [0u8; 8];
        nodes[1].read(&mut server, PageId(2), 0, &mut buf, t);
        assert_eq!(buf, [0xCD; 8]);
        assert_eq!(server.stats().storage_fills, fills);
        check_partition(&server, &mgr);
        // Recovery is idempotent: a second pass finds a retired intent.
        let (action, _) = coord2
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("idempotent recovery");
        assert_eq!(action, RecoveryAction::Nothing);
    }

    #[test]
    fn donor_replaced_after_commit_point_rolls_forward_from_the_successor() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        // A standby (node 2) that can take the donor's place.
        server.register_node(NodeId(2), 128 << 10);
        nodes.push(SharingNode::new(NodeId(2), 128 << 10, PAGE));
        let t = nodes[0].write(&mut server, PageId(2), 0, &[0xEF; 8], SimTime::ZERO);
        let t = nodes[0].publish(&mut server, PageId(2), t);
        let p = plan(&mgr);
        let t = coord.prepare(&mut server, p, t).expect("prepare");
        // The coordinator dies at the second reassign gate: COMMITTING
        // is durable, the lease is still the donor's.
        faults::install(
            FaultPlan::count_only()
                .with(Trigger::SiteHit(FaultSite::MigReassign, 1), Action::Crash),
        );
        let (d, r) = nodes.split_at_mut(1);
        let err = coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect_err("gate kills the coordinator");
        assert_eq!(
            err,
            MigrationError::Crashed {
                step: MigrationStep::Reassign
            }
        );
        faults::clear();
        assert_eq!(
            coord.read_journal(&server, t).0.state,
            MigrationState::Committing
        );
        // The donor dies too, and a takeover hands its extent to the
        // standby before anyone recovers the coordinator.
        let (_, t) = mgr.reassign(p.lease, NodeId(2), t).expect("re-lease");
        let (_, t) = nodes[2].adopt(&mut server, p.from, p.count, t);
        let t = server.reclaim_node(NodeId(0), t);
        let mut coord2 = MigrationCoordinator::new(NodeId(2), JOURNAL);
        let (action, t) = coord2
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("recovery rolls forward from the successor, not into WrongOwner");
        assert_eq!(action, RecoveryAction::RolledForward { seq: 1 });
        // The lease ends at the recipient, the successor is out of the
        // directory, and the donor's committed write is read out of CXL.
        assert_eq!(mgr.lease_at(0, 4 * PAGE).map(|l| l.client), Some(NodeId(1)));
        let dir = server.dir_snapshot();
        for page in 0..4 {
            assert_eq!(dir.active(PageId(page)), &[NodeId(1)]);
        }
        let fills = server.stats().storage_fills;
        let mut buf = [0u8; 8];
        nodes[1].read(&mut server, PageId(2), 0, &mut buf, t);
        assert_eq!(buf, [0xEF; 8]);
        assert_eq!(server.stats().storage_fills, fills);
        check_partition(&server, &mgr);
        let (action, _) = coord2
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("idempotent recovery");
        assert_eq!(action, RecoveryAction::Nothing);
    }

    #[test]
    fn donor_replaced_before_commit_aborts_short_of_the_commit_point() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        let p = plan(&mgr);
        let t = coord
            .prepare(&mut server, p, SimTime::ZERO)
            .expect("prepare");
        // A takeover re-leases the dead donor's extent to a third node
        // between PREPARE and COMMIT.
        let (_, t) = mgr.reassign(p.lease, NodeId(2), t).expect("re-lease");
        let (d, r) = nodes.split_at_mut(1);
        let err = coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect_err("the donor no longer holds the lease");
        assert_eq!(
            err,
            MigrationError::DonorReplaced {
                successor: NodeId(2)
            }
        );
        // The intent ended before its commit point: journal ABORTED,
        // protect cleared, one rollback, the successor keeps the lease.
        let (rec, t) = coord.read_journal(&server, t);
        assert_eq!(rec.state, MigrationState::Aborted);
        assert_eq!(coord.protected(), None);
        assert_eq!(coord.stats().rollbacks, 1);
        assert_eq!(coord.stats().commits, 0);
        assert_eq!(mgr.lease_at(0, 4 * PAGE).map(|l| l.client), Some(NodeId(2)));
        check_partition(&server, &mgr);
        // Recovery has nothing to roll forward into the same error, and
        // the coordinator takes the next plan.
        let (action, t) = coord
            .recover(&mut server, &mut mgr, &mut nodes, t)
            .expect("recovery");
        assert_eq!(action, RecoveryAction::Nothing);
        let next = MigrationPlan {
            donor: NodeId(1),
            recipient: NodeId(0),
            from: PageId(4),
            count: 4,
            lease: mgr.lease_at(4 * PAGE, 4 * PAGE).expect("extent 1 lease"),
        };
        coord.prepare(&mut server, next, t).expect("re-plan");
    }

    #[test]
    fn transient_verdicts_are_retried_not_fatal() {
        let (mut server, mut mgr, mut nodes, mut coord) = setup();
        faults::install(FaultPlan::count_only().with(
            Trigger::SiteHit(FaultSite::MigPrepare, 0),
            Action::RdmaTransient {
                failures: 2,
                spike_ns: 5_000,
            },
        ));
        let p = plan(&mgr);
        let t = coord
            .prepare(&mut server, p, SimTime::ZERO)
            .expect("prepare retries");
        faults::clear();
        assert_eq!(coord.stats().transient_retries, 2);
        let (d, r) = nodes.split_at_mut(1);
        coord
            .commit(&mut server, &mut mgr, &mut d[0], &mut r[0], t)
            .expect("commit");
        check_partition(&server, &mgr);
    }

    #[test]
    fn controller_hysteresis_and_cooldown() {
        let cfg = ElasticConfig {
            min_extents: 1,
            fire_streak: 2,
            cool_quanta: 2,
        };
        // 4 extents: tenant 0 owns 0..3, tenant 1 owns 3.
        let mut ctl = ElasticController::new(vec![0, 0, 0, 1], 2, cfg);
        let remote = vec![vec![0, 0, 0, 0], vec![0, 7, 3, 0]];
        // One pressured quantum: below the streak, no plan.
        assert_eq!(ctl.tick(&[false, true], &remote), None);
        // Second consecutive quantum: plan fires for the hottest
        // foreign extent (1).
        let req = ctl.tick(&[false, true], &remote).expect("plan");
        assert_eq!(
            req,
            MigrationRequest {
                extent: 1,
                donor: 0,
                recipient: 1
            }
        );
        ctl.apply(req);
        assert_eq!(ctl.owner(1), 1);
        assert_eq!(ctl.share(0), 2);
        // Cooldown: pressured but silent for cool_quanta ticks.
        assert_eq!(ctl.tick(&[false, true], &remote), None);
        assert_eq!(ctl.tick(&[false, true], &remote), None);
        // Then it may fire again — next hottest foreign extent (2).
        let req = ctl.tick(&[false, true], &remote).expect("plan");
        assert_eq!(req.extent, 2);
        ctl.apply(req);
        // Donor at the min_extents floor is never shrunk further.
        let remote = vec![vec![0, 0, 0, 0], vec![9, 0, 0, 0]];
        assert_eq!(ctl.tick(&[false, true], &remote), None);
        assert_eq!(ctl.tick(&[false, true], &remote), None);
        assert_eq!(ctl.tick(&[false, true], &remote), None, "floor holds");
        assert_eq!(ctl.moves(), 2);
    }
}
