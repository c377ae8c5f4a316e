//! Epoch fencing against declared-dead writers: one 8-byte epoch word
//! per node in CXL. The server bumps a node's word when it declares the
//! node dead; the node re-validates its word (one uncached load) before
//! every guarded store or publish, so a zombie that is in fact alive can
//! never land a late write on a shared page.

use super::node::SharingNode;
use super::server::{FusionDir, FusionServer};
use memsim::{CxlFabric, NodeId};
use simkit::SimTime;
use storage::PageId;

/// Whether the fusion server enforces epoch fencing against declared-
/// dead writers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FencingPolicy {
    /// The availability protocol: on declared death the server bumps
    /// the node's epoch word in CXL; late stores/publishes from the
    /// fenced node are rejected.
    #[default]
    Epoch,
    /// Ablation: no fencing. A node declared dead that is actually
    /// alive (partition, long pause) can still publish — the capture-
    /// mode cache then makes the resulting stale reads observable.
    Disabled,
}

/// Byte offset of `node`'s epoch word within the epoch region.
pub fn epoch_off(epoch_base: u64, node: NodeId) -> u64 {
    epoch_base + node.0 as u64 * 8
}

impl FusionServer {
    /// Arm epoch fencing: per-node 8-byte epoch words live at
    /// `epoch_base` in CXL. Until this is called the server behaves
    /// exactly as before (no epoch traffic, no fencing checks).
    pub fn enable_fencing(&mut self, policy: FencingPolicy, epoch_base: u64) {
        self.fencing = policy;
        self.epoch_base = Some(epoch_base);
    }

    /// Register `node` under fencing: record its flag array, write its
    /// current epoch word to CXL and return `(grant_epoch, completion)`.
    /// The node passes the grant epoch to
    /// [`SharingNode::enable_fencing`]; a node re-registering after
    /// being fenced is resurrected at the *bumped* epoch (its zombie
    /// incarnation, holding the old grant, stays locked out).
    pub fn register_node_fenced(
        &mut self,
        node: NodeId,
        flag_base: u64,
        now: SimTime,
    ) -> (u64, SimTime) {
        self.register_node(node, flag_base);
        self.dead.retain(|&n| n != node);
        let epoch = *self.epochs.entry(node).or_insert(0);
        (epoch, self.write_epoch(node, epoch, now))
    }

    /// Declare `node` dead and fence it: bump its epoch word in CXL so
    /// every later guarded store/publish from its zombie incarnation is
    /// rejected. Idempotent. Returns the fence completion time (the
    /// single uncached store the paper's availability argument rests
    /// on).
    pub fn fence_node(&mut self, node: NodeId, now: SimTime) -> SimTime {
        if self.dead.contains(&node) {
            return now;
        }
        self.dead.push(node);
        self.stats.fenced_nodes += 1;
        let epoch = self.epochs.entry(node).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;
        self.write_epoch(node, epoch, now)
    }

    /// Mirror `node`'s epoch into its CXL word (nothing to write until
    /// [`FusionServer::enable_fencing`] placed the words).
    fn write_epoch(&self, node: NodeId, epoch: u64, now: SimTime) -> SimTime {
        match self.epoch_base {
            Some(base) => self.store_uncached(epoch_off(base, node), &epoch.to_le_bytes(), now),
            None => now,
        }
    }

    /// Whether a publish from `writer` must be rejected (declared dead
    /// under the epoch policy).
    pub(super) fn is_fenced(&self, writer: NodeId) -> bool {
        self.fencing == FencingPolicy::Epoch
            && self.epoch_base.is_some()
            && self.dead.contains(&writer)
    }
}

/// A guarded operation was refused because this node has been fenced:
/// the epoch word in CXL no longer matches the node's grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FencedError {
    /// The fenced node.
    pub node: NodeId,
    /// Epoch the node observed in CXL.
    pub observed_epoch: u64,
    /// Epoch the node was granted at registration.
    pub grant_epoch: u64,
}

impl std::fmt::Display for FencedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} fenced: observed epoch {} != grant epoch {}",
            self.node.0, self.observed_epoch, self.grant_epoch
        )
    }
}

impl std::error::Error for FencedError {}

/// Node-side fencing state (see [`SharingNode::enable_fencing`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct FenceGuard {
    /// CXL offset of this node's epoch word.
    epoch_off: u64,
    /// Epoch granted at registration.
    grant_epoch: u64,
}

impl SharingNode {
    /// Arm the node-side fencing guard with the grant returned by
    /// [`FusionServer::register_node_fenced`]. Guarded writes/publishes
    /// then re-validate the epoch word before touching shared state;
    /// without this call they are plain writes/publishes.
    pub fn enable_fencing(&mut self, epoch_base: u64, grant_epoch: u64) {
        self.fencing = Some(FenceGuard {
            epoch_off: epoch_off(epoch_base, self.node),
            grant_epoch,
        });
    }

    /// Validate this node's epoch word (one uncached 8-B load) through
    /// `fabric` — the pool, or this node's shard during a phase (epoch
    /// words are only ever *written* serially at barriers, so an
    /// uncached read through the shard observes the latest committed
    /// fence). Returns the completion time, or the typed fencing error
    /// if the server has declared this node dead.
    pub fn check_epoch_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        let Some(guard) = self.fencing else {
            return Ok(now);
        };
        let mut word = [0u8; 8];
        let a = fabric.read_uncached(self.node, guard.epoch_off, &mut word, now);
        let observed = u64::from_le_bytes(word);
        if observed != guard.grant_epoch {
            return Err(FencedError {
                node: self.node,
                observed_epoch: observed,
                grant_epoch: guard.grant_epoch,
            });
        }
        Ok(a.end)
    }

    /// Serial [`SharingNode::check_epoch_resident`], against the pool.
    pub fn check_epoch(
        &mut self,
        server: &FusionServer,
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        self.check_epoch_resident(&mut *server.fabric().borrow_mut(), now)
    }

    /// Fencing-aware [`SharingNode::write`]: re-validate the epoch word
    /// first, so a node the server has declared dead can never land a
    /// late store on a shared page.
    pub fn guarded_write(
        &mut self,
        server: &mut FusionServer,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        let t = self.check_epoch(server, now)?;
        Ok(self.write(server, page, off, data, t))
    }

    /// Fencing-aware [`SharingNode::publish`]: re-validate the epoch
    /// word before flushing dirty lines, so a fenced node's modified
    /// lines stay trapped in its dying CPU cache instead of reaching
    /// the shared pool.
    pub fn guarded_publish(
        &mut self,
        server: &mut FusionServer,
        page: PageId,
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        let t = self.check_epoch(server, now)?;
        Ok(self.publish(server, page, t))
    }

    /// Phase-capable [`SharingNode::guarded_write`].
    pub fn guarded_write_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        let t = self.check_epoch_resident(fabric, now)?;
        Ok(self.write_resident(fabric, page, off, data, t))
    }

    /// Phase-capable [`SharingNode::guarded_publish`].
    pub fn guarded_publish_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        dir: &FusionDir,
        page: PageId,
        now: SimTime,
    ) -> Result<SimTime, FencedError> {
        let t = self.check_epoch_resident(fabric, now)?;
        Ok(self.publish_resident(fabric, dir, page, t))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{setup, EPOCH_BASE};
    use super::*;

    #[test]
    fn fenced_node_cannot_write_or_publish() {
        let (mut server, mut n0, mut n1) = setup();
        server.enable_fencing(FencingPolicy::Epoch, EPOCH_BASE);
        let (e0, _) = server.register_node_fenced(NodeId(0), 64 << 10, SimTime::ZERO);
        let (e1, _) = server.register_node_fenced(NodeId(1), 96 << 10, SimTime::ZERO);
        n0.enable_fencing(EPOCH_BASE, e0);
        n1.enable_fencing(EPOCH_BASE, e1);
        let mut buf = [0u8; 8];
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        // Healthy node: guarded ops pass.
        let t = n0
            .guarded_write(&mut server, PageId(0), 0, &[0xAA; 8], SimTime::ZERO)
            .expect("live node writes");
        let t = n0.guarded_publish(&mut server, PageId(0), t).expect("live");
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [0xAA; 8]);
        // Declare node 0 dead: its next guarded op is refused.
        let t = server.fence_node(NodeId(0), t);
        let err = n0
            .guarded_write(&mut server, PageId(0), 0, &[0xEE; 8], t)
            .expect_err("fenced node must be rejected");
        assert_eq!(err.node, NodeId(0));
        assert_eq!(err.grant_epoch, e0);
        assert_eq!(err.observed_epoch, e0 + 1);
        assert_eq!(
            n0.guarded_publish(&mut server, PageId(0), t),
            Err(err),
            "late publish refused too"
        );
        // Fencing is idempotent; the server-side guard also counts.
        assert_eq!(server.fence_node(NodeId(0), t), t);
        server.publish(PageId(0), NodeId(0), t);
        assert_eq!(server.stats().fenced_nodes, 1);
        assert_eq!(server.stats().fenced_rejects, 1);
        // Readers still see the pre-fence committed value.
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [0xAA; 8]);
    }

    #[test]
    fn disabled_fencing_lets_a_zombie_corrupt_readers() {
        // The ablation: without fencing, a node declared dead but
        // actually alive publishes a late write and readers observe it
        // — the unsafe outcome the epoch protocol exists to prevent.
        let (mut server, mut n0, mut n1) = setup();
        server.enable_fencing(FencingPolicy::Disabled, EPOCH_BASE);
        server.register_node_fenced(NodeId(0), 64 << 10, SimTime::ZERO);
        server.register_node_fenced(NodeId(1), 96 << 10, SimTime::ZERO);
        // No node-side guards under the ablation policy.
        let mut buf = [0u8; 8];
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        let t = server.fence_node(NodeId(0), SimTime::ZERO);
        // The "dead" node keeps going: its write lands and publishes.
        let t = n0
            .guarded_write(&mut server, PageId(0), 0, &[0xEE; 8], t)
            .expect("no guard armed");
        let t = n0
            .guarded_publish(&mut server, PageId(0), t)
            .expect("no guard");
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(
            buf, [0xEE; 8],
            "without fencing the zombie's write reaches readers"
        );
        assert_eq!(server.stats().fenced_rejects, 0);
    }
}
