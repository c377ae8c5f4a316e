//! Membership changes over the slot table: what happens to a node's
//! active entries and flag words when the cluster changes shape —
//! reclaim after a declared death and bulk adoption by a standby. Every
//! operation returns early, touching nothing, for a node that never
//! registered a flag array.

use super::node::SharingNode;
use super::server::{invalid_flag_off, FusionServer};
use crate::manager::rpc_gate;
use memsim::NodeId;
use simkit::SimTime;
use storage::PageId;

impl FusionServer {
    /// Self-healing after [`FusionServer::fence_node`]: walk the DBP,
    /// clear the dead node's `invalid`/`removal` flag words, drop it
    /// from every slot's active list, and recycle slots only it was
    /// using. The node's pages stay in the DBP wherever a survivor is
    /// still active — the data in CXL outlived its writer. Returns the
    /// completion time.
    pub fn reclaim_node(&mut self, node: NodeId, now: SimTime) -> SimTime {
        let Some(&flag_base) = self.flag_bases.get(&node) else {
            return now;
        };
        // FastMap iteration order is not deterministic: collect and sort
        // before doing timed work.
        let mut touched: Vec<PageId> = self
            .map
            .iter()
            .filter(|(_, info)| info.active.contains(&node))
            .map(|(&page, _)| page)
            .collect();
        touched.sort_unstable();
        let mut t = now;
        for page in touched {
            // One 16-B store clears both of the node's flags for the page.
            t = self.store_uncached(invalid_flag_off(flag_base, page), &[0u8; 16], t);
            self.stats.reclaimed_flags += 1;
            let Some(info) = self.map.get_mut(&page) else {
                continue;
            };
            info.active.retain(|&n| n != node);
            if info.active.is_empty() {
                self.unmap(page);
                self.stats.reclaimed_slots += 1;
            }
        }
        t
    }

    /// Bulk directory fetch for standby adoption (PolarRecv-style): one
    /// RPC returns every mapped (page, CXL address) pair in
    /// `[from, from + count)`, registers `node` as active on each, and
    /// resets the node's flag words for the whole range with a single
    /// contiguous ntstore sweep. This is why takeover sits far under a
    /// storage replay: the directory is read wholesale, not resolved
    /// page by page. A node that never registered a flag array is
    /// granted nothing (this runs on the takeover path, where a panic
    /// would take the standby down with the failed node).
    pub fn adopt_range(
        &mut self,
        node: NodeId,
        from: PageId,
        count: u64,
        now: SimTime,
    ) -> (Vec<(PageId, u64)>, SimTime) {
        let Some(&flag_base) = self.flag_bases.get(&node) else {
            return (Vec::new(), now);
        };
        self.stats.rpcs += 1;
        let t = rpc_gate(now);
        let mut grants = Vec::new();
        for p in from.0..from.0 + count {
            let page = PageId(p);
            if let Some(info) = self.map.get_mut(&page) {
                if !info.active.contains(&node) {
                    info.active.push(node);
                }
                let slot = info.slot;
                self.lru.touch(slot);
                grants.push((page, self.slot_addr(slot)));
            }
        }
        // Flag words for a contiguous page range are contiguous in the
        // node's flag array: clear them in one sweep.
        let zeros = vec![0u8; (count * 16) as usize];
        let end = self.store_uncached(invalid_flag_off(flag_base, from), &zeros, t);
        (grants, end)
    }
}

impl SharingNode {
    /// Adopt every mapped page in `[from, from + count)` with a single
    /// bulk RPC ([`FusionServer::adopt_range`]) — the standby-takeover
    /// fast path. Returns (pages adopted, completion time).
    pub fn adopt(
        &mut self,
        server: &mut FusionServer,
        from: PageId,
        count: u64,
        now: SimTime,
    ) -> (u64, SimTime) {
        self.stats.rpcs += 1;
        let (grants, mut t) = server.adopt_range(self.node, from, count, now);
        let adopted = grants.len() as u64;
        let mut pool = server.fabric().borrow_mut();
        for (page, addr) in grants {
            t = self.install(&mut *pool, page, addr, t);
        }
        (adopted, t)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{self, setup, EPOCH_BASE};
    use super::super::FencingPolicy;
    use super::*;

    #[test]
    fn reclaim_heals_flags_slots_and_shared_pages_survive() {
        let (mut server, mut n0, mut n1) = setup();
        server.enable_fencing(FencingPolicy::Epoch, EPOCH_BASE);
        let (e0, _) = server.register_node_fenced(NodeId(0), 64 << 10, SimTime::ZERO);
        let (e1, _) = server.register_node_fenced(NodeId(1), 96 << 10, SimTime::ZERO);
        n0.enable_fencing(EPOCH_BASE, e0);
        n1.enable_fencing(EPOCH_BASE, e1);
        let mut buf = [0u8; 8];
        // Node 0 alone touches pages 2,3; both nodes share page 5.
        n0.read(&mut server, PageId(2), 0, &mut buf, SimTime::ZERO);
        n0.read(&mut server, PageId(3), 0, &mut buf, SimTime::ZERO);
        n0.read(&mut server, PageId(5), 0, &mut buf, SimTime::ZERO);
        n1.read(&mut server, PageId(5), 0, &mut buf, SimTime::ZERO);
        assert_eq!(server.pages_in_use(), 3);
        let t = server.fence_node(NodeId(0), SimTime::ZERO);
        let t = server.reclaim_node(NodeId(0), t);
        // Exclusive slots recycled, the shared page survives in the DBP.
        assert_eq!(server.pages_in_use(), 1);
        assert_eq!(server.stats().reclaimed_slots, 2);
        assert_eq!(server.stats().reclaimed_flags, 3);
        assert_eq!(
            server.pages_in_use() + server.free_slots(),
            16,
            "no leaked slots"
        );
        // The survivor still reads the shared page without a storage
        // round trip (its DBP copy survived its peer's death).
        let fills = server.stats().storage_fills;
        n1.read(&mut server, PageId(5), 0, &mut buf, t);
        assert_eq!(buf, [6u8; 8]);
        assert_eq!(server.stats().storage_fills, fills);
        // A standby re-registering the dead identity resumes at the
        // bumped epoch and works again.
        let (e0b, t) = server.register_node_fenced(NodeId(0), 64 << 10, t);
        assert_eq!(e0b, e0 + 1);
        let mut n0b = SharingNode::new(NodeId(0), 64 << 10, 1024);
        n0b.enable_fencing(EPOCH_BASE, e0b);
        n0b.guarded_write(&mut server, PageId(2), 0, &[7u8; 8], t)
            .expect("resurrected node writes at the new epoch");
    }

    #[test]
    fn membership_changes_for_an_unregistered_node_touch_nothing() {
        // Node 1 never registered a flag array (a standby whose
        // registration was lost, say). Every membership operation on the
        // takeover path must come back empty-handed instead of indexing
        // a flag base that is not there.
        let mut server = testkit::server();
        server.register_node(NodeId(0), 64 << 10);
        let mut n0 = SharingNode::new(NodeId(0), 64 << 10, 1024);
        let mut stray = SharingNode::new(NodeId(1), 96 << 10, 1024);
        let mut buf = [0u8; 8];
        let t = n0.read(&mut server, PageId(2), 0, &mut buf, SimTime::ZERO);
        let before = server.stats();
        let link = server.fabric().borrow().switch_bytes();
        assert_eq!(
            server.adopt_range(NodeId(1), PageId(0), 8, t),
            (Vec::new(), t)
        );
        assert_eq!(stray.adopt(&mut server, PageId(0), 8, t), (0, t));
        assert_eq!(server.reclaim_node(NodeId(1), t), t);
        assert_eq!(server.stats(), before);
        assert_eq!(server.fabric().borrow().switch_bytes(), link);
        // The registered node's directory entry is untouched.
        assert_eq!(server.dir_snapshot().active(PageId(2)), &[NodeId(0)]);
    }
}
