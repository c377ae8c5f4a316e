//! CXL-based data sharing for multi-primary databases (§3.3, Figure 6).
//!
//! A **buffer fusion server** manages the distributed buffer pool (DBP):
//! page slots in shared CXL memory, an in-use/free list with background
//! recycling, and per-(node, page) `invalid` / `removal` flags that also
//! live in CXL so the server can set them with a single store and nodes
//! can poll them with a single uncached load.
//!
//! The cache-coherency protocol (CXL 2.0 has none in hardware) piggybacks
//! on the distributed page write lock:
//!
//! - a writer holds the X page lock; on release it `clflush`es the lines
//!   it modified (64-B granularity — *not* the whole page) and the server
//!   stores `invalid := 1` for every other node where the page is active;
//! - a reader checks its `removal` flag (slot recycled? re-request via
//!   RPC) and its `invalid` flag (modified elsewhere? drop the CPU-cache
//!   copy, then read fresh lines from CXL).
//!
//! Because [`memsim::Cache`] runs in capture mode here, skipping any of
//! these steps produces *observably stale reads* — see the tests.
//!
//! # Module map
//!
//! One slot table, two concerns: `server` (the table itself — page
//! RPC, recycling, the server-issued publish, the [`FusionDir`]
//! snapshot) and `node` (the data plane: every step of the protocol
//! above, written once over [`memsim::CxlFabric`] for the serial and
//! the phase API).

mod node;
mod server;

pub use node::{CoherencyMode, SharingNode, SharingNodeStats};
pub use server::{
    invalid_flag_off, removal_flag_off, FusionDir, FusionServer, FusionStats, SharedStore,
};

/// The fixture every file's unit tests share.
#[cfg(test)]
mod testkit {
    use super::{FusionServer, SharedStore, SharingNode};
    use crate::cxl_bp::SharedCxl;
    use memsim::{CxlNodeConfig, CxlPool, NodeId};
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage::{PageId, PageStore};

    /// A 16-slot server (node 2) over one capture-mode pool, 16 pages of
    /// `page + 1` bytes in storage; nodes 0 and 1 get flag arrays at
    /// 64 KiB and 96 KiB but are not registered yet.
    pub(super) fn server() -> FusionServer {
        let cfg = CxlNodeConfig {
            cache_bytes: 1 << 20,
            capture: true,
            ..CxlNodeConfig::default()
        };
        let cxl: SharedCxl = Rc::new(RefCell::new(CxlPool::new(4 << 20, [cfg, cfg, cfg])));
        let mut store = PageStore::with_page_size(64, 1024);
        for p in 0..16u64 {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; 1024]);
        }
        let store: SharedStore = Rc::new(RefCell::new(store));
        // Layout: slots at 0..16 KiB; flag arrays above.
        FusionServer::new(cxl, NodeId(2), 0, 16, store)
    }

    /// Two registered software-coherency nodes + [`server`].
    pub(super) fn setup() -> (FusionServer, SharingNode, SharingNode) {
        let mut server = server();
        server.register_node(NodeId(0), 64 << 10);
        server.register_node(NodeId(1), 96 << 10);
        let n0 = SharingNode::new(NodeId(0), 64 << 10, 1024);
        let n1 = SharingNode::new(NodeId(1), 96 << 10, 1024);
        (server, n0, n1)
    }
}

/// Tests that span the files: the serial and the phase API agree.
#[cfg(test)]
mod tests {
    use super::testkit::{self, setup};
    use super::*;
    use memsim::NodeId;
    use simkit::SimTime;
    use std::rc::Rc;
    use storage::PageId;

    #[test]
    fn resident_protocol_matches_serial_across_a_barrier() {
        let (mut server, mut n0, mut n1) = setup();
        let mut buf = [0u8; 8];
        // Warm up serially: both nodes resolve page 0.
        n0.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        let dir = server.dir_snapshot();
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.active(PageId(0)).len(), 2);
        // Phase: each node steps on its own shard.
        let cxl = Rc::clone(server.fabric());
        let mut s0 = cxl.borrow_mut().detach_node(NodeId(0));
        let mut s1 = cxl.borrow_mut().detach_node(NodeId(1));
        let t = n0.write_resident(&mut s0, PageId(0), 0, &[0xAA; 8], SimTime::ZERO);
        let t = n0.publish_resident(&mut s0, &dir, PageId(0), t);
        assert_eq!(n0.stats().invalidations_sent, 1);
        // Same-quantum peer read still sees the old bytes (bounded
        // staleness: the publish lands at the barrier).
        n1.read_resident(&mut s1, PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [1u8; 8]);
        // Barrier: commit both shards in node order.
        let mut shards = [s0, s1];
        cxl.borrow_mut().barrier(&mut shards);
        let [s0, s1] = shards;
        cxl.borrow_mut().attach_node(s0);
        cxl.borrow_mut().attach_node(s1);
        server.absorb_invalidations(n0.stats().invalidations_sent);
        assert_eq!(server.stats().invalidations, 1);
        // Next quantum: the reader observes the invalid flag and fetches
        // fresh bytes — identical to the serial protocol outcome.
        let mut s1 = cxl.borrow_mut().detach_node(NodeId(1));
        n1.read_resident(&mut s1, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [0xAA; 8], "reader sees the published write");
        assert_eq!(n1.stats().invalid_drops, 1);
        cxl.borrow_mut().attach_node(s1);
    }

    #[test]
    fn serial_and_phase_steps_complete_at_the_same_times() {
        // One body per step: the same poll / store / flush sequence run
        // through the server against the pool and through the phase API
        // against the pool costs exactly the same, in every mode.
        for mode in [
            CoherencyMode::SoftwareLines,
            CoherencyMode::SoftwareFullPage,
        ] {
            let run = |phased: bool| {
                let mut server = testkit::server();
                server.register_node(NodeId(0), 64 << 10);
                let mut n0 = SharingNode::with_mode(NodeId(0), 64 << 10, 1024, mode);
                let (_, t) = n0.access(&mut server, PageId(3), SimTime::ZERO);
                let mut buf = [0u8; 8];
                let cxl = Rc::clone(server.fabric());
                if phased {
                    let mut guard = cxl.borrow_mut();
                    let pool = &mut *guard;
                    let t = n0.write_resident(pool, PageId(3), 100, &[7; 70], t);
                    let t = n0.publish_resident(pool, &server.dir_snapshot(), PageId(3), t);
                    (n0.read_resident(pool, PageId(3), 100, &mut buf, t), buf)
                } else {
                    let t = n0.write(&mut server, PageId(3), 100, &[7; 70], t);
                    let t = n0.publish(&mut server, PageId(3), t);
                    (n0.read(&mut server, PageId(3), 100, &mut buf, t), buf)
                }
            };
            assert_eq!(run(true), run(false), "{mode:?}");
        }
    }
}
