//! The buffer fusion server's slot table: which page sits in which DBP
//! slot, which nodes are active on it, the page-address RPC, LRU
//! recycling and the server-issued half of a publish — plus the
//! read-only [`FusionDir`] snapshot nodes use while the server is out
//! of reach during a parallel phase.

use crate::cxl_bp::SharedCxl;
use crate::manager::rpc_round_trip;
use bufferpool::lru::LruList;
use memsim::NodeId;
use simkit::FastMap;
use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use storage::{PageId, PageStore};

/// Shared storage service handle (multi-primary nodes share one volume).
pub type SharedStore = Rc<RefCell<PageStore>>;

/// Per-page DBP metadata on the fusion server.
#[derive(Debug)]
struct SlotInfo {
    slot: u32,
    /// Nodes that have this page in their local metadata buffer.
    active: Vec<NodeId>,
}

/// Statistics kept by the fusion server.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FusionStats {
    /// Page-address RPCs served.
    pub rpcs: u64,
    /// Slots recycled under allocation pressure.
    pub recycles: u64,
    /// Invalidation flag stores issued.
    pub invalidations: u64,
    /// Pages faulted in from storage.
    pub storage_fills: u64,
}

/// The buffer fusion server: allocates DBP slots from its CXL lease and
/// maintains coherency/removal flags.
pub struct FusionServer {
    cxl: SharedCxl,
    /// The server is itself a node on the fabric (its stores to flags
    /// ride its own host link).
    server_node: NodeId,
    /// DBP slots start here.
    slot_base: u64,
    nslots: u32,
    page_size: u64,
    map: FastMap<PageId, SlotInfo>,
    slot_page: Vec<Option<PageId>>,
    free: Vec<u32>,
    lru: LruList,
    /// Per registered node: base of its flag array in CXL.
    flag_bases: FastMap<NodeId, u64>,
    store: SharedStore,
    stats: FusionStats,
}

impl std::fmt::Debug for FusionServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionServer")
            .field("nslots", &self.nslots)
            .field("in_use", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Byte offset of the `invalid` flag for (flag array base, page).
pub fn invalid_flag_off(flag_base: u64, page: PageId) -> u64 {
    flag_base + page.0 * 16
}

/// Byte offset of the `removal` flag for (flag array base, page).
pub fn removal_flag_off(flag_base: u64, page: PageId) -> u64 {
    flag_base + page.0 * 16 + 8
}

impl FusionServer {
    /// Create a server managing `nslots` DBP slots at `slot_base` within
    /// the shared CXL pool.
    pub fn new(
        cxl: SharedCxl,
        server_node: NodeId,
        slot_base: u64,
        nslots: u32,
        store: SharedStore,
    ) -> Self {
        let page_size = store.borrow().page_size();
        FusionServer {
            cxl,
            server_node,
            slot_base,
            nslots,
            page_size,
            map: FastMap::default(),
            slot_page: vec![None; nslots as usize],
            free: (0..nslots).rev().collect(),
            lru: LruList::new(nslots as usize),
            flag_bases: FastMap::default(),
            store,
            stats: FusionStats::default(),
        }
    }

    /// Shared fabric handle. Nodes hold no fabric reference of their
    /// own; serial protocol methods borrow the pool through their
    /// server instead.
    pub fn fabric(&self) -> &SharedCxl {
        &self.cxl
    }

    /// Register a node and the CXL base of its flag array.
    pub fn register_node(&mut self, node: NodeId, flag_base: u64) {
        self.flag_bases.insert(node, flag_base);
    }

    /// Server statistics.
    pub fn stats(&self) -> FusionStats {
        self.stats
    }

    /// Number of pages currently in the DBP.
    pub fn pages_in_use(&self) -> usize {
        self.map.len()
    }

    /// Number of free DBP slots (`pages_in_use + free_slots == nslots`
    /// always holds).
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    fn slot_addr(&self, slot: u32) -> u64 {
        self.slot_base + slot as u64 * self.page_size
    }

    /// One uncached store from the server's own fabric port (every flag
    /// word and storage fill it writes). Returns completion.
    fn store_uncached(&self, off: u64, data: &[u8], now: SimTime) -> SimTime {
        self.cxl
            .borrow_mut()
            .write_uncached(self.server_node, off, data, now)
            .end
    }

    /// Serve a page-address request from `node` (the RPC of Figure 6).
    /// Returns (CXL data address, completion time).
    pub fn request_page(&mut self, page: PageId, node: NodeId, now: SimTime) -> (u64, SimTime) {
        self.stats.rpcs += 1;
        let mut t = rpc_round_trip(now);
        let slot = if let Some(info) = self.map.get_mut(&page) {
            if !info.active.contains(&node) {
                info.active.push(node);
            }
            self.lru.touch(info.slot);
            info.slot
        } else {
            let slot = if let Some(s) = self.free.pop() {
                s
            } else {
                t = self.recycle_slot(t);
                self.free.pop().expect("recycle yields a free slot")
            };
            // Fault the page in from shared storage.
            let mut buf = vec![0u8; self.page_size as usize];
            t = self.store.borrow_mut().read_page(page, &mut buf, t).end;
            self.stats.storage_fills += 1;
            t = self.store_uncached(self.slot_addr(slot), &buf, t);
            self.map.insert(
                page,
                SlotInfo {
                    slot,
                    active: vec![node],
                },
            );
            self.slot_page[slot as usize] = Some(page);
            self.lru.push_front(slot);
            slot
        };
        // Grant resets the requesting node's flags (one 16-B ntstore).
        let flag_base = self.flag_bases[&node];
        let granted = self.store_uncached(invalid_flag_off(flag_base, page), &[0u8; 16], t);
        (self.slot_addr(slot), granted)
    }

    /// Recycle the least-recently-used slot: set every active node's
    /// `removal` flag and free the slot (§3.3's recycle thread, run here
    /// on demand when the free list is empty). Returns completion time.
    pub fn recycle_slot(&mut self, now: SimTime) -> SimTime {
        let Some(victim) = self.lru.back() else {
            return now;
        };
        let page = self.slot_page[victim as usize]
            .take()
            .expect("LRU slot holds a page");
        let info = self.map.remove(&page).expect("mapped page");
        self.lru.remove(victim);
        self.free.push(victim);
        self.stats.recycles += 1;
        let mut t = now;
        for node in info.active {
            let foff = removal_flag_off(self.flag_bases[&node], page);
            t = self.store_uncached(foff, &1u64.to_le_bytes(), t);
        }
        t
    }

    /// Publish a write: after `writer` released the page's X lock (having
    /// `clflush`ed its modifications), set `invalid` for every *other*
    /// active node. Each flag update is one store — "generally completes
    /// within a few hundred nanoseconds".
    ///
    /// The one step the serial and the phase API do not share: here the
    /// server issues the stores; in a phase
    /// [`SharingNode::publish_resident`](super::SharingNode::publish_resident)
    /// issues them through the writer's own shard off a [`FusionDir`].
    pub fn publish(&mut self, page: PageId, writer: NodeId, now: SimTime) -> SimTime {
        let Some(info) = self.map.get(&page) else {
            return now;
        };
        let mut t = now;
        for &node in info.active.iter().filter(|&&n| n != writer) {
            let flag_base = self.flag_bases[&node];
            t = self.store_uncached(invalid_flag_off(flag_base, page), &1u64.to_le_bytes(), t);
            self.stats.invalidations += 1;
        }
        t
    }

    /// Snapshot the directory for one barrier quantum of parallel
    /// stepping: every currently mapped page's active set, plus every
    /// node's flag-array base. Drivers pre-resolve all pages at warmup
    /// (so no in-phase RPCs are ever needed) and re-snapshot at each
    /// barrier if the directory changed.
    pub fn dir_snapshot(&self) -> FusionDir {
        let mut pages = FastMap::default();
        // The snapshot maps are consulted by key only (never iterated),
        // so build order cannot reach simulated state.
        for (&page, info) in self.map.iter() {
            // lint: order-insensitive
            pages.insert(page, info.active.clone());
        }
        let max_node = self.flag_bases.keys().map(|n| n.0 + 1).max().unwrap_or(0); // lint: order-insensitive
        let mut flag_bases = vec![u64::MAX; max_node];
        for (&node, &base) in self.flag_bases.iter() {
            // lint: order-insensitive
            flag_bases[node.0] = base;
        }
        FusionDir { pages, flag_bases }
    }

    /// Fold invalidation-flag stores performed *by nodes* during a
    /// parallel phase (see [`SharingNode::publish_resident`](super::SharingNode::publish_resident))
    /// back into the server's counters, so [`FusionStats::invalidations`]
    /// keeps its meaning regardless of which side issued the stores.
    pub fn absorb_invalidations(&mut self, n: u64) {
        self.stats.invalidations += n;
    }
}

/// Read-only directory snapshot handed to nodes for one quantum of
/// barrier-synchronized parallel stepping (see
/// [`FusionServer::dir_snapshot`]).
///
/// During a phase the server is not consulted: nodes resolve peers'
/// flag addresses from this snapshot and perform the protocol's flag
/// stores through their *own* fabric shard — which keeps the cost
/// inside the writer's lock hold window, exactly where the serial
/// server RPC would have charged it. Directory *mutations* (first
/// touches, recycling) happen serially, outside the phase.
#[derive(Debug)]
pub struct FusionDir {
    /// page → nodes active on the page.
    pages: FastMap<PageId, Vec<NodeId>>,
    /// Flag-array base per node, indexed by `NodeId.0` (`u64::MAX` for
    /// unregistered ids).
    flag_bases: Vec<u64>,
}

impl FusionDir {
    /// Nodes active on `page` (empty if unmapped).
    pub fn active(&self, page: PageId) -> &[NodeId] {
        self.pages.get(&page).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Flag-array base of `node`.
    pub fn flag_base(&self, node: NodeId) -> u64 {
        let base = self.flag_bases.get(node.0).copied().unwrap_or(u64::MAX);
        assert_ne!(base, u64::MAX, "node {node:?} not registered in FusionDir");
        base
    }

    /// Number of pages in the snapshot.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::setup;
    use super::*;

    #[test]
    fn first_access_rpcs_then_hits_locally() {
        let (mut server, mut n0, _) = setup();
        let mut buf = [0u8; 8];
        n0.read(&mut server, PageId(3), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [4u8; 8]);
        assert_eq!(n0.stats().rpcs, 1);
        n0.read(&mut server, PageId(3), 0, &mut buf, SimTime::ZERO);
        assert_eq!(n0.stats().local_hits, 1);
        assert_eq!(server.stats().rpcs, 1);
    }

    #[test]
    fn recycle_sets_removal_and_nodes_reload() {
        let (mut server, mut n0, _) = setup();
        let mut buf = [0u8; 8];
        n0.read(&mut server, PageId(5), 0, &mut buf, SimTime::ZERO);
        let t = server.recycle_slot(SimTime::ZERO);
        assert_eq!(server.stats().recycles, 1);
        // Next access detects removal and re-requests.
        n0.read(&mut server, PageId(5), 0, &mut buf, t);
        assert_eq!(buf, [6u8; 8]);
        assert_eq!(n0.stats().removal_reloads, 1);
        assert_eq!(server.stats().rpcs, 2);
    }

    #[test]
    fn allocation_pressure_recycles_lru() {
        let (mut server, mut n0, _) = setup();
        let mut buf = [0u8; 8];
        // 16 slots; touch 16 pages, then one more.
        for p in 0..16u64 {
            n0.read(&mut server, PageId(p), 0, &mut buf, SimTime::ZERO);
        }
        assert_eq!(server.pages_in_use(), 16);
        n0.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO); // touch 0
                                                                     // A new page must evict the LRU (page 1, since 0 was re-touched).
                                                                     // We need a 17th page in storage:
        server.store.borrow_mut().allocate();
        n0.read(&mut server, PageId(16), 0, &mut buf, SimTime::ZERO);
        assert_eq!(server.stats().recycles, 1);
        assert_eq!(server.pages_in_use(), 16);
    }

    #[test]
    fn publish_skips_the_writer_itself() {
        let (mut server, mut n0, _) = setup();
        let t = n0.write(&mut server, PageId(0), 0, &[1; 4], SimTime::ZERO);
        n0.publish(&mut server, PageId(0), t);
        assert_eq!(server.stats().invalidations, 0, "no other node is active");
        // And the writer's own next access is a plain local hit.
        let mut buf = [0u8; 4];
        n0.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(n0.stats().invalid_drops, 0);
    }
}
