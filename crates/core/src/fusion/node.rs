//! The node data plane: [`SharingNode`] and the §3.3 steps it runs on
//! every shared-page access — look the page up locally, poll the
//! `invalid`/`removal` flag line, load; store, `clflush` exactly the
//! modified lines, set the peers' `invalid` flags.
//!
//! Every step that touches the fabric is written once, generic over
//! [`CxlFabric`]; the two public APIs differ only in who is reachable.
//! The **serial** API takes the live server: first-touch RPC and removal
//! re-request (the only steps that mutate the directory) go through it,
//! the step itself runs against the pool, and [`FusionServer::publish`]
//! issues the peers' `invalid` stores. The **phase** API (`*_resident`)
//! takes the node's detached [`memsim::CxlShard`] and a read-only
//! [`FusionDir`]: drivers resolve every page serially before the phase
//! and size the DBP so nothing is recycled, so a miss or a set removal
//! flag is a driver bug, and the node issues the peers' `invalid`
//! stores itself through its own shard.

use super::fencing::FenceGuard;
use super::server::{invalid_flag_off, FusionDir, FusionServer};
use memsim::{CxlFabric, NodeId};
use simkit::FastMap;
use simkit::SimTime;
use storage::PageId;

/// How a sharing node keeps its CPU cache coherent with peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherencyMode {
    /// The paper's §3.3 protocol: software `clflush` of exactly the
    /// modified lines + invalid-flag stores (CXL 2.0).
    #[default]
    SoftwareLines,
    /// Ablation: the software protocol but flushing the *whole page* on
    /// publish — what a naive port of page-granularity thinking costs.
    SoftwareFullPage,
}

/// Node-side statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct SharingNodeStats {
    /// Page accesses served without an RPC.
    pub local_hits: u64,
    /// Accesses that needed a fusion RPC (first touch or removal).
    pub rpcs: u64,
    /// Invalid-flag observations (cache drops).
    pub invalid_drops: u64,
    /// Removal-flag observations (slot re-requests).
    pub removal_reloads: u64,
    /// Peer invalid-flag stores issued directly by this node during
    /// parallel phases ([`SharingNode::publish_resident`]); the driver
    /// folds these into [`FusionStats::invalidations`](super::FusionStats::invalidations)
    /// via [`FusionServer::absorb_invalidations`].
    pub invalidations_sent: u64,
}

/// A database node participating in CXL data sharing.
pub struct SharingNode {
    pub(super) node: NodeId,
    /// Base of this node's flag array within the CXL pool.
    flag_base: u64,
    page_size: u64,
    mode: CoherencyMode,
    /// Local page metadata buffer: page → CXL data address.
    pub(super) entries: FastMap<PageId, u64>,
    /// Dirty line ranges of the page currently being written.
    dirty_ranges: Vec<(u64, usize)>,
    pub(super) stats: SharingNodeStats,
    /// `Some` once the node registered under fencing.
    pub(super) fencing: Option<FenceGuard>,
}

impl std::fmt::Debug for SharingNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharingNode")
            .field("node", &self.node)
            .field("entries", &self.entries.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// What one poll of a resolved page's flag line found.
enum Polled {
    /// The slot still holds the page; usable from this time on.
    Live(SimTime),
    /// The slot was recycled under the node: only the server can say
    /// where the page lives now.
    Removed(SimTime),
}

impl SharingNode {
    /// Create the node's sharing agent. `flag_base` is its flag-array
    /// lease (16 bytes per page id). The node holds no fabric handle —
    /// serial methods reach the pool through their `server` argument,
    /// and phase methods through the node's detached shard.
    pub fn new(node: NodeId, flag_base: u64, page_size: u64) -> Self {
        Self::with_mode(node, flag_base, page_size, CoherencyMode::SoftwareLines)
    }

    /// Create the agent with an explicit coherency mode (the
    /// full-page-flush ablation).
    pub fn with_mode(node: NodeId, flag_base: u64, page_size: u64, mode: CoherencyMode) -> Self {
        SharingNode {
            node,
            flag_base,
            page_size,
            mode,
            entries: FastMap::default(),
            dirty_ranges: Vec::new(),
            stats: SharingNodeStats::default(),
            fencing: None,
        }
    }

    /// This node's fabric identity.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Node statistics.
    pub fn stats(&self) -> SharingNodeStats {
        self.stats
    }

    // ---- The protocol steps, each written once over `CxlFabric` ------

    /// Flag poll: one uncached 16-B load covers both flags (same line).
    /// `removal` wins — the slot is gone, nothing else about it matters;
    /// otherwise a set `invalid` flag (modified by another node) drops
    /// the (clean) cached lines and clears the flag, so subsequent loads
    /// fetch fresh data.
    fn poll_flags<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        addr: u64,
        now: SimTime,
    ) -> Polled {
        let flag_off = invalid_flag_off(self.flag_base, page);
        let mut flags = [0u8; 16];
        let a = fabric.read_uncached(self.node, flag_off, &mut flags, now);
        let mut t = a.end;
        let word = |i: usize| flags[i..i + 8].iter().any(|&b| b != 0);
        if word(8) {
            return Polled::Removed(t);
        }
        if word(0) {
            self.stats.invalid_drops += 1;
            let inv = fabric.invalidate(self.node, addr, self.page_size as usize, t);
            let clear = fabric.write_uncached(self.node, flag_off, &0u64.to_le_bytes(), inv.end);
            t = clear.end;
        }
        self.stats.local_hits += 1;
        Polled::Live(t)
    }

    /// Take a granted slot into the local metadata buffer. The slot may
    /// have been recycled from a page this node cached under the same
    /// address: drop any stale lines for its range before first use.
    pub(super) fn install<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        addr: u64,
        now: SimTime,
    ) -> SimTime {
        let inv = fabric.invalidate(self.node, addr, self.page_size as usize, now);
        self.entries.insert(page, addr);
        inv.end
    }

    /// Load from a resolved page.
    fn load<F: CxlFabric>(&self, fabric: &mut F, at: u64, buf: &mut [u8], now: SimTime) -> SimTime {
        fabric.read(self.node, at, buf, now).end
    }

    /// Store to a resolved page: it lands in this node's CPU cache and
    /// the range is remembered for the release-time flush.
    fn store<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        at: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        self.dirty_ranges.push((at, data.len()));
        fabric.write(self.node, at, data, now).end
    }

    /// Release-time flush: `clflush` exactly the modified lines (64-B
    /// granularity, not the page!) — or, under the full-page ablation,
    /// the entire page regardless of what the transaction modified.
    fn flush_dirty<F: CxlFabric>(&mut self, fabric: &mut F, now: SimTime) -> SimTime {
        match self.mode {
            CoherencyMode::SoftwareLines => {
                let mut t = now;
                for (addr, len) in self.dirty_ranges.drain(..) {
                    t = fabric.clflush(self.node, addr, len, t).end;
                }
                t
            }
            CoherencyMode::SoftwareFullPage => {
                let Some(&(addr, _)) = self.dirty_ranges.first() else {
                    return now;
                };
                self.dirty_ranges.clear();
                let page_base = addr - (addr % self.page_size);
                let a = fabric.clflush(self.node, page_base, self.page_size as usize, now);
                a.end
            }
        }
    }

    // ---- Serial API: resolve through the server, step on the pool ----

    /// Resolve `page` to its CXL address, enforcing the removal/invalid
    /// protocol. Returns (address, completion time).
    pub fn access(
        &mut self,
        server: &mut FusionServer,
        page: PageId,
        now: SimTime,
    ) -> (u64, SimTime) {
        let t = match self.entries.get(&page).copied() {
            None => {
                self.stats.rpcs += 1;
                now
            }
            Some(addr) => {
                let polled = self.poll_flags(&mut *server.fabric().borrow_mut(), page, addr, now);
                match polled {
                    Polled::Live(t) => return (addr, t),
                    Polled::Removed(t) => {
                        // Slot recycled: forget and re-request.
                        self.stats.removal_reloads += 1;
                        self.entries.remove(&page);
                        t
                    }
                }
            }
        };
        let (addr, t) = server.request_page(page, self.node, t);
        let t = self.install(&mut *server.fabric().borrow_mut(), page, addr, t);
        (addr, t)
    }

    /// Read bytes from a shared page (caller holds at least the S page
    /// lock).
    pub fn read(
        &mut self,
        server: &mut FusionServer,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        let (addr, t) = self.access(server, page, now);
        self.load(&mut *server.fabric().borrow_mut(), addr + off, buf, t)
    }

    /// Write bytes to a shared page (caller holds the X page lock). The
    /// write lands in this node's CPU cache; call [`SharingNode::publish`]
    /// when releasing the lock.
    pub fn write(
        &mut self,
        server: &mut FusionServer,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let (addr, t) = self.access(server, page, now);
        self.store(&mut *server.fabric().borrow_mut(), addr + off, data, t)
    }

    /// Release-time publish: flush the modified lines and have the
    /// server set other nodes' invalid flags ([`FusionServer::publish`],
    /// which also refuses a fenced writer).
    pub fn publish(&mut self, server: &mut FusionServer, page: PageId, now: SimTime) -> SimTime {
        let t = self.flush_dirty(&mut *server.fabric().borrow_mut(), now);
        server.publish(page, self.node, t)
    }

    // ---- Phase API: every page pre-resolved, step on the given fabric --

    /// Phase-capable [`SharingNode::access`]: resolve `page` against
    /// the snapshot, polling this node's flag word through `fabric`.
    ///
    /// # Panics
    /// If the page was not pre-resolved, or its removal flag is set
    /// (recycling never happens mid-phase).
    pub fn access_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        now: SimTime,
    ) -> (u64, SimTime) {
        let Some(&addr) = self.entries.get(&page) else {
            panic!("page {page:?} not pre-resolved on node {:?}", self.node); // lint: fault-path panic
        };
        match self.poll_flags(fabric, page, addr, now) {
            Polled::Live(t) => (addr, t),
            Polled::Removed(_) => panic!("slot recycled mid-phase for page {page:?}"), // lint: fault-path panic
        }
    }

    /// Prefetch into the host's cache what a `*_resident` access of
    /// `len` bytes at `off` in `page` will load: this node's flag line
    /// for the page and the record's lines. A host-side hint through
    /// [`memsim::CxlShard::prefetch`] — nothing modelled changes. A page
    /// not resolved here is skipped.
    pub fn prefetch_resident(&self, shard: &memsim::CxlShard, page: PageId, off: u64, len: usize) {
        if let Some(&addr) = self.entries.get(&page) {
            shard.prefetch(invalid_flag_off(self.flag_base, page), 16);
            shard.prefetch(addr + off, len);
        }
    }

    /// Phase-capable [`SharingNode::read`] (caller holds ≥ S lock).
    pub fn read_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        let (addr, t) = self.access_resident(fabric, page, now);
        self.load(fabric, addr + off, buf, t)
    }

    /// Phase-capable [`SharingNode::write`] (caller holds the X lock).
    pub fn write_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let (addr, t) = self.access_resident(fabric, page, now);
        self.store(fabric, addr + off, data, t)
    }

    /// Phase-capable [`SharingNode::publish`]: flush the modified lines
    /// and store every *other* active node's invalid flag through this
    /// node's own fabric shard — the stores ride the writer's host link
    /// inside its lock hold window, and land (like all phase writes) at
    /// the next barrier.
    pub fn publish_resident<F: CxlFabric>(
        &mut self,
        fabric: &mut F,
        dir: &FusionDir,
        page: PageId,
        now: SimTime,
    ) -> SimTime {
        let mut t = self.flush_dirty(fabric, now);
        for &peer in dir.active(page).iter().filter(|&&peer| peer != self.node) {
            let foff = invalid_flag_off(dir.flag_base(peer), page);
            t = fabric
                .write_uncached(self.node, foff, &1u64.to_le_bytes(), t)
                .end;
            self.stats.invalidations_sent += 1;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::setup;
    use super::*;

    #[test]
    fn protocol_delivers_fresh_data_across_nodes() {
        let (mut server, mut n0, mut n1) = setup();
        let mut buf = [0u8; 8];
        // Node 1 reads and caches the page.
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [1u8; 8]);
        // Node 0 writes under the (externally held) X lock and publishes.
        let t = n0.write(&mut server, PageId(0), 0, &[0xAA; 8], SimTime::ZERO);
        let t = n0.publish(&mut server, PageId(0), t);
        // Node 1 reads again: invalid flag observed, cache dropped,
        // fresh bytes served.
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [0xAA; 8], "reader must see the published write");
        assert_eq!(n1.stats().invalid_drops, 1);
    }

    #[test]
    fn skipping_publish_leaves_readers_stale() {
        // The negative control: without the protocol, CXL 2.0 has no
        // coherency and the reader keeps serving its cached copy.
        let (mut server, mut n0, mut n1) = setup();
        let mut buf = [0u8; 8];
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        let t = n0.write(&mut server, PageId(0), 0, &[0xAA; 8], SimTime::ZERO);
        // No clflush, no invalidation:
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [1u8; 8], "stale read is expected without the protocol");
    }

    #[test]
    fn publish_flushes_only_modified_lines() {
        let (mut server, mut n0, mut n1) = setup();
        let mut buf = [0u8; 8];
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        let host0_before = server.fabric().borrow().host_link_bytes(0);
        let t = n0.write(&mut server, PageId(0), 100, &[0xBB; 10], SimTime::ZERO);
        n0.publish(&mut server, PageId(0), t);
        let moved = server.fabric().borrow().host_link_bytes(0) - host0_before;
        // The 10-byte write spans at most 2 lines; fills + flushes stay
        // far below a page.
        assert!(moved <= 4 * 64, "{moved} bytes moved; expected ≲4 lines");
    }

    #[test]
    fn full_page_flush_mode_moves_more_bytes() {
        let run = |mode: CoherencyMode| {
            let (mut server, _, _) = setup();
            let mut n0 = SharingNode::with_mode(NodeId(0), 64 << 10, 1024, mode);
            // Dirty a lot of lines first so the flush difference shows.
            let t = n0.write(&mut server, PageId(0), 0, &[9u8; 512], SimTime::ZERO);
            let before = server.fabric().borrow().host_link_bytes(0);
            n0.publish(&mut server, PageId(0), t);
            let after = server.fabric().borrow().host_link_bytes(0);
            after - before
        };
        let lines = run(CoherencyMode::SoftwareLines);
        let full = run(CoherencyMode::SoftwareFullPage);
        assert!(full >= lines, "full {full} vs lines {lines}");
        assert_eq!(lines, 512, "exactly the dirty lines");
    }
}
