//! The RDMA data-sharing baseline: PolarDB-MP's distributed buffer pool.
//!
//! What the paper compares against in §4.4: each node keeps a **local
//! buffer pool** of page copies; the shared DBP lives in remote memory
//! behind RDMA. The protocol synchronizes at *page* granularity:
//!
//! - a miss (or an invalidated copy) RDMA-reads the whole 16 KB page;
//! - releasing a write lock RDMA-writes the whole page back to the DBP —
//!   even for a one-byte change — prolonging the lock hold time;
//! - invalidations are RDMA messages to every other active node.
//!
//! Contrast with [`crate::fusion`]: no local copies at all, 64-B flush
//! granularity, and invalidation by a single CXL store.
//!
//! The amplification is a *virtual-time* fact: every page-in and
//! write-back charges the whole page to the NIC, and the host moves only
//! the bytes a statement touches (DESIGN.md, "Timing plane vs data
//! plane"). A local frame is residency and policy metadata, reads are
//! served in place from the remote region, and a write is a small
//! pending store that `publish` lands there.

use bufferpool::policy::PolicyKind;
use bufferpool::tiered::SharedRdma;
use bufferpool::Residency;
use memsim::calib::{DRAM_LOCAL_NS, DRAM_STREAM_NS_PER_LINE};
use memsim::shard::overlay;
use memsim::{NodeId, RdmaFabric};
use simkit::trace::{self, Lane};
use simkit::FastMap;
use simkit::SimTime;
use storage::PageId;

use crate::fusion::SharedStore;
use crate::manager::rpc_round_trip;

/// Local-DRAM access cost for `len` bytes (no cache model on this path;
/// both baselines' local tiers use the same approximation).
fn dram_cost_ns(len: usize) -> u64 {
    DRAM_LOCAL_NS + (len as u64).div_ceil(64).saturating_sub(1) * DRAM_STREAM_NS_PER_LINE
}

#[derive(Debug)]
struct SlotInfo {
    slot: u32,
    active: Vec<NodeId>,
}

/// Server statistics for the RDMA DBP.
#[derive(Debug, Default, Clone, Copy)]
pub struct RdmaDbpStats {
    /// Page-address RPCs served.
    pub rpcs: u64,
    /// Pages faulted in from storage.
    pub storage_fills: u64,
    /// Invalidation messages sent.
    pub invalidation_msgs: u64,
}

/// The DBP metadata server for the RDMA baseline.
pub struct RdmaDbp {
    rdma: SharedRdma,
    /// Host whose NIC carries server-side fills and invalidations.
    server_host: usize,
    slot_base: u64,
    nslots: u32,
    page_size: u64,
    map: FastMap<PageId, SlotInfo>,
    free: Vec<u32>,
    store: SharedStore,
    stats: RdmaDbpStats,
}

impl std::fmt::Debug for RdmaDbp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaDbp")
            .field("nslots", &self.nslots)
            .field("in_use", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RdmaDbp {
    /// Create the DBP server over `nslots` remote slots at `slot_base`,
    /// one per page its nodes will touch: a slot is never recycled (see
    /// [`RdmaDbp::request_page`]).
    pub fn new(
        rdma: SharedRdma,
        server_host: usize,
        slot_base: u64,
        nslots: u32,
        store: SharedStore,
    ) -> Self {
        let page_size = store.borrow().page_size();
        RdmaDbp {
            rdma,
            server_host,
            slot_base,
            nslots,
            page_size,
            map: FastMap::default(),
            free: (0..nslots).rev().collect(),
            store,
            stats: RdmaDbpStats::default(),
        }
    }

    /// Server statistics.
    pub fn stats(&self) -> RdmaDbpStats {
        self.stats
    }

    fn slot_addr(&self, slot: u32) -> u64 {
        self.slot_base + slot as u64 * self.page_size
    }

    /// Resolve `page` to its remote address for `node`, faulting it in
    /// from storage when absent.
    ///
    /// # Panics
    /// When the page is absent and every slot holds another page. Nodes
    /// cache resolved addresses and are never told of a move, so handing
    /// a slot to a new page would serve it to them under the old one.
    pub fn request_page(&mut self, page: PageId, node: NodeId, now: SimTime) -> (u64, SimTime) {
        let mut t = rpc_round_trip(now);
        self.stats.rpcs += 1;
        let slot = if let Some(info) = self.map.get_mut(&page) {
            if !info.active.contains(&node) {
                info.active.push(node);
            }
            info.slot
        } else {
            let Some(slot) = self.free.pop() else {
                panic!(
                    "the DBP is full: all {} slots hold pages, none is free for {page:?}",
                    self.nslots
                );
            };
            // Storage reads straight into the slot; the server's NIC is
            // charged the page write that models the move.
            let mut rdma = self.rdma.borrow_mut();
            let dst = rdma
                .raw_mut()
                .slice_mut(self.slot_addr(slot), self.page_size as usize);
            t = self.store.borrow_mut().read_page(page, dst, t).end;
            self.stats.storage_fills += 1;
            t = rdma.write_timing(self.server_host, self.page_size, t).end;
            drop(rdma);
            self.map.insert(
                page,
                SlotInfo {
                    slot,
                    active: vec![node],
                },
            );
            slot
        };
        (self.slot_addr(slot), t)
    }

    /// After `writer` flushed the page and released its lock: send an
    /// invalidation message per other active node. Returns the targets —
    /// the harness drops their local copies (the message's effect).
    pub fn publish(
        &mut self,
        page: PageId,
        writer: NodeId,
        now: SimTime,
    ) -> (Vec<NodeId>, SimTime) {
        let Some(info) = self.map.get(&page) else {
            return (Vec::new(), now);
        };
        let targets: Vec<NodeId> = info
            .active
            .iter()
            .copied()
            .filter(|&n| n != writer)
            .collect();
        let mut t = now;
        for _ in &targets {
            t = self.rdma.borrow_mut().message(self.server_host, t);
            self.stats.invalidation_msgs += 1;
        }
        (targets, t)
    }

    /// Snapshot the directory for one barrier quantum of parallel
    /// stepping: the server host (whose NIC carries invalidation
    /// messages) and every mapped page's active set. Drivers pre-resolve
    /// all pages at warmup so no in-phase RPC is ever needed.
    pub fn dir_snapshot(&self) -> RdmaDir {
        let mut pages = FastMap::default();
        // The snapshot map is consulted by key only (never iterated),
        // so build order cannot reach simulated state.
        for (&page, info) in self.map.iter() {
            // lint: order-insensitive
            pages.insert(page, info.active.clone());
        }
        RdmaDir {
            server_host: self.server_host,
            pages,
        }
    }

    /// Shared fabric handle. Nodes hold no fabric reference of their
    /// own; serial protocol methods borrow the pool through their
    /// server instead.
    pub fn fabric(&self) -> &SharedRdma {
        &self.rdma
    }

    /// Fold invalidation messages sent *by nodes* during a parallel
    /// phase ([`RdmaSharingNode::publish_resident`]) back into the
    /// server's counters.
    pub fn absorb_invalidation_msgs(&mut self, n: u64) {
        self.stats.invalidation_msgs += n;
    }
}

/// Read-only directory snapshot for one quantum of barrier-synchronized
/// parallel stepping (see [`RdmaDbp::dir_snapshot`]). During a phase
/// the server is never consulted; invalidation messages are charged on
/// the server's NIC through the writer's fabric shard (which holds a
/// fork of that link), and their *effects* — dropping peers' local
/// copies — are queued in a per-node outbox the driver applies at the
/// barrier in fixed node order.
#[derive(Debug)]
pub struct RdmaDir {
    server_host: usize,
    /// page → nodes active on it.
    pages: FastMap<PageId, Vec<NodeId>>,
}

impl RdmaDir {
    /// Host whose NIC carries invalidation messages.
    pub fn server_host(&self) -> usize {
        self.server_host
    }

    /// Nodes active on `page` (empty if unmapped).
    pub fn active(&self, page: PageId) -> &[NodeId] {
        self.pages.get(&page).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Node statistics for the RDMA baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct RdmaNodeStats {
    /// Reads served from the local buffer pool.
    pub local_hits: u64,
    /// Full-page RDMA reads.
    pub page_reads: u64,
    /// Full-page RDMA write-backs.
    pub page_writes: u64,
    /// Invalidations applied.
    pub invalidations: u64,
    /// Invalidation messages sent directly by this node during parallel
    /// phases ([`RdmaSharingNode::publish_resident`]); the driver folds
    /// these into [`RdmaDbpStats::invalidation_msgs`] via
    /// [`RdmaDbp::absorb_invalidation_msgs`].
    pub invalidation_msgs_sent: u64,
}

/// A store made under the X lock and not yet published.
#[derive(Debug)]
struct PendingStore {
    page: PageId,
    off: u64,
    /// The bytes, as a range of [`RdmaSharingNode::pending_bytes`].
    bytes: std::ops::Range<usize>,
}

/// A database node in the RDMA sharing baseline: a local buffer pool
/// over a remote DBP.
pub struct RdmaSharingNode {
    node: NodeId,
    host: usize,
    page_size: u64,
    /// LBP frames: which page each holds, free stack, policy and memo…
    dir: Residency,
    /// …and the DBP address each was paged in from. A frame has no bytes
    /// of its own: the modelled copy is the remote page under this
    /// node's own stores, since a peer's store drops the frame as it lands.
    frame_addr: Vec<u64>,
    /// Unpublished stores in program order (a page is dirty while it
    /// has one) and their bytes. A statement writes, then publishes.
    pending: Vec<PendingStore>,
    pending_bytes: Vec<u8>,
    addrs: FastMap<PageId, u64>,
    stats: RdmaNodeStats,
}

impl std::fmt::Debug for RdmaSharingNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RdmaSharingNode")
            .field("node", &self.node)
            .field("frames", &self.dir.capacity())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RdmaSharingNode {
    /// Create a node with `lbp_frames` local frames riding `host`'s
    /// NIC. The node holds no fabric handle — serial methods reach the
    /// pool through their `server` argument, and phase methods through
    /// the node's detached shard.
    pub fn new(node: NodeId, host: usize, lbp_frames: usize, page_size: u64) -> Self {
        RdmaSharingNode {
            node,
            host,
            page_size,
            dir: Residency::new(lbp_frames, PolicyKind::Lru),
            frame_addr: vec![0; lbp_frames],
            pending: Vec::new(),
            pending_bytes: Vec::new(),
            addrs: FastMap::default(),
            stats: RdmaNodeStats::default(),
        }
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Node statistics.
    pub fn stats(&self) -> RdmaNodeStats {
        self.stats
    }

    fn is_dirty(&self, page: PageId) -> bool {
        self.pending.iter().any(|s| s.page == page)
    }

    /// Drop the local copy of `page` (invalidation message received).
    pub fn invalidate_local(&mut self, page: PageId) {
        if let Some(frame) = self.dir.lookup(page) {
            debug_assert!(!self.is_dirty(page), "invalidating a dirty page");
            self.dir.unlink(frame);
            self.dir.evict(frame);
            self.dir.push_free(frame);
            self.stats.invalidations += 1;
        }
    }

    /// Claim a frame for `page` at DBP address `addr`, evicting the
    /// policy's victim if none is free. Pure local-metadata work.
    fn claim_frame(&mut self, page: PageId, addr: u64) {
        let (frame, victim) = self.dir.claim();
        if let Some(vpage) = victim {
            assert!(!self.is_dirty(vpage), "evicting dirty page outside lock");
        }
        self.frame_addr[frame as usize] = addr;
        self.dir.install(frame, page);
    }

    /// Read from a shared page (caller holds ≥ S lock).
    pub fn read(
        &mut self,
        server: &mut RdmaDbp,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        let t = self.resolve(server, page, now);
        self.read_resident(&mut *server.fabric().borrow_mut(), page, off, buf, t)
    }

    /// Write to a shared page (caller holds the X lock). Local only —
    /// the bytes reach the DBP at [`RdmaSharingNode::publish`].
    pub fn write(
        &mut self,
        server: &mut RdmaDbp,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let t = self.resolve(server, page, now);
        self.write_resident(&mut *server.fabric().borrow_mut(), page, off, data, t)
    }

    /// Release-time publish: RDMA-write the **whole page** back to the
    /// DBP (write amplification — this sits on the lock hold path), then
    /// fan out invalidations. Returns the nodes whose copies must drop.
    pub fn publish(
        &mut self,
        server: &mut RdmaDbp,
        page: PageId,
        now: SimTime,
    ) -> (Vec<NodeId>, SimTime) {
        let t = self.flush_resident(&mut *server.fabric().borrow_mut(), page, now);
        server.publish(page, self.node, t)
    }

    /// Pre-resolve `page`'s DBP address (one server RPC if unknown)
    /// without faulting the page in. Drivers call this for every page a
    /// node *may* touch before a parallel phase, so the `*_resident`
    /// methods never need a server round-trip mid-quantum.
    pub fn resolve(&mut self, server: &mut RdmaDbp, page: PageId, now: SimTime) -> SimTime {
        if self.addrs.contains_key(&page) {
            return now;
        }
        let (addr, t) = server.request_page(page, self.node, now);
        self.addrs.insert(page, addr);
        t
    }

    // ---- Phase API: barrier-synchronized parallel stepping ----------
    //
    // The `*_resident` methods are the protocol proper, run against an
    // explicit [`RdmaFabric`]: the pool itself for the serial methods
    // above (which only add the address RPC), a per-node `RdmaShard`
    // during a phase, next to a read-only [`RdmaDir`] snapshot. Every
    // page address must have been resolved before a phase starts
    // (drivers warm up all touched pages serially), so no server RPC —
    // and no directory mutation — can happen mid-phase. Frame eviction
    // is pure node-local state and stays allowed.

    /// Ensure `page` is resident, charging a whole-page RDMA read — read
    /// amplification — on a miss; returns (DBP address, time).
    ///
    /// # Panics
    /// If `page`'s remote address was not pre-resolved.
    fn fault_in_resident<R: RdmaFabric>(
        &mut self,
        fabric: &mut R,
        page: PageId,
        now: SimTime,
    ) -> (u64, SimTime) {
        if let Some(frame) = self.dir.lookup_touch(page) {
            self.stats.local_hits += 1;
            return (self.frame_addr[frame as usize], now);
        }
        let &addr = self
            .addrs
            .get(&page)
            .unwrap_or_else(|| panic!("page {page:?} not pre-resolved on node {:?}", self.node));
        self.claim_frame(page, addr);
        let a = fabric.read_timing(self.host, self.page_size, now);
        self.stats.page_reads += 1;
        (addr, a.end)
    }

    /// Phase-capable [`read`](Self::read): the page's remote bytes as
    /// `fabric` sees them, under this node's unpublished stores.
    pub fn read_resident<R: RdmaFabric>(
        &mut self,
        fabric: &mut R,
        page: PageId,
        off: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> SimTime {
        assert!(
            off + buf.len() as u64 <= self.page_size,
            "read past the page end"
        );
        let (addr, t) = self.fault_in_resident(fabric, page, now);
        fabric.peek(addr + off, buf);
        for s in self.pending.iter().filter(|s| s.page == page) {
            overlay(off, buf, s.off, &self.pending_bytes[s.bytes.clone()]);
        }
        trace::attr_add(Lane::Dram, dram_cost_ns(buf.len()));
        t + dram_cost_ns(buf.len())
    }

    /// Phase-capable [`write`](Self::write).
    pub fn write_resident<R: RdmaFabric>(
        &mut self,
        fabric: &mut R,
        page: PageId,
        off: u64,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        assert!(
            off + data.len() as u64 <= self.page_size,
            "write past the page end"
        );
        let (_, t) = self.fault_in_resident(fabric, page, now);
        let start = self.pending_bytes.len();
        self.pending_bytes.extend_from_slice(data);
        self.pending.push(PendingStore {
            page,
            off,
            bytes: start..start + data.len(),
        });
        trace::attr_add(Lane::Dram, dram_cost_ns(data.len()));
        t + dram_cost_ns(data.len())
    }

    /// The write-back half of a publish: if `page` is dirty, charge the
    /// **whole page** to this node's NIC and land its pending stores —
    /// the only bytes in which the modelled local copy differs from the
    /// DBP's.
    fn flush_resident<R: RdmaFabric>(
        &mut self,
        fabric: &mut R,
        page: PageId,
        now: SimTime,
    ) -> SimTime {
        if !self.is_dirty(page) {
            return now;
        }
        let addr = *self.addrs.get(&page).expect("dirty page has an address");
        let a = fabric.write_timing(self.host, self.page_size, now);
        self.stats.page_writes += 1;
        for s in self.pending.iter().filter(|s| s.page == page) {
            fabric.poke(addr + s.off, &self.pending_bytes[s.bytes.clone()]);
        }
        self.pending.retain(|s| s.page != page);
        if self.pending.is_empty() {
            self.pending_bytes.clear();
        }
        a.end
    }

    /// Phase-capable [`publish`](Self::publish): the page write-back
    /// rides this node's NIC shard, invalidation messages are charged
    /// on the *server's* NIC (the shard holds a fork of that link), and
    /// the targets whose copies must drop are queued into `outbox` —
    /// the driver applies `(target, page)` pairs at the barrier in
    /// fixed node order.
    pub fn publish_resident<R: RdmaFabric>(
        &mut self,
        fabric: &mut R,
        dir: &RdmaDir,
        page: PageId,
        outbox: &mut Vec<(NodeId, PageId)>,
        now: SimTime,
    ) -> SimTime {
        let mut t = self.flush_resident(fabric, page, now);
        for &target in dir.active(page) {
            if target == self.node {
                continue;
            }
            t = fabric.message(dir.server_host(), t);
            self.stats.invalidation_msgs_sent += 1;
            outbox.push((target, page));
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::RdmaPool;
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage::PageStore;

    fn setup(lbp_frames: usize) -> (RdmaDbp, RdmaSharingNode, RdmaSharingNode) {
        let rdma: SharedRdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 3)));
        let mut store = PageStore::with_page_size(64, 1024);
        for p in 0..16u64 {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; 1024]);
        }
        let store: SharedStore = Rc::new(RefCell::new(store));
        let server = RdmaDbp::new(Rc::clone(&rdma), 2, 0, 32, store);
        let n0 = RdmaSharingNode::new(NodeId(0), 0, lbp_frames, 1024);
        let n1 = RdmaSharingNode::new(NodeId(1), 1, lbp_frames, 1024);
        (server, n0, n1)
    }

    #[test]
    fn miss_reads_whole_page() {
        let (mut server, mut n0, _) = setup(4);
        let before = server.fabric().borrow().nic_bytes(0);
        let mut buf = [0u8; 8];
        n0.read(&mut server, PageId(3), 0, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [4u8; 8]);
        assert_eq!(server.fabric().borrow().nic_bytes(0) - before, 1024);
        assert_eq!(n0.stats().page_reads, 1);
    }

    #[test]
    fn publish_writes_whole_page_and_invalidates() {
        let (mut server, mut n0, mut n1) = setup(4);
        let mut buf = [0u8; 8];
        // Both nodes fault the page in.
        n1.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        let t = n0.write(&mut server, PageId(0), 0, &[0xCC; 8], SimTime::ZERO);
        let before = server.fabric().borrow().nic_bytes(0);
        let (targets, t) = n0.publish(&mut server, PageId(0), t);
        assert_eq!(
            server.fabric().borrow().nic_bytes(0) - before,
            1024,
            "one-byte-ish change, full page moved"
        );
        assert_eq!(targets, vec![NodeId(1)]);
        for n in targets {
            assert_eq!(n, n1.id());
            n1.invalidate_local(PageId(0));
        }
        // n1 re-reads: full page again, fresh data.
        n1.read(&mut server, PageId(0), 0, &mut buf, t);
        assert_eq!(buf, [0xCC; 8]);
        assert_eq!(n1.stats().page_reads, 2);
        assert_eq!(n1.stats().invalidations, 1);
    }

    #[test]
    fn local_hits_bypass_the_nic() {
        let (mut server, mut n0, _) = setup(4);
        let mut buf = [0u8; 8];
        n0.read(&mut server, PageId(1), 0, &mut buf, SimTime::ZERO);
        let before = server.fabric().borrow().nic_bytes(0);
        let t = n0.read(&mut server, PageId(1), 0, &mut buf, SimTime::ZERO);
        assert_eq!(server.fabric().borrow().nic_bytes(0), before);
        assert!(t.as_nanos() < 1_000);
        assert_eq!(n0.stats().local_hits, 1);
    }

    #[test]
    fn lbp_eviction_is_capacity_bound() {
        let (mut server, mut n0, _) = setup(2);
        let mut buf = [0u8; 1];
        n0.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        n0.read(&mut server, PageId(1), 0, &mut buf, SimTime::ZERO);
        n0.read(&mut server, PageId(2), 0, &mut buf, SimTime::ZERO);
        assert!(!n0.dir.contains(PageId(0)), "LRU page evicted");
        // Address cache persists, so the re-read skips the RPC.
        let rpcs_before = server.stats().rpcs;
        n0.read(&mut server, PageId(0), 0, &mut buf, SimTime::ZERO);
        assert_eq!(server.stats().rpcs, rpcs_before);
        assert_eq!(n0.stats().page_reads, 4);
    }

    /// Runs of same-page reads between invalidations (of the page just
    /// read or another), LBP eviction pressure and re-faults (four
    /// frames, sixteen pages): the `RdmaNodeStats`, the order the LBP's
    /// pages would leave in after every visit, every byte read, the NIC's
    /// bytes, and how many reads found the memo. With `forget_memo` no
    /// read finds it, so every hit probes and touches the policy: the
    /// reference the memo must match.
    fn memo_script(forget_memo: bool) -> (String, usize) {
        let (mut server, _, _) = setup(1);
        let mut node = RdmaSharingNode::new(NodeId(0), 0, 4, 1024);
        let mut rng = simkit::rng::stream_rng(0x3E30, 0);
        let (mut page, mut back, mut now) = (PageId(0), PageId(1), SimTime::ZERO);
        let (mut order, mut bytes, mut memo_hits) = (Vec::new(), Vec::new(), 0);
        for _ in 0..1_500 {
            match rng.gen_range(0..10u32) {
                0 => node.invalidate_local(page),
                // A free frame for a later miss, with the memo elsewhere.
                1 => node.invalidate_local(PageId(rng.gen_range(0..16u64))),
                2 | 3 => back = std::mem::replace(&mut page, PageId(rng.gen_range(0..16u64))),
                // Back to the page before: a hit right after a miss.
                4..=6 => std::mem::swap(&mut page, &mut back),
                _ => {}
            }
            for _ in 0..rng.gen_range(1..4u32) {
                if forget_memo {
                    node.dir.forget_memo();
                }
                memo_hits += node.dir.memo_hit(page).is_some() as usize;
                let mut buf = [0u8; 8];
                let off = rng.gen_range(0..1016u64);
                now = node.read(&mut server, page, off, &mut buf, now);
                bytes.extend_from_slice(&buf);
            }
            // The order the LBP's pages would leave in, from here.
            let mut dir = node.dir.clone();
            while let Some(frame) = dir.pop_victim() {
                order.push(dir.page_of(frame));
            }
        }
        let nic = server.fabric().borrow().nic_bytes(0);
        let s = node.stats();
        assert!(s.invalidations > 0 && s.page_reads > 100 && s.local_hits > 1_000);
        (
            format!("{s:?} {order:?} {bytes:?} {nic} {now:?}"),
            memo_hits,
        )
    }

    #[test]
    fn memo_hits_keep_stats_eviction_order_and_bytes() {
        let (lean, memo_hits) = memo_script(false);
        let (touch_every_hit, none) = memo_script(true);
        assert_eq!(lean, touch_every_hit);
        assert!(memo_hits > 1_000 && none == 0, "{memo_hits}");
    }

    /// Two-node phased fixture: every page resolved on both nodes, one
    /// shard per node, the directory snapshot that names both.
    fn phased(
        lbp_frames: usize,
    ) -> (
        RdmaDbp,
        [RdmaSharingNode; 2],
        [memsim::RdmaShard; 2],
        RdmaDir,
    ) {
        let (mut server, mut n0, mut n1) = setup(lbp_frames);
        for p in 0..16 {
            n0.resolve(&mut server, PageId(p), SimTime::ZERO);
            n1.resolve(&mut server, PageId(p), SimTime::ZERO);
        }
        let dir = server.dir_snapshot();
        let shards = {
            let mut pool = server.fabric().borrow_mut();
            [pool.detach_host(0, 2), pool.detach_host(1, 2)]
        };
        (server, [n0, n1], shards, dir)
    }

    #[test]
    fn same_quantum_updates_to_one_page_both_survive() {
        // Two nodes update different rows of one page inside one
        // quantum. Logging whole stale pages, the later node's page
        // overwrote the earlier node's row at the barrier.
        let (server, [mut n0, mut n1], [mut s0, mut s1], dir) = phased(4);
        let mut outbox = Vec::new();
        let page = PageId(5);
        let t = n0.write_resident(&mut s0, page, 100, &[0xA0; 8], SimTime::ZERO);
        n0.publish_resident(&mut s0, &dir, page, &mut outbox, t);
        let t = n1.write_resident(&mut s1, page, 300, &[0xB1; 8], SimTime::ZERO);
        n1.publish_resident(&mut s1, &dir, page, &mut outbox, t);
        let mut shards = [s0, s1];
        server.fabric().borrow_mut().barrier(&mut shards);
        let pool = server.fabric().borrow();
        let got = pool.raw().slice(n0.addrs[&page], 1024);
        assert_eq!(got[100..108], [0xA0; 8], "node 0's row was overwritten");
        assert_eq!(got[300..308], [0xB1; 8]);
        assert_eq!(got[0..100], [6u8; 100], "the rest of the page is intact");
    }

    #[test]
    fn unpublished_bytes_are_invisible_to_a_peer() {
        let mut buf = [0u8; 8];
        // Serial: the peer sees the store at publish, not at write.
        let (mut server, mut n0, mut n1) = setup(4);
        let t = n0.write(&mut server, PageId(2), 40, &[0xEE; 8], SimTime::ZERO);
        n0.read(&mut server, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [0xEE; 8], "a node sees its own store at once");
        n1.read(&mut server, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [3u8; 8]);
        n0.publish(&mut server, PageId(2), t);
        n1.read(&mut server, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [0xEE; 8]);

        // Phased: not at write, not at publish, only after the barrier.
        let (server, [mut n0, mut n1], [mut s0, mut s1], dir) = phased(4);
        let mut outbox = Vec::new();
        let t = n0.write_resident(&mut s0, PageId(2), 40, &[0xEE; 8], SimTime::ZERO);
        n1.read_resident(&mut s1, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [3u8; 8]);
        let t = n0.publish_resident(&mut s0, &dir, PageId(2), &mut outbox, t);
        n1.read_resident(&mut s1, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [3u8; 8], "published, but the barrier has not run");
        n0.read_resident(&mut s0, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [0xEE; 8], "the writer keeps seeing it throughout");
        let mut shards = [s0, s1];
        server.fabric().borrow_mut().barrier(&mut shards);
        assert_eq!(outbox, vec![(NodeId(1), PageId(2))]);
        n1.invalidate_local(PageId(2));
        let [_, s1] = &mut shards;
        n1.read_resident(s1, PageId(2), 40, &mut buf, t);
        assert_eq!(buf, [0xEE; 8]);
    }

    #[test]
    fn dead_host_publish_lands_nothing() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let (mut server, mut n0, _) = setup(4);
        let t = n0.write(&mut server, PageId(1), 0, &[0x77; 16], SimTime::ZERO);
        let nic_before = server.fabric().borrow().nic_bytes(0);
        // The publish's first gate poll kills the host: it unwinds before
        // the write-back is timed or lands.
        faults::install(FaultPlan::crash_at_hit(0));
        let crash = faults::catch(|| n0.publish(&mut server, PageId(1), t));
        assert!(crash.is_err());
        faults::clear();
        let pool = server.fabric().borrow();
        assert_eq!(pool.nic_bytes(0), nic_before);
        let slot = pool.raw().slice(n0.addrs[&PageId(1)], 1024);
        assert!(slot == [2u8; 1024], "the store reached the DBP");
    }

    /// Seeded byte oracle: N nodes on shards under LBP eviction
    /// pressure. A read must return the bytes as of the last barrier,
    /// under the reader's own stores since — published or not — and
    /// never a peer's; after every barrier the region must equal the
    /// quantum's published stores applied in node order.
    #[test]
    fn reads_see_own_stores_now_and_peers_at_the_barrier() {
        const N: usize = 3;
        const PAGES: u64 = 6;
        const PS: usize = 256;
        type Store = (usize, usize, Vec<u8>); // (page, off, bytes)
        fn overlay(view: &mut [u8], page: usize, stores: &[Store]) {
            for (p, off, bytes) in stores {
                if *p == page {
                    view[*off..off + bytes.len()].copy_from_slice(bytes);
                }
            }
        }
        for seed in 0..8u64 {
            let mut rng = simkit::rng::stream_rng(0x5A4E, seed);
            let rdma: SharedRdma = Rc::new(RefCell::new(RdmaPool::new(PAGES as usize * PS, N + 1)));
            let mut store = PageStore::with_page_size(PAGES, PS as u64);
            let mut committed: Vec<Vec<u8>> = Vec::new();
            for p in 0..PAGES {
                store.allocate();
                committed.push((0..PS).map(|i| (p as usize * 31 + i) as u8).collect());
                store.raw_write_page(PageId(p), &committed[p as usize]);
            }
            let store: SharedStore = Rc::new(RefCell::new(store));
            let mut server = RdmaDbp::new(Rc::clone(&rdma), N, 0, PAGES as u32, store);
            // Two frames for six pages: most faults evict.
            let mut nodes: Vec<RdmaSharingNode> = (0..N)
                .map(|i| RdmaSharingNode::new(NodeId(i), i, 2, PS as u64))
                .collect();
            for node in &mut nodes {
                for p in 0..PAGES {
                    node.resolve(&mut server, PageId(p), SimTime::ZERO);
                }
            }
            let dir = server.dir_snapshot();
            let mut shards: Vec<memsim::RdmaShard> = (0..N)
                .map(|i| rdma.borrow_mut().detach_host(i, N))
                .collect();
            let mut outboxes: Vec<Vec<(NodeId, PageId)>> = vec![Vec::new(); N];
            // Per node: this quantum's published stores, and the stores
            // of its (at most one) dirty page.
            let mut published: Vec<Vec<Store>> = vec![Vec::new(); N];
            let mut unpublished: Vec<Vec<Store>> = vec![Vec::new(); N];
            let mut now = SimTime::ZERO;

            for step in 0..3_000 {
                let barrier = rng.gen_range(0..100u32) < 4;
                for i in 0..N {
                    // A dirty page is published before its node touches
                    // anything else, and before any barrier.
                    if (barrier || i == step % N) && !unpublished[i].is_empty() {
                        let page = PageId(unpublished[i][0].0 as u64);
                        now = nodes[i].publish_resident(
                            &mut shards[i],
                            &dir,
                            page,
                            &mut outboxes[i],
                            now,
                        );
                        published[i].append(&mut unpublished[i]);
                    }
                }
                if barrier {
                    rdma.borrow_mut().barrier(&mut shards);
                    for i in 0..N {
                        for (target, page) in outboxes[i].drain(..) {
                            nodes[target.0].invalidate_local(page);
                        }
                        for (p, off, bytes) in published[i].drain(..) {
                            committed[p][off..off + bytes.len()].copy_from_slice(&bytes);
                        }
                    }
                    let pool = rdma.borrow();
                    for (p, want) in committed.iter().enumerate() {
                        let addr = nodes[0].addrs[&PageId(p as u64)];
                        assert!(
                            pool.raw().slice(addr, PS) == &want[..],
                            "seed {seed} step {step}: page {p} after the barrier"
                        );
                    }
                    continue;
                }
                let i = step % N;
                let page = rng.gen_range(0..PAGES) as usize;
                let len = rng.gen_range(1..=48usize);
                let off = rng.gen_range(0..=PS - len);
                if rng.gen_bool(0.6) {
                    let mut want = committed[page].clone();
                    overlay(&mut want, page, &published[i]);
                    overlay(&mut want, page, &unpublished[i]);
                    let mut buf = vec![0u8; len];
                    now = nodes[i].read_resident(
                        &mut shards[i],
                        PageId(page as u64),
                        off as u64,
                        &mut buf,
                        now,
                    );
                    assert_eq!(
                        buf,
                        want[off..off + len],
                        "seed {seed} step {step}: node {i} page {page} off {off}"
                    );
                } else {
                    let data = vec![rng.gen::<u8>(); len];
                    now = nodes[i].write_resident(
                        &mut shards[i],
                        PageId(page as u64),
                        off as u64,
                        &data,
                        now,
                    );
                    unpublished[i].push((page, off, data));
                    // Mostly publish at once, like a statement does;
                    // sometimes leave the page dirty for peers to probe.
                    if rng.gen_bool(0.7) {
                        now = nodes[i].publish_resident(
                            &mut shards[i],
                            &dir,
                            PageId(page as u64),
                            &mut outboxes[i],
                            now,
                        );
                        published[i].append(&mut unpublished[i]);
                    }
                }
            }
            // Whole pages on the wire, whatever the host moved.
            let mut pool = rdma.borrow_mut();
            for shard in shards {
                pool.attach_host(shard);
            }
            let msgs: u64 = nodes.iter().map(|n| n.stats().invalidation_msgs_sent).sum();
            assert!(msgs > 0);
            assert_eq!(pool.nic_bytes(N), PAGES * PS as u64 + 64 * msgs);
            for (i, node) in nodes.iter().enumerate() {
                let s = node.stats();
                assert!(s.page_reads > 100 && s.page_writes > 100 && s.invalidations > 0);
                assert_eq!(
                    pool.nic_bytes(i),
                    (s.page_reads + s.page_writes) * PS as u64
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "the DBP is full")]
    fn a_full_dbp_refuses_a_new_page() {
        let (server, mut n0, _) = setup(4);
        // Two slots for three pages.
        let rdma = Rc::clone(server.fabric());
        let mut small = RdmaDbp::new(rdma, 2, 0, 2, Rc::clone(&server.store));
        drop(server);
        let mut buf = [0u8; 1];
        for p in 0..3 {
            n0.read(&mut small, PageId(p), 0, &mut buf, SimTime::ZERO);
        }
    }
}
