//! # bufferpool — buffer pool abstraction and RDMA-era baselines
//!
//! Databases cache storage pages in a buffer pool and hand the
//! transaction engine *byte ranges within pages* (§2.2). This crate
//! defines that contract ([`BufferPool`]) plus the two pre-CXL designs
//! the paper compares against:
//!
//! - [`dram_bp::DramBp`] — a plain local-DRAM pool (the DRAM-BP side of
//!   Figure 3 and the "vanilla" recovery baseline);
//! - [`tiered::TieredRdmaBp`] — the tiered RDMA design of LegoBase /
//!   PolarDB Serverless: a local buffer pool (LBP) in front of remote
//!   memory, moving whole 16 KB pages over the NIC on every miss and
//!   dirty eviction. This is where read/write amplification (Figure 1,
//!   Figure 7-right) comes from.
//!
//! The paper's contribution, the CXL-resident pool, implements the same
//! trait in the `polarcxlmem` crate.

#![warn(missing_docs)]

pub mod dram_bp;
pub mod frames;
pub mod lru;
pub mod policy;
pub mod tiered;

pub use frames::{FrameTable, Residency};
pub use policy::{AnyPolicy, ClockRing, Policy, PolicyKind, TwoQ};

use memsim::Access;
use simkit::SimTime;
use storage::{Lsn, PageId, PageStore};

/// Aggregate buffer pool statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct BpStats {
    /// Page lookups that found the page resident in the (local) pool.
    pub hits: u64,
    /// Page lookups that had to fetch the page.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Dirty pages written back on eviction.
    pub writebacks: u64,
    /// Bytes fetched from storage.
    pub storage_read_bytes: u64,
    /// Bytes written to storage.
    pub storage_write_bytes: u64,
    /// Bytes read from remote (disaggregated) memory.
    pub remote_read_bytes: u64,
    /// Bytes written to remote (disaggregated) memory.
    pub remote_write_bytes: u64,
}

impl BpStats {
    /// Hit ratio in [0, 1]; 1.0 when there were no lookups.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The buffer pool contract used by the B+tree and the engine.
///
/// All data access is *byte ranges within pages*: this is what lets the
/// CXL pool touch only the cache lines a query needs while tiered
/// designs move whole pages.
///
/// A read has two planes. The **timing plane** is everything it does to
/// the model: residency, miss / evict / write-back, policy recency and
/// heat, [`BpStats`], the modelled CPU cache, link and NIC charges,
/// fault gates, profiler rows, spans and lanes.
/// The **data plane** is the host copy of the bytes into the caller's
/// buffer, which no simulated value depends on. [`BufferPool::read`] is
/// both; [`BufferPool::touch`] is the timing plane alone.
pub trait BufferPool {
    /// Page size in bytes.
    fn page_size(&self) -> u64;

    /// Allocate a fresh page (backed by storage). Returns the id and the
    /// completion time of any allocation bookkeeping.
    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime);

    /// Read `buf.len()` bytes at `off` within `page`, fetching the page
    /// if it is not resident.
    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access;

    /// Everything `read` of `len` bytes at `off` within `page` does to
    /// the model, and no bytes: the same `Access`, the same pool, cache,
    /// link and fault state afterwards. Only for callers that would drop
    /// the bytes unread — where no byte steers control flow or reaches
    /// the caller's caller.
    ///
    /// This default is the definition: read into a scratch buffer and
    /// discard it. A pool overrides it only by making `read` "the touch
    /// body plus the copy", and `tests/lean_path.rs` holds every override
    /// to this reference.
    fn touch(&mut self, page: PageId, off: u16, len: usize, now: SimTime) -> Access {
        simkit::with_scratch(len, |buf| self.read(page, off, buf, now))
    }

    /// Write `data` at `off` within `page`, stamping the page with `lsn`
    /// and marking it dirty.
    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access;

    /// Latch bookkeeping hook: the CXL pool persists latch state in CXL
    /// memory so recovery can detect mid-update pages (§3.2); volatile
    /// pools ignore it.
    fn set_latch(&mut self, page: PageId, locked: bool, now: SimTime) -> SimTime {
        let _ = (page, locked);
        now
    }

    /// The LSN stamped on the page's newest write, if any.
    fn page_lsn(&self, page: PageId) -> Option<Lsn>;

    /// Whether the page is resident in the pool's fastest tier.
    fn is_resident(&self, page: PageId) -> bool;

    /// Flush every dirty page to storage (checkpointing); returns
    /// completion time.
    fn flush_all(&mut self, now: SimTime) -> SimTime;

    /// Pool statistics.
    fn stats(&self) -> BpStats;

    /// The backing page store.
    fn store(&self) -> &PageStore;

    /// Mutable access to the backing page store (bulk loading).
    fn store_mut(&mut self) -> &mut PageStore;

    /// Populate the pool with already-allocated pages without charging
    /// time (experiments start warm unless they test warm-up itself).
    fn prewarm(&mut self);

    /// Simulate a host crash: volatile state (local frames, maps, CPU
    /// cache) is lost; whatever the design keeps off-host (remote
    /// memory, the CXL box, storage) survives.
    fn crash(&mut self);
}
