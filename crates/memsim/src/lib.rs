//! # memsim — simulated memory substrate
//!
//! The hardware the paper runs on, reproduced as calibrated models:
//!
//! - [`calib`] — every latency/bandwidth constant, keyed to the paper's
//!   Tables 1–2 and platform description (§4.1).
//! - [`region::Region`] — byte-addressable backing stores that really
//!   hold the bytes (volatile DRAM vs crash-persistent CXL box).
//! - [`cache::Cache`] — a write-back CPU cache with 64-B lines; in
//!   capture mode coherency violations are *observable*, which is how the
//!   §3.3 protocol is tested.
//! - [`cxl::CxlPool`] — the CXL-switch memory pool: cached and uncached
//!   (non-temporal) access paths, `clflush`, per-host x16 links, switch
//!   fabric, NUMA, and crash semantics (cache dies, box survives).
//! - [`rdma::RdmaPool`] — the RDMA baseline: DMA-style bulk transfers
//!   with fixed protocol latency, per-op NIC serialization and a 12 GB/s
//!   cap.
//! - [`dram::DramSpace`] — host-local DRAM behind the same cache model.

#![warn(missing_docs)]

mod proptests;

pub mod cache;
pub mod calib;
pub mod cxl;
pub mod dram;
pub mod rdma;
pub mod region;
pub mod shard;

use simkit::SimTime;

/// Identifies an attached compute node (a database instance or a
/// multi-primary node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Result of a timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Virtual time at which the access completes.
    pub end: SimTime,
    /// Bytes that crossed the interconnect (cache misses, writebacks,
    /// DMA transfers). Zero for pure cache hits and local DRAM.
    pub link_bytes: u64,
    /// Cache lines served from the CPU cache.
    pub hits: u64,
    /// Cache lines that missed (or, for uncached paths, lines moved).
    pub misses: u64,
}

pub use cache::{Cache, CacheStats};
pub use cxl::{CxlFabric, CxlNodeConfig, CxlPool, CxlShard};
pub use dram::DramSpace;
pub use rdma::{RdmaFabric, RdmaPool, RdmaShard};
pub use region::Region;
pub use shard::{RegionReader, WriteLog};
