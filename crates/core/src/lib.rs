//! # polarcxlmem — CXL-switch-based disaggregated memory for cloud-native databases
//!
//! Reproduction of the paper's primary contribution (SIGMOD-Companion
//! '25): a disaggregated memory system built on a CXL 2.0 switch, used
//! three ways by a cloud-native database:
//!
//! 1. **Memory pooling** (§3.1): the entire buffer pool — page data and
//!    metadata — lives in CXL memory with *no local tier*
//!    ([`cxl_bp::CxlBp`]); the multi-tenant pool is carved up by the
//!    [`manager::CxlMemoryManager`].
//! 2. **Instant recovery** (§3.2): because the CXL box has its own PSU,
//!    the pool survives host crashes; [`recovery::polar_recv`] restores
//!    a warm, consistent buffer by trusting unlocked/not-too-new blocks
//!    and replaying redo only into the few pages that were in flight.
//! 3. **Data sharing** (§3.3): multi-primary nodes share pages through a
//!    buffer fusion server ([`fusion::FusionServer`]) with a software
//!    cache-coherency protocol at 64-B granularity; the page-granularity
//!    RDMA baseline lives in [`rdma_sharing`].
//!
//! The on-CXL structures are defined in [`layout`].

#![warn(missing_docs)]

pub mod cxl_bp;
pub mod fusion;
pub mod layout;
pub mod manager;
pub mod rdma_sharing;
pub mod recovery;

pub use cxl_bp::{CxlBp, SharedCxl};
pub use fusion::{
    CoherencyMode, FencedError, FencingPolicy, FusionDir, FusionServer, FusionStats, SharedStore,
    SharingNode, SharingNodeStats,
};
pub use manager::{AllocError, CxlMemoryManager, Lease, ReleaseError};
pub use rdma_sharing::{RdmaDbp, RdmaDir, RdmaNodeStats, RdmaSharingNode};
pub use recovery::{polar_recv, polar_recv_policy, RecoveryReport, TrustPolicy};
