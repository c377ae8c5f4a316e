//! # polardb-cxl-repro
//!
//! A from-scratch reproduction of **"Unlocking the Potential of CXL for
//! Disaggregated Memory in Cloud-Native Databases"** (SIGMOD-Companion
//! '25): PolarCXLMem (a CXL-switch-based disaggregated memory system),
//! PolarRecv (instant recovery from CXL memory), and the CXL
//! cache-coherency protocol for multi-primary data sharing — together
//! with every substrate they need (a virtual-time simulator, calibrated
//! CXL/RDMA/DRAM memory models, a page store + redo WAL, buffer pools,
//! a B+tree, a mini OLTP engine, and sysbench/TPC-C/TATP harnesses).
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`simkit`] | deterministic virtual-time kernel |
//! | [`memsim`] | calibrated memory/fabric models (Tables 1–2) |
//! | [`storage`] | page store + ARIES-style redo WAL |
//! | [`bufferpool`] | pool trait, DRAM pool, tiered-RDMA baseline |
//! | [`polarcxlmem`] | **the paper's contribution** |
//! | [`btree`] | B+tree with mini-transaction SMOs |
//! | [`engine`] | mini OLTP engine + three recovery schemes |
//! | [`workloads`] | benchmarks and experiment harnesses |
//!
//! ## Quickstart
//!
//! ```
//! use polardb_cxl_repro::prelude::*;
//! use std::{cell::RefCell, rc::Rc};
//!
//! // A CXL pool shared by one instance, managed by the memory manager.
//! let cxl = Rc::new(RefCell::new(CxlPool::single_host(64 << 20, 1, 1 << 20, false)));
//! let mut mgr = CxlMemoryManager::new(64 << 20);
//! let (lease, _) = mgr.allocate(NodeId(0), 40 << 20, SimTime::ZERO).unwrap();
//!
//! // A database whose entire buffer pool lives in CXL memory.
//! let store = PageStore::new(256);
//! let pool = CxlBp::format(cxl, NodeId(0), lease.offset, 256, store);
//! let mut db = Db::create(pool, 188);
//! db.load((1..=1000u64).map(|k| (k, vec![k as u8; 188])));
//!
//! let (found, t) = db.point_select(42, SimTime::ZERO);
//! assert!(found);
//! println!("point select completed at {t}");
//! ```

#![warn(missing_docs)]

pub use btree;
pub use bufferpool;
pub use engine;
pub use memsim;
pub use polarcxlmem;
pub use simkit;
pub use storage;
pub use workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use btree::BTree;
    pub use bufferpool::dram_bp::DramBp;
    pub use bufferpool::tiered::TieredRdmaBp;
    pub use bufferpool::{BufferPool, Crashable};
    pub use engine::{recover_polar, recover_polar_policy, recover_replay, Db};
    pub use memsim::{CxlPool, NodeId, RdmaPool};
    pub use polarcxlmem::{CxlBp, CxlMemoryManager, FusionServer, SharingNode, TrustPolicy};
    pub use polarcxlmem::{FencingPolicy, ReleaseError};
    pub use simkit::faults::{self, Action, FaultPlan, FaultSite, Trigger};
    pub use simkit::rng::{stream_rng, SimRng};
    pub use simkit::{dur, SimTime};
    pub use storage::{Lsn, PageId, PageStore, Wal};
    pub use workloads::{
        run_failover, run_pooling, run_recovery, run_sharing, DeathMode, FailoverConfig,
        FailoverResult, PoolKind, PoolingConfig, RecoveryConfig, RecoveryRunResult, Scheme,
        SharingConfig, SharingResult, SharingSystem, SysbenchKind,
    };
}
