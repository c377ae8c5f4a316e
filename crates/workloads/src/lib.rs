//! # workloads — benchmark generators and evaluation harnesses
//!
//! Everything §4 of the paper runs: sysbench variants, TPC-C, TATP, the
//! multi-instance pooling harness (Figures 1/3/7/8/9), the
//! crash-recovery timeline harness (Figure 10), and the multi-primary
//! sharing harness (Figures 11/12/13, Table 3). All harnesses execute
//! real operations in deterministic virtual time.

#![warn(missing_docs)]

pub mod cluster;
pub mod harness;
pub mod metrics;
pub mod recovery_harness;
pub mod sharing;
pub mod sysbench;
pub mod tatp;
pub mod tpcc;

pub use harness::{run_pooling, PoolKind, PoolingConfig, PoolingResult};
pub use metrics::RunMetrics;
pub use recovery_harness::{run_recovery, RecoveryConfig, RecoveryRunResult, Scheme};
pub use sharing::{run_sharing, GroupLayout, ShOp, SharingConfig, SharingResult, SharingSystem};
pub use sysbench::{Sysbench, SysbenchKind};
