//! # storage — simulated persistent substrate
//!
//! Cloud-native databases like PolarDB disaggregate *storage* first:
//! pages live on a shared storage service, and a redo-only WAL makes
//! transactions durable. This crate provides both, with virtual-time
//! costs, so the recovery experiments (Figure 10) can compare how much
//! work each scheme re-does from storage and logs after a crash:
//!
//! - [`pagestore::PageStore`] — the page-granularity storage service
//!   (NVMe-class latency, 4 GB/s channel).
//! - [`wal::Wal`] — the ARIES-style redo log: one log whose durable
//!   mark splits the prefix on the log device from the **volatile** tail
//!   (lost on crash, §3.2 challenge 4), with mini-transaction-atomic
//!   appends, group flush (the mark moves; no record is copied),
//!   checkpoints and replay iteration.

#![warn(missing_docs)]

mod proptests;

pub mod pagestore;
pub mod wal;

/// Identifies a database page within the storage service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PageId(pub u64);

/// A log sequence number. LSN 0 is "before any record".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN ordered before every real record.
    pub const ZERO: Lsn = Lsn(0);
}

pub use pagestore::PageStore;
pub use wal::{LogRecord, Wal};
