//! The three crash-recovery schemes compared in Figure 10.
//!
//! - **Vanilla** (ARIES-style over a local pool): scan the whole redo
//!   tail from the checkpoint, fault every touched page in from
//!   *storage*, re-apply. The buffer starts empty, so post-recovery
//!   throughput also suffers a long warm-up.
//! - **RDMA-assisted**: identical logic, but the tiered pool faults
//!   pages from *remote memory* when resident there — cheaper I/O, same
//!   full log scan, still an (LBP-sized) warm-up.
//! - **PolarRecv**: [`polarcxlmem::recovery::polar_recv`] — the pool
//!   *survives* in CXL memory; only in-flight pages are rebuilt, and the
//!   buffer is warm immediately.
//!
//! All three return a common [`RecoverySummary`] so the harness can plot
//! them on one axis.

use crate::db::Db;
use btree::BTree;
use bufferpool::BufferPool;
use polarcxlmem::{CxlBp, TrustPolicy};
use simkit::trace::{self, SpanKind};
use simkit::SimTime;
use storage::{LogRecord, Lsn, Wal};

/// What a recovery run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Scheme name for reports.
    pub scheme: &'static str,
    /// Pages written during recovery (faulted + patched).
    pub pages_rebuilt: u64,
    /// Redo records applied.
    pub records_applied: u64,
    /// Log bytes scanned.
    pub log_bytes: u64,
    /// Completion time.
    pub done: SimTime,
}

/// ARIES-style replay recovery, used by both the vanilla (local pool)
/// and RDMA-assisted (tiered pool) schemes — the pool type decides where
/// page faults are served from.
pub fn recover_replay<P: BufferPool>(
    db: &mut Db<P>,
    scheme: &'static str,
    now: SimTime,
) -> RecoverySummary {
    let ckpt = db.wal.checkpoint_lsn();
    let log_bytes = db.wal.replay_bytes_from(ckpt);
    let mut t = db.wal.charge_scan(ckpt, now);
    let recs = replay_order(&db.wal, ckpt);
    for rec in &recs {
        t = db.pool.write(rec.page, rec.off, rec.data, rec.lsn, t).end;
    }
    let pages_rebuilt = recs.chunk_by(|a, b| a.page == b.page).count() as u64;
    let applied = recs.len() as u64;
    // Reattach the table through the (possibly empty) pool.
    let (table, t2) = BTree::open(&mut db.pool, db.table.meta_page, t);
    db.table = table;
    trace::span(SpanKind::RecoveryReplay, 0, now, t2, log_bytes);
    RecoverySummary {
        scheme,
        pages_rebuilt,
        records_applied: applied,
        log_bytes,
        done: t2,
    }
}

/// The durable records after `from` in InnoDB-style apply order:
/// page-at-a-time (LSN order within a page), so each touched page is
/// faulted exactly once regardless of buffer size. The views are
/// collected at their exact count and sorted in place by (page, LSN) —
/// LSNs are unique, so that is the stable order without a merge buffer,
/// and nothing is cloned. Not generic, so the sort is compiled here once
/// rather than into every crate that instantiates [`recover_replay`].
fn replay_order(wal: &Wal, from: Lsn) -> Vec<LogRecord<'_>> {
    let mut recs = Vec::with_capacity(wal.replay_from(from).count());
    recs.extend(wal.replay_from(from));
    recs.sort_unstable_by_key(|rec| (rec.page, rec.lsn));
    recs
}

/// PolarRecv over a crashed CXL-resident pool (§3.2) under `policy`:
/// [`TrustPolicy::Durable`] is the paper's scheme; the fault sweep runs
/// the broken [`TrustPolicy::TrustLatched`] to show that verification
/// catches it.
pub fn recover_polar(db: &mut Db<CxlBp>, policy: TrustPolicy, now: SimTime) -> RecoverySummary {
    let report = polarcxlmem::recovery::polar_recv_policy(&mut db.pool, &mut db.wal, now, policy);
    let (table, t2) = BTree::open(&mut db.pool, db.table.meta_page, report.done);
    db.table = table;
    trace::span(
        SpanKind::RecoveryReplay,
        0,
        now,
        t2,
        report.log_bytes_scanned,
    );
    RecoverySummary {
        scheme: "polarrecv",
        pages_rebuilt: report.rebuilt,
        records_applied: report.records_applied,
        log_bytes: report.log_bytes_scanned,
        done: t2,
    }
}
