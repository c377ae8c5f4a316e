//! Allocation gates for write statements.
//!
//! `pooling_allocs.rs` holds the read path to zero; a write statement
//! gets there too. The WAL writes its redo into fixed log blocks it
//! keeps across flushes, so a record allocates nothing until a block
//! fills, and nothing in the B+tree needs the heap for one: the
//! mini-transaction's latch list and the descent path live in place
//! (`btree::inline_vec`), the slot-directory shift on the stack, and a
//! range select moves no row at all. What is left per statement — one
//! 64 KB log block per few hundred statements — is counted here and
//! held, so a `Vec` put back on the statement path fails a test rather
//! than drifting the ledger's `allocs_per_sim_op`. Counts are per thread
//! and exact.
//!
//! Same two-window differencing as `pooling_allocs.rs`: two runs that
//! differ only in how long they last allocate the same during set-up (and,
//! for the recovery harness, up to and through recovery), so the
//! difference belongs to the statements between the two ends.

use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::profile::{alloc_count, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations of `run`, and the statements it reports.
fn allocs_and_statements(run: impl FnOnce() -> f64) -> (f64, f64) {
    let before = alloc_count();
    let statements = run();
    ((alloc_count() - before) as f64, statements)
}

fn per_statement(short: (f64, f64), long: (f64, f64), what: &str) -> f64 {
    let ((a_short, q_short), (a_long, q_long)) = (short, long);
    assert!(q_long > q_short + 5_000.0, "{what}: window too short");
    let per = (a_long - a_short) / (q_long - q_short);
    eprintln!("{what}: {per:.4} allocations per statement");
    per
}

fn read_write(kind: PoolKind, window_ms: u64) -> (f64, f64) {
    let mut cfg = PoolingConfig::standard(kind, SysbenchKind::ReadWrite, 1);
    cfg.table_size = 8_000;
    cfg.duration = SimTime::from_millis(window_ms);
    allocs_and_statements(|| {
        let r = run_pooling(&cfg);
        r.metrics.qps * r.metrics.window.as_secs_f64()
    })
}

/// Sysbench read-write: 18 statements a transaction, four of them range
/// selects, four of them writes.
#[test]
fn read_write_statements_stay_off_the_allocator() {
    for kind in [PoolKind::TieredRdma, PoolKind::Cxl] {
        let per = per_statement(
            read_write(kind, 10),
            read_write(kind, 40),
            &format!("read-write on {kind:?}"),
        );
        assert!(
            per < RW_LIMIT,
            "{kind:?}: {per:.4} allocations per read-write statement (limit {RW_LIMIT})"
        );
    }
}

fn write_only(scheme: Scheme, duration_ms: u64) -> (f64, f64) {
    let mut cfg = RecoveryConfig::standard(scheme, SysbenchKind::WriteOnly);
    cfg.table_size = 8_000;
    cfg.crash_at = SimTime::from_millis(20);
    cfg.duration = SimTime::from_millis(duration_ms);
    cfg.bucket = dur::MS;
    allocs_and_statements(|| {
        let r = run_recovery(&cfg);
        let bucket_secs = cfg.bucket as f64 / dur::SEC as f64;
        r.timeline.iter().map(|p| p.qps * bucket_secs).sum()
    })
}

/// Sysbench write-only through the recovery harness — every statement a
/// write — after the crash and the recovery, on each scheme's pool.
#[test]
fn write_only_statements_after_recovery_stay_off_the_allocator() {
    for scheme in [Scheme::Vanilla, Scheme::RdmaBased, Scheme::PolarRecv] {
        let per = per_statement(
            write_only(scheme, 60),
            write_only(scheme, 160),
            scheme.name(),
        );
        assert!(
            per < WO_LIMIT,
            "{scheme:?}: {per:.4} allocations per write-only statement (limit {WO_LIMIT})"
        );
    }
}

/// A few log blocks per thousand statements: 0.0006 per read-write
/// statement on either pool, 0.0022 per write-only statement on every
/// scheme. A heap box per redo payload over 22 bytes (the WAL's records
/// before it wrote into blocks) read 0.19 and 0.85; one `Vec` put back in
/// `Mtr::latched`, the descent path or the slot shift adds 0.11–0.22 per
/// read-write and 0.49–1.0 per write-only statement.
const RW_LIMIT: f64 = 0.01;
const WO_LIMIT: f64 = 0.01;
