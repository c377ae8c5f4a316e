//! A single-instance OLTP database over any buffer pool.
//!
//! The thin engine layer the evaluation drives: a table (B+tree keyed by
//! row id, fixed-size records), redo-only WAL with statement-atomic
//! group commit, per-instance vCPU accounting, and checkpointing.
//! Undo/rollback is out of scope (as in the paper's §3.2 discussion, the
//! recovery story revolves around redo); statements are the durability
//! unit.

use btree::BTree;
use bufferpool::{BufferPool, Crashable};
use memsim::calib::{
    CPU_PER_ROW_NS, CPU_POINT_SELECT_NS, CPU_TXN_OVERHEAD_NS, CPU_WRITE_STMT_NS, INSTANCE_VCPUS,
};
use simkit::trace::{self, Lane, SpanKind};
use simkit::{MultiServer, SimTime};
use storage::{Lsn, Wal};

/// Engine counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct DbStats {
    /// Queries executed (statements).
    pub queries: u64,
    /// Rows returned by selects.
    pub rows_read: u64,
    /// Write statements committed.
    pub commits: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

/// A database instance.
pub struct Db<P: BufferPool> {
    /// The buffer pool under test.
    pub pool: P,
    /// The redo log.
    pub wal: Wal,
    /// Primary-key index + row storage.
    pub table: BTree,
    cpus: MultiServer,
    stats: DbStats,
}

impl<P: BufferPool> std::fmt::Debug for Db<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("stats", &self.stats).finish()
    }
}

impl<P: BufferPool> Db<P> {
    /// Create a database with a fresh table of `record_size`-byte rows
    /// and the paper's standard 16 vCPUs.
    pub fn create(pool: P, record_size: u16) -> Self {
        let mut pool = pool;
        let mut wal = Wal::new();
        let (table, _) = BTree::create(&mut pool, &mut wal, record_size, SimTime::ZERO);
        Db {
            pool,
            wal,
            table,
            cpus: MultiServer::new(INSTANCE_VCPUS),
            stats: DbStats::default(),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Bulk-load `rows` (untimed host work + normal inserts at t=0), then
    /// checkpoint so the experiment starts clean, and prewarm the pool.
    /// The inserts run in the WAL's unlogged range
    /// ([`Wal::begin_unlogged`]), which the checkpoint ends: every LSN,
    /// flush and page is the logged load's, but no redo is kept that the
    /// checkpoint would discard unread. Whatever virtual time the load
    /// spends is discarded by the harnesses ([`Db::reset_timing_queues`]);
    /// a harness that seats several identical instances loads the first
    /// and makes the rest with [`Db::copy_onto`].
    ///
    /// # Panics
    /// When a fault plan is installed: a crash mid-load would need the
    /// redo the load does not keep.
    pub fn load(&mut self, rows: impl IntoIterator<Item = (u64, Vec<u8>)>) {
        assert!(
            !simkit::faults::active(),
            "cannot bulk-load under an installed fault plan"
        );
        self.wal.begin_unlogged();
        for (k, v) in rows {
            let (ins, _) = self
                .table
                .insert(&mut self.pool, &mut self.wal, k, &v, SimTime::ZERO);
            assert!(ins, "bulk load saw duplicate key {k}");
        }
        self.checkpoint(SimTime::ZERO);
        self.pool.prewarm();
    }

    /// An exact copy of this instance over `pool`, which must itself be a
    /// copy of [`Db::pool`] (`Clone`, or the pool's own `copy_to`): log,
    /// tree handle, vCPU queues and counters carry over, so the copy is
    /// the instance that loading the same rows into `pool`'s seat would
    /// have produced.
    ///
    /// # Panics
    /// When a fault plan is installed: the load this stands in for would
    /// have polled fault gates, and skipping it shifts every later hit
    /// index.
    pub fn copy_onto(&self, pool: P) -> Self {
        assert!(
            !simkit::faults::active(),
            "cannot copy an instance under an installed fault plan"
        );
        Db {
            pool,
            wal: self.wal.clone(),
            table: self.table,
            cpus: self.cpus.clone(),
            stats: self.stats,
        }
    }

    /// Point select: full row by key. Returns (found, completion).
    pub fn point_select(&mut self, key: u64, now: SimTime) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let g = self.cpus.acquire(now, CPU_POINT_SELECT_NS);
        let (row, t) = self.table.get(&mut self.pool, key, g.end);
        self.stats.queries += 1;
        if row.is_some() {
            self.stats.rows_read += 1;
        }
        (row.is_some(), t)
    }

    /// Point select of a narrow field (`len` bytes at `field_off`) —
    /// the access pattern where load/store disaggregation shines.
    pub fn select_field(
        &mut self,
        key: u64,
        field_off: u16,
        buf: &mut [u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let g = self.cpus.acquire(now, CPU_POINT_SELECT_NS);
        let (found, t) = self
            .table
            .get_field(&mut self.pool, key, field_off, buf, g.end);
        self.stats.queries += 1;
        if found {
            self.stats.rows_read += 1;
        }
        (found, t)
    }

    /// Range select of up to `limit` rows from `start`. Returns (rows
    /// returned, completion).
    pub fn range_select(&mut self, start: u64, limit: usize, now: SimTime) -> (usize, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let cpu = CPU_POINT_SELECT_NS + limit as u64 * CPU_PER_ROW_NS;
        let g = self.cpus.acquire(now, cpu);
        // Only the count is returned: charge the rows, move none.
        let (rows, t) = self.table.scan_count(&mut self.pool, start, limit, g.end);
        self.stats.queries += 1;
        self.stats.rows_read += rows as u64;
        (rows, t)
    }

    /// Auto-commit update of `len` bytes at `field_off` in `key`'s row:
    /// redo-logged, then the log is flushed (statement durability).
    pub fn update(
        &mut self,
        key: u64,
        field_off: u16,
        data: &[u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let (found, t) = self.update_no_commit(key, field_off, data, now);
        (found, self.commit(t))
    }

    /// Auto-commit insert. Returns (inserted, completion).
    pub fn insert(&mut self, key: u64, record: &[u8], now: SimTime) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let (ins, t) = self.insert_no_commit(key, record, now);
        (ins, self.commit(t))
    }

    /// Auto-commit delete. Returns (found, completion).
    pub fn delete(&mut self, key: u64, now: SimTime) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let (found, t) = self.delete_no_commit(key, now);
        (found, self.commit(t))
    }

    /// Update without the commit flush — for multi-statement
    /// transactions that commit once at the end.
    pub fn update_no_commit(
        &mut self,
        key: u64,
        field_off: u16,
        data: &[u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let g = self.cpus.acquire(now, CPU_WRITE_STMT_NS);
        let (found, t) =
            self.table
                .update_field(&mut self.pool, &mut self.wal, key, field_off, data, g.end);
        self.stats.queries += 1;
        (found, t)
    }

    /// Insert without the commit flush.
    pub fn insert_no_commit(&mut self, key: u64, record: &[u8], now: SimTime) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let g = self.cpus.acquire(now, CPU_WRITE_STMT_NS);
        let (ins, t) = self
            .table
            .insert(&mut self.pool, &mut self.wal, key, record, g.end);
        self.stats.queries += 1;
        (ins, t)
    }

    /// Delete without the commit flush.
    pub fn delete_no_commit(&mut self, key: u64, now: SimTime) -> (bool, SimTime) {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Btree);
        let g = self.cpus.acquire(now, CPU_WRITE_STMT_NS);
        let (found, t) = self.table.delete(&mut self.pool, &mut self.wal, key, g.end);
        self.stats.queries += 1;
        (found, t)
    }

    /// Commit: make buffered redo durable (group commit).
    pub fn commit(&mut self, now: SimTime) -> SimTime {
        let t = self.wal.flush(now);
        self.stats.commits += 1;
        trace::attr_add(Lane::Cpu, CPU_TXN_OVERHEAD_NS);
        t + CPU_TXN_OVERHEAD_NS
    }

    /// Fuzzy checkpoint: flush redo, flush dirty pages, advance the
    /// checkpoint LSN (bounding any future recovery scan).
    pub fn checkpoint(&mut self, now: SimTime) -> SimTime {
        let t = self.wal.flush(now);
        let ck = self.wal.durable_lsn();
        let t = self.pool.flush_all(t);
        self.wal.set_checkpoint(ck);
        self.stats.checkpoints += 1;
        trace::span(SpanKind::Checkpoint, 0, now, t, 0);
        t
    }

    /// Reset timing backlog accumulated by untimed setup (bulk load,
    /// checkpointing) on this instance's WAL device and storage channel,
    /// so a measurement window starts clean.
    pub fn reset_timing_queues(&mut self) {
        self.wal.reset_device_queue();
        self.pool.store_mut().reset_channel_queue();
    }

    /// Highest durable LSN (the committed prefix after a crash).
    pub fn durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }
}

impl<P: BufferPool + Crashable> Db<P> {
    /// Crash the instance: pool volatile state, WAL buffer, and all
    /// engine state die. The caller then builds a recovered Db via the
    /// scheme under test ([`crate::recovery`]).
    pub fn crash(&mut self) {
        self.pool.crash();
        self.wal.crash();
    }
}
