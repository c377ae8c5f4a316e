//! The ARIES-style redo write-ahead log.
//!
//! Matches the recovery story of §3.2:
//!
//! - every page update appends a physiological redo record to the log's
//!   **volatile** tail in local DRAM;
//! - commit (and mini-transaction commit for SMOs) flushes the tail to
//!   the log device — so after a crash, everything up to
//!   [`Wal::durable_lsn`] is replayable and everything after is *gone*;
//! - records belonging to one mini-transaction become durable atomically
//!   (each group's last record carries an end flag, and replay never
//!   surfaces a torn group);
//! - checkpoints bound how far back replay must scan.
//!
//! In host memory the log is one block log, the durable prefix followed
//! by the volatile tail, with a durable mark between them: a flush moves
//! the mark to the log's end, a crash truncates the log to it, and a
//! checkpoint drops the prefix it covers. No record is copied to become
//! durable. Records are written back to back as bytes into fixed 64 KB
//! blocks, which are never reallocated, and are read back as borrowed
//! [`LogRecord`] views. A record costs a 13-byte header plus its payload;
//! its LSN (8 bytes more) is written only where it is not the previous
//! record's + 1 — a log's first record, and the first after the gap a
//! crash leaves. Appending allocates nothing until a block fills. The
//! device format is separate and fixed: every flush, scan and replay is
//! charged by a record's device size, [`encoded_len`].

use memsim::calib::{WAL_FLUSH_NS, WAL_GBPS};
use simkit::faults::{self, FaultSite, Verdict};
use simkit::trace::{self, Lane, SpanKind};
use simkit::{Link, SimTime};

use crate::{Lsn, PageId};

/// One physiological redo record: "write `data` at `off` within `page`",
/// borrowed from the log it was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord<'a> {
    /// This record's LSN (unique, ascending).
    pub lsn: Lsn,
    /// Target page.
    pub page: PageId,
    /// Byte offset within the page.
    pub off: u16,
    /// Bytes to write at `off`.
    pub data: &'a [u8],
    /// True on the last record of a mini-transaction: the group
    /// `(.., mtr_end]` applies atomically.
    pub mtr_end: bool,
}

/// Bytes per log block. Under glibc's default 128 KB mmap threshold, so
/// a freed block goes back on the heap for the next log to reuse.
const BLOCK: usize = 64 << 10;

/// Host header of a record without its LSN: flags, page, offset, length.
const HEADER: usize = 1 + 8 + 2 + 2;

/// Record flag: last record of a mini-transaction.
const END: u8 = 1;

/// Record flag: the record carries its LSN.
const HAS_LSN: u8 = 2;

/// A place in a [`BlockLog`] — its end, or the durable mark: where the
/// next record starts, and what precedes it.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    /// Records before the mark.
    records: usize,
    /// Of those, the records up to and including the last group end.
    sealed: usize,
    /// LSN of the record before the mark.
    last_lsn: u64,
    /// Block index and byte offset of the mark.
    pos: (usize, usize),
}

/// Records back to back in fixed blocks:
/// `flags u8 | [lsn u64] | page u64 | off u16 | len u16 | payload`.
/// A record that does not fit the tail block opens a new one (of its own
/// size if it exceeds [`BLOCK`]).
#[derive(Default)]
struct BlockLog {
    blocks: Vec<Vec<u8>>,
    /// Where the log ends.
    end: Mark,
    /// Where the last record's flags byte sits.
    last_at: (usize, usize),
}

/// Blocks keep their capacity, so a copied log fills its tail block
/// where the original would.
impl Clone for BlockLog {
    fn clone(&self) -> Self {
        BlockLog {
            blocks: self.blocks.iter().map(simkit::clone_reserved).collect(),
            ..*self
        }
    }
}

impl std::fmt::Debug for BlockLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockLog")
            .field("records", &self.end.records)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl BlockLog {
    fn push(&mut self, rec: LogRecord<'_>) {
        let len = u16::try_from(rec.data.len()).expect("a redo payload fits its u16 length");
        let explicit = self.end.records == 0 || rec.lsn.0 != self.end.last_lsn + 1;
        let size = HEADER + 8 * explicit as usize + rec.data.len();
        let room = self.blocks.last().map_or(0, |b| b.capacity() - b.len());
        if size > room {
            self.blocks.push(Vec::with_capacity(size.max(BLOCK)));
        }
        let at = self.blocks.len() - 1;
        let b = &mut self.blocks[at];
        self.last_at = (at, b.len());
        b.push(if rec.mtr_end { END } else { 0 } | if explicit { HAS_LSN } else { 0 });
        if explicit {
            b.extend_from_slice(&rec.lsn.0.to_le_bytes());
        }
        b.extend_from_slice(&rec.page.0.to_le_bytes());
        b.extend_from_slice(&rec.off.to_le_bytes());
        b.extend_from_slice(&len.to_le_bytes());
        b.extend_from_slice(rec.data);
        let end = &mut self.end;
        end.records += 1;
        if rec.mtr_end {
            end.sealed = end.records;
        }
        end.last_lsn = rec.lsn.0;
        end.pos = (at, b.len());
    }

    /// Flag the last record as a group end (the log is not empty).
    fn seal(&mut self) {
        let (block, at) = self.last_at;
        self.blocks[block][at] |= END;
        self.end.sealed = self.end.records;
    }

    /// Drop every record after `m`, keeping the block `m` sits in.
    fn truncate(&mut self, m: Mark) {
        self.blocks.truncate(m.pos.0 + 1);
        if let Some(b) = self.blocks.get_mut(m.pos.0) {
            b.truncate(m.pos.1);
        }
        self.end = m;
    }

    /// Drop the first `n` records (the first one kept then carries its
    /// LSN). Returns `m`, a mark at or past them, where it sits after.
    fn drop_first(&mut self, n: usize, m: Mark) -> Mark {
        if n == self.end.records {
            self.truncate(Mark::default());
            return Mark::default();
        }
        let mut rest = BlockLog::default();
        let mut moved = Mark::default();
        for rec in self.iter().skip(n) {
            rest.push(rec);
            if n + rest.end.records == m.records {
                moved = rest.end;
            }
        }
        *self = rest;
        moved
    }

    /// The records after `m`.
    fn iter_from(&self, m: Mark) -> Records<'_> {
        Records {
            blocks: &self.blocks,
            block: m.pos.0,
            at: m.pos.1,
            lsn: m.last_lsn,
        }
    }

    fn iter(&self) -> Records<'_> {
        self.iter_from(Mark::default())
    }
}

/// Reads a [`BlockLog`] front to back.
struct Records<'a> {
    blocks: &'a [Vec<u8>],
    block: usize,
    at: usize,
    lsn: u64,
}

impl<'a> Iterator for Records<'a> {
    type Item = LogRecord<'a>;

    fn next(&mut self) -> Option<LogRecord<'a>> {
        let blocks = self.blocks;
        let mut b = blocks.get(self.block)?;
        while self.at == b.len() {
            self.block += 1;
            self.at = 0;
            b = blocks.get(self.block)?;
        }
        let flags = b[self.at];
        let mut at = self.at + 1;
        self.lsn = if flags & HAS_LSN != 0 {
            at += 8;
            le_u64(b, at - 8)
        } else {
            self.lsn + 1
        };
        let page = PageId(le_u64(b, at));
        let off = le_u16(b, at + 8);
        let len = le_u16(b, at + 10) as usize;
        at += 12;
        self.at = at + len;
        Some(LogRecord {
            lsn: Lsn(self.lsn),
            page,
            off,
            data: &b[at..at + len],
            mtr_end: flags & END != 0,
        })
    }
}

/// Encoded size of a record on the log device (header + payload).
pub fn encoded_len(rec: &LogRecord) -> u64 {
    // lsn(8) + page(8) + off(2) + len(2) + flags(1) + crc(4)
    25 + rec.data.len() as u64
}

/// Read a little-endian `u64` at `at` (caller has bounds-checked).
fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Read a little-endian `u16` at `at` (caller has bounds-checked).
fn le_u16(buf: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[at..at + 2]);
    u16::from_le_bytes(b)
}

/// A redo-only WAL: one log, whose durable mark splits the records the
/// log device holds from the volatile tail.
///
/// ```
/// use storage::{Lsn, PageId, Wal};
/// use simkit::SimTime;
///
/// let mut wal = Wal::new();
/// wal.append_update(PageId(3), 16, &[0xAB; 8]);
/// wal.seal_mtr();
/// wal.flush(SimTime::ZERO);               // durable
/// wal.append_update(PageId(4), 0, &[1]); // still volatile...
/// wal.crash();                              // ...and now gone
/// let survivors: Vec<_> = wal.replay_from(Lsn::ZERO).collect();
/// assert_eq!(survivors.len(), 1);
/// assert_eq!(survivors[0].page, PageId(3));
/// ```
#[derive(Debug, Clone)]
pub struct Wal {
    next_lsn: u64,
    /// The durable prefix, then the volatile tail (local DRAM: lost on
    /// crash).
    log: BlockLog,
    /// The durable mark: where the prefix the log device holds ends.
    durable: Mark,
    /// Device bytes of the volatile tail, logged or not.
    pending_bytes: u64,
    durable_lsn: Lsn,
    checkpoint_lsn: Lsn,
    device: Link,
    flushes: u64,
    bytes_flushed: u64,
    /// Inside an unlogged range ([`Wal::begin_unlogged`]).
    unlogged: bool,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

impl Wal {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Wal {
            next_lsn: 1,
            log: BlockLog::default(),
            durable: Mark::default(),
            pending_bytes: 0,
            durable_lsn: Lsn::ZERO,
            checkpoint_lsn: Lsn::ZERO,
            device: Link::new("wal", WAL_GBPS),
            flushes: 0,
            bytes_flushed: 0,
            unlogged: false,
        }
    }

    /// Open an unlogged range, for a bulk load whose pages the checkpoint
    /// that ends it writes out (InnoDB's sorted index build logs no redo
    /// either). Inside it an append assigns its LSN and charges its
    /// device bytes as a logged one does, but keeps no record: the
    /// closing flush makes the same LSN durable at the same cost, and the
    /// checkpoint leaves the state a logged twin would. Records already
    /// in the volatile tail flush as usual.
    ///
    /// The range ends at a [`Wal::set_checkpoint`] on its last LSN, made
    /// durable; a [`Wal::crash`] inside it panics, since its LSNs have
    /// no redo to replay.
    pub fn begin_unlogged(&mut self) {
        self.unlogged = true;
    }

    /// Append a single update record (ARIES WAL rule: callers log before
    /// writing the page). The record joins the current mini-transaction
    /// group; call [`Wal::seal_mtr`] at group end.
    pub fn append_update(&mut self, page: PageId, off: u16, data: &[u8]) -> Lsn {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Wal);
        let rec = LogRecord {
            lsn: Lsn(self.next_lsn),
            page,
            off,
            data,
            mtr_end: false,
        };
        self.next_lsn += 1;
        self.pending_bytes += encoded_len(&rec);
        if !self.unlogged {
            self.log.push(rec);
        }
        rec.lsn
    }

    /// Mark the end of the current mini-transaction group (idempotent;
    /// a no-op while the volatile tail is empty).
    pub fn seal_mtr(&mut self) {
        if self.log.end.records > self.durable.records {
            self.log.seal();
        }
    }

    /// Highest LSN assigned so far (durable or not).
    pub fn max_assigned_lsn(&self) -> Lsn {
        Lsn(self.next_lsn - 1)
    }

    /// Highest durable LSN — the replay ceiling after a crash (§3.2:
    /// pages "newer" than this lack redo and must not be trusted).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable_lsn
    }

    /// Current checkpoint LSN (replay floor for vanilla recovery).
    pub fn checkpoint_lsn(&self) -> Lsn {
        self.checkpoint_lsn
    }

    /// Bytes waiting in the volatile tail.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// Flush the volatile tail: the durable mark moves to the log's end.
    /// Charges device latency + bandwidth; returns completion time. A
    /// flush with an empty tail is free (group commit fast path). Every
    /// appended LSN becomes durable, logged or not.
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Wal);
        if self.pending_bytes == 0 {
            return now;
        }
        if let Verdict::Torn { keep_bytes } = faults::gate(FaultSite::WalFlush) {
            self.torn_flush(keep_bytes);
        }
        let bytes = self.pending_bytes;
        self.durable_lsn = self.max_assigned_lsn();
        self.durable = self.log.end;
        self.pending_bytes = 0;
        self.flushes += 1;
        self.bytes_flushed += bytes;
        let end = self.device.transfer(now, bytes).end + WAL_FLUSH_NS;
        trace::attr_add(Lane::Wal, end.saturating_since(now));
        trace::span(SpanKind::WalFlush, 0, now, end, bytes);
        end
    }

    /// A flush torn `keep_bytes` into its device write: the durable mark
    /// moves past the records fully inside the durable prefix, truncated
    /// to the last complete mini-transaction group (preserving group
    /// atomicity); the rest die with the host, and the crash unwinds to
    /// the harness ([`simkit::faults::unwind`]).
    #[cold]
    fn torn_flush(&mut self, keep_bytes: u64) -> ! {
        let (mut fit_bytes, mut bytes) = (0u64, 0u64);
        let mut records = self.durable.records;
        let mut recs = self.log.iter_from(self.durable);
        while let Some(r) = recs.next() {
            fit_bytes += encoded_len(&r);
            if fit_bytes > keep_bytes {
                break;
            }
            records += 1;
            if r.mtr_end {
                self.durable = Mark {
                    records,
                    sealed: records,
                    last_lsn: r.lsn.0,
                    pos: (recs.block, recs.at),
                };
                bytes = fit_bytes;
            }
        }
        if bytes > 0 {
            self.pending_bytes -= bytes;
            self.durable_lsn = Lsn(self.durable.last_lsn);
            self.flushes += 1;
            self.bytes_flushed += bytes;
        }
        faults::unwind()
    }

    /// Record a checkpoint at `lsn`: replay after a crash starts here.
    /// (The engine is responsible for having flushed the corresponding
    /// dirty pages first.)
    pub fn set_checkpoint(&mut self, lsn: Lsn) {
        assert!(
            lsn <= self.durable_lsn,
            "cannot checkpoint beyond durability"
        );
        assert!(lsn >= self.checkpoint_lsn, "checkpoints move forward");
        if self.unlogged {
            assert_eq!(
                lsn,
                self.max_assigned_lsn(),
                "an unlogged range ends at a checkpoint on its last LSN"
            );
            self.unlogged = false;
        }
        self.checkpoint_lsn = lsn;
        // Durable records at or below the checkpoint can be discarded.
        let gone = if lsn == self.durable_lsn {
            self.durable.records
        } else {
            self.log.iter().take_while(|r| r.lsn <= lsn).count()
        };
        self.durable = self.log.drop_first(gone, self.durable);
    }

    /// Crash: the log is truncated to its durable mark.
    ///
    /// # Panics
    /// Inside an unlogged range: nothing replayable exists for its LSNs.
    pub fn crash(&mut self) {
        assert!(
            !self.unlogged,
            "crash inside an unlogged range: its LSNs have no redo to replay"
        );
        self.log.truncate(self.durable);
        self.pending_bytes = 0;
    }

    /// Iterate durable records with `lsn > from`, in LSN order, stopping
    /// after the last *complete* mini-transaction group (a torn group at
    /// the tail is never surfaced — though flush-atomicity means one can
    /// only appear if callers flush mid-group).
    pub fn replay_from(&self, from: Lsn) -> impl Iterator<Item = LogRecord<'_>> {
        self.log
            .iter()
            .take(self.durable.sealed)
            .filter(move |r| r.lsn > from)
    }

    /// Bytes of durable log with `lsn > from` — what a recovery scan must
    /// read.
    pub fn replay_bytes_from(&self, from: Lsn) -> u64 {
        self.log
            .iter()
            .take(self.durable.records)
            .filter(|r| r.lsn > from)
            .map(|r| encoded_len(&r))
            .sum()
    }

    /// (flush count, bytes flushed) so far.
    pub fn flush_stats(&self) -> (u64, u64) {
        (self.flushes, self.bytes_flushed)
    }

    /// Reset the log device's backlog clock (between setup and
    /// measurement).
    pub fn reset_device_queue(&mut self) {
        self.device.reset_queue();
    }

    /// Charge the device cost of scanning the durable log with
    /// `lsn > from` (what every recovery scheme pays to read its redo
    /// tail). Returns the scan completion time.
    pub fn charge_scan(&mut self, from: Lsn, now: SimTime) -> SimTime {
        let bytes = self.replay_bytes_from(from);
        if bytes == 0 {
            return now;
        }
        let end = self.device.transfer(now, bytes).end;
        trace::attr_add(Lane::Wal, end.saturating_since(now));
        end
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn upd(page: u64, off: u16, byte: u8) -> (PageId, u16, Vec<u8>) {
        (PageId(page), off, vec![byte; 8])
    }

    /// Append one mini-transaction's records to `wal`'s volatile tail
    /// through [`Wal::append_update`] and [`Wal::seal_mtr`]: the last
    /// record is the group end. Returns the LSN of the last record.
    ///
    /// # Panics
    /// When `updates` is empty — an empty mini-transaction is a caller bug.
    pub(crate) fn append_mtr(wal: &mut Wal, updates: Vec<(PageId, u16, Vec<u8>)>) -> Lsn {
        assert!(!updates.is_empty(), "mini-transaction must contain updates");
        for (page, off, data) in &updates {
            wal.append_update(*page, *off, data);
        }
        wal.seal_mtr();
        wal.max_assigned_lsn()
    }

    /// Host bytes the log holds, durable or not.
    fn host_bytes(wal: &Wal) -> usize {
        wal.log.blocks.iter().map(Vec::len).sum()
    }

    /// Each kept record's LSN and where its payload sits, durable or not.
    fn addresses(wal: &Wal) -> Vec<(Lsn, *const u8)> {
        wal.log.iter().map(|r| (r.lsn, r.data.as_ptr())).collect()
    }

    /// The durable records as replay yields them.
    fn records(wal: &Wal) -> Vec<LogRecord<'_>> {
        wal.replay_from(Lsn::ZERO).collect()
    }

    /// LSNs of the first record in each durable block.
    pub(crate) fn durable_block_starts(wal: &Wal) -> Vec<Lsn> {
        let mut recs = wal.log.iter();
        let (mut starts, mut block) = (Vec::new(), usize::MAX);
        for _ in 0..wal.durable.records {
            let rec = recs.next().expect("the durable prefix is in the log");
            if recs.block != block {
                block = recs.block;
                starts.push(rec.lsn);
            }
        }
        starts
    }

    #[test]
    fn a_record_costs_thirteen_bytes_plus_its_payload() {
        // The log's first record carries its LSN; its successors do not.
        let mut wal = Wal::new();
        wal.append_update(PageId(1), 0, &[1; 5]);
        assert_eq!(host_bytes(&wal), 21 + 5);
        wal.append_update(PageId(2), 0, &[2; 7]);
        wal.seal_mtr();
        assert_eq!(host_bytes(&wal), 21 + 5 + 13 + 7);
        wal.flush(SimTime::ZERO);
        assert_eq!(host_bytes(&wal), 21 + 5 + 13 + 7);
        // A crash loses LSN 3: the record after the gap carries its LSN.
        wal.append_update(PageId(3), 0, &[3; 4]);
        wal.crash();
        wal.append_update(PageId(4), 0, &[4; 4]);
        wal.append_update(PageId(5), 0, &[]);
        wal.seal_mtr();
        wal.flush(SimTime::ZERO);
        assert_eq!(host_bytes(&wal), 21 + 5 + 13 + 7 + 21 + 4 + 13);
        let lsns: Vec<u64> = records(&wal).iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, [1, 2, 4, 5]);
        // The device format stays 25 bytes plus the payload.
        assert_eq!(wal.replay_bytes_from(Lsn::ZERO), 4 * 25 + 5 + 7 + 4);
    }

    #[test]
    fn a_full_block_opens_the_next() {
        let mut wal = Wal::new();
        let payload = [7u8; 100];
        // 21 + 100 bytes for the first record, 13 + 100 for each next.
        let fits = 1 + (BLOCK - 121) / 113;
        for _ in 0..fits {
            wal.append_update(PageId(1), 0, &payload);
        }
        assert_eq!(wal.log.blocks.len(), 1);
        let first = wal.log.blocks[0].as_ptr();
        wal.append_update(PageId(2), 0, &payload);
        assert_eq!(wal.log.blocks.len(), 2, "the next record opens a block");
        assert_eq!(wal.log.blocks[0].as_ptr(), first, "a block never moves");
        // A record longer than a block gets a block of its own size.
        let jumbo = vec![9u8; u16::MAX as usize];
        wal.append_update(PageId(3), 0, &jumbo);
        wal.append_update(PageId(4), 0, &payload);
        wal.seal_mtr();
        let caps: Vec<usize> = wal.log.blocks.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [BLOCK, BLOCK, 13 + jumbo.len(), BLOCK]);
        wal.flush(SimTime::ZERO);
        let recs = records(&wal);
        let after = |n: usize| Lsn((fits + n) as u64);
        assert_eq!(recs.len(), fits + 3);
        assert!(recs[..=fits].iter().all(|r| r.data == payload));
        assert_eq!((recs[fits].page, recs[fits].lsn), (PageId(2), after(1)));
        assert_eq!(recs[fits + 1].data, &jumbo[..]);
        assert_eq!(recs[fits + 2].page, PageId(4));
        assert!(recs[fits + 2].mtr_end);
        assert_eq!(
            durable_block_starts(&wal),
            [Lsn(1), after(1), after(2), after(3)]
        );
    }

    #[test]
    fn a_flush_moves_the_mark_and_no_record() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1), upd(2, 0, 2)]);
        let first = addresses(&wal);
        wal.flush(SimTime::ZERO);
        append_mtr(&mut wal, vec![upd(3, 0, 3)]);
        let kept = addresses(&wal);
        assert_eq!(kept[..2], first[..]);
        // The second flush lands after a durable prefix: every record,
        // the one it makes durable included, keeps its bytes' address.
        wal.flush(SimTime::ZERO);
        assert_eq!(addresses(&wal), kept);
        // A crash drops the volatile tail and nothing before it.
        append_mtr(&mut wal, vec![upd(4, 0, 4)]);
        assert_eq!(addresses(&wal).len(), 4);
        wal.crash();
        assert_eq!(addresses(&wal), kept);
        let lsns: Vec<u64> = records(&wal).iter().map(|r| r.lsn.0).collect();
        assert_eq!(lsns, [1, 2, 3]);
        // Checkpoint at the durable tip empties the log entirely.
        wal.set_checkpoint(wal.durable_lsn());
        assert!(addresses(&wal).is_empty());
    }

    #[test]
    fn clone_keeps_records_counters_and_capacity() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1), upd(2, 0, 2)]);
        wal.flush(SimTime::ZERO);
        append_mtr(&mut wal, vec![upd(3, 0, 3)]);
        let copy = wal.clone();
        let capacities = |w: &Wal| w.log.blocks.iter().map(Vec::capacity).collect::<Vec<_>>();
        assert_eq!(capacities(&copy), capacities(&wal));
        assert_eq!(capacities(&copy), [BLOCK]);
        assert_eq!(copy.pending_bytes(), wal.pending_bytes());
        assert_eq!(copy.flush_stats(), wal.flush_stats());
        assert_eq!(copy.max_assigned_lsn(), Lsn(3));
        // Same device backlog, same volatile tail: the next flush ends at
        // the same instant and makes the same records durable.
        let (mut a, mut b) = (wal, copy);
        assert_eq!(a.flush(SimTime(10)), b.flush(SimTime(10)));
        assert_eq!(records(&a), records(&b));
        assert_eq!(records(&a).len(), 3);
    }

    #[test]
    fn lsns_are_dense_and_ascending() {
        let mut wal = Wal::new();
        let l1 = append_mtr(&mut wal, vec![upd(1, 0, 1), upd(2, 0, 2)]);
        let l2 = append_mtr(&mut wal, vec![upd(3, 0, 3)]);
        assert_eq!(l1, Lsn(2));
        assert_eq!(l2, Lsn(3));
        assert_eq!(wal.max_assigned_lsn(), Lsn(3));
    }

    #[test]
    fn unflushed_records_die_in_a_crash() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        append_mtr(&mut wal, vec![upd(2, 0, 2)]);
        wal.crash();
        assert_eq!(wal.durable_lsn(), Lsn(1));
        let survivors: Vec<_> = wal.replay_from(Lsn::ZERO).collect();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].page, PageId(1));
    }

    #[test]
    fn replay_respects_floor() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        append_mtr(&mut wal, vec![upd(2, 0, 2)]);
        append_mtr(&mut wal, vec![upd(3, 0, 3)]);
        wal.flush(SimTime::ZERO);
        let from2: Vec<_> = wal.replay_from(Lsn(2)).map(|r| r.page).collect();
        assert_eq!(from2, vec![PageId(3)]);
    }

    #[test]
    fn checkpoint_discards_old_records() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        append_mtr(&mut wal, vec![upd(2, 0, 2)]);
        wal.flush(SimTime::ZERO);
        wal.set_checkpoint(Lsn(1));
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 1);
        assert_eq!(wal.checkpoint_lsn(), Lsn(1));
    }

    #[test]
    #[should_panic(expected = "beyond durability")]
    fn checkpoint_cannot_pass_durable() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        wal.set_checkpoint(Lsn(1)); // not yet flushed
    }

    #[test]
    fn mtr_groups_flag_their_end() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1), upd(2, 0, 2), upd(3, 0, 3)]);
        wal.flush(SimTime::ZERO);
        let flags: Vec<bool> = wal.replay_from(Lsn::ZERO).map(|r| r.mtr_end).collect();
        assert_eq!(flags, vec![false, false, true]);
    }

    #[test]
    fn flush_is_timed_and_idempotent_when_empty() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 9)]);
        // Charged by `encoded_len`: a 25-byte header plus the payload.
        assert_eq!(wal.pending_bytes(), 25 + 8);
        let end = wal.flush(SimTime::ZERO);
        assert!(end.as_nanos() >= WAL_FLUSH_NS);
        // Nothing pending: free.
        let again = wal.flush(end);
        assert_eq!(again, end);
        assert_eq!(wal.flush_stats().0, 1);
        assert_eq!(wal.pending_bytes(), 0);
    }

    #[test]
    fn torn_flush_keeps_only_complete_groups() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut wal = Wal::new();
        // Group A encodes to 33 bytes. Tear inside group B: A plus B's
        // first record fit the durable prefix, but only complete groups
        // may surface.
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        append_mtr(&mut wal, vec![upd(2, 0, 2), upd(3, 0, 3)]);
        faults::install(FaultPlan::TornWalFlush {
            nth: 0,
            keep_bytes: 33 + 40,
        });
        let crash = faults::catch(|| wal.flush(SimTime::ZERO));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        wal.crash();
        assert_eq!(wal.durable_lsn(), Lsn(1));
        let pages: Vec<_> = wal.replay_from(Lsn::ZERO).map(|r| r.page).collect();
        assert_eq!(pages, vec![PageId(1)]);
    }

    #[test]
    fn post_crash_flush_and_checkpoint_are_inert() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        faults::install(FaultPlan::crash_at_hit(0));
        append_mtr(&mut wal, vec![upd(2, 0, 2)]);
        // The host dies at the flush, so the checkpoint after it never
        // runs and cannot truncate the log.
        let crash = faults::catch(|| {
            wal.flush(SimTime(5));
            wal.set_checkpoint(Lsn(1));
        });
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        wal.crash();
        assert_eq!(wal.durable_lsn(), Lsn(1), "nothing new became durable");
        assert_eq!(wal.checkpoint_lsn(), Lsn::ZERO);
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 1);
    }

    /// A logged WAL and its unlogged twin, fed the same appends: a
    /// logged meta record first, then `range` inside the twin's unlogged
    /// range (two groups).
    fn twins(range: &[(PageId, u16, Vec<u8>)]) -> (Wal, Wal) {
        let (mut logged, mut unlogged) = (Wal::new(), Wal::new());
        for wal in [&mut logged, &mut unlogged] {
            append_mtr(wal, vec![upd(9, 0, 9)]);
        }
        unlogged.begin_unlogged();
        let (first, second) = range.split_at(range.len() / 2);
        for group in [first, second] {
            for (page, off, data) in group {
                let lsn = logged.append_update(*page, *off, data);
                assert_eq!(unlogged.append_update(*page, *off, data), lsn);
                assert_eq!(unlogged.pending_bytes(), logged.pending_bytes());
            }
            logged.seal_mtr();
            unlogged.seal_mtr();
        }
        (logged, unlogged)
    }

    fn state(wal: &Wal) -> (Lsn, Lsn, Lsn, u64, (u64, u64)) {
        (
            wal.max_assigned_lsn(),
            wal.durable_lsn(),
            wal.checkpoint_lsn(),
            wal.pending_bytes(),
            wal.flush_stats(),
        )
    }

    #[test]
    fn an_unlogged_range_matches_its_logged_twin() {
        let range: Vec<_> = (0..40)
            .map(|i| (PageId(i % 7), i as u16, vec![i as u8; i as usize]))
            .collect();
        let (mut logged, mut unlogged) = twins(&range);
        assert_eq!(state(&unlogged), state(&logged));
        assert_eq!(
            host_bytes(&unlogged),
            21 + 8,
            "only the meta record is kept"
        );
        // The closing flush makes the same LSN durable at the same cost
        // (the twin's durable log holds only the meta record); the
        // checkpoint on it leaves nothing either side could replay.
        let end = logged.flush(SimTime(7));
        assert_eq!(unlogged.flush(SimTime(7)), end);
        assert_eq!(state(&unlogged), state(&logged));
        assert_eq!(logged.durable_lsn(), Lsn(41));
        assert_eq!(records(&unlogged).len(), 1);
        for wal in [&mut logged, &mut unlogged] {
            wal.set_checkpoint(wal.durable_lsn());
        }
        assert_eq!(state(&unlogged), state(&logged));
        assert!(records(&unlogged).is_empty() && records(&logged).is_empty());
        assert_eq!(unlogged.replay_bytes_from(Lsn::ZERO), 0);
        // The range is closed: the twin logs again, and survives a crash.
        for wal in [&mut logged, &mut unlogged] {
            append_mtr(wal, vec![upd(3, 4, 5)]);
            wal.flush(end);
            wal.append_update(PageId(4), 0, &[1]);
            wal.crash();
        }
        assert_eq!(state(&unlogged), state(&logged));
        assert_eq!(records(&unlogged), records(&logged));
        assert_eq!(records(&unlogged)[0].lsn, Lsn(42));
    }

    #[test]
    #[should_panic(expected = "crash inside an unlogged range")]
    fn a_crash_inside_an_unlogged_range_panics() {
        let (_, mut unlogged) = twins(&[upd(1, 0, 1), upd(2, 0, 2)]);
        // Flushed, not yet checkpointed: the range is still open.
        unlogged.flush(SimTime::ZERO);
        unlogged.crash();
    }

    #[test]
    #[should_panic(expected = "ends at a checkpoint on its last LSN")]
    fn an_unlogged_range_ends_only_on_its_last_lsn() {
        let (_, mut unlogged) = twins(&[upd(1, 0, 1), upd(2, 0, 2)]);
        unlogged.flush(SimTime::ZERO);
        unlogged.set_checkpoint(Lsn(2));
    }

    #[test]
    fn replay_bytes_matches_encoded_sizes() {
        let mut wal = Wal::new();
        append_mtr(&mut wal, vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        assert_eq!(wal.replay_bytes_from(Lsn::ZERO), 25 + 8);
        assert_eq!(wal.replay_bytes_from(Lsn(1)), 0);
    }
}
