//! The ARIES-style redo write-ahead log.
//!
//! Matches the recovery story of §3.2:
//!
//! - every page update appends a physiological redo record to a
//!   **volatile** log buffer in local DRAM;
//! - commit (and mini-transaction commit for SMOs) flushes the buffer to
//!   the durable tail — so after a crash, everything up to
//!   [`Wal::durable_lsn`] is replayable and everything after is *gone*;
//! - records belonging to one mini-transaction become durable atomically
//!   (the encoder marks the group end, and replay never surfaces a torn
//!   group);
//! - checkpoints bound how far back replay must scan.

use memsim::calib::{WAL_FLUSH_NS, WAL_GBPS};
use simkit::faults::{self, FaultSite, Verdict};
use simkit::trace::{self, Lane, SpanKind};
use simkit::{Link, SimTime};

use crate::{Lsn, PageId};

/// One physiological redo record: "write `data` at `off` within `page`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// This record's LSN (unique, dense, ascending).
    pub lsn: Lsn,
    /// Target page.
    pub page: PageId,
    /// Byte offset within the page.
    pub off: u16,
    /// Bytes to write at `off`.
    pub data: Payload,
    /// True on the last record of a mini-transaction: the group
    /// `(.., mtr_end]` applies atomically.
    pub mtr_end: bool,
}

/// Payload bytes stored inline in [`Payload`] without a heap allocation.
/// Sized for the b-tree's header, slot-directory, and key writes (2–8
/// bytes each); only full-record payloads spill to the heap. 22 keeps
/// the whole enum at 24 bytes (tag + len + buffer matches the 16-byte
/// `Box<[u8]>` arm plus alignment), which matters because the log
/// buffers millions of records in a write-heavy run.
const PAYLOAD_INLINE: usize = 22;

/// A redo payload with small-buffer optimization.
///
/// Appending a redo record is on the hot path of every simulated page
/// write, and almost all payloads are tiny header/slot/key updates; a
/// heap `Vec<u8>` per record is the single largest allocation source in
/// a write-heavy run. Payloads up to `PAYLOAD_INLINE` bytes live
/// inside the record. Derefs to `[u8]`, so `&rec.data` still reads as a
/// byte slice everywhere.
#[derive(Clone)]
pub enum Payload {
    /// Payload stored inline (length, buffer).
    Inline(u8, [u8; PAYLOAD_INLINE]),
    /// Payload too large to inline.
    Heap(Box<[u8]>),
}

impl Payload {
    /// Build from a byte slice, inlining when it fits.
    pub fn from_slice(d: &[u8]) -> Self {
        if d.len() <= PAYLOAD_INLINE {
            let mut buf = [0u8; PAYLOAD_INLINE];
            buf[..d.len()].copy_from_slice(d);
            Payload::Inline(d.len() as u8, buf)
        } else {
            Payload::Heap(d.into())
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Inline(len, buf) => &buf[..*len as usize],
            Payload::Heap(b) => b,
        }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::from_slice(&v)
    }
}

impl From<&[u8]> for Payload {
    fn from(d: &[u8]) -> Self {
        Payload::from_slice(d)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// Encoded size of a record on the log device (header + payload).
pub fn encoded_len(rec: &LogRecord) -> u64 {
    // lsn(8) + page(8) + off(2) + len(2) + flags(1) + crc(4)
    25 + rec.data.len() as u64
}

/// Encode a record to bytes (the on-device format; exercised by tests and
/// used to size flush I/O).
pub fn encode(rec: &LogRecord, out: &mut Vec<u8>) {
    out.extend_from_slice(&rec.lsn.0.to_le_bytes());
    out.extend_from_slice(&rec.page.0.to_le_bytes());
    out.extend_from_slice(&rec.off.to_le_bytes());
    out.extend_from_slice(&(rec.data.len() as u16).to_le_bytes());
    out.push(rec.mtr_end as u8);
    out.extend_from_slice(&crc32(&rec.data).to_le_bytes());
    out.extend_from_slice(&rec.data);
}

/// Decode one record from `buf`, returning it and the bytes consumed.
/// Returns `None` on truncation or CRC mismatch (a torn tail).
pub fn decode(buf: &[u8]) -> Option<(LogRecord, usize)> {
    if buf.len() < 25 {
        return None;
    }
    let lsn = Lsn(le_u64(buf, 0));
    let page = PageId(le_u64(buf, 8));
    let off = le_u16(buf, 16);
    let len = le_u16(buf, 18) as usize;
    let mtr_end = buf[20] != 0;
    let crc = le_u32(buf, 21);
    if buf.len() < 25 + len {
        return None;
    }
    let data = Payload::from_slice(&buf[25..25 + len]);
    if crc32(&data) != crc {
        return None;
    }
    Some((
        LogRecord {
            lsn,
            page,
            off,
            data,
            mtr_end,
        },
        25 + len,
    ))
}

/// Read a little-endian `u64` at `at` (caller has bounds-checked).
fn le_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Read a little-endian `u32` at `at` (caller has bounds-checked).
fn le_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Read a little-endian `u16` at `at` (caller has bounds-checked).
fn le_u16(buf: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&buf[at..at + 2]);
    u16::from_le_bytes(b)
}

/// Small table-less CRC32 (IEEE) — integrity check for the log format.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A redo-only WAL with a volatile buffer and durable tail.
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
#[derive(Debug)]
pub struct Wal {
    next_lsn: u64,
    /// Volatile log buffer (local DRAM): lost on crash.
    buffer: Vec<LogRecord>,
    buffer_bytes: u64,
    /// Durable tail (log device): survives crashes.
    durable: Vec<LogRecord>,
    durable_lsn: Lsn,
    checkpoint_lsn: Lsn,
    device: Link,
    flushes: u64,
    bytes_flushed: u64,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

/// Both record vectors keep their capacity, so a copied instance grows
/// its log buffers at the same appends as the one it was copied from.
impl Clone for Wal {
    fn clone(&self) -> Self {
        Wal {
            buffer: simkit::clone_reserved(&self.buffer),
            durable: simkit::clone_reserved(&self.durable),
            device: self.device.clone(),
            ..*self
        }
    }
}

impl Wal {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Wal {
            next_lsn: 1,
            buffer: Vec::new(),
            buffer_bytes: 0,
            durable: Vec::new(),
            durable_lsn: Lsn::ZERO,
            checkpoint_lsn: Lsn::ZERO,
            device: Link::new("wal", WAL_GBPS),
            flushes: 0,
            bytes_flushed: 0,
        }
    }

    /// Append one mini-transaction's records to the volatile buffer.
    /// Assigns LSNs; the last record is the group end. Returns the LSN of
    /// the last record.
    ///
    /// # Panics
    /// When `updates` is empty — an empty mini-transaction is a caller bug.
    pub fn append_mtr(&mut self, updates: Vec<(PageId, u16, Vec<u8>)>) -> Lsn {
        assert!(!updates.is_empty(), "mini-transaction must contain updates");
        let n = updates.len();
        let mut last = Lsn::ZERO;
        for (i, (page, off, data)) in updates.into_iter().enumerate() {
            let rec = LogRecord {
                lsn: Lsn(self.next_lsn),
                page,
                off,
                data: Payload::from(data),
                mtr_end: i + 1 == n,
            };
            self.next_lsn += 1;
            last = rec.lsn;
            self.buffer_bytes += encoded_len(&rec);
            self.buffer.push(rec);
        }
        last
    }

    /// Append a single update record (ARIES WAL rule: callers log before
    /// writing the page). The record joins the current mini-transaction
    /// group; call [`Wal::seal_mtr`] at group end.
    pub fn append_update(&mut self, page: PageId, off: u16, data: &[u8]) -> Lsn {
        let rec = LogRecord {
            lsn: Lsn(self.next_lsn),
            page,
            off,
            data: Payload::from_slice(data),
            mtr_end: false,
        };
        self.next_lsn += 1;
        self.buffer_bytes += encoded_len(&rec);
        let lsn = rec.lsn;
        self.buffer.push(rec);
        lsn
    }

    /// Make room for `records` more appends, so a bulk loader that knows
    /// how many rows are coming grows the volatile buffer once instead of
    /// by doubling.
    pub fn reserve(&mut self, records: usize) {
        self.buffer.reserve_exact(records);
    }

    /// Records the log's two vectors have room for — what the log holds
    /// in host memory, whether or not records occupy it.
    pub fn capacity(&self) -> usize {
        self.buffer.capacity() + self.durable.capacity()
    }

    /// Mark the end of the current mini-transaction group (idempotent;
    /// a group with no updates is a no-op).
    pub fn seal_mtr(&mut self) {
        if let Some(last) = self.buffer.last_mut() {
            last.mtr_end = true;
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

    /// Bytes waiting in the volatile buffer.
    pub fn pending_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// Flush the volatile buffer to the durable tail. Charges device
    /// latency + bandwidth; returns completion time. A flush with an
    /// empty buffer is free (group commit fast path).
    pub fn flush(&mut self, now: SimTime) -> SimTime {
        let _prof = simkit::profile::scope(simkit::profile::Subsys::Wal);
        if self.buffer.is_empty() {
            return now;
        }
        let now = match faults::gate(FaultSite::WalFlush, now) {
            Verdict::Run => now,
            // A transient device hiccup delays the flush; it still lands.
            Verdict::Transient { spike_ns } => now + spike_ns,
            Verdict::Torn { keep_bytes } => return self.torn_flush(keep_bytes, now),
            // Dead (the host crashed at or before this flush): nothing
            // new becomes durable; the buffer dies with the host.
            _ => return now,
        };
        let bytes = self.buffer_bytes;
        self.durable_lsn = self
            .buffer
            .last()
            .expect("flush buffer checked non-empty")
            .lsn;
        if self.durable.is_empty() {
            // Common case (first flush, or everything up to here already
            // checkpointed away): adopt the buffer wholesale instead of
            // copying it record by record — bulk load flushes hundreds of
            // thousands of records in one go.
            std::mem::swap(&mut self.durable, &mut self.buffer);
        } else {
            self.durable.append(&mut self.buffer);
        }
        self.buffer_bytes = 0;
        self.flushes += 1;
        self.bytes_flushed += bytes;
        let end = self.device.transfer(now, bytes).end + WAL_FLUSH_NS;
        trace::attr_add(Lane::Wal, end.saturating_since(now));
        trace::span(SpanKind::WalFlush, 0, now, end, bytes);
        end
    }

    /// A flush torn `keep_bytes` into its device write: records fully
    /// inside the durable prefix — truncated to the last complete
    /// mini-transaction group, preserving group atomicity — become
    /// durable; the rest (and the host) die. Injected by
    /// [`simkit::faults`]; the caller observes the crash via
    /// [`simkit::faults::crashed`] and runs the real crash path.
    #[cold]
    fn torn_flush(&mut self, keep_bytes: u64, now: SimTime) -> SimTime {
        let mut fit_bytes = 0u64;
        let mut kept = 0usize; // records up to the last complete group
        for (i, r) in self.buffer.iter().enumerate() {
            let next = fit_bytes + encoded_len(r);
            if next > keep_bytes {
                break;
            }
            fit_bytes = next;
            if r.mtr_end {
                kept = i + 1;
            }
        }
        if kept == 0 {
            return now;
        }
        let mut bytes = 0u64;
        for r in self.buffer.drain(..kept) {
            bytes += encoded_len(&r);
            self.durable.push(r);
        }
        self.buffer_bytes -= bytes;
        self.durable_lsn = self
            .durable
            .last()
            .expect("torn flush kept at least one record")
            .lsn;
        self.flushes += 1;
        self.bytes_flushed += bytes;
        now
    }

    /// Record a checkpoint at `lsn`: replay after a crash starts here.
    /// (The engine is responsible for having flushed the corresponding
    /// dirty pages first.)
    pub fn set_checkpoint(&mut self, lsn: Lsn) {
        if faults::crashed() {
            // The host died mid-checkpoint: the durable log must not be
            // truncated by a checkpoint record that never hit the device.
            return;
        }
        assert!(
            lsn <= self.durable_lsn,
            "cannot checkpoint beyond durability"
        );
        assert!(lsn >= self.checkpoint_lsn, "checkpoints move forward");
        self.checkpoint_lsn = lsn;
        // Durable records at or below the checkpoint can be discarded.
        if lsn == self.durable_lsn {
            self.durable.clear();
        } else {
            self.durable.retain(|r| r.lsn > lsn);
        }
    }

    /// Crash: the volatile buffer is lost; the durable tail survives.
    pub fn crash(&mut self) {
        self.buffer.clear();
        self.buffer_bytes = 0;
    }

    /// Iterate durable records with `lsn > from`, in LSN order, stopping
    /// after the last *complete* mini-transaction group (a torn group at
    /// the tail is never surfaced — though flush-atomicity means one can
    /// only appear if callers flush mid-group).
    pub fn replay_from(&self, from: Lsn) -> impl Iterator<Item = &LogRecord> {
        let end = {
            let mut end = 0;
            for (i, r) in self.durable.iter().enumerate() {
                if r.mtr_end {
                    end = i + 1;
                }
            }
            end
        };
        self.durable[..end].iter().filter(move |r| r.lsn > from)
    }

    /// Bytes of durable log with `lsn > from` — what a recovery scan must
    /// read.
    pub fn replay_bytes_from(&self, from: Lsn) -> u64 {
        self.durable
            .iter()
            .filter(|r| r.lsn > from)
            .map(encoded_len)
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
mod tests {
    use super::*;

    fn upd(page: u64, off: u16, byte: u8) -> (PageId, u16, Vec<u8>) {
        (PageId(page), off, vec![byte; 8])
    }

    #[test]
    fn log_record_stays_small() {
        // The log buffers millions of records in write-heavy runs; the
        // small-buffer payload keeps a record at 48 bytes. Growing either
        // type is a real host-memory/bandwidth regression — look hard at
        // any change that trips this.
        assert_eq!(std::mem::size_of::<Payload>(), 24);
        assert_eq!(std::mem::size_of::<LogRecord>(), 48);
    }

    #[test]
    fn payload_inlines_small_and_heaps_large() {
        let small = Payload::from_slice(&[7u8; PAYLOAD_INLINE]);
        assert!(matches!(small, Payload::Inline(..)));
        assert_eq!(&small[..], &[7u8; PAYLOAD_INLINE][..]);
        let large = Payload::from_slice(&[9u8; PAYLOAD_INLINE + 1]);
        assert!(matches!(large, Payload::Heap(..)));
        assert_eq!(&large[..], &[9u8; PAYLOAD_INLINE + 1][..]);
        // Equality is by bytes, not representation.
        assert_eq!(Payload::from_slice(b"abc"), Payload::from_slice(b"abc"));
        assert_ne!(Payload::from_slice(b"abc"), Payload::from_slice(b"abd"));
    }

    #[test]
    fn flush_into_empty_durable_adopts_buffer() {
        // The swap fast path must be observationally identical to append.
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1), upd(2, 0, 2)]);
        wal.flush(SimTime::ZERO);
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 2);
        // Second flush lands on a non-empty tail (append path).
        wal.append_mtr(vec![upd(3, 0, 3)]);
        wal.flush(SimTime::ZERO);
        let lsns: Vec<u64> = wal.replay_from(Lsn::ZERO).map(|r| r.lsn.0).collect();
        assert_eq!(lsns, vec![1, 2, 3]);
        // Checkpoint at the durable tip empties the durable log entirely.
        wal.set_checkpoint(wal.durable_lsn());
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 0);
    }

    #[test]
    fn reserve_changes_nothing_but_capacity() {
        let fill = |wal: &mut Wal| {
            for p in 0..100 {
                wal.append_update(PageId(p), 8, &[p as u8; 30]);
                wal.seal_mtr();
            }
            wal.flush(SimTime::ZERO)
        };
        let (mut plain, mut sized) = (Wal::new(), Wal::new());
        sized.reserve(100);
        assert_eq!(sized.capacity(), 100);
        assert_eq!(fill(&mut plain), fill(&mut sized));
        assert_eq!(sized.capacity(), 100, "sized once, never regrown");
        assert_eq!(plain.flush_stats(), sized.flush_stats());
        assert_eq!(plain.max_assigned_lsn(), sized.max_assigned_lsn());
        let records = |w: &Wal| w.replay_from(Lsn::ZERO).cloned().collect::<Vec<_>>();
        assert_eq!(records(&plain), records(&sized));
    }

    #[test]
    fn clone_keeps_records_counters_and_capacity() {
        let mut wal = Wal::new();
        wal.reserve(64);
        wal.append_mtr(vec![upd(1, 0, 1), upd(2, 0, 2)]);
        wal.flush(SimTime::ZERO);
        wal.append_mtr(vec![upd(3, 0, 3)]);
        let copy = wal.clone();
        assert_eq!(copy.capacity(), wal.capacity());
        assert_eq!(copy.pending_bytes(), wal.pending_bytes());
        assert_eq!(copy.flush_stats(), wal.flush_stats());
        assert_eq!(copy.max_assigned_lsn(), Lsn(3));
        // Same device backlog, same buffered tail: the next flush ends at
        // the same instant and makes the same records durable.
        let (mut a, mut b) = (wal, copy);
        assert_eq!(a.flush(SimTime(10)), b.flush(SimTime(10)));
        let records = |w: &Wal| w.replay_from(Lsn::ZERO).cloned().collect::<Vec<_>>();
        assert_eq!(records(&a), records(&b));
        assert_eq!(records(&a).len(), 3);
    }

    #[test]
    fn lsns_are_dense_and_ascending() {
        let mut wal = Wal::new();
        let l1 = wal.append_mtr(vec![upd(1, 0, 1), upd(2, 0, 2)]);
        let l2 = wal.append_mtr(vec![upd(3, 0, 3)]);
        assert_eq!(l1, Lsn(2));
        assert_eq!(l2, Lsn(3));
        assert_eq!(wal.max_assigned_lsn(), Lsn(3));
    }

    #[test]
    fn unflushed_records_die_in_a_crash() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        wal.append_mtr(vec![upd(2, 0, 2)]);
        wal.crash();
        assert_eq!(wal.durable_lsn(), Lsn(1));
        let survivors: Vec<_> = wal.replay_from(Lsn::ZERO).collect();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].page, PageId(1));
    }

    #[test]
    fn replay_respects_floor() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.append_mtr(vec![upd(2, 0, 2)]);
        wal.append_mtr(vec![upd(3, 0, 3)]);
        wal.flush(SimTime::ZERO);
        let from2: Vec<_> = wal.replay_from(Lsn(2)).map(|r| r.page).collect();
        assert_eq!(from2, vec![PageId(3)]);
    }

    #[test]
    fn checkpoint_discards_old_records() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.append_mtr(vec![upd(2, 0, 2)]);
        wal.flush(SimTime::ZERO);
        wal.set_checkpoint(Lsn(1));
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 1);
        assert_eq!(wal.checkpoint_lsn(), Lsn(1));
    }

    #[test]
    #[should_panic(expected = "beyond durability")]
    fn checkpoint_cannot_pass_durable() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.set_checkpoint(Lsn(1)); // not yet flushed
    }

    #[test]
    fn mtr_groups_flag_their_end() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1), upd(2, 0, 2), upd(3, 0, 3)]);
        wal.flush(SimTime::ZERO);
        let flags: Vec<bool> = wal.replay_from(Lsn::ZERO).map(|r| r.mtr_end).collect();
        assert_eq!(flags, vec![false, false, true]);
    }

    #[test]
    fn flush_is_timed_and_idempotent_when_empty() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 9)]);
        let end = wal.flush(SimTime::ZERO);
        assert!(end.as_nanos() >= WAL_FLUSH_NS);
        // Nothing pending: free.
        let again = wal.flush(end);
        assert_eq!(again, end);
        assert_eq!(wal.flush_stats().0, 1);
        assert_eq!(wal.pending_bytes(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rec = LogRecord {
            lsn: Lsn(42),
            page: PageId(7),
            off: 513,
            data: Payload::from_slice(&[1, 2, 3, 4, 5]),
            mtr_end: true,
        };
        let mut bytes = Vec::new();
        encode(&rec, &mut bytes);
        assert_eq!(bytes.len() as u64, encoded_len(&rec));
        let (back, used) = decode(&bytes).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn decode_rejects_corruption_and_truncation() {
        let rec = LogRecord {
            lsn: Lsn(1),
            page: PageId(1),
            off: 0,
            data: Payload::from_slice(&[9; 16]),
            mtr_end: false,
        };
        let mut bytes = Vec::new();
        encode(&rec, &mut bytes);
        assert!(decode(&bytes[..10]).is_none(), "truncated header");
        assert!(decode(&bytes[..30]).is_none(), "truncated payload");
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        assert!(decode(&corrupt).is_none(), "payload corruption");
    }

    #[test]
    fn torn_flush_keeps_only_complete_groups() {
        use simkit::faults::{self, Action, FaultPlan, FaultSite, Trigger};
        faults::clear();
        let mut wal = Wal::new();
        // Group A encodes to 33 bytes. Tear inside group B: A plus B's
        // first record fit the durable prefix, but only complete groups
        // may surface.
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.append_mtr(vec![upd(2, 0, 2), upd(3, 0, 3)]);
        faults::install(FaultPlan::default().with(
            Trigger::SiteHit(FaultSite::WalFlush, 0),
            Action::TornWalFlush {
                keep_bytes: 33 + 40,
            },
        ));
        wal.flush(SimTime::ZERO);
        assert!(faults::crashed());
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
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        faults::install(FaultPlan::crash_at_hit(0));
        wal.append_mtr(vec![upd(2, 0, 2)]);
        let end = wal.flush(SimTime(5));
        assert_eq!(end, SimTime(5), "dead flush is untimed");
        assert!(faults::crashed());
        assert_eq!(wal.durable_lsn(), Lsn(1), "nothing new became durable");
        // A checkpoint taken by the dying host must not truncate the log.
        wal.set_checkpoint(Lsn(1));
        assert_eq!(wal.checkpoint_lsn(), Lsn::ZERO);
        assert_eq!(wal.replay_from(Lsn::ZERO).count(), 1);
        faults::clear();
    }

    #[test]
    fn replay_bytes_matches_encoded_sizes() {
        let mut wal = Wal::new();
        wal.append_mtr(vec![upd(1, 0, 1)]);
        wal.flush(SimTime::ZERO);
        assert_eq!(wal.replay_bytes_from(Lsn::ZERO), 25 + 8);
        assert_eq!(wal.replay_bytes_from(Lsn(1)), 0);
    }
}
