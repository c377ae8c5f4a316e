//! Randomized-model tests for the WAL: arbitrary interleavings of mini-
//! transaction appends, flushes (some torn), full and partial checkpoints
//! and crashes must always leave a replayable durable prefix that matches
//! a reference model, record for record and byte for byte. Payloads run
//! from empty to past a log block, so records cross block boundaries and
//! the LSN gaps crashes leave land both mid-block and at a block's start.
//! Sequences are generated by the seeded in-tree `SimRng` so the suite
//! runs fully offline.

#![cfg(test)]

use crate::wal::tests::{append_mtr, durable_block_starts};
use crate::wal::{encoded_len, LogRecord};
use crate::{Lsn, PageId, Wal};
use simkit::faults::{self, Action, FaultPlan, FaultSite, Trigger};
use simkit::rng::SimRng;
use simkit::SimTime;

/// A record as the model holds it: everything replay must give back.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rec {
    lsn: u64,
    page: u64,
    off: u16,
    data: Vec<u8>,
    mtr_end: bool,
}

impl Rec {
    fn of(r: LogRecord<'_>) -> Rec {
        Rec {
            lsn: r.lsn.0,
            page: r.page.0,
            off: r.off,
            data: r.data.to_vec(),
            mtr_end: r.mtr_end,
        }
    }

    fn encoded_len(&self) -> u64 {
        encoded_len(&LogRecord {
            lsn: Lsn(self.lsn),
            page: PageId(self.page),
            off: self.off,
            data: &self.data,
            mtr_end: self.mtr_end,
        })
    }
}

/// A payload length: mostly redo-sized (0–300 B), one in 8 at least
/// 40 KB, and a third of those longer than a whole log block.
fn payload_len(rng: &mut SimRng) -> usize {
    match rng.gen_range(0u32..24) {
        0 => u16::MAX as usize,
        1 | 2 => rng.gen_range(40_000usize..65_000),
        _ => rng.gen_range(0usize..=300),
    }
}

/// Records of the volatile model a flush torn at `keep_bytes` makes
/// durable: the complete groups that fit.
fn torn_keep(volatile: &[Rec], keep_bytes: u64) -> usize {
    let (mut fit, mut kept) = (0u64, 0usize);
    for (i, r) in volatile.iter().enumerate() {
        fit += r.encoded_len();
        if fit > keep_bytes {
            break;
        }
        if r.mtr_end {
            kept = i + 1;
        }
    }
    kept
}

#[test]
fn durable_prefix_matches_model() {
    // Where records after an LSN gap sit in the durable log, summed over
    // every step: (at a block's start, mid-block).
    let mut gaps = (0usize, 0usize);
    for case in 0..96u64 {
        let mut rng = SimRng::seed_from_u64(0x5704_0000 + case);
        let n_ops = rng.gen_range(1usize..100);
        let mut wal = Wal::new();
        // Model: every record, partitioned into a durable prefix and a
        // volatile tail; durable LSN; checkpoint floor.
        let mut durable: Vec<Rec> = Vec::new();
        let mut volatile: Vec<Rec> = Vec::new();
        let (mut next_lsn, mut durable_lsn, mut ckpt) = (1u64, 0u64, 0u64);
        for _ in 0..n_ops {
            match rng.gen_range(0u32..6) {
                0 | 1 => {
                    let page = rng.gen_range(0u64..8);
                    let n = rng.gen_range(1usize..5);
                    let mut updates = Vec::new();
                    for i in 0..n {
                        let off = rng.gen_range(0u16..4096);
                        let data: Vec<u8> = (0..payload_len(&mut rng))
                            .map(|b| (b as u64 + next_lsn * 7) as u8)
                            .collect();
                        volatile.push(Rec {
                            lsn: next_lsn,
                            page,
                            off,
                            data: data.clone(),
                            mtr_end: i + 1 == n,
                        });
                        updates.push((PageId(page), off, data));
                        next_lsn += 1;
                    }
                    assert_eq!(append_mtr(&mut wal, updates), Lsn(next_lsn - 1));
                }
                2 if !volatile.is_empty() && rng.gen_range(0u32..3) == 0 => {
                    // A flush torn part-way into its device write: the
                    // complete groups that fit become durable, the host dies.
                    let total: u64 = volatile.iter().map(Rec::encoded_len).sum();
                    let keep_bytes = rng.gen_range(0..total);
                    faults::install(FaultPlan::default().with(
                        Trigger::SiteHit(FaultSite::WalFlush, 0),
                        Action::TornWalFlush { keep_bytes },
                    ));
                    wal.flush(SimTime::ZERO);
                    assert!(faults::crashed());
                    faults::clear();
                    let kept = torn_keep(&volatile, keep_bytes);
                    if kept > 0 {
                        durable_lsn = volatile[kept - 1].lsn;
                    }
                    durable.extend(volatile.drain(..kept));
                    wal.crash();
                    volatile.clear();
                }
                2 => {
                    wal.flush(SimTime::ZERO);
                    durable_lsn = volatile.last().map_or(durable_lsn, |r| r.lsn);
                    durable.append(&mut volatile);
                }
                3 => {
                    // Checkpoint at the durable LSN, or part-way to it.
                    let at = if rng.gen_range(0u32..2) == 0 {
                        durable_lsn
                    } else {
                        rng.gen_range(ckpt..=durable_lsn)
                    };
                    wal.set_checkpoint(Lsn(at));
                    ckpt = at;
                    durable.retain(|r| r.lsn > ckpt);
                }
                _ => {
                    wal.crash();
                    volatile.clear();
                }
            }
            // Invariants after every step.
            let replay: Vec<Rec> = wal.replay_from(Lsn(ckpt)).map(Rec::of).collect();
            assert_eq!(replay, durable, "replayable records == durable model");
            let bytes: u64 = durable.iter().map(Rec::encoded_len).sum();
            assert_eq!(wal.replay_bytes_from(Lsn(ckpt)), bytes);
            assert_eq!(wal.durable_lsn(), Lsn(durable_lsn));
            assert_eq!(wal.checkpoint_lsn().0, ckpt);
            assert_eq!(wal.max_assigned_lsn(), Lsn(next_lsn - 1));
            let pending: u64 = volatile.iter().map(Rec::encoded_len).sum();
            assert_eq!(wal.pending_bytes(), pending);
            // The last durable record always closes an mtr group.
            if let Some(last) = durable.last() {
                assert!(last.mtr_end);
            }
            let starts = durable_block_starts(&wal);
            for w in durable.windows(2).filter(|w| w[1].lsn != w[0].lsn + 1) {
                if starts.contains(&Lsn(w[1].lsn)) {
                    gaps.0 += 1;
                } else {
                    gaps.1 += 1;
                }
            }
        }
    }
    assert!(
        gaps.0 > 0 && gaps.1 > 0,
        "LSN gaps at a block's start / mid-block: {gaps:?}"
    );
}
