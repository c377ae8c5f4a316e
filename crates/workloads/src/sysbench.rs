//! Sysbench OLTP workload generators (§4.1).
//!
//! Reproduces the access patterns of the sysbench variants the paper
//! runs: point-select, range-select, read-write, read-only, write-only
//! and point-update. A sysbench row is `id` (the B+tree key) plus
//! `k INT, c CHAR(120), pad CHAR(60)` — 188 bytes of record.

use simkit::rng::SimRng;

/// Sysbench record size (k + c + pad).
pub const RECORD_SIZE: u16 = 188;
/// Offset of the `k` column within the record.
pub const K_OFF: u16 = 0;
/// Offset of the `c` column.
pub const C_OFF: u16 = 8;
/// Width of the `c` column.
pub const C_LEN: u16 = 120;
/// Offset of the `pad` column.
pub const PAD_OFF: u16 = 128;
/// Rows returned by each sysbench range query.
pub const RANGE_LEN: usize = 100;

/// Which sysbench variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysbenchKind {
    /// `oltp_point_select`: one primary-key select per transaction.
    PointSelect,
    /// Range selects of [`RANGE_LEN`] rows.
    RangeSelect,
    /// `oltp_read_write`: 10 point selects, 4 range queries, 2 updates,
    /// 1 delete + 1 insert.
    ReadWrite,
    /// Reads only: 10 point selects + 4 ranges.
    ReadOnly,
    /// Writes only: 2 updates, 1 delete + 1 insert.
    WriteOnly,
    /// 10 point updates per transaction (the §4.4 sharing workload).
    PointUpdate,
}

/// One generated statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// Select `c` by primary key.
    PointSelect {
        /// Row id.
        key: u64,
    },
    /// Select [`RANGE_LEN`] rows from `start`.
    RangeSelect {
        /// First row id of the range.
        start: u64,
    },
    /// Update the `k` column (8 bytes).
    UpdateIndex {
        /// Row id.
        key: u64,
        /// New column value.
        value: u64,
    },
    /// Update the `c` column (120 bytes).
    UpdateNonIndex {
        /// Row id.
        key: u64,
        /// Seed byte for the new `c` payload.
        fill: u8,
    },
    /// Delete a row.
    Delete {
        /// Row id.
        key: u64,
    },
    /// (Re-)insert a row.
    Insert {
        /// Row id.
        key: u64,
        /// Seed byte for the record payload.
        fill: u8,
    },
}

impl Statement {
    /// Whether this statement modifies data.
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            Statement::PointSelect { .. } | Statement::RangeSelect { .. }
        )
    }
}

/// A generated transaction: an ordered list of statements.
pub type Transaction = Vec<Statement>;

/// Deterministic sysbench transaction generator over `table_size` rows
/// (ids `1..=table_size`).
#[derive(Debug)]
pub struct Sysbench {
    kind: SysbenchKind,
    table_size: u64,
}

impl Sysbench {
    /// New generator.
    pub fn new(kind: SysbenchKind, table_size: u64) -> Self {
        assert!(table_size > RANGE_LEN as u64 * 2);
        Sysbench { kind, table_size }
    }

    /// The configured variant.
    pub fn kind(&self) -> SysbenchKind {
        self.kind
    }

    fn key(&self, rng: &mut SimRng) -> u64 {
        rng.gen_range(1..=self.table_size)
    }

    fn range_start(&self, rng: &mut SimRng) -> u64 {
        rng.gen_range(1..=self.table_size - RANGE_LEN as u64)
    }

    /// Generate the next transaction into a caller-owned buffer,
    /// clearing it first. The hot harness loop reuses one buffer for
    /// the whole run instead of allocating a `Vec` per transaction.
    pub fn fill_txn(&self, rng: &mut SimRng, txn: &mut Transaction) {
        txn.clear();
        match self.kind {
            SysbenchKind::PointSelect => txn.push(Statement::PointSelect { key: self.key(rng) }),
            SysbenchKind::RangeSelect => txn.push(Statement::RangeSelect {
                start: self.range_start(rng),
            }),
            SysbenchKind::ReadOnly => {
                for _ in 0..10 {
                    txn.push(Statement::PointSelect { key: self.key(rng) });
                }
                for _ in 0..4 {
                    txn.push(Statement::RangeSelect {
                        start: self.range_start(rng),
                    });
                }
            }
            SysbenchKind::WriteOnly => self.write_tail(rng, txn),
            SysbenchKind::ReadWrite => {
                for _ in 0..10 {
                    txn.push(Statement::PointSelect { key: self.key(rng) });
                }
                for _ in 0..4 {
                    txn.push(Statement::RangeSelect {
                        start: self.range_start(rng),
                    });
                }
                self.write_tail(rng, txn);
            }
            SysbenchKind::PointUpdate => {
                for _ in 0..10 {
                    txn.push(Statement::UpdateNonIndex {
                        key: self.key(rng),
                        fill: rng.gen(),
                    });
                }
            }
        }
    }

    /// The write statements shared by write-only and read-write:
    /// index update, non-index update, delete + insert of the same key.
    fn write_tail(&self, rng: &mut SimRng, txn: &mut Transaction) {
        let del_key = self.key(rng);
        txn.push(Statement::UpdateIndex {
            key: self.key(rng),
            value: rng.gen(),
        });
        txn.push(Statement::UpdateNonIndex {
            key: self.key(rng),
            fill: rng.gen(),
        });
        txn.push(Statement::Delete { key: del_key });
        txn.push(Statement::Insert {
            key: del_key,
            fill: rng.gen(),
        });
    }
}

/// Write the initial sysbench row for `key` into a caller-owned
/// [`RECORD_SIZE`]-byte buffer (the allocation-free sibling of
/// [`make_record`]).
pub fn fill_record(key: u64, fill: u8, rec: &mut [u8]) {
    assert_eq!(rec.len(), RECORD_SIZE as usize);
    rec[K_OFF as usize..K_OFF as usize + 8].copy_from_slice(&(key % 4999).to_le_bytes());
    rec[C_OFF as usize..(C_OFF + C_LEN) as usize].fill(fill);
    rec[PAD_OFF as usize..].fill(0x20);
}

/// Build the initial sysbench row for `key`.
pub fn make_record(key: u64, fill: u8) -> Vec<u8> {
    let mut rec = vec![0u8; RECORD_SIZE as usize];
    fill_record(key, fill, &mut rec);
    rec
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    /// The next transaction, in a fresh buffer.
    fn next(g: &Sysbench, rng: &mut SimRng) -> Transaction {
        let mut txn = Transaction::new();
        g.fill_txn(rng, &mut txn);
        txn
    }

    #[test]
    fn point_select_is_one_read() {
        let g = Sysbench::new(SysbenchKind::PointSelect, 10_000);
        let txn = next(&g, &mut rng());
        assert_eq!(txn.len(), 1);
        assert!(!txn[0].is_write());
    }

    #[test]
    fn read_write_mix_matches_sysbench_shape() {
        let g = Sysbench::new(SysbenchKind::ReadWrite, 10_000);
        let txn = next(&g, &mut rng());
        assert_eq!(txn.len(), 18);
        let reads = txn.iter().filter(|s| !s.is_write()).count();
        let writes = txn.iter().filter(|s| s.is_write()).count();
        assert_eq!((reads, writes), (14, 4));
        // Delete and re-insert target the same key.
        let del = txn.iter().find_map(|s| match s {
            Statement::Delete { key } => Some(*key),
            _ => None,
        });
        let ins = txn.iter().find_map(|s| match s {
            Statement::Insert { key, .. } => Some(*key),
            _ => None,
        });
        assert_eq!(del, ins);
    }

    #[test]
    fn point_update_is_ten_updates() {
        let g = Sysbench::new(SysbenchKind::PointUpdate, 10_000);
        let txn = next(&g, &mut rng());
        assert_eq!(txn.len(), 10);
        assert!(txn.iter().all(|s| s.is_write()));
    }

    #[test]
    fn keys_stay_in_range() {
        let g = Sysbench::new(SysbenchKind::ReadWrite, 500);
        let mut r = rng();
        for _ in 0..100 {
            for s in next(&g, &mut r) {
                let k = match s {
                    Statement::PointSelect { key }
                    | Statement::UpdateIndex { key, .. }
                    | Statement::UpdateNonIndex { key, .. }
                    | Statement::Delete { key }
                    | Statement::Insert { key, .. } => key,
                    Statement::RangeSelect { start } => start + RANGE_LEN as u64 - 1,
                };
                assert!((1..=500).contains(&k), "{k}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = Sysbench::new(SysbenchKind::ReadWrite, 10_000);
        let a: Vec<_> = (0..10).map(|_| next(&g, &mut rng())).collect();
        let b: Vec<_> = (0..10).map(|_| next(&g, &mut rng())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fill_txn_clears_a_reused_buffer() {
        // A long transaction then a short one into the same buffer: each
        // fill leaves exactly what a fresh buffer would hold.
        let long = Sysbench::new(SysbenchKind::ReadWrite, 10_000);
        let short = Sysbench::new(SysbenchKind::WriteOnly, 10_000);
        let mut buf = Transaction::new();
        let mut a = rng();
        let mut b = rng();
        for _ in 0..20 {
            long.fill_txn(&mut a, &mut buf);
            assert_eq!(buf, next(&long, &mut b));
            short.fill_txn(&mut a, &mut buf);
            assert_eq!(buf, next(&short, &mut b));
        }
    }

    #[test]
    fn record_layout() {
        let r = make_record(42, 7);
        assert_eq!(r.len(), RECORD_SIZE as usize);
        assert_eq!(&r[C_OFF as usize..C_OFF as usize + 4], &[7; 4]);
        assert_eq!(r[PAD_OFF as usize], 0x20);
        let mut buf = [0u8; RECORD_SIZE as usize];
        fill_record(42, 7, &mut buf);
        assert_eq!(r, buf);
    }
}
