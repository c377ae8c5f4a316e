//! On-CXL layout of the buffer pool (Figure 4).
//!
//! Everything PolarRecv needs after a crash lives *inside* the CXL
//! region, in fixed-offset structures:
//!
//! ```text
//! lease base ─┬─ RegionHeader (one 64-B line)
//!             ├─ block 0: [BlockMeta 64 B][page data]
//!             ├─ block 1: [BlockMeta 64 B][page data]
//!             └─ ...
//! ```
//!
//! `BlockMeta` carries the fields of the paper's block: `id`,
//! `lock_state`, `prev`/`next` (the in-use list links), and `lsn`. An
//! extra `in_use` flag makes membership recoverable even when the crash
//! tore the list pointers mid-splice.

use storage::{Lsn, PageId};

/// Size of one metadata line (and of the region header).
pub const META_SIZE: u64 = 64;

/// Magic value marking a formatted pool region.
pub const MAGIC: u64 = 0x504F_4C41_5243_584C; // "POLARCXL"

/// Sentinel for "no page" in a block's id field.
pub const NO_PAGE: u64 = u64::MAX;

/// Sentinel for "no block" in list links (indices are stored +1).
pub const NIL_LINK: u64 = 0;

/// The per-region header, at the lease base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHeader {
    /// [`MAGIC`] when formatted.
    pub magic: u64,
    /// Number of blocks in the region.
    pub nblocks: u64,
    /// Page size each block holds.
    pub page_size: u64,
    /// Head of the in-use list (block index + 1; 0 = empty).
    pub inuse_head: u64,
    /// Non-zero while the list structure is being modified — §3.2's
    /// "LRU lock state": if set after a crash, the lists must be rebuilt
    /// by scanning blocks.
    pub list_lock: u64,
    /// Format generation (diagnostics).
    pub generation: u64,
}

impl RegionHeader {
    /// Serialize into a 64-byte line.
    pub fn encode(&self) -> [u8; META_SIZE as usize] {
        let mut buf = [0u8; META_SIZE as usize];
        for (i, v) in [
            self.magic,
            self.nblocks,
            self.page_size,
            self.inuse_head,
            self.list_lock,
            self.generation,
        ]
        .into_iter()
        .enumerate()
        {
            buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserialize from a 64-byte line.
    pub fn decode(buf: &[u8]) -> Self {
        let f = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        RegionHeader {
            magic: f(0),
            nblocks: f(1),
            page_size: f(2),
            inuse_head: f(3),
            list_lock: f(4),
            generation: f(5),
        }
    }
}

/// Per-block metadata (the paper's `block` record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Page held by this block, or [`NO_PAGE`].
    pub page_id: u64,
    /// Non-zero while a writer holds the page latch — §3.2: such pages
    /// may be torn and must be rebuilt from redo.
    pub lock_state: u64,
    /// Previous block in the in-use list (index + 1; 0 = none).
    pub prev: u64,
    /// Next block in the in-use list (index + 1; 0 = none).
    pub next: u64,
    /// LSN of the newest update applied to the page.
    pub lsn: u64,
    /// 1 when the block holds a page (authoritative membership).
    pub in_use: u64,
}

impl BlockMeta {
    /// A freshly formatted, free block.
    pub fn free() -> Self {
        BlockMeta {
            page_id: NO_PAGE,
            lock_state: 0,
            prev: NIL_LINK,
            next: NIL_LINK,
            lsn: 0,
            in_use: 0,
        }
    }

    /// The page id as a typed option.
    pub fn page(&self) -> Option<PageId> {
        (self.page_id != NO_PAGE).then_some(PageId(self.page_id))
    }

    /// The LSN as a typed value.
    pub fn lsn(&self) -> Lsn {
        Lsn(self.lsn)
    }

    /// Serialize into a 64-byte line.
    pub fn encode(&self) -> [u8; META_SIZE as usize] {
        let mut buf = [0u8; META_SIZE as usize];
        for (i, v) in [
            self.page_id,
            self.lock_state,
            self.prev,
            self.next,
            self.lsn,
            self.in_use,
        ]
        .into_iter()
        .enumerate()
        {
            buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Deserialize from a 64-byte line.
    pub fn decode(buf: &[u8]) -> Self {
        let f = |i: usize| u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        BlockMeta {
            page_id: f(0),
            lock_state: f(1),
            prev: f(2),
            next: f(3),
            lsn: f(4),
            in_use: f(5),
        }
    }
}

/// Byte offsets of individual metadata fields (for single-field
/// non-temporal stores).
pub mod field {
    /// `page_id` offset within the meta line.
    pub const PAGE_ID: u64 = 0;
    /// `lock_state` offset.
    pub const LOCK_STATE: u64 = 8;
    /// `prev` offset.
    pub const PREV: u64 = 16;
    /// `next` offset.
    pub const NEXT: u64 = 24;
    /// `lsn` offset.
    pub const LSN: u64 = 32;
    /// `in_use` offset.
    pub const IN_USE: u64 = 40;
    /// Header `inuse_head` offset.
    pub const HDR_INUSE_HEAD: u64 = 24;
    /// Header `list_lock` offset.
    pub const HDR_LIST_LOCK: u64 = 32;
}

/// Lease bytes a region of `nblocks` blocks of `page_size` bytes takes:
/// the header line, then each block's meta line and page.
pub fn lease_size(nblocks: u64, page_size: u64) -> u64 {
    META_SIZE + nblocks * (META_SIZE + page_size)
}

/// Geometry of a pool region: where headers, blocks and data live.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Lease base offset within the CXL pool.
    pub base: u64,
    /// Number of blocks.
    pub nblocks: u64,
    /// Page size per block.
    pub page_size: u64,
}

impl Geometry {
    /// Bytes one block occupies (meta line + data).
    pub fn block_stride(&self) -> u64 {
        META_SIZE + self.page_size
    }

    /// Total lease size required ([`lease_size`]).
    pub fn lease_size(&self) -> u64 {
        lease_size(self.nblocks, self.page_size)
    }

    /// Offset of block `b`'s metadata line.
    pub fn meta_off(&self, b: u64) -> u64 {
        debug_assert!(b < self.nblocks);
        self.base + META_SIZE + b * self.block_stride()
    }

    /// Offset of block `b`'s page data.
    pub fn data_off(&self, b: u64) -> u64 {
        self.meta_off(b) + META_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = RegionHeader {
            magic: MAGIC,
            nblocks: 100,
            page_size: 16384,
            inuse_head: 3,
            list_lock: 1,
            generation: 7,
        };
        assert_eq!(RegionHeader::decode(&h.encode()), h);
    }

    #[test]
    fn block_meta_roundtrip() {
        let m = BlockMeta {
            page_id: 42,
            lock_state: 1,
            prev: 2,
            next: 0,
            lsn: 900,
            in_use: 1,
        };
        assert_eq!(BlockMeta::decode(&m.encode()), m);
        assert_eq!(m.page(), Some(PageId(42)));
        assert_eq!(m.lsn(), Lsn(900));
    }

    #[test]
    fn free_block_has_no_page() {
        let m = BlockMeta::free();
        assert_eq!(m.page(), None);
        assert_eq!(m.in_use, 0);
    }

    #[test]
    fn geometry_is_disjoint_and_ordered() {
        let g = Geometry {
            base: 1000,
            nblocks: 4,
            page_size: 512,
        };
        assert_eq!(g.block_stride(), 576);
        assert_eq!(g.lease_size(), 64 + 4 * 576);
        for b in 0..4 {
            assert_eq!(g.meta_off(b), 1000 + 64 + b * 576);
            assert_eq!(g.data_off(b), g.meta_off(b) + 64);
            if b > 0 {
                assert_eq!(g.meta_off(b), g.data_off(b - 1) + 512);
            }
        }
    }

    #[test]
    fn field_offsets_match_encoding() {
        let m = BlockMeta {
            page_id: 1,
            lock_state: 2,
            prev: 3,
            next: 4,
            lsn: 5,
            in_use: 6,
        };
        let buf = m.encode();
        let read =
            |off: u64| u64::from_le_bytes(buf[off as usize..off as usize + 8].try_into().unwrap());
        assert_eq!(read(field::PAGE_ID), 1);
        assert_eq!(read(field::LOCK_STATE), 2);
        assert_eq!(read(field::PREV), 3);
        assert_eq!(read(field::NEXT), 4);
        assert_eq!(read(field::LSN), 5);
        assert_eq!(read(field::IN_USE), 6);
    }
}
