//! The B+tree over a [`BufferPool`].
//!
//! Fixed-size records keyed by `u64`, slotted leaves (heap + sorted slot
//! directory, so steady-state redo stays small — see [`crate::page`]),
//! leaf chaining for range scans, and crash-atomic page splits under
//! mini-transactions ([`crate::mtr::Mtr`]). Every structural write is
//! physical redo (absolute byte images), so replay is idempotent and any
//! recovery scheme can rebuild any page from storage + log.
//!
//! Deletes recycle heap cells in-page; underfull leaves merge with a
//! chain-adjacent sibling under the same parent, cascading through
//! single-child inner nodes and collapsing the root — so both SMO kinds
//! the paper names (splits *and* merges) run under mini-transactions.

use crate::inline_vec::InlineVec;
use crate::mtr::Mtr;
use crate::page::{
    meta, InnerGeo, LeafGeo, HEADER, OFF_CHILD0, OFF_FREE_HEAD, OFF_HEAP_USED, OFF_LEVEL,
    OFF_NEXT_LEAF, OFF_NKEYS, OFF_TYPE, TYPE_INNER, TYPE_LEAF,
};
use bufferpool::BufferPool;
use memsim::calib::PAGE_SIZE;
use simkit::SimTime;
use storage::{PageId, Wal};

/// The inner nodes a descent passed, root first, each with the index of
/// the child it followed. One or two entries for any table this
/// repository loads; deeper trees spill to the heap.
type Path = InlineVec<(PageId, u16), 8>;

/// Uniform timed-read access used by both the read-only cursor and the
/// mini-transaction.
pub trait PageReader {
    /// Read a little-endian u64 at `off` within `page`.
    fn ru64(&mut self, page: PageId, off: u16) -> u64;
    /// Read a little-endian u16 at `off` within `page`.
    fn ru16(&mut self, page: PageId, off: u16) -> u16;
    /// Read raw bytes.
    fn rbytes(&mut self, page: PageId, off: u16, buf: &mut [u8]);
}

/// A timed read-only cursor.
struct Cursor<'a, P: BufferPool> {
    pool: &'a mut P,
    now: SimTime,
}

impl<P: BufferPool> PageReader for Cursor<'_, P> {
    fn ru64(&mut self, page: PageId, off: u16) -> u64 {
        let mut b = [0u8; 8];
        self.rbytes(page, off, &mut b);
        u64::from_le_bytes(b)
    }
    fn ru16(&mut self, page: PageId, off: u16) -> u16 {
        let mut b = [0u8; 2];
        self.rbytes(page, off, &mut b);
        u16::from_le_bytes(b)
    }
    fn rbytes(&mut self, page: PageId, off: u16, buf: &mut [u8]) {
        self.now = self.pool.read(page, off, buf, self.now).end;
    }
}

impl<P: BufferPool> Cursor<'_, P> {
    /// Charge a read of `len` bytes at `off` within `page` and move none
    /// ([`BufferPool::touch`]): for bytes nothing will look at.
    fn touch(&mut self, page: PageId, off: u16, len: usize) {
        self.now = self.pool.touch(page, off, len, self.now).end;
    }
}

/// Run `f` on `len` zeroed bytes of a page-long stack buffer (on the
/// heap only past a page), so a structure modification allocates nothing
/// for the bytes it moves. Out of line: its frame is a page.
#[inline(never)]
fn with_page_scratch<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let mut page = [0u8; PAGE_SIZE as usize];
    match page.get_mut(..len) {
        Some(buf) => f(buf),
        None => f(&mut vec![0u8; len]),
    }
}

impl<P: BufferPool> PageReader for Mtr<'_, P> {
    fn ru64(&mut self, page: PageId, off: u16) -> u64 {
        self.read_u64(page, off)
    }
    fn ru16(&mut self, page: PageId, off: u16) -> u16 {
        self.read_u16(page, off)
    }
    fn rbytes(&mut self, page: PageId, off: u16, buf: &mut [u8]) {
        self.read(page, off, buf);
    }
}

/// A B+tree handle. Cheap to copy; all state lives in pages.
///
/// ```
/// use btree::BTree;
/// use bufferpool::dram_bp::DramBp;
/// use storage::{PageStore, Wal};
/// use simkit::SimTime;
///
/// let mut pool = DramBp::new(64, 1 << 20, PageStore::with_page_size(64, 2048));
/// let mut wal = Wal::new();
/// let (mut tree, _) = BTree::create(&mut pool, &mut wal, 120, SimTime::ZERO);
/// tree.insert(&mut pool, &mut wal, 42, &[7u8; 120], SimTime::ZERO);
/// let (row, _) = tree.get(&mut pool, 42, SimTime::ZERO);
/// assert_eq!(row.unwrap(), vec![7u8; 120]);
/// let (rows, _) = tree.scan(&mut pool, 0, 10, SimTime::ZERO);
/// assert_eq!(rows.len(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    /// The metadata page (root pointer, geometry).
    pub meta_page: PageId,
    root: PageId,
    /// Levels above the leaves (0 = root is a leaf).
    height: u8,
    leaf: LeafGeo,
    inner: InnerGeo,
}

impl BTree {
    /// Record size this tree stores.
    pub fn record_size(&self) -> u16 {
        self.leaf.record_size
    }

    /// Current root page.
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Current height (levels above leaves).
    pub fn height(&self) -> u8 {
        self.height
    }

    fn init_leaf<P: BufferPool>(mtr: &mut Mtr<'_, P>, page: PageId, next_leaf: u64) {
        mtr.write(page, OFF_TYPE, &[TYPE_LEAF]);
        mtr.write(page, OFF_LEVEL, &[0]);
        mtr.write_u16(page, OFF_NKEYS, 0);
        mtr.write_u64(page, OFF_NEXT_LEAF, next_leaf);
        mtr.write_u16(page, OFF_HEAP_USED, 0);
        mtr.write_u16(page, OFF_FREE_HEAD, 0);
    }

    /// Create a fresh tree storing `record_size`-byte records.
    pub fn create<P: BufferPool>(
        pool: &mut P,
        wal: &mut Wal,
        record_size: u16,
        now: SimTime,
    ) -> (Self, SimTime) {
        let page_size = pool.page_size();
        let leaf = LeafGeo::new(page_size, record_size);
        let inner = InnerGeo::new(page_size);
        let mut mtr = Mtr::begin(pool, wal, now);
        let meta_page = mtr.allocate_page();
        let root = mtr.allocate_page();
        Self::init_leaf(&mut mtr, root, 0);
        mtr.write_u64(meta_page, meta::OFF_MAGIC, meta::MAGIC);
        mtr.write_u64(meta_page, meta::OFF_ROOT, root.0);
        mtr.write_u64(meta_page, meta::OFF_RECSIZE, record_size as u64);
        mtr.write_u64(meta_page, meta::OFF_HEIGHT, 0);
        let t = mtr.commit();
        (
            BTree {
                meta_page,
                root,
                height: 0,
                leaf,
                inner,
            },
            t,
        )
    }

    /// Reopen a tree from its metadata page (e.g. after recovery).
    pub fn open<P: BufferPool>(pool: &mut P, meta_page: PageId, now: SimTime) -> (Self, SimTime) {
        let mut cur = Cursor { pool, now };
        let magic = cur.ru64(meta_page, meta::OFF_MAGIC);
        assert_eq!(magic, meta::MAGIC, "not a B+tree meta page");
        let root = PageId(cur.ru64(meta_page, meta::OFF_ROOT));
        let record_size = cur.ru64(meta_page, meta::OFF_RECSIZE) as u16;
        let height = cur.ru64(meta_page, meta::OFF_HEIGHT) as u8;
        let page_size = cur.pool.page_size();
        let t = cur.now;
        (
            BTree {
                meta_page,
                root,
                height,
                leaf: LeafGeo::new(page_size, record_size),
                inner: InnerGeo::new(page_size),
            },
            t,
        )
    }

    // ------------------------------------------------------ descent

    /// Upper-bound search in an inner node: index of the child to follow.
    fn inner_child_idx<R: PageReader>(&self, r: &mut R, nkeys: u16, page: PageId, key: u64) -> u16 {
        let (mut lo, mut hi) = (0u16, nkeys);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if r.ru64(page, self.inner.key_off(mid)) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn descend<R: PageReader>(&self, r: &mut R, key: u64, mut path: Option<&mut Path>) -> PageId {
        let mut page = self.root;
        for _ in 0..self.height {
            let nkeys = r.ru16(page, OFF_NKEYS);
            let idx = self.inner_child_idx(r, nkeys, page, key);
            let child = if idx == 0 {
                r.ru64(page, OFF_CHILD0)
            } else {
                r.ru64(page, self.inner.child_off(idx - 1))
            };
            if let Some(p) = path.as_deref_mut() {
                p.push((page, idx));
            }
            page = PageId(child);
        }
        page
    }

    /// Binary search in a leaf: `Ok((pos, heap))` when entry `pos` holds
    /// `key` in heap cell `heap`; `Err(pos)` for the insertion point.
    fn leaf_search<R: PageReader>(
        &self,
        r: &mut R,
        nkeys: u16,
        page: PageId,
        key: u64,
    ) -> Result<(u16, u16), u16> {
        let (mut lo, mut hi) = (0u16, nkeys);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let h = r.ru16(page, self.leaf.slot_off(mid));
            let k = r.ru64(page, self.leaf.heap_off(h));
            match k.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok((mid, h)),
            }
        }
        Err(lo)
    }

    // ------------------------------------------------------ reads

    /// Point lookup: the full record for `key`.
    pub fn get<P: BufferPool>(
        &self,
        pool: &mut P,
        key: u64,
        now: SimTime,
    ) -> (Option<Vec<u8>>, SimTime) {
        let mut cur = Cursor { pool, now };
        let leaf = self.descend(&mut cur, key, None);
        let nkeys = cur.ru16(leaf, OFF_NKEYS);
        match self.leaf_search(&mut cur, nkeys, leaf, key) {
            Ok((_, h)) => {
                let mut rec = vec![0u8; self.leaf.record_size as usize];
                cur.rbytes(leaf, self.leaf.heap_rec_off(h), &mut rec);
                (Some(rec), cur.now)
            }
            Err(_) => (None, cur.now),
        }
    }

    /// Read only `buf.len()` bytes at `field_off` within the record —
    /// the fine-grained access CXL makes cheap.
    pub fn get_field<P: BufferPool>(
        &self,
        pool: &mut P,
        key: u64,
        field_off: u16,
        buf: &mut [u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        let mut cur = Cursor { pool, now };
        let leaf = self.descend(&mut cur, key, None);
        let nkeys = cur.ru16(leaf, OFF_NKEYS);
        match self.leaf_search(&mut cur, nkeys, leaf, key) {
            Ok((_, h)) => {
                cur.rbytes(leaf, self.leaf.heap_rec_off(h) + field_off, buf);
                (true, cur.now)
            }
            Err(_) => (false, cur.now),
        }
    }

    /// Range scan: up to `limit` records with key >= `start`, following
    /// the leaf chain.
    pub fn scan<P: BufferPool>(
        &self,
        pool: &mut P,
        start: u64,
        limit: usize,
        now: SimTime,
    ) -> (Vec<(u64, Vec<u8>)>, SimTime) {
        let mut out = Vec::with_capacity(limit.min(1024));
        let (_, t) = self.scan_rows(pool, start, limit, now, |cur, leaf, h| {
            let key = cur.ru64(leaf, self.leaf.heap_off(h));
            let mut rec = vec![0u8; self.leaf.record_size as usize];
            cur.rbytes(leaf, self.leaf.heap_rec_off(h), &mut rec);
            out.push((key, rec));
        });
        (out, t)
    }

    /// Range scan that only counts: how many of up to `limit` records
    /// with key >= `start` exist. Charges exactly the pool accesses of
    /// [`BTree::scan`], in the same order — the slot entries, which steer
    /// the scan, are read; each row's key and record, which nothing looks
    /// at, are touched — and allocates nothing.
    pub fn scan_count<P: BufferPool>(
        &self,
        pool: &mut P,
        start: u64,
        limit: usize,
        now: SimTime,
    ) -> (usize, SimTime) {
        self.scan_rows(pool, start, limit, now, |cur, leaf, h| {
            cur.touch(leaf, self.leaf.heap_off(h), 8);
            cur.touch(
                leaf,
                self.leaf.heap_rec_off(h),
                self.leaf.record_size as usize,
            );
        })
    }

    /// The row loop under both scans: position at `start`, walk slot
    /// entries along the leaf chain and hand each row's leaf and heap
    /// cell to `row`, which accesses the key and then the record. Returns
    /// how many rows were visited.
    fn scan_rows<P: BufferPool>(
        &self,
        pool: &mut P,
        start: u64,
        limit: usize,
        now: SimTime,
        mut row: impl FnMut(&mut Cursor<'_, P>, PageId, u16),
    ) -> (usize, SimTime) {
        let mut cur = Cursor { pool, now };
        let mut leaf = self.descend(&mut cur, start, None);
        let mut visited = 0;
        let mut nkeys = cur.ru16(leaf, OFF_NKEYS);
        let mut i = match self.leaf_search(&mut cur, nkeys, leaf, start) {
            Ok((i, _)) => i,
            Err(i) => i,
        };
        while visited < limit {
            if i >= nkeys {
                let next = cur.ru64(leaf, OFF_NEXT_LEAF);
                if next == 0 {
                    break;
                }
                leaf = PageId(next);
                nkeys = cur.ru16(leaf, OFF_NKEYS);
                i = 0;
                continue;
            }
            let h = cur.ru16(leaf, self.leaf.slot_off(i));
            row(&mut cur, leaf, h);
            visited += 1;
            i += 1;
        }
        (visited, cur.now)
    }

    // ------------------------------------------------------ writes

    /// Update `data.len()` bytes at `field_off` within `key`'s record.
    pub fn update_field<P: BufferPool>(
        &self,
        pool: &mut P,
        wal: &mut Wal,
        key: u64,
        field_off: u16,
        data: &[u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        let mut mtr = Mtr::begin(pool, wal, now);
        let leaf = self.descend(&mut mtr, key, None);
        let nkeys = mtr.ru16(leaf, OFF_NKEYS);
        match self.leaf_search(&mut mtr, nkeys, leaf, key) {
            Ok((_, h)) => {
                mtr.write(leaf, self.leaf.heap_rec_off(h) + field_off, data);
                (true, mtr.commit())
            }
            Err(_) => (false, mtr.commit()),
        }
    }

    /// Allocate a heap cell in `leaf` (reuse the free list, else extend).
    fn leaf_alloc_heap<P: BufferPool>(&self, mtr: &mut Mtr<'_, P>, leaf: PageId) -> u16 {
        let free = mtr.ru16(leaf, OFF_FREE_HEAD);
        if free != 0 {
            let h = free - 1;
            let next = mtr.ru16(leaf, self.leaf.heap_off(h));
            mtr.write_u16(leaf, OFF_FREE_HEAD, next);
            h
        } else {
            let used = mtr.ru16(leaf, OFF_HEAP_USED);
            assert!(used < self.leaf.capacity, "heap exhausted below capacity");
            mtr.write_u16(leaf, OFF_HEAP_USED, used + 1);
            used
        }
    }

    /// Insert `(key, record)` into `leaf` at slot position `pos`
    /// (caller guarantees room).
    fn leaf_insert_at<P: BufferPool>(
        &self,
        mtr: &mut Mtr<'_, P>,
        leaf: PageId,
        pos: u16,
        nkeys: u16,
        key: u64,
        record: &[u8],
    ) {
        let h = self.leaf_alloc_heap(mtr, leaf);
        mtr.write_u64(leaf, self.leaf.heap_off(h), key);
        mtr.write(leaf, self.leaf.heap_rec_off(h), record);
        // Shift the slot directory (2 bytes per entry) right by one.
        if pos < nkeys {
            let move_len = 2 * (nkeys - pos) as usize;
            simkit::with_scratch(move_len, |buf| {
                mtr.rbytes(leaf, self.leaf.slot_off(pos), buf);
                mtr.write(leaf, self.leaf.slot_off(pos + 1), buf);
            });
        }
        mtr.write_u16(leaf, self.leaf.slot_off(pos), h);
        mtr.write_u16(leaf, OFF_NKEYS, nkeys + 1);
    }

    /// Insert a record. Returns (inserted, time) — `false` when the key
    /// already exists. May split pages up to the root; all structural
    /// changes form one mini-transaction.
    pub fn insert<P: BufferPool>(
        &mut self,
        pool: &mut P,
        wal: &mut Wal,
        key: u64,
        record: &[u8],
        now: SimTime,
    ) -> (bool, SimTime) {
        assert_eq!(
            record.len(),
            self.leaf.record_size as usize,
            "record size mismatch"
        );
        let mut mtr = Mtr::begin(pool, wal, now);
        let mut path = Path::new();
        let mut leafp = self.descend(&mut mtr, key, Some(&mut path));
        let mut nkeys = mtr.ru16(leafp, OFF_NKEYS);
        if self.leaf_search(&mut mtr, nkeys, leafp, key).is_ok() {
            return (false, mtr.commit());
        }
        if nkeys >= self.leaf.capacity {
            let (sep, right) = self.split_leaf(&mut mtr, leafp);
            self.insert_into_parents(&mut mtr, path, sep, right);
            if key >= sep {
                leafp = right;
            }
            nkeys = mtr.ru16(leafp, OFF_NKEYS);
        }
        let pos = match self.leaf_search(&mut mtr, nkeys, leafp, key) {
            Ok(_) => unreachable!("duplicate appeared mid-mtr"),
            Err(p) => p,
        };
        self.leaf_insert_at(&mut mtr, leafp, pos, nkeys, key, record);
        (true, mtr.commit())
    }

    /// Delete `key`'s record. Returns (found, time). The heap cell is
    /// recycled in-page; when the leaf becomes underfull (< 1/4 full) it
    /// is merged with its right sibling under the same mini-transaction
    /// (the "merging" SMO of §3.2), shrinking the root when it empties.
    pub fn delete<P: BufferPool>(
        &mut self,
        pool: &mut P,
        wal: &mut Wal,
        key: u64,
        now: SimTime,
    ) -> (bool, SimTime) {
        let mut mtr = Mtr::begin(pool, wal, now);
        let mut path = Path::new();
        let leafp = self.descend(&mut mtr, key, Some(&mut path));
        let nkeys = mtr.ru16(leafp, OFF_NKEYS);
        let (pos, h) = match self.leaf_search(&mut mtr, nkeys, leafp, key) {
            Ok(ph) => ph,
            Err(_) => return (false, mtr.commit()),
        };
        // Shift the slot directory left over the removed entry.
        if pos + 1 < nkeys {
            let move_len = 2 * (nkeys - pos - 1) as usize;
            simkit::with_scratch(move_len, |buf| {
                mtr.rbytes(leafp, self.leaf.slot_off(pos + 1), buf);
                mtr.write(leafp, self.leaf.slot_off(pos), buf);
            });
        }
        mtr.write_u16(leafp, OFF_NKEYS, nkeys - 1);
        // Chain the heap cell into the free list (husk stores the old
        // head in its key bytes).
        let old_free = mtr.ru16(leafp, OFF_FREE_HEAD);
        mtr.write_u16(leafp, self.leaf.heap_off(h), old_free);
        mtr.write_u16(leafp, OFF_FREE_HEAD, h + 1);
        // Merge SMO only when the leaf is nearly drained (< 1/4 full):
        // triggering near half-occupancy causes merge/split thrash under
        // delete+insert workloads (every sysbench write-tail would merge
        // ~80 entries and immediately re-split them).
        if nkeys - 1 < self.leaf.capacity / 4 {
            self.try_merge_leaf(&mut mtr, leafp, path.as_slice());
        }
        (true, mtr.commit())
    }

    /// Try to merge an underfull `leaf` (holding `remaining` entries)
    /// with its right sibling — or, when it is its parent's rightmost
    /// child, with its left sibling — provided both hang off the same
    /// parent and the result fits in one page. All page writes stay
    /// inside the caller's mtr, so the merge is crash-atomic like a
    /// split.
    fn try_merge_leaf<P: BufferPool>(
        &mut self,
        mtr: &mut Mtr<'_, P>,
        leaf: PageId,
        path: &[(PageId, u16)],
    ) {
        let Some(&(parent, j)) = path.last() else {
            return; // root leaf: nothing to merge with
        };
        let pn = mtr.ru16(parent, OFF_NKEYS);
        let child_at = |mtr: &mut Mtr<'_, P>, i: u16| {
            if i == 0 {
                PageId(mtr.ru64(parent, OFF_CHILD0))
            } else {
                PageId(mtr.ru64(parent, self.inner.child_off(i - 1)))
            }
        };
        // Prefer absorbing the right sibling; fall back to being
        // absorbed by the left one at the parent's right edge.
        let (left, right, sep_idx) = if j < pn {
            (leaf, child_at(mtr, j + 1), j)
        } else if j > 0 {
            (child_at(mtr, j - 1), leaf, j - 1)
        } else {
            return; // single child: the parent is handled when it empties
        };
        debug_assert_eq!(
            right.0,
            mtr.ru64(left, OFF_NEXT_LEAF),
            "merge partners must be chain-adjacent"
        );
        let ln = mtr.ru16(left, OFF_NKEYS);
        let rn = mtr.ru16(right, OFF_NKEYS);
        // Merge whenever the result fits; a merge to exactly full can
        // split again on the next insert, which production engines avoid
        // with hysteresis — acceptable here (splits are redo-safe too).
        if ln + rn > self.leaf.capacity {
            return;
        }
        // Append the right page's entries (all its keys are larger).
        with_page_scratch(self.leaf.record_size as usize, |rec| {
            for i in 0..rn {
                let sh = mtr.ru16(right, self.leaf.slot_off(i));
                let k = mtr.ru64(right, self.leaf.heap_off(sh));
                mtr.rbytes(right, self.leaf.heap_rec_off(sh), rec);
                self.leaf_insert_at(mtr, left, ln + i, ln + i, k, rec);
            }
        });
        // Unlink the right page from the leaf chain...
        let after = mtr.ru64(right, OFF_NEXT_LEAF);
        mtr.write_u64(left, OFF_NEXT_LEAF, after);
        // ...and remove its separator from the parent.
        self.move_entries(
            mtr,
            (parent, sep_idx + 1),
            (parent, sep_idx),
            pn - sep_idx - 1,
        );
        mtr.write_u16(parent, OFF_NKEYS, pn - 1);
        if pn - 1 == 0 {
            self.handle_empty_inner(mtr, parent, &path[..path.len() - 1]);
        }
        // The emptied right page is abandoned (no on-storage free list;
        // production engines reclaim it via a background purge).
    }

    /// An inner node just lost its last separator (one child left).
    /// Collapse the root onto its only child, or merge the node with its
    /// right sibling and cascade upward.
    fn handle_empty_inner<P: BufferPool>(
        &mut self,
        mtr: &mut Mtr<'_, P>,
        node: PageId,
        path: &[(PageId, u16)],
    ) {
        if node == self.root {
            // Collapse the root chain: the only child may itself be a
            // single-child inner node.
            while self.height > 0 && mtr.ru16(self.root, OFF_NKEYS) == 0 {
                let only = PageId(mtr.ru64(self.root, OFF_CHILD0));
                mtr.write_u64(self.meta_page, meta::OFF_ROOT, only.0);
                mtr.write_u64(self.meta_page, meta::OFF_HEIGHT, self.height as u64 - 1);
                self.root = only;
                self.height -= 1;
            }
            return;
        }
        let Some(&(gp, gj)) = path.last() else {
            return;
        };
        let gpn = mtr.ru16(gp, OFF_NKEYS);
        if gj >= gpn {
            return; // rightmost child: stays single-child (lazy)
        }
        let sib = PageId(mtr.ru64(gp, self.inner.child_off(gj)));
        let sn = mtr.ru16(sib, OFF_NKEYS);
        if 1 + sn > self.inner.capacity {
            return;
        }
        // Pull the separator down: it divides node's single child from
        // the sibling's subtree.
        let sep = mtr.ru64(gp, self.inner.key_off(gj));
        let sib_child0 = mtr.ru64(sib, OFF_CHILD0);
        mtr.write_u64(node, self.inner.key_off(0), sep);
        mtr.write_u64(node, self.inner.child_off(0), sib_child0);
        self.move_entries(mtr, (sib, 0), (node, 1), sn);
        mtr.write_u16(node, OFF_NKEYS, 1 + sn);
        // Remove the sibling's separator from the grandparent.
        self.move_entries(mtr, (gp, gj + 1), (gp, gj), gpn - gj - 1);
        mtr.write_u16(gp, OFF_NKEYS, gpn - 1);
        if gpn - 1 == 0 {
            self.handle_empty_inner(mtr, gp, &path[..path.len() - 1]);
        }
    }

    // ------------------------------------------------------ SMOs

    /// Split `leaf`: move the upper half of its entries into a fresh
    /// right sibling. The left page keeps its heap; moved cells join its
    /// free list. Returns (separator key, right page).
    fn split_leaf<P: BufferPool>(&self, mtr: &mut Mtr<'_, P>, leaf: PageId) -> (u64, PageId) {
        let nkeys = mtr.ru16(leaf, OFF_NKEYS);
        let mid = nkeys / 2;
        let right = mtr.allocate_page();
        Self::init_leaf(mtr, right, 0);
        // Copy entries [mid..nkeys) into the right page compactly.
        let move_cnt = nkeys - mid;
        let mut sep = 0u64;
        // One buffer for the moved records, then the right page's slot
        // directory: cell i in slot i.
        let rec_size = self.leaf.record_size as usize;
        with_page_scratch(rec_size.max(2 * move_cnt as usize), |buf| {
            let rec = &mut buf[..rec_size];
            for i in 0..move_cnt {
                let h = mtr.ru16(leaf, self.leaf.slot_off(mid + i));
                let key = mtr.ru64(leaf, self.leaf.heap_off(h));
                if i == 0 {
                    sep = key;
                }
                mtr.rbytes(leaf, self.leaf.heap_rec_off(h), rec);
                mtr.write_u64(right, self.leaf.heap_off(i), key);
                mtr.write(right, self.leaf.heap_rec_off(i), rec);
                // Recycle the left page's heap cell.
                let old_free = mtr.ru16(leaf, OFF_FREE_HEAD);
                mtr.write_u16(leaf, self.leaf.heap_off(h), old_free);
                mtr.write_u16(leaf, OFF_FREE_HEAD, h + 1);
            }
            let slots = &mut buf[..2 * move_cnt as usize];
            for (i, slot) in slots.chunks_exact_mut(2).enumerate() {
                slot.copy_from_slice(&(i as u16).to_le_bytes());
            }
            mtr.write(right, self.leaf.slot_off(0), slots);
        });
        mtr.write_u16(right, OFF_NKEYS, move_cnt);
        mtr.write_u16(right, OFF_HEAP_USED, move_cnt);
        // Chain: left -> right -> old next.
        let old_next = mtr.ru64(leaf, OFF_NEXT_LEAF);
        mtr.write_u64(right, OFF_NEXT_LEAF, old_next);
        mtr.write_u64(leaf, OFF_NEXT_LEAF, right.0);
        mtr.write_u16(leaf, OFF_NKEYS, mid);
        (sep, right)
    }

    /// Split inner node `page`, returning (promoted key, right page).
    fn split_inner<P: BufferPool>(&self, mtr: &mut Mtr<'_, P>, page: PageId) -> (u64, PageId) {
        let nkeys = mtr.ru16(page, OFF_NKEYS);
        let mid = nkeys / 2; // key[mid] is promoted
        let right = mtr.allocate_page();
        let promoted = mtr.ru64(page, self.inner.key_off(mid));
        let right_child0 = mtr.ru64(page, self.inner.child_off(mid));
        let move_cnt = nkeys - mid - 1;
        with_page_scratch(move_cnt as usize * 16, |buf| {
            if move_cnt > 0 {
                mtr.rbytes(page, self.inner.key_off(mid + 1), buf);
            }
            mtr.write(right, OFF_TYPE, &[TYPE_INNER]);
            let mut lvl = [0u8; 1];
            mtr.rbytes(page, OFF_LEVEL, &mut lvl);
            mtr.write(right, OFF_LEVEL, &lvl);
            mtr.write_u16(right, OFF_NKEYS, move_cnt);
            mtr.write_u64(right, OFF_CHILD0, right_child0);
            if move_cnt > 0 {
                mtr.write(right, self.inner.key_off(0), buf);
            }
        });
        mtr.write_u16(page, OFF_NKEYS, mid);
        (promoted, right)
    }

    /// Move `n` inner entries (a key and its right child, 16 bytes each)
    /// from entry `from` to entry `to` (page, index): one read, then one
    /// logged write, and no access at all when `n` is 0.
    fn move_entries<P: BufferPool>(
        &self,
        mtr: &mut Mtr<'_, P>,
        from: (PageId, u16),
        to: (PageId, u16),
        n: u16,
    ) {
        if n > 0 {
            with_page_scratch(n as usize * 16, |buf| {
                mtr.rbytes(from.0, self.inner.key_off(from.1), buf);
                mtr.write(to.0, self.inner.key_off(to.1), buf);
            });
        }
    }

    /// Propagate a split (sep, right) into the ancestors recorded in
    /// `path` (deepest last), splitting them as needed and growing the
    /// root when the path is exhausted.
    fn insert_into_parents<P: BufferPool>(
        &mut self,
        mtr: &mut Mtr<'_, P>,
        mut path: Path,
        mut sep: u64,
        mut right: PageId,
    ) {
        loop {
            let Some((parent, idx)) = path.pop() else {
                // Root split: grow a new root.
                let new_root = mtr.allocate_page();
                mtr.write(new_root, OFF_TYPE, &[TYPE_INNER]);
                mtr.write(new_root, OFF_LEVEL, &[self.height + 1]);
                mtr.write_u16(new_root, OFF_NKEYS, 1);
                mtr.write_u64(new_root, OFF_CHILD0, self.root.0);
                mtr.write_u64(new_root, self.inner.key_off(0), sep);
                mtr.write_u64(new_root, self.inner.child_off(0), right.0);
                mtr.write_u64(self.meta_page, meta::OFF_ROOT, new_root.0);
                mtr.write_u64(self.meta_page, meta::OFF_HEIGHT, self.height as u64 + 1);
                self.root = new_root;
                self.height += 1;
                return;
            };
            let nkeys = mtr.ru16(parent, OFF_NKEYS);
            if nkeys < self.inner.capacity {
                self.move_entries(mtr, (parent, idx), (parent, idx + 1), nkeys - idx);
                mtr.write_u64(parent, self.inner.key_off(idx), sep);
                mtr.write_u64(parent, self.inner.child_off(idx), right.0);
                mtr.write_u16(parent, OFF_NKEYS, nkeys + 1);
                return;
            }
            // Parent full: split it, place (sep, right) in the correct
            // half, propagate the promoted key.
            let (promoted, parent_right) = self.split_inner(mtr, parent);
            let left_keys = mtr.ru16(parent, OFF_NKEYS);
            let (target, tidx) = if sep >= promoted {
                (parent_right, idx - (left_keys + 1))
            } else {
                (parent, idx)
            };
            let tn = mtr.ru16(target, OFF_NKEYS);
            self.move_entries(mtr, (target, tidx), (target, tidx + 1), tn - tidx);
            mtr.write_u64(target, self.inner.key_off(tidx), sep);
            mtr.write_u64(target, self.inner.child_off(tidx), right.0);
            mtr.write_u16(target, OFF_NKEYS, tn + 1);
            sep = promoted;
            right = parent_right;
        }
    }

    // ------------------------------------------------------ validation

    /// Structural validation (tests): key order, child separation,
    /// uniform leaf depth, leaf-chain order, heap/slot consistency.
    /// Returns the number of records. Untimed.
    pub fn check_invariants<P: BufferPool>(&self, pool: &mut P) -> u64 {
        let count = self.check_node(pool, self.root, self.height, u64::MIN, u64::MAX);
        let mut leaf = self.leftmost_leaf(pool);
        let mut last: Option<u64> = None;
        let mut chain_count = 0u64;
        loop {
            let mut cur = Cursor {
                pool,
                now: SimTime::ZERO,
            };
            let nkeys = cur.ru16(leaf, OFF_NKEYS);
            for i in 0..nkeys {
                let h = cur.ru16(leaf, self.leaf.slot_off(i));
                let k = cur.ru64(leaf, self.leaf.heap_off(h));
                if let Some(l) = last {
                    assert!(k > l, "leaf chain out of order: {l} -> {k}");
                }
                last = Some(k);
                chain_count += 1;
            }
            let next = cur.ru64(leaf, OFF_NEXT_LEAF);
            if next == 0 {
                break;
            }
            leaf = PageId(next);
        }
        assert_eq!(count, chain_count, "tree count vs leaf chain count");
        count
    }

    fn leftmost_leaf<P: BufferPool>(&self, pool: &mut P) -> PageId {
        let mut cur = Cursor {
            pool,
            now: SimTime::ZERO,
        };
        let mut page = self.root;
        for _ in 0..self.height {
            page = PageId(cur.ru64(page, OFF_CHILD0));
        }
        page
    }

    fn check_node<P: BufferPool>(
        &self,
        pool: &mut P,
        page: PageId,
        level: u8,
        lo: u64,
        hi: u64,
    ) -> u64 {
        let mut cur = Cursor {
            pool,
            now: SimTime::ZERO,
        };
        let mut ty = [0u8; 1];
        cur.rbytes(page, OFF_TYPE, &mut ty);
        let nkeys = cur.ru16(page, OFF_NKEYS);
        if level == 0 {
            assert_eq!(ty[0], TYPE_LEAF, "leaf level must hold leaf pages");
            let heap_used = cur.ru16(page, OFF_HEAP_USED);
            assert!(heap_used <= self.leaf.capacity);
            let mut prev: Option<u64> = None;
            let mut seen = std::collections::HashSet::new();
            for i in 0..nkeys {
                let h = cur.ru16(page, self.leaf.slot_off(i));
                assert!(h < heap_used, "slot points past heap ({h} >= {heap_used})");
                assert!(seen.insert(h), "two slots share heap cell {h}");
                let k = cur.ru64(page, self.leaf.heap_off(h));
                assert!(k >= lo && k < hi, "leaf key {k} outside [{lo},{hi})");
                if let Some(p) = prev {
                    assert!(k > p, "unsorted leaf");
                }
                prev = Some(k);
            }
            // The free list accounts for every heap cell not referenced
            // by a slot.
            let mut free = cur.ru16(page, OFF_FREE_HEAD);
            let mut free_cells = 0;
            while free != 0 {
                let h = free - 1;
                assert!(h < heap_used, "free cell past heap");
                assert!(!seen.contains(&h), "live cell {h} on free list");
                assert!(free_cells <= heap_used, "cycle in heap free list");
                free_cells += 1;
                free = cur.ru16(page, self.leaf.heap_off(h));
            }
            assert_eq!(
                nkeys + free_cells,
                heap_used,
                "heap cells must be either live or free"
            );
            return nkeys as u64;
        }
        assert_eq!(ty[0], TYPE_INNER, "inner level must hold inner pages");
        // A non-root inner node may transiently hold a single child (zero
        // separators) after lazy merges; the root never does (it collapses).
        if page == self.root {
            assert!(nkeys >= 1, "root inner node must have at least one key");
        }
        let mut keys = Vec::with_capacity(nkeys as usize);
        let mut children = vec![PageId(cur.ru64(page, OFF_CHILD0))];
        for i in 0..nkeys {
            keys.push(cur.ru64(page, self.inner.key_off(i)));
            children.push(PageId(cur.ru64(page, self.inner.child_off(i))));
        }
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "unsorted inner keys");
        }
        if !keys.is_empty() {
            assert!(
                keys[0] >= lo && *keys.last().unwrap() < hi,
                "inner keys out of range"
            );
        }
        let mut total = 0;
        for (i, child) in children.iter().enumerate() {
            let clo = if i == 0 { lo } else { keys[i - 1] };
            let chi = if i < keys.len() { keys[i] } else { hi };
            total += self.check_node(pool, *child, level - 1, clo, chi);
        }
        total
    }
}

// HEADER is used by the slot/heap geometry assertions in page.rs tests;
// referenced here to keep the import meaningful if layouts change.
const _: () = assert!(HEADER == 16);
