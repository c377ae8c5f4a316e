//! PolarRecv — instant recovery on PolarCXLMem (§3.2).
//!
//! After a host crash the CXL memory box (independent PSU) still holds
//! the whole buffer pool: page data *and* metadata. Instead of replaying
//! the full redo tail into an empty buffer like ARIES, PolarRecv:
//!
//! 1. reads the region header; if the crash tore a list operation
//!    (`list_lock != 0`) it rebuilds the lists by scanning blocks,
//!    otherwise it walks the intact in-use list;
//! 2. fetches the maximum durable LSN from the log;
//! 3. trusts every in-use block whose page is (a) not write-locked and
//!    (b) not newer than durable redo; all other pages — torn mid-update,
//!    mid-SMO, or "too new" (their redo died in the volatile log buffer)
//!    — are rebuilt from storage + redo replay;
//! 4. clears latch state and hands back a warm, consistent pool.
//!
//! The win: replay touches only the handful of pages that were in flight
//! at the crash, and the buffer is warm immediately — no cold-start
//! period (Figure 10).

use crate::cxl_bp::CxlBp;
use crate::layout::{field, BlockMeta, RegionHeader, META_SIZE, NO_PAGE};
use bufferpool::BufferPool;
use simkit::SimTime;
use storage::{PageId, Wal};

/// What PolarRecv did, and when it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// In-use pages taken from CXL memory as-is.
    pub trusted: u64,
    /// Pages rebuilt from storage + redo.
    pub rebuilt: u64,
    /// Redo records applied.
    pub records_applied: u64,
    /// Durable log bytes scanned.
    pub log_bytes_scanned: u64,
    /// Whether the in-use list had to be rebuilt by scanning blocks.
    pub lists_rebuilt: bool,
    /// Completion time of recovery.
    pub done: SimTime,
}

/// How PolarRecv decides whether an in-use block's CXL copy can be
/// taken as-is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrustPolicy {
    /// The paper's rule (§3.2): trust iff the page is not write-locked
    /// and its LSN is covered by durable redo.
    #[default]
    Durable,
    /// Metadata ablation: trust nothing, rebuild every in-use page from
    /// storage + redo (what recovery costs without durable metadata).
    Nothing,
    /// DELIBERATELY BROKEN — trusts write-locked pages too, so blocks
    /// torn mid-update (e.g. a partially flushed cacheline set) survive
    /// into the "recovered" pool. Exists only so the fault-sweep test
    /// can prove it detects a recovery scheme that skips the
    /// `lock_state` check; never use it for real recovery.
    TrustLatched,
}

/// Run PolarRecv over a crashed-and-reattached [`CxlBp`].
///
/// `bp` must have been produced by [`CxlBp::attach`] (volatile state
/// empty); on return it is fully operational and warm.
pub fn polar_recv(bp: &mut CxlBp, wal: &mut Wal, now: SimTime) -> RecoveryReport {
    polar_recv_policy(bp, wal, now, TrustPolicy::Durable)
}

/// PolarRecv with an explicit [`TrustPolicy`].
pub fn polar_recv_policy(
    bp: &mut CxlBp,
    wal: &mut Wal,
    now: SimTime,
    policy: TrustPolicy,
) -> RecoveryReport {
    let geo = bp.geometry();
    let node = bp.node();
    let durable = wal.durable_lsn();

    // 1. Header.
    let mut hdr_buf = [0u8; META_SIZE as usize];
    let mut t = {
        let fabric = bp.fabric().clone();
        let a = fabric
            .borrow_mut()
            .read_uncached(node, geo.base, &mut hdr_buf, now);
        a.end
    };
    let hdr = RegionHeader::decode(&hdr_buf);
    let lists_torn = hdr.list_lock != 0;

    // 2. Collect in-use blocks: walk the list when intact, scan every
    //    block when torn.
    let mut metas: Vec<(u32, BlockMeta)> = Vec::new();
    {
        let fabric = bp.fabric().clone();
        let mut pool = fabric.borrow_mut();
        let mut read_meta = |b: u64, t: &mut SimTime| {
            let mut buf = [0u8; META_SIZE as usize];
            let a = pool.read_uncached(node, geo.meta_off(b), &mut buf, *t);
            *t = a.end;
            BlockMeta::decode(&buf)
        };
        if lists_torn {
            for b in 0..geo.nblocks {
                let m = read_meta(b, &mut t);
                if m.in_use == 1 && m.page_id != NO_PAGE {
                    metas.push((b as u32, m));
                }
            }
        } else {
            let mut cur = hdr.inuse_head;
            let mut hops = 0u64;
            while cur != 0 {
                let b = cur - 1;
                let m = read_meta(b, &mut t);
                debug_assert_eq!(m.in_use, 1, "linked block must be in use");
                cur = m.next;
                metas.push((b as u32, m));
                hops += 1;
                assert!(hops <= geo.nblocks, "cycle in intact in-use list");
            }
        }
    }

    // 3. Decide trust vs rebuild.
    let mut rebuild: Vec<(u32, PageId)> = Vec::new();
    let mut trusted = 0u64;
    for (b, m) in &metas {
        let too_new = m.lsn > durable.0;
        let must_rebuild = match policy {
            TrustPolicy::Durable => m.lock_state != 0 || too_new,
            TrustPolicy::Nothing => true,
            TrustPolicy::TrustLatched => too_new,
        };
        if must_rebuild {
            rebuild.push((*b, PageId(m.page_id)));
        } else {
            trusted += 1;
        }
    }

    // 4. Rebuild pages: storage image + redo replay (physical records:
    //    unconditional re-application from the checkpoint is idempotent).
    let ckpt = wal.checkpoint_lsn();
    let log_bytes = wal.replay_bytes_from(ckpt);
    let mut records_applied = 0u64;
    if !rebuild.is_empty() {
        t = wal.charge_scan(ckpt, t);
        let rebuild_pages: std::collections::HashSet<PageId> =
            rebuild.iter().map(|&(_, p)| p).collect();
        let ps = geo.page_size as usize;
        for &(b, page) in &rebuild {
            let mut buf = vec![0u8; ps];
            let io = bp.store_mut().read_page(page, &mut buf, t);
            t = io.end;
            let fabric = bp.fabric().clone();
            let a = fabric
                .borrow_mut()
                .write_uncached(node, geo.data_off(b as u64), &buf, t);
            t = a.end;
        }
        // Apply every durable record targeting a rebuild page, in log
        // order, straight from the log.
        for rec in wal.replay_from(ckpt) {
            if !rebuild_pages.contains(&rec.page) {
                continue;
            }
            let b = rebuild
                .iter()
                .find(|&&(_, p)| p == rec.page)
                .map(|&(b, _)| b)
                .expect("rebuild page has a block");
            let fabric = bp.fabric().clone();
            let a = fabric.borrow_mut().write_uncached(
                node,
                geo.data_off(b as u64) + rec.off as u64,
                rec.data,
                t,
            );
            t = a.end;
            records_applied += 1;
            // Track the newest LSN per block in the metas vector.
            if let Some((_, m)) = metas.iter_mut().find(|(bb, _)| *bb == b) {
                m.lsn = m.lsn.max(rec.lsn.0);
            }
        }
    }

    // 5. Repair metadata: clear latches, stamp rebuilt LSNs, and relink
    //    the list if it was torn.
    {
        let fabric = bp.fabric().clone();
        let mut pool = fabric.borrow_mut();
        for (b, m) in metas.iter_mut() {
            if m.lock_state != 0 {
                let a = pool.write_uncached(
                    node,
                    geo.meta_off(*b as u64) + field::LOCK_STATE,
                    &0u64.to_le_bytes(),
                    t,
                );
                t = a.end;
                m.lock_state = 0;
            }
            let a = pool.write_uncached(
                node,
                geo.meta_off(*b as u64) + field::LSN,
                &m.lsn.to_le_bytes(),
                t,
            );
            t = a.end;
        }
        if lists_torn {
            // Rewrite the whole chain front-to-back.
            for i in 0..metas.len() {
                let (b, _) = metas[i];
                let prev = if i == 0 { 0 } else { metas[i - 1].0 as u64 + 1 };
                let next = if i + 1 == metas.len() {
                    0
                } else {
                    metas[i + 1].0 as u64 + 1
                };
                metas[i].1.prev = prev;
                metas[i].1.next = next;
                for (foff, v) in [(field::PREV, prev), (field::NEXT, next)] {
                    let a = pool.write_uncached(
                        node,
                        geo.meta_off(b as u64) + foff,
                        &v.to_le_bytes(),
                        t,
                    );
                    t = a.end;
                }
            }
            let head = metas.first().map_or(0, |(b, _)| *b as u64 + 1);
            for (foff, v) in [(field::HDR_INUSE_HEAD, head), (field::HDR_LIST_LOCK, 0)] {
                let a = pool.write_uncached(node, geo.base + foff, &v.to_le_bytes(), t);
                t = a.end;
            }
        }
    }

    // 6. Rebuild host-side volatile state.
    bp.adopt_recovered_state(&metas);
    // Pages whose CXL copy is ahead of storage must reach the next
    // checkpoint: rebuilt pages and anything newer than the checkpoint.
    for (_, m) in &metas {
        if m.lsn > ckpt.0 {
            bp.mark_dirty_for_checkpoint(PageId(m.page_id));
        }
    }
    for &(_, page) in &rebuild {
        bp.mark_dirty_for_checkpoint(page);
    }

    RecoveryReport {
        trusted,
        rebuilt: rebuild.len() as u64,
        records_applied,
        log_bytes_scanned: if rebuild.is_empty() { 0 } else { log_bytes },
        lists_rebuilt: lists_torn,
        done: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::{CxlPool, NodeId};
    use std::cell::RefCell;
    use std::rc::Rc;
    use storage::PageStore;

    const NPAGES: u64 = 8;

    fn setup() -> (CxlBp, Wal) {
        let mut store = PageStore::with_page_size(NPAGES, 1024);
        for p in 0..NPAGES {
            store.allocate();
            store.raw_write_page(PageId(p), &vec![p as u8 + 1; 1024]);
        }
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            8 << 20,
            1,
            256 << 10,
            false,
        )));
        let mut bp = CxlBp::format(cxl, NodeId(0), 0, NPAGES, store);
        bp.prewarm();
        (bp, Wal::new())
    }

    /// A fully committed, durable update through the latch protocol.
    fn committed_update(
        bp: &mut CxlBp,
        wal: &mut Wal,
        page: PageId,
        off: u16,
        data: &[u8],
        now: SimTime,
    ) -> SimTime {
        let lsn = wal.append_update(page, off, data);
        wal.seal_mtr();
        let t = bp.set_latch(page, true, now);
        let a = bp.write(page, off, data, lsn, t);
        let t = bp.set_latch(page, false, a.end);
        wal.flush(t)
    }

    #[test]
    fn trusted_plus_rebuilt_partitions_the_in_use_pages() {
        // Clean crash: everything trusted, nothing scanned.
        let (mut bp, mut wal) = setup();
        let t = committed_update(&mut bp, &mut wal, PageId(1), 0, &[0xA1; 8], SimTime::ZERO);
        bp.crash();
        wal.crash();
        let r = polar_recv(&mut bp, &mut wal, t);
        assert_eq!(r.trusted + r.rebuilt, NPAGES, "report must cover all pages");
        assert_eq!(r.rebuilt, 0);
        assert_eq!(r.records_applied, 0);
        assert_eq!(r.log_bytes_scanned, 0, "no rebuild, no log scan charged");
        assert!(!r.lists_rebuilt);
        assert!(r.done >= t);

        // Crash inside a latch window: exactly that page is rebuilt, and
        // the partition still holds.
        let (mut bp, mut wal) = setup();
        let t = committed_update(&mut bp, &mut wal, PageId(2), 0, &[0xB2; 8], SimTime::ZERO);
        let t = committed_update(&mut bp, &mut wal, PageId(2), 8, &[0xC3; 8], t);
        let lsn = wal.append_update(PageId(2), 16, &[0xD4; 8]);
        wal.seal_mtr();
        let t = bp.set_latch(PageId(2), true, t);
        let a = bp.write(PageId(2), 16, &[0xD4; 8], lsn, t);
        // Host dies before unlatch: the record above never flushed.
        bp.crash();
        wal.crash();
        let r = polar_recv(&mut bp, &mut wal, a.end);
        assert_eq!(r.trusted + r.rebuilt, NPAGES);
        assert_eq!(r.rebuilt, 1, "only the latched page is rebuilt");
        // Exactly the two durable records target the rebuilt page, and
        // the scan is charged for the whole durable tail.
        assert_eq!(r.records_applied, 2);
        assert_eq!(
            r.log_bytes_scanned,
            wal.replay_bytes_from(wal.checkpoint_lsn()),
            "scan covers the durable tail when anything is rebuilt"
        );
        assert!(!r.lists_rebuilt, "list was intact");
        // Only durable state survived.
        let mut buf = [0u8; 8];
        bp.read(PageId(2), 16, &mut buf, SimTime::ZERO);
        // The storage image fills page 2 with 3s; the unflushed record's
        // 0xD4 bytes must have been rebuilt away.
        assert_eq!(buf, [3u8; 8], "unflushed record must not survive");
        bp.read(PageId(2), 8, &mut buf, SimTime::ZERO);
        assert_eq!(buf, [0xC3; 8], "durable record must survive");
    }

    #[test]
    fn records_applied_consistent_with_log_bytes_scanned() {
        let (mut bp, mut wal) = setup();
        let mut t = SimTime::ZERO;
        for i in 0..4u8 {
            t = committed_update(&mut bp, &mut wal, PageId(3), 24 * i as u16, &[i; 8], t);
        }
        // Leave page 3 latched so it is rebuilt.
        let t = bp.set_latch(PageId(3), true, t);
        bp.crash();
        wal.crash();
        let r = polar_recv(&mut bp, &mut wal, t);
        assert_eq!(r.rebuilt, 1);
        assert_eq!(r.records_applied, 4, "all durable records hit the page");
        assert!(
            r.log_bytes_scanned > 0 && r.records_applied > 0,
            "applied records imply a charged scan"
        );
    }

    #[test]
    fn lists_rebuilt_iff_crash_landed_mid_list_op() {
        // A normal crash leaves the list intact: no rebuild.
        let (mut bp, mut wal) = setup();
        bp.crash();
        wal.crash();
        let r = polar_recv(&mut bp, &mut wal, SimTime::ZERO);
        assert!(!r.lists_rebuilt);

        // Emulate dying inside a list operation: the header lock is set
        // and never cleared. Recovery must scan, relink, and release it.
        let (mut bp, mut wal) = setup();
        let geo = bp.geometry();
        let node = bp.node();
        bp.fabric()
            .borrow_mut()
            .raw_mut()
            .write(geo.base + field::HDR_LIST_LOCK, &1u64.to_le_bytes());
        bp.crash();
        wal.crash();
        let r = polar_recv(&mut bp, &mut wal, SimTime::ZERO);
        assert!(r.lists_rebuilt, "torn list lock must force a scan");
        assert_eq!(r.trusted + r.rebuilt, NPAGES, "scan finds every page");
        // The header is repaired: lock clear, list walkable end to end.
        let pool = bp.fabric().borrow();
        let hdr = RegionHeader::decode(pool.raw().slice(geo.base, META_SIZE as usize));
        assert_eq!(hdr.list_lock, 0);
        let mut cur = hdr.inuse_head;
        let mut seen = 0u64;
        while cur != 0 {
            let m = BlockMeta::decode(pool.raw().slice(geo.meta_off(cur - 1), META_SIZE as usize));
            assert_eq!(m.in_use, 1);
            seen += 1;
            cur = m.next;
            assert!(seen <= geo.nblocks, "relinked list must not cycle");
        }
        assert_eq!(seen, NPAGES, "relinked list covers every in-use block");
        let _ = node;
    }
}
