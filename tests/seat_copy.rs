//! A copied instance against a loaded one.
//!
//! `run_pooling` loads one instance and seats the rest as copies of it
//! (`Db::copy_onto` over `DramBp::clone`, `TieredRdmaBp::copy_to`,
//! `CxlBp::copy_to`). The copy is claimed to be *exact*: the instance its
//! own load at its own seat would have produced. Per pool design, two
//! worlds are built — in one, seats A and B each load the table; in the
//! other, A loads it and B is copied from A — and B must be the same
//! instance in both:
//!
//! - equal at rest: page-store bytes and I/O counts, pool-slice bytes
//!   (remote slice / CXL lease), `BpStats`, modelled-cache statistics,
//!   the `page_lsn` of every page, WAL and engine counters;
//! - equal in motion: one seeded mix of pool reads and logged in-place
//!   rewrites (every `Access` compared), engine statements, checkpoints,
//!   evictions (every pool is smaller than the table) and a crash with
//!   the design's own recovery (PolarRecv over the lease for `CxlBp`),
//!   every completion time and recovery summary compared;
//! - equal at rest again afterwards, and seat A undisturbed.
//!
//! The same three looks hold `Db::load` itself, which logs no redo,
//! against the logged reference — the same rows inserted through
//! `BTree::insert` on a plain WAL, then the same checkpoint and prewarm:
//! a seat B loaded either way is one instance.
//!
//! The refusals of a copy — the cases the exactness argument does not
//! cover — each have a `should_panic` case at the layer that refuses and
//! through the pool that inherits it: here for the two pools, in `engine`
//! for the fault plan, in `memsim` for `Cache::shifted`,
//! `Region::copy_disjoint` and `CxlPool::copy_lease`.

use polardb_cxl_repro::memsim::calib::PAGE_SIZE;
use polardb_cxl_repro::memsim::{Access, CacheStats, Region};
use polardb_cxl_repro::polarcxlmem::layout::lease_size;
use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::workloads::harness::pages_for;
use polardb_cxl_repro::workloads::sysbench::{make_record, RECORD_SIZE};
use std::cell::RefCell;
use std::rc::Rc;

const RECORD: u16 = 120;
const ROWS: u64 = 4_000;
/// Room for the loaded tree (~100 pages) with slack.
const PAGES: u64 = 160;
const PAGE: u64 = 16 << 10;
/// 768 sets — not a power of two, and far smaller than any pool below.
const CACHE_BYTES: usize = 48 << 10;

fn rows() -> impl Iterator<Item = (u64, Vec<u8>)> {
    (1..=ROWS).map(|k| (k, vec![(k % 251) as u8; RECORD as usize]))
}

fn loaded<P: BufferPool>(pool: P) -> Db<P> {
    let mut db = Db::create(pool, RECORD);
    db.load(rows());
    db
}

/// `Db::load`'s logged reference: every insert redo-logged, then the
/// checkpoint that discards the log, then the prewarm.
fn logged<P: BufferPool>(pool: P) -> Db<P> {
    let mut db = Db::create(pool, RECORD);
    for (k, v) in rows() {
        let (inserted, _) = db
            .table
            .insert(&mut db.pool, &mut db.wal, k, &v, SimTime::ZERO);
        assert!(inserted, "key {k}");
    }
    db.checkpoint(SimTime::ZERO);
    db.pool.prewarm();
    db
}

/// How a world makes seat B.
enum SeatB {
    /// `Db::load` at its own seat.
    Loaded,
    /// The logged reference at its own seat.
    Logged,
    /// A copy of seat A.
    Copied,
}

/// What can be read off an instance without disturbing it.
#[derive(Debug, PartialEq)]
struct AtRest {
    store_pages: Vec<Vec<u8>>,
    store_io: (u64, u64, u64),
    slice: Vec<u8>,
    bp_stats: String,
    cache: CacheStats,
    page_lsns: Vec<Option<Lsn>>,
    wal: (u64, u64, Lsn, Lsn, Lsn, u64),
    db_stats: String,
}

/// `slice` is the seat's part of the shared memory (remote slice, CXL
/// lease; nothing for local DRAM), `cache` the statistics of the modelled
/// cache in front of the pool.
fn at_rest<P: BufferPool>(db: &Db<P>, slice: Vec<u8>, cache: CacheStats) -> AtRest {
    let store = db.pool.store();
    let pages = store.allocated_pages();
    let (reads, writes) = store.io_counts();
    let (flushes, flushed) = db.wal.flush_stats();
    AtRest {
        store_pages: (0..pages)
            .map(|p| store.raw_page(PageId(p)).to_vec())
            .collect(),
        store_io: (reads, writes, store.channel_bytes()),
        slice,
        bp_stats: format!("{:?}", db.pool.stats()),
        cache,
        page_lsns: (0..pages).map(|p| db.pool.page_lsn(PageId(p))).collect(),
        wal: (
            flushes,
            flushed,
            db.wal.durable_lsn(),
            db.wal.checkpoint_lsn(),
            db.wal.max_assigned_lsn(),
            db.wal.pending_bytes(),
        ),
        db_stats: format!("{:?}", db.stats()),
    }
}

/// Everything the seeded mix returned.
#[derive(Debug, PartialEq, Default)]
struct InMotion {
    accesses: Vec<Access>,
    bytes_read: Vec<u8>,
    times: Vec<SimTime>,
    found: Vec<bool>,
    recoveries: Vec<String>,
}

/// The seeded mix (see the module docs). `recover` is the design's
/// recovery scheme, run after the mid-mix crash.
fn drive<P: BufferPool>(db: &mut Db<P>, recover: fn(&mut Db<P>, SimTime) -> String) -> InMotion {
    let mut out = InMotion::default();
    let mut rng = SimRng::seed_from_u64(0xC0B1);
    let mut t = SimTime::ZERO;
    db.reset_timing_queues();
    for step in 0..3_000u32 {
        let pages = db.pool.store().allocated_pages();
        let page = PageId(rng.gen_range(0..pages));
        let len = rng.gen_range(1..=300usize);
        let off = rng.gen_range(0..PAGE as usize - len) as u16;
        let key = rng.gen_range(1..=ROWS + 200);
        match rng.gen_range(0..100u32) {
            0..=34 => {
                let mut buf = vec![0u8; len];
                let a = db.pool.read(page, off, &mut buf, t);
                out.bytes_read.extend_from_slice(&buf);
                out.accesses.push(a);
                t = a.end;
            }
            35..=54 => {
                // A logged, latched rewrite of bytes with themselves: a
                // real pool write (dirty frame, new page LSN, write-back
                // on eviction) that leaves the tree readable.
                let mut buf = vec![0u8; len];
                t = db.pool.read(page, off, &mut buf, t).end;
                t = db.pool.set_latch(page, true, t);
                let lsn = db.wal.append_update(page, off, &buf);
                let a = db.pool.write(page, off, &buf, lsn, t);
                db.wal.seal_mtr();
                t = db.pool.set_latch(page, false, a.end);
                out.accesses.push(a);
            }
            55..=69 => {
                let mut field = [0u8; 8];
                let (found, end) = db.select_field(key, 0, &mut field, t);
                out.bytes_read.extend_from_slice(&field);
                out.found.push(found);
                t = end;
            }
            70..=79 => {
                let (found, end) = db.update(key, 8, &[step as u8; 16], t);
                out.found.push(found);
                t = end;
            }
            80..=84 => {
                let (found, end) = db.update_no_commit(key, 40, &[step as u8; 4], t);
                out.found.push(found);
                t = end;
            }
            85..=89 => {
                let rec = vec![step as u8; RECORD as usize];
                let (inserted, end) = db.insert(key, &rec, t);
                out.found.push(inserted);
                t = end;
            }
            90..=93 => {
                let (found, end) = db.delete(key, t);
                out.found.push(found);
                t = end;
            }
            94..=97 => {
                let (n, end) = db.range_select(key, 40, t);
                out.found.push(n > 0);
                t = end;
            }
            _ => t = db.checkpoint(t),
        }
        out.times.push(t);
        if step == 1_800 {
            // Whatever is unflushed — log tail, dirty frames, dirty cache
            // lines — dies here.
            db.crash();
            out.recoveries.push(recover(db, t));
            t += 1_000_000;
        }
    }
    out.times.push(db.pool.flush_all(t));
    out
}

fn replay<P: BufferPool>(db: &mut Db<P>, t: SimTime) -> String {
    format!("{:?}", recover_replay(db, "replay", t))
}

fn polar(db: &mut Db<CxlBp>, t: SimTime) -> String {
    format!("{:?}", recover_polar(db, TrustPolicy::Durable, t))
}

/// `len` bytes of `region` at `base`, read, not borrowed: a copied seat's
/// windows read through its source's, so its slice is no one borrow.
fn read_all(region: &Region, base: u64, len: u64) -> Vec<u8> {
    let mut bytes = vec![0; len as usize];
    region.read(base, &mut bytes);
    bytes
}

/// One world: seats A and B of one design, and how to look at them.
struct World<P: BufferPool> {
    a: Db<P>,
    b: Db<P>,
    /// The bytes of seat A's / seat B's part of the shared memory.
    slices: [Box<dyn Fn() -> Vec<u8>>; 2],
    cache: Box<dyn Fn(&P) -> CacheStats>,
    /// Forget the set-up's link backlog, as every harness does.
    reset_links: Box<dyn Fn()>,
}

impl<P: BufferPool> World<P> {
    fn a_at_rest(&self) -> AtRest {
        at_rest(&self.a, (self.slices[0])(), (self.cache)(&self.a.pool))
    }

    fn b_at_rest(&self) -> AtRest {
        at_rest(&self.b, (self.slices[1])(), (self.cache)(&self.b.pool))
    }
}

/// Seat B of `x` and of `y` is one instance: at rest, under the seeded
/// mix, and afterwards. Returns what the mix saw.
fn assert_same_seat_b<P: BufferPool>(
    x: &mut World<P>,
    y: &mut World<P>,
    recover: fn(&mut Db<P>, SimTime) -> String,
) -> InMotion {
    assert_eq!(x.b_at_rest(), y.b_at_rest(), "seat B at rest");
    (x.reset_links)();
    (y.reset_links)();
    let moved = drive(&mut x.b, recover);
    assert_eq!(moved, drive(&mut y.b, recover), "seat B in motion");
    assert!(moved.accesses.iter().any(|a| a.misses > 0));
    assert!(moved.found.iter().any(|&f| f) && moved.found.iter().any(|&f| !f));
    assert_eq!(x.b_at_rest(), y.b_at_rest(), "seat B afterwards");
    moved
}

/// `build(how)` makes a world whose seat B is made `how`.
fn assert_copy_is_exact<P: BufferPool>(
    build: impl Fn(SeatB) -> World<P>,
    recover: fn(&mut Db<P>, SimTime) -> String,
) {
    let mut loaded = build(SeatB::Loaded);
    let mut copied = build(SeatB::Copied);
    let a_before = copied.a_at_rest();
    assert_eq!(a_before, loaded.a_at_rest(), "seat A");
    // Same table, same pool, another seat: at rest A and B differ in
    // nothing either (their slices hold the same bytes).
    assert_eq!(a_before, copied.b_at_rest(), "seat B is seat A elsewhere");
    assert_same_seat_b(&mut copied, &mut loaded, recover);
    assert_ne!(a_before, copied.b_at_rest(), "the mix changed seat B");
    // Neither making the copy nor driving it touched the source.
    assert_eq!(a_before, copied.a_at_rest(), "seat A afterwards");
}

/// `Db::load` is its logged reference: every page's bytes and LSN, the
/// WAL's LSNs and flush counters, `BpStats` and the modelled cache equal
/// at rest, and so does everything after.
fn assert_load_matches_logged<P: BufferPool>(
    build: impl Fn(SeatB) -> World<P>,
    recover: fn(&mut Db<P>, SimTime) -> String,
) {
    let mut unlogged = build(SeatB::Loaded);
    let mut logged = build(SeatB::Logged);
    assert_same_seat_b(&mut unlogged, &mut logged, recover);
}

fn dram_world(how: SeatB) -> World<DramBp> {
    let fresh = || DramBp::new(40, CACHE_BYTES, PageStore::new(PAGES));
    let a = loaded(fresh());
    let b = match how {
        SeatB::Loaded => loaded(fresh()),
        SeatB::Logged => logged(fresh()),
        SeatB::Copied => a.copy_onto(a.pool.clone()),
    };
    World {
        a,
        b,
        slices: [Box::new(Vec::new), Box::new(Vec::new)],
        cache: Box::new(DramBp::cache_stats),
        reset_links: Box::new(|| {}),
    }
}

fn tiered_rdma_world(how: SeatB) -> World<TieredRdmaBp> {
    let slice = PAGES * PAGE;
    let rdma = Rc::new(RefCell::new(RdmaPool::new(2 * slice as usize, 1)));
    let fresh = |base| {
        let store = PageStore::new(PAGES);
        let rdma = Rc::clone(&rdma);
        TieredRdmaBp::new(rdma, 0, base, 24, CACHE_BYTES, store)
    };
    let a = loaded(fresh(0));
    let b = match how {
        SeatB::Loaded => loaded(fresh(slice)),
        SeatB::Logged => logged(fresh(slice)),
        SeatB::Copied => a.copy_onto(a.pool.copy_to(slice)),
    };
    let bytes = |base| -> Box<dyn Fn() -> Vec<u8>> {
        let rdma = Rc::clone(&rdma);
        Box::new(move || read_all(rdma.borrow().raw(), base, slice))
    };
    let links = Rc::clone(&rdma);
    World {
        a,
        b,
        slices: [bytes(0), bytes(slice)],
        cache: Box::new(TieredRdmaBp::cache_stats),
        reset_links: Box::new(move || links.borrow_mut().reset_link_counters()),
    }
}

fn cxl_world(how: SeatB) -> World<CxlBp> {
    // Fewer blocks than the table has pages, so the load itself evicts.
    const BLOCKS: u64 = 60;
    let lease = lease_size(BLOCKS, PAGE);
    // Not a multiple of the 768-set cache's reach: B's lines land in
    // other sets than A's, with a carry into the tags.
    let b_base = lease + 4096 + 3 * 64;
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        (b_base + lease) as usize,
        2,
        CACHE_BYTES,
        false,
    )));
    let fresh = |node, base| {
        let store = PageStore::new(PAGES);
        CxlBp::format(Rc::clone(&cxl), node, base, BLOCKS, store)
    };
    let a = loaded(fresh(NodeId(0), 0));
    let b = match how {
        SeatB::Loaded => loaded(fresh(NodeId(1), b_base)),
        SeatB::Logged => logged(fresh(NodeId(1), b_base)),
        SeatB::Copied => a.copy_onto(a.pool.copy_to(NodeId(1), b_base)),
    };
    let bytes = |base| -> Box<dyn Fn() -> Vec<u8>> {
        let cxl = Rc::clone(&cxl);
        Box::new(move || read_all(cxl.borrow().raw(), base, lease))
    };
    let (stats, links) = (Rc::clone(&cxl), Rc::clone(&cxl));
    World {
        a,
        b,
        slices: [bytes(0), bytes(b_base)],
        cache: Box::new(move |bp: &CxlBp| stats.borrow().cache_stats(bp.node())),
        reset_links: Box::new(move || links.borrow_mut().reset_link_counters()),
    }
}

#[test]
fn dram_copy_is_exact() {
    assert_copy_is_exact(dram_world, replay);
}

#[test]
fn tiered_rdma_copy_is_exact() {
    assert_copy_is_exact(tiered_rdma_world, replay);
}

#[test]
fn cxl_copy_is_exact() {
    assert_copy_is_exact(cxl_world, polar);
}

#[test]
fn dram_load_matches_the_logged_reference() {
    assert_load_matches_logged(dram_world, replay);
}

#[test]
fn tiered_rdma_load_matches_the_logged_reference() {
    assert_load_matches_logged(tiered_rdma_world, replay);
}

#[test]
fn cxl_load_matches_the_logged_reference() {
    assert_load_matches_logged(cxl_world, polar);
}

// ---- what a copied seat owns ---------------------------------------
//
// A copy maps every 256 KB window of the shared region it covers whole
// onto its source's bytes, and a window takes bytes of its own only when
// it is written — or, for a source window, when it is written while
// windows read through it. So after seating `pool_point`'s cells and
// running point selects, the region owns every window but those the
// copies cover whole — lease 0, the ragged edge windows of every other
// lease and the gaps — and each later write owns exactly the windows the
// rule names. `mapped` below is that rule kept by hand: the windows left
// mapped, each with the address its bytes live at.

/// `memsim::Region`'s copy-on-write window.
const WINDOW: u64 = 256 << 10;
/// `pool_point`'s table.
const POINT_ROWS: u64 = 30_000;

/// The windows a copy of `len` bytes from `from` to `to` maps: every one
/// it covers whole, with where its bytes live.
fn mapped_by(from: u64, to: u64, len: u64) -> Vec<(u64, u64)> {
    (to.div_ceil(WINDOW)..(to + len) / WINDOW)
        .map(|w| (w, w * WINDOW + from - to))
        .collect()
}

/// One write at `off`: the window under it owns its bytes, and so does
/// every window that read through it.
fn write_through(mapped: &mut Vec<(u64, u64)>, off: u64) {
    let w = off / WINDOW;
    let (lo, hi) = (w * WINDOW, (w + 1) * WINDOW);
    mapped.retain(|&(v, at)| v != w && (at >= hi || at + WINDOW <= lo));
}

fn assert_owns(region: &Region, mapped: &[(u64, u64)], what: &str) {
    let owned = region.len() as u64 - mapped.len() as u64 * WINDOW;
    assert_eq!(region.owned_bytes() as u64, owned, "{what}");
}

fn point_loaded<P: BufferPool>(pool: P) -> Db<P> {
    let mut db = Db::create(pool, RECORD_SIZE);
    db.load((1..=POINT_ROWS).map(|k| (k, make_record(k, (k % 251) as u8))));
    db
}

/// A read-only window: point selects on every seat.
fn point_selects<P: BufferPool>(dbs: &mut [Db<P>]) {
    let mut rng = SimRng::seed_from_u64(0x5EA7);
    let mut t = SimTime::ZERO;
    for _ in 0..500 {
        for db in dbs.iter_mut() {
            let (found, end) = db.point_select(rng.gen_range(1..=POINT_ROWS), t);
            assert!(found);
            t = end;
        }
    }
}

/// Seats 1..n as `run_pooling` seats them: copies of a loaded seat 0.
fn seat_copies<P: BufferPool>(first: Db<P>, n: usize, copy: impl Fn(&P, usize) -> P) -> Vec<Db<P>> {
    let mut dbs = vec![first];
    for i in 1..n {
        let db = dbs[0].copy_onto(copy(&dbs[0].pool, i));
        dbs.push(db);
    }
    dbs
}

#[test]
fn cxl_n8_seat_owns_lease_0_and_the_edges() {
    let pages = pages_for(POINT_ROWS, PAGE_SIZE);
    let lease = lease_size(pages, PAGE_SIZE);
    let pool_size = (lease + 4096) * 8;
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        pool_size as usize,
        8,
        4 << 20,
        false,
    )));
    let mut mgr = CxlMemoryManager::new(pool_size);
    let bases: Vec<u64> = (0..8)
        .map(|i| {
            mgr.allocate(NodeId(i), lease, SimTime::ZERO)
                .expect("room")
                .0
                .offset
        })
        .collect();
    assert_eq!(bases[1] - bases[0], 13_701_248);
    let store = PageStore::new(pages);
    let first = point_loaded(CxlBp::format(
        Rc::clone(&cxl),
        NodeId(0),
        bases[0],
        pages,
        store,
    ));
    let mut dbs = seat_copies(first, 8, |p, i| p.copy_to(NodeId(i), bases[i]));
    let mut mapped: Vec<_> = (1..8)
        .flat_map(|i| mapped_by(bases[0], bases[i], lease))
        .collect();
    assert_eq!(mapped.len(), 359);
    assert_owns(cxl.borrow().raw(), &mapped, "seated");
    point_selects(&mut dbs);
    assert_owns(cxl.borrow().raw(), &mapped, "after point selects");
    // One store into a copy's mapped window owns that window alone.
    let at = bases[3] + lease / 2;
    cxl.borrow_mut()
        .write(NodeId(3), at, &[7; 8], SimTime::ZERO);
    write_through(&mut mapped, at);
    assert_owns(cxl.borrow().raw(), &mapped, "a copy written");
    // One store into lease 0 owns every window that read through it.
    let at = bases[0] + lease / 3;
    let before = mapped.len();
    cxl.borrow_mut()
        .write(NodeId(0), at, &[7; 8], SimTime::ZERO);
    write_through(&mut mapped, at);
    assert_eq!(before - mapped.len(), 14, "two readers per copy");
    assert_owns(cxl.borrow().raw(), &mapped, "the source written");
}

#[test]
fn tiered_n4_seat_owns_slice_0_and_the_edges() {
    let pages = pages_for(POINT_ROWS, PAGE_SIZE);
    let slice = pages * PAGE_SIZE;
    let rdma = Rc::new(RefCell::new(RdmaPool::new((slice * 4) as usize, 1)));
    let lbp = (pages as f64 * 0.3).ceil() as usize;
    let store = PageStore::new(pages);
    let first = point_loaded(TieredRdmaBp::new(
        Rc::clone(&rdma),
        0,
        0,
        lbp,
        4 << 20,
        store,
    ));
    let mut dbs = seat_copies(first, 4, |p, i| p.copy_to(i as u64 * slice));
    let mut mapped: Vec<_> = (1..4)
        .flat_map(|i| mapped_by(0, i * slice, slice))
        .collect();
    assert_eq!(mapped.len(), 3 * 51);
    assert_owns(rdma.borrow().raw(), &mapped, "seated");
    point_selects(&mut dbs);
    assert_owns(rdma.borrow().raw(), &mapped, "after point selects");
    let at = 2 * slice + slice / 2;
    rdma.borrow_mut().raw_mut().write(at, &[7; 8]);
    write_through(&mut mapped, at);
    assert_owns(rdma.borrow().raw(), &mapped, "a copy written");
    let at = slice / 3;
    rdma.borrow_mut().raw_mut().write(at, &[7; 8]);
    write_through(&mut mapped, at);
    assert_owns(rdma.borrow().raw(), &mapped, "the source written");
}

// ---- what a copy refuses --------------------------------------------

fn small_tiered(rdma_bytes: usize) -> TieredRdmaBp {
    let rdma = Rc::new(RefCell::new(RdmaPool::new(rdma_bytes, 1)));
    TieredRdmaBp::new(rdma, 0, 0, 4, 4096, PageStore::with_page_size(8, 1024))
}

#[test]
#[should_panic(expected = "overlaps its source")]
fn tiered_copy_onto_its_own_slice_is_refused() {
    small_tiered(64 << 10).copy_to(4096);
}

#[test]
#[should_panic(expected = "leaves the region")]
fn tiered_copy_outside_the_remote_region_is_refused() {
    small_tiered(12 << 10).copy_to(8192);
}

fn small_cxl(pool_bytes: usize) -> CxlBp {
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        pool_bytes, 2, 4096, false,
    )));
    CxlBp::format(cxl, NodeId(0), 0, 4, PageStore::with_page_size(8, 1024))
}

#[test]
#[should_panic(expected = "overlaps its source")]
fn cxl_copy_onto_its_own_lease_is_refused() {
    small_cxl(64 << 10).copy_to(NodeId(1), 1024);
}

#[test]
#[should_panic(expected = "leaves the region")]
fn cxl_copy_outside_the_pool_is_refused() {
    small_cxl(8 << 10).copy_to(NodeId(1), 6 << 10);
}

#[test]
#[should_panic(expected = "not a whole number of cache lines")]
fn cxl_copy_by_a_ragged_delta_is_refused() {
    small_cxl(64 << 10).copy_to(NodeId(1), (16 << 10) + 8);
}

#[test]
#[should_panic(expected = "cache has already been used")]
fn cxl_copy_onto_a_used_node_is_refused() {
    let bp = small_cxl(64 << 10);
    let mut buf = [0u8; 8];
    bp.fabric()
        .borrow_mut()
        .read(NodeId(1), 32 << 10, &mut buf, SimTime::ZERO);
    bp.copy_to(NodeId(1), 16 << 10);
}
