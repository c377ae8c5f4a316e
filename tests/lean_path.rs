//! The lean read path against the general path.
//!
//! A single-line read that hits the modelled CPU cache is served by a
//! short in-line path, and a CXL pool read of the page its previous read
//! fixed skips the pool's prologue (`CxlBp`'s hot-page branch; the
//! DRAM-backed pools have one path, whose re-fix of that page is in
//! line); everything else — and every read of an instrumented or
//! fault-armed run — takes the general path. The two must be
//! indistinguishable in every simulated value. For each pool one seeded
//! op sequence runs three times:
//!
//! - **plain**: lean paths wherever they apply;
//! - **attribution on**: the CXL pool routes every read through `fix` and
//!   the general fabric path; the DRAM space keeps its in-line cache-hit
//!   guard;
//! - **fault plan armed but never firing**: every gate counts its hit,
//!   so the CXL pool again takes the general path.
//!
//! and the `Access` sequences, `BpStats`, `CacheStats` and link bytes
//! must be identical across the three.
//!
//! `BufferPool::touch` is the timing plane of `read` alone, and its trait
//! default — read into a scratch buffer, discard — is the definition. The
//! same op sequence with every read replaced by `touch` runs on each
//! overriding pool in all three modes against that default, plus on the
//! CXL pool under a poison plan that fires and over a capture-mode
//! fabric.
//!
//! The RDMA sharing baseline has no second path, but the same split: it
//! charges whole pages and moves only the bytes a statement touches. Its
//! case runs the three modes over the serial and the phased API and
//! checks that no charged transfer skipped its gate.

use polardb_cxl_repro::bufferpool::BpStats;
use polardb_cxl_repro::memsim::{Access, CacheStats, RdmaShard};
use polardb_cxl_repro::polarcxlmem::{RdmaDbp, RdmaSharingNode, SharedCxl};
use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::simkit::trace;
use std::cell::RefCell;
use std::rc::Rc;

const PAGES: u64 = 24;
const PAGE_SIZE: usize = 1024;
/// A third of the pages fit: misses, evictions and write-backs occur.
const FRAMES: usize = 8;
/// Smaller than the frames' footprint, so cached lines get evicted too.
const CACHE_BYTES: usize = 4 << 10;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Plain,
    Attribution,
    ArmedFaults,
}

/// Everything simulated that a run produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    accesses: Vec<Access>,
    flushes: Vec<SimTime>,
    bp_stats: String,
    cache: CacheStats,
    link_bytes: Vec<u64>,
}

fn store() -> PageStore {
    let mut store = PageStore::with_page_size(PAGES, PAGE_SIZE as u64);
    for p in 0..PAGES {
        store.allocate();
        store.raw_write_page(PageId(p), &vec![p as u8 + 1; PAGE_SIZE]);
    }
    store
}

/// How [`drive`] issues its reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plane {
    /// `read`, checked against a byte oracle.
    Read,
    /// `touch`: the same accesses, no bytes.
    Touch,
}

/// `P` with `touch` left at the trait's default — the definition every
/// overriding pool is held to.
struct ByDefault<P>(P);

impl<P: BufferPool> BufferPool for ByDefault<P> {
    fn page_size(&self) -> u64 {
        self.0.page_size()
    }
    fn allocate_page(&mut self, now: SimTime) -> (PageId, SimTime) {
        self.0.allocate_page(now)
    }
    fn read(&mut self, page: PageId, off: u16, buf: &mut [u8], now: SimTime) -> Access {
        self.0.read(page, off, buf, now)
    }
    fn write(&mut self, page: PageId, off: u16, data: &[u8], lsn: Lsn, now: SimTime) -> Access {
        self.0.write(page, off, data, lsn, now)
    }
    fn set_latch(&mut self, page: PageId, locked: bool, now: SimTime) -> SimTime {
        self.0.set_latch(page, locked, now)
    }
    fn page_lsn(&self, page: PageId) -> Option<Lsn> {
        self.0.page_lsn(page)
    }
    fn is_resident(&self, page: PageId) -> bool {
        self.0.is_resident(page)
    }
    fn flush_all(&mut self, now: SimTime) -> SimTime {
        self.0.flush_all(now)
    }
    fn stats(&self) -> BpStats {
        self.0.stats()
    }
    fn store(&self) -> &PageStore {
        self.0.store()
    }
    fn store_mut(&mut self) -> &mut PageStore {
        self.0.store_mut()
    }
    fn prewarm(&mut self) {
        self.0.prewarm()
    }
}

/// [`drive`] over `pool` itself, or over `pool` with the default `touch`.
fn drive_as<P: BufferPool>(
    pool: P,
    plane: Plane,
    by_default: bool,
) -> (P, Vec<Access>, Vec<SimTime>) {
    let mut pool = ByDefault(pool);
    let (accesses, flushes) = if by_default {
        drive(&mut pool, plane)
    } else {
        drive(&mut pool.0, plane)
    };
    (pool.0, accesses, flushes)
}

/// The seeded op sequence: runs of field-sized reads on one page (a
/// B+tree node visit) with record-sized reads, writes and checkpoints
/// mixed in. A `Plane::Read` run also checks every read against a byte
/// oracle.
fn drive<P: BufferPool>(pool: &mut P, plane: Plane) -> (Vec<Access>, Vec<SimTime>) {
    let mut rng = SimRng::seed_from_u64(0x1EA4);
    let mut oracle: Vec<Vec<u8>> = (0..PAGES).map(|p| vec![p as u8 + 1; PAGE_SIZE]).collect();
    let mut accesses = Vec::new();
    let mut flushes = Vec::new();
    let mut now = SimTime::ZERO;
    let mut page = 0u64;
    for step in 0..4_000u64 {
        if rng.gen_bool(0.3) {
            page = rng.gen_range(0..PAGES);
        }
        let a = match rng.gen_range(0..100u32) {
            0..=69 => {
                let len = [2usize, 8, 8, 8, 30, 120, 188][rng.gen_range(0..7usize)];
                let off = rng.gen_range(0..=PAGE_SIZE - len);
                if plane == Plane::Touch {
                    pool.touch(PageId(page), off as u16, len, now)
                } else {
                    let mut buf = vec![0u8; len];
                    let a = pool.read(PageId(page), off as u16, &mut buf, now);
                    assert_eq!(buf, oracle[page as usize][off..off + len], "step {step}");
                    a
                }
            }
            70..=97 => {
                let len = rng.gen_range(1..=64usize);
                let off = rng.gen_range(0..=PAGE_SIZE - len);
                let data = vec![rng.gen::<u8>(); len];
                oracle[page as usize][off..off + len].copy_from_slice(&data);
                pool.write(PageId(page), off as u16, &data, Lsn(step + 1), now)
            }
            _ => {
                now = pool.flush_all(now);
                flushes.push(now);
                continue;
            }
        };
        now = a.end;
        accesses.push(a);
    }
    (accesses, flushes)
}

/// Run `body` under `mode`, leaving the thread's tracer and fault engine
/// as it found them. Returns the body's result and whether the mode's
/// instrument saw the run (so a mode cannot pass by being a no-op).
fn under<R>(mode: Mode, body: impl FnOnce() -> R) -> (R, bool) {
    faults::clear();
    trace::enable_attribution(false);
    match mode {
        Mode::Plain => {}
        Mode::Attribution => {
            trace::reset();
            trace::enable_attribution(true);
        }
        Mode::ArmedFaults => faults::install(FaultPlan::default()),
    }
    let out = body();
    let observed = match mode {
        Mode::Plain => true,
        // Compiled without the `trace` feature the switch is a no-op.
        Mode::Attribution => !trace::attribution_enabled() || trace::attr_snapshot().total_ns() > 0,
        Mode::ArmedFaults => {
            assert_eq!(faults::stats().total_injected(), 0, "plan must never fire");
            faults::stats().total_hits() > 0
        }
    };
    trace::enable_attribution(false);
    faults::clear();
    (out, observed)
}

/// Compare piecewise for a readable failure.
fn assert_same(name: &str, got: &Outcome, want: &Outcome) {
    for (i, (a, b)) in want.accesses.iter().zip(&got.accesses).enumerate() {
        assert_eq!(a, b, "{name}: diverged at access {i}");
    }
    assert_eq!(got, want, "{name}");
}

/// `run(plane, by_default)` builds a pool and drives it. Reads agree
/// across the three modes; and with every read replaced by `touch`, the
/// pool's own `touch` in each mode leaves exactly what the trait default
/// leaves — which is what the reads left.
fn assert_modes_agree(name: &str, run: impl Fn(Plane, bool) -> Outcome) {
    let (plain, _) = under(Mode::Plain, || run(Plane::Read, false));
    assert!(
        plain.cache.hits > 1_000 && plain.cache.misses > 100,
        "{name}: {plain:?}"
    );
    let (reference, _) = under(Mode::Plain, || run(Plane::Touch, true));
    assert_same(
        &format!("{name}: default touch vs read"),
        &reference,
        &plain,
    );
    for mode in [Mode::Plain, Mode::Attribution, Mode::ArmedFaults] {
        for plane in [Plane::Read, Plane::Touch] {
            let (got, observed) = under(mode, || run(plane, false));
            assert!(observed, "{name}: {mode:?} saw nothing");
            assert_same(&format!("{name}: {mode:?} {plane:?}"), &got, &reference);
        }
    }
}

#[test]
fn dram_pool_lean_and_general_paths_agree() {
    assert_modes_agree("dram", |plane, by_default| {
        let mut bp = DramBp::new(FRAMES, CACHE_BYTES, store());
        bp.prewarm();
        let (bp, accesses, flushes) = drive_as(bp, plane, by_default);
        Outcome {
            accesses,
            flushes,
            bp_stats: format!("{:?}", bp.stats()),
            cache: bp.cache_stats(),
            link_bytes: vec![],
        }
    });
}

#[test]
fn tiered_pool_lean_and_general_paths_agree() {
    assert_modes_agree("tiered", |plane, by_default| {
        let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
        let mut bp = TieredRdmaBp::new(Rc::clone(&rdma), 0, 0, FRAMES, CACHE_BYTES, store());
        bp.prewarm();
        let (bp, accesses, flushes) = drive_as(bp, plane, by_default);
        assert!(bp.stats().remote_read_bytes > 0 && bp.stats().writebacks > 0);
        let nic = rdma.borrow().nic_bytes(0);
        Outcome {
            accesses,
            flushes,
            bp_stats: format!("{:?}", bp.stats()),
            cache: bp.cache_stats(),
            link_bytes: vec![nic],
        }
    });
}

/// A prewarmed CXL pool over its own single-node fabric.
fn cxl_pool(capture: bool) -> (SharedCxl, CxlBp) {
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        1 << 20,
        1,
        CACHE_BYTES,
        capture,
    )));
    let mut bp = CxlBp::format(Rc::clone(&cxl), NodeId(0), 0, FRAMES as u64, store());
    bp.prewarm();
    (cxl, bp)
}

fn cxl_outcome(
    cxl: &SharedCxl,
    bp: &CxlBp,
    accesses: Vec<Access>,
    flushes: Vec<SimTime>,
) -> Outcome {
    let pool = cxl.borrow();
    Outcome {
        accesses,
        flushes,
        bp_stats: format!("{:?}", bp.stats()),
        cache: pool.cache_stats(NodeId(0)),
        link_bytes: vec![pool.host_link_bytes(0), pool.switch_bytes()],
    }
}

#[test]
fn cxl_pool_lean_and_general_paths_agree() {
    assert_modes_agree("cxl", |plane, by_default| {
        let (cxl, bp) = cxl_pool(false);
        let (bp, accesses, flushes) = drive_as(bp, plane, by_default);
        cxl_outcome(&cxl, &bp, accesses, flushes)
    });
}

/// Poison one CXL read in every `every`, from the 50th on.
fn poison_plan(every: u64) -> FaultPlan {
    (0..60).fold(FaultPlan::default(), |plan, i| {
        plan.with(
            Trigger::SiteHit(FaultSite::CxlRead, 50 + i * every),
            Action::PoisonLine,
        )
    })
}

/// Drive a CXL pool under `plan` (installed fresh).
fn cxl_under_plan(plan: &FaultPlan, plane: Plane, by_default: bool) -> (Outcome, BpStats) {
    faults::clear();
    let (cxl, bp) = cxl_pool(false);
    faults::install(plan.clone());
    let (bp, accesses, flushes) = drive_as(bp, plane, by_default);
    faults::clear();
    (cxl_outcome(&cxl, &bp, accesses, flushes), bp.stats())
}

#[test]
fn cxl_touch_heals_poison_exactly_as_read_does() {
    // A plan that fires: poisoned reads of clean pages rebuild the block
    // from storage, of dirty pages retry in place — same counters, same
    // completion times, whichever plane tripped over the poison.
    let plan = poison_plan(37);
    let (read, stats) = cxl_under_plan(&plan, Plane::Read, false);
    assert!(
        stats.poison_rebuilds > 5 && stats.fault_retries > 5,
        "{stats:?}"
    );
    let (reference, _) = cxl_under_plan(&plan, Plane::Touch, true);
    assert_same("poison: default touch vs read", &reference, &read);
    let (touch, _) = cxl_under_plan(&plan, Plane::Touch, false);
    assert_same("poison: touch vs default", &touch, &reference);
}

#[test]
fn cxl_touch_fills_a_capture_cache_exactly_as_read_does() {
    // Over a capture-mode fabric a miss fills the line whether or not the
    // caller wants the bytes: the twin driven by `touch` ends with the
    // same cache, and reading every page back afterwards costs the same
    // and returns the same bytes as on the twin driven by `read`.
    let run = |plane| {
        let (cxl, bp) = cxl_pool(true);
        let (mut bp, accesses, flushes) = drive_as(bp, plane, false);
        let mut now = accesses.last().expect("ran").end;
        let mut pages = Vec::new();
        for p in 0..PAGES {
            let mut buf = vec![0u8; PAGE_SIZE];
            let a = bp.read(PageId(p), 0, &mut buf, now);
            now = a.end;
            pages.push((a, buf));
        }
        (cxl_outcome(&cxl, &bp, accesses, flushes), pages)
    };
    let (read, read_pages) = run(Plane::Read);
    let (touch, touch_pages) = run(Plane::Touch);
    assert!(read.cache.misses > 100, "{read:?}");
    assert_same("capture", &touch, &read);
    assert_eq!(touch_pages, read_pages);
}

#[test]
fn armed_fault_plan_sees_every_cxl_read_gate() {
    // Fault-site hit indices are part of the contract: with a plan armed
    // the lean path must stand aside so that each CXL read still polls
    // its gate. Hot single-line reads, all cache hits after the first.
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        1 << 20,
        1,
        CACHE_BYTES,
        false,
    )));
    let mut bp = CxlBp::format(Rc::clone(&cxl), NodeId(0), 0, FRAMES as u64, store());
    bp.prewarm();
    let mut buf = [0u8; 8];
    bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
    let (hits, _) = under(Mode::ArmedFaults, || {
        for _ in 0..100 {
            let a = bp.read(PageId(0), 0, &mut buf, SimTime::ZERO);
            assert_eq!((a.hits, a.misses), (1, 0));
        }
        faults::stats().hits[FaultSite::CxlRead as usize]
    });
    assert_eq!(hits, 100);
}

/// Everything simulated that a sharing-baseline run produced, and the
/// gate polls its charged transfers imply.
#[derive(Debug, PartialEq)]
struct SharingOutcome {
    ends: Vec<SimTime>,
    node_stats: String,
    nic_bytes: Vec<u64>,
    page_ins: u64,
    page_outs: u64,
}

/// Two nodes over one DBP, reads and write+publish statements under
/// LBP eviction pressure; `phased` runs the `*_resident` API on shards
/// with a barrier every 50 statements. Returns the outcome and the
/// `RdmaRead` / `RdmaWrite` gate polls an installed plan counted.
fn drive_sharing(phased: bool) -> (SharingOutcome, u64, u64) {
    const NODES: usize = 2;
    let rdma = Rc::new(RefCell::new(RdmaPool::new(
        PAGES as usize * PAGE_SIZE,
        NODES + 1,
    )));
    let store = Rc::new(RefCell::new(store()));
    let mut server = RdmaDbp::new(Rc::clone(&rdma), NODES, 0, PAGES as u32, store);
    let mut nodes: Vec<RdmaSharingNode> = (0..NODES)
        .map(|i| RdmaSharingNode::new(NodeId(i), i, FRAMES, PAGE_SIZE as u64))
        .collect();
    let mut ends = Vec::new();
    let mut now = SimTime::ZERO;
    for node in &mut nodes {
        for p in 0..PAGES {
            now = node.resolve(&mut server, PageId(p), now);
            ends.push(now);
        }
    }
    let dir = server.dir_snapshot();
    let mut shards: Vec<RdmaShard> = if phased {
        let mut pool = rdma.borrow_mut();
        (0..NODES).map(|i| pool.detach_host(i, NODES)).collect()
    } else {
        Vec::new()
    };
    let mut outbox = Vec::new();
    let mut rng = SimRng::seed_from_u64(0x5EA4);
    let mut buf = [0u8; 120];
    for step in 0..4_000usize {
        let i = step % NODES;
        let page = PageId(rng.gen_range(0..PAGES));
        let off = rng.gen_range(0..=PAGE_SIZE - buf.len()) as u64;
        now = match (phased, rng.gen_bool(0.4)) {
            (false, false) => nodes[i].read(&mut server, page, off, &mut buf, now),
            (false, true) => {
                let t = nodes[i].write(&mut server, page, off, &buf, now);
                let (targets, t) = nodes[i].publish(&mut server, page, t);
                for target in targets {
                    nodes[target.0].invalidate_local(page);
                }
                t
            }
            (true, false) => nodes[i].read_resident(&mut shards[i], page, off, &mut buf, now),
            (true, true) => {
                let t = nodes[i].write_resident(&mut shards[i], page, off, &buf, now);
                nodes[i].publish_resident(&mut shards[i], &dir, page, &mut outbox, t)
            }
        };
        ends.push(now);
        if phased && step % 50 == 49 {
            rdma.borrow_mut().barrier(&mut shards);
            for (target, page) in outbox.drain(..) {
                nodes[target.0].invalidate_local(page);
            }
        }
    }
    let mut pool = rdma.borrow_mut();
    for shard in shards {
        pool.attach_host(shard);
    }
    let stats: Vec<_> = nodes.iter().map(|n| n.stats()).collect();
    let outcome = SharingOutcome {
        ends,
        node_stats: format!("{stats:?}"),
        nic_bytes: (0..=NODES).map(|h| pool.nic_bytes(h)).collect(),
        page_ins: stats.iter().map(|s| s.page_reads).sum(),
        // The server's storage fills are page writes on its own NIC.
        page_outs: stats.iter().map(|s| s.page_writes).sum::<u64>() + server.stats().storage_fills,
    };
    let hits = faults::stats().hits;
    (
        outcome,
        hits[FaultSite::RdmaRead as usize],
        hits[FaultSite::RdmaWrite as usize],
    )
}

#[test]
fn rdma_sharing_node_is_blind_to_instrumentation_and_skips_no_gate() {
    for phased in [false, true] {
        let ((plain, ..), _) = under(Mode::Plain, || drive_sharing(phased));
        assert!(
            plain.page_ins > 500 && plain.page_outs > 500,
            "phased={phased}: {plain:?}"
        );
        // Whole pages on the wire for every page-in and write-back.
        let moved = (plain.page_ins + plain.page_outs) * PAGE_SIZE as u64;
        assert!(plain.nic_bytes.iter().sum::<u64>() >= moved);
        for mode in [Mode::Attribution, Mode::ArmedFaults] {
            let ((got, read_gates, write_gates), observed) = under(mode, || drive_sharing(phased));
            assert!(observed, "phased={phased}: {mode:?} saw nothing");
            for (i, (a, b)) in plain.ends.iter().zip(&got.ends).enumerate() {
                assert_eq!(a, b, "phased={phased}: {mode:?} diverged at statement {i}");
            }
            assert_eq!(got, plain, "phased={phased}: {mode:?}");
            if mode == Mode::ArmedFaults {
                assert_eq!(
                    (read_gates, write_gates),
                    (got.page_ins, got.page_outs),
                    "phased={phased}: a charged transfer skipped its gate"
                );
            }
        }
    }
}
