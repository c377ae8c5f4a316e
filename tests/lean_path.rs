//! The lean read path against the general path.
//!
//! A single-line read that hits the modelled CPU cache is served by a
//! short in-line path; everything else — and every read of an
//! instrumented or fault-armed run — takes the general path. The two
//! must be indistinguishable in every simulated value. For each pool ×
//! eviction policy one seeded op sequence runs three times:
//!
//! - **plain**: lean path wherever it applies;
//! - **attribution on**: the CXL pool routes every read through the
//!   general path, the DRAM-backed pools keep their in-line guards;
//! - **fault plan armed but never firing**: every gate counts its hit,
//!   so the CXL pool again takes the general path.
//!
//! and the `Access` sequences, `BpStats`, `CacheStats` and link bytes
//! must be identical across the three.

use polardb_cxl_repro::memsim::{Access, CacheStats};
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

/// The seeded op sequence: runs of field-sized reads on one page (a
/// B+tree node visit) with record-sized reads, writes and checkpoints
/// mixed in. Also checks every read against a byte oracle.
fn drive<P: BufferPool>(pool: &mut P) -> (Vec<Access>, Vec<SimTime>) {
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
                let mut buf = vec![0u8; len];
                let a = pool.read(PageId(page), off as u16, &mut buf, now);
                assert_eq!(buf, oracle[page as usize][off..off + len], "step {step}");
                a
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
        Mode::ArmedFaults => faults::install(FaultPlan::count_only()),
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

fn assert_modes_agree(name: &str, run: impl Fn() -> Outcome) {
    let (plain, _) = under(Mode::Plain, &run);
    assert!(
        plain.cache.hits > 1_000 && plain.cache.misses > 100,
        "{name}: {plain:?}"
    );
    for mode in [Mode::Attribution, Mode::ArmedFaults] {
        let (got, observed) = under(mode, &run);
        assert!(observed, "{name}: {mode:?} saw nothing");
        // Compare piecewise for a readable failure.
        for (i, (a, b)) in plain.accesses.iter().zip(&got.accesses).enumerate() {
            assert_eq!(a, b, "{name}: {mode:?} diverged at access {i}");
        }
        assert_eq!(got, plain, "{name}: {mode:?}");
    }
}

#[test]
fn dram_pool_lean_and_general_paths_agree() {
    for policy in PolicyKind::ALL {
        assert_modes_agree(&format!("dram/{}", policy.name()), || {
            let mut bp = DramBp::with_policy(FRAMES, CACHE_BYTES, store(), policy);
            bp.prewarm();
            let (accesses, flushes) = drive(&mut bp);
            Outcome {
                accesses,
                flushes,
                bp_stats: format!("{:?}", bp.stats()),
                cache: bp.cache_stats(),
                link_bytes: vec![],
            }
        });
    }
}

#[test]
fn tiered_pool_lean_and_general_paths_agree() {
    for policy in PolicyKind::ALL {
        assert_modes_agree(&format!("tiered/{}", policy.name()), || {
            let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 1)));
            let mut bp = TieredRdmaBp::with_policy(
                Rc::clone(&rdma),
                0,
                0,
                FRAMES,
                CACHE_BYTES,
                store(),
                policy,
            );
            bp.prewarm();
            let (accesses, flushes) = drive(&mut bp);
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
}

#[test]
fn cxl_pool_lean_and_general_paths_agree() {
    for policy in PolicyKind::ALL {
        assert_modes_agree(&format!("cxl/{}", policy.name()), || {
            let cxl = Rc::new(RefCell::new(CxlPool::single_host(
                1 << 20,
                1,
                CACHE_BYTES,
                false,
            )));
            let mut bp = CxlBp::format_with_policy(
                Rc::clone(&cxl),
                NodeId(0),
                0,
                FRAMES as u64,
                store(),
                policy,
            );
            bp.prewarm();
            let (accesses, flushes) = drive(&mut bp);
            let pool = cxl.borrow();
            Outcome {
                accesses,
                flushes,
                bp_stats: format!("{:?}", bp.stats()),
                cache: pool.cache_stats(NodeId(0)),
                link_bytes: vec![pool.host_link_bytes(0), pool.switch_bytes()],
            }
        });
    }
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
