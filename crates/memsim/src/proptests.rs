//! Randomized-model tests over the memory substrate.
//!
//! The simulator's value rests on two invariants: (1) data moved through
//! any access-path combination is byte-identical to a plain memory model
//! (single writer), and (2) timed resources conserve capacity. Both are
//! checked here against reference models under seeded random operation
//! sequences (the deterministic, dependency-free stand-in for the
//! original proptest suite).

#![cfg(test)]

use crate::{CxlPool, NodeId};
use simkit::rng::SimRng;
use simkit::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Read { off: u64, len: usize },
    Write { off: u64, len: usize, fill: u8 },
    WriteUncached { off: u64, len: usize, fill: u8 },
    Clflush { off: u64, len: usize },
    Invalidate { off: u64, len: usize },
    Crash,
}

const SPACE: u64 = 4096;

fn random_op(rng: &mut SimRng) -> Op {
    let off = rng.gen_range(0u64..SPACE - 256);
    let len = rng.gen_range(1usize..256);
    match rng.gen_range(0u32..6) {
        0 => Op::Read { off, len },
        1 => Op::Write {
            off,
            len,
            fill: rng.gen(),
        },
        2 => Op::WriteUncached {
            off,
            len,
            fill: rng.gen(),
        },
        3 => Op::Clflush { off, len },
        4 => Op::Invalidate { off, len },
        _ => Op::Crash,
    }
}

/// A single node's view through the cached/uncached/flush paths is
/// always coherent with a flat byte-array model — *except* across a
/// crash, where unflushed cached writes may be lost (we model that
/// by flushing the model state only when the simulated bytes are
/// durable; after a crash we resynchronize the model from the
/// device, which must itself be a prefix-consistent image).
#[test]
fn single_node_cached_view_matches_model() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed_from_u64(0x11EE_0000 + case);
        let n_ops = rng.gen_range(1usize..120);
        // Tiny cache: maximal eviction/writeback churn.
        let mut pool = CxlPool::single_host(SPACE as usize, 1, 512, true);
        let mut model = vec![0u8; SPACE as usize];
        let n = NodeId(0);
        let t = SimTime::ZERO;
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                Op::Read { off, len } => {
                    let mut buf = vec![0u8; len];
                    pool.read(n, off, &mut buf, t);
                    assert_eq!(
                        &buf[..],
                        &model[off as usize..off as usize + len],
                        "case {case}: cached read diverged at {off}"
                    );
                }
                Op::Write { off, len, fill } => {
                    pool.write(n, off, &vec![fill; len], t);
                    model[off as usize..off as usize + len].fill(fill);
                }
                Op::WriteUncached { off, len, fill } => {
                    pool.write_uncached(n, off, &vec![fill; len], t);
                    model[off as usize..off as usize + len].fill(fill);
                }
                Op::Clflush { off, len } => {
                    pool.clflush(n, off, len, t);
                }
                Op::Invalidate { off, len } => {
                    // Only safe on clean data in real protocols; here we
                    // first flush so no writes are lost, then invalidate.
                    pool.clflush(n, off, len, t);
                    pool.invalidate(n, off, len, t);
                }
                Op::Crash => {
                    // Dirty cached lines die. Re-sync the model to the
                    // device image: every byte must match either the
                    // last flushed value — since we can't track that per
                    // byte here, adopt the device as truth (the recovery
                    // layers above handle semantic repair).
                    pool.crash_node(n);
                    model.copy_from_slice(pool.raw().slice(0, SPACE as usize));
                }
            }
        }
        // Final flush: afterwards the device equals the model exactly.
        pool.clflush(n, 0, SPACE as usize, t);
        assert_eq!(
            pool.raw().slice(0, SPACE as usize),
            &model[..],
            "case {case}"
        );
    }
}

/// The capture cache's resident bitmap tracks its tags through every
/// path the pool drives a cache: cached fills with clean and dirty
/// evictions, `clflush`, uncached loads and stores, coherent stores,
/// invalidations and crashes. After each operation a line's bit is set
/// exactly when its tag holds it; each `invalidate` leaves the cache —
/// tags, stats, copies, free-list order — that per-line `invalidate`
/// calls and the plain tag scan leave.
#[test]
fn capture_resident_bits_track_tags() {
    use crate::cache::line_range;
    const REGION: u64 = 4 * SPACE; // 256 lines over a 32-set cache
    let (mut dropped, mut writebacks, mut crashes) = (0, 0, 0);
    for case in 0..24u64 {
        let mut rng = SimRng::seed_from_u64(0xB17_0000 + case);
        let mut pool = CxlPool::single_host(REGION as usize, 2, 2048, true);
        let t = SimTime::ZERO;
        for step in 0..300 {
            let n = NodeId(rng.gen_range(0..2usize));
            let off = rng.gen_range(0..REGION - 512);
            let len = rng.gen_range(0..512usize);
            let fill = vec![rng.gen::<u8>(); len];
            match rng.gen_range(0..100u32) {
                0..=29 => {
                    pool.read(n, off, &mut vec![0; len], t);
                }
                30..=54 => {
                    pool.write(n, off, &fill, t);
                }
                55..=61 => {
                    pool.read_uncached(n, off, &mut vec![0; len], t);
                }
                62..=68 => {
                    pool.write_uncached(n, off, &fill, t);
                }
                69..=75 => {
                    pool.write_coherent(n, off, &fill, t);
                }
                76..=83 => {
                    pool.clflush(n, off, len, t);
                }
                84..=98 => {
                    let before = pool.node_cache(n).clone();
                    let (mut per_line, mut scanned) = (before.clone(), before.clone());
                    for line in line_range(off, len) {
                        per_line.invalidate(line);
                    }
                    scanned.invalidate_scan(line_range(off, len));
                    pool.invalidate(n, off, len, t);
                    let after = pool.node_cache(n);
                    after.assert_same(&per_line);
                    after.assert_same(&scanned);
                    dropped += after.stats().invalidations - before.stats().invalidations;
                }
                _ => {
                    pool.crash_node(n);
                    crashes += 1;
                }
            }
            for node in [NodeId(0), NodeId(1)] {
                pool.node_cache(node).assert_resident_matches_tags();
            }
            if step == 299 {
                writebacks += pool.cache_stats(NodeId(0)).writebacks;
            }
        }
    }
    // Every path ran: invalidations dropped lines, fills evicted dirty
    // lines, hosts crashed.
    assert!(dropped > 100 && writebacks > 100 && crashes > 10);
}

/// Links conserve capacity: after any request sequence, the last
/// pipe-completion time is at least total_occupancy, and no grant
/// completes before its own request + service.
#[test]
fn links_conserve_capacity() {
    use simkit::Link;
    for case in 0..100u64 {
        let mut rng = SimRng::seed_from_u64(0x11EE_1000 + case);
        let n_reqs = rng.gen_range(1usize..100);
        let mut link = Link::new("test", 1.0); // 1 byte/ns
        let mut total = 0u64;
        let mut max_end = 0u64;
        for _ in 0..n_reqs {
            let now = rng.gen_range(0u64..1_000_000);
            let bytes = rng.gen_range(1u64..100_000);
            let g = link.transfer(SimTime(now), bytes);
            assert!(
                g.end.as_nanos() >= now + bytes,
                "grant can't beat its own service"
            );
            total += bytes;
            max_end = max_end.max(g.end.as_nanos());
        }
        assert!(
            max_end >= total,
            "capacity conservation: {max_end} < {total}"
        );
    }
}

/// MultiServer conserves capacity: k servers cannot complete more
/// than k * horizon worth of service by any horizon.
#[test]
fn multiserver_conserves_capacity() {
    use simkit::MultiServer;
    for case in 0..100u64 {
        let mut rng = SimRng::seed_from_u64(0x11EE_2000 + case);
        let n_reqs = rng.gen_range(1usize..200);
        let k = 4u64;
        let mut cpu = MultiServer::new(k as usize);
        let mut total = 0u64;
        let mut max_end = 0u64;
        for _ in 0..n_reqs {
            let now = rng.gen_range(0u64..100_000);
            let service = rng.gen_range(1u64..10_000);
            let g = cpu.acquire(SimTime(now), service);
            assert!(g.end.as_nanos() >= now + service);
            total += service;
            max_end = max_end.max(g.end.as_nanos());
        }
        assert!(
            max_end * k >= total,
            "{k} servers finished {total} by {max_end}"
        );
    }
}

/// The copy-on-write window of [`crate::Region`] (private there).
const WINDOW: usize = 256 << 10;

/// A copy's source/destination/length: each class is a shape the
/// mapping treats differently.
fn random_copy(rng: &mut SimRng, size: usize) -> (usize, usize, usize) {
    loop {
        let (src, dst, len) = match rng.gen_range(0u32..5) {
            // Window-aligned: every covered window maps, no edges.
            0 => {
                let len = rng.gen_range(1usize..=3) * WINDOW;
                let src = rng.gen_range(0..size / WINDOW) * WINDOW;
                (src, rng.gen_range(0..size / WINDOW) * WINDOW, len)
            }
            // The pooling harness's lease delta: 4 224 mod 16 KB.
            1 => {
                let len = rng.gen_range(WINDOW..3 * WINDOW);
                let src = rng.gen_range(0..size / 64) * 64;
                let delta = len + rng.gen_range(0usize..4) * (16 << 10) + 4_224;
                match rng.gen_bool(0.5) {
                    true => (src, src + delta, len),
                    false => (src, src.wrapping_sub(delta), len),
                }
            }
            // One line away: a copy that is all edge.
            2 => {
                let len = rng.gen_range(1usize..=64);
                let src = rng.gen_range(64..size - 128);
                (src, src + 64, len)
            }
            // A whole number of windows plus one line away, either way:
            // a mapped window reads one line of its second source window.
            3 => {
                let len = rng.gen_range(WINDOW..2 * WINDOW);
                let src = rng.gen_range(0..size);
                match rng.gen_bool(0.5) {
                    true => (src, src + 2 * WINDOW + 64, len),
                    false => (src, src.wrapping_sub(2 * WINDOW + 64), len),
                }
            }
            // Anywhere, shorter than a window: edges only.
            _ => {
                let len = rng.gen_range(1usize..WINDOW);
                (rng.gen_range(0..size), rng.gen_range(0..size), len)
            }
        };
        let fits = |at: usize| at.checked_add(len).is_some_and(|end| end <= size);
        if fits(src) && fits(dst) && (src + len <= dst || dst + len <= src) {
            return (src, dst, len);
        }
    }
}

/// A range inside one window: a 64-byte line, a 16 KB page or anything
/// up to the window's end — the ranges `slice` promises to borrow.
fn within_one_window(rng: &mut SimRng, size: usize) -> (usize, usize) {
    match rng.gen_range(0u32..3) {
        0 => (rng.gen_range(0..size / 64) * 64, 64),
        1 => (rng.gen_range(0..size / (16 << 10)) * (16 << 10), 16 << 10),
        _ => {
            let off = rng.gen_range(0..size);
            let room = (WINDOW - off % WINDOW).min(size - off);
            (off, rng.gen_range(1..=room))
        }
    }
}

/// `Region`'s mapped copies read and write as a flat byte array does,
/// under every operation, on volatile and persistent regions, with every
/// shape of copy. The bytes are compared after every operation.
#[test]
fn region_matches_a_flat_model() {
    use crate::Region;
    // Ten whole windows and a ragged one.
    const SIZE: usize = 10 * WINDOW + 12_345;
    let mut mapped_seen = 0;
    for case in 0..16u64 {
        let mut rng = SimRng::seed_from_u64(0x11EE_3000 + case);
        let persistent = case % 2 == 0;
        let mut region = match persistent {
            true => Region::persistent(SIZE),
            false => Region::volatile(SIZE),
        };
        let mut model = vec![0u8; SIZE];
        let mut copies = 0;
        let mut all = vec![0u8; SIZE];
        for step in 0..120 {
            // Half the ranges start within 128 bytes of a window edge, and
            // half are at most 256 bytes long: a mapped window may read as
            // little as one line of a source window.
            let off = match rng.gen_bool(0.5) {
                true => rng.gen_range(0..SIZE),
                false => (rng.gen_range(1..=SIZE / WINDOW) * WINDOW - 128) + rng.gen_range(0..256),
            };
            let longest = if rng.gen_bool(0.5) { 256 } else { 2 * WINDOW };
            let len = rng.gen_range(0..=longest.min(SIZE - off));
            let fill: u64 = rng.gen();
            let pattern = |n: usize| {
                let mut p = vec![0u8; n];
                p.chunks_mut(8).enumerate().for_each(|(i, c)| {
                    c.copy_from_slice(&fill.wrapping_add(i as u64).to_le_bytes()[..c.len()]);
                });
                p
            };
            match rng.gen_range(0u32..16) {
                0..=2 => {
                    let mut buf = vec![0u8; len];
                    region.read(off as u64, &mut buf);
                    assert!(
                        buf == model[off..off + len],
                        "case {case} step {step}: read"
                    );
                }
                3..=5 => {
                    let data = pattern(len);
                    region.write(off as u64, &data);
                    model[off..off + len].copy_from_slice(&data);
                }
                6 => {
                    region.zero(off as u64, len);
                    model[off..off + len].fill(0);
                }
                7 => {
                    let (off, len) = within_one_window(&mut rng, SIZE);
                    let got = region.slice(off as u64, len);
                    assert!(
                        got == &model[off..off + len],
                        "case {case} step {step}: slice"
                    );
                }
                8 => {
                    let (off, len) = within_one_window(&mut rng, SIZE);
                    let data = pattern(len);
                    region.slice_mut(off as u64, len).copy_from_slice(&data);
                    model[off..off + len].copy_from_slice(&data);
                }
                9 => {
                    region.crash();
                    if !persistent {
                        model.fill(0xDE);
                        assert_eq!(region.owned_bytes(), SIZE, "a wiped region maps nothing");
                    }
                }
                _ => {
                    let (src, dst, len) = random_copy(&mut rng, SIZE);
                    region.copy_disjoint(src as u64, dst as u64, len);
                    model.copy_within(src..src + len, dst);
                    copies += 1;
                }
            }
            region.read(0, &mut all);
            assert!(all == model, "case {case} step {step}: bytes diverged");
            mapped_seen += (region.owned_bytes() < SIZE) as u32;
        }
        assert!(copies > 0, "case {case} made no copy");
    }
    assert!(
        mapped_seen > 100,
        "copies mapped windows in {mapped_seen} steps only"
    );
}

/// One source copied to seven destinations at the harness's lease
/// stride: all seven stay mapped, reading them maps nothing back, and a
/// new copy of a source that already has readers leaves those readers
/// mapped.
#[test]
fn one_source_seven_copies_stay_mapped() {
    use crate::Region;
    // A lease of three whole windows and some, 4 224 mod 16 KB apart.
    const LEASE: usize = 3 * WINDOW + 10_000;
    const STRIDE: usize = LEASE + 4_224 + 3 * (16 << 10);
    let mut region = Region::persistent(8 * STRIDE);
    let source: Vec<u8> = (0..LEASE).map(|i| (i % 251) as u8).collect();
    region.write(0, &source);
    let covered = |base: usize| (base + LEASE) / WINDOW - base.div_ceil(WINDOW);
    let mut mapped = 0;
    for i in 1..8 {
        region.copy_disjoint(0, (i * STRIDE) as u64, LEASE);
        mapped += covered(i * STRIDE);
        assert_eq!(
            region.owned_bytes(),
            8 * STRIDE - mapped * WINDOW,
            "copy {i}"
        );
    }
    assert!(mapped >= 7 * 2, "every copy maps whole windows");
    for i in 1..8 {
        let mut lease = vec![0u8; LEASE];
        region.read((i * STRIDE) as u64, &mut lease);
        assert!(lease == source, "copy {i} reads as the source");
    }
    assert_eq!(region.owned_bytes(), 8 * STRIDE - mapped * WINDOW);
}
