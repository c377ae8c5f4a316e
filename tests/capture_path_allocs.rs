//! Allocation gate for the capture-mode CXL shard path.
//!
//! A capture-mode cache keeps a copy of every line it holds, and a shard
//! logs every store of its quantum. Both reuse their storage: once the
//! cache's line slab and the write log have grown to the working set, a
//! statement — fill, evict, write back, flush, invalidate, flag access —
//! and the barrier that ends its quantum allocate nothing. The count is
//! per thread and exact, so it gates without a timing in sight.

use polardb_cxl_repro::memsim::{CxlFabric, CxlPool, CxlShard, NodeId};
use polardb_cxl_repro::simkit::profile::{alloc_count, CountingAlloc};
use polardb_cxl_repro::simkit::rng::SimRng;
use polardb_cxl_repro::simkit::SimTime;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const POOL_BYTES: u64 = 1 << 20;
/// 256 sets under 16 384 lines: evictions and dirty write-backs throughout.
const CACHE_BYTES: usize = 16 << 10;
const PAGE: u64 = 4096;
const N0: NodeId = NodeId(0);

/// `calls` seeded operations of every kind a sharing statement issues.
fn traffic(shard: &mut CxlShard, rng: &mut SimRng, calls: usize) {
    let mut buf = [0u8; 320];
    let mut now = SimTime::ZERO;
    for _ in 0..calls {
        let len = rng.gen_range(1..=buf.len());
        let off = rng.gen_range(0..POOL_BYTES - PAGE);
        let flag = off & !7;
        now = match rng.gen_range(0..100u32) {
            0..=34 => shard.read(N0, off, &mut buf[..len], now),
            35..=59 => {
                buf[..len].fill(rng.gen());
                shard.write(N0, off, &buf[..len], now)
            }
            60..=69 => shard.clflush(N0, off, 4 * len, now),
            70..=79 => shard.read_uncached(N0, flag, &mut buf[..8], now),
            80..=89 => shard.write_uncached(N0, flag, &[rng.gen(); 8], now),
            _ => shard.invalidate(N0, off & !(PAGE - 1), PAGE as usize, now),
        }
        .end;
    }
}

#[test]
fn warmed_capture_shard_allocates_nothing() {
    let mut pool = CxlPool::single_host(POOL_BYTES as usize, 2, CACHE_BYTES, true);
    // Warm the cache serially: a copy in every set, all of them dropped,
    // then all of them back, so the slab and its free list are both at
    // the size they can never exceed.
    let mut page = vec![0u8; CACHE_BYTES];
    pool.read(N0, 0, &mut page, SimTime::ZERO);
    pool.invalidate(N0, 0, CACHE_BYTES, SimTime::ZERO);
    pool.read(N0, 0, &mut page, SimTime::ZERO);

    let mut shards = [pool.detach_node(N0)];
    let mut rng = SimRng::seed_from_u64(0xA110C);
    // One double-length quantum sizes the write log.
    traffic(&mut shards[0], &mut rng, 10_000);
    pool.barrier(&mut shards);

    let before = alloc_count();
    for _ in 0..2 {
        traffic(&mut shards[0], &mut rng, 5_000);
        pool.barrier(&mut shards);
    }
    assert_eq!(
        alloc_count() - before,
        0,
        "the warmed capture path allocated"
    );
    let stats = shards[0].cache_stats();
    assert!(stats.writebacks > 1_000 && stats.flushes > 100 && stats.invalidations > 1_000);
}
