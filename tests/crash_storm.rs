//! Failure injection: repeated crash/recover cycles on a CXL-resident
//! database under a randomized workload, verifying contents against a
//! model after every recovery. This is the strongest end-to-end check
//! of PolarRecv's correctness: any page wrongly trusted, wrongly
//! rebuilt, or lost by the durable-metadata protocol shows up as a
//! content mismatch.

use polardb_cxl_repro::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const REC: u16 = 120;
const KEYS: u64 = 300;

fn build() -> Db<CxlBp> {
    let store = PageStore::with_page_size(512, 2048);
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        4 << 20,
        1,
        1 << 20,
        false,
    )));
    let mut db = Db::create(CxlBp::format(cxl, NodeId(0), 0, 512, store), REC);
    db.load((1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize])));
    db
}

#[test]
fn five_crashes_cannot_corrupt_committed_state() {
    let mut db = build();
    let mut model: BTreeMap<u64, Vec<u8>> = (1..=KEYS)
        .map(|k| (k, vec![(k % 250) as u8; REC as usize]))
        .collect();
    let mut rng = SimRng::seed_from_u64(99);
    let mut now = SimTime::ZERO;
    let mut next_key = KEYS + 1;

    for round in 0..5 {
        // A burst of committed work.
        for _ in 0..120 {
            match rng.gen_range(0..4) {
                0 => {
                    let k = rng.gen_range(1..next_key);
                    let v = [rng.gen::<u8>(); 24];
                    let (found, t) = db.update(k, 16, &v, now);
                    now = t;
                    if found {
                        model.get_mut(&k).unwrap()[16..40].copy_from_slice(&v);
                    } else {
                        assert!(!model.contains_key(&k));
                    }
                }
                1 => {
                    let rec = vec![rng.gen::<u8>(); REC as usize];
                    let (ins, t) = db.insert(next_key, &rec, now);
                    now = t;
                    assert!(ins);
                    model.insert(next_key, rec);
                    next_key += 1;
                }
                2 => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.delete(k, now);
                    now = t;
                    assert_eq!(found, model.remove(&k).is_some());
                }
                _ => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.point_select(k, now);
                    now = t;
                    assert_eq!(found, model.contains_key(&k), "key {k}");
                }
            }
        }
        // Occasionally checkpoint so replay floors vary across rounds.
        if round % 2 == 1 {
            now = db.checkpoint(now);
        }
        // Crash + PolarRecv.
        db.crash();
        let report = recover_polar(&mut db, now);
        now = report.done;
        // Full content verification.
        for (k, v) in &model {
            let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
            assert_eq!(got.as_ref(), Some(v), "round {round}, key {k}");
        }
        assert_eq!(
            db.table.check_invariants(&mut db.pool),
            model.len() as u64,
            "round {round} row count"
        );
    }
}

#[test]
fn five_crashes_on_tiered_rdma_cannot_corrupt_committed_state() {
    // Same storm against the RDMA-baseline design: local frames die with
    // the host, remote memory survives, and ARIES replay (served from
    // remote where resident) must restore exactly the committed state.
    let store = PageStore::with_page_size(512, 2048);
    let rdma = Rc::new(RefCell::new(RdmaPool::new(512 * 2048, 1)));
    const LBP_FRAMES: usize = 24;
    let mut db = Db::create(
        TieredRdmaBp::new(rdma, 0, 0, LBP_FRAMES, 1 << 20, store),
        REC,
    );
    db.load((1..=KEYS).map(|k| (k, vec![(k % 250) as u8; REC as usize])));
    let mut model: BTreeMap<u64, Vec<u8>> = (1..=KEYS)
        .map(|k| (k, vec![(k % 250) as u8; REC as usize]))
        .collect();
    let mut rng = SimRng::seed_from_u64(77);
    let mut now = SimTime::ZERO;
    let mut next_key = KEYS + 1;

    for round in 0..5 {
        for _ in 0..120 {
            match rng.gen_range(0..4) {
                0 => {
                    let k = rng.gen_range(1..next_key);
                    let v = [rng.gen::<u8>(); 24];
                    let (found, t) = db.update(k, 16, &v, now);
                    now = t;
                    if found {
                        model.get_mut(&k).unwrap()[16..40].copy_from_slice(&v);
                    } else {
                        assert!(!model.contains_key(&k));
                    }
                }
                1 => {
                    let rec = vec![rng.gen::<u8>(); REC as usize];
                    let (ins, t) = db.insert(next_key, &rec, now);
                    now = t;
                    assert!(ins);
                    model.insert(next_key, rec);
                    next_key += 1;
                }
                2 => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.delete(k, now);
                    now = t;
                    assert_eq!(found, model.remove(&k).is_some());
                }
                _ => {
                    let k = rng.gen_range(1..next_key);
                    let (found, t) = db.point_select(k, now);
                    now = t;
                    assert_eq!(found, model.contains_key(&k), "key {k}");
                }
            }
        }
        if round % 2 == 1 {
            now = db.checkpoint(now);
        }
        // Land the crash while most LBP frames read at least one line in
        // place from remote memory: frames the write burst above filled
        // from storage hold only their own lines, so sweep clean leaves
        // in with point selects first.
        for k in (1..next_key).step_by(2) {
            now = db.point_select(k, now).1;
        }
        assert!(
            db.pool.aliased_frames() * 2 > LBP_FRAMES,
            "round {round}: only {} of {LBP_FRAMES} frames aliased at the crash",
            db.pool.aliased_frames()
        );
        db.crash();
        assert_eq!(db.pool.aliased_frames(), 0);
        let report = recover_replay(&mut db, "rdma-based", now);
        now = report.done;
        for (k, v) in &model {
            let (got, _) = db.table.get(&mut db.pool, *k, SimTime::ZERO);
            assert_eq!(got.as_ref(), Some(v), "round {round}, key {k}");
        }
        // No post-crash read may see the wiped local tier (0xDE fill):
        // every page's header comes from remote memory or storage.
        for p in 0..db.pool.store().allocated_pages() {
            let mut header = [0u8; 16];
            db.pool.read(PageId(p), 0, &mut header, SimTime::ZERO);
            assert_ne!(header, [0xDE; 16], "round {round}, page {p} reads as wiped");
        }
        assert_eq!(
            db.table.check_invariants(&mut db.pool),
            model.len() as u64,
            "round {round} row count"
        );
    }
}

#[test]
fn recovery_after_torn_latch_rebuilds_from_redo() {
    // Simulate dying inside a write-latch window: the page must be
    // rebuilt from storage + durable redo even though its CXL bytes
    // contain the half-applied update.
    let mut db = build();
    let t = db.update(7, 0, &[0x31; 8], SimTime::ZERO).1; // committed
                                                          // Start an update but "die" before unlatch: write data + latch
                                                          // without ever flushing or clearing the latch.
    use polardb_cxl_repro::bufferpool::BufferPool;
    let t2 = db.pool.set_latch(PageId(0), true, t); // any page: use the real one below
    let _ = t2;
    // Find the page holding key 7 by writing through the engine-level
    // API but skipping the unlatch: emulate via raw latch + direct write.
    let (_, t3) = db
        .table
        .update_field(&mut db.pool, &mut db.wal, 7, 0, &[0x32; 8], t);
    // The mtr committed (latch cleared) but its redo is NOT durable —
    // PolarRecv must detect the too-new page via the LSN check.
    db.crash();
    let report = recover_polar(&mut db, t3);
    assert!(report.pages_rebuilt >= 1, "too-new page must be rebuilt");
    let (got, _) = db.table.get(&mut db.pool, 7, SimTime::ZERO);
    assert_eq!(
        &got.unwrap()[0..8],
        &[0x31; 8],
        "only durable state survives"
    );
}

// ---------------------------------------------------------------------------
// Fusion-cluster storm: rotating node deaths with reincarnation.
// ---------------------------------------------------------------------------

const FS_NODES: usize = 3;
const FS_PPG: u64 = 6; // pages per group: one private group per node + shared
const FS_PAGES: u64 = (FS_NODES as u64 + 1) * FS_PPG;
const FS_PAGE: u64 = 2048;

fn fs_ppage(node: usize, i: u64) -> PageId {
    PageId(node as u64 * FS_PPG + i)
}
fn fs_spage(i: u64) -> PageId {
    PageId(FS_NODES as u64 * FS_PPG + i)
}
fn fs_flag_base(node: usize) -> u64 {
    FS_PAGES * FS_PAGE + node as u64 * FS_PAGES * 16
}
fn fs_epoch_base() -> u64 {
    FS_PAGES * FS_PAGE + FS_NODES as u64 * FS_PAGES * 16
}

/// One seeded statement on a live node: 60% guarded write+publish, else
/// a read verified against the oracle on the spot.
fn fs_op(
    rng: &mut SimRng,
    nodes: &mut [SharingNode],
    server: &mut FusionServer,
    model: &mut BTreeMap<(PageId, u64), u8>,
    t: SimTime,
) -> SimTime {
    let node = rng.gen_range(0..FS_NODES as u32) as usize;
    let page = if rng.gen_range(0..100u32) < 30 {
        fs_spage(rng.gen_range(0..FS_PPG))
    } else {
        fs_ppage(node, rng.gen_range(0..FS_PPG))
    };
    let off = 64 + rng.gen_range(0..8u64) * 64;
    if rng.gen_range(0..100u32) < 60 {
        let val = rng.gen_range(1..=250u32) as u8;
        let t2 = nodes[node]
            .guarded_write(server, page, off, &[val; 32], t)
            .expect("live node writes");
        let t3 = nodes[node]
            .guarded_publish(server, page, t2)
            .expect("live node publishes");
        model.insert((page, off), val);
        t3
    } else {
        let mut buf = [0u8; 32];
        let t2 = nodes[node].read(server, page, off, &mut buf, t);
        let want = *model.get(&(page, off)).unwrap_or(&0);
        assert_eq!(buf, [want; 32], "node {node} read-your-cluster-writes");
        t2
    }
}

/// Standby takeover racing the reclaimer: a standby adopts the dead
/// node's page range in chunks while `reclaim_node` lands at a seeded
/// position in the interleaving. A page adopted *before* the reclaim is
/// pinned by the standby (slot transfers, never recycled); a page the
/// reclaimer reaches first is recycled exactly once and the late adopt
/// simply skips it. Whatever the interleaving, slots are conserved,
/// nothing double-recycles, and every surviving page still serves the
/// dead node's published bytes.
#[test]
fn adopt_range_vs_reclaim_interleaving_never_double_recycles() {
    use polardb_cxl_repro::memsim::CxlNodeConfig;
    use std::collections::BTreeSet;

    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(0xAD07 + case);
        let pool = fs_epoch_base() + 4096;
        let cfgs: Vec<CxlNodeConfig> = (0..FS_NODES + 1)
            .map(|host| CxlNodeConfig {
                host,
                cache_bytes: 1 << 20,
                capture: true,
                remote_numa: false,
                direct_attach: false,
            })
            .collect();
        let cxl = Rc::new(RefCell::new(CxlPool::new(pool as usize, &cfgs)));
        let mut store = PageStore::with_page_size(FS_PAGES, FS_PAGE);
        for _ in 0..FS_PAGES {
            store.allocate();
        }
        let store = Rc::new(RefCell::new(store));
        let mut server =
            FusionServer::new(Rc::clone(&cxl), NodeId(FS_NODES), 0, FS_PAGES as u32, store);
        let mut nodes: Vec<SharingNode> = (0..FS_NODES)
            .map(|i| {
                server.register_node(NodeId(i), fs_flag_base(i));
                SharingNode::new(NodeId(i), fs_flag_base(i), FS_PAGE)
            })
            .collect();

        // The doomed primary (node 0) publishes a value into each of its
        // private pages; a seeded prefix is also read by node 1, so
        // those slots are co-pinned and must survive any interleaving.
        let mut t = SimTime::ZERO;
        for p in 0..FS_PPG {
            let page = fs_ppage(0, p);
            let t2 = nodes[0].write(&mut server, page, 64, &[p as u8 + 1; 32], t);
            t = nodes[0].publish(&mut server, page, t2);
        }
        let pre_shared = rng.gen_range(0..=FS_PPG / 2);
        for p in 0..pre_shared {
            let mut buf = [0u8; 32];
            t = nodes[1].read(&mut server, fs_ppage(0, p), 64, &mut buf, t);
        }

        // Node 0 dies. The standby (node 2) adopts its range in seeded
        // chunks, with the reclaimer interleaved at a seeded position.
        cxl.borrow_mut().crash_node(NodeId(0));
        let mut chunks: Vec<(u64, u64)> = Vec::new();
        let mut at = 0u64;
        while at < FS_PPG {
            let len = (1 + rng.gen_range(0..3u64)).min(FS_PPG - at);
            chunks.push((at, len));
            at += len;
        }
        let reclaim_at = rng.gen_range(0..=chunks.len() as u64) as usize;
        let mut adopted_before: BTreeSet<u64> = BTreeSet::new();
        let mut reclaimed = false;
        for (k, &(from, len)) in chunks.iter().enumerate() {
            if k == reclaim_at {
                t = server.reclaim_node(NodeId(0), t);
                reclaimed = true;
            }
            let (_, t2) = nodes[2].adopt(&mut server, fs_ppage(0, from), len, t);
            t = t2;
            if !reclaimed {
                adopted_before.extend(from..from + len);
            }
        }
        if !reclaimed {
            t = server.reclaim_node(NodeId(0), t);
        }

        // Exactly the sole-active pages the reclaimer reached first are
        // recycled — once. Everything else is pinned (co-tenant or
        // standby) and conserved.
        let expect_recycled = (pre_shared..FS_PPG)
            .filter(|p| !adopted_before.contains(p))
            .count();
        let stats = server.stats();
        assert_eq!(
            stats.reclaimed_slots as usize, expect_recycled,
            "case {case}: pre_shared {pre_shared}, adopted_before {adopted_before:?}"
        );
        assert_eq!(
            stats.reclaimed_flags, FS_PPG,
            "case {case}: the dead node was active on its whole group"
        );
        assert_eq!(
            server.pages_in_use() + server.free_slots(),
            FS_PAGES as usize,
            "case {case}: DBP slot conservation"
        );

        // Surviving pages still serve the dead node's published bytes
        // through the standby; recycled ones refill from storage (zeros)
        // — proof the slot really was freed, not aliased.
        for p in 0..FS_PPG {
            let survives = p < pre_shared || adopted_before.contains(&p);
            let mut buf = [0u8; 32];
            t = nodes[2].read(&mut server, fs_ppage(0, p), 64, &mut buf, t);
            let want = if survives {
                [p as u8 + 1; 32]
            } else {
                [0u8; 32]
            };
            assert_eq!(buf, want, "case {case}: page {p} (survives={survives})");
        }

        // A second reclaim of the same dead node is a no-op: its active
        // entries are gone, so nothing can recycle twice.
        let before = server.stats();
        t = server.reclaim_node(NodeId(0), t);
        let after = server.stats();
        assert_eq!(after.reclaimed_slots, before.reclaimed_slots, "case {case}");
        assert_eq!(after.reclaimed_flags, before.reclaimed_flags, "case {case}");
        assert_eq!(
            server.pages_in_use() + server.free_slots(),
            FS_PAGES as usize,
            "case {case}: conservation after re-reclaim"
        );
        let _ = t;
    }
}

/// Five rounds; each kills a rotating primary mid-burst (its CPU cache
/// vanishes, the CXL pool survives), fences + reclaims it, proves the
/// dead incarnation's handle stays fenced out, then reincarnates the
/// same NodeId at the bumped epoch on the now-cold cache. Every round
/// ends with a full content verification — shared pages through every
/// node's coherency path, private pages through their owner — plus DBP
/// slot conservation.
#[test]
fn fusion_cluster_storm_heals_after_each_node_crash() {
    use polardb_cxl_repro::memsim::CxlNodeConfig;
    use polardb_cxl_repro::polarcxlmem::{FencingPolicy, SharingNode};

    let pool = fs_epoch_base() + 4096;
    let cfgs: Vec<CxlNodeConfig> = (0..FS_NODES + 1)
        .map(|host| CxlNodeConfig {
            host,
            cache_bytes: 1 << 20,
            capture: true,
            remote_numa: false,
            direct_attach: false,
        })
        .collect();
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool as usize, &cfgs)));
    let mut store = PageStore::with_page_size(FS_PAGES, FS_PAGE);
    for _ in 0..FS_PAGES {
        store.allocate();
    }
    let store = Rc::new(RefCell::new(store));
    let mut server =
        FusionServer::new(Rc::clone(&cxl), NodeId(FS_NODES), 0, FS_PAGES as u32, store);
    server.enable_fencing(FencingPolicy::Epoch, fs_epoch_base());
    let mut nodes: Vec<SharingNode> = (0..FS_NODES)
        .map(|i| {
            let (grant, _) = server.register_node_fenced(NodeId(i), fs_flag_base(i), SimTime::ZERO);
            let mut n = SharingNode::new(NodeId(i), fs_flag_base(i), FS_PAGE);
            n.enable_fencing(fs_epoch_base(), grant);
            n
        })
        .collect();

    let mut rng = SimRng::seed_from_u64(0x570B);
    let mut model: BTreeMap<(PageId, u64), u8> = BTreeMap::new();
    let mut t = SimTime::ZERO;
    for round in 0..5usize {
        let d = round % FS_NODES;
        for _ in 0..60 {
            t = fs_op(&mut rng, &mut nodes, &mut server, &mut model, t);
        }

        // Death: volatile state gone, lease + fenced epoch survive.
        cxl.borrow_mut().crash_node(NodeId(d));
        t = server.fence_node(NodeId(d), t);
        t = server.reclaim_node(NodeId(d), t);
        // The dead node's private pages were sole-active: recycled, and
        // their unpublished history reverts to storage state (zeros).
        model.retain(|(page, _), _| {
            !(fs_ppage(d, 0).0..fs_ppage(d, 0).0 + FS_PPG).contains(&page.0)
        });

        // The dead incarnation is a zombie now: its guarded stores and
        // publishes must bounce off the bumped epoch word.
        let zerr = nodes[d]
            .guarded_write(&mut server, fs_spage(0), 64, &[0xEE; 32], t)
            .expect_err("zombie write must be fenced");
        assert_eq!(zerr.observed_epoch, zerr.grant_epoch + 1, "round {round}");
        assert!(
            nodes[d]
                .guarded_publish(&mut server, fs_spage(0), t)
                .is_err(),
            "zombie publish must be fenced (round {round})"
        );

        // Reincarnate the same NodeId at the bumped epoch: a fresh
        // sharing node over the now-cold cache.
        let (grant, t2) = server.register_node_fenced(NodeId(d), fs_flag_base(d), t);
        t = t2;
        let mut fresh = SharingNode::new(NodeId(d), fs_flag_base(d), FS_PAGE);
        fresh.enable_fencing(fs_epoch_base(), grant);
        nodes[d] = fresh;

        for _ in 0..30 {
            t = fs_op(&mut rng, &mut nodes, &mut server, &mut model, t);
        }

        // Full verification: private pages through their owner, shared
        // pages through EVERY node's coherency path.
        for (&(page, off), &want) in &model {
            let readers: Vec<usize> = if page.0 < FS_NODES as u64 * FS_PPG {
                vec![(page.0 / FS_PPG) as usize]
            } else {
                (0..FS_NODES).collect()
            };
            for r in readers {
                let mut buf = [0u8; 32];
                t = nodes[r].read(&mut server, page, off, &mut buf, t);
                assert_eq!(
                    buf, [want; 32],
                    "round {round}: node {r} page {} off {off}",
                    page.0
                );
            }
        }
        let stats = server.stats();
        assert_eq!(stats.fenced_nodes as usize, round + 1, "round {round}");
        assert_eq!(
            server.pages_in_use() + server.free_slots(),
            FS_PAGES as usize,
            "round {round}: DBP slot conservation"
        );
    }
}
