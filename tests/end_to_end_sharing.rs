//! End-to-end sharing integration: the full multi-primary stack (lock
//! service + fusion server + coherency protocol + capture-mode caches)
//! on both systems, checking the paper's qualitative claims and the
//! protocol's observable correctness.

use polardb_cxl_repro::polarcxlmem::{FusionServer, SharingNode};
use polardb_cxl_repro::prelude::*;
use polardb_cxl_repro::workloads::sharing::{point_update_gen, read_write_gen, GroupLayout};
use simkit::{LockMode, LockTable};
use std::cell::RefCell;
use std::rc::Rc;

fn tiny(system: SharingSystem, nodes: usize, pct: u32, rw: bool) -> SharingResult {
    let mut c = SharingConfig::standard(system, nodes);
    c.layout.rows_per_group = 2_000;
    c.duration = SimTime::from_millis(25);
    c.workers_per_node = 4;
    let layout = c.layout;
    if rw {
        run_sharing(&c, read_write_gen(layout, pct))
    } else {
        run_sharing(&c, point_update_gen(layout, pct))
    }
}

#[test]
fn cxl_beats_rdma_across_sharing_levels() {
    for pct in [20u32, 60, 100] {
        let c = tiny(SharingSystem::Cxl, 4, pct, false);
        let r = tiny(SharingSystem::Rdma { lbp_fraction: 0.3 }, 4, pct, false);
        assert!(
            c.metrics.qps > r.metrics.qps,
            "{pct}% shared: cxl {} <= rdma {}",
            c.metrics.qps,
            r.metrics.qps
        );
    }
}

#[test]
fn more_nodes_amplify_the_gap_under_read_write() {
    let c8 = tiny(SharingSystem::Cxl, 8, 60, true);
    let r8 = tiny(SharingSystem::Rdma { lbp_fraction: 0.3 }, 8, 60, true);
    let gap8 = c8.metrics.qps / r8.metrics.qps;
    assert!(gap8 > 1.0, "gap8 {gap8}");
}

#[test]
fn bigger_lbp_narrows_but_does_not_close_the_gap() {
    // Figure 13's claim: even LBP-100% loses to PolarCXLMem once
    // synchronization dominates.
    let cxl = tiny(SharingSystem::Cxl, 4, 80, false);
    let small = tiny(SharingSystem::Rdma { lbp_fraction: 0.1 }, 4, 80, false);
    let big = tiny(SharingSystem::Rdma { lbp_fraction: 1.0 }, 4, 80, false);
    assert!(big.metrics.qps >= small.metrics.qps * 0.95);
    assert!(
        cxl.metrics.qps > big.metrics.qps,
        "cxl {} vs lbp100 {}",
        cxl.metrics.qps,
        big.metrics.qps
    );
}

/// Demand recycling under DBP pressure: a fusion server whose slot pool
/// is much smaller than the dataset keeps recycling LRU slots (setting
/// removal flags); nodes must transparently re-request and still read
/// correct data.
#[test]
fn dbp_pressure_recycles_without_corruption() {
    use polardb_cxl_repro::memsim::calib::PAGE_SIZE;
    let layout = GroupLayout {
        groups: 1,
        rows_per_group: 2_000,
    };
    let total_pages = layout.total_pages();
    let slots = (total_pages / 4).max(2) as u32; // 4x oversubscribed DBP
    let cfg = polardb_cxl_repro::memsim::CxlNodeConfig {
        host: 0,
        cache_bytes: 1 << 20,
        capture: true,
        remote_numa: false,
        direct_attach: false,
    };
    let mut cfgs = vec![cfg; 3];
    for (h, c) in cfgs.iter_mut().enumerate() {
        c.host = h;
    }
    let pool_size = slots as u64 * PAGE_SIZE + 2 * total_pages * 16 + 4096;
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool_size as usize, &cfgs)));
    let mut store = PageStore::new(total_pages);
    for p in 0..total_pages {
        store.allocate();
        // Row r's slot holds r as a u64 at a fixed offset.
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[0..8].copy_from_slice(&p.to_le_bytes());
        store.raw_write_page(PageId(p), &page);
    }
    let store = Rc::new(RefCell::new(store));
    let mut server = FusionServer::new(Rc::clone(&cxl), NodeId(2), 0, slots, store);
    let mut nodes: Vec<SharingNode> = (0..2)
        .map(|i| {
            let flag_base = slots as u64 * PAGE_SIZE + i as u64 * total_pages * 16;
            server.register_node(NodeId(i), flag_base);
            SharingNode::new(NodeId(i), flag_base, PAGE_SIZE)
        })
        .collect();
    let mut t = SimTime::ZERO;
    // Sweep all pages repeatedly from both nodes: every page read must
    // return its own id.
    for round in 0..3u64 {
        for p in 0..total_pages {
            let node = ((p + round) % 2) as usize;
            let mut buf = [0u8; 8];
            t = nodes[node].read(&mut server, PageId(p), 0, &mut buf, t);
            assert_eq!(
                u64::from_le_bytes(buf),
                p,
                "round {round}: page {p} corrupted under recycling"
            );
        }
    }
    assert!(
        server.stats().recycles > 0,
        "pressure must trigger recycling"
    );
    assert!(
        nodes[0].stats().removal_reloads + nodes[1].stats().removal_reloads > 0,
        "nodes must observe removal flags"
    );
}

/// Serializes writers through the distributed lock and checks that
/// every read on every node observes the latest published write — the
/// protocol-level linearizability check on top of capture-mode caches.
#[test]
fn cross_node_reads_always_see_committed_writes() {
    let layout = GroupLayout {
        groups: 1,
        rows_per_group: 500,
    };
    let total_pages = layout.total_pages();
    let cfg = polardb_cxl_repro::memsim::CxlNodeConfig {
        host: 0,
        cache_bytes: 1 << 20,
        capture: true,
        remote_numa: false,
        direct_attach: false,
    };
    let mut cfgs = vec![cfg; 4]; // 3 DB nodes + server
    for (h, c) in cfgs.iter_mut().enumerate() {
        c.host = h;
    }
    let pool_size = total_pages * 16384 + 3 * total_pages * 16 + 4096;
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool_size as usize, &cfgs)));
    let mut store = PageStore::new(total_pages);
    for _ in 0..total_pages {
        store.allocate();
    }
    let store = Rc::new(RefCell::new(store));
    let mut server = FusionServer::new(Rc::clone(&cxl), NodeId(3), 0, total_pages as u32, store);
    let mut nodes: Vec<SharingNode> = (0..3)
        .map(|i| {
            let flag_base = total_pages * 16384 + i as u64 * total_pages * 16;
            server.register_node(NodeId(i), flag_base);
            SharingNode::new(NodeId(i), flag_base, 16384)
        })
        .collect();

    let mut locks: LockTable<PageId> = LockTable::new();
    let mut t = SimTime::ZERO;
    let mut expect = [0u64; 8]; // per row slot: last committed value
    for step in 0..200u64 {
        let writer = (step % 3) as usize;
        let slot = (step % 8) as usize;
        let (page, off) = layout.locate(0, slot as u64 * 60);
        // Writer: lock, write, publish, release.
        let (grant, _) = locks.acquire(page, t, LockMode::Exclusive, 0);
        let val = step + 1;
        let t2 = nodes[writer].write(&mut server, page, off as u64, &val.to_le_bytes(), grant);
        let t3 = nodes[writer].publish(&mut server, page, t2);
        locks.extend_exclusive(page, t3);
        expect[slot] = val;
        t = t3;
        // All nodes read after the lock is free: must see the new value.
        #[allow(clippy::needless_range_loop)]
        for reader in 0..3 {
            let (grant, _) = locks.acquire(page, t, LockMode::Shared, 0);
            let mut buf = [0u8; 8];
            let t4 = nodes[reader].read(&mut server, page, off as u64, &mut buf, grant);
            locks.extend_shared(page, t4);
            t = t.max(t4);
            assert_eq!(
                u64::from_le_bytes(buf),
                expect[slot],
                "step {step}: node {reader} read a stale value"
            );
        }
    }
}

/// The byte oracle on the cluster loop's phase path: `Cluster::run` steps
/// three lanes over detached `CxlShard`s (the `*_resident` protocol
/// calls) and folds their write logs at each barrier. Every committed
/// write is logged with its (quantum, lane, order in lane) position —
/// the order the barrier folds it in — and at the end every written row,
/// re-read by every node through the serial protocol, must hold the last
/// write in that order.
#[test]
fn cluster_phases_serve_the_last_write_in_barrier_fold_order() {
    use polardb_cxl_repro::polarcxlmem::CoherencyMode;
    use polardb_cxl_repro::simkit::Step;
    use polardb_cxl_repro::workloads::cluster::{Cluster, FusionCluster};
    use std::collections::BTreeMap;

    const NODES: usize = 3;
    const QUANTUM_NS: u64 = 20_000;
    // 3 private groups + the shared one; the 12 hot rows span 3 pages.
    let layout = GroupLayout {
        groups: NODES + 1,
        rows_per_group: 300,
    };
    let shared = NODES;
    let (mut fusion, mut nodes) =
        FusionCluster::with_nodes(&layout, NODES, CoherencyMode::SoftwareLines);
    fusion.warm_home(&mut nodes, &layout);
    // Per lane: (quantum, row, tag) of each committed write, in issue order.
    let logs: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); NODES];
    let mut cluster = Cluster::new(fusion, nodes, logs, 2, 0x0AC1E);
    let record = |tag: u64| -> Vec<u8> { tag.to_le_bytes().repeat(15) };
    cluster.run(
        SimTime::from_millis(5),
        SimTime(QUANTUM_NS),
        |ctx, w, start| {
            let rng = &mut ctx.rngs[w];
            let row = rng.gen_range(0..12u64) * 25;
            let write = rng.gen_bool(0.5);
            let (page, off) = layout.locate(shared, row);
            let t = if write {
                // Distinct bytes per write: lane, worker, sequence.
                let seq = ctx.ext.len() as u64;
                let tag = (ctx.lane as u64 + 1) << 40 | (w as u64) << 32 | seq;
                let t = ctx.locked_write_publish(page, off as u64, &record(tag), start);
                ctx.ext.push((start.as_nanos() / QUANTUM_NS, row, tag));
                t
            } else {
                ctx.locked_read(page, off as u64, 120, start)
            };
            Step::Done(t)
        },
    );

    let mut writes: Vec<(u64, usize, usize, u64, u64)> = Vec::new();
    for (lane, log) in cluster.exts.iter().enumerate() {
        for (k, &(quantum, row, tag)) in log.iter().enumerate() {
            writes.push((quantum, lane, k, row, tag));
        }
        assert!(log.len() > 40, "lane {lane} committed {} writes", log.len());
    }
    writes.sort_unstable();
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for &(_, _, _, row, tag) in &writes {
        last.insert(row, tag);
    }
    assert_eq!(last.len(), 12, "every hot row was written");
    // Fold order, not virtual time, decides a row two lanes wrote in
    // one quantum: the run must contain such rows.
    let mut writers: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for &(quantum, lane, _, row, _) in &writes {
        writers.entry((quantum, row)).or_default().push(lane);
    }
    let contested = (writers.values())
        .filter(|lanes| lanes.iter().any(|&l| l != lanes[0]))
        .count();
    assert!(
        contested > 0,
        "no row was written by two lanes in one quantum"
    );

    let server = &mut cluster.fabric.server;
    let mut buf = [0u8; 120];
    let mut t = SimTime::from_millis(5);
    let mut stale = Vec::new();
    for (reader, node) in cluster.nodes.iter_mut().enumerate() {
        for (&row, &tag) in &last {
            let (page, off) = layout.locate(shared, row);
            t = node.read(server, page, off as u64, &mut buf, t);
            if buf[..] != record(tag)[..] {
                let got = u64::from_le_bytes(buf[..8].try_into().unwrap());
                stale.push(format!("node {reader} row {row}: {got:#x}, want {tag:#x}"));
            }
        }
    }
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

/// A reader lane must not lose an invalidation it shares a quantum with.
/// n0 and n1 share page 0, and a serial publish has set n1's invalid
/// flag. In one quantum n1 reads the row — it sees its flag, drops the
/// page, clears the flag through its own shard and reloads the
/// pre-barrier bytes — while n0 writes the row and publishes, setting
/// n1's flag again through n0's shard. After the barrier n1 must see
/// n0's bytes.
#[test]
#[ignore = "lost invalidation: CxlPool::barrier folds shards in node order, so \
            the reader's same-quantum flag clear (n1's log) lands after the \
            writer's flag set (n0's log) and n1 keeps serving the stale row; \
            ROADMAP 11(b)'s exact order removes the quantum this depends on"]
fn a_same_quantum_flag_clear_does_not_lose_the_writers_invalidation() {
    use polardb_cxl_repro::memsim::CxlNodeConfig;

    const PS: u64 = 1024;
    let cfg = CxlNodeConfig {
        cache_bytes: 1 << 20,
        capture: true,
        ..CxlNodeConfig::default()
    };
    let cxl = Rc::new(RefCell::new(CxlPool::new(4 << 20, [cfg, cfg, cfg])));
    let mut store = PageStore::with_page_size(16, PS);
    for _ in 0..16 {
        store.allocate();
    }
    let store = Rc::new(RefCell::new(store));
    // Slots at 0..16 KiB, node 2 serves; flag arrays above.
    let mut server = FusionServer::new(Rc::clone(&cxl), NodeId(2), 0, 16, store);
    server.register_node(NodeId(0), 64 << 10);
    server.register_node(NodeId(1), 96 << 10);
    let mut n0 = SharingNode::new(NodeId(0), 64 << 10, PS);
    let mut n1 = SharingNode::new(NodeId(1), 96 << 10, PS);
    let page = PageId(0);
    let mut buf = [0u8; 8];

    // Serial warm-up: both nodes cache page 0, then n0 publishes 0xAA,
    // which sets n1's invalid flag.
    let t = n0.read(&mut server, page, 0, &mut buf, SimTime::ZERO);
    let t = n1.read(&mut server, page, 0, &mut buf, t);
    let t = n0.write(&mut server, page, 0, &[0xAA; 8], t);
    let t = n0.publish(&mut server, page, t);
    let dir = server.dir_snapshot();

    // One quantum: n1 reads (and clears its flag), n0 writes and
    // publishes 0xBB.
    let mut s0 = cxl.borrow_mut().detach_node(NodeId(0));
    let mut s1 = cxl.borrow_mut().detach_node(NodeId(1));
    n1.read_resident(&mut s1, page, 0, &mut buf, t);
    assert_eq!(buf, [0xAA; 8], "the reader reloads the pre-barrier row");
    let tw = n0.write_resident(&mut s0, page, 0, &[0xBB; 8], t);
    let tw = n0.publish_resident(&mut s0, &dir, page, tw);
    let mut shards = [s0, s1];
    cxl.borrow_mut().barrier(&mut shards);

    // Next quantum: n1 must observe the writer's flag and reload.
    let [s0, mut s1] = shards;
    n1.read_resident(&mut s1, page, 0, &mut buf, tw);
    cxl.borrow_mut().attach_node(s0);
    cxl.borrow_mut().attach_node(s1);
    assert_eq!(buf, [0xBB; 8], "n1 served the row n0's publish invalidated");
}
