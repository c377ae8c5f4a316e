//! Isolated layer loops: benchmark-owned spans around direct calls into
//! each crate's public functions, reported as host ns/op (median of the
//! batches). They say where a layer's cost sits when nothing else runs; a
//! saving there is worth at most the layer's share of a workload's steady
//! time (single thread, nothing overlaps) — see README.md for the shares.

use crate::spans::Spans;
use crate::stats::{summarize, Summary};
use btree::BTree;
use bufferpool::dram_bp::DramBp;
use bufferpool::tiered::TieredRdmaBp;
use bufferpool::{BufferPool, FrameTable, PolicyKind};
use engine::{recover_replay, Db};
use memsim::calib::PAGE_SIZE;
use memsim::{Cache, CxlNodeConfig, CxlPool, NodeId, RdmaPool};
use polarcxlmem::{
    polar_recv, CxlBp, CxlMemoryManager, FusionServer, RdmaDbp, RdmaSharingNode, SharingNode,
};
use simkit::rng::stream_rng;
use simkit::{
    par, Histogram, Link, LockMode, LockTable, MultiServer, SimTime, Step, WorkerId, WorkerSet,
};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;
use storage::{Lsn, PageId, PageStore, Wal};
use workloads::harness::exec_txn;
use workloads::sysbench::{make_record, Sysbench, Transaction, C_OFF, RECORD_SIZE};
use workloads::SysbenchKind;

const PAGE: usize = PAGE_SIZE as usize;
const BATCHES: usize = 5;

/// One loop's result: ns/op over the batches.
#[derive(Debug, Clone)]
pub struct LoopResult {
    pub name: &'static str,
    pub ns_per_op: Summary,
    pub ops_per_batch: u64,
}

/// Runs the loops and collects their results and spans.
pub struct Bench<'a> {
    spans: &'a mut Spans,
    /// Divides every batch size (smoke mode: 50). Loops whose inner call
    /// covers a group of operations size their batches as group x 50 x k.
    shrink: u64,
    batches: usize,
    pub results: Vec<LoopResult>,
}

impl Bench<'_> {
    /// Time `BATCHES` batches of `ops` operations. `prep` runs untimed
    /// before each batch and `op` performs exactly the given number of
    /// operations; both work on `state`. One extra batch warms up.
    fn measure<S>(
        &mut self,
        name: &'static str,
        ops: u64,
        state: &mut S,
        mut prep: impl FnMut(&mut S, u64),
        mut op: impl FnMut(&mut S, u64),
    ) {
        let ops = (ops / self.shrink).max(1);
        self.spans.open(name);
        let mut samples = Vec::with_capacity(self.batches);
        for batch in 0..=self.batches {
            prep(state, ops);
            let t = Instant::now();
            op(state, ops);
            let ns = t.elapsed().as_nanos() as f64;
            if batch > 0 {
                samples.push(ns / ops as f64);
            }
        }
        self.spans.close();
        self.results.push(LoopResult {
            name,
            ns_per_op: summarize(&samples),
            ops_per_batch: ops,
        });
    }

    /// [`Bench::measure`] for loops that need no per-batch preparation.
    fn simple<S>(
        &mut self,
        name: &'static str,
        ops: u64,
        state: &mut S,
        op: impl FnMut(&mut S, u64),
    ) {
        self.measure(name, ops, state, |_, _| {}, op);
    }
}

/// A page store with `pages` allocated 16 KB pages of patterned bytes.
fn filled_store(pages: u64) -> PageStore {
    let mut store = PageStore::new(pages);
    let mut buf = vec![0u8; PAGE];
    for p in 0..pages {
        let id = store.allocate();
        buf.fill(p as u8 + 1);
        store.raw_write_page(id, &buf);
    }
    store
}

/// A database over a DRAM pool loaded with `rows` sysbench rows.
fn loaded_db(rows: u64) -> Db<DramBp> {
    let pages = rows / 40 + 64;
    let mut db = Db::create(
        DramBp::new(pages as usize, 4 << 20, PageStore::new(pages)),
        RECORD_SIZE,
    );
    db.load((1..=rows).map(|k| (k, make_record(k, (k % 251) as u8))));
    db.reset_timing_queues();
    db
}

fn simkit_loops(b: &mut Bench) {
    // Closed-loop scheduler: 48 workers, each step completes 1 µs later.
    let mut ws = WorkerSet::new();
    for w in 0..48 {
        ws.spawn(WorkerId(w), SimTime::ZERO);
    }
    b.simple("simkit.worker.step_ns", 480_000, &mut ws, |ws, n| {
        let until = SimTime(ws.now().as_nanos() + n / 48 * 1_000);
        let before = ws.steps();
        ws.run_until(until, |_, start| Step::Done(start + 1_000));
        debug_assert_eq!(ws.steps() - before, n / 48 * 48);
    });

    let mut cpu = (MultiServer::new(16), SimTime::ZERO);
    b.simple(
        "simkit.cpu.acquire_ns",
        1_000_000,
        &mut cpu,
        |(cpu, now), n| {
            for _ in 0..n {
                black_box(cpu.acquire(*now, 5_000));
                *now += 300;
            }
        },
    );

    let mut link = (Link::new("bench", 12.0), SimTime::ZERO);
    b.simple(
        "simkit.link.transfer_ns",
        1_000_000,
        &mut link,
        |(link, now), n| {
            for _ in 0..n {
                *now = link.transfer(*now, PAGE_SIZE).end;
            }
        },
    );

    let mut locks = (LockTable::<u64>::new(), SimTime::ZERO, 0u64);
    b.simple(
        "simkit.lock.acquire_ns",
        1_000_000,
        &mut locks,
        |(locks, now, k), n| {
            for _ in 0..n {
                *k = (*k + 7919) % 1024;
                let mode = if *k % 4 == 0 {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                black_box(locks.acquire(*k, *now, mode, 500));
                *now += 100;
            }
        },
    );

    let mut hist = (Histogram::new(), 1u64);
    b.simple(
        "simkit.hist.record_ns",
        2_000_000,
        &mut hist,
        |(h, v), n| {
            for _ in 0..n {
                *v = v
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(*v >> 44);
            }
        },
    );

    // One barrier phase over 8 trivial shards: the per-quantum fixed cost
    // of the sharing harness, inline and on a 2-thread pool.
    let mut shards = vec![0u64; 8];
    for (name, threads, ops) in [
        ("simkit.par.phase_ns", 1, 1_000_000),
        ("simkit.par.phase_2t_ns", 2, 2_000),
    ] {
        b.simple(name, ops, &mut shards, |shards, n| {
            for _ in 0..n {
                par::run_phase(threads, black_box(shards.as_mut_slice()), |i, s| {
                    *s = black_box(s.wrapping_add(i as u64));
                });
            }
        });
    }
}

fn memsim_loops(b: &mut Bench) {
    const LINES: u64 = 32_768; // 2 MB of lines inside a 4 MB cache

    let mut hit = (Cache::new(4 << 20), 0u64);
    for line in 0..LINES {
        hit.0.access(line, false);
    }
    b.simple("memsim.cache.hit_ns", 4_000_000, &mut hit, |(c, k), n| {
        for _ in 0..n {
            *k = (*k + 7919) % LINES;
            black_box(c.access(*k, false));
        }
    });

    // Sequential new lines through a 64 KB direct-mapped cache: all misses.
    let mut miss = (Cache::new(64 << 10), 0u64);
    b.simple(
        "memsim.cache.miss_ns",
        4_000_000,
        &mut miss,
        |(c, line), n| {
            for _ in 0..n {
                *line += 1;
                black_box(c.access(*line, false));
            }
        },
    );

    // access_run over one page worth of resident lines; ns per line.
    b.simple(
        "memsim.cache.run_line_ns",
        256 * 20_000,
        &mut hit,
        |(c, k), n| {
            for _ in 0..n / 256 {
                *k = (*k + 256) % LINES;
                black_box(c.access_run(*k..*k + 256, false));
            }
        },
    );

    let mut buf64 = [0u8; 64];
    let mut page = vec![0u8; PAGE];

    const POOL: u64 = 8 << 20;
    let mut cxl = (
        CxlPool::single_host(POOL as usize, 1, 4 << 20, false),
        SimTime::ZERO,
    );
    for line in 0..LINES {
        cxl.0.read(NodeId(0), line * 64, &mut buf64, SimTime::ZERO);
    }
    b.simple(
        "memsim.cxl.read64_hit_ns",
        2_000_000,
        &mut cxl,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool
                    .read(NodeId(0), i * 7919 % LINES * 64, &mut buf64, *t)
                    .end;
            }
        },
    );

    // An 8 MB sweep through a 64 KB cache: every line misses to the device.
    let mut cold = (
        CxlPool::single_host(POOL as usize, 1, 64 << 10, false),
        SimTime::ZERO,
    );
    b.simple(
        "memsim.cxl.read64_miss_ns",
        1_000_000,
        &mut cold,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.read(NodeId(0), i * 64 % POOL, &mut buf64, *t).end;
            }
        },
    );
    b.simple(
        "memsim.cxl.read_page_ns",
        20_000,
        &mut cold,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool
                    .read(NodeId(0), i * PAGE_SIZE % POOL, &mut page, *t)
                    .end;
            }
        },
    );
    b.simple(
        "memsim.cxl.write_uncached64_ns",
        1_000_000,
        &mut cold,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool
                    .write_uncached(NodeId(0), i * 64 % POOL, &buf64, *t)
                    .end;
            }
        },
    );

    // clflush of freshly dirtied lines (the publish step of §3.3): the
    // batch's lines are written, untimed, before each batch.
    b.measure(
        "memsim.cxl.clflush_ns",
        20_000,
        &mut cxl,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.write(NodeId(0), i * 64, &buf64, *t).end;
            }
        },
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.clflush(NodeId(0), i * 64, 64, *t).end;
            }
        },
    );

    // Hardware-coherent store with one sharer holding every line.
    let two = CxlNodeConfig {
        cache_bytes: 4 << 20,
        ..CxlNodeConfig::default()
    };
    let mut coherent = (CxlPool::new(POOL as usize, [two, two]), SimTime::ZERO);
    b.measure(
        "memsim.cxl.write_coherent_ns",
        20_000,
        &mut coherent,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.read(NodeId(1), i * 64, &mut [0u8; 64], *t).end;
            }
        },
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.write_coherent(NodeId(0), i * 64, &buf64, *t).end;
            }
        },
    );

    let mut rdma = (RdmaPool::new(POOL as usize, 1), SimTime::ZERO);
    b.simple(
        "memsim.rdma.read_page_ns",
        50_000,
        &mut rdma,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.read(0, i * PAGE_SIZE % POOL, &mut page, *t).end;
            }
        },
    );
    b.simple(
        "memsim.rdma.write_page_ns",
        50_000,
        &mut rdma,
        |(pool, t), n| {
            for i in 0..n {
                *t = pool.write(0, i * PAGE_SIZE % POOL, &page, *t).end;
            }
        },
    );
    b.simple(
        "memsim.rdma.message_ns",
        1_000_000,
        &mut rdma,
        |(pool, t), n| {
            for _ in 0..n {
                *t = pool.message(0, *t);
            }
        },
    );
}

fn storage_loops(b: &mut Bench) {
    let payload = [7u8; 120];
    // A fresh log per batch bounds memory (the WAL keeps records for replay).
    let fresh = |s: &mut (Wal, SimTime), _: u64| *s = (Wal::new(), SimTime::ZERO);

    let mut wal = (Wal::new(), SimTime::ZERO);
    b.measure(
        "storage.wal.append_update_ns",
        200_000,
        &mut wal,
        fresh,
        |(wal, _), n| {
            for i in 0..n {
                black_box(wal.append_update(PageId(i % 64), (i % 100 * 128) as u16, &payload));
                wal.seal_mtr();
            }
        },
    );
    // Group commit: 16 sealed updates, then one flush; ns per flush,
    // appends included (an empty flush is a no-op in the engine too).
    b.measure(
        "storage.wal.flush_ns",
        10_000,
        &mut wal,
        fresh,
        |(wal, t), n| {
            for i in 0..n {
                for j in 0..16 {
                    wal.append_update(PageId((i + j) % 64), 0, &payload);
                    wal.seal_mtr();
                }
                *t = wal.flush(*t);
            }
        },
    );
    b.measure(
        "storage.wal.replay_rec_ns",
        200_000,
        &mut wal,
        |s, n| {
            *s = (Wal::new(), SimTime::ZERO);
            for i in 0..n {
                s.0.append_update(PageId(i % 64), 0, &payload);
                s.0.seal_mtr();
            }
            s.1 = s.0.flush(SimTime::ZERO);
        },
        |(wal, _), n| {
            let mut seen = 0u64;
            for rec in wal.replay_from(Lsn::ZERO) {
                black_box(rec.lsn);
                seen += 1;
            }
            assert_eq!(seen, n, "replay must return every flushed record");
        },
    );

    let mut store = (filled_store(512), SimTime::ZERO, vec![0u8; PAGE]);
    b.simple(
        "storage.pagestore.read_page_ns",
        50_000,
        &mut store,
        |(s, t, buf), n| {
            for i in 0..n {
                *t = s.read_page(PageId(i % 512), buf, *t).end;
            }
        },
    );
    b.simple(
        "storage.pagestore.write_page_ns",
        50_000,
        &mut store,
        |(s, t, buf), n| {
            for i in 0..n {
                *t = s.write_page(PageId(i % 512), buf, *t).end;
            }
        },
    );
}

fn bufferpool_loops(b: &mut Bench) {
    const FRAMES: usize = 1 << 16;
    let full_table = |kind| {
        let mut t = FrameTable::with_policy(FRAMES, kind);
        for p in 0..FRAMES as u64 {
            let f = t.pop_free().expect("table sized for every page");
            t.install(f, PageId(p));
        }
        t
    };
    for (kind, hit_name, evict_name) in [
        (
            PolicyKind::Lru,
            "bufferpool.frames.hit_touch_ns.lru",
            "bufferpool.frames.evict_install_ns.lru",
        ),
        (
            PolicyKind::Clock,
            "bufferpool.frames.hit_touch_ns.clock",
            "bufferpool.frames.evict_install_ns.clock",
        ),
        (
            PolicyKind::TwoQ,
            "bufferpool.frames.hit_touch_ns.2q",
            "bufferpool.frames.evict_install_ns.2q",
        ),
    ] {
        // The fix path of a warm pool: residency probe, policy touch,
        // dirty bit, LSN stamp.
        let mut hit = (full_table(kind), 0u64);
        b.simple(hit_name, 2_000_000, &mut hit, |(t, k), n| {
            for _ in 0..n {
                *k = (*k + 7919) % FRAMES as u64;
                let f = t.lookup_touch(PageId(*k)).expect("every page resident");
                t.mark_dirty(f);
                t.set_lsn(f, Lsn(*k));
            }
        });
        // The miss path: a touch, then victim selection, evict, install.
        let mut evict = (full_table(kind), 0u64, FRAMES as u64);
        b.simple(evict_name, 1_000_000, &mut evict, |(t, k, next), n| {
            for _ in 0..n {
                *k = (*k + 7919) % FRAMES as u64;
                black_box(t.lookup_touch(PageId(*k)));
                let f = t.pop_victim().expect("a full table has a victim");
                t.evict(f);
                t.install(f, PageId(*next));
                *next += 1;
            }
        });
    }

    const PAGES: u64 = 512;
    let mut buf = [0u8; 64];
    let mut dram = (
        DramBp::new(PAGES as usize, 4 << 20, filled_store(PAGES)),
        SimTime::ZERO,
    );
    dram.0.prewarm();
    b.simple(
        "bufferpool.dram.read_hit_ns",
        1_000_000,
        &mut dram,
        |(bp, t), n| {
            for i in 0..n {
                *t = bp
                    .read(PageId(i * 7 % PAGES), (i % 200 * 64) as u16, &mut buf, *t)
                    .end;
            }
        },
    );

    let tiered = |lbp_frames| {
        let rdma = Rc::new(RefCell::new(RdmaPool::new(PAGES as usize * PAGE, 1)));
        let mut bp = TieredRdmaBp::new(rdma, 0, 0, lbp_frames, 4 << 20, filled_store(PAGES));
        bp.prewarm();
        (bp, SimTime::ZERO)
    };
    let mut local = tiered(PAGES as usize);
    b.simple(
        "bufferpool.tiered.read_hit_ns",
        1_000_000,
        &mut local,
        |(bp, t), n| {
            for i in 0..n {
                *t = bp
                    .read(PageId(i * 7 % PAGES), (i % 200 * 64) as u16, &mut buf, *t)
                    .end;
            }
        },
    );
    // 16 local frames, pages visited round-robin: every read evicts a
    // frame and pages the target in from remote memory.
    let mut spill = tiered(16);
    b.simple(
        "bufferpool.tiered.read_miss_ns",
        50_000,
        &mut spill,
        |(bp, t), n| {
            for i in 0..n {
                *t = bp.read(PageId(i % PAGES), 0, &mut buf, *t).end;
            }
        },
    );
}

fn core_loops(b: &mut Bench) {
    const PAGES: u64 = 512;
    let cxl_bp = || {
        let pool_bytes = 64 + PAGES as usize * (64 + PAGE) + 4096;
        let cxl = Rc::new(RefCell::new(CxlPool::single_host(
            pool_bytes,
            1,
            4 << 20,
            false,
        )));
        let mut bp = CxlBp::format(cxl, NodeId(0), 0, PAGES, filled_store(PAGES));
        bp.prewarm();
        bp
    };
    let mut buf = [0u8; 64];
    let payload = [9u8; 120];

    let mut bp = (cxl_bp(), SimTime::ZERO);
    b.simple(
        "core.cxl_bp.read_hit_ns",
        1_000_000,
        &mut bp,
        |(bp, t), n| {
            for i in 0..n {
                *t = bp
                    .read(PageId(i * 7 % PAGES), (i % 200 * 64) as u16, &mut buf, *t)
                    .end;
            }
        },
    );
    b.simple("core.cxl_bp.write_ns", 500_000, &mut bp, |(bp, t), n| {
        for i in 0..n {
            let page = PageId(i * 7 % PAGES);
            *t = bp
                .write(page, (i % 100 * 128) as u16, &payload, Lsn(i + 1), *t)
                .end;
        }
    });

    // PolarRecv over a cleanly crashed 512-page pool: ns per page examined.
    let mut crashed = (cxl_bp(), Wal::new(), SimTime::ZERO);
    b.simple(
        "core.recovery.polar_recv_page_ns",
        PAGES * 50,
        &mut crashed,
        |(bp, wal, t), n| {
            for _ in 0..n / PAGES {
                bp.crash();
                wal.crash();
                let report = polar_recv(bp, wal, *t);
                assert_eq!(report.trusted + report.rebuilt, PAGES);
                *t = report.done;
            }
        },
    );

    // Sharing protocols: two DB nodes and a server over 64 shared pages,
    // both nodes active on every page so a publish has a flag to set.
    const SHARED: u64 = 64;
    let slots_bytes = SHARED * PAGE_SIZE;
    let flags_bytes = SHARED * 16;
    let node_cfg = CxlNodeConfig {
        cache_bytes: 8 << 20,
        capture: true,
        ..CxlNodeConfig::default()
    };
    let cxl = Rc::new(RefCell::new(CxlPool::new(
        (slots_bytes + 2 * flags_bytes + 4096) as usize,
        [node_cfg, node_cfg, node_cfg],
    )));
    let store = Rc::new(RefCell::new(filled_store(SHARED)));
    let mut server = FusionServer::new(cxl, NodeId(2), 0, SHARED as u32, store);
    let mut nodes: Vec<SharingNode> = (0..2)
        .map(|i| {
            let flag_base = slots_bytes + i as u64 * flags_bytes;
            server.register_node(NodeId(i), flag_base);
            SharingNode::new(NodeId(i), flag_base, PAGE_SIZE)
        })
        .collect();
    for node in &mut nodes {
        for p in 0..SHARED {
            node.access(&mut server, PageId(p), SimTime::ZERO);
        }
    }
    let reader = nodes.pop().expect("two nodes");
    let writer = nodes.pop().expect("two nodes");
    let mut fusion = (server, writer, reader, SimTime::ZERO);
    let mut rec = [0u8; 120];
    b.simple(
        "core.fusion.read_shared_ns",
        500_000,
        &mut fusion,
        |(server, _, reader, t), n| {
            for i in 0..n {
                *t = reader.read(server, PageId(i % SHARED), 24 + i % 64 * 196, &mut rec, *t);
            }
        },
    );
    b.simple(
        "core.fusion.write_publish_ns",
        200_000,
        &mut fusion,
        |(server, writer, _, t), n| {
            for i in 0..n {
                let page = PageId(i % SHARED);
                *t = writer.write(server, page, 24 + i % 64 * 196, &payload, *t);
                *t = writer.publish(server, page, *t);
            }
        },
    );

    let rdma = Rc::new(RefCell::new(RdmaPool::new(
        (SHARED * PAGE_SIZE) as usize,
        3,
    )));
    let store = Rc::new(RefCell::new(filled_store(SHARED)));
    let mut dbp = RdmaDbp::new(rdma, 2, 0, SHARED as u32, store);
    let mut writer = RdmaSharingNode::new(NodeId(0), 0, SHARED as usize, PAGE_SIZE);
    let mut peer = RdmaSharingNode::new(NodeId(1), 1, SHARED as usize, PAGE_SIZE);
    for p in 0..SHARED {
        writer.read(&mut dbp, PageId(p), 0, &mut rec, SimTime::ZERO);
        peer.read(&mut dbp, PageId(p), 0, &mut rec, SimTime::ZERO);
    }
    let mut sharing = (dbp, writer, peer, SimTime::ZERO);
    // Write + whole-page publish; the peer drops its copy when told to.
    b.simple(
        "core.rdma_sharing.write_publish_ns",
        50_000,
        &mut sharing,
        |(dbp, writer, peer, t), n| {
            for i in 0..n {
                let page = PageId(i % SHARED);
                *t = writer.write(dbp, page, 24 + i % 64 * 196, &payload, *t);
                let (targets, done) = writer.publish(dbp, page, *t);
                for _ in targets {
                    peer.invalidate_local(page);
                }
                *t = done;
            }
        },
    );

    let mut mgr = CxlMemoryManager::new(1 << 30);
    b.simple(
        "core.manager.alloc_release_ns",
        640_000,
        &mut mgr,
        |mgr, n| {
            for _ in 0..n / 64 {
                let leases: Vec<_> = (0..64)
                    .map(|i| {
                        mgr.allocate(NodeId(i % 4), 1 << 16, SimTime::ZERO)
                            .expect("1 GB pool holds 64 leases")
                            .0
                    })
                    .collect();
                for lease in leases {
                    mgr.release(lease, SimTime::ZERO).expect("lease is live");
                }
            }
        },
    );
}

/// A B+tree of sysbench-sized records over a DRAM pool, keys `0..rows`.
fn loaded_tree(rows: u64, pages: u64) -> (BTree, DramBp, Wal) {
    let mut bp = DramBp::new(pages as usize, 8 << 20, PageStore::new(pages));
    let mut wal = Wal::new();
    let (mut tree, _) = BTree::create(&mut bp, &mut wal, RECORD_SIZE, SimTime::ZERO);
    let record = make_record(1, 7);
    for k in 0..rows {
        tree.insert(&mut bp, &mut wal, k, &record, SimTime::ZERO);
    }
    (tree, bp, Wal::new())
}

fn btree_loops(b: &mut Bench) {
    const ROWS: u64 = 100_000;
    let (tree, bp, wal) = loaded_tree(ROWS, 4096);
    let mut s = (tree, bp, wal, 0u64);

    b.simple("btree.get_ns", 200_000, &mut s, |(tree, bp, _, k), n| {
        for _ in 0..n {
            *k = (*k + 7919) % ROWS;
            black_box(tree.get(bp, *k, SimTime::ZERO).0.is_some());
        }
    });
    b.simple("btree.scan100_ns", 10_000, &mut s, |(tree, bp, _, k), n| {
        for _ in 0..n {
            *k = (*k + 7919) % (ROWS - 200);
            black_box(tree.scan(bp, *k, 100, SimTime::ZERO).0.len());
        }
    });
    // A fresh log per batch: the WAL keeps every record until a checkpoint.
    b.measure(
        "btree.update_field_ns",
        100_000,
        &mut s,
        |(_, _, wal, _), _| *wal = Wal::new(),
        |(tree, bp, wal, k), n| {
            for _ in 0..n {
                *k = (*k + 104_729) % ROWS;
                black_box(tree.update_field(bp, wal, *k, C_OFF, &[1u8; 16], SimTime::ZERO));
            }
        },
    );

    // Insert doubles a fresh 20 K-row tree (leaf splits up to the root at
    // their natural rate); delete takes the upper half of a 40 K-row tree
    // away again (leaf merges). Merged-away pages are not reused, so each
    // batch starts on a tree of its own.
    const BASE: u64 = 20_000;
    let record = make_record(1, 7);
    let mut t = loaded_tree(0, 64);
    b.measure(
        "btree.insert_ns",
        BASE,
        &mut t,
        |t, _| *t = loaded_tree(BASE, 2048),
        |(tree, bp, wal), n| {
            for k in BASE..BASE + n {
                let (inserted, _) = tree.insert(bp, wal, k, &record, SimTime::ZERO);
                debug_assert!(inserted);
            }
        },
    );
    b.measure(
        "btree.delete_ns",
        BASE,
        &mut t,
        |t, n| *t = loaded_tree(BASE + n, 2048),
        |(tree, bp, wal), n| {
            for k in BASE..BASE + n {
                let (found, _) = tree.delete(bp, wal, k, SimTime::ZERO);
                debug_assert!(found);
            }
        },
    );
}

fn engine_and_workload_loops(b: &mut Bench) {
    const ROWS: u64 = 30_000;
    let mut field = [0u8; 120];
    let mut s = (loaded_db(ROWS), SimTime::ZERO, 0u64);

    b.simple(
        "engine.select_field_ns",
        200_000,
        &mut s,
        |(db, t, k), n| {
            for _ in 0..n {
                *k = (*k + 7919) % ROWS;
                *t = db.select_field(*k + 1, C_OFF, &mut field, *t).1;
            }
        },
    );
    // Auto-commit update: statement + redo + log flush. A checkpoint before
    // each batch truncates the log the previous one grew.
    b.measure(
        "engine.update_commit_ns",
        100_000,
        &mut s,
        |(db, t, _), _| *t = db.checkpoint(*t),
        |(db, t, k), n| {
            for _ in 0..n {
                *k = (*k + 7919) % ROWS;
                *t = db.update(*k + 1, C_OFF, &[3u8; 120], *t).1;
            }
        },
    );
    // ARIES replay of a log of n committed updates after a crash; ns per
    // redo record (scan, page fault, apply, table reopen included).
    b.measure(
        "engine.recover_replay_rec_ns",
        50_000,
        &mut s,
        |(db, t, k), n| {
            *t = db.checkpoint(*t);
            for _ in 0..n {
                *k = (*k + 7919) % ROWS;
                *t = db.update(*k + 1, C_OFF, &[4u8; 120], *t).1;
            }
            db.crash();
        },
        |(db, t, _), n| {
            let summary = recover_replay(db, "vanilla", *t);
            assert_eq!(summary.records_applied, n, "every committed update replays");
            *t = summary.done;
        },
    );

    let gen = Sysbench::new(SysbenchKind::ReadWrite, ROWS);
    let mut g = (stream_rng(1, 0), Transaction::with_capacity(18));
    b.simple(
        "workloads.sysbench.fill_txn_ns",
        500_000,
        &mut g,
        |(rng, txn), n| {
            for _ in 0..n {
                gen.fill_txn(rng, txn);
                black_box(txn.len());
            }
        },
    );

    for (name, kind, ops) in [
        (
            "workloads.exec_txn.point_ns",
            SysbenchKind::PointSelect,
            200_000,
        ),
        ("workloads.exec_txn.rw_ns", SysbenchKind::ReadWrite, 5_000),
    ] {
        let gen = Sysbench::new(kind, ROWS);
        let mut s = (
            loaded_db(ROWS),
            stream_rng(2, 0),
            Transaction::with_capacity(18),
            SimTime::ZERO,
        );
        b.measure(
            name,
            ops,
            &mut s,
            |(db, _, _, t), _| *t = db.checkpoint(*t),
            |(db, rng, txn, t), n| {
                for _ in 0..n {
                    gen.fill_txn(rng, txn);
                    *t = exec_txn(db, txn, *t);
                }
            },
        );
    }
}

/// Run every isolated loop under a `layers` span. `quick` shrinks the
/// batches (smoke mode: every loop still runs).
pub fn run_layer_loops(spans: &mut Spans, quick: bool) -> Vec<LoopResult> {
    spans.open("layers");
    let mut b = Bench {
        spans,
        shrink: if quick { 50 } else { 1 },
        batches: if quick { 2 } else { BATCHES },
        results: Vec::new(),
    };
    simkit_loops(&mut b);
    memsim_loops(&mut b);
    storage_loops(&mut b);
    bufferpool_loops(&mut b);
    core_loops(&mut b);
    btree_loops(&mut b);
    engine_and_workload_loops(&mut b);
    let results = b.results;
    spans.close();
    results
}

/// Names of the loops, in run order (the per-layer metric names).
pub const LOOP_NAMES: [&str; 51] = [
    "simkit.worker.step_ns",
    "simkit.cpu.acquire_ns",
    "simkit.link.transfer_ns",
    "simkit.lock.acquire_ns",
    "simkit.hist.record_ns",
    "simkit.par.phase_ns",
    "simkit.par.phase_2t_ns",
    "memsim.cache.hit_ns",
    "memsim.cache.miss_ns",
    "memsim.cache.run_line_ns",
    "memsim.cxl.read64_hit_ns",
    "memsim.cxl.read64_miss_ns",
    "memsim.cxl.read_page_ns",
    "memsim.cxl.write_uncached64_ns",
    "memsim.cxl.clflush_ns",
    "memsim.cxl.write_coherent_ns",
    "memsim.rdma.read_page_ns",
    "memsim.rdma.write_page_ns",
    "memsim.rdma.message_ns",
    "storage.wal.append_update_ns",
    "storage.wal.flush_ns",
    "storage.wal.replay_rec_ns",
    "storage.pagestore.read_page_ns",
    "storage.pagestore.write_page_ns",
    "bufferpool.frames.hit_touch_ns.lru",
    "bufferpool.frames.evict_install_ns.lru",
    "bufferpool.frames.hit_touch_ns.clock",
    "bufferpool.frames.evict_install_ns.clock",
    "bufferpool.frames.hit_touch_ns.2q",
    "bufferpool.frames.evict_install_ns.2q",
    "bufferpool.dram.read_hit_ns",
    "bufferpool.tiered.read_hit_ns",
    "bufferpool.tiered.read_miss_ns",
    "core.cxl_bp.read_hit_ns",
    "core.cxl_bp.write_ns",
    "core.recovery.polar_recv_page_ns",
    "core.fusion.read_shared_ns",
    "core.fusion.write_publish_ns",
    "core.rdma_sharing.write_publish_ns",
    "core.manager.alloc_release_ns",
    "btree.get_ns",
    "btree.scan100_ns",
    "btree.update_field_ns",
    "btree.insert_ns",
    "btree.delete_ns",
    "engine.select_field_ns",
    "engine.update_commit_ns",
    "engine.recover_replay_rec_ns",
    "workloads.sysbench.fill_txn_ns",
    "workloads.exec_txn.point_ns",
    "workloads.exec_txn.rw_ns",
];
