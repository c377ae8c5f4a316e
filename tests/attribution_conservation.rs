//! Latency-attribution conservation: with `simkit::trace` attribution
//! enabled, the per-lane decomposition of every operation sums *exactly*
//! to its end-to-end simulated latency — no nanosecond is unexplained
//! and none is double-counted — on all four pool designs. Traced byte
//! counts must also agree with the fabric models' own counters.
//!
//! Conservation falls out of the simulator's structure: latencies
//! compose by sequential chaining (`t = op(t)`), and every leaf
//! primitive that advances virtual time records its delta into exactly
//! one lane. These tests pin that property per operation, so any future
//! latency source added without a matching `attr_add` fails here.

use bufferpool::dram_bp::DramBp;
use bufferpool::tiered::TieredRdmaBp;
use bufferpool::BufferPool;
use engine::Db;
use memsim::calib::PAGE_SIZE;
use memsim::{CxlNodeConfig, CxlPool, NodeId, RdmaPool};
use polarcxlmem::{CxlBp, CxlMemoryManager, RdmaDbp, RdmaSharingNode};
use simkit::trace::{self, SpanKind};
use simkit::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use storage::{PageId, PageStore};

const RECORD: u16 = 120;
const ROWS: u64 = 1_500;
const PAGES: u64 = 256;

fn rows() -> impl Iterator<Item = (u64, Vec<u8>)> {
    (1..=ROWS).map(|k| (k, vec![(k % 251) as u8; RECORD as usize]))
}

/// Drive a mixed operation sequence and assert, after *every*
/// operation, that the attribution delta equals the operation's
/// end-to-end latency. Returns the final time.
fn drive_conserved<P: BufferPool>(db: &mut Db<P>) -> SimTime {
    let mut t = SimTime::ZERO;
    let mut buf = [0u8; 8];
    let mut rng = 0x243F_6A88_85A3_08D3u64;
    for i in 0..400u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = 1 + rng % ROWS;
        let before = trace::attr_snapshot();
        let t0 = t;
        t = match i % 5 {
            0 | 1 => db.select_field(key, 0, &mut buf, t).1,
            2 => db.range_select(key, 16, t).1,
            3 => db.update(key, 0, &[i as u8; 8], t).1,
            _ => {
                let tt = db.update_no_commit(key, 0, &[i as u8; 8], t).1;
                db.commit(tt)
            }
        };
        let diff = trace::attr_snapshot().since(&before);
        assert_eq!(
            diff.total_ns(),
            t - t0,
            "op {i}: lane sum {diff:?} != end-to-end latency"
        );
    }
    // Checkpoint (WAL flush + dirty-page writeback) conserves too.
    let before = trace::attr_snapshot();
    let t2 = db.checkpoint(t);
    let diff = trace::attr_snapshot().since(&before);
    assert_eq!(diff.total_ns(), t2 - t, "checkpoint: {diff:?}");
    t2
}

#[test]
fn dram_bp_conserves_every_nanosecond() {
    let store = PageStore::new(PAGES);
    let mut db = Db::create(DramBp::new(PAGES as usize, 1 << 20, store), RECORD);
    db.load(rows());
    trace::reset();
    trace::enable_attribution(true);
    drive_conserved(&mut db);
    trace::reset();
}

#[test]
fn tiered_rdma_conserves_and_span_bytes_match_nic() {
    let slice = PAGES * PAGE_SIZE;
    let rdma = Rc::new(RefCell::new(RdmaPool::new(slice as usize, 1)));
    let store = PageStore::new(PAGES);
    // A small local tier forces steady remote page traffic.
    let mut db = Db::create(
        TieredRdmaBp::new(Rc::clone(&rdma), 0, 0, 32, 256 << 10, store),
        RECORD,
    );
    db.load(rows());
    rdma.borrow_mut().reset_link_counters();
    trace::reset();
    trace::enable_spans(true);
    trace::enable_attribution(true);
    drive_conserved(&mut db);
    trace::enable_spans(false);
    trace::enable_attribution(false);
    let events = trace::take_events();
    assert_eq!(trace::dropped_events(), 0, "ring overflowed at test scale");
    let span_bytes: u64 = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                SpanKind::RdmaPageIn | SpanKind::RdmaPageOut | SpanKind::RdmaMsg
            )
        })
        .map(|e| e.bytes)
        .sum();
    assert!(span_bytes > 0, "tiered run moved no remote pages");
    assert_eq!(
        span_bytes,
        rdma.borrow().total_bytes(),
        "traced RDMA bytes disagree with the NIC counters"
    );
    trace::reset();
}

fn cxl_bp_conserves(policy: bufferpool::PolicyKind) {
    let geo_size = 64 + PAGES * (64 + PAGE_SIZE);
    let pool_size = geo_size + 4096;
    let node_cfg = CxlNodeConfig {
        host: 0,
        cache_bytes: 256 << 10,
        capture: false,
        remote_numa: false,
        direct_attach: false,
    };
    let cxl = Rc::new(RefCell::new(CxlPool::new(pool_size as usize, [node_cfg])));
    let mut mgr = CxlMemoryManager::new(pool_size);
    let (lease, _) = mgr
        .allocate(NodeId(0), geo_size, SimTime::ZERO)
        .expect("pool sized for one node");
    let store = PageStore::new(PAGES);
    let mut db = Db::create(
        CxlBp::format_with_policy(
            Rc::clone(&cxl),
            NodeId(0),
            lease.offset,
            PAGES,
            store,
            policy,
        ),
        RECORD,
    );
    db.load(rows());
    cxl.borrow_mut().reset_link_counters();
    trace::reset();
    trace::enable_spans(true);
    trace::enable_attribution(true);
    drive_conserved(&mut db);
    trace::enable_spans(false);
    trace::enable_attribution(false);
    let events = trace::take_events();
    assert_eq!(trace::dropped_events(), 0, "ring overflowed at test scale");
    let span_bytes: u64 = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                SpanKind::CxlRead | SpanKind::CxlWrite | SpanKind::Clflush
            )
        })
        .map(|e| e.bytes)
        .sum();
    assert!(span_bytes > 0, "CXL run moved no cache lines");
    assert_eq!(
        span_bytes,
        cxl.borrow().switch_bytes(),
        "traced CXL bytes disagree with the switch counter"
    );
    assert_eq!(
        cxl.borrow().switch_bytes(),
        cxl.borrow().host_link_bytes(0),
        "single host: every switch byte crossed host 0's link"
    );
    trace::reset();
}

#[test]
fn cxl_bp_conserves_and_span_bytes_match_switch() {
    cxl_bp_conserves(bufferpool::PolicyKind::Lru);
}

#[test]
fn cxl_bp_conserves_under_clock_and_2q() {
    // The eviction policy decides *which* pages move, not how moves are
    // accounted — conservation and the byte cross-check must hold under
    // every pluggable policy.
    cxl_bp_conserves(bufferpool::PolicyKind::Clock);
    cxl_bp_conserves(bufferpool::PolicyKind::TwoQ);
}

/// The adaptive tiered pool conserves too, across DRAM hits, in-place
/// CXL service, storage faults, and — the interesting part — the epoch
/// sweep's batched promotions and demotions, which run *between*
/// operations and must account every migrated nanosecond to a lane.
#[test]
fn adaptive_pool_conserves_including_sweeps() {
    use polarcxlmem::{AdaptivePool, TierConfig};
    use storage::Lsn;
    let ps = 1024u64;
    let mut store = PageStore::with_page_size(128, ps);
    for _ in 0..128 {
        store.allocate();
    }
    let cxl = Rc::new(RefCell::new(CxlPool::single_host(
        1 << 20,
        1,
        64 << 10,
        false,
    )));
    let mut tier = TierConfig::standard(8, 24);
    // Sweep often enough for several epochs at test scale, but not so
    // often that aging outruns the op rate and no page ever stays hot.
    tier.epoch_ns = 500_000;
    let mut pool = AdaptivePool::new(cxl, NodeId(0), 0, tier, store);
    trace::reset();
    trace::enable_attribution(true);
    let mut t = SimTime::ZERO;
    let mut buf = [0u8; 16];
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1_500u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Skewed traffic: mostly a small hot set (so the sweep finds
        // promotion candidates), with a cold tail forcing storage misses
        // and cascading demotions.
        // Decide hot-vs-cold and the page from *different* bits of the
        // LCG state — `rng % 8 == 0` correlates with `rng % 128`.
        let page = PageId(if !rng.is_multiple_of(8) {
            (rng >> 32) % 4
        } else {
            (rng >> 32) % 128
        });
        let before = trace::attr_snapshot();
        let t0 = t;
        t = pool.maybe_sweep(t0);
        t = if i % 3 == 0 {
            pool.write(page, 0, &[i as u8; 16], Lsn(i + 1), t).end
        } else {
            pool.read(page, 0, &mut buf, t).end
        };
        let diff = trace::attr_snapshot().since(&before);
        assert_eq!(
            diff.total_ns(),
            t - t0,
            "op {i}: lane sum {diff:?} != end-to-end latency (sweep included)"
        );
    }
    trace::enable_attribution(false);
    trace::reset();
    assert!(pool.sweeps() > 0, "epochs never elapsed at this scale");
    let s = pool.stats();
    assert!(s.tier_promotes > 0, "sweeps never promoted the hot set");
    assert!(s.tier_demotes > 0, "no demotions despite a cold tail");
}

#[test]
fn rdma_sharing_conserves_every_nanosecond() {
    let page_size = 1024u64;
    let rdma = Rc::new(RefCell::new(RdmaPool::new(1 << 20, 2)));
    let mut store = PageStore::with_page_size(64, page_size);
    for p in 0..32u64 {
        store.allocate();
        store.raw_write_page(PageId(p), &vec![(p % 251) as u8; page_size as usize]);
    }
    let store = Rc::new(RefCell::new(store));
    let mut server = RdmaDbp::new(Rc::clone(&rdma), 0, 0, 48, store);
    let mut a = RdmaSharingNode::new(NodeId(0), 0, 8, page_size);
    let mut b = RdmaSharingNode::new(NodeId(1), 1, 8, page_size);
    trace::reset();
    trace::enable_attribution(true);
    let mut t = SimTime::ZERO;
    let mut buf = [0u8; 64];
    for i in 0..200u64 {
        let page = PageId(i % 32);
        // Reader faults the page in, writer mutates and publishes; the
        // publish fans an invalidation message out to the reader.
        let before = trace::attr_snapshot();
        let t0 = t;
        t = a.read(&mut server, page, 0, &mut buf, t);
        t = b.write(&mut server, page, 0, &[i as u8; 16], t);
        let (targets, t2) = b.publish(&mut server, page, t);
        t = t2;
        for n in &targets {
            assert_eq!(*n, NodeId(0));
            a.invalidate_local(page);
        }
        let diff = trace::attr_snapshot().since(&before);
        assert_eq!(
            diff.total_ns(),
            t - t0,
            "round {i}: lane sum {diff:?} != end-to-end latency"
        );
    }
    assert!(a.stats().invalidations > 0, "protocol never invalidated");
    trace::reset();
}

/// The run-level attribution surfaced by the pooling harness conserves
/// too: the lane sums equal the total of all per-query latencies
/// recorded in the run's histogram window.
#[test]
fn harness_attribution_matches_histogram_total() {
    use workloads::{run_pooling, PoolKind, PoolingConfig, SysbenchKind};
    let mut cfg = PoolingConfig::standard(PoolKind::Cxl, SysbenchKind::ReadWrite, 1);
    cfg.table_size = 4_000;
    cfg.duration = SimTime::from_millis(10);
    trace::reset();
    trace::enable_attribution(true);
    let r = run_pooling(&cfg);
    trace::enable_attribution(false);
    trace::reset();
    let attr = r.attribution.expect("attribution enabled");
    // Workers run past the window edge; the histogram only records
    // queries that *finished* inside it, so attribution (which sees
    // every simulated ns) must be >= the histogram total and close.
    let hist_total: u64 =
        (r.metrics.avg_latency_us * 1e3 * r.metrics.latency.count() as f64) as u64;
    assert!(
        attr.total_ns() >= hist_total * 99 / 100,
        "attribution {} < histogram {}",
        attr.total_ns(),
        hist_total
    );
    // And the registry mirrors the same numbers.
    assert_eq!(
        r.registry.get("attr_total_ns"),
        Some(simkit::stats::MetricValue::Int(attr.total_ns())),
    );
}

/// The `run_sharing` twin of the test above: through the cluster driver
/// the lane totals should cover the latency histogram's total as well.
/// (`SharingResult` carries no registry, so there is no `attr_total_ns`
/// to mirror; the tracer's own snapshot is the run-level figure.) It does
/// not hold yet: distributed-lock waits advance a transaction's clock and
/// land in no lane. Measured at this config — CXL: lanes 160 542 950 ns
/// of a 1 520 019 812 ns histogram total (10.6 %); RDMA: 166 935 306 of
/// 1 594 605 599 (10.5 %); mean lock wait × acquires ≈ 1.37 s / 1.44 s is
/// the whole gap. ROADMAP item 3's lock-wait lane closes it.
#[test]
#[ignore = "lock waits reach no lane: lanes cover 10.6 % (CXL) / 10.5 % (RDMA) of the histogram total — ROADMAP item 3"]
fn sharing_attribution_matches_histogram_total() {
    use workloads::sharing::{point_update_gen, run_sharing, SharingConfig, SharingSystem};
    for system in [
        SharingSystem::Cxl,
        SharingSystem::Rdma { lbp_fraction: 0.3 },
    ] {
        let mut c = SharingConfig::standard(system, 4);
        c.layout.rows_per_group = 1_000;
        c.duration = SimTime::from_millis(20);
        let layout = c.layout;
        trace::reset();
        trace::enable_attribution(true);
        let r = run_sharing(&c, point_update_gen(layout, 40));
        trace::enable_attribution(false);
        let attr = trace::attr_snapshot();
        trace::reset();
        let hist_total: u64 =
            (r.metrics.avg_latency_us * 1e3 * r.metrics.latency.count() as f64) as u64;
        assert!(
            attr.total_ns() >= hist_total * 99 / 100,
            "{system:?}: attribution {} < histogram {} ({:?})",
            attr.total_ns(),
            hist_total,
            attr
        );
    }
}
