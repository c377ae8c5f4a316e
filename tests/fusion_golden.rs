//! Cross-commit golden values for the CXL sharing protocol itself
//! (`polarcxlmem::fusion`).
//!
//! `tests/harness_golden.rs` pins the barrier-stepped harnesses, which
//! reach the serial node API only through warm-up; this file pins the
//! serial `read` / `write` / `publish` / `guarded_*` completion times,
//! every server-side membership operation and the `*_resident` phase API
//! for one scripted two-node + server sequence per [`CoherencyMode`].
//! The values were captured at commit `2dbcc7a`, before `fusion.rs` was
//! split and its serial and phase bodies were merged, so a refactor of
//! that module is checked against the commit that wrote these numbers,
//! not against itself. When the brownout shrink left the server, its
//! step left the script and the values were re-pinned from commit
//! `1586876` running the shortened script (the same dump, less
//! `FusionStats`' three brownout counters). When live migration and the
//! background recycler left the server, their steps (one recycler step,
//! the donor hand-off and its replay, the node's range forget, the
//! second adoption and the slot lookup) left the script and the values
//! were re-pinned from commit `02e59a3` running the shortened script
//! (the same dump, less `FusionStats`' migration counter). Nothing here
//! depends on a cargo feature.
//!
//! Every returned `SimTime` is a line of the dump, followed by
//! `FusionStats`, the three `SharingNodeStats` and the pool's link byte
//! counters. On a mismatch the test prints the whole actual dump.

use polardb_cxl_repro::memsim::CxlNodeConfig;
use polardb_cxl_repro::polarcxlmem::{
    CoherencyMode, FencingPolicy, FusionServer, SharedCxl, SharedStore, SharingNode,
};
use polardb_cxl_repro::prelude::*;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const PAGE: u64 = 1024;
const NSLOTS: u32 = 6;
const FLAGS0: u64 = 64 << 10;
const FLAGS1: u64 = 96 << 10;
const EPOCHS: u64 = 128 << 10;

/// The dump under construction: one `label=ns` line per protocol step.
struct Log(String);

impl Log {
    fn t(&mut self, label: &str, t: SimTime) -> SimTime {
        writeln!(self.0, "{label}={}", t.as_nanos()).unwrap();
        t
    }

    fn line(&mut self, s: String) {
        self.0.push_str(&s);
        self.0.push('\n');
    }
}

fn script(mode: CoherencyMode) -> String {
    // Nodes 0 and 1 are database nodes, node 2 is the fusion server;
    // each sits on its own host behind the switch, caches in capture
    // mode so the bytes read back are part of the pinned behaviour.
    let cfgs: Vec<CxlNodeConfig> = (0..3)
        .map(|host| CxlNodeConfig {
            cache_bytes: 1 << 20,
            capture: true,
            host,
            ..CxlNodeConfig::default()
        })
        .collect();
    let cxl: SharedCxl = Rc::new(RefCell::new(CxlPool::new(4 << 20, &cfgs)));
    let mut store = PageStore::with_page_size(64, PAGE);
    for p in 0..16u64 {
        store.allocate();
        store.raw_write_page(PageId(p), &vec![p as u8 + 1; PAGE as usize]);
    }
    let store: SharedStore = Rc::new(RefCell::new(store));
    let mut server = FusionServer::new(Rc::clone(&cxl), NodeId(2), 0, NSLOTS, store);
    server.enable_fencing(FencingPolicy::Epoch, EPOCHS);

    let mut log = Log(String::new());
    let mut buf = [0u8; 8];
    let mut wide = [0u8; 96];

    // -- registration under fencing ------------------------------------
    let (e0, t) = server.register_node_fenced(NodeId(0), FLAGS0, SimTime::ZERO);
    let t = log.t("register0", t);
    let (e1, t) = server.register_node_fenced(NodeId(1), FLAGS1, t);
    let t = log.t("register1", t);
    let mut n0 = SharingNode::with_mode(NodeId(0), FLAGS0, PAGE, mode);
    let mut n1 = SharingNode::with_mode(NodeId(1), FLAGS1, PAGE, mode);
    n0.enable_fencing(EPOCHS, e0);
    n1.enable_fencing(EPOCHS, e1);
    log.line(format!("grants {e0} {e1}"));

    // -- first touch, local hit ----------------------------------------
    let t = log.t(
        "n0.read.p0.first",
        n0.read(&mut server, PageId(0), 0, &mut buf, t),
    );
    let t = log.t(
        "n1.read.p0.first",
        n1.read(&mut server, PageId(0), 0, &mut buf, t),
    );
    let t = log.t(
        "n0.read.p0.hit",
        n0.read(&mut server, PageId(0), 8, &mut buf, t),
    );
    let (addr, t) = n1.access(&mut server, PageId(1), t);
    log.line(format!("n1.access.p1.addr={addr}"));
    let t = log.t("n1.access.p1", t);
    let (addr, t) = n1.access(&mut server, PageId(1), t);
    log.line(format!("n1.access.p1.again.addr={addr}"));
    let t = log.t("n1.access.p1.again", t);

    // -- cross-node write -> publish -> invalid drop ----------------------
    let t = log.t(
        "n0.write.p0.a",
        n0.write(&mut server, PageId(0), 100, &[0xA1; 10], t),
    );
    let t = log.t(
        "n0.write.p0.b",
        n0.write(&mut server, PageId(0), 600, &[0xA2; 70], t),
    );
    let t = log.t(
        "n1.read.p0.unpublished",
        n1.read(&mut server, PageId(0), 100, &mut buf, t),
    );
    log.line(format!("n1.sees.unpublished={buf:?}"));
    let t = log.t("n0.publish.p0", n0.publish(&mut server, PageId(0), t));
    let t = log.t(
        "n1.read.p0.fresh",
        n1.read(&mut server, PageId(0), 100, &mut buf, t),
    );
    log.line(format!("n1.sees.fresh={buf:?}"));
    let t = log.t(
        "n1.read.p0.wide",
        n1.read(&mut server, PageId(0), 590, &mut wide, t),
    );
    log.line(format!("n1.sees.wide={:?}", &wide[8..16]));
    let t = log.t("n0.publish.p0.clean", n0.publish(&mut server, PageId(0), t));

    // -- guarded ops from a live node ------------------------------------
    let t = log.t("n1.check_epoch", n1.check_epoch(&server, t).expect("live"));
    let t = log.t(
        "n1.guarded_write.p0",
        n1.guarded_write(&mut server, PageId(0), 200, &[0xB1; 130], t)
            .expect("live"),
    );
    let t = log.t(
        "n1.guarded_publish.p0",
        n1.guarded_publish(&mut server, PageId(0), t).expect("live"),
    );
    let t = log.t(
        "n0.read.p0.after_n1",
        n0.read(&mut server, PageId(0), 200, &mut buf, t),
    );
    log.line(format!("n0.sees={buf:?}"));

    // -- allocation pressure -> recycle -> removal reload ------------------
    let mut t = t;
    for p in 2..=7u64 {
        t = log.t(
            &format!("n0.read.p{p}.pressure"),
            n0.read(&mut server, PageId(p), 0, &mut buf, t),
        );
    }
    log.line(format!(
        "dbp in_use={} free={}",
        server.pages_in_use(),
        server.free_slots()
    ));
    let t = log.t(
        "n1.read.p0.reload",
        n1.read(&mut server, PageId(0), 100, &mut buf, t),
    );
    log.line(format!("n1.sees.reload={buf:?}"));
    let t = log.t(
        "n1.read.p1.reload",
        n1.read(&mut server, PageId(1), 0, &mut buf, t),
    );
    let t = log.t(
        "n0.write.p5",
        n0.write(&mut server, PageId(5), 0, &[0xC1; 8], t),
    );
    let t = log.t("n0.publish.p5", n0.publish(&mut server, PageId(5), t));
    let t = log.t(
        "n1.read.p5",
        n1.read(&mut server, PageId(5), 0, &mut buf, t),
    );
    log.line(format!("n1.sees.p5={buf:?}"));

    // -- the recycler on its own ------------------------------------------
    let t = log.t("server.recycle_slot", server.recycle_slot(t));

    // -- fence: the zombie's guarded ops are rejected ----------------------
    let t = log.t(
        "n0.write.p5.prefence",
        n0.write(&mut server, PageId(5), 64, &[0xD1; 8], t),
    );
    let t = log.t("server.fence0", server.fence_node(NodeId(0), t));
    log.t("server.fence0.again", server.fence_node(NodeId(0), t));
    log.line(format!(
        "n0.guarded_write={:?}",
        n0.guarded_write(&mut server, PageId(5), 64, &[0xEE; 8], t)
    ));
    log.line(format!(
        "n0.guarded_publish={:?}",
        n0.guarded_publish(&mut server, PageId(5), t)
    ));
    log.line(format!("n0.check_epoch={:?}", n0.check_epoch(&server, t)));
    // An unguarded late publish still flushes, and the server refuses to
    // signal it.
    let t = log.t(
        "n0.publish.p5.fenced",
        n0.publish(&mut server, PageId(5), t),
    );
    let t = log.t(
        "n1.check_epoch.after",
        n1.check_epoch(&server, t).expect("live"),
    );

    // -- reclaim, re-register, adopt ----------------------------------------
    let t = log.t("server.reclaim0", server.reclaim_node(NodeId(0), t));
    log.line(format!(
        "dbp in_use={} free={}",
        server.pages_in_use(),
        server.free_slots()
    ));
    let (e0b, t) = server.register_node_fenced(NodeId(0), FLAGS0, t);
    let t = log.t("register0.again", t);
    log.line(format!("grant0.again {e0b}"));
    let mut n0b = SharingNode::with_mode(NodeId(0), FLAGS0, PAGE, mode);
    n0b.enable_fencing(EPOCHS, e0b);
    let (adopted, t) = n0b.adopt(&mut server, PageId(0), 8, t);
    log.line(format!("n0b.adopted={adopted}"));
    let t = log.t("n0b.adopt", t);
    let t = log.t(
        "n0b.read.p5",
        n0b.read(&mut server, PageId(5), 0, &mut buf, t),
    );
    log.line(format!("n0b.sees.p5={buf:?}"));
    let t = log.t(
        "n0b.guarded_write.p5",
        n0b.guarded_write(&mut server, PageId(5), 8, &[0xF1; 8], t)
            .expect("resurrected"),
    );
    let t = log.t(
        "n0b.guarded_publish.p5",
        n0b.guarded_publish(&mut server, PageId(5), t)
            .expect("resurrected"),
    );

    // -- the same writes through the phase API, across one barrier -----------
    let (_, t) = n0b.access(&mut server, PageId(5), t);
    let t = log.t("warm.n0b.p5", t);
    let (_, t) = n1.access(&mut server, PageId(5), t);
    let t = log.t("warm.n1.p5", t);
    let (_, t) = n0b.access(&mut server, PageId(4), t);
    let t = log.t("warm.n0b.p4", t);
    let (_, t) = n1.access(&mut server, PageId(4), t);
    let t = log.t("warm.n1.p4", t);
    let dir = server.dir_snapshot();
    log.line(format!(
        "dir len={} active.p5={:?} active.p4={:?}",
        dir.len(),
        dir.active(PageId(5)),
        dir.active(PageId(4))
    ));
    let mut s0 = cxl.borrow_mut().detach_node(NodeId(0));
    let mut s1 = cxl.borrow_mut().detach_node(NodeId(1));
    let ta = log.t(
        "res.n0b.write.a",
        n0b.write_resident(&mut s0, PageId(5), 100, &[0xA1; 10], t),
    );
    let ta = log.t(
        "res.n0b.write.b",
        n0b.write_resident(&mut s0, PageId(5), 600, &[0xA2; 70], ta),
    );
    let ta = log.t(
        "res.n0b.publish",
        n0b.publish_resident(&mut s0, &dir, PageId(5), ta),
    );
    let ta = log.t(
        "res.n0b.guarded_write",
        n0b.guarded_write_resident(&mut s0, PageId(4), 200, &[0xB1; 130], ta)
            .expect("live"),
    );
    let ta = log.t(
        "res.n0b.guarded_publish",
        n0b.guarded_publish_resident(&mut s0, &dir, PageId(4), ta)
            .expect("live"),
    );
    let tb = log.t(
        "res.n1.read.same_quantum",
        n1.read_resident(&mut s1, PageId(5), 100, &mut buf, t),
    );
    log.line(format!("res.n1.sees.same_quantum={buf:?}"));
    let tb = log.t(
        "res.n1.check_epoch",
        n1.check_epoch_resident(&mut s1, tb).expect("live"),
    );
    let (addr, tb) = n1.access_resident(&mut s1, PageId(4), tb);
    log.line(format!("res.n1.access.p4.addr={addr}"));
    let tb = log.t("res.n1.access.p4", tb);
    let mut shards = [s0, s1];
    cxl.borrow_mut().barrier(&mut shards);
    let [mut s0, mut s1] = shards;
    let t = ta.max(tb);
    let tb = log.t(
        "res.n1.read.p5.next_quantum",
        n1.read_resident(&mut s1, PageId(5), 100, &mut buf, t),
    );
    log.line(format!("res.n1.sees.p5={buf:?}"));
    let tb = log.t(
        "res.n1.read.p4.next_quantum",
        n1.read_resident(&mut s1, PageId(4), 200, &mut buf, tb),
    );
    log.line(format!("res.n1.sees.p4={buf:?}"));
    let tb = log.t(
        "res.n1.write.p4",
        n1.write_resident(&mut s1, PageId(4), 0, &[0xC1; 8], tb),
    );
    log.t(
        "res.n1.publish.p4",
        n1.publish_resident(&mut s1, &dir, PageId(4), tb),
    );
    log.t(
        "res.n0b.read.p5.own",
        n0b.read_resident(&mut s0, PageId(5), 600, &mut buf, t),
    );
    let mut shards = [s0, s1];
    cxl.borrow_mut().barrier(&mut shards);
    let [s0, s1] = shards;
    cxl.borrow_mut().attach_node(s0);
    cxl.borrow_mut().attach_node(s1);
    server.absorb_invalidations(n0b.stats().invalidations_sent + n1.stats().invalidations_sent);

    // -- totals -------------------------------------------------------------
    log.line(format!("{:?}", server.stats()));
    log.line(format!("n0 {:?}", n0.stats()));
    log.line(format!("n0b {:?}", n0b.stats()));
    log.line(format!("n1 {:?}", n1.stats()));
    log.line(format!(
        "dbp in_use={} free={}",
        server.pages_in_use(),
        server.free_slots()
    ));
    let pool = cxl.borrow();
    log.line(format!(
        "switch_bytes={} host_link_bytes={:?}",
        pool.switch_bytes(),
        (0..3).map(|h| pool.host_link_bytes(h)).collect::<Vec<_>>()
    ));
    log.0
}

fn check(mode: CoherencyMode, want: &str) {
    let got = script(mode);
    assert_eq!(
        got,
        script(mode),
        "{mode:?}: the script is not deterministic"
    );
    assert!(
        got.trim() == want.trim(),
        "{mode:?}: golden mismatch\n=== actual ===\n{got}=== expected ===\n{}\n",
        want.trim()
    );
}

#[test]
fn software_lines_protocol_is_pinned() {
    check(CoherencyMode::SoftwareLines, SOFTWARE_LINES);
}

#[test]
fn software_full_page_protocol_is_pinned() {
    check(CoherencyMode::SoftwareFullPage, SOFTWARE_FULL_PAGE);
}

const SOFTWARE_LINES: &str = "\
register0=730
register1=1460
grants 0 0
n0.read.p0.first=129416
n1.read.p0.first=156326
n0.read.p0.hit=157030
n1.access.p1.addr=1024
n1.access.p1=284286
n1.access.p1.again.addr=1024
n1.access.p1.again=284986
n0.write.p0.a=286416
n0.write.p0.b=287850
n1.read.p0.unpublished=289250
n1.sees.unpublished=[1, 1, 1, 1, 1, 1, 1, 1]
n0.publish.p0=291534
n1.read.p0.fresh=294144
n1.sees.fresh=[161, 161, 161, 161, 161, 161, 161, 161]
n1.read.p0.wide=295551
n1.sees.wide=[1, 1, 162, 162, 162, 162, 162, 162]
n0.publish.p0.clean=296281
n1.check_epoch=296981
n1.guarded_write.p0=300329
n1.guarded_publish.p0=302587
n0.read.p0.after_n1=305197
n0.sees=[177, 177, 177, 177, 177, 177, 177, 177]
n0.read.p2.pressure=433153
n0.read.p3.pressure=561109
n0.read.p4.pressure=689065
n0.read.p5.pressure=817021
n0.read.p6.pressure=946437
n0.read.p7.pressure=1075123
dbp in_use=6 free=0
n1.read.p0.reload=1204509
n1.sees.reload=[1, 1, 1, 1, 1, 1, 1, 1]
n1.read.p1.reload=1333895
n0.write.p5=1334599
n0.publish.p5=1335359
n1.read.p5=1362269
n1.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
server.recycle_slot=1362999
n0.write.p5.prefence=1364429
server.fence0=1365159
server.fence0.again=1365159
n0.guarded_write=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.guarded_publish=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.check_epoch=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.publish.p5.fenced=1365919
n1.check_epoch.after=1366619
server.reclaim0=1368809
dbp in_use=3 free=3
register0.again=1369539
grant0.again 1
n0b.adopted=3
n0b.adopt=1396713
n0b.read.p5=1398113
n0b.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
n0b.guarded_write.p5=1399517
n0b.guarded_publish.p5=1401707
warm.n0b.p5=1402407
warm.n1.p5=1404317
warm.n0b.p4=1531573
warm.n1.p4=1557783
dir len=4 active.p5=[NodeId(1), NodeId(0)] active.p4=[NodeId(0), NodeId(1)]
res.n0b.write.a=1559213
res.n0b.write.b=1560647
res.n0b.publish=1562931
res.n0b.guarded_write=1565069
res.n0b.guarded_publish=1567327
res.n1.read.same_quantum=1559183
res.n1.sees.same_quantum=[6, 6, 6, 6, 6, 6, 6, 6]
res.n1.check_epoch=1559883
res.n1.access.p4.addr=1024
res.n1.access.p4=1560583
res.n1.read.p5.next_quantum=1569937
res.n1.sees.p5=[161, 161, 161, 161, 161, 161, 161, 161]
res.n1.read.p4.next_quantum=1572547
res.n1.sees.p4=[177, 177, 177, 177, 177, 177, 177, 177]
res.n1.write.p4=1573977
res.n1.publish.p4=1575467
res.n0b.read.p5.own=1568727
FusionStats { rpcs: 15, recycles: 5, invalidations: 7, storage_fills: 11, fenced_nodes: 1, fenced_rejects: 1, reclaimed_slots: 2, reclaimed_flags: 3 }
n0 SharingNodeStats { local_hits: 6, rpcs: 7, invalid_drops: 1, removal_reloads: 0, invalidations_sent: 0 }
n0b SharingNodeStats { local_hits: 7, rpcs: 2, invalid_drops: 0, removal_reloads: 0, invalidations_sent: 2 }
n1 SharingNodeStats { local_hits: 11, rpcs: 4, invalid_drops: 5, removal_reloads: 2, invalidations_sent: 1 }
dbp in_use=4 free=2
switch_bytes=19520 host_link_bytes=[3456, 2688, 13376]
";

const SOFTWARE_FULL_PAGE: &str = "\
register0=730
register1=1460
grants 0 0
n0.read.p0.first=129416
n1.read.p0.first=156326
n0.read.p0.hit=157030
n1.access.p1.addr=1024
n1.access.p1=284286
n1.access.p1.again.addr=1024
n1.access.p1.again=284986
n0.write.p0.a=286416
n0.write.p0.b=287850
n1.read.p0.unpublished=289250
n1.sees.unpublished=[1, 1, 1, 1, 1, 1, 1, 1]
n0.publish.p0=291198
n1.read.p0.fresh=293808
n1.sees.fresh=[161, 161, 161, 161, 161, 161, 161, 161]
n1.read.p0.wide=295215
n1.sees.wide=[1, 1, 162, 162, 162, 162, 162, 162]
n0.publish.p0.clean=295945
n1.check_epoch=296645
n1.guarded_write.p0=299993
n1.guarded_publish.p0=302641
n0.read.p0.after_n1=305251
n0.sees=[177, 177, 177, 177, 177, 177, 177, 177]
n0.read.p2.pressure=433207
n0.read.p3.pressure=561163
n0.read.p4.pressure=689119
n0.read.p5.pressure=817075
n0.read.p6.pressure=946491
n0.read.p7.pressure=1075177
dbp in_use=6 free=0
n1.read.p0.reload=1204563
n1.sees.reload=[1, 1, 1, 1, 1, 1, 1, 1]
n1.read.p1.reload=1333949
n0.write.p5=1334653
n0.publish.p5=1335863
n1.read.p5=1362773
n1.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
server.recycle_slot=1363503
n0.write.p5.prefence=1364933
server.fence0=1365663
server.fence0.again=1365663
n0.guarded_write=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.guarded_publish=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.check_epoch=Err(FencedError { node: NodeId(0), observed_epoch: 1, grant_epoch: 0 })
n0.publish.p5.fenced=1366873
n1.check_epoch.after=1367573
server.reclaim0=1369763
dbp in_use=3 free=3
register0.again=1370493
grant0.again 1
n0b.adopted=3
n0b.adopt=1397667
n0b.read.p5=1399067
n0b.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
n0b.guarded_write.p5=1400471
n0b.guarded_publish.p5=1403111
warm.n0b.p5=1403811
warm.n1.p5=1405721
warm.n0b.p4=1532977
warm.n1.p4=1559187
dir len=4 active.p5=[NodeId(1), NodeId(0)] active.p4=[NodeId(0), NodeId(1)]
res.n0b.write.a=1560617
res.n0b.write.b=1562051
res.n0b.publish=1563999
res.n0b.guarded_write=1566137
res.n0b.guarded_publish=1568785
res.n1.read.same_quantum=1560587
res.n1.sees.same_quantum=[6, 6, 6, 6, 6, 6, 6, 6]
res.n1.check_epoch=1561287
res.n1.access.p4.addr=1024
res.n1.access.p4=1561987
res.n1.read.p5.next_quantum=1571395
res.n1.sees.p5=[161, 161, 161, 161, 161, 161, 161, 161]
res.n1.read.p4.next_quantum=1574005
res.n1.sees.p4=[177, 177, 177, 177, 177, 177, 177, 177]
res.n1.write.p4=1575435
res.n1.publish.p4=1577375
res.n0b.read.p5.own=1570185
FusionStats { rpcs: 15, recycles: 5, invalidations: 7, storage_fills: 11, fenced_nodes: 1, fenced_rejects: 1, reclaimed_slots: 2, reclaimed_flags: 3 }
n0 SharingNodeStats { local_hits: 6, rpcs: 7, invalid_drops: 1, removal_reloads: 0, invalidations_sent: 0 }
n0b SharingNodeStats { local_hits: 7, rpcs: 2, invalid_drops: 0, removal_reloads: 0, invalidations_sent: 2 }
n1 SharingNodeStats { local_hits: 11, rpcs: 4, invalid_drops: 5, removal_reloads: 2, invalidations_sent: 1 }
dbp in_use=4 free=2
switch_bytes=19520 host_link_bytes=[3456, 2688, 13376]
";
