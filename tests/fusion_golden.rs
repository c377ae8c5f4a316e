//! Cross-commit golden values for the CXL sharing protocol itself
//! (`polarcxlmem::fusion`).
//!
//! `tests/harness_golden.rs` pins the barrier-stepped harness, which
//! reaches the serial node API only through warm-up; this file pins the
//! serial `read` / `write` / `publish` / `access` completion times, the
//! server's recycler and the `*_resident` phase API for one scripted
//! two-node + server sequence per [`CoherencyMode`]. The values were
//! first captured at commit `2dbcc7a`, before `fusion.rs` was split and
//! its serial and phase bodies were merged, so a refactor of that module
//! is checked against another commit's numbers, not against itself.
//! When the brownout shrink left the server, its step left the script
//! and the values were re-pinned from commit `1586876` running the
//! shortened script (the same dump, less `FusionStats`' three brownout
//! counters). When live migration and the background recycler left the
//! server, their steps left the script and the values were re-pinned
//! from commit `02e59a3` running the shortened script (the same dump,
//! less `FusionStats`' migration counter). When node failover left
//! (epoch fencing, reclaim and standby adoption), the script lost the
//! fenced registrations, the epoch checks, the fence, the zombie's
//! rejected and late operations, the reclaim, the re-registration and
//! the adoption: both nodes register with `register_node`, the live
//! node's guarded write and publish became a plain write and publish,
//! and node 0 itself runs the phase steps the standby ran. The values
//! were re-pinned from commit `7b6cbd1` running that fence-free script
//! (the same dump, less `FusionStats`' four fencing counters, all 0
//! there). Nothing here depends on a cargo feature.
//!
//! Every returned `SimTime` is a line of the dump, followed by
//! `FusionStats`, the two `SharingNodeStats` and the pool's link byte
//! counters. On a mismatch the test prints the whole actual dump.

use polardb_cxl_repro::memsim::CxlNodeConfig;
use polardb_cxl_repro::polarcxlmem::{
    CoherencyMode, FusionServer, SharedCxl, SharedStore, SharingNode,
};
use polardb_cxl_repro::prelude::*;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

const PAGE: u64 = 1024;
const NSLOTS: u32 = 6;
const FLAGS0: u64 = 64 << 10;
const FLAGS1: u64 = 96 << 10;

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
    server.register_node(NodeId(0), FLAGS0);
    server.register_node(NodeId(1), FLAGS1);
    let mut n0 = SharingNode::with_mode(NodeId(0), FLAGS0, PAGE, mode);
    let mut n1 = SharingNode::with_mode(NodeId(1), FLAGS1, PAGE, mode);

    let mut log = Log(String::new());
    let mut buf = [0u8; 8];
    let mut wide = [0u8; 96];
    let t = SimTime::ZERO;

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

    // -- the other node writes back -----------------------------------------
    let t = log.t(
        "n1.write.p0",
        n1.write(&mut server, PageId(0), 200, &[0xB1; 130], t),
    );
    let t = log.t("n1.publish.p0", n1.publish(&mut server, PageId(0), t));
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
    log.line(format!(
        "dbp in_use={} free={}",
        server.pages_in_use(),
        server.free_slots()
    ));

    // -- the same writes through the phase API, across one barrier -----------
    let (_, t) = n0.access(&mut server, PageId(5), t);
    let t = log.t("warm.n0.p5", t);
    let (_, t) = n1.access(&mut server, PageId(5), t);
    let t = log.t("warm.n1.p5", t);
    let (_, t) = n0.access(&mut server, PageId(4), t);
    let t = log.t("warm.n0.p4", t);
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
        "res.n0.write.a",
        n0.write_resident(&mut s0, PageId(5), 100, &[0xA1; 10], t),
    );
    let ta = log.t(
        "res.n0.write.b",
        n0.write_resident(&mut s0, PageId(5), 600, &[0xA2; 70], ta),
    );
    let ta = log.t(
        "res.n0.publish",
        n0.publish_resident(&mut s0, &dir, PageId(5), ta),
    );
    let ta = log.t(
        "res.n0.write.p4",
        n0.write_resident(&mut s0, PageId(4), 200, &[0xB1; 130], ta),
    );
    let ta = log.t(
        "res.n0.publish.p4",
        n0.publish_resident(&mut s0, &dir, PageId(4), ta),
    );
    let tb = log.t(
        "res.n1.read.same_quantum",
        n1.read_resident(&mut s1, PageId(5), 100, &mut buf, t),
    );
    log.line(format!("res.n1.sees.same_quantum={buf:?}"));
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
        "res.n0.read.p5.own",
        n0.read_resident(&mut s0, PageId(5), 600, &mut buf, t),
    );
    let mut shards = [s0, s1];
    cxl.borrow_mut().barrier(&mut shards);
    let [s0, s1] = shards;
    cxl.borrow_mut().attach_node(s0);
    cxl.borrow_mut().attach_node(s1);
    server.absorb_invalidations(n0.stats().invalidations_sent + n1.stats().invalidations_sent);

    // -- totals -------------------------------------------------------------
    log.line(format!("{:?}", server.stats()));
    log.line(format!("n0 {:?}", n0.stats()));
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
n0.read.p0.first=127956
n1.read.p0.first=154866
n0.read.p0.hit=155570
n1.access.p1.addr=1024
n1.access.p1=282826
n1.access.p1.again.addr=1024
n1.access.p1.again=283526
n0.write.p0.a=284956
n0.write.p0.b=286390
n1.read.p0.unpublished=287790
n1.sees.unpublished=[1, 1, 1, 1, 1, 1, 1, 1]
n0.publish.p0=290074
n1.read.p0.fresh=292684
n1.sees.fresh=[161, 161, 161, 161, 161, 161, 161, 161]
n1.read.p0.wide=294091
n1.sees.wide=[1, 1, 162, 162, 162, 162, 162, 162]
n0.publish.p0.clean=294821
n1.write.p0=297469
n1.publish.p0=299027
n0.read.p0.after_n1=301637
n0.sees=[177, 177, 177, 177, 177, 177, 177, 177]
n0.read.p2.pressure=429593
n0.read.p3.pressure=557549
n0.read.p4.pressure=685505
n0.read.p5.pressure=813461
n0.read.p6.pressure=942877
n0.read.p7.pressure=1071563
dbp in_use=6 free=0
n1.read.p0.reload=1200949
n1.sees.reload=[1, 1, 1, 1, 1, 1, 1, 1]
n1.read.p1.reload=1330335
n0.write.p5=1331039
n0.publish.p5=1331799
n1.read.p5=1358709
n1.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
server.recycle_slot=1359439
dbp in_use=5 free=1
warm.n0.p5=1360139
warm.n1.p5=1360839
warm.n0.p4=1488795
warm.n1.p4=1515005
dir len=6 active.p5=[NodeId(0), NodeId(1)] active.p4=[NodeId(0), NodeId(1)]
res.n0.write.a=1516435
res.n0.write.b=1517869
res.n0.publish=1520153
res.n0.write.p4=1521591
res.n0.publish.p4=1523149
res.n1.read.same_quantum=1516405
res.n1.sees.same_quantum=[6, 6, 6, 6, 6, 6, 6, 6]
res.n1.access.p4.addr=4096
res.n1.access.p4=1517105
res.n1.read.p5.next_quantum=1525759
res.n1.sees.p5=[161, 161, 161, 161, 161, 161, 161, 161]
res.n1.read.p4.next_quantum=1528369
res.n1.sees.p4=[177, 177, 177, 177, 177, 177, 177, 177]
res.n1.write.p4=1529799
res.n1.publish.p4=1531289
res.n0.read.p5.own=1524549
FusionStats { rpcs: 14, recycles: 5, invalidations: 6, storage_fills: 11 }
n0 SharingNodeStats { local_hits: 10, rpcs: 7, invalid_drops: 1, removal_reloads: 1, invalidations_sent: 2 }
n1 SharingNodeStats { local_hits: 11, rpcs: 4, invalid_drops: 4, removal_reloads: 2, invalidations_sent: 1 }
dbp in_use=6 free=0
switch_bytes=17664 host_link_bytes=[2624, 2304, 12736]
";

const SOFTWARE_FULL_PAGE: &str = "\
n0.read.p0.first=127956
n1.read.p0.first=154866
n0.read.p0.hit=155570
n1.access.p1.addr=1024
n1.access.p1=282826
n1.access.p1.again.addr=1024
n1.access.p1.again=283526
n0.write.p0.a=284956
n0.write.p0.b=286390
n1.read.p0.unpublished=287790
n1.sees.unpublished=[1, 1, 1, 1, 1, 1, 1, 1]
n0.publish.p0=289738
n1.read.p0.fresh=292348
n1.sees.fresh=[161, 161, 161, 161, 161, 161, 161, 161]
n1.read.p0.wide=293755
n1.sees.wide=[1, 1, 162, 162, 162, 162, 162, 162]
n0.publish.p0.clean=294485
n1.write.p0=297133
n1.publish.p0=299081
n0.read.p0.after_n1=301691
n0.sees=[177, 177, 177, 177, 177, 177, 177, 177]
n0.read.p2.pressure=429647
n0.read.p3.pressure=557603
n0.read.p4.pressure=685559
n0.read.p5.pressure=813515
n0.read.p6.pressure=942931
n0.read.p7.pressure=1071617
dbp in_use=6 free=0
n1.read.p0.reload=1201003
n1.sees.reload=[1, 1, 1, 1, 1, 1, 1, 1]
n1.read.p1.reload=1330389
n0.write.p5=1331093
n0.publish.p5=1332303
n1.read.p5=1359213
n1.sees.p5=[193, 193, 193, 193, 193, 193, 193, 193]
server.recycle_slot=1359943
dbp in_use=5 free=1
warm.n0.p5=1360643
warm.n1.p5=1361343
warm.n0.p4=1489299
warm.n1.p4=1515509
dir len=6 active.p5=[NodeId(0), NodeId(1)] active.p4=[NodeId(0), NodeId(1)]
res.n0.write.a=1516939
res.n0.write.b=1518373
res.n0.publish=1520321
res.n0.write.p4=1521759
res.n0.publish.p4=1523707
res.n1.read.same_quantum=1516909
res.n1.sees.same_quantum=[6, 6, 6, 6, 6, 6, 6, 6]
res.n1.access.p4.addr=4096
res.n1.access.p4=1517609
res.n1.read.p5.next_quantum=1526317
res.n1.sees.p5=[161, 161, 161, 161, 161, 161, 161, 161]
res.n1.read.p4.next_quantum=1528927
res.n1.sees.p4=[177, 177, 177, 177, 177, 177, 177, 177]
res.n1.write.p4=1530357
res.n1.publish.p4=1532297
res.n0.read.p5.own=1525107
FusionStats { rpcs: 14, recycles: 5, invalidations: 6, storage_fills: 11 }
n0 SharingNodeStats { local_hits: 10, rpcs: 7, invalid_drops: 1, removal_reloads: 1, invalidations_sent: 2 }
n1 SharingNodeStats { local_hits: 11, rpcs: 4, invalid_drops: 4, removal_reloads: 2, invalidations_sent: 1 }
dbp in_use=6 free=0
switch_bytes=17664 host_link_bytes=[2624, 2304, 12736]
";
