//! The RDMA disaggregated-memory baseline fabric (§2.2).
//!
//! [`RdmaPool`] is the remote memory node reachable over per-host RDMA
//! NICs. Unlike CXL there is no load/store path: data must be *moved* —
//! whole buffers are DMA-copied between the remote region and local
//! DRAM, paying the Table 2 latency profile and consuming NIC bandwidth
//! (12 GB/s per direction on a ConnectX-6). The per-op serialization term
//! models doorbell/WQE contention, the reason IOPS-bound RDMA stops
//! scaling (§2.2, limitation 3).

use crate::calib::{RDMA_NIC_GBPS, RDMA_PER_OP_NS, RDMA_READ_BASE_NS, RDMA_WRITE_BASE_NS};
use crate::region::Region;
use crate::shard::{RegionReader, WriteLog};
use crate::Access;
use simkit::faults::{self, FaultSite};
use simkit::trace::{self, Lane, SpanKind};
use simkit::{Link, LinkFork, SimTime};

/// Charge a bulk transfer to a NIC pipe: the single timed body shared by
/// the pool and the per-node shard, so both paths cost identically.
fn charge_nic(link: &mut Link, kind: SpanKind, host: usize, len: u64, now: SimTime) -> Access {
    let _prof = simkit::profile::scope(simkit::profile::Subsys::Rdma);
    let g = link.transfer(now, len);
    // Attribution leaf: the whole delta (protocol base + per-op +
    // bandwidth queueing) is NIC time.
    trace::attr_add(Lane::RdmaNic, g.end.saturating_since(now));
    trace::span(kind, host as u32, now, g.end, len);
    Access {
        end: g.end,
        link_bytes: len,
        hits: 0,
        misses: 0,
    }
}

/// Fault site and span kind of the two bulk directions.
const PAGE_IN: (FaultSite, SpanKind) = (FaultSite::RdmaRead, SpanKind::RdmaPageIn);
const PAGE_OUT: (FaultSite, SpanKind) = (FaultSite::RdmaWrite, SpanKind::RdmaPageOut);

/// Gate the direction's site, then charge `len` bytes to a NIC pipe:
/// the one gate/charge body behind every bulk transfer of the pool and
/// of a shard. Moves no bytes. A crash at the gate unwinds before
/// anything is timed, so a write never reaches the remote node.
#[inline]
fn gated_transfer(
    link: &mut Link,
    (site, kind): (FaultSite, SpanKind),
    host: usize,
    len: u64,
    now: SimTime,
) -> Access {
    faults::gate(site);
    charge_nic(link, kind, host, len, now)
}

/// A small control message on a NIC's tx pipe — costs a round trip but
/// no bulk bandwidth. Shared body of [`RdmaPool::message`] and
/// [`RdmaShard::message`].
fn message_on(tx: &mut Link, host: usize, now: SimTime) -> SimTime {
    let end = tx.transfer(now, 64).end;
    trace::attr_add(Lane::RdmaNic, end.saturating_since(now));
    trace::span(SpanKind::RdmaMsg, host as u32, now, end, 64);
    end
}

/// The RDMA operations node-level database code issues, abstracted over
/// the serial pool and a phase-private [`RdmaShard`]. Drivers hand nodes
/// whichever implementation matches the execution mode; both charge the
/// identical timed bodies. Bulk transfers are split the way DESIGN.md's
/// "timing plane vs data plane" splits them: the `*_timing` methods
/// charge a transfer of any length and move nothing, `peek`/`poke` move
/// bytes and cost nothing — so a caller can model a whole-page transfer
/// while touching only the bytes it needs.
pub trait RdmaFabric {
    /// Charge a `len`-byte RDMA read to `host`'s NIC.
    fn read_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access;
    /// Charge a `len`-byte RDMA write to `host`'s NIC. A crash here
    /// unwinds before the caller can [`poke`](Self::poke) the bytes.
    fn write_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access;
    /// Untimed copy of the remote bytes at `off` as this view sees them:
    /// its own stores at once, peers' stores once they landed.
    fn peek(&self, off: u64, buf: &mut [u8]);
    /// Untimed store of `data` at remote `off`: lands at once on the
    /// pool, at the next barrier from a shard.
    fn poke(&mut self, off: u64, data: &[u8]);
    /// Control message on `host`'s NIC.
    fn message(&mut self, host: usize, now: SimTime) -> SimTime;
}

/// Remote memory pool behind per-host RDMA NICs.
#[derive(Debug)]
pub struct RdmaPool {
    region: Region,
    /// Per host: (read-direction link, write-direction link). Full-duplex
    /// NIC modelled as two pipes.
    nics: Vec<(Link, Link)>,
}

impl RdmaPool {
    /// A pool of `size` bytes reachable from `hosts` hosts.
    pub fn new(size: usize, hosts: usize) -> Self {
        assert!(hosts > 0);
        RdmaPool {
            // The remote memory node is a separate machine: it survives
            // *compute host* crashes (like the paper's RDMA baselines).
            region: Region::persistent(size),
            nics: (0..hosts)
                .map(|_| {
                    (
                        Link::new("rdma-rx", RDMA_NIC_GBPS)
                            .with_per_op_overhead(RDMA_PER_OP_NS)
                            .with_propagation(RDMA_READ_BASE_NS),
                        Link::new("rdma-tx", RDMA_NIC_GBPS)
                            .with_per_op_overhead(RDMA_PER_OP_NS)
                            .with_propagation(RDMA_WRITE_BASE_NS),
                    )
                })
                .collect(),
        }
    }

    /// Pool size in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// True when zero-sized.
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Raw region (tests / bulk load, no timing).
    pub fn raw(&self) -> &Region {
        &self.region
    }

    /// Raw mutable region (no timing).
    pub fn raw_mut(&mut self) -> &mut Region {
        &mut self.region
    }

    /// RDMA read: copy `buf.len()` bytes from remote `off` into `buf`
    /// over `host`'s NIC.
    pub fn read(&mut self, host: usize, off: u64, buf: &mut [u8], now: SimTime) -> Access {
        let a = self.read_timing(host, buf.len() as u64, now);
        self.region.read(off, buf);
        a
    }

    /// RDMA write: copy `data` to remote `off` over `host`'s NIC.
    pub fn write(&mut self, host: usize, off: u64, data: &[u8], now: SimTime) -> Access {
        let a = self.write_timing(host, data.len() as u64, now);
        self.region.write(off, data);
        a
    }

    /// A small control message (e.g. a page-invalidation RPC in the
    /// RDMA-based coherency protocol) — costs a round trip but no bulk
    /// bandwidth.
    pub fn message(&mut self, host: usize, now: SimTime) -> SimTime {
        message_on(&mut self.nics[host].1, host, now)
    }

    /// Bytes moved through a host's NIC (both directions).
    pub fn nic_bytes(&self, host: usize) -> u64 {
        self.nics[host].0.bytes() + self.nics[host].1.bytes()
    }

    /// Total bytes through every NIC.
    pub fn total_bytes(&self) -> u64 {
        (0..self.nics.len()).map(|h| self.nic_bytes(h)).sum()
    }

    /// Reset NIC byte counters and backlog clocks (between an untimed
    /// setup phase and a measurement window).
    pub fn reset_link_counters(&mut self) {
        for (rx, tx) in &mut self.nics {
            rx.reset_counters();
            rx.reset_queue();
            tx.reset_counters();
            tx.reset_queue();
        }
    }

    /// Detach a phase-private view for the node on `host`, whose page
    /// fills, writebacks and region traffic use its own NIC pair and
    /// whose invalidation fan-out rides the coherency server's tx NIC on
    /// `server_host`. Shards step concurrently between barriers; the
    /// pool must not be timed against either host until
    /// [`RdmaPool::barrier`] or [`RdmaPool::attach_host`] reconciles.
    pub fn detach_host(&mut self, host: usize, server_host: usize) -> RdmaShard {
        assert_ne!(
            host, server_host,
            "a shard's host must not be the server host"
        );
        RdmaShard {
            host,
            server_host,
            rx: self.nics[host].0.fork(),
            tx: self.nics[host].1.fork(),
            server_tx: self.nics[server_host].1.fork(),
            reader: RegionReader::new(&self.region),
            log: WriteLog::new(),
        }
    }

    /// Virtual-time barrier: commit every shard's quantum in the given
    /// (fixed) order — merge NIC forks, apply write logs — then refresh
    /// each shard's forks and region reader for the next quantum.
    pub fn barrier(&mut self, shards: &mut [RdmaShard]) {
        for s in shards.iter_mut() {
            self.nics[s.host].0.merge(&s.rx);
            self.nics[s.host].1.merge(&s.tx);
            self.nics[s.server_host].1.merge(&s.server_tx);
            s.log.apply(&mut self.region);
        }
        for s in shards.iter_mut() {
            s.rx = self.nics[s.host].0.fork();
            s.tx = self.nics[s.host].1.fork();
            s.server_tx = self.nics[s.server_host].1.fork();
            s.reader = RegionReader::new(&self.region);
        }
    }

    /// Permanently reabsorb a shard (end of the parallel section or a
    /// node leaving the cluster): merge its forks and apply its log.
    pub fn attach_host(&mut self, mut shard: RdmaShard) {
        self.nics[shard.host].0.merge(&shard.rx);
        self.nics[shard.host].1.merge(&shard.tx);
        self.nics[shard.server_host].1.merge(&shard.server_tx);
        shard.log.apply(&mut self.region);
    }
}

impl RdmaFabric for RdmaPool {
    fn read_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access {
        gated_transfer(&mut self.nics[host].0, PAGE_IN, host, len, now)
    }
    fn write_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access {
        gated_transfer(&mut self.nics[host].1, PAGE_OUT, host, len, now)
    }
    fn peek(&self, off: u64, buf: &mut [u8]) {
        self.region.read(off, buf);
    }
    fn poke(&mut self, off: u64, data: &[u8]) {
        self.region.write(off, data);
    }
    fn message(&mut self, host: usize, now: SimTime) -> SimTime {
        RdmaPool::message(self, host, now)
    }
}

/// One node's phase-private view of the RDMA pool (see
/// [`RdmaPool::detach_host`]): forked NIC pipes with cumulative-capacity
/// merge semantics, a raw read window over the remote region and a write
/// log committed at the barrier. Timing bodies are shared with the pool,
/// so a 1-worker phased run and an N-worker phased run charge bit-equal
/// costs.
#[derive(Debug)]
pub struct RdmaShard {
    host: usize,
    server_host: usize,
    rx: LinkFork,
    tx: LinkFork,
    server_tx: LinkFork,
    reader: RegionReader,
    log: WriteLog,
}

impl RdmaShard {
    /// The compute host this shard fronts.
    pub fn host(&self) -> usize {
        self.host
    }
}

impl RdmaFabric for RdmaShard {
    fn read_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access {
        debug_assert_eq!(host, self.host);
        gated_transfer(&mut self.rx, PAGE_IN, host, len, now)
    }

    fn write_timing(&mut self, host: usize, len: u64, now: SimTime) -> Access {
        debug_assert_eq!(host, self.host);
        gated_transfer(&mut self.tx, PAGE_OUT, host, len, now)
    }

    /// Base bytes as of the last barrier, patched with this shard's own
    /// pending stores.
    fn peek(&self, off: u64, buf: &mut [u8]) {
        self.log.read_through(&self.reader, off, buf);
    }

    /// The store lands in the shard's log and reaches the shared region
    /// at the next barrier.
    fn poke(&mut self, off: u64, data: &[u8]) {
        self.log.write(off, data);
    }

    /// Control messages always ride the coherency server's tx NIC — the
    /// one deliberately shared pipe, merged with cumulative capacity at
    /// the barrier.
    fn message(&mut self, host: usize, now: SimTime) -> SimTime {
        debug_assert_eq!(host, self.server_host);
        message_on(&mut self.server_tx, host, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::PAGE_SIZE;
    use simkit::dur;

    #[test]
    fn roundtrip() {
        let mut p = RdmaPool::new(1 << 20, 1);
        p.write(0, 4096, b"remote", SimTime::ZERO);
        let mut buf = [0u8; 6];
        p.read(0, 4096, &mut buf, SimTime::ZERO);
        assert_eq!(&buf, b"remote");
    }

    #[test]
    fn a_crash_at_a_write_lands_nothing() {
        use simkit::faults::{self, FaultPlan};
        faults::clear();
        let mut p = RdmaPool::new(1 << 20, 1);
        p.write(0, 0, b"keep", SimTime::ZERO);
        let nic = p.nic_bytes(0);
        faults::install(FaultPlan::crash_at_hit(0));
        // The first gate poll crashes the host: the write unwinds before
        // it is timed or lands.
        let crash = faults::catch(|| p.write(0, 0, b"lost", SimTime(9)));
        assert_eq!(crash, Err(faults::Crashed));
        faults::clear();
        let mut buf = [0u8; 4];
        p.read(0, 0, &mut buf, SimTime(9));
        assert_eq!(&buf, b"keep");
        assert_eq!(p.nic_bytes(0), nic + 4, "only the read was charged");
    }

    #[test]
    fn latency_matches_table2() {
        let mut p = RdmaPool::new(1 << 20, 1);
        let mut b64 = [0u8; 64];
        let r64 = p.read(0, 0, &mut b64, SimTime::ZERO).end.as_nanos();
        // Paper: 4.55 µs.
        assert!((4_200..5_100).contains(&r64), "{r64}");
        let mut p2 = RdmaPool::new(1 << 20, 1);
        let mut b16k = vec![0u8; PAGE_SIZE as usize];
        let r16k = p2.read(0, 0, &mut b16k, SimTime::ZERO).end.as_nanos();
        // Paper: 7.13 µs; the fit is conservative-low but well-ordered.
        assert!((5_500..7_500).contains(&r16k), "{r16k}");
        assert!(r16k > r64);
    }

    #[test]
    fn nic_is_a_shared_bottleneck() {
        let mut p = RdmaPool::new(1 << 24, 1);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        // Issue 1000 page reads at t=0: they serialize on the pipe.
        let mut last = SimTime::ZERO;
        for i in 0..1000 {
            last = p.read(0, i * PAGE_SIZE, &mut buf, SimTime::ZERO).end;
        }
        // 1000 * (250ns + 16384/12 ns) ≈ 1.6 ms of pipe time.
        assert!(last.as_nanos() > dur::MS, "{last}");
        assert_eq!(p.nic_bytes(0), 1000 * PAGE_SIZE);
    }

    #[test]
    fn hosts_have_independent_nics() {
        let mut p = RdmaPool::new(1 << 24, 2);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let a = p.read(0, 0, &mut buf, SimTime::ZERO).end;
        let b = p.read(1, 0, &mut buf, SimTime::ZERO).end;
        // No cross-host queueing.
        assert_eq!(a, b);
    }

    #[test]
    fn shard_writes_commit_at_the_barrier_in_host_order() {
        let mut p = RdmaPool::new(1 << 20, 3);
        p.write(2, 0, &[9u8; 8], SimTime::ZERO);
        let mut s0 = p.detach_host(0, 2);
        let mut s1 = p.detach_host(1, 2);
        s0.poke(0, &[1u8; 8]);
        s1.poke(4, &[2u8; 8]);
        // Own writes visible immediately; the peer's not yet.
        let mut b = [0u8; 8];
        s0.peek(0, &mut b);
        assert_eq!(b, [1u8; 8]);
        s1.peek(0, &mut b);
        assert_eq!(b, [9, 9, 9, 9, 2, 2, 2, 2]);
        // The region still holds the pre-phase bytes.
        let mut r = [0u8; 8];
        p.raw().read(0, &mut r);
        assert_eq!(r, [9u8; 8]);
        // Barrier: host order fixes the overlap (s1's store lands last).
        let mut shards = [s0, s1];
        p.barrier(&mut shards);
        let mut r = [0u8; 12];
        p.raw().read(0, &mut r);
        assert_eq!(r, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn shard_nic_backlog_merges_to_the_serial_total() {
        // Serial reference.
        let mut serial = RdmaPool::new(1 << 24, 3);
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        for _ in 0..4 {
            serial.read(0, 0, &mut buf, SimTime::ZERO);
        }
        // Phased: the same four reads via a shard, committed at a barrier.
        let mut p = RdmaPool::new(1 << 24, 3);
        let mut s0 = p.detach_host(0, 2);
        let mut last = SimTime::ZERO;
        for _ in 0..4 {
            last = s0.read_timing(0, PAGE_SIZE, SimTime::ZERO).end;
        }
        p.attach_host(s0);
        // Backlog and counters equal the serial run's.
        assert_eq!(p.nic_bytes(0), serial.nic_bytes(0));
        let probe = p.read(0, 0, &mut buf, SimTime::ZERO).end;
        let probe_serial = serial.read(0, 0, &mut buf, SimTime::ZERO).end;
        assert_eq!(probe, probe_serial);
        assert!(probe > last, "the fifth read queues behind the merged four");
    }

    #[test]
    fn shard_messages_share_the_server_nic() {
        let mut p = RdmaPool::new(1 << 20, 3);
        let mut s0 = p.detach_host(0, 2);
        let mut s1 = p.detach_host(1, 2);
        use super::RdmaFabric;
        s0.message(2, SimTime::ZERO);
        s1.message(2, SimTime::ZERO);
        let before = p.nic_bytes(2);
        p.attach_host(s0);
        p.attach_host(s1);
        // Both messages land on the server host's tx pipe.
        assert_eq!(p.nic_bytes(2), before + 128);
        // And the serial-equivalent backlog: a third message queues
        // behind both, exactly as if all three were sent on the pool.
        let mut serial = RdmaPool::new(1 << 20, 3);
        serial.message(2, SimTime::ZERO);
        serial.message(2, SimTime::ZERO);
        assert_eq!(
            p.message(2, SimTime::ZERO),
            serial.message(2, SimTime::ZERO)
        );
    }

    #[test]
    fn duplex_directions_do_not_queue_each_other() {
        let mut p = RdmaPool::new(1 << 24, 1);
        let big = vec![0u8; 1 << 20];
        let w = p.write(0, 0, &big, SimTime::ZERO).end;
        let mut buf = vec![0u8; 1 << 20];
        let r = p.read(0, 0, &mut buf, SimTime::ZERO).end;
        // Both directions start at t=0 and take similar time.
        let ratio = w.as_nanos() as f64 / r.as_nanos() as f64;
        assert!((0.9..1.1).contains(&ratio), "{ratio}");
    }
}
