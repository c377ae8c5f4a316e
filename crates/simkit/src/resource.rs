//! Virtual-time resources: multi-server queues and bandwidth links.
//!
//! These are the two queueing primitives every throughput figure in the
//! paper rests on. A [`MultiServer`] models a pool of identical servers
//! (e.g. the 16 vCPUs of one database instance); a [`Link`] models a
//! shared bandwidth pipe (an RDMA NIC, a CXL x16 host link, an NVMe
//! channel). Both grant service in virtual time: callers pass "now" and a
//! demand, and get back the interval during which the demand is served —
//! queueing delay emerges when the resource is busy.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A grant returned by a resource: the demand is served during
/// `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually begins (>= the requested time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

/// A pool of `k` identical servers with a shared queue
/// (an M/G/k-style station in virtual time).
///
/// Used to model instance CPUs: each operation demands some service time;
/// when all servers are busy the operation waits for the earliest one.
///
/// Like [`Link`], each server's clock advances by *occupancy only* and is
/// never ratcheted up to the request time: run-to-completion callers
/// issue requests with locally-chained (out-of-order) timestamps, and a
/// ratcheting queue would burn the idle window in front of every
/// late-chained request, silently destroying capacity. With cumulative
/// accounting, requests start immediately while aggregate demand is below
/// `k` servers' worth of work and queue once it exceeds it.
#[derive(Debug, Clone)]
pub struct MultiServer {
    /// Earliest availability of each server (min-heap).
    free_at: BinaryHeap<Reverse<u64>>,
}

impl MultiServer {
    /// Create a station with `servers` identical servers, all idle at t=0.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(Reverse(0));
        }
        MultiServer { free_at }
    }

    /// Request `service_ns` of exclusive service starting no earlier than
    /// `now`. Returns the granted interval and occupies the chosen server.
    pub fn acquire(&mut self, now: SimTime, service_ns: u64) -> Grant {
        // Replacing the root in place via `peek_mut` (one sift-down on
        // drop) halves the heap traffic of the pop-then-push
        // equivalent, and with one server — or an idle pool — the
        // sift-down is a no-op. The chosen server and the grant
        // arithmetic are identical, so every simulation result is
        // unchanged.
        let mut top = self
            .free_at
            .peek_mut()
            .expect("heap always has `servers` entries");
        let Reverse(free) = *top;
        let start = now.max(SimTime(free));
        let end = start + service_ns;
        // Cumulative capacity accounting (see type docs): the server's
        // backlog clock grows by its occupancy, not to `now`.
        *top = Reverse(free + service_ns);
        drop(top);
        // Attribution leaf: service plus any queue wait is CPU time
        // (`start >= now`, so the delta is exact).
        crate::trace::attr_add(crate::trace::Lane::Cpu, end.saturating_since(now));
        Grant { start, end }
    }
}

/// A shared bandwidth pipe modelled as a cumulative-capacity queue.
///
/// A transfer of `s` bytes on a link with capacity `B` (GB/s) requested
/// at `t` starts at `max(t, backlog_end)`, occupies the pipe for `s / B`
/// (+ a fixed per-op term), and optionally pays a propagation latency
/// *after* leaving the pipe. The backlog clock advances only by
/// *occupancy* — it is deliberately **not** ratcheted up to request
/// times. This makes the queue order-insensitive: callers in a
/// run-to-completion virtual-time simulation issue transfers with
/// locally-chained (and therefore slightly out-of-order) timestamps, and
/// a FIFO that ratchets to the latest timestamp would serialize them
/// spuriously. The cumulative model preserves exactly the property the
/// experiments need: completion times stay near `t + s/B` while total
/// demand is below capacity, and grow without bound once aggregate
/// demand exceeds what the pipe can move (saturation).
///
/// The `per_op_overhead_ns` term models fixed per-operation costs that
/// also serialize on the device (e.g. RDMA doorbell ringing / WQE
/// processing), which is what makes IOPS-bound RDMA workloads stop
/// scaling.
#[derive(Debug, Clone)]
pub struct Link {
    name: &'static str,
    /// Capacity in bytes per nanosecond (== GB/s decimal).
    gbps: f64,
    /// Fixed pipe occupancy per transfer, ns.
    per_op_overhead_ns: u64,
    /// Propagation delay added after the pipe, ns (does not consume pipe).
    propagation_ns: u64,
    free_at: SimTime,
    bytes: u64,
    /// Recent `(bytes, transfer_ns(bytes, gbps))` results, direct-mapped
    /// on the size in cache lines. A link carries a handful of sizes (one
    /// to four 64 B lines, 16 KB pages), and the formula's `f64::round` is
    /// a libm call on baseline x86-64; a memo entry is the formula's own
    /// earlier result, so it is exact.
    transfer_memo: [(u64, u64); 4],
}

impl Link {
    /// Create a link. `gbps` is decimal gigabytes per second, i.e. bytes
    /// per nanosecond.
    pub fn new(name: &'static str, gbps: f64) -> Self {
        assert!(gbps > 0.0, "link capacity must be positive");
        Link {
            name,
            gbps,
            per_op_overhead_ns: 0,
            propagation_ns: 0,
            free_at: SimTime::ZERO,
            bytes: 0,
            // `transfer_ns(0, _)` is 0 for every capacity.
            transfer_memo: [(0, 0); 4],
        }
    }

    /// Builder: fixed per-transfer pipe occupancy (serializing).
    pub fn with_per_op_overhead(mut self, ns: u64) -> Self {
        self.per_op_overhead_ns = ns;
        self
    }

    /// Builder: propagation delay appended after pipe service.
    pub fn with_propagation(mut self, ns: u64) -> Self {
        self.propagation_ns = ns;
        self
    }

    /// Link name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Pipe time for `bytes` at this link's capacity:
    /// [`dur::transfer_ns`](crate::time::dur::transfer_ns), memoised.
    #[inline]
    fn transfer_ns(&mut self, bytes: u64) -> u64 {
        let memo = &mut self.transfer_memo[(bytes >> 6) as usize & 3];
        if memo.0 != bytes {
            *memo = (bytes, crate::time::dur::transfer_ns(bytes, self.gbps));
        }
        memo.1
    }

    /// Queue a transfer of `bytes` requested at `now`. Returns the grant;
    /// `grant.end` includes propagation delay.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Grant {
        let _prof = crate::profile::scope(crate::profile::Subsys::Link);
        let start = now.max(self.free_at);
        let occupy = self.per_op_overhead_ns + self.transfer_ns(bytes);
        let pipe_done = start + occupy;
        // Cumulative capacity accounting (see type docs): the backlog
        // clock grows by occupancy only, never ratchets to `now`.
        self.free_at += occupy;
        self.bytes += bytes;
        Grant {
            start,
            end: pipe_done + self.propagation_ns,
        }
    }

    /// Reset the backlog clock (and nothing else) — used between an
    /// untimed setup phase and a measured window so the setup's
    /// accumulated occupancy does not leak into measurements.
    pub fn reset_queue(&mut self) {
        self.free_at = SimTime::ZERO;
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Reset the byte counter (used between measurement windows)
    /// without releasing the queue state.
    pub fn reset_counters(&mut self) {
        self.bytes = 0;
    }

    /// Fork a private proxy of this link for barrier-synchronized
    /// parallel stepping: one node charges its quantum's transfers
    /// against the proxy, and [`Link::merge`] folds the accumulated
    /// *deltas* back at the barrier in fixed node order.
    ///
    /// This is sound precisely because the backlog clock is cumulative
    /// (never ratcheted to request times, see the type docs): each
    /// transfer advances `free_at` by its occupancy only, so the final
    /// clock is `Σ occupancy` regardless of interleaving. Summing each
    /// fork's occupancy delta reproduces the clock any serial schedule
    /// of the same transfers would have produced; grant *start* times
    /// within a quantum may lag peers' same-quantum traffic by at most
    /// one barrier interval, whatever the lane order.
    pub fn fork(&self) -> LinkFork {
        LinkFork {
            link: self.clone(),
            base_free_at: self.free_at,
            base_bytes: self.bytes,
        }
    }

    /// Fold a fork's deltas back into the shared link (see
    /// [`Link::fork`]).
    pub fn merge(&mut self, fork: &LinkFork) {
        self.free_at += fork.link.free_at.saturating_since(fork.base_free_at);
        self.bytes += fork.link.bytes - fork.base_bytes;
    }
}

/// A forked [`Link`] proxy (see [`Link::fork`]). Dereferences to the
/// private clone so callers charge transfers exactly as they would on
/// the shared link.
#[derive(Debug)]
pub struct LinkFork {
    link: Link,
    base_free_at: SimTime,
    base_bytes: u64,
}

impl std::ops::Deref for LinkFork {
    type Target = Link;
    fn deref(&self) -> &Link {
        &self.link
    }
}

impl std::ops::DerefMut for LinkFork {
    fn deref_mut(&mut self) -> &mut Link {
        &mut self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;

    #[test]
    fn single_server_serializes() {
        let mut cpu = MultiServer::new(1);
        let g1 = cpu.acquire(SimTime::ZERO, 100);
        let g2 = cpu.acquire(SimTime::ZERO, 100);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g1.end, SimTime(100));
        // Second request queues behind the first.
        assert_eq!(g2.start, SimTime(100));
        assert_eq!(g2.end, SimTime(200));
        assert_eq!(g2.start.saturating_since(SimTime::ZERO), 100);
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let mut cpu = MultiServer::new(2);
        let g1 = cpu.acquire(SimTime::ZERO, 100);
        let g2 = cpu.acquire(SimTime::ZERO, 100);
        let g3 = cpu.acquire(SimTime::ZERO, 100);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, SimTime::ZERO);
        // Third waits for whichever finishes first.
        assert_eq!(g3.start, SimTime(100));
    }

    #[test]
    fn idle_gaps_do_not_accumulate() {
        let mut cpu = MultiServer::new(1);
        cpu.acquire(SimTime(0), 10);
        // Request long after the first finished: starts immediately.
        let g = cpu.acquire(SimTime(1000), 10);
        assert_eq!(g.start, SimTime(1000));
    }

    #[test]
    fn link_fifo_and_bandwidth() {
        let mut nic = Link::new("rdma", 12.0);
        let g1 = nic.transfer(SimTime::ZERO, 12_000); // 1000 ns of pipe
        let g2 = nic.transfer(SimTime::ZERO, 12_000);
        assert_eq!(g1.end, SimTime(1000));
        assert_eq!(g2.start, SimTime(1000));
        assert_eq!(g2.end, SimTime(2000));
        assert_eq!(nic.bytes(), 24_000);
    }

    #[test]
    fn link_overheads() {
        let mut nic = Link::new("rdma", 12.0)
            .with_per_op_overhead(100)
            .with_propagation(2_000);
        let g = nic.transfer(SimTime::ZERO, 12_000);
        // pipe: 100 + 1000; then +2000 propagation
        assert_eq!(g.end, SimTime(3_100));
        // Propagation is not pipe occupancy: the next transfer can start
        // as soon as the pipe drains.
        let g2 = nic.transfer(SimTime::ZERO, 0);
        assert_eq!(g2.start, SimTime(1_100));
    }

    #[test]
    fn memoised_transfer_time_equals_the_formula() {
        // A seeded mix dominated by the sizes real links carry (a few 64 B
        // lines, 16 KB pages) with odd sizes, repeats and memo-slot
        // collisions in between: every grant must be what the
        // un-memoised formula gives.
        let mut rng = crate::rng::SimRng::seed_from_u64(0x11A7);
        for gbps in [0.5, 12.0, 64.0, 3.7] {
            let mut link = Link::new("memo", gbps).with_per_op_overhead(7);
            let mut free_at = 0u64;
            for _ in 0..5_000 {
                let bytes = match rng.gen_range(0..10u32) {
                    0..=3 => 64 * rng.gen_range(1..=9u64),
                    4..=6 => 16 << 10,
                    7 => 0,
                    _ => rng.gen_range(1..1_000_000u64),
                };
                let occupy = 7 + dur::transfer_ns(bytes, gbps);
                let g = link.transfer(SimTime(free_at), bytes);
                assert_eq!(g.end, SimTime(free_at + occupy), "{bytes} B at {gbps} GB/s");
                free_at += occupy;
            }
        }
    }

    #[test]
    fn forked_links_merge_to_the_serial_clock() {
        // Serial reference: four transfers on one link.
        let mut serial = Link::new("switch", 2.0).with_per_op_overhead(10);
        for _ in 0..4 {
            serial.transfer(SimTime(5), 1_000);
        }
        // Forked: two proxies take two transfers each, merged in order.
        let mut shared = Link::new("switch", 2.0).with_per_op_overhead(10);
        let mut f0 = shared.fork();
        let mut f1 = shared.fork();
        f0.transfer(SimTime(5), 1_000);
        f1.transfer(SimTime(5), 1_000);
        f0.transfer(SimTime(5), 1_000);
        f1.transfer(SimTime(5), 1_000);
        shared.merge(&f0);
        shared.merge(&f1);
        assert_eq!(shared.free_at, serial.free_at);
        assert_eq!(shared.bytes(), serial.bytes());
    }

    #[test]
    fn link_saturation_stretches_completion() {
        let mut nic = Link::new("rdma", 1.0);
        // Demand 2 GB over a 1 GB/s link within 1 s: must take 2 s.
        let g = nic.transfer(SimTime::ZERO, 2 * dur::SEC);
        assert_eq!(g.end.as_nanos(), 2 * dur::SEC);
    }
}
