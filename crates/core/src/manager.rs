//! The CXL memory manager (§3.1).
//!
//! The CXL 2.0 switch exposes one big physical pool; a software manager
//! hands out non-overlapping offsets to tenants (database instances, the
//! buffer fusion server). Nodes request memory over RPC at startup —
//! "since the CXL memory for the buffer pool is only allocated once
//! during database startup, the memory allocation overhead has no impact
//! during runtime."

use memsim::calib::RPC_NS;
use memsim::NodeId;
use simkit::trace::{self, Lane};
use simkit::SimTime;

/// Complete a control-plane RPC issued at `now`: one [`RPC_NS`] round
/// trip, attributed to [`Lane::Other`]. Every RPC in the crate — the
/// memory manager's, the fusion server's and the RDMA baseline's
/// page-address request — charges through here.
pub(crate) fn rpc_round_trip(now: SimTime) -> SimTime {
    trace::attr_add(Lane::Other, RPC_NS);
    now + RPC_NS
}

/// A lease on a contiguous CXL range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Owning tenant.
    pub client: NodeId,
    /// Byte offset within the pool.
    pub offset: u64,
    /// Length in bytes.
    pub size: u64,
}

/// Errors returned by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Not enough contiguous free space.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free extent available.
        largest_free: u64,
    },
    /// Zero-sized requests are rejected.
    ZeroSize,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                largest_free,
            } => write!(
                f,
                "out of CXL memory: requested {requested} B, largest free extent {largest_free} B"
            ),
            AllocError::ZeroSize => write!(f, "zero-sized allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Errors returned by [`CxlMemoryManager::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseError {
    /// The lease is not (or no longer) registered with the manager.
    UnknownLease {
        /// The lease the caller presented.
        lease: Lease,
    },
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseError::UnknownLease { lease } => write!(
                f,
                "unknown lease: client {} offset {} size {}",
                lease.client.0, lease.offset, lease.size
            ),
        }
    }
}

impl std::error::Error for ReleaseError {}

/// First-fit extent allocator over the CXL pool's offset space, with
/// RPC-costed allocation calls.
///
/// ```
/// use polarcxlmem::CxlMemoryManager;
/// use memsim::NodeId;
/// use simkit::SimTime;
///
/// let mut mgr = CxlMemoryManager::new(1 << 30); // a 1 GiB pool
/// let (lease_a, _) = mgr.allocate(NodeId(0), 200 << 20, SimTime::ZERO).unwrap();
/// let (lease_b, _) = mgr.allocate(NodeId(1), 200 << 20, SimTime::ZERO).unwrap();
/// // Tenants never overlap.
/// assert!(lease_a.offset + lease_a.size <= lease_b.offset
///      || lease_b.offset + lease_b.size <= lease_a.offset);
/// mgr.release(lease_a, SimTime::ZERO).unwrap();
/// ```
#[derive(Debug)]
pub struct CxlMemoryManager {
    pool_size: u64,
    /// Sorted, disjoint free extents (offset, size).
    free: Vec<(u64, u64)>,
    leases: Vec<Lease>,
    rpcs: u64,
}

impl CxlMemoryManager {
    /// Manage a pool of `pool_size` bytes.
    pub fn new(pool_size: u64) -> Self {
        CxlMemoryManager {
            pool_size,
            free: vec![(0, pool_size)],
            leases: Vec::new(),
            rpcs: 0,
        }
    }

    /// Total pool size.
    pub fn pool_size(&self) -> u64 {
        self.pool_size
    }

    /// Bytes currently leased out.
    pub fn allocated(&self) -> u64 {
        self.leases.iter().map(|l| l.size).sum()
    }

    /// Number of allocation RPCs served.
    pub fn rpcs(&self) -> u64 {
        self.rpcs
    }

    /// Active leases.
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// Allocate `size` bytes for `client` (first fit, 64-B aligned).
    /// Returns the lease and the RPC completion time.
    pub fn allocate(
        &mut self,
        client: NodeId,
        size: u64,
        now: SimTime,
    ) -> Result<(Lease, SimTime), AllocError> {
        self.rpcs += 1;
        if size == 0 {
            return Err(AllocError::ZeroSize);
        }
        let size = size.next_multiple_of(64);
        let Some(idx) = self.free.iter().position(|&(_, s)| s >= size) else {
            let largest_free = self.free.iter().map(|&(_, s)| s).max().unwrap_or(0);
            return Err(AllocError::OutOfMemory {
                requested: size,
                largest_free,
            });
        };
        let (off, extent) = self.free[idx];
        if extent == size {
            self.free.remove(idx);
        } else {
            self.free[idx] = (off + size, extent - size);
        }
        let lease = Lease {
            client,
            offset: off,
            size,
        };
        self.leases.push(lease);
        Ok((lease, rpc_round_trip(now)))
    }

    /// Release a lease (tenant shutdown). Coalesces adjacent free
    /// extents. Returns the RPC completion time, or a typed error if
    /// the lease is unknown (the RPC still costs its round trip — the
    /// manager must answer either way).
    pub fn release(&mut self, lease: Lease, now: SimTime) -> Result<SimTime, ReleaseError> {
        self.rpcs += 1;
        let end = rpc_round_trip(now);
        let Some(idx) = self.leases.iter().position(|l| l == &lease) else {
            return Err(ReleaseError::UnknownLease { lease });
        };
        self.leases.swap_remove(idx);
        self.insert_free(lease.offset, lease.size);
        Ok(end)
    }

    /// Insert a freed extent sorted and coalesce with its neighbours.
    fn insert_free(&mut self, offset: u64, size: u64) {
        let pos = self.free.partition_point(|&(off, _)| off < offset);
        self.free.insert(pos, (offset, size));
        // Coalesce with next.
        if pos + 1 < self.free.len() && self.free[pos].0 + self.free[pos].1 == self.free[pos + 1].0
        {
            self.free[pos].1 += self.free[pos + 1].1;
            self.free.remove(pos + 1);
        }
        // Coalesce with prev.
        if pos > 0 && self.free[pos - 1].0 + self.free[pos - 1].1 == self.free[pos].0 {
            self.free[pos - 1].1 += self.free[pos].1;
            self.free.remove(pos);
        }
    }

    /// Verify the no-overlap invariant (used by property tests).
    pub fn check_invariants(&self) {
        let mut spans: Vec<(u64, u64, bool)> = self
            .leases
            .iter()
            .map(|l| (l.offset, l.size, true))
            .chain(self.free.iter().map(|&(o, s)| (o, s, false)))
            .collect();
        spans.sort_unstable();
        let mut cursor = 0;
        for (off, size, _) in &spans {
            assert!(*off >= cursor, "overlapping spans at {off}");
            cursor = off + size;
        }
        assert_eq!(
            cursor, self.pool_size,
            "address space must be fully covered"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::rng::SimRng;

    #[test]
    fn leases_never_overlap() {
        let mut m = CxlMemoryManager::new(1 << 20);
        let (a, _) = m.allocate(NodeId(0), 1000, SimTime::ZERO).unwrap();
        let (b, _) = m.allocate(NodeId(1), 2000, SimTime::ZERO).unwrap();
        assert!(a.offset + a.size <= b.offset || b.offset + b.size <= a.offset);
        m.check_invariants();
    }

    #[test]
    fn allocation_is_rpc_costed() {
        let mut m = CxlMemoryManager::new(1 << 20);
        let (_, t) = m.allocate(NodeId(0), 64, SimTime::ZERO).unwrap();
        assert_eq!(t.as_nanos(), RPC_NS);
        assert_eq!(m.rpcs(), 1);
    }

    #[test]
    fn oom_reports_largest_extent() {
        let mut m = CxlMemoryManager::new(1024);
        m.allocate(NodeId(0), 1024, SimTime::ZERO).unwrap();
        let err = m.allocate(NodeId(1), 64, SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            AllocError::OutOfMemory {
                requested: 64,
                largest_free: 0
            }
        );
    }

    #[test]
    fn zero_size_rejected() {
        let mut m = CxlMemoryManager::new(1024);
        assert_eq!(
            m.allocate(NodeId(0), 0, SimTime::ZERO).unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn release_coalesces() {
        let mut m = CxlMemoryManager::new(4096);
        let (a, _) = m.allocate(NodeId(0), 1024, SimTime::ZERO).unwrap();
        let (b, _) = m.allocate(NodeId(0), 1024, SimTime::ZERO).unwrap();
        let (c, _) = m.allocate(NodeId(0), 1024, SimTime::ZERO).unwrap();
        m.release(b, SimTime::ZERO).unwrap();
        m.release(a, SimTime::ZERO).unwrap();
        m.release(c, SimTime::ZERO).unwrap();
        m.check_invariants();
        // Everything coalesced back into one extent: a full-size alloc fits.
        assert!(m.allocate(NodeId(1), 4096, SimTime::ZERO).is_ok());
    }

    #[test]
    fn alignment_is_64_bytes() {
        let mut m = CxlMemoryManager::new(4096);
        let (a, _) = m.allocate(NodeId(0), 1, SimTime::ZERO).unwrap();
        assert_eq!(a.size, 64);
        let (b, _) = m.allocate(NodeId(0), 65, SimTime::ZERO).unwrap();
        assert_eq!(b.offset % 64, 0);
        assert_eq!(b.size, 128);
    }

    #[test]
    fn unknown_release_is_typed() {
        let mut m = CxlMemoryManager::new(4096);
        let (a, _) = m.allocate(NodeId(0), 1024, SimTime::ZERO).unwrap();
        assert!(m.release(a, SimTime::ZERO).is_ok());
        // Second release: typed error, no panic, state untouched.
        assert_eq!(
            m.release(a, SimTime::ZERO),
            Err(ReleaseError::UnknownLease { lease: a })
        );
        m.check_invariants();
        assert_eq!(m.allocated(), 0);
    }

    /// Seeded random allocate/release interleavings preserve the
    /// disjoint, space-covering invariant.
    #[test]
    fn invariants_hold_under_random_ops() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0xA110_0000 + case);
            let n_ops = rng.gen_range(1usize..100);
            let mut m = CxlMemoryManager::new(1 << 16);
            let mut live: Vec<Lease> = Vec::new();
            for _ in 0..n_ops {
                let op = rng.gen_range(0u8..2);
                let arg = rng.gen_range(1u64..5000);
                if op == 0 {
                    if let Ok((l, _)) = m.allocate(NodeId(0), arg, SimTime::ZERO) {
                        live.push(l);
                    }
                } else if !live.is_empty() {
                    let l = live.swap_remove((arg as usize) % live.len());
                    m.release(l, SimTime::ZERO).unwrap();
                }
                m.check_invariants();
            }
        }
    }
}
