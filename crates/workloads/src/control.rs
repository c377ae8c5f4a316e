//! Failover's barrier-time control plane on the fusion cluster, written
//! once: the [`Supervisor`] (detect → fence → hand over → reclaim). A
//! scenario's barrier hook owns it and supplies the hand-over;
//! `tests/composed_scenario.rs` runs it with its own lease surgery.

use crate::cluster::{Cluster, FusionCluster};
use crate::failover::DeathMode;
use memsim::NodeId;
use simkit::SimTime;

/// Failover's supervisor for one victim lane.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Lane whose `CrashNode` fault the supervisor watches.
    pub victim: usize,
    /// Window between the crash surfacing and the fence.
    pub detection: SimTime,
    /// Whether the victim truly dies or lingers as a zombie.
    pub death: DeathMode,
    /// When the victim was declared dead.
    pub declared: Option<SimTime>,
    /// When the takeover finished.
    pub done: Option<SimTime>,
}

impl Supervisor {
    /// A supervisor that has declared nothing yet.
    pub fn new(victim: usize, detection: SimTime, death: DeathMode) -> Self {
        Supervisor {
            victim,
            detection,
            death,
            declared: None,
            done: None,
        }
    }

    /// One barrier at `now`. The victim's crash fault firing declares it
    /// dead: its shard merges back and a crash freezes its CPU caches.
    /// One detection window later: fence, `handover` (lease surgery and the standby's adoption), reclaim.
    /// Returns the end time then; the caller starts the standby and calls
    /// [`Cluster::refresh_dir`].
    pub fn at_barrier<X>(
        &mut self,
        cl: &mut Cluster<FusionCluster, X>,
        now: SimTime,
        handover: impl FnOnce(&mut Cluster<FusionCluster, X>, SimTime) -> SimTime,
    ) -> Option<SimTime> {
        let dead = NodeId(self.victim);
        let Some(declared) = self.declared else {
            let node = cl.cores[self.victim].faults.take_node_crash()?;
            debug_assert_eq!(node as usize, self.victim);
            self.declared = Some(now);
            cl.deactivate(self.victim);
            if self.death == DeathMode::Crash {
                cl.fabric.pool.borrow_mut().crash_node(dead);
            }
            return None;
        };
        if self.done.is_some() || now < declared + self.detection.as_nanos() {
            return None;
        }
        let t = cl.fabric.server.fence_node(dead, now);
        let t = handover(cl, t);
        self.done = Some(cl.fabric.server.reclaim_node(dead, t));
        self.done
    }
}
