//! Barrier-synchronized parallel stepping: run one *simulation config*
//! on several host cores without changing a single simulated result.
//!
//! The model is bulk-synchronous: virtual time is cut into fixed quanta
//! (barriers). Between barriers every simulated node steps its own
//! independent work — bufferpool ops, cache simulation, CPU queueing —
//! against *private* state: forked [`Link`](crate::resource::Link)
//! proxies, copy-on-touch [`LockShard`](crate::lock::LockShard)s,
//! per-node [`faults::FaultState`](crate::faults::FaultState) /
//! [`trace::TraceState`](crate::trace::TraceState), and write-logged
//! views of shared memory regions. At the barrier the driver folds every
//! node's deltas back into the shared structures **in fixed node
//! order**.
//!
//! Determinism argument, in three parts:
//!
//! 1. *Within a quantum* each node's execution is a pure function of its
//!    own state: the scheduler ([`WorkerSet`](crate::worker::WorkerSet))
//!    is per-node, the RNG streams are per-worker, and the fault/trace
//!    thread-local state is swapped in per node — nothing read during
//!    the quantum can be influenced by a peer's concurrent progress.
//! 2. *At the barrier* merges happen in node order on the driver
//!    thread, so the shared state after barrier `k` is a deterministic
//!    function of the state after barrier `k-1`.
//! 3. The worker pool only decides *which host thread* executes a
//!    node's quantum, never the order of simulated events inside it —
//!    so results are bit-identical for 1, 2, 4, … workers.
//!
//! Cross-node effects (lock holds, switch/NIC backlog, invalidation
//! flags, region bytes) therefore propagate with at most one quantum of
//! lag — identically for every worker count, which is what keeps the
//! schedule a *model choice* rather than a race.

use std::sync::OnceLock;

/// What the value of a thread-count environment variable means: the
/// number it spells (surrounding whitespace ignored, clamped to ≥ 1), or
/// `None` when it spells none.
fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Worker count named by the environment variable `var`, or the
/// machine's available parallelism when it is unset or not a number.
pub fn threads_from_env(var: &str) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| parse_threads(&v))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Number of host worker threads a driver should use for intra-config
/// parallel stepping: [`threads_from_env`] of `HOST_THREADS`. Read once
/// and cached; pass an explicit count to [`run_phase`] to override
/// (tests pin 1/2/4).
pub fn host_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| threads_from_env("HOST_THREADS"))
}

/// Run one quantum: apply `f` to every shard, distributing shards
/// round-robin over `threads` host threads (`f(i, shard)` receives the
/// shard's index). With `threads <= 1` the shards run inline on the
/// calling thread, in index order — the *same code path* drivers use
/// for every worker count, which is what makes worker-count invariance
/// a structural property instead of a testing aspiration.
///
/// `f` must leave no state behind on the executing thread: anything
/// thread-local a shard touches (fault engine, tracer) must be swapped
/// in from the shard at entry and back out before returning.
pub fn run_phase<S, F>(threads: usize, shards: &mut [S], f: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let n = shards.len();
    if threads <= 1 || n <= 1 {
        for (i, s) in shards.iter_mut().enumerate() {
            f(i, s);
        }
        return;
    }
    let threads = threads.min(n);
    let mut buckets: Vec<Vec<(usize, &mut S)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, s) in shards.iter_mut().enumerate() {
        buckets[i % threads].push((i, s));
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = buckets.into_iter();
        let own = rest.next().expect("threads >= 1");
        let handles: Vec<_> = rest
            .map(|bucket| {
                scope.spawn(move || {
                    for (i, s) in bucket {
                        f(i, s);
                    }
                })
            })
            .collect();
        // The calling thread takes bucket 0 instead of idling at the
        // barrier.
        for (i, s) in own {
            f(i, s);
        }
        for h in handles {
            h.join().expect("phase worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_threaded_phases_agree() {
        let run = |threads: usize| {
            let mut shards: Vec<(usize, u64)> = (0..7).map(|i| (i, 0u64)).collect();
            run_phase(threads, &mut shards, |i, s| {
                assert_eq!(i, s.0);
                // Deterministic per-shard work.
                let mut acc = 0u64;
                for k in 0..1000u64 {
                    acc = acc
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(k + i as u64);
                }
                s.1 = acc;
            });
            shards
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn thread_counts_parse_trimmed_and_clamped() {
        assert_eq!(parse_threads("2"), Some(2));
        assert_eq!(parse_threads(" 2 \n"), Some(2));
        assert_eq!(parse_threads("0"), Some(1));
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("two"), None);
        assert_eq!(parse_threads("-1"), None);
    }

    #[test]
    fn host_threads_is_at_least_one() {
        assert!(host_threads() >= 1);
    }
}
