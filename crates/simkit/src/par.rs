//! A barrier phase on a host thread pool, kept only for the ledger.
//!
//! No crate calls [`run_phase`]: `workloads::cluster` steps its lanes
//! inline, in lane order, on the calling thread, because spawning per
//! 200 µs quantum cost more than the phase work it spread (0.61× at two
//! threads on the 8-node sharing cells). The `benchmark` package still times this function
//! (`simkit.par.phase_ns` / `phase_2t_ns`), so it stays as it was until
//! the next change to that package deletes the rows and this module.

/// Run one quantum: apply `f` to every shard, distributing shards
/// round-robin over `threads` host threads (`f(i, shard)` receives the
/// shard's index). With `threads <= 1` the shards run inline on the
/// calling thread, in index order. No crate calls it; the ledger times
/// it.
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
}
