//! Parallel sweep runner: fan independent run configurations across
//! host OS threads.
//!
//! Every figure/table harness in this crate is a *sweep*: dozens of
//! completely independent simulations (one per configuration point),
//! each of which builds its own simulated world — pools, links, caches,
//! RNG streams — and runs it to completion in virtual time. The worlds
//! share nothing (the `Rc<RefCell<CxlPool>>` state is per-run), so the
//! only thing serial about a sweep is the host CPU it runs on.
//!
//! [`run_sweep`] exploits exactly that: configurations are claimed off a
//! shared atomic counter by a small pool of scoped threads, each thread
//! constructs and runs its world *entirely on its own stack*, and
//! results land in per-configuration slots so the output order equals
//! the input order regardless of which thread finished when.
//!
//! Determinism is untouched by design: parallelism is across runs,
//! never within one virtual timeline. A configuration's result depends
//! only on the configuration (every run seeds its own RNG streams), so
//! `threads = 1` and `threads = N` produce bit-identical results — the
//! `determinism` integration test pins this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of host threads worth using for sweeps: the machine's
/// available parallelism.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` over every configuration using [`host_threads`] workers,
/// returning results in input order.
pub fn run_sweep<C, R, F>(configs: &[C], f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    run_sweep_threads(configs, host_threads(), f)
}

/// Run `f` over every configuration using exactly `threads` workers
/// (`<= 1` runs inline on the calling thread), returning results in
/// input order.
///
/// `f` must be a pure function of the configuration: it is called once
/// per configuration, from an arbitrary thread, with no ordering
/// guarantee between configurations. Panics in `f` propagate to the
/// caller when the scope joins.
pub fn run_sweep_threads<C, R, F>(configs: &[C], threads: usize, f: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    if threads <= 1 || configs.len() <= 1 {
        return configs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(configs.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= configs.len() {
                    break;
                }
                let r = f(&configs[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("every slot is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_input_order() {
        let configs: Vec<u64> = (0..50).collect();
        let out = run_sweep_threads(&configs, 8, |&c| c * c);
        assert_eq!(out, configs.iter().map(|c| c * c).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let configs: Vec<u64> = (0..23).collect();
        let serial =
            run_sweep_threads(&configs, 1, |&c| c.wrapping_mul(0x9E37_79B9).rotate_left(7));
        let parallel =
            run_sweep_threads(&configs, 4, |&c| c.wrapping_mul(0x9E37_79B9).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_configs() {
        let none: Vec<u32> = vec![];
        assert!(run_sweep_threads(&none, 4, |&c| c).is_empty());
        assert_eq!(run_sweep_threads(&[9u32], 4, |&c| c + 1), vec![10]);
    }

    #[test]
    fn more_threads_than_configs() {
        let out = run_sweep_threads(&[1u32, 2], 16, |&c| c);
        assert_eq!(out, vec![1, 2]);
    }
}
