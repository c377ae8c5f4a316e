//! Host-speed calibration. The sandbox this benchmark runs in shares its
//! cores: the whole box slows by up to 2x for minutes at a time (measured:
//! 4 of 10 consecutive 22 s runs took 40-48 s, set-up and steady alike) and
//! by 20 % for seconds (CPU time equal to wall time in those, so counting
//! CPU time is no way out). No amount of repetition inside a run removes
//! that from a wall-clock throughput, so the throughput is reported in
//! *reference seconds*: wall seconds scaled by how fast a fixed kernel of
//! the benchmark's own runs at that moment.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on the reference box (this sandbox, quiet: Xeon
/// 2.1 GHz, table warm). A host second counts as
/// one reference second when the kernel takes exactly this long.
pub const REFERENCE_TICK_S: f64 = 0.0073;

/// A dependent random walk over 4 MB with a data-dependent branch: cache
/// and TLB misses, multiplies and mispredictions in roughly the mix the
/// simulator's tables and schedulers have. It slows with the box (measured
/// under a common-mode disturbance: raw spread 25 %, scaled 6 %), and its
/// own noise (4 % per tick) averages out over the ticks of a rep.
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            table: (0..1u64 << 19)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        }
    }

    /// Run the kernel twice and return the wall seconds of the second pass:
    /// the first puts the table back into cache and TLB, so the tick does
    /// not depend on what the harness call before it left there.
    pub fn tick(&mut self) -> f64 {
        self.pass();
        let t = Instant::now();
        self.pass();
        t.elapsed().as_secs_f64()
    }

    fn pass(&mut self) {
        let mask = self.table.len() - 1;
        let mut x = 0x243F_6A88_85A3_08D3_u64;
        for _ in 0..250_000 {
            let i = (x >> 20) as usize & mask;
            x = self.table[i]
                .wrapping_mul(6364136223846793005)
                .wrapping_add(x >> 7);
            self.table[i] = x;
            if x & 64 != 0 {
                x ^= x << 13;
            }
        }
        black_box(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_positive_and_of_the_reference_order() {
        let mut c = Calibrator::new();
        let t = c.tick();
        // Within 20x of the reference on any plausible box, either way.
        assert!(
            t > REFERENCE_TICK_S / 20.0 && t < REFERENCE_TICK_S * 20.0,
            "{t}"
        );
    }
}
