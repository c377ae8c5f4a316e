//! Virtual time: a simulated nanosecond clock.
//!
//! All latencies and timestamps in the simulator are expressed as [`SimTime`]
//! (an absolute instant) or plain `u64` nanosecond durations via the
//! [`dur`] helpers. Virtual time is completely decoupled from wall-clock
//! time, which makes every simulation deterministic and host-independent.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant in simulated time, in nanoseconds since simulation
/// start.
///
/// `SimTime` is a transparent `u64` newtype: cheap to copy, totally ordered,
/// and saturating on subtraction so latency math never panics on skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * dur::US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * dur::MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * dur::SEC)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / dur::SEC as f64
    }

    /// Elapsed nanoseconds since `earlier`, saturating to zero if `earlier`
    /// is actually later (which can happen when comparing queued grants).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    /// Saturating difference in nanoseconds.
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= dur::SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= dur::MS {
            write!(f, "{:.3}ms", ns as f64 / dur::MS as f64)
        } else if ns >= dur::US {
            write!(f, "{:.3}us", ns as f64 / dur::US as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Duration constants and conversion helpers (plain `u64` nanoseconds).
pub mod dur {
    /// One microsecond in nanoseconds.
    pub const US: u64 = 1_000;
    /// One millisecond in nanoseconds.
    pub const MS: u64 = 1_000_000;
    /// One second in nanoseconds.
    pub const SEC: u64 = 1_000_000_000;

    /// Duration needed to move `bytes` over a link of `gbps` gigabytes per
    /// second (GB/s, decimal).
    #[inline]
    pub fn transfer_ns(bytes: u64, gbps: f64) -> u64 {
        debug_assert!(gbps > 0.0, "link capacity must be positive");
        (bytes as f64 / gbps).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let t = SimTime::from_micros(1);
        let u = t + 500;
        assert!(u > t);
        assert_eq!(u - t, 500);
        // Subtraction saturates rather than panicking.
        assert_eq!(t - u, 0);
        assert_eq!(t.max(u), u);
        assert_eq!(u.max(t), u);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!(a.saturating_since(b), 60);
        assert_eq!(b.saturating_since(a), 0);
    }

    #[test]
    fn transfer_ns_models_bandwidth() {
        // 16 KiB over 12 GB/s is ~1365 ns.
        let ns = dur::transfer_ns(16 * 1024, 12.0);
        assert!((1300..1400).contains(&ns), "{ns}");
        // 1 GB over 1 GB/s is one second.
        assert_eq!(dur::transfer_ns(1_000_000_000, 1.0), dur::SEC);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(12)), "12.000s");
    }
}
