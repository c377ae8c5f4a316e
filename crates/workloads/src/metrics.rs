//! Result types shared by all experiment harnesses.

use simkit::{Histogram, SimTime};

/// Aggregate metrics of one measured run, in the units the paper plots.
///
/// `PartialEq` compares every field bit-for-bit (including the raw
/// histogram) — the determinism tests rely on exact equality, not
/// approximate closeness.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Queries per second (K-QPS when divided by 1000).
    pub qps: f64,
    /// Transactions per second.
    pub tps: f64,
    /// Mean query/transaction latency, µs.
    pub avg_latency_us: f64,
    /// Median latency, µs.
    pub p50_latency_us: f64,
    /// 95th percentile latency, µs.
    pub p95_latency_us: f64,
    /// 99th percentile latency, µs.
    pub p99_latency_us: f64,
    /// 99.9th percentile latency, µs.
    pub p999_latency_us: f64,
    /// Interconnect bandwidth consumed (RDMA NIC or CXL link), GB/s.
    pub interconnect_gbps: f64,
    /// Total memory footprint of the design, bytes (pool + any local
    /// tier) — the cost axis of the paper's comparisons.
    pub memory_bytes: u64,
    /// Measured window length.
    pub window: SimTime,
    /// Raw latency histogram.
    pub latency: Histogram,
}

impl RunMetrics {
    /// The metrics of a `window` in which `txns` transactions of
    /// `queries` statements completed with latencies `latency`, moving
    /// `link_bytes` over the interconnect, on a design of `memory_bytes`.
    pub(crate) fn new(
        queries: u64,
        txns: u64,
        latency: Histogram,
        window: SimTime,
        link_bytes: u64,
        memory_bytes: u64,
    ) -> Self {
        let secs = window.as_secs_f64();
        RunMetrics {
            qps: queries as f64 / secs,
            tps: txns as f64 / secs,
            avg_latency_us: latency.mean_us(),
            p50_latency_us: latency.p50_us(),
            p95_latency_us: latency.p95_us(),
            p99_latency_us: latency.p99_us(),
            p999_latency_us: latency.p999_us(),
            interconnect_gbps: link_bytes as f64 / window.as_nanos() as f64,
            memory_bytes,
            window,
            latency,
        }
    }

    /// Pretty single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:>9.1} K-QPS  {:>8.1} us avg  {:>7.1}/{:>7.1}/{:>7.1}/{:>8.1} us \
             p50/p95/p99/p999  {:>6.2} GB/s  {:>7.1} MB mem",
            self.qps / 1e3,
            self.avg_latency_us,
            self.p50_latency_us,
            self.p95_latency_us,
            self.p99_latency_us,
            self.p999_latency_us,
            self.interconnect_gbps,
            self.memory_bytes as f64 / 1e6,
        )
    }
}

/// One point of a throughput-over-time curve (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Seconds since run start.
    pub second: u64,
    /// Queries completed in that second.
    pub qps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_formats() {
        let m = RunMetrics {
            qps: 123_456.0,
            tps: 12_345.6,
            avg_latency_us: 55.5,
            p50_latency_us: 50.1,
            p95_latency_us: 99.9,
            p99_latency_us: 120.0,
            p999_latency_us: 250.0,
            interconnect_gbps: 4.7,
            memory_bytes: 100 << 20,
            window: SimTime::from_secs(1),
            latency: Histogram::new(),
        };
        let s = m.summary();
        assert!(s.contains("123.5 K-QPS"), "{s}");
        assert!(s.contains("4.70 GB/s"), "{s}");
        assert!(s.contains("p50/p95/p99/p999"), "{s}");
        assert!(s.contains("250.0"), "{s}");
    }
}
