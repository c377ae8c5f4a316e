//! Measurement instruments: latency histograms, time series and the
//! metrics registry.
//!
//! Every number the bench harness prints — QPS, average/p95 latency,
//! GB/s, recovery timelines — comes out of these types.

use crate::time::{dur, SimTime};

/// Log-bucketed latency histogram (HDR-style: 2^k major buckets, each with
/// linear sub-buckets), covering 1 ns .. ~18 s with bounded relative error.
///
/// ```
/// use simkit::Histogram;
/// let mut h = Histogram::new();
/// for latency_ns in [100u64, 200, 400, 100_000] {
///     h.record(latency_ns);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.mean_us() > 25.0);
/// assert!(h.quantile_ns(0.5) <= 400);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Flattened `counts[major * SUB + minor]`: one contiguous
    /// allocation instead of a Vec of arrays, so record/merge/quantile
    /// walk a single cache-friendly slab.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

const SUB: usize = 32;
const MAJORS: usize = 40; // covers up to 2^(40+5) ns >> 18s

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; MAJORS * SUB],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket(v: u64) -> (usize, usize) {
        // Values below SUB land in major 0 with exact minors.
        if v < SUB as u64 {
            return (0, v as usize);
        }
        // Major bucket m holds values whose top bit is m+4 (i.e. log2 in
        // [m+4, m+5)); the minor index is the next 5 bits below the top bit.
        let b = 63 - v.leading_zeros();
        let major = (b as usize - 4).min(MAJORS - 1);
        let minor = ((v >> (b - 5)) & 0x1f) as usize;
        (major, minor)
    }

    /// Record one latency sample, in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let (major, minor) = Self::bucket(ns);
        self.counts[major * SUB + minor] += 1;
        self.count += 1;
        self.sum += ns;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Record a batch of samples in one call.
    ///
    /// Semantically identical to calling [`Histogram::record`] once per
    /// sample (all updates are commutative sums/min/max), but keeps the
    /// running aggregates in registers across the batch. Closed-loop
    /// workers buffer a handful of latencies on their stack and flush
    /// them here instead of touching the histogram per transaction.
    pub fn record_batch(&mut self, samples: &[u64]) {
        if samples.is_empty() {
            return;
        }
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &ns in samples {
            let (major, minor) = Self::bucket(ns);
            self.counts[major * SUB + minor] += 1;
            sum += ns;
            min = min.min(ns);
            max = max.max(ns);
        }
        self.count += samples.len() as u64;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Mean in microseconds, the unit the paper plots.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / dur::US as f64
    }

    /// Largest sample.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`, ns. Returns the representative
    /// (lower bound) value of the bucket containing the q-th sample.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return Self::bucket_low(idx / SUB, idx % SUB);
            }
        }
        self.max
    }

    /// p50 (median) in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.50) as f64 / dur::US as f64
    }

    /// p95 in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.quantile_ns(0.95) as f64 / dur::US as f64
    }

    /// p99 in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / dur::US as f64
    }

    /// p99.9 in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.quantile_ns(0.999) as f64 / dur::US as f64
    }

    fn bucket_low(major: usize, minor: usize) -> u64 {
        if major == 0 {
            minor as u64
        } else {
            // major m holds values with log2 in [m+4, m+5)
            let base = 1u64 << (major + 4);
            base + (minor as u64) * (base >> 5)
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (x, y) in self.counts.iter_mut().zip(other.counts.iter()) {
            *x += y;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-bucket time series: counts events into fixed-width virtual-time
/// buckets (e.g. 1 s), producing the throughput-over-time curves of
/// Figure 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    bucket_ns: u64,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// New series with `bucket_ns`-wide buckets.
    pub fn new(bucket_ns: u64) -> Self {
        assert!(bucket_ns > 0);
        TimeSeries {
            bucket_ns,
            buckets: Vec::new(),
        }
    }

    /// New series with capacity reserved for events up to `horizon`,
    /// avoiding the grow-reallocate churn of [`TimeSeries::record_at`]
    /// on long runs. Only capacity is reserved — the observable bucket
    /// list still grows exactly as far as events are recorded, so
    /// results are identical to a series built with [`TimeSeries::new`].
    pub fn with_capacity_for(bucket_ns: u64, horizon: SimTime) -> Self {
        assert!(bucket_ns > 0);
        TimeSeries {
            bucket_ns,
            buckets: Vec::with_capacity((horizon.as_nanos() / bucket_ns + 1) as usize),
        }
    }

    /// Record `n` events at instant `t`.
    pub fn record_at(&mut self, t: SimTime, n: u64) {
        let idx = (t.as_nanos() / self.bucket_ns) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_ns(&self) -> u64 {
        self.bucket_ns
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Events-per-second for each bucket.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let scale = dur::SEC as f64 / self.bucket_ns as f64;
        self.buckets.iter().map(|&c| c as f64 * scale).collect()
    }

    /// First bucket index at or after `from` whose rate reaches
    /// `threshold` events/sec; `None` if never.
    pub fn first_reaching(&self, from: SimTime, threshold: f64) -> Option<usize> {
        let start = (from.as_nanos() / self.bucket_ns) as usize;
        let scale = dur::SEC as f64 / self.bucket_ns as f64;
        self.buckets
            .iter()
            .enumerate()
            .skip(start)
            .find(|(_, &c)| c as f64 * scale >= threshold)
            .map(|(i, _)| i)
    }
}

/// A value held by the [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Exact integer counter (bytes, hits, flushes, ...).
    Int(u64),
    /// Derived floating-point metric (rates, means).
    Num(f64),
}

impl MetricValue {
    /// Floating-point view.
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::Int(v) => v as f64,
            MetricValue::Num(v) => v,
        }
    }
}

/// Named metric registry: the uniform snapshot surface for simulator
/// counters (memsim link bytes, cache stats, WAL flush stats, Db stats,
/// latency quantiles), rendered identically into `BENCH_*.json` and the
/// per-config summary tables.
///
/// Names are the JSON keys, so the registry *enforces* the naming lint
/// at insert time: every name must be snake_case (`[a-z][a-z0-9_]*`)
/// and unique, or the insert panics — keeping BENCH JSON keys stable
/// across PRs. Entries are kept sorted by name, so iteration order (and
/// therefore every artifact) is deterministic.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, name: &str, value: MetricValue) {
        assert!(
            !name.is_empty()
                && name.starts_with(|c: char| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "metric name {name:?} is not snake_case"
        );
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(_) => panic!("metric name {name:?} registered twice"),
            Err(pos) => self.entries.insert(pos, (name.to_string(), value)),
        }
    }

    /// Register an integer metric. Panics on a duplicate or
    /// non-snake_case name.
    pub fn set_int(&mut self, name: &str, value: u64) {
        self.insert(name, MetricValue::Int(value));
    }

    /// Register a float metric. Panics on a duplicate or non-snake_case
    /// name.
    pub fn set_num(&mut self, name: &str, value: f64) {
        self.insert(name, MetricValue::Num(value));
    }

    /// Register a histogram's standard summary under `prefix`:
    /// `{prefix}_count`, `{prefix}_p50_ns`, `{prefix}_p99_ns`,
    /// `{prefix}_p999_ns`, `{prefix}_max_ns`.
    pub fn set_histogram(&mut self, prefix: &str, h: &Histogram) {
        self.set_int(&format!("{prefix}_count"), h.count());
        self.set_int(&format!("{prefix}_p50_ns"), h.quantile_ns(0.50));
        self.set_int(&format!("{prefix}_p99_ns"), h.quantile_ns(0.99));
        self.set_int(&format!("{prefix}_p999_ns"), h.quantile_ns(0.999));
        self.set_int(&format!("{prefix}_max_ns"), h.max_ns());
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Render as a JSON object (sorted keys).
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Obj::new();
        for (name, value) in &self.entries {
            o = match value {
                MetricValue::Int(v) => o.int(name, *v),
                MetricValue::Num(v) => o.num(name, *v),
            };
        }
        o.build()
    }

    /// Render as an aligned two-column text table (sorted by name).
    pub fn table(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            let v = match value {
                MetricValue::Int(v) => v.to_string(),
                MetricValue::Num(v) => format!("{v:.3}"),
            };
            out.push_str(&format!("  {name:<width$}  {v:>16}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_and_extremes() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean_ns() - 200.0).abs() < 1e-9);
        assert_eq!(h.min, 100);
        assert_eq!(h.max_ns(), 300);
    }

    #[test]
    fn histogram_quantiles_bounded_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile_ns(0.50);
        let p95 = h.quantile_ns(0.95);
        // Bucket lower bounds are within ~3.2% (1/32) of the true value.
        assert!((4700..=5000).contains(&p50), "{p50}");
        assert!((9100..=9500).contains(&p95), "{p95}");
    }

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(1.0 / 32.0), 0);
        assert_eq!(h.quantile_ns(1.0), 31);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_ns() - 20.0).abs() < 1e-9);
        assert_eq!(a.max_ns(), 30);
    }

    #[test]
    fn record_batch_matches_sequential_records() {
        let samples: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(2654435761) >> 17)
            .collect();
        let mut one_by_one = Histogram::new();
        for &s in &samples {
            one_by_one.record(s);
        }
        let mut batched = Histogram::new();
        for chunk in samples.chunks(37) {
            batched.record_batch(chunk);
        }
        batched.record_batch(&[]);
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn presized_timeseries_matches_grown() {
        let mut grown = TimeSeries::new(dur::SEC);
        let mut presized = TimeSeries::with_capacity_for(dur::SEC, SimTime::from_secs(10));
        for t in [0u64, 3, 3, 7] {
            grown.record_at(SimTime::from_secs(t), 2);
            presized.record_at(SimTime::from_secs(t), 2);
        }
        // Identical observable state: same buckets, same trailing edge.
        assert_eq!(grown, presized);
        assert_eq!(presized.buckets().len(), 8);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.95), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min, u64::MAX, "no sample: the minimum is unset");
    }

    #[test]
    fn timeseries_buckets_and_rates() {
        let mut ts = TimeSeries::new(dur::SEC);
        ts.record_at(SimTime::from_millis(100), 5);
        ts.record_at(SimTime::from_millis(900), 5);
        ts.record_at(SimTime::from_millis(1500), 7);
        assert_eq!(ts.buckets(), &[10, 7]);
        let rates = ts.rates_per_sec();
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases_pinned() {
        // Empty histogram: every quantile is 0.
        let empty = Histogram::new();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(empty.quantile_ns(q), 0);
        }

        // Single sample: every quantile lands in its bucket.
        let mut one = Histogram::new();
        one.record(777);
        let (major, minor) = (9 - 4, ((777u64 >> 4) & 0x1f) as usize); // 2^9 <= 777 < 2^10
        let low = (1u64 << (major + 4)) + minor as u64 * ((1u64 << (major + 4)) >> 5);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile_ns(q), low, "q={q}");
        }
        assert_eq!(one.max_ns(), 777);

        // Max-bucket saturation: u64::MAX clamps into the last major
        // bucket's last minor without panicking, and the bucket lower
        // bound is the pinned constant.
        let mut sat = Histogram::new();
        sat.record(u64::MAX);
        sat.record(0);
        let last_low = (1u64 << 43) + 31 * (1u64 << 38);
        assert_eq!(sat.quantile_ns(1.0), last_low);
        assert_eq!(sat.quantile_ns(0.5), 0);
        assert_eq!(sat.max_ns(), u64::MAX);
    }

    #[test]
    fn registry_sorted_json_and_table() {
        let mut r = MetricsRegistry::new();
        r.set_int("zeta", 7);
        r.set_num("alpha_rate", 2.5);
        let mut h = Histogram::new();
        h.record(100);
        r.set_histogram("lat", &h);
        assert_eq!(r.get("zeta"), Some(MetricValue::Int(7)));
        assert_eq!(r.get("lat_count"), Some(MetricValue::Int(1)));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.len(), 7);
        // Keys come out sorted regardless of insertion order.
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let json = r.to_json();
        assert!(json.starts_with("{\"alpha_rate\": 2.5"));
        assert!(json.ends_with("\"zeta\": 7}"));
        assert!(r.table().contains("zeta"));
    }

    #[test]
    #[should_panic(expected = "not snake_case")]
    fn registry_rejects_camel_case() {
        MetricsRegistry::new().set_int("camelCase", 1);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicates() {
        let mut r = MetricsRegistry::new();
        r.set_int("dup_name", 1);
        r.set_int("dup_name", 2);
    }

    #[test]
    fn timeseries_first_reaching() {
        let mut ts = TimeSeries::new(dur::SEC);
        ts.record_at(SimTime::from_secs(0), 1);
        ts.record_at(SimTime::from_secs(1), 2);
        ts.record_at(SimTime::from_secs(2), 100);
        assert_eq!(ts.first_reaching(SimTime::ZERO, 50.0), Some(2));
        assert_eq!(ts.first_reaching(SimTime::from_secs(3), 1.0), None);
        assert_eq!(ts.first_reaching(SimTime::ZERO, 1000.0), None);
    }

    const WINDOW_NS: u64 = 1_000;

    #[test]
    fn timeseries_buckets_align_exactly_at_horizon_edges() {
        let horizon = SimTime(10 * WINDOW_NS);
        let mut plain = TimeSeries::new(WINDOW_NS);
        let mut reserved = TimeSeries::with_capacity_for(WINDOW_NS, horizon);
        for ts in [&mut plain, &mut reserved] {
            ts.record_at(SimTime(0), 1); // first instant of bucket 0
            ts.record_at(SimTime(WINDOW_NS - 1), 2); // last instant of bucket 0
            ts.record_at(SimTime(WINDOW_NS), 4); // first instant of bucket 1
            ts.record_at(SimTime(horizon.as_nanos() - 1), 8); // inside the horizon
            ts.record_at(horizon, 16); // horizon edge opens a fresh bucket
        }
        // Boundary instants split exactly: [w*B, (w+1)*B) half-open.
        assert_eq!(plain.buckets()[0], 3);
        assert_eq!(plain.buckets()[1], 4);
        assert_eq!(plain.buckets()[9], 8);
        assert_eq!(plain.buckets()[10], 16);
        assert_eq!(plain.buckets().len(), 11);
        // Capacity reservation is invisible in the observable series.
        assert_eq!(plain, reserved);
    }
}
