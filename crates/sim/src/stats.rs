//! Measurement primitives used by the experiment harness.
//!
//! The paper reports means and standard deviations over five runs
//! ([`RunStats`]), goodput over steady-state windows ([`ThroughputMeter`]),
//! retry-rate breakdowns (plain [`Counter`]s), and time-overhead breakdowns
//! (accumulated [`SimDuration`]s). Everything here is plain-old-data with
//! no interior mutability, so results are deterministic and `Send`.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Create a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reconstitute a counter from a stored value (result
    /// deserialization — the campaign cache round-trips statistics).
    pub const fn from_value(v: u64) -> Self {
        Counter(v)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Online mean / variance over a stream of samples (Welford's algorithm).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation (Bessel-corrected; 0 with <2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest sample (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Mean ± std-dev over independent runs — the paper's error bars.
#[derive(Debug, Default, Clone)]
pub struct RunStats {
    samples: Vec<f64>,
}

impl RunStats {
    /// Create an empty collection.
    pub fn new() -> Self {
        RunStats {
            samples: Vec::new(),
        }
    }

    /// Record one run's result.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// All recorded samples in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean over runs (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation over runs (0 with <2 runs).
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    }
}

impl FromIterator<f64> for RunStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        RunStats {
            samples: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean(), self.std_dev())
    }
}

/// Goodput measurement over an arbitrary window.
///
/// Records (time, bytes) deliveries; [`ThroughputMeter::mbps_between`]
/// integrates over a window, which is how the paper computes "aggregate
/// goodput over the steady-state portion of the runs".
#[derive(Debug, Default, Clone)]
pub struct ThroughputMeter {
    deliveries: Vec<(SimTime, u64)>,
    total_bytes: u64,
}

impl ThroughputMeter {
    /// Create an empty meter.
    pub fn new() -> Self {
        ThroughputMeter::default()
    }

    /// Record `bytes` delivered at `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        debug_assert!(
            self.deliveries.last().is_none_or(|&(t, _)| t <= now),
            "deliveries must be recorded in time order"
        );
        self.deliveries.push((now, bytes));
        self.total_bytes += bytes;
    }

    /// Total bytes delivered over the whole run.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Time of the first delivery.
    pub fn first_delivery(&self) -> Option<SimTime> {
        self.deliveries.first().map(|&(t, _)| t)
    }

    /// Time of the last delivery.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.deliveries.last().map(|&(t, _)| t)
    }

    /// Bytes delivered in `[from, to)`.
    pub fn bytes_between(&self, from: SimTime, to: SimTime) -> u64 {
        self.deliveries
            .iter()
            .filter(|&&(t, _)| t >= from && t < to)
            .map(|&(_, b)| b)
            .sum()
    }

    /// Goodput in Mbps over `[from, to)`; 0 for an empty window.
    pub fn mbps_between(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bytes = self.bytes_between(from, to);
        let secs = to.duration_since(from).as_secs_f64();
        (bytes as f64 * 8.0) / secs / 1e6
    }
}

/// A duration accumulator for time-overhead breakdowns (Table 3).
#[derive(Debug, Default, Clone, Copy)]
pub struct TimeAccumulator {
    total: SimDuration,
    events: u64,
}

impl TimeAccumulator {
    /// Create a zeroed accumulator.
    pub fn new() -> Self {
        TimeAccumulator::default()
    }

    /// Reconstitute an accumulator from stored totals (result
    /// deserialization — the campaign cache round-trips statistics).
    pub const fn from_parts(total: SimDuration, events: u64) -> Self {
        TimeAccumulator { total, events }
    }

    /// Add one span.
    pub fn add(&mut self, d: SimDuration) {
        self.total += d;
        self.events += 1;
    }

    /// Total accumulated time.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Number of spans recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mean span (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.events == 0 {
            SimDuration::ZERO
        } else {
            self.total / self.events
        }
    }
}

/// Number of buckets in a [`QuantileSketch`]: 8 exact small-value
/// buckets plus 61 octaves × 8 sub-bins of logarithmic buckets.
pub const SKETCH_BUCKETS: usize = 496;

/// Deterministic, mergeable streaming quantile sketch over `u64`
/// samples (nanoseconds, bytes, ...).
///
/// Values 0–7 get exact buckets; larger values land in log-spaced
/// buckets with 8 sub-bins per octave, bounding the relative error of
/// any reported quantile to ~6.7%. Recording, merging, and querying
/// are all integer-only and order-insensitive with respect to merge,
/// so parallel shards reduce to the same bytes as a serial run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// Empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; SKETCH_BUCKETS],
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < 8 {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros() as usize; // 3..=63
            let sub = ((v >> (exp - 3)) & 0x7) as usize;
            8 + (exp - 3) * 8 + sub
        }
    }

    /// Midpoint of bucket `i`'s value range (its representative).
    fn bucket_mid(i: usize) -> u64 {
        if i < 8 {
            i as u64
        } else {
            let exp = 3 + (i - 8) / 8;
            let sub = ((i - 8) % 8) as u64;
            let lo = (8 + sub) << (exp - 3);
            let width = 1u64 << (exp - 3);
            lo + (width - 1) / 2
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`; `None` when empty.
    ///
    /// Returns the representative (bucket midpoint) of the bucket
    /// containing the rank-`⌊q·(n−1)⌋` sample, clamped to the exact
    /// observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.count - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another sketch into this one.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Sparse view for serialization: `(count, sum, min, max, pairs)`
    /// where pairs are `(bucket_index, bucket_count)` for non-empty
    /// buckets in ascending index order.
    pub fn to_sparse(&self) -> (u64, u64, u64, u64, Vec<(u16, u64)>) {
        let pairs = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u16, c))
            .collect();
        (self.count, self.sum, self.min, self.max, pairs)
    }

    /// Rebuild from a sparse view produced by [`Self::to_sparse`].
    ///
    /// Returns `None` if a bucket index is out of range or the bucket
    /// counts do not sum to `count`.
    pub fn from_sparse(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        pairs: &[(u16, u64)],
    ) -> Option<Self> {
        let mut s = QuantileSketch::new();
        let mut total = 0u64;
        for &(i, c) in pairs {
            let slot = s.buckets.get_mut(i as usize)?;
            *slot = slot.checked_add(c)?;
            total = total.checked_add(c)?;
        }
        if total != count {
            return None;
        }
        s.count = count;
        s.sum = sum;
        s.min = if count == 0 { u64::MAX } else { min };
        s.max = max;
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn running_stats_mean_var() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn run_stats_mean_std() {
        let mut r = RunStats::new();
        for x in [10.0, 12.0, 14.0] {
            r.push(x);
        }
        assert!((r.mean() - 12.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(format!("{r}"), "12.00 ± 2.00");
    }

    #[test]
    fn throughput_meter_windows() {
        let mut m = ThroughputMeter::new();
        m.record(SimTime::from_secs(1), 1_000_000);
        m.record(SimTime::from_secs(2), 1_000_000);
        m.record(SimTime::from_secs(3), 1_000_000);
        assert_eq!(m.total_bytes(), 3_000_000);
        // Window [1s, 3s): two deliveries over 2 seconds = 8 Mbps.
        let mbps = m.mbps_between(SimTime::from_secs(1), SimTime::from_secs(3));
        assert!((mbps - 8.0).abs() < 1e-9);
        assert_eq!(
            m.mbps_between(SimTime::from_secs(3), SimTime::from_secs(3)),
            0.0
        );
        assert_eq!(m.first_delivery(), Some(SimTime::from_secs(1)));
        assert_eq!(m.last_delivery(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn time_accumulator() {
        let mut t = TimeAccumulator::new();
        t.add(SimDuration::from_micros(10));
        t.add(SimDuration::from_micros(30));
        assert_eq!(t.total(), SimDuration::from_micros(40));
        assert_eq!(t.mean(), SimDuration::from_micros(20));
        assert_eq!(t.events(), 2);
    }

    #[test]
    fn sketch_small_values_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..8u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(7));
        assert_eq!(s.quantile(0.0), Some(0));
        assert_eq!(s.quantile(1.0), Some(7));
        // Rank 3 (q=0.5 over 8 samples, 0-based floor) is exactly 3.
        assert_eq!(s.quantile(0.5), Some(3));
    }

    #[test]
    fn sketch_relative_error_bounded() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000u64 {
            s.record(i * 1_000); // 1µs .. 10ms in ns
        }
        for q in [0.5, 0.95, 0.99] {
            let est = s.quantile(q).unwrap() as f64;
            let exact = ((q * 9_999.0).floor() as u64 + 1) as f64 * 1_000.0;
            assert!(
                (est - exact).abs() / exact < 0.07,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_merge_equals_sequential() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for i in 0..1000u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn sketch_sparse_round_trip() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 900, 1_000_000, u64::MAX] {
            s.record(v);
        }
        let (count, sum, min, max, pairs) = s.to_sparse();
        let back = QuantileSketch::from_sparse(count, sum, min, max, &pairs).unwrap();
        assert_eq!(back, s);

        let empty = QuantileSketch::new();
        let (c, su, mn, mx, p) = empty.to_sparse();
        assert_eq!(
            QuantileSketch::from_sparse(c, su, mn, mx, &p).unwrap(),
            empty
        );
        // Corrupt: count mismatch rejected.
        assert!(QuantileSketch::from_sparse(7, sum, min, max, &pairs).is_none());
        // Corrupt: out-of-range bucket rejected.
        assert!(QuantileSketch::from_sparse(1, 0, 0, 0, &[(u16::MAX, 1)]).is_none());
    }
}
