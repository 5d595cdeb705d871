//! Measurement instruments: latency histograms, CDF extraction,
//! utilization meters, and time-series samplers.
//!
//! Everything the benchmark harness prints (Tables 1–2, Figures 1 and
//! 9–16 of the paper) is computed from these types.

use crate::time::{Nanos, SimTime};

const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS; // 32 linear sub-buckets per octave
const BUCKETS: usize = 1920;

/// A log-scaled histogram of nanosecond values (HDR-histogram style:
/// 32 linear sub-buckets per power-of-two octave, ~3% relative error).
///
/// Used for per-request latency distributions; supports percentile
/// queries and CDF extraction for the paper's Figures 1 and 11.
///
/// # Example
///
/// ```
/// use triplea_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100, 200, 300, 400] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= 200);
/// // Percentiles are upper bounds on the true quantile, and the top
/// // quantile is exact:
/// assert_eq!(h.percentile(1.0), h.max());
/// ```
#[derive(Clone, PartialEq, serde::Serialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB_COUNT {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as u64; // highest set bit, >= SUB_BITS
            let g = e - SUB_BITS as u64 + 1;
            (g * SUB_COUNT + ((v >> (e - SUB_BITS as u64)) & (SUB_COUNT - 1))) as usize
        }
    }

    fn bucket_low(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_COUNT {
            idx
        } else {
            let g = idx / SUB_COUNT;
            let r = idx % SUB_COUNT;
            (SUB_COUNT + r) << (g - 1)
        }
    }

    /// Largest value that lands in bucket `idx` — one below the next
    /// bucket's lower bound.
    fn bucket_high(idx: usize) -> u64 {
        Self::bucket_low(idx + 1) - 1
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `p` in `[0, 1]`: `>=` the true percentile, within
    /// the resolution of the bucketing (~3% relative error).
    ///
    /// The result is the *upper* bound of the bucket holding the target
    /// rank, clamped to the recorded maximum — so it never understates
    /// the quantile, and `percentile(1.0) == max()` holds exactly.
    ///
    /// Returns 0 when the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Cumulative-distribution points `(value_ns, fraction ≤ value)` over
    /// the non-empty buckets; the backbone of the paper's CDF figures.
    pub fn cdf_points(&self) -> Vec<(u64, f64)> {
        let mut pts = Vec::new();
        if self.count == 0 {
            return pts;
        }
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            acc += c;
            pts.push((Self::bucket_low(i), acc as f64 / self.count as f64));
        }
        pts
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("max", &self.max())
            .finish()
    }
}

/// Tracks the busy time of a resource, both cumulatively and within a
/// sliding window (the paper's Eq. 2 compares *recent* bus utilization
/// against a single-FIMM threshold).
///
/// Busy intervals may be registered slightly in the future (a busy-until
/// reservation); pending work counts as busy, which is exactly the signal
/// the cold-cluster test wants.
#[derive(Clone, Debug)]
pub struct UtilizationTracker {
    busy: Nanos,
    window: Nanos,
    cur_window: u64,
    busy_cur: Nanos,
    busy_prev: Nanos,
}

/// Default sliding-window width for [`UtilizationTracker`]: 100 µs.
pub const DEFAULT_UTIL_WINDOW: Nanos = 100_000;

impl UtilizationTracker {
    /// Creates a meter with the default 100 µs sliding window.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_UTIL_WINDOW)
    }

    /// Creates a meter with a custom sliding-window width.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn with_window(window: Nanos) -> Self {
        assert!(window > 0, "window must be positive");
        UtilizationTracker {
            busy: 0,
            window,
            cur_window: 0,
            busy_cur: 0,
            busy_prev: 0,
        }
    }

    fn roll_to(&mut self, w: u64) {
        if w == self.cur_window {
            return;
        }
        if w == self.cur_window + 1 {
            self.busy_prev = self.busy_cur;
        } else {
            self.busy_prev = 0;
        }
        self.busy_cur = 0;
        self.cur_window = w;
    }

    /// Registers `dur` nanoseconds of busy time starting at `start`,
    /// splitting it across window boundaries.
    pub fn add_busy(&mut self, start: SimTime, dur: Nanos) {
        self.busy += dur;
        let mut t = start.as_nanos();
        let mut remaining = dur;
        while remaining > 0 {
            let w = t / self.window;
            if w >= self.cur_window {
                self.roll_to(w.max(self.cur_window));
                if w == self.cur_window {
                    let room = (w + 1) * self.window - t;
                    let chunk = remaining.min(room);
                    self.busy_cur += chunk;
                    remaining -= chunk;
                    t += chunk;
                    continue;
                }
            }
            // Interval starts in an already-closed window; fold what we can
            // into the previous-window counter and drop the rest.
            let room = (t / self.window + 1) * self.window - t;
            let chunk = remaining.min(room);
            if t / self.window + 1 == self.cur_window {
                self.busy_prev += chunk;
            }
            remaining -= chunk;
            t += chunk;
        }
    }

    /// Total busy nanoseconds since construction.
    pub fn busy_nanos(&self) -> Nanos {
        self.busy
    }

    /// The sliding-window width.
    pub fn window(&self) -> Nanos {
        self.window
    }

    /// Busy fraction over `[0, now]`; 0 when `now == 0`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let t = now.as_nanos();
        if t == 0 {
            0.0
        } else {
            (self.busy as f64 / t as f64).min(1.0)
        }
    }

    /// Busy fraction over (approximately) the most recent window.
    pub fn windowed_utilization(&self, now: SimTime) -> f64 {
        let t = now.as_nanos();
        let w = t / self.window;
        let offset = t % self.window;
        let (cur, prev) = if w == self.cur_window {
            (self.busy_cur, self.busy_prev)
        } else if w == self.cur_window + 1 {
            (0, self.busy_cur)
        } else {
            (0, 0)
        };
        let weight_prev = (self.window - offset) as f64 / self.window as f64;
        ((cur as f64 + prev as f64 * weight_prev) / self.window as f64).min(1.0)
    }
}

impl Default for UtilizationTracker {
    fn default() -> Self {
        UtilizationTracker::new()
    }
}

/// A time-series sampler: `(instant, value)` pairs, e.g. the per-request
/// latency series of Figure 16.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends a sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// The collected samples in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Downsamples to at most `n` evenly spaced points (for plotting).
    pub fn thin(&self, n: usize) -> Vec<(SimTime, f64)> {
        if n == 0 || self.points.is_empty() {
            return Vec::new();
        }
        if self.points.len() <= n {
            return self.points.clone();
        }
        let step = self.points.len() as f64 / n as f64;
        (0..n)
            .map(|i| self.points[(i as f64 * step) as usize])
            .collect()
    }
}

/// Mean and (population) standard deviation of a slice; `(0, 0)` if empty.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        // below SUB_COUNT every value has its own bucket
        assert_eq!(h.percentile(1.0), 31);
    }

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 37);
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // relative error of the bucketing is ~3%
        assert!(
            (p50 as f64 - 185_000.0).abs() / 185_000.0 < 0.05,
            "p50={p50}"
        );
    }

    #[test]
    fn histogram_cdf_ends_at_one() {
        let mut h = Histogram::new();
        for v in [5u64, 50, 500, 5_000, 50_000] {
            h.record(v);
        }
        let cdf = h.cdf_points();
        assert_eq!(cdf.len(), 5);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1_000);
        assert_eq!(a.min(), 10);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.cdf_points().is_empty());
    }

    #[test]
    fn bucket_roundtrip_low_error() {
        for v in [1u64, 31, 32, 100, 1_000, 123_456, 9_999_999] {
            let low = Histogram::bucket_low(Histogram::index(v));
            assert!(low <= v, "low {low} > v {v}");
            assert!((v - low) as f64 / v as f64 <= 1.0 / 32.0 + 1e-9);
        }
    }

    #[test]
    fn utilization_cumulative() {
        let mut m = UtilizationTracker::new();
        m.add_busy(SimTime::ZERO, 25_000);
        assert!((m.utilization(SimTime::from_nanos(100_000)) - 0.25).abs() < 1e-9);
        assert_eq!(m.busy_nanos(), 25_000);
    }

    #[test]
    fn windowed_utilization_decays() {
        let mut m = UtilizationTracker::with_window(1_000);
        m.add_busy(SimTime::ZERO, 1_000); // saturate window 0
        let early = m.windowed_utilization(SimTime::from_nanos(1_100));
        assert!(early > 0.8, "just after busy window: {early}");
        let late = m.windowed_utilization(SimTime::from_nanos(5_000));
        assert!(late < 0.05, "long after busy window: {late}");
    }

    #[test]
    fn busy_spanning_windows_splits() {
        let mut m = UtilizationTracker::with_window(1_000);
        // 2_000ns of busy across windows 0 and 1
        m.add_busy(SimTime::from_nanos(500), 2_000);
        let u = m.windowed_utilization(SimTime::from_nanos(2_400));
        assert!(u > 0.5, "recent window should look busy: {u}");
    }

    #[test]
    fn series_thin_preserves_bounds() {
        let mut s = TimeSeries::new();
        for i in 0..1_000 {
            s.push(SimTime::from_nanos(i), i as f64);
        }
        let t = s.thin(10);
        assert_eq!(t.len(), 10);
        assert_eq!(t[0].1, 0.0);
        assert_eq!(s.len(), 1_000);
        assert!(!s.is_empty());
    }

    #[test]
    fn mean_std_basic() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
