//! Host-side measurement helpers: resident-set readings, allocation
//! spans, order statistics, and percentiles read off a latency
//! histogram.

use std::time::Instant;

use triplea_alloc_counter::snapshot;
use triplea_sim::stats::Histogram;

/// Reads one `kB` field of `/proc/self/status`, in MiB (0 when the
/// field is unavailable, e.g. off Linux).
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Wall time and heap allocations of one call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Wall-clock seconds.
    pub secs: f64,
    /// Allocator calls made inside the call.
    pub allocs: u64,
}

impl Span {
    /// Adds another span's time and allocations to this one.
    pub fn add(&mut self, other: Span) {
        self.secs += other.secs;
        self.allocs += other.allocs;
    }
}

/// Runs `f`, returning its result and the span it took.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let before = snapshot();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let allocs = snapshot().since(before).allocations;
    (out, Span { secs, allocs })
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A latency percentile read off a histogram, µs, plus its sample
/// count and how many samples lie strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value, µs.
    pub us: f64,
    /// Samples in the histogram.
    pub samples: u64,
    /// Samples ranked beyond the percentile.
    pub beyond: u64,
}

/// Width of the histogram bucket whose lower edge is `low`: the
/// simulator's histogram keeps 32 linear sub-buckets per octave.
fn bucket_width(low: u64) -> u64 {
    if low < 32 {
        1
    } else {
        1 << (63 - low.leading_zeros() - 5)
    }
}

/// The `p`-quantile of `h` in µs, interpolated linearly inside the
/// histogram bucket that holds the target rank. The histogram's own
/// `percentile` returns the bucket's upper edge, which reads the same
/// for every input landing in that ~3 % bucket; interpolation keeps the
/// figure sensitive to the samples themselves.
pub fn percentile_us(h: &Histogram, p: f64) -> Percentile {
    let samples = h.count();
    let rank = ((samples as f64) * p).ceil().max(1.0);
    let beyond = samples.saturating_sub(rank as u64);
    let mut below = 0.0;
    for (low, frac) in h.cdf_points() {
        let cum = (frac * samples as f64).round();
        if cum >= rank {
            let within = (rank - below) / (cum - below);
            let ns = low as f64 + bucket_width(low) as f64 * within;
            return Percentile {
                us: ns.min(h.max() as f64) / 1_000.0,
                samples,
                beyond,
            };
        }
        below = cum;
    }
    Percentile {
        us: h.max() as f64 / 1_000.0,
        samples,
        beyond,
    }
}
