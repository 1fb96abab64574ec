//! Estimators over measurement windows and over repeated runs.
//!
//! On a shared host, interference only ever slows a window down. A windowed
//! metric is therefore read at its **quiet quartile** — the quartile on the
//! side interference cannot reach — not at the mean, which a single stalled
//! window drags with it, and not at the best window, which rests on one
//! sample.

use brisk_metrics::stats::percentile_sorted;
use brisk_metrics::Histogram;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0..=100) of an unsorted sample, linearly interpolated.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Quiet quartile of a higher-is-better windowed metric (rates): the 75th
/// percentile across windows.
pub fn quiet_high(windows: &[f64]) -> f64 {
    percentile(windows, 75.0)
}

/// Quiet quartile of a lower-is-better windowed metric (latencies, cost per
/// event): the 25th percentile across windows.
pub fn quiet_low(windows: &[f64]) -> f64 {
    percentile(windows, 25.0)
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Coefficient of variation (sample standard deviation over mean).
pub fn cv(values: &[f64]) -> f64 {
    brisk_metrics::stats::stddev(values) / brisk_metrics::stats::mean(values)
}

/// Windows a host stall hit: those whose value exceeds `factor` times the
/// median window.
pub fn stall_windows(values: &[f64], factor: f64) -> usize {
    let m = median(values);
    values.iter().filter(|&&v| v > factor * m).count()
}

/// Percentile `p` of a histogram, interpolated inside the bucket that holds
/// the rank. `Histogram::percentile` returns a bucket edge, so two runs
/// whose true values differ by less than a bucket would read identically.
pub fn hist_percentile(hist: &Histogram, p: f64) -> f64 {
    let target = p / 100.0;
    let (mut lo_value, mut lo_frac) = (hist.min(), 0.0);
    for (value, frac) in hist.cdf_points() {
        if frac >= target {
            let span = frac - lo_frac;
            let w = if span > 0.0 {
                (target - lo_frac) / span
            } else {
                1.0
            };
            return lo_value + (value - lo_value) * w;
        }
        (lo_value, lo_frac) = (value, frac);
    }
    hist.max()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — what the driver's acceptance rule
/// uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let len = v.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Distance between the extremes as a share of the median.
pub fn range_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    (v[v.len() - 1] - v[0]) / median(values)
}
