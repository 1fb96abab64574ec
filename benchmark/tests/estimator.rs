//! The quiet-quartile estimator on synthetic windows, stalls included.

use brisk_benchmark::estimator::{
    hist_percentile, iqr_spread, median, quartiles, quiet_high, quiet_low, range_spread,
    stall_windows,
};
use brisk_benchmark::load::HIST_GROWTH;
use brisk_metrics::Histogram;

/// Twenty windows around 3.0 M events/s, ±1 %.
fn steady_rates() -> Vec<f64> {
    (0..20)
        .map(|k| 3.0e6 * (1.0 + 0.01 * ((k % 5) as f64 - 2.0) / 2.0))
        .collect()
}

#[test]
fn a_stalled_window_moves_the_mean_but_not_the_quiet_quartile() {
    let clean = steady_rates();
    let mut stalled = clean.clone();
    // A 328 ms host stall inside one 500 ms window, and two slow windows
    // while the queues refill.
    stalled[7] *= 0.34;
    stalled[8] *= 0.6;
    stalled[9] *= 0.8;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!((mean(&clean) - mean(&stalled)) / mean(&clean) > 0.05);
    let shift = (quiet_high(&clean) - quiet_high(&stalled)).abs() / quiet_high(&clean);
    assert!(shift < 0.006, "quiet quartile moved by {shift}");
}

#[test]
fn a_stalled_window_does_not_move_the_quiet_latency() {
    let clean: Vec<f64> = (0..20).map(|k| 2000.0 + 10.0 * (k % 4) as f64).collect();
    let mut stalled = clean.clone();
    stalled[3] = 328_000.0;
    stalled[4] = 40_000.0;
    let shift = (quiet_low(&clean) - quiet_low(&stalled)).abs() / quiet_low(&clean);
    assert!(shift < 0.006, "quiet quartile moved by {shift}");
    assert_eq!(stall_windows(&clean, 3.0), 0);
    assert_eq!(stall_windows(&stalled, 3.0), 2);
}

#[test]
fn interference_only_ever_reads_as_worse() {
    // Slowing any subset of windows can lower the quiet rate, never raise it.
    let clean = steady_rates();
    for hit in 0..clean.len() {
        let mut v = clean.clone();
        v[hit] *= 0.5;
        assert!(quiet_high(&v) <= quiet_high(&clean));
    }
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    // -> [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    assert_eq!(median(&v), 5.5);
    assert!((iqr_spread(&v) - 1.0).abs() < 1e-12);
    assert!((range_spread(&v) - 9.0 / 5.5).abs() < 1e-12);
    // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
}

#[test]
fn histogram_percentiles_interpolate_inside_a_bucket() {
    let mut h = Histogram::with_growth(HIST_GROWTH);
    for v in 1..=100_000u32 {
        h.record(f64::from(v));
    }
    for p in [25.0, 50.0, 99.0] {
        let exact = p / 100.0 * 100_000.0;
        let got = hist_percentile(&h, p);
        assert!(
            (got - exact).abs() / exact < 0.005,
            "p{p}: {got} vs {exact}"
        );
    }
    // Two samples that share a bucket still read differently.
    let mut a = Histogram::with_growth(HIST_GROWTH);
    let mut b = Histogram::with_growth(HIST_GROWTH);
    for v in 0..1000u32 {
        a.record(50_000.0 + f64::from(v % 7));
        b.record(50_000.0 + f64::from(v % 7));
    }
    for _ in 0..300 {
        b.record(50_400.0);
    }
    assert!(hist_percentile(&b, 50.0) > hist_percentile(&a, 50.0));
}
