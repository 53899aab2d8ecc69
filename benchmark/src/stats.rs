//! Order statistics for the report: medians, and tail percentiles that
//! the sample can support.

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A reported tail value and the percentile it actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (`100` for the maximum).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

impl Tail {
    /// How the report names this value, e.g. `p99`, `p97.1` or `max`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.beyond == 0 {
            "max".to_owned()
        } else {
            let p = (self.percentile * 10.0).floor() / 10.0;
            format!("p{p}")
        }
    }
}

/// The `wanted` percentile (nearest rank) when at least [`MIN_BEYOND`]
/// samples lie beyond it; otherwise the highest rank that still leaves
/// [`MIN_BEYOND`] beyond, with the lower percentile it amounts to. A
/// sample too small for any such rank reports its maximum, labelled
/// `max`.
#[must_use]
pub fn tail(xs: &[f64], wanted: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail { percentile: wanted, value: f64::NAN, samples: 0, beyond: 0 };
    }
    if n <= MIN_BEYOND {
        return Tail { percentile: 100.0, value: v[n - 1], samples: n, beyond: 0 };
    }
    let nearest = (wanted * n as f64 / 100.0).ceil().max(1.0) as usize;
    let rank = nearest.min(n - MIN_BEYOND);
    let percentile = if rank == nearest { wanted } else { 100.0 * rank as f64 / n as f64 };
    Tail { percentile, value: v[rank - 1], samples: n, beyond: n - rank }
}

/// Operations per window once a run is long enough to be split.
pub const WINDOW_OPS: usize = 1000;

/// Completion rate of a closed loop, as the median over windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rate {
    /// Median of the per-window completion rates (ops/s).
    pub ops_per_s: f64,
    /// Windows the run was cut into.
    pub windows: usize,
}

/// Cut the completion times `ends_s` (s since the loop started) into
/// windows of [`WINDOW_OPS`] consecutive completions (the last window takes
/// the remainder) and report the median window's rate, so a burst of
/// interference from the rest of the host stays inside one window. A run
/// with fewer than two windows' worth of operations is one window spanning
/// the whole loop of `elapsed_s`.
#[must_use]
pub fn windowed_rate(ends_s: &[f64], elapsed_s: f64) -> Rate {
    let mut ends = ends_s.to_vec();
    ends.sort_by(f64::total_cmp);
    let count = (ends.len() / WINDOW_OPS).max(1);
    if count == 1 {
        return Rate { ops_per_s: ends.len() as f64 / elapsed_s, windows: 1 };
    }
    let mut rates = Vec::with_capacity(count);
    let mut begin_s = 0.0;
    for w in 0..count {
        let lo = w * WINDOW_OPS;
        let hi = if w + 1 == count { ends.len() } else { lo + WINDOW_OPS };
        let end_s = ends[hi - 1];
        rates.push((hi - lo) as f64 / (end_s - begin_s));
        begin_s = end_s;
    }
    Rate { ops_per_s: median(&rates), windows: count }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_runs_are_one_window_over_the_whole_loop() {
        let ends: Vec<f64> = (1..=50).map(|i| f64::from(i) * 0.1).collect();
        assert_eq!(windowed_rate(&ends, 10.0), Rate { ops_per_s: 5.0, windows: 1 });
    }

    #[test]
    fn long_runs_report_the_median_window() {
        // Three windows at 1000 ops/s, the middle one stalled to 100/s.
        let mut ends = Vec::new();
        let mut t = 0.0;
        for i in 0..3 * WINDOW_OPS {
            t += if (WINDOW_OPS..2 * WINDOW_OPS).contains(&i) { 0.01 } else { 0.001 };
            ends.push(t);
        }
        let r = windowed_rate(&ends, t);
        assert_eq!(r.windows, 3);
        assert!((r.ops_per_s - 1000.0).abs() < 1e-6, "{}", r.ops_per_s);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn large_samples_get_the_wanted_percentile() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 1980.0, 20));
        assert_eq!(t.label(), "p99");
    }

    #[test]
    fn every_tail_leaves_ten_beyond_or_names_what_it_used() {
        for n in 1..400usize {
            let xs: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let t = tail(&xs, 99.0);
            assert_eq!(t.samples, n);
            if t.beyond >= MIN_BEYOND {
                // The value really has `beyond` samples above it.
                assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), t.beyond);
                if t.percentile < 99.0 {
                    assert_ne!(t.label(), "p99", "n={n} must name the lower percentile");
                    assert!(t.label().starts_with('p'));
                }
            } else {
                assert_eq!(t.label(), "max", "n={n}");
                assert_eq!(t.value, (n - 1) as f64);
            }
        }
        let t = tail(&(1..=300).map(f64::from).collect::<Vec<_>>(), 99.0);
        assert_eq!((t.value, t.beyond, t.label().as_str()), (290.0, 10, "p96.6"));
    }
}
