//! The measurement loop: warmup, calibration, sampling.
//!
//! Methodology (criterion-style, but dependency-free and offline):
//!
//! 1. **Warmup** — run the workload untimed until `warmup_ns` of wall
//!    clock has elapsed, so caches, branch predictors and the allocator's
//!    free lists reach steady state before anything is recorded.
//! 2. **Calibration** — time a single call, then pick an inner-loop
//!    repetition count so each *sample* spans at least `min_sample_ns`.
//!    Sub-microsecond kernels are hopeless to time one call at a time
//!    (clock granularity ≈ tens of ns); amortizing over an inner loop
//!    makes the per-iteration quotient meaningful.
//! 3. **Sampling** — collect `samples` (≥ 30) timed inner loops on the
//!    monotonic clock ([`Instant`]), then summarize with median/MAD and
//!    8-MAD outlier rejection (see [`crate::stats`]).

use crate::stats::Summary;
use std::time::Instant;

/// Outlier-rejection threshold in MADs. 8 is deliberately loose: it only
/// removes scheduler preemptions (10–100× spikes), never honest variance.
pub const OUTLIER_MADS: f64 = 8.0;

/// Tunables for one measurement.
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Untimed warmup budget before calibration.
    pub warmup_ns: u64,
    /// Minimum wall-clock span of one sample (inner loop total).
    pub min_sample_ns: u64,
    /// Number of timed samples (the statistical N; keep ≥ 30).
    pub samples: usize,
    /// Cap on inner-loop repetitions, so pathologically fast workloads
    /// cannot make a sample take unbounded calibration time.
    pub max_iters: u64,
}

impl BenchOptions {
    /// The CI profile: fast enough to run on every push (< ~1 s per
    /// workload) while keeping N = 30 for a stable median.
    #[must_use]
    pub fn quick() -> Self {
        Self { warmup_ns: 20_000_000, min_sample_ns: 1_000_000, samples: 30, max_iters: 100_000 }
    }

    /// The trajectory profile: longer samples and a larger N for the
    /// checked-in `trajectory/BENCH_fig9_hot_*.json` history points.
    #[must_use]
    pub fn full() -> Self {
        Self { warmup_ns: 100_000_000, min_sample_ns: 5_000_000, samples: 50, max_iters: 1_000_000 }
    }
}

/// One measured workload, ready for serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Stable identifier, e.g. `fig9/Syn3E0.2S/ICWS/D64`.
    pub id: String,
    /// Coarse grouping for reports, e.g. `fig9`, `hash`, `batch`.
    pub group: String,
    /// Inner-loop repetitions per sample (calibrated).
    pub iters: u64,
    /// Timed samples collected.
    pub samples: u64,
    /// Samples surviving outlier rejection.
    pub kept: u64,
    /// Median per-iteration nanoseconds (the regression-gated number).
    pub median_ns: f64,
    /// MAD around the median, per iteration.
    pub mad_ns: f64,
    /// Fastest per-iteration time observed.
    pub min_ns: f64,
}

wmh_json::json_object!(BenchResult { id, group, iters, samples, kept, median_ns, mad_ns, min_ns });

/// Measure `work` under `opts` and return the summarized result.
///
/// `work` is called repeatedly; it must be self-contained (no per-call
/// setup) and is responsible for keeping its output observable — wrap
/// results in [`std::hint::black_box`] so the optimizer cannot delete the
/// workload.
pub fn bench(id: &str, group: &str, opts: &BenchOptions, mut work: impl FnMut()) -> BenchResult {
    // Warmup: untimed, wall-clock bounded.
    let warmup_start = Instant::now();
    loop {
        work();
        if warmup_start.elapsed().as_nanos() as u64 >= opts.warmup_ns {
            break;
        }
    }

    // Calibration: time a small probe batch, scale to min_sample_ns.
    let probe_start = Instant::now();
    work();
    let one_call_ns = (probe_start.elapsed().as_nanos() as u64).max(1);
    let iters = (opts.min_sample_ns / one_call_ns + 1).clamp(1, opts.max_iters);

    // Sampling.
    let mut per_iter_ns = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            work();
        }
        per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }

    let s = Summary::from_samples(&per_iter_ns, OUTLIER_MADS);
    BenchResult {
        id: id.to_owned(),
        group: group.to_owned(),
        iters,
        samples: per_iter_ns.len() as u64,
        kept: s.kept as u64,
        median_ns: s.median_ns,
        mad_ns: s.mad_ns,
        min_ns: s.min_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn tiny_opts() -> BenchOptions {
        BenchOptions { warmup_ns: 100_000, min_sample_ns: 20_000, samples: 31, max_iters: 10_000 }
    }

    #[test]
    fn bench_measures_something_positive() {
        let mut acc = 0u64;
        let r = bench("t/spin", "t", &tiny_opts(), || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i).wrapping_mul(0x9E37_79B9));
            }
            black_box(acc);
        });
        assert_eq!(r.samples, 31);
        assert!(r.kept >= 16, "kept {}", r.kept);
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.iters >= 1);
    }

    #[test]
    fn calibration_amortizes_fast_work() {
        // A near-empty closure must get a large inner-loop count, not 1.
        let r = bench("t/nop", "t", &tiny_opts(), || {
            black_box(1u64);
        });
        assert!(r.iters > 10, "iters {}", r.iters);
    }

    #[test]
    fn result_round_trips_through_json() {
        let r = bench("t/x", "t", &tiny_opts(), || {
            black_box(2u64);
        });
        let text = wmh_json::to_string(&r);
        let back: BenchResult = wmh_json::from_str(&text).expect("round trip");
        assert_eq!(back, r);
    }
}
