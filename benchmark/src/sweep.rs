//! `fig8_sweep`: the Figure-8 MSE sweep over all 15 catalog algorithms
//! through `wmh_eval::runner::run_mse_with`, 2 threads, no checkpoint.
//!
//! `Scale::quick` takes ~85 s on a 2-core host, longer than a run can
//! afford, so the benchmark scale keeps the six `SynESS` datasets and the
//! full D grid (10 … 200) and shrinks the rest: 30 documents per dataset,
//! every one of their 435 pairs, 2 repeats and quantization constant 100.
//! One sweep takes ~10 s there on 2 cores; CWS is about half of it. The paper's
//! Figure-8 shape checks hold at this scale.

use std::time::Instant;

use wmh_core::Algorithm;
use wmh_data::PAPER_DATASETS;
use wmh_eval::experiments::figures::check_figure8_shape;
use wmh_eval::runner::{run_mse_with, Measurement, MseCell, RunOptions, Scale};

use crate::report::{Gate, Line, Run};
use crate::trace::{maybe_span, Tracer};

/// Sweep worker threads.
pub const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// The benchmark's sweep scale for `seed`.
#[must_use]
pub fn scale(seed: u64) -> Scale {
    let mut s = Scale::quick();
    s.label = "bench".into();
    s.docs = 30;
    s.pair_sample = 435;
    s.repeats = 2;
    s.quantization_constant = 100.0;
    s.seed = seed;
    s.datasets = PAPER_DATASETS
        .iter()
        .map(|c| c.scaled_down_preserving_overlap(s.docs, s.features))
        .collect();
    s
}

/// Options of every sweep call: 2 threads, no checkpoint.
#[must_use]
pub fn options() -> RunOptions {
    RunOptions::default().with_threads(THREADS)
}

/// Generate every dataset of `scale` (what the sweep's set-up spends).
///
/// # Errors
/// Generator failures, stringified.
pub fn generate(scale: &Scale) -> Result<usize, String> {
    let mut docs = 0;
    for cfg in &scale.datasets {
        docs += cfg.generate(scale.seed)?.len();
    }
    Ok(docs)
}

/// FNV-1a over every cell's coordinates and MSE bits.
#[must_use]
pub fn digest(cells: &[MseCell]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for c in cells {
        eat(c.dataset.as_bytes());
        eat(c.algorithm.as_bytes());
        eat(&(c.d as u64).to_le_bytes());
        eat(&c.mse.value().map_or(u64::MAX, f64::to_bits).to_le_bytes());
        eat(&c.mse_std.to_bits().to_le_bytes());
    }
    h
}

/// Cells that hold no measured value.
fn unmeasured(cells: &[MseCell]) -> usize {
    cells.iter().filter(|c| !matches!(c.mse, Measurement::Value(_))).count()
}

/// `fig8_sweep`: set up [`SETUPS`] times, then sweep back to back for
/// about `seconds` (at least once). One operation is one sweep.
///
/// # Errors
/// Generator or runner failures, stringified.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Result<Run, String> {
    let mut run = Run::default();
    let mut scale = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let s = self::scale(seed);
        generate(&s)?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        scale = Some(s);
    }
    let scale = scale.ok_or("no set-up")?;
    let expected_cells = scale.datasets.len() * Algorithm::ALL.len() * scale.d_values.len();
    let start = Instant::now();
    let mut sweeps: Vec<Vec<MseCell>> = Vec::new();
    // As many sweeps as the first one says fit in `seconds`, so a run's
    // sweep count does not hinge on a few milliseconds either way.
    let mut planned = 1;
    while sweeps.len() < planned {
        let t = Instant::now();
        let cells = maybe_span(tracer, "sweep", sweeps.len() as u64, || {
            run_mse_with(&scale, &Algorithm::ALL, &options())
        })
        .map_err(|e| e.to_string())?;
        run.ops.push((start.elapsed().as_secs_f64(), t.elapsed().as_secs_f64() * 1e3));
        run.attempted += cells.len() as u64;
        run.failed += unmeasured(&cells) as u64;
        sweeps.push(cells);
        if sweeps.len() == 1 {
            planned = ((seconds / start.elapsed().as_secs_f64()).round() as usize).max(1);
        }
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    let last = sweeps.last().ok_or("no sweep")?;
    let digests: Vec<u64> = sweeps.iter().map(|c| digest(c)).collect();
    run.lines.push(Line::new(
        "sweep_s",
        crate::stats::median(&run.ops.iter().map(|o| o.1).collect::<Vec<_>>()) / 1e3,
        "s",
        format!("median of {} sweeps", sweeps.len()),
    ));
    run.lines.push(Line::new(
        "failed_cells",
        run.failed as f64,
        "count",
        format!("of {} cells", run.attempted),
    ));
    run.gates.push(Gate::new(
        "every cell measured",
        sweeps.iter().all(|c| c.len() == expected_cells) && run.failed == 0,
        format!("{} cells per sweep expected, {} unmeasured", expected_cells, run.failed),
    ));
    let shape = check_figure8_shape(&scale, last);
    let broken: Vec<&str> = shape.iter().filter(|(_, ok)| !ok).map(|(l, _)| l.as_str()).collect();
    run.gates.push(Gate::new(
        "figures::check_figure8_shape",
        !shape.is_empty() && broken.is_empty(),
        if broken.is_empty() { format!("{} checks hold", shape.len()) } else { broken.join("; ") },
    ));
    run.gates.push(Gate::new(
        "repeated sweeps give identical cells",
        digests.iter().all(|&d| d == digests[0]),
        format!("MSE digest {:016x} (recorded, not pinned)", digests[0]),
    ));
    Ok(run)
}
