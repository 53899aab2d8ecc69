//! Benchmark the cell-parallel sweep engine: run the same reduced Figure 8
//! sweep with `--threads 1` and with every available core, verify the two
//! result sets are **byte-identical**, and record the wall-clock speedup to
//! `results/BENCH_par_sweep.json`.
//!
//! ```text
//! cargo run --release -p wmh-eval --bin par_bench
//! cargo run --release -p wmh-eval --bin par_bench -- --threads 4
//! ```
//!
//! The sweep is the tiny scale grown to enough repeats that cells dominate
//! the wall clock; no checkpoint is used so both runs measure pure compute.

use std::time::Instant;
use wmh_core::Algorithm;
use wmh_eval::report::save_json;
use wmh_eval::{cli, runner, RunOptions, Scale};
use wmh_json::{Json, ToJson};

fn bench_scale() -> Scale {
    let mut scale = Scale::tiny();
    scale.label = "par_bench".to_owned();
    scale.repeats = 6;
    scale.docs = 60;
    scale.pair_sample = 200;
    scale
}

fn timed_run(scale: &Scale, threads: usize) -> (Vec<wmh_eval::MseCell>, f64) {
    let opts = RunOptions::default().with_threads(threads);
    let start = Instant::now();
    let cells = runner::run_mse_with(scale, &Algorithm::ALL, &opts).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    (cells, start.elapsed().as_secs_f64())
}

fn main() {
    let requested = cli::threads_arg();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel_threads = if requested == 0 { cores } else { requested };
    let scale = bench_scale();
    eprintln!(
        "par_bench: {} datasets x {} algorithms x {} repeats, 1 vs {} threads",
        scale.datasets.len(),
        Algorithm::ALL.len(),
        scale.repeats,
        parallel_threads
    );

    let (serial_cells, serial_secs) = timed_run(&scale, 1);
    let (parallel_cells, parallel_secs) = timed_run(&scale, parallel_threads);

    let serial_json = wmh_json::to_string_pretty(&serial_cells);
    let parallel_json = wmh_json::to_string_pretty(&parallel_cells);
    let identical = serial_json == parallel_json;
    let speedup = serial_secs / parallel_secs;
    eprintln!(
        "1 thread: {serial_secs:.2}s | {parallel_threads} threads: {parallel_secs:.2}s | \
         speedup {speedup:.2}x | results byte-identical: {identical}"
    );

    let record = Json::Obj(vec![
        ("bench".to_owned(), "par_sweep".to_json()),
        ("available_cores".to_owned(), (cores as u64).to_json()),
        ("threads".to_owned(), (parallel_threads as u64).to_json()),
        (
            "cells".to_owned(),
            ((scale.datasets.len() * Algorithm::ALL.len() * scale.repeats) as u64).to_json(),
        ),
        ("serial_secs".to_owned(), serial_secs.to_json()),
        ("parallel_secs".to_owned(), parallel_secs.to_json()),
        ("speedup".to_owned(), speedup.to_json()),
        ("byte_identical".to_owned(), identical.to_json()),
    ]);
    match save_json(std::path::Path::new("results"), "BENCH_par_sweep", &record) {
        Ok(path) => eprintln!("saved {}", path.display()),
        Err(e) => eprintln!("could not save benchmark: {e}"),
    }
    if !identical {
        eprintln!("DETERMINISM VIOLATION: parallel results differ from serial");
        std::process::exit(1);
    }
}
