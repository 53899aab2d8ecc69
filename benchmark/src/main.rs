//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_read|serve_mixed|fig8_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it runs the workload
//! untraced and reports the end-to-end metrics; with `--trace 1` it runs
//! the workload untraced and then traced (their difference is the
//! tracing overhead), runs the layer passes of [`layers`], writes every
//! span to `.bench_out/`, and reports the per-layer metrics. Every
//! correctness gate is checked in both modes; a failed gate exits 1. The
//! last line of standard output is one JSON object. See `README.md`.

mod corpus;
mod layers;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Gate, Line, Run};
use stats::{median, tail, windowed_rate};
use trace::Tracer;

/// Where traces and scratch WAL directories go, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 3] = ["serve_read", "serve_mixed", "fig8_sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: wmh-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}\n{}", usage()))?;
        argv.get(at + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Whether `wmh-fault` failpoints are live in this build: arm one and hit it.
fn failpoints_compiled_in() -> bool {
    if wmh_fault::configure("bench::probe=always", 0).is_err() {
        return false;
    }
    let live = wmh_fault::hit("bench::probe", None).is_err();
    wmh_fault::clear();
    live
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.to_owned() };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unresolved {name}"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, m)| m.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn target_features() -> String {
    let on = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let names: Vec<&str> = on.iter().filter(|(_, b)| *b).map(|(n, _)| *n).collect();
    if names.is_empty() {
        "baseline".into()
    } else {
        names.join(",")
    }
}

fn provenance() -> String {
    format!(
        "cpu=\"{}\" nproc={} rustflags=\"{}\" target_features={} profile={} opt-level={} git_rev={} \
         failpoints=off",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        env!("WMH_BENCH_RUSTFLAGS"),
        target_features(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        env!("WMH_BENCH_OPT_LEVEL"),
        git_rev(),
    )
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One run's outcome, ready to print.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The metrics the JSON line carries.
    metrics: Vec<Line>,
    /// Further lines for the human-readable report.
    lines: Vec<Line>,
    gates: Vec<Gate>,
    notes: Vec<String>,
}

fn run_workload(args: &Args, scratch: &Path, tracer: Option<&Tracer>) -> Result<Run, String> {
    match args.workload.as_str() {
        "fig8_sweep" => sweep::run(args.seed, args.seconds, tracer),
        workload => {
            let corpus = corpus::Corpus::generate(args.seed, corpus::SERVING)?;
            if workload == "serve_read" {
                serve::run_read(&corpus, args.seed, args.seconds, tracer)
            } else {
                serve::run_mixed(&corpus, args.seed, args.seconds, scratch, tracer)
            }
        }
    }
}

fn latencies(run: &Run) -> Vec<f64> {
    run.ops.iter().map(|o| o.1).collect()
}

fn end_to_end(run: &Run) -> Result<Vec<Line>, String> {
    let latencies = latencies(run);
    let n = latencies.len();
    let t = tail(&latencies, 99.0);
    let ends: Vec<f64> = run.ops.iter().map(|o| o.0).collect();
    let rate = windowed_rate(&ends, run.elapsed_s);
    Ok(vec![
        Line::new(
            "setup_s",
            median(&run.setup_s),
            "s",
            format!("median of {} set-ups", run.setup_s.len()),
        ),
        Line::new("p50_ms", median(&latencies), "ms", format!("n={n}")),
        Line::new("p99_ms", t.value, "ms", format!("{} of n={n}", t.label())),
        Line::new(
            "ops_per_s",
            rate.ops_per_s,
            "1/s",
            format!("median of {} window(s), {n} ops in {:.3} s", rate.windows, run.elapsed_s),
        ),
        Line::new(
            "ok_frac",
            (run.attempted - run.failed) as f64 / run.attempted.max(1) as f64,
            "1",
            format!("failed_frac = {}", run.failed as f64 / run.attempted.max(1) as f64),
        ),
        Line::new("peak_rss_mb", peak_rss_mb()?, "MB", "VmHWM"),
    ])
}

fn execute(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let untraced = run_workload(args, &scratch.join("untraced"), None)?;
    if !args.trace {
        let metrics = end_to_end(&untraced)?;
        let mut lines = untraced.lines;
        lines.extend(untraced.refusals.iter().flat_map(|r| r.lines("whole run")));
        return Ok(Outcome {
            attempted: untraced.attempted,
            failed: untraced.failed,
            metrics,
            lines,
            gates: untraced.gates,
            notes: Vec::new(),
        });
    }
    let tracer = Tracer::default();
    let traced = run_workload(args, &scratch.join("traced"), Some(&tracer))?;
    let overhead = median(&latencies(&traced)) - median(&latencies(&untraced));
    let mut metrics =
        vec![Line::new("trace.overhead_ms", overhead, "ms", "traced minus untraced p50")];
    let mut gates = Vec::new();
    for (run, list) in [("untraced", untraced.gates), ("traced", traced.gates)] {
        gates
            .extend(list.into_iter().map(|g| Gate { name: format!("{run} run: {}", g.name), ..g }));
    }

    let corpus = corpus::Corpus::generate(args.seed, corpus::SERVING)?;
    let (query, mut refusals) =
        layers::query_pass(&corpus, args.seed, layers::QUERY_REQUESTS, &tracer)?;
    // Refusals seen anywhere in the traced run: the query pass plus the
    // traced workload loop.
    refusals.merge(traced.refusals.unwrap_or_default());
    let write = layers::write_pass(&corpus, args.seed, scratch, &tracer)?;
    let sweep = layers::sweep_pass(args.seed, &tracer)?;
    let sketchers = layers::sketcher_pass(&corpus, args.seed, &tracer)?;
    for part in [query, write, sweep, sketchers] {
        metrics.extend(part.lines);
        gates.extend(part.gates);
    }
    metrics.extend(refusals.lines("whole traced run"));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.save(&path)?;
    let notes = vec![format!("{} spans written to {}", tracer.spans().len(), path.display())];
    Ok(Outcome {
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        metrics,
        lines: traced.lines,
        gates,
        notes,
    })
}

fn json_line(correct: bool, o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted, o.failed
    )
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if failpoints_compiled_in() {
        return Err(
            "wmh-fault/failpoints is compiled in; that build measures a different program".into()
        );
    }
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# provenance: {}", provenance());
    let scratch = PathBuf::from(OUT_DIR).join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = execute(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outcome = result?;
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    outcome.gates.push(Gate::new("every reported metric is a finite number", finite, ""));
    for line in outcome.metrics.iter().chain(&outcome.lines) {
        println!("{} = {} {} ({})", line.name, line.value, line.unit, line.note);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    for gate in &outcome.gates {
        println!("gate {}: {} ({})", if gate.ok { "ok" } else { "FAILED" }, gate.name, gate.detail);
    }
    let correct = outcome.gates.iter().all(|g| g.ok);
    println!("{}", json_line(correct, &outcome));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wmh-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
