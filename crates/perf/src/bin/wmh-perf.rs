//! The benchmark CLI: `run` measures the suite, `compare` diffs two
//! reports, `gate` is the CI entry point (measure + compare + targeted
//! re-measurement of flaky workloads).
//!
//! ```text
//! wmh-perf run [--profile quick|full] [--out PATH]
//! wmh-perf compare BASELINE CURRENT [--tolerance 0.25]
//! wmh-perf gate --baseline PATH [--profile quick|full] [--out PATH]
//!               [--tolerance 0.25] [--retries 2]
//! ```
//!
//! `compare` and `gate` exit nonzero when any workload's median regresses
//! by more than the tolerance, or when a baseline workload is missing
//! from the current run (silent coverage loss). `gate` additionally
//! re-measures *only* the workloads that exceeded tolerance, up to
//! `--retries` times — on a shared machine a scheduler burst can slow one
//! sample batch by 40%+, and a genuine regression reproduces on every
//! re-measurement while noise does not.

use std::process::ExitCode;
use wmh_perf::harness::BenchOptions;
use wmh_perf::workloads::{self, Profile};
use wmh_perf::{compare, Comparison, Report};

const USAGE: &str = "usage:
  wmh-perf run [--profile quick|full] [--out PATH]
  wmh-perf compare BASELINE CURRENT [--tolerance FRACTION]
  wmh-perf gate --baseline PATH [--profile quick|full] [--out PATH] [--tolerance FRACTION] [--retries N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => cmp(&args[1..]),
        Some("gate") => gate(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} requires a value\n{USAGE}")),
    }
}

fn parse_profile(args: &[String]) -> Result<Profile, String> {
    match flag_value(args, "--profile")? {
        None => Ok(Profile::Quick),
        Some(name) => {
            Profile::parse(name).ok_or_else(|| format!("unknown profile \"{name}\"\n{USAGE}"))
        }
    }
}

fn parse_tolerance(args: &[String]) -> Result<f64, String> {
    match flag_value(args, "--tolerance")? {
        None => Ok(0.25),
        Some(t) => t
            .parse::<f64>()
            .ok()
            .filter(|t| *t >= 0.0 && t.is_finite())
            .ok_or_else(|| format!("bad tolerance \"{t}\" (need a non-negative fraction)")),
    }
}

fn write_report(report: &Report, out_path: Option<&str>) -> Result<(), String> {
    let text = wmh_json::to_string_pretty(report);
    match out_path {
        Some(path) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
                }
            }
            std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wmh-perf: wrote {} results to {path}", report.results.len());
        }
        None => println!("{text}"),
    }
    Ok(())
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Report::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let profile = parse_profile(args)?;
    eprintln!("wmh-perf: running fig9_hot suite, profile = {}", profile.name());
    let opts = profile.options();
    let results = workloads::run_all(profile, &opts);
    let report = Report::new("fig9_hot", profile.name(), results);
    write_report(&report, flag_value(args, "--out")?)?;
    Ok(ExitCode::SUCCESS)
}

fn print_comparison(outcome: &Comparison, tolerance: f64) {
    for d in &outcome.passes {
        println!(
            "  ok       {:<44} {:>10.0} -> {:>10.0} ns  ({:+.1}%)",
            d.id,
            d.baseline_ns,
            d.current_ns,
            d.change * 100.0
        );
    }
    for id in &outcome.added {
        println!("  new      {id:<44} (not in baseline; refresh to gate it)");
    }
    for id in &outcome.missing {
        println!("  MISSING  {id:<44} (in baseline, absent from this run)");
    }
    for d in &outcome.regressions {
        println!(
            "  REGRESSED {:<43} {:>10.0} -> {:>10.0} ns  ({:+.1}% > +{:.0}%)",
            d.id,
            d.baseline_ns,
            d.current_ns,
            d.change * 100.0,
            tolerance * 100.0
        );
    }
}

fn verdict(outcome: &Comparison) -> ExitCode {
    if outcome.is_pass() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!(
            "perf gate: FAIL ({} regressed, {} missing)",
            outcome.regressions.len(),
            outcome.missing.len()
        );
        ExitCode::FAILURE
    }
}

fn cmp(args: &[String]) -> Result<ExitCode, String> {
    let positional: Vec<&String> = {
        // Flags come in (name, value) pairs; everything else is positional.
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if args[i].starts_with("--") {
                i += 2;
            } else {
                out.push(&args[i]);
                i += 1;
            }
        }
        out
    };
    let [baseline_path, current_path] = positional.as_slice() else {
        return Err(format!("compare needs exactly two report paths\n{USAGE}"));
    };
    let tolerance = parse_tolerance(args)?;
    let baseline = load_report(baseline_path)?;
    let current = load_report(current_path)?;
    let outcome = compare(&baseline, &current, tolerance);
    println!(
        "perf gate: {} workloads, tolerance +{:.0}%",
        baseline.results.len(),
        tolerance * 100.0
    );
    print_comparison(&outcome, tolerance);
    Ok(verdict(&outcome))
}

fn gate(args: &[String]) -> Result<ExitCode, String> {
    let profile = parse_profile(args)?;
    let tolerance = parse_tolerance(args)?;
    let baseline_path = flag_value(args, "--baseline")?
        .ok_or_else(|| format!("gate needs --baseline PATH\n{USAGE}"))?;
    let retries: u32 = match flag_value(args, "--retries")? {
        None => 2,
        Some(r) => r.parse().map_err(|_| format!("bad retry count \"{r}\""))?,
    };
    let baseline = load_report(baseline_path)?;

    eprintln!("wmh-perf: gate run, profile = {}", profile.name());
    let opts = profile.options();
    let mut current = Report::new("fig9_hot", profile.name(), workloads::run_all(profile, &opts));
    let mut outcome = compare(&baseline, &current, tolerance);

    // Re-measure only the workloads that exceeded tolerance: noise does
    // not reproduce, regressions do. Use stiffer options (more samples)
    // for the retry so the second opinion is better, not just different.
    let retry_opts = BenchOptions { samples: opts.samples * 2, ..opts };
    for attempt in 1..=retries {
        if outcome.regressions.is_empty() {
            break;
        }
        let suspect_ids: Vec<String> = outcome.regressions.iter().map(|d| d.id.clone()).collect();
        eprintln!(
            "wmh-perf: retry {attempt}/{retries} for {} workload(s) over tolerance",
            suspect_ids.len()
        );
        let remeasured = workloads::run_filtered(profile, &retry_opts, &|id| {
            suspect_ids.iter().any(|s| s == id)
        });
        for new_result in remeasured {
            if let Some(slot) = current.results.iter_mut().find(|r| r.id == new_result.id) {
                *slot = new_result;
            }
        }
        outcome = compare(&baseline, &current, tolerance);
    }

    write_report(&current, flag_value(args, "--out")?)?;
    println!(
        "perf gate: {} workloads, tolerance +{:.0}%, retries {retries}",
        baseline.results.len(),
        tolerance * 100.0
    );
    print_comparison(&outcome, tolerance);
    Ok(verdict(&outcome))
}
