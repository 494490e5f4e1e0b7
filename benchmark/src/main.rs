//! The repo benchmark: whole day cycles and whole requests over five
//! named workloads, measured from outside the crates. See `README.md`
//! beside this package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! expanse-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! expanse-benchmark --check [--seed N]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only when every correctness check passed.

mod days;
mod metrics;
mod serve;
mod trace;
mod world;

use metrics::{result_line, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use world::Scale;

const USAGE: &str = "usage: expanse-benchmark --workload <days-hot|days-apd|days-sched-churn|\
serve-page|serve-point|all> [--seed N] [--seconds S] [--trace 0|1]\n       \
expanse-benchmark --check [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.check == args.workload.is_some() {
        return Err("give exactly one of --workload and --check".into());
    }
    Ok(args)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where trace files and journal scratch go: `out/` beside the
/// package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run metadata stamped into every report.
fn metadata(scale: Scale, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(env!("CARGO_MANIFEST_DIR")),
    );
    let rustc = first_line_of(Command::new("rustc").arg("-V"));
    format!(
        "nproc={nproc} worker_threads={} commit={commit} rustc={rustc:?} scale={:?} seed={seed}",
        expanse_addr::worker_threads(),
        scale.label()
    )
}

/// Run one workload once, print its report, and return the outcome.
fn run_one(workload: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let out_dir = out_dir();
    let outcome = if workload.is_serve() {
        serve::run(workload, scale, seed, seconds, trace, &out_dir)
    } else {
        days::run(workload, scale, seed, seconds, trace, &out_dir)
    };
    println!(
        "== {} ({}) seconds={seconds} {}",
        workload.name(),
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        metadata(scale, seed)
    );
    for fact in &outcome.facts {
        println!("   {fact}");
    }
    for m in outcome.metrics(trace) {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!(
            "   {:<44} {:>16} {}{note}",
            m.name,
            metrics::json_num(m.value),
            m.unit
        );
    }
    for c in &outcome.checks {
        println!(
            "   check {:<40} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "   attempted={} failed={} failed_share={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // More threads than cores measures oversubscription, not the
    // system: refuse instead of timing.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(threads) = std::env::var("EXPANSE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if threads > cores {
            eprintln!(
                "EXPANSE_THREADS={threads} exceeds the {cores} available cores; refusing to time"
            );
            return ExitCode::from(2);
        }
    }

    // `--check`: every workload, traced and untraced, at tiny scale with
    // short loops — verifies the benchmark itself in seconds.
    let (scale, seconds) = if args.check {
        (Scale::Tiny, 0.3)
    } else {
        (Scale::Bench, args.seconds)
    };
    let runs: Vec<(Workload, bool)> = match args.workload.as_deref() {
        None | Some("all") => Workload::ALL
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
        Some(name) => match Workload::parse(name) {
            Some(w) => vec![(w, args.trace)],
            None => {
                eprintln!("unknown workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };

    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut last_metrics = Vec::new();
    for &(workload, trace) in &runs {
        let outcome = run_one(workload, scale, args.seed, seconds, trace);
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct();
        last_metrics = outcome.metrics(trace);
    }
    // One workload: the contract's result line. Several: the totals
    // (each workload's metrics are in its own report above).
    if runs.len() > 1 {
        last_metrics.clear();
    }
    println!("{}", result_line(correct, attempted, failed, &last_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
