//! `expanse-check` CLI.
//!
//! ```text
//! expanse-check [--root DIR] [--json FILE] [--list-lints]
//! ```
//!
//! One mode: print the findings, write `CHECK_report.json`, exit 1 on any
//! finding. Exit 2 means the tool itself failed (bad usage,
//! unreadable workspace).

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary: the linter is tooling and feeds no digest"
)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: expanse-check [--root DIR] [--json FILE] [--list-lints]"
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = args.next().ok_or("--root needs a value")?.into(),
            "--json" => opts.json = Some(args.next().ok_or("--json needs a value")?.into()),
            "--list-lints" => {
                for (lint, desc) in expanse_check::LINTS {
                    println!("{lint:<12} {desc}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("expanse-check: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.root.join("Cargo.toml").is_file() {
        eprintln!(
            "expanse-check: {} does not look like the workspace root (no Cargo.toml); \
             pass --root",
            opts.root.display()
        );
        return ExitCode::from(2);
    }
    let json_path = opts
        .json
        .clone()
        .unwrap_or_else(|| opts.root.join("CHECK_report.json"));

    let policy = expanse_check::default_policy();
    let analysis = match expanse_check::run_checks(&opts.root, &policy) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("expanse-check: workspace scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Err(e) = std::fs::write(&json_path, analysis.json()) {
        eprintln!("expanse-check: writing {}: {e}", json_path.display());
        return ExitCode::from(2);
    }
    print!("{}", analysis.human());

    let deny = analysis.findings.len();
    if deny > 0 {
        eprintln!("expanse-check: gate failed ({deny} findings)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
