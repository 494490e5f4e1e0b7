//! The experiment harness CLI.
//!
//! Usage:
//! ```text
//! experiments <id>...          run specific artifacts (table2, fig7, ...)
//! experiments all              run everything in paper order
//! experiments --smoke          tiny-scale CI pass over representative ids
//! experiments --list           list artifact ids
//! experiments --scale small|mid|full   model scale (default mid)
//! experiments --seed N         model seed (default 20181031)
//! experiments --out DIR        results directory (default results/)
//! ```
//!
//! Each run prints the report and writes `results/<id>.txt` (plus SVGs
//! for the zesplot figures).

#![expect(
    clippy::disallowed_types,
    reason = "the per-artifact wall time goes to the console and SUMMARY.txt, \
              never into a report"
)]

use expanse_bench::{ctx::Scale, Ctx, ALL_EXPERIMENTS};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale: Option<Scale> = None;
    let mut seed: u64 = 20_181_031; // the paper's publication date
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut smoke = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "--smoke" => smoke = true,
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = Some(Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?} (small|mid|full)");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }));
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if smoke {
        // CI mode: exercise the full driver stack (model build,
        // pipeline, probing, reporting) at tiny scale on one
        // representative experiment per subsystem, so the drivers
        // cannot silently rot. Minutes, not hours — which is why it
        // owns the scale and the id list outright.
        if scale.is_some() || !ids.is_empty() {
            eprintln!("--smoke picks its own scale and experiment ids; drop --scale/<id> args");
            std::process::exit(2);
        }
        scale = Some(Scale::Small);
        ids.extend(
            [
                "table2",
                "fig2a",
                "table3",
                "fig7",
                "bench-pipeline",
                "bench-scenarios",
                "bench-sched",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
    }
    if ids.is_empty() {
        eprintln!("usage: experiments <id>...|all [--scale small|mid|full] [--seed N] [--out DIR]");
        eprintln!("       experiments --smoke   (tiny-scale CI pass over representative ids)");
        eprintln!("       experiments --list");
        std::process::exit(2);
    }

    let mut ctx = Ctx::new(scale.unwrap_or(Scale::Mid), seed, out_dir.clone());
    let mut summary = String::new();
    for id in &ids {
        let t0 = std::time::Instant::now();
        match expanse_bench::run(id, &mut ctx) {
            Some(report) => {
                println!("{report}");
                ctx.write(&format!("{id}.txt"), &report);
                let line = format!("{id}: ok ({:.1}s)", t0.elapsed().as_secs_f64());
                println!("--- {line} ---\n");
                summary.push_str(&line);
                summary.push('\n');
            }
            None => {
                eprintln!("unknown experiment id {id:?}; see --list");
                std::process::exit(2);
            }
        }
    }
    ctx.write("SUMMARY.txt", &summary);
    eprintln!("results written to {}", out_dir.display());
}
