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

use expanse_bench::{ctx::Scale, Ctx, Render, EXPERIMENTS};
use std::path::PathBuf;

const USAGE: &str = "usage: experiments <id>...|all [--scale small|mid|full] [--seed N] [--out DIR]
       experiments --smoke   (tiny-scale CI pass over representative ids)
       experiments --list";

/// The ids `--smoke` runs: one representative experiment per subsystem.
const SMOKE: [&str; 7] = [
    "table2",
    "fig2a",
    "table3",
    "fig7",
    "bench-pipeline",
    "bench-scenarios",
    "bench-sched",
];

/// One row of [`EXPERIMENTS`]: an artifact id and its renderer.
type Experiment = &'static (&'static str, Render);

/// A checked command line: the artifacts to run, each one known.
#[derive(Debug, PartialEq)]
struct Run {
    scale: Scale,
    seed: u64,
    out: PathBuf,
    experiments: Vec<Experiment>,
}

/// The experiment behind an id, or the error that names it.
fn lookup(id: &str) -> Result<Experiment, String> {
    EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .ok_or_else(|| format!("unknown experiment id {id:?}; see --list"))
}

/// Store a flag's value, refusing a flag given twice.
fn once<T>(slot: &mut Option<T>, flag: &str, v: T) -> Result<(), String> {
    slot.replace(v)
        .map_or(Ok(()), |_| Err(format!("{flag} given twice")))
}

/// Check a whole command line before any artifact runs, so a bad one
/// is a one-line error (or [`USAGE`]), never a partial run. `Ok(None)`
/// asks for `--list`.
fn parse(args: &[String]) -> Result<Option<Run>, String> {
    if args.iter().any(|a| a == "--list") {
        return match args {
            [_] => Ok(None),
            _ => Err("--list takes no other argument".into()),
        };
    }
    let (mut scale, mut seed, mut out, mut smoke) = (None, None, None, None);
    let mut experiments = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => once(&mut smoke, a, ())?,
            "--scale" => {
                let v = it.next().map_or("", String::as_str);
                let s = Scale::parse(v).ok_or(format!("unknown scale {v:?} (small|mid|full)"))?;
                once(&mut scale, a, s)?;
            }
            "--seed" => {
                let v = it.next().and_then(|v| v.parse().ok());
                once(&mut seed, a, v.ok_or("--seed needs a number")?)?;
            }
            "--out" => once(&mut out, a, it.next().ok_or("--out needs a path")?.into())?,
            "all" => experiments.extend(EXPERIMENTS),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => experiments.push(lookup(other)?),
        }
    }
    if smoke.is_some() {
        // CI mode: exercise the full driver stack (model build,
        // pipeline, probing, reporting) at tiny scale on one
        // representative experiment per subsystem, so the drivers
        // cannot silently rot. Minutes, not hours — which is why it
        // owns the scale and the id list outright.
        if scale.is_some() || !experiments.is_empty() {
            return Err(
                "--smoke picks its own scale and experiment ids; drop --scale/<id> args".into(),
            );
        }
        scale = Some(Scale::Small);
        for id in SMOKE {
            experiments.push(lookup(id)?);
        }
    }
    if experiments.is_empty() {
        return Err(USAGE.into());
    }
    Ok(Some(Run {
        scale: scale.unwrap_or(Scale::Mid),
        seed: seed.unwrap_or(20_181_031), // the paper's publication date
        out: out.unwrap_or_else(|| PathBuf::from("results")),
        experiments,
    }))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(Some(run)) => run,
        Ok(None) => {
            for (id, _) in EXPERIMENTS {
                println!("{id}");
            }
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let mut ctx = Ctx::new(run.scale, run.seed, run.out.clone());
    let mut summary = String::new();
    for &(id, render) in run.experiments {
        let t0 = std::time::Instant::now();
        let report = render(&mut ctx);
        println!("{report}");
        ctx.write(&format!("{id}.txt"), &report);
        let line = format!("{id}: ok ({:.1}s)", t0.elapsed().as_secs_f64());
        println!("--- {line} ---\n");
        summary.push_str(&line);
        summary.push('\n');
    }
    ctx.write("SUMMARY.txt", &summary);
    eprintln!("results written to {}", run.out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    fn err(s: &[&str]) -> String {
        parse(&args(s)).unwrap_err()
    }

    /// The ids a run will render, in order.
    fn ids(run: &Run) -> Vec<&str> {
        run.experiments.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn defaults_ids_and_all() {
        let run = parse(&args(&["table2", "--seed", "7", "fig7"])).unwrap();
        let want = Run {
            scale: Scale::Mid,
            seed: 7,
            out: PathBuf::from("results"),
            experiments: vec![lookup("table2").unwrap(), lookup("fig7").unwrap()],
        };
        assert_eq!(run, Some(want));
        let Ok(Some(all)) = parse(&args(&["all", "--scale", "small"])) else {
            panic!("all runs");
        };
        assert_eq!(all.experiments, EXPERIMENTS.iter().collect::<Vec<_>>());
        assert_eq!(parse(&args(&["--list"])).unwrap(), None);
    }

    #[test]
    fn smoke_owns_scale_and_ids() {
        let Ok(Some(run)) = parse(&args(&["--smoke", "--out", "x"])) else {
            panic!("smoke runs");
        };
        assert_eq!((run.scale, ids(&run)), (Scale::Small, SMOKE.to_vec()));
        assert!(err(&["--smoke", "table2"]).starts_with("--smoke picks"));
    }

    #[test]
    fn repeated_flags_are_rejected_by_name() {
        assert_eq!(
            err(&["all", "--seed", "1", "--seed", "2"]),
            "--seed given twice"
        );
        assert_eq!(
            err(&["all", "--scale", "small", "--scale", "mid"]),
            "--scale given twice"
        );
        assert_eq!(
            err(&["all", "--out", "a", "--out", "b"]),
            "--out given twice"
        );
        assert_eq!(err(&["--smoke", "--smoke"]), "--smoke given twice");
    }

    #[test]
    fn list_stands_alone() {
        assert_eq!(err(&["--list", "table2"]), "--list takes no other argument");
        assert_eq!(
            err(&["--scale", "small", "--list"]),
            "--list takes no other argument"
        );
    }

    #[test]
    fn every_id_is_checked_before_any_runs() {
        assert_eq!(
            err(&["table2", "bogus"]),
            "unknown experiment id \"bogus\"; see --list"
        );
        assert_eq!(err(&["table2", "--bogus"]), "unknown flag --bogus");
        assert_eq!(
            err(&["--scale", "huge", "table2"]),
            "unknown scale \"huge\" (small|mid|full)"
        );
        assert_eq!(err(&["--seed", "x"]), "--seed needs a number");
        assert_eq!(err(&["--out"]), "--out needs a path");
        assert_eq!(err(&[]), USAGE);
    }
}
