//! `expanse-served`: the hitlist serving daemon.
//!
//! Puts a real TCP/unix-domain front ([`expanse_serve::Server`]) on an
//! epoch-swapped [`SnapshotRegistry`], fed from one of two sources:
//!
//! - `--journal PATH`: load a snapshot journal (read-only
//!   `PersistedState` path) and serve that single epoch;
//! - `--simulate`: run the full probing pipeline in-process, one
//!   virtual day every `--day-ms`, publishing each completed day as a
//!   fresh epoch — a live epoch-swapping server, the one CI's daemon
//!   flag gate starts.
//!
//! Every argument is read or rejected: a stray positional, a repeated
//! flag, or an option the chosen source or cache setting would ignore
//! exits 2 with a message naming it, before anything binds or builds.
//!
//! The daemon drains gracefully on `drain` (or EOF) on stdin, or after
//! `--days N` in simulate mode: listeners reject new connections with
//! one `ERR_SHUTTING_DOWN` frame, in-flight requests finish against
//! their pinned epochs, then the process exits and prints a drain
//! report. Every line goes out through `say!`, which drops write
//! errors: a closed stdout or stderr costs the lines, not the run.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary: the daemon's clocks and threads never \
              reach a digest or a snapshot byte"
)]

use expanse_core::{Pipeline, PipelineConfig};
use expanse_model::ModelConfig;
use expanse_serve::{
    BindAddr, CacheConfig, RateLimitConfig, Server, ServerConfig, SnapshotRegistry, SnapshotView,
};
use expanse_served::Flags;
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
expanse-served: serve a hitlist snapshot registry over TCP / unix sockets

usage: expanse-served --listen tcp:IP:PORT|uds:PATH [--listen …] SOURCE [options]

source (one of):
  --journal PATH        serve the state in a snapshot journal (one epoch)
  --simulate            run the probing pipeline in-process, publishing
                        one epoch per completed virtual day

simulate options:
  --days N              virtual days to run before draining (default 3)
  --day-ms MS           pause between virtual days (default 200)
  --seed N              model seed (default 7)
  --runup D             source run-up days to ingest first (default 30)

server options:
  --max-conns N         concurrent-connection ceiling (default 256)
  --max-inflight N      server-wide concurrent requests (default 64)
  --read-timeout-ms N   mid-frame read deadline (default 5000)
  --write-timeout-ms N  per-response write deadline (default 5000)
  --idle-timeout-ms N   quiet-connection close (default 60000)
  --drain-grace-ms N    drain wait before force-close (default 10000)
  --no-cache            disable the response cache
  --cache-mb N          response-cache budget in MiB (default 64)
  --keep-epochs N       cached epochs retained on publish (default 2)
  --qps F               per-client sustained requests/s (default: unlimited)
  --burst F             per-client burst (default: 2 × qps)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        say!(stderr, "expanse-served: {e}");
        std::process::exit(2);
    }
}

/// `println!`, or with `stderr` first `eprintln!`, dropping a write
/// error: a reader that stops reading (a supervisor gone, `| head`)
/// must not end the daemon, which serves and drains on without its
/// lines.
macro_rules! say {
    (stderr, $($arg:tt)*) => {{
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}
use say;

/// Flags that take a value.
const VALUED: &[&str] = &[
    "listen",
    "journal",
    "days",
    "day-ms",
    "seed",
    "runup",
    "max-conns",
    "max-inflight",
    "read-timeout-ms",
    "write-timeout-ms",
    "idle-timeout-ms",
    "drain-grace-ms",
    "cache-mb",
    "keep-epochs",
    "qps",
    "burst",
];

/// Flags that take none.
const BOOLEAN: &[&str] = &["simulate", "no-cache", "help"];

/// Options only `--simulate` reads.
const SIMULATE_ONLY: &[&str] = &["days", "day-ms", "seed", "runup"];

/// Where the served state comes from, with every option it reads.
enum Source {
    /// Serve the state in this journal as one epoch.
    Journal(String),
    /// Run the pipeline in-process, one epoch per completed day.
    Simulate {
        seed: u64,
        runup: u32,
        days: u32,
        day_ms: u64,
    },
}

/// Everything `run` needs, checked before anything binds or builds.
struct Args {
    listens: Vec<BindAddr>,
    server: ServerConfig,
    source: Source,
}

/// Parse and check the command line: `Ok(None)` for `--help`. Every
/// argument given is read, or its rejection names it.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let f = Flags::parse(args, VALUED, BOOLEAN)?;
    if f.has("help") {
        return Ok(None);
    }
    if let Some(arg) = f.positional().first() {
        return Err(format!("unexpected argument {arg:?}"));
    }
    // `--listen` is the one flag that repeats; any other would keep
    // only its last value.
    if let Some(name) = VALUED
        .iter()
        .find(|&&n| n != "listen" && f.get_all(n).len() > 1)
    {
        return Err(format!("--{name} given more than once"));
    }
    let listens: Vec<BindAddr> = f
        .get_all("listen")
        .into_iter()
        .map(BindAddr::parse)
        .collect::<Result<_, _>>()?;
    if listens.is_empty() {
        return Err("at least one --listen tcp:IP:PORT or --listen uds:PATH is required".into());
    }
    Ok(Some(Args {
        listens,
        server: server_config(&f)?,
        source: source(&f)?,
    }))
}

fn source(f: &Flags) -> Result<Source, String> {
    match (f.get("journal"), f.has("simulate")) {
        (Some(_), true) => Err("--journal and --simulate are mutually exclusive".into()),
        (Some(path), false) => {
            if let Some(name) = SIMULATE_ONLY.iter().find(|n| f.get(n).is_some()) {
                return Err(format!(
                    "--{name} is a --simulate option; --journal serves one fixed epoch"
                ));
            }
            Ok(Source::Journal(path.to_string()))
        }
        (None, true) => Ok(Source::Simulate {
            seed: f.parsed("seed", 7)?,
            runup: f.parsed("runup", 30)?,
            days: f.parsed("days", 3)?,
            day_ms: f.parsed("day-ms", 200)?,
        }),
        (None, false) => Err("a source is required: --journal PATH or --simulate".into()),
    }
}

fn server_config(f: &Flags) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    cfg.max_connections = f.parsed("max-conns", cfg.max_connections)?;
    cfg.max_inflight = f.parsed("max-inflight", cfg.max_inflight)?;
    for (name, n) in [
        ("max-conns", cfg.max_connections),
        ("max-inflight", cfg.max_inflight),
    ] {
        if n == 0 {
            return Err(format!("--{name} must be at least 1, got 0"));
        }
    }
    let ms = |name: &str, d: Duration| -> Result<Duration, String> {
        Ok(Duration::from_millis(f.parsed(name, d.as_millis() as u64)?))
    };
    cfg.read_timeout = ms("read-timeout-ms", cfg.read_timeout)?;
    cfg.write_timeout = ms("write-timeout-ms", cfg.write_timeout)?;
    cfg.idle_timeout = ms("idle-timeout-ms", cfg.idle_timeout)?;
    cfg.drain_grace = ms("drain-grace-ms", cfg.drain_grace)?;
    cfg.cache = if f.has("no-cache") {
        if let Some(name) = ["cache-mb", "keep-epochs"]
            .into_iter()
            .find(|n| f.get(n).is_some())
        {
            return Err(format!("--{name} conflicts with --no-cache"));
        }
        None
    } else {
        let mb = f.parsed("cache-mb", 64usize)?;
        let keep_epochs = f.parsed("keep-epochs", 2u64)?;
        if keep_epochs == 0 {
            return Err("--keep-epochs must be at least 1, got 0".into());
        }
        Some(CacheConfig {
            max_bytes: mb
                .checked_mul(1 << 20)
                .ok_or_else(|| format!("--cache-mb: {mb} MiB does not fit in memory"))?,
            keep_epochs,
        })
    };
    if let Some(qps) = f.parsed_opt::<f64>("qps")? {
        let burst = f.parsed("burst", qps * 2.0)?;
        for (name, v) in [("qps", qps), ("burst", burst)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("--{name} must be a positive number, got {v}"));
            }
        }
        cfg.rate = Some(RateLimitConfig { qps, burst });
    } else if f.get("burst").is_some() {
        return Err("--burst needs --qps".into());
    }
    Ok(cfg)
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(Args {
        listens,
        server: cfg,
        source,
    }) = parse_args(args)?
    else {
        say!("{}", USAGE.trim_end());
        return Ok(());
    };

    // ---- the data source: journal or in-process pipeline -------------
    let mut simulation: Option<(Pipeline, u32, u64)> = None;
    let registry = match source {
        Source::Journal(path) => {
            let file = std::fs::File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
            let apd = PipelineConfig::default().apd;
            let (view, replay) =
                SnapshotView::load_journal(apd, &mut std::io::BufReader::new(file))
                    .map_err(|e| format!("load journal {path}: {e:?}"))?;
            if replay.torn_tail {
                say!(
                    stderr,
                    "warning: journal has a torn tail; serving the last complete record"
                );
            }
            say!(
                "journal {path}: day {}, {} deltas applied",
                view.days_complete(),
                replay.deltas_applied
            );
            Arc::new(SnapshotRegistry::new(view))
        }
        Source::Simulate {
            seed,
            runup,
            days,
            day_ms,
        } => {
            let mut p = Pipeline::new(ModelConfig::tiny(seed), PipelineConfig::default());
            p.collect_sources(runup);
            say!(
                "simulate: seed {seed}, {} addresses ingested, epoch 0 is the pre-probe view",
                p.hitlist.len()
            );
            let registry = Arc::new(SnapshotRegistry::new(SnapshotView::publish(&p)));
            simulation = Some((p, days, day_ms));
            registry
        }
    };

    // ---- the server --------------------------------------------------
    let server =
        Server::start(Arc::clone(&registry), &listens, cfg).map_err(|e| format!("bind: {e}"))?;
    for a in server.local_addrs() {
        say!("listening {a}");
    }

    // ---- drain triggers ----------------------------------------------
    let (tx, rx) = mpsc::channel::<&'static str>();
    {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line.as_deref().map(str::trim) {
                    Ok("drain") | Ok("quit") | Ok("stop") => {
                        let _ = tx.send("stdin request");
                        return;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            let _ = tx.send("stdin closed");
        });
    }
    if let Some((mut p, days, day_ms)) = simulation {
        let reg = Arc::clone(&registry);
        std::thread::spawn(move || {
            for _ in 0..days {
                let snap = p.run_day();
                let epoch = reg.publish(SnapshotView::publish(&p));
                say!(
                    "day {} complete: epoch {epoch} published ({} members) {:?}",
                    snap.day,
                    snap.hitlist_total,
                    snap.report
                );
                std::thread::sleep(Duration::from_millis(day_ms));
            }
            let _ = tx.send("simulation complete");
        });
    }

    // ---- serve until told to stop, then drain ------------------------
    let why = rx.recv().unwrap_or("all drain triggers gone");
    say!("draining ({why})");
    let report = server.drain();
    say!(
        "drained in {:?}: {} requests served, {} accepts ({} rejected overloaded, {} rejected shutting-down), {} force-closed",
        report.drain,
        report.stats.requests,
        report.stats.accepted,
        report.stats.rejected_overloaded,
        report.stats.rejected_shutdown,
        report.forced_closes,
    );
    if let Some(c) = report.cache {
        say!(
            "cache: {:.1}% hit rate ({} hits / {} lookups), {} inserted, {} deferred as first sightings, {} retired, {} evicted",
            c.hit_rate() * 100.0,
            c.hits,
            c.hits + c.misses,
            c.inserts,
            c.deferred,
            c.retired,
            c.evicted,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error `parse_args` gives for `args` after one good
    /// `--listen`.
    fn rejected(args: &[&str]) -> String {
        let args: Vec<String> = ["--listen", "tcp:127.0.0.1:0"]
            .iter()
            .chain(args)
            .map(|a| a.to_string())
            .collect();
        match parse_args(&args) {
            Err(e) => e,
            Ok(_) => panic!("bad flags accepted: {args:?}"),
        }
    }

    #[test]
    fn bad_rate_flags_are_rejected_by_name() {
        assert!(rejected(&["--qps", "10", "--burst", "0"]).starts_with("--burst"));
        assert!(rejected(&["--qps", "10", "--burst", "-1"]).starts_with("--burst"));
        assert!(rejected(&["--qps", "10", "--burst", "inf"]).starts_with("--burst"));
        assert!(rejected(&["--qps", "nan"]).starts_with("--qps"));
        assert!(rejected(&["--qps", "inf"]).starts_with("--qps"));
        assert!(rejected(&["--qps", "0"]).starts_with("--qps"));
        assert!(rejected(&["--burst", "5"]).starts_with("--burst"));
    }

    #[test]
    fn a_cache_budget_past_usize_is_rejected_not_wrapped() {
        assert!(rejected(&["--cache-mb", "17592186044416"]).starts_with("--cache-mb"));
    }

    #[test]
    fn stray_positional_arguments_are_rejected_by_name() {
        assert_eq!(rejected(&["--simulate", "5"]), r#"unexpected argument "5""#);
        assert_eq!(
            rejected(&["--simulate", "--", "--days"]),
            r#"unexpected argument "--days""#
        );
    }

    #[test]
    fn repeated_flags_are_rejected_by_name() {
        assert!(rejected(&["--simulate", "--seed", "1", "--seed", "2"]).starts_with("--seed"));
        assert!(rejected(&["--journal", "a", "--journal", "b"]).starts_with("--journal"));
    }

    #[test]
    fn simulate_options_are_rejected_with_a_journal() {
        for name in SIMULATE_ONLY {
            let flag = format!("--{name}");
            let err = rejected(&["--journal", "state.journal", &flag, "1"]);
            assert!(err.starts_with(&flag), "{err}");
        }
    }

    #[test]
    fn cache_options_are_rejected_with_no_cache() {
        for flag in ["--cache-mb", "--keep-epochs"] {
            let err = rejected(&["--simulate", "--no-cache", flag, "4"]);
            assert!(err.starts_with(flag), "{err}");
        }
    }

    #[test]
    fn zero_kept_epochs_is_rejected_not_clamped() {
        assert!(rejected(&["--simulate", "--keep-epochs", "0"]).starts_with("--keep-epochs"));
    }

    #[test]
    fn zero_ceilings_are_rejected_not_clamped() {
        for flag in ["--max-conns", "--max-inflight"] {
            let err = rejected(&["--simulate", flag, "0"]);
            assert!(err.starts_with(flag), "{err}");
        }
    }

    #[test]
    fn a_good_flag_set_parses() {
        let args: Vec<String> = [
            "--listen",
            "tcp:127.0.0.1:0",
            "--simulate",
            "--days",
            "2",
            "--keep-epochs",
            "1",
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let parsed = parse_args(&args).expect("good flags").expect("not --help");
        assert!(matches!(parsed.source, Source::Simulate { days: 2, .. }));
        assert_eq!(parsed.server.cache.map(|c| c.keep_epochs), Some(1));
    }
}
