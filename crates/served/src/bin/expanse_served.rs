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
//! The daemon drains gracefully on `drain` (or EOF) on stdin, or after
//! `--days N` in simulate mode: listeners reject new connections with
//! one `ERR_SHUTTING_DOWN` frame, in-flight requests finish against
//! their pinned epochs, then the process exits and prints a drain
//! report.

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
use std::io::BufRead;
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
        eprintln!("expanse-served: {e}");
        std::process::exit(2);
    }
}

fn server_config(f: &Flags) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig::default();
    cfg.max_connections = f.parsed("max-conns", cfg.max_connections)?;
    cfg.max_inflight = f.parsed("max-inflight", cfg.max_inflight)?;
    let ms = |name: &str, d: Duration| -> Result<Duration, String> {
        Ok(Duration::from_millis(f.parsed(name, d.as_millis() as u64)?))
    };
    cfg.read_timeout = ms("read-timeout-ms", cfg.read_timeout)?;
    cfg.write_timeout = ms("write-timeout-ms", cfg.write_timeout)?;
    cfg.idle_timeout = ms("idle-timeout-ms", cfg.idle_timeout)?;
    cfg.drain_grace = ms("drain-grace-ms", cfg.drain_grace)?;
    cfg.cache = if f.has("no-cache") {
        None
    } else {
        let mb = f.parsed("cache-mb", 64usize)?;
        Some(CacheConfig {
            max_bytes: mb
                .checked_mul(1 << 20)
                .ok_or_else(|| format!("--cache-mb: {mb} MiB does not fit in memory"))?,
            keep_epochs: f.parsed("keep-epochs", 2u64)?,
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
    let f = Flags::parse(
        args,
        &[
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
        ],
        &["simulate", "no-cache", "help"],
    )?;
    if f.has("help") {
        print!("{USAGE}");
        return Ok(());
    }
    let listens: Vec<BindAddr> = f
        .get_all("listen")
        .into_iter()
        .map(BindAddr::parse)
        .collect::<Result<_, _>>()?;
    if listens.is_empty() {
        return Err("at least one --listen tcp:IP:PORT or --listen uds:PATH is required".into());
    }
    let cfg = server_config(&f)?;

    // ---- the data source: journal or in-process pipeline -------------
    let mut pipeline: Option<Pipeline> = None;
    let registry = if let Some(path) = f.get("journal") {
        if f.has("simulate") {
            return Err("--journal and --simulate are mutually exclusive".into());
        }
        let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let apd = PipelineConfig::default().apd;
        let (view, replay) = SnapshotView::load_journal(apd, &mut std::io::BufReader::new(file))
            .map_err(|e| format!("load journal {path}: {e:?}"))?;
        if replay.torn_tail {
            eprintln!("warning: journal has a torn tail; serving the last complete record");
        }
        println!(
            "journal {path}: day {}, {} deltas applied",
            view.days_complete(),
            replay.deltas_applied
        );
        Arc::new(SnapshotRegistry::new(view))
    } else if f.has("simulate") {
        let seed = f.parsed("seed", 7u64)?;
        let runup = f.parsed("runup", 30u32)?;
        let mut p = Pipeline::new(ModelConfig::tiny(seed), PipelineConfig::default());
        p.collect_sources(runup);
        println!(
            "simulate: seed {seed}, {} addresses ingested, epoch 0 is the pre-probe view",
            p.hitlist.len()
        );
        let registry = Arc::new(SnapshotRegistry::new(SnapshotView::publish(&p)));
        pipeline = Some(p);
        registry
    } else {
        return Err("a source is required: --journal PATH or --simulate".into());
    };

    // ---- the server --------------------------------------------------
    let server =
        Server::start(Arc::clone(&registry), &listens, cfg).map_err(|e| format!("bind: {e}"))?;
    for a in server.local_addrs() {
        println!("listening {a}");
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
    if let Some(mut p) = pipeline {
        let days = f.parsed("days", 3u32)?;
        let day_ms = f.parsed("day-ms", 200u64)?;
        let reg = Arc::clone(&registry);
        p.on_day_end(Box::new(move |p, snap| {
            let epoch = reg.publish(SnapshotView::publish(p));
            println!(
                "day {} complete: epoch {epoch} published ({} members) {:?}",
                snap.day,
                snap.hitlist_total,
                p.last_report()
            );
        }));
        std::thread::spawn(move || {
            for _ in 0..days {
                p.run_day();
                std::thread::sleep(Duration::from_millis(day_ms));
            }
            let _ = tx.send("simulation complete");
        });
    }

    // ---- serve until told to stop, then drain ------------------------
    let why = rx.recv().unwrap_or("all drain triggers gone");
    println!("draining ({why})");
    let report = server.drain();
    println!(
        "drained in {:?}: {} requests served, {} accepts ({} rejected overloaded, {} rejected shutting-down), {} force-closed",
        report.drain,
        report.stats.requests,
        report.stats.accepted,
        report.stats.rejected_overloaded,
        report.stats.rejected_shutdown,
        report.forced_closes,
    );
    if let Some(c) = report.cache {
        println!(
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

    /// The error `server_config` gives for `args`.
    fn rejected(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let f = Flags::parse(&args, &["qps", "burst", "cache-mb"], &[]).expect("flags parse");
        server_config(&f).expect_err("bad flags accepted")
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
}
