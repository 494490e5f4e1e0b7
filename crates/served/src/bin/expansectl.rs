//! `expansectl`: query and inspect a running `expanse-served` daemon
//! over its TCP or (typically) unix-domain socket.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary: the daemon's clocks and threads never \
              reach a digest or a snapshot byte"
)]

use expanse_serve::{BindAddr, Query, Request, ResponseBody, ServeClient};
use expanse_served::{render, Flags};
use std::time::Duration;

const USAGE: &str = "\
expansectl: query a running expanse-served daemon

usage: expansectl --to tcp:IP:PORT|uds:PATH [--timeout-ms N] COMMAND [args]

commands:
  status                     epoch, day, live count, and view aggregates
  ping                       liveness + live count
  lookup ADDR                one member record
  select LIMIT [--under P] [--cursor HEX]
                             one page of the address-ordered walk
  sample K [--seed N] [--under P]
                             deterministic seeded sample
  stats [PREFIX]             aggregates, optionally scoped to a prefix
  sched [K]                  probe-scheduler queue: budget, usage, and
                             the top-K entries by priority (default 10)

Every argument is read or rejected: an extra argument, an option the
command does not take, or a repeated flag exits 2 naming it, before
anything connects.
";

/// Flags that take a value.
const VALUED: &[&str] = &["to", "timeout-ms", "under", "cursor", "seed"];

/// Each command with the most arguments it takes after its name and
/// the options it reads besides `--to` and `--timeout-ms`.
const COMMANDS: &[(&str, usize, &[&str])] = &[
    ("status", 0, &[]),
    ("ping", 0, &[]),
    ("lookup", 1, &[]),
    ("select", 1, &["under", "cursor"]),
    ("sample", 1, &["seed", "under"]),
    ("stats", 1, &[]),
    ("sched", 1, &[]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("expansectl: {e}");
            std::process::exit(2);
        }
    }
}

fn query_from(f: &Flags) -> Result<Query, String> {
    let mut q = Query::all();
    if let Some(p) = f.get("under") {
        q = q.under(p.parse().map_err(|e| format!("--under {p:?}: {e:?}"))?);
    }
    Ok(q)
}

/// Reject what the command (the first positional) would not read: an
/// unknown command, an extra argument, a repeated flag, an option of
/// another command.
fn check(f: &Flags) -> Result<(), String> {
    let pos = f.positional();
    let Some(&(_, max_args, options)) = COMMANDS.iter().find(|c| c.0 == pos[0]) else {
        return Err(format!("unknown command {:?} (try --help)", pos[0]));
    };
    if let Some(extra) = pos.get(1 + max_args) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    if let Some(name) = VALUED.iter().find(|&&n| f.get_all(n).len() > 1) {
        return Err(format!("--{name} given more than once"));
    }
    match ["under", "cursor", "seed"]
        .into_iter()
        .find(|n| !options.contains(n) && f.get(n).is_some())
    {
        Some(name) => Err(format!("--{name} is not an option of {}", pos[0])),
        None => Ok(()),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let f = Flags::parse(args, VALUED, &["help"])?;
    if f.has("help") || f.positional().is_empty() {
        return Ok(USAGE.to_string());
    }
    check(&f)?;
    let to = f.get("to").ok_or("--to tcp:IP:PORT or uds:PATH required")?;
    let addr = BindAddr::parse(to)?;
    let pos = f.positional();
    let arg = |i: usize, what: &str| -> Result<&str, String> {
        pos.get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("{} needs {what}", pos[0]))
    };

    let req = match pos[0].as_str() {
        "lookup" => Request::Lookup {
            addr: arg(1, "an IPv6 address")?
                .parse()
                .map_err(|e| format!("bad address: {e}"))?,
        },
        "select" => Request::Select {
            query: query_from(&f)?,
            cursor: match f.get("cursor") {
                None => None,
                Some(c) => Some(
                    u128::from_str_radix(c.trim_start_matches("0x"), 16)
                        .map_err(|e| format!("--cursor {c:?}: {e}"))?,
                ),
            },
            limit: arg(1, "a page limit")?
                .parse()
                .map_err(|e| format!("bad limit: {e}"))?,
        },
        "sample" => Request::Sample {
            query: query_from(&f)?,
            k: arg(1, "a sample size")?
                .parse()
                .map_err(|e| format!("bad sample size: {e}"))?,
            seed: f.parsed("seed", 0u64)?,
        },
        "stats" => Request::Stats {
            prefix: match pos.get(1) {
                None => None,
                Some(p) => Some(p.parse().map_err(|e| format!("bad prefix {p:?}: {e:?}"))?),
            },
        },
        "sched" => Request::Sched {
            k: match pos.get(1) {
                None => 10,
                Some(k) => k.parse().map_err(|e| format!("bad top-K: {e}"))?,
            },
        },
        // `ping`, and `status`, which composes two more requests below.
        _ => Request::Ping,
    };

    let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.set_timeout(Duration::from_millis(f.parsed("timeout-ms", 10_000u64)?));
    let resp = client.call(&req).map_err(|e| e.to_string())?;

    if pos[0] == "status" {
        // Status = Ping (epoch, day, live) + whole-view Stats + Sched,
        // one connection, three positionally matched responses.
        let stats = client
            .call(&Request::Stats { prefix: None })
            .map_err(|e| e.to_string())?;
        let live = match resp.body {
            ResponseBody::Pong { live } => live,
            other => return Err(format!("unexpected ping answer: {other:?}")),
        };
        let mut out = format!("epoch={} day={} live={}\n", resp.epoch, resp.day, live);
        match stats.body {
            ResponseBody::Stats { stats } => {
                out.push_str(&format!(
                    "members={} responsive={} aliased={} per_protocol={:?}\n",
                    stats.members, stats.responsive, stats.aliased, stats.per_protocol
                ));
            }
            other => return Err(format!("unexpected stats answer: {other:?}")),
        }
        // The scheduler section: budget figures only (no queue rows) —
        // `sched [K]` dumps the ranked queue itself.
        let sched = client
            .call(&Request::Sched { k: 0 })
            .map_err(|e| e.to_string())?;
        match sched.body {
            ResponseBody::Sched { status } => {
                out.push_str(&format!(
                    "sched budget={} used={} entries={}\n",
                    status.budget, status.used, status.entries
                ));
            }
            other => return Err(format!("unexpected sched answer: {other:?}")),
        }
        return Ok(out);
    }
    Ok(render::render(&resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = ["--to", "tcp:127.0.0.1:9"]
            .iter()
            .chain(args)
            .map(|a| a.to_string())
            .collect();
        Flags::parse(&args, VALUED, &["help"]).expect("known flags")
    }

    /// The error `check` gives for `args` after one good `--to`.
    fn rejected(args: &[&str]) -> String {
        match check(&flags(args)) {
            Err(e) => e,
            Ok(()) => panic!("bad arguments accepted: {args:?}"),
        }
    }

    #[test]
    fn an_extra_argument_is_rejected_by_name() {
        assert_eq!(
            rejected(&["lookup", "::1", "junk"]),
            r#"unexpected argument "junk""#
        );
        assert_eq!(rejected(&["ping", "now"]), r#"unexpected argument "now""#);
    }

    #[test]
    fn a_cursor_is_rejected_by_sample() {
        assert!(rejected(&["sample", "5", "--cursor", "0x1"]).starts_with("--cursor"));
    }

    #[test]
    fn a_seed_is_rejected_by_select() {
        assert!(rejected(&["select", "5", "--seed", "3"]).starts_with("--seed"));
    }

    #[test]
    fn a_scope_is_rejected_by_lookup() {
        assert!(rejected(&["lookup", "::1", "--under", "2001:db8::/32"]).starts_with("--under"));
    }

    #[test]
    fn a_repeated_flag_is_rejected_by_name() {
        assert!(rejected(&["--to", "tcp:127.0.0.1:10", "ping"]).starts_with("--to"));
        assert!(rejected(&["sample", "5", "--seed", "1", "--seed", "2"]).starts_with("--seed"));
    }

    #[test]
    fn good_arguments_pass() {
        for args in [
            &["status"][..],
            &["lookup", "::1"],
            &["select", "5", "--under", "2001:db8::/32", "--cursor", "0x1"],
            &["sample", "5", "--seed", "3", "--under", "2001:db8::/32"],
            &["stats", "2001:db8::/32"],
            &["sched"],
        ] {
            assert_eq!(check(&flags(args)), Ok(()), "{args:?}");
        }
    }
}
