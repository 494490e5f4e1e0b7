//! The daemon's simulate loop, driven through the binary: each
//! completed day publishes a fresh epoch and prints its line, and the
//! run drains on its own once the last day is done — also when its
//! stdout was closed after the first line. CI runs this file by name
//! next to the daemon flag gate.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the daemon under test"
)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ceiling on the whole run (model build, run-up, two days, drain) in
/// an unoptimised build.
const TIMEOUT: Duration = Duration::from_secs(300);

/// A two-day simulation with piped stdin and stdout.
fn spawn_simulation() -> Child {
    Command::new(env!("CARGO_BIN_EXE_expanse-served"))
        .args([
            "--simulate",
            "--days",
            "2",
            "--day-ms",
            "0",
            "--listen",
            "tcp:127.0.0.1:0",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn expanse-served")
}

/// Wait for `child` to exit by `deadline`; kill it and fail past it.
fn exit_status(child: &mut Child, deadline: Instant, seen: &[String]) -> ExitStatus {
    loop {
        if let Some(status) = child.try_wait().expect("wait for expanse-served") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("expanse-served did not exit after draining; stdout: {seen:#?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn simulate_publishes_each_day_then_drains_itself() {
    let mut child = spawn_simulation();
    // Held open until the end, so that the only drain trigger left is
    // the simulation's own completion.
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    let deadline = Instant::now() + TIMEOUT;
    let mut seen = Vec::new();
    for want in [
        "day 0 complete: epoch 1 published",
        "day 1 complete: epoch 2 published",
        "draining (simulation complete)",
    ] {
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    let found = line.starts_with(want);
                    seen.push(line);
                    if found {
                        break;
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    panic!("no {want:?} in order ({e}); stdout so far: {seen:#?}");
                }
            }
        }
    }

    let status = exit_status(&mut child, deadline, &seen);
    drop(stdin);
    assert!(status.success(), "{status}; stdout: {seen:#?}");
}

/// A reader that goes away after the first line (a supervisor gone,
/// `| head -1`) leaves the daemon to run its days and drain: every
/// later line fails to write and is dropped.
#[test]
fn a_closed_stdout_still_drains_and_exits_zero() {
    let mut child = spawn_simulation();
    let stdin = child.stdin.take();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first line");
    assert!(first.starts_with("simulate: "), "{first:?}");
    drop(stdout);

    let status = exit_status(&mut child, Instant::now() + TIMEOUT, &[first]);
    drop(stdin);
    assert!(status.success(), "{status}");
}
