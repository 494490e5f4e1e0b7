//! Open-loop load generator against a **real** `expanse-serve` TCP
//! transport: scheduled arrivals (independent of completions, so
//! server slowdowns show up as latency, not as a politely reduced
//! offered rate), epoch swaps mid-run, and a drain-under-load proof.
//!
//! This is the CI `serve-load` lane's workhorse. Beyond latency
//! percentiles and cache hit rate it *verifies* transport correctness
//! and writes the evidence into `BENCH_serve_load.json`, where the CI
//! gate asserts:
//!
//! - `checksum_failures == 0`: every response frame decoded (envelope
//!   checksum included);
//! - `lost_responses == 0` and `late_responses == 0`: every request
//!   sent before drain got exactly one response, none after the drain
//!   completed;
//! - `epoch_regressions == 0`: responses on one connection never go
//!   backwards in epoch while the registry swaps forward mid-load;
//! - `drain.forced_closes == 0` and `drain.refused_after == true`: the
//!   drain was clean and nothing was served after it.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a wall-clock load generator: its clocks and client threads time the \
              server and never reach a rendered artifact's bytes"
)]

use crate::ctx::{header, Ctx};
use expanse_addr::fanout::splitmix64;
use expanse_addr::Prefix;
use expanse_core::Pipeline;
use expanse_packet::{ProtoSet, Protocol};
use expanse_serve::protocol::{decode_response, encode_request, ERR_SHUTTING_DOWN, MAX_FRAME_LEN};
use expanse_serve::{
    BindAddr, FrameAssembler, Query, Request, ResponseBody, Server, ServerConfig, SnapshotRegistry,
    SnapshotView,
};
use std::io::{Read, Write};
use std::net::{Ipv6Addr, SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A mixed request workload over the view's real contents: point
/// lookups (hits and misses), prefix pages with filters, samples, and
/// stats, in a deterministic shuffle.
fn workload(view: &SnapshotView, count: usize) -> Vec<Request> {
    let live: Vec<Ipv6Addr> = view
        .live_set()
        .iter()
        .map(|id| view.table().addr(id))
        .collect();
    assert!(!live.is_empty(), "bench needs a populated view");
    let mut reqs = Vec::with_capacity(count);
    for i in 0..count {
        let r = splitmix64(0x5e7e_0bad ^ i as u64);
        let addr = live[(r >> 8) as usize % live.len()];
        reqs.push(match r % 10 {
            // Half the workload is point lookups, the common case.
            0..=3 => Request::Lookup { addr },
            4 => Request::Lookup {
                // A guaranteed miss.
                addr: expanse_addr::u128_to_addr(u128::MAX ^ r as u128),
            },
            5 | 6 => Request::Select {
                query: Query::all().under(Prefix::new(addr, 32 + (r % 3) as u8 * 16)),
                cursor: None,
                limit: 128,
            },
            7 => Request::Select {
                query: Query::all()
                    .responsive()
                    .on_protocols(ProtoSet::only(Protocol::ALL[(r % 5) as usize]))
                    .non_aliased(),
                cursor: None,
                limit: 128,
            },
            8 => Request::Sample {
                query: Query::all().responsive(),
                k: 64,
                seed: r,
            },
            _ => Request::Stats {
                prefix: Some(Prefix::new(addr, 32)),
            },
        });
    }
    reqs
}

/// Read one whole frame (sans length prefix) from a blocking socket
/// with a wall-clock deadline; socket read timeout must be short.
fn read_frame(
    stream: &mut TcpStream,
    asm: &mut FrameAssembler,
    deadline: Instant,
) -> Result<Option<Vec<u8>>, String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match asm.next_frame() {
            Ok(Some(frame)) => return Ok(Some(frame)),
            Ok(None) => {}
            Err(e) => return Err(format!("oversized frame from server: {e}")),
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None), // clean EOF
            Ok(n) => asm.push(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return Err("read deadline exceeded".to_string());
                }
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
}

#[derive(Default)]
struct ConnOutcome {
    sent: usize,
    received: usize,
    latencies_us: Vec<u64>,
    checksum_failures: usize,
    error_frames: usize,
    epoch_regressions: usize,
}

/// One open-loop connection: a writer thread sending on schedule, a
/// reader thread matching responses positionally and timing them.
fn run_conn(
    addr: SocketAddr,
    framed: Arc<Vec<Vec<u8>>>,
    offset: usize,
    t0: Instant,
    end: Instant,
    interval: Duration,
) -> Result<ConnOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    let mut wr = stream.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<Instant>();

    let frames = Arc::clone(&framed);
    let writer = std::thread::spawn(move || -> Result<usize, String> {
        let mut sent = 0usize;
        loop {
            // Open loop: request i is *scheduled* at t0 + i·interval,
            // regardless of how fast responses come back.
            let target = t0 + interval.mul_f64(sent as f64);
            if target >= end {
                break;
            }
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            let frame = &frames[(offset + sent) % frames.len()];
            wr.write_all(frame).map_err(|e| format!("send: {e}"))?;
            if tx.send(Instant::now()).is_err() {
                break;
            }
            sent += 1;
        }
        // Half-close: tells the server this connection is done once
        // everything in flight is answered.
        let _ = wr.shutdown(std::net::Shutdown::Write);
        Ok(sent)
    });

    let mut out = ConnOutcome::default();
    let mut stream = stream;
    let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
    let read_deadline = end + Duration::from_secs(20);
    let mut last_epoch = 0u64;
    while let Ok(sent_at) = rx.recv() {
        match read_frame(&mut stream, &mut asm, read_deadline)? {
            None => break, // EOF with responses still owed → lost, counted by caller
            Some(frame) => {
                out.received += 1;
                out.latencies_us
                    .push(sent_at.elapsed().as_micros().min(u64::MAX as u128) as u64);
                match decode_response(&frame) {
                    Err(_) => out.checksum_failures += 1,
                    Ok(resp) => {
                        // Per-connection requests execute serially, so
                        // pinned epochs can only move forward.
                        if resp.epoch < last_epoch {
                            out.epoch_regressions += 1;
                        }
                        last_epoch = resp.epoch;
                        if matches!(resp.body, ResponseBody::Error { .. }) {
                            out.error_frames += 1;
                        }
                    }
                }
            }
        }
    }
    out.sent = writer.join().map_err(|_| "writer panicked")??;
    Ok(out)
}

/// The drain-under-load proof: pipeline a burst, start the drain, and
/// require every in-flight response (checksummed), a shutdown frame on
/// a new connection, then silence.
struct DrainProof {
    in_flight: usize,
    answered: usize,
    checksum_failures: usize,
    late_responses: usize,
    shutdown_frame_ok: bool,
    refused_after: bool,
}

fn drain_under_load(
    server: &Server,
    addr: SocketAddr,
    framed: &[Vec<u8>],
) -> Result<DrainProof, String> {
    let burst = 64.min(framed.len());
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    // One pipelined write: every request is in the server's kernel
    // buffer before the drain flag flips.
    let bytes: Vec<u8> = framed[..burst].concat();
    stream.write_all(&bytes).map_err(|e| format!("send: {e}"))?;
    std::thread::sleep(Duration::from_millis(100));
    server.begin_drain();

    // A connection arriving during the drain gets exactly one
    // ERR_SHUTTING_DOWN frame, then close.
    let shutdown_frame_ok = {
        let mut rej = TcpStream::connect(addr).map_err(|e| format!("connect-during-drain: {e}"))?;
        rej.set_read_timeout(Some(Duration::from_millis(20))).ok();
        let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
        match read_frame(&mut rej, &mut asm, Instant::now() + Duration::from_secs(5))? {
            Some(frame) => matches!(
                decode_response(&frame).map(|r| r.body),
                Ok(ResponseBody::Error {
                    code: ERR_SHUTTING_DOWN
                })
            ),
            None => false,
        }
    };

    // Every burst request sent before the drain must still be answered.
    let mut answered = 0usize;
    let mut checksum_failures = 0usize;
    let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut saw_eof = false;
    for _ in 0..burst {
        match read_frame(&mut stream, &mut asm, deadline)? {
            Some(frame) => {
                answered += 1;
                if decode_response(&frame).is_err() {
                    checksum_failures += 1;
                }
            }
            None => {
                saw_eof = true;
                break;
            }
        }
    }
    // After the owed responses, the server closes the quiet connection;
    // anything readable past that point is a late response.
    let mut late_responses = 0usize;
    if !saw_eof {
        while let Some(_frame) = read_frame(
            &mut stream,
            &mut asm,
            Instant::now() + Duration::from_secs(5),
        )? {
            late_responses += 1;
        }
    }

    Ok(DrainProof {
        in_flight: burst,
        answered,
        checksum_failures,
        late_responses,
        shutdown_frame_ok,
        // Filled by the caller once `Server::drain` has completed.
        refused_after: false,
    })
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Run the load bench; writes `BENCH_serve_load.json` next to the
/// reports. `EXPANSE_SERVE_LOAD_SECS` overrides the load duration (the
/// nightly soak lane sets it high).
pub(crate) fn bench_serve_load(ctx: &mut Ctx) -> String {
    let mut out = header(
        "BENCH: serve-load — open-loop load + drain proof over real TCP",
        "transport CI lane, not a paper figure",
    );
    let (default_secs, target_qps, conns) = match ctx.scale {
        crate::ctx::Scale::Small => (3.0f64, 2000.0f64, 4usize),
        _ => (10.0, 4000.0, 8),
    };
    let duration_s = std::env::var("EXPANSE_SERVE_LOAD_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(default_secs)
        .max(1.0);
    let scale = format!("{:?}", ctx.scale).to_lowercase();

    let p: &mut Pipeline = ctx.pipeline();
    if p.day() == 0 {
        p.warmup_apd(1);
        p.run_day();
    }
    let view = SnapshotView::publish(p);
    let rows = view.len();
    // Distinct requests per connection cycle: small enough that every
    // connection wraps around many times → real cache hit traffic.
    let framed: Arc<Vec<Vec<u8>>> =
        Arc::new(workload(&view, 512).iter().map(encode_request).collect());
    // Pre-built views to publish mid-load (≈1 swap/second), so the
    // lane actually exercises epoch swaps under fire.
    let swap_count = duration_s.ceil() as usize;
    let swap_views: Vec<SnapshotView> = (0..swap_count).map(|_| SnapshotView::publish(p)).collect();

    let registry = Arc::new(SnapshotRegistry::new(view));
    let server = Server::start(
        Arc::clone(&registry),
        &[BindAddr::Tcp("127.0.0.1:0".parse().expect("literal"))],
        ServerConfig {
            drain_grace: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let BindAddr::Tcp(addr) = server.local_addrs()[0] else {
        unreachable!("bound tcp");
    };

    // ---- the open-loop phase -----------------------------------------
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(duration_s);
    let interval = Duration::from_secs_f64(conns as f64 / target_qps);
    let swap_gap = Duration::from_secs_f64(duration_s / (swap_count + 1) as f64);
    let publisher = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            for v in swap_views {
                std::thread::sleep(swap_gap);
                if Instant::now() >= end {
                    break;
                }
                registry.publish(v);
                swaps += 1;
            }
            swaps
        })
    };
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let framed = Arc::clone(&framed);
            std::thread::spawn(move || run_conn(addr, framed, c * 131, t0, end, interval))
        })
        .collect();
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut checksum_failures = 0usize;
    let mut error_frames = 0usize;
    let mut epoch_regressions = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let outcome = w
            .join()
            .expect("load connection panicked")
            .unwrap_or_else(|e| panic!("load connection failed: {e}"));
        sent += outcome.sent;
        received += outcome.received;
        checksum_failures += outcome.checksum_failures;
        error_frames += outcome.error_frames;
        epoch_regressions += outcome.epoch_regressions;
        latencies.extend(outcome.latencies_us);
    }
    let load_elapsed = t0.elapsed().as_secs_f64();
    let epoch_swaps = publisher.join().expect("publisher panicked");
    latencies.sort_unstable();
    let (p50, p90, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.90),
        percentile(&latencies, 0.99),
    );
    let lost_responses = sent - received;
    let achieved_qps = received as f64 / load_elapsed.max(1e-9);

    // ---- drain under load --------------------------------------------
    let mut proof =
        drain_under_load(&server, addr, &framed).unwrap_or_else(|e| panic!("drain proof: {e}"));
    let report = server.drain();
    proof.refused_after = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    let refused_after = proof.refused_after;
    checksum_failures += proof.checksum_failures;
    let cache = report.cache.unwrap_or_default();

    out.push_str(&format!(
        "view {rows} rows; {conns} connections, open loop at {target_qps:.0} q/s target for {duration_s:.0}s\n\n"
    ));
    out.push_str(&format!(
        "sent {sent}, received {received} ({lost_responses} lost), achieved {achieved_qps:.0} q/s\n\
         latency p50 {p50} µs, p90 {p90} µs, p99 {p99} µs\n\
         epoch swaps mid-load: {epoch_swaps}, epoch regressions: {epoch_regressions} (0 required)\n\
         cache hit rate {:.1}% ({} hits / {} lookups)\n",
        cache.hit_rate() * 100.0,
        cache.hits,
        cache.hits + cache.misses,
    ));
    out.push_str(&format!(
        "drain: {} in-flight answered {}/{}, shutdown frame on new conn: {}, \
         {} late responses, {} forced closes, refused after drain: {}\n",
        proof.in_flight,
        proof.answered,
        proof.in_flight,
        proof.shutdown_frame_ok,
        proof.late_responses,
        report.forced_closes,
        refused_after,
    ));

    let json = format!(
        "{{\n  \"schema\": 2,\n  \"scale\": \"{scale}\",\n  \
         \"load\": {{ \"duration_s\": {load_elapsed:.2}, \"connections\": {conns}, \
         \"target_qps\": {target_qps:.0}, \"achieved_qps\": {achieved_qps:.1}, \
         \"sent\": {sent}, \"received\": {received}, \"lost_responses\": {lost_responses}, \
         \"checksum_failures\": {checksum_failures}, \"error_frames\": {error_frames}, \
         \"epoch_swaps\": {epoch_swaps}, \"epoch_regressions\": {epoch_regressions} }},\n  \
         \"latency_us\": {{ \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99} }},\n  \
         \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"inserts\": {}, \"deferred\": {}, \"retired\": {}, \"evicted\": {} }},\n  \
         \"drain\": {{ \"in_flight\": {}, \"answered\": {}, \"late_responses\": {}, \
         \"shutdown_frame_ok\": {}, \"forced_closes\": {}, \"refused_after\": {}, \
         \"drain_ms\": {} }}\n}}\n",
        cache.hits,
        cache.misses,
        cache.hit_rate(),
        cache.inserts,
        cache.deferred,
        cache.retired,
        cache.evicted,
        proof.in_flight,
        proof.answered,
        proof.late_responses,
        proof.shutdown_frame_ok,
        report.forced_closes,
        refused_after,
        report.drain.as_millis(),
    );
    ctx.write("BENCH_serve_load.json", &json);
    out.push_str("\nwrote BENCH_serve_load.json\n");
    out
}
