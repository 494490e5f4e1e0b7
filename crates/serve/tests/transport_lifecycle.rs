//! Transport-lifecycle integration tests over **live sockets**: the
//! named CI "Transport correctness gate" runs this file, the
//! `conn::tests` connection scripts and `cache_consistency`.
//!
//! Covered here, each against a real listener: what only the socket
//! driver can show — pipelined requests answered in order, graceful
//! drain under an epoch swap, four connections pipelining mixed
//! requests while three epochs publish
//! (`concurrent_pipelined_connections_follow_epoch_swaps`: nothing
//! lost or undecodable, epochs never regress on a connection, a clean
//! drain, the cache's `inserts + deferred ≤ misses`), torn / oversized
//! / garbage frame handling,
//! mid-frame disconnects, a never-reading client (cut off at the write
//! deadline, and costing no execution slot meanwhile), per-client
//! rate-limit rejection frames, the accept limit, and UDS round trips.
//! The connection policy's timing cases — a stalled mid-frame sender, a
//! byte-at-a-time sender, idle closes, the frame ceiling ± 1, drain
//! while a frame is partial, the write deadline — run as virtual-time
//! scripts over `ConnState` (`crates/serve/src/conn.rs`), with no
//! sleeps.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use expanse_addr::Prefix;
use expanse_core::Hitlist;
use expanse_model::SourceId;
use expanse_serve::protocol::{
    encode_request, ERR_FRAME_TOO_LARGE, ERR_MALFORMED, ERR_OVERLOADED, ERR_RATE_LIMITED,
    ERR_SHUTTING_DOWN, MAX_FRAME_LEN,
};
use expanse_serve::{
    BindAddr, CacheConfig, ClientError, Query, RateLimitConfig, Request, Response, ResponseBody,
    ServeClient, Server, ServerConfig, SnapshotRegistry, SnapshotView,
};
use std::collections::BTreeSet;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn view_of(n: u128, day: u16) -> SnapshotView {
    let mut h = Hitlist::new();
    let addrs: Vec<std::net::Ipv6Addr> = (1..=n).map(expanse_addr::u128_to_addr).collect();
    h.add_from(SourceId::Ct, &addrs, 0);
    SnapshotView::from_hitlist(day, &h, Vec::new())
}

/// Short-deadline config so failure paths resolve in test time.
fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(400),
        idle_timeout: Duration::from_secs(5),
        drain_grace: Duration::from_secs(5),
        cache: Some(CacheConfig::default()),
        ..ServerConfig::default()
    }
}

fn start_tcp(n: u128, cfg: ServerConfig) -> (Arc<SnapshotRegistry>, Server, BindAddr) {
    let registry = Arc::new(SnapshotRegistry::new(view_of(n, 1)));
    let server = Server::start(
        Arc::clone(&registry),
        &[BindAddr::Tcp("127.0.0.1:0".parse().unwrap())],
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addrs()[0].clone();
    (registry, server, addr)
}

/// One server on a loopback TCP port and a UDS path named after `tag`.
fn start_tcp_and_uds(n: u128, tag: &str) -> (Server, std::path::PathBuf) {
    let registry = Arc::new(SnapshotRegistry::new(view_of(n, 1)));
    let sock = std::env::temp_dir().join(format!("exp-serve-{tag}-{}.sock", std::process::id()));
    let server = Server::start(
        registry,
        &[
            BindAddr::Tcp("127.0.0.1:0".parse().unwrap()),
            BindAddr::Unix(sock.clone()),
        ],
        test_config(),
    )
    .expect("bind both");
    (server, sock)
}

/// A client that pipelines 64 whole-view `Select`s at a 20 000-row
/// server and never reads a byte back: the responses outgrow the
/// socket buffers, so the server's write must block on it.
fn never_reader(addr: &BindAddr) -> TcpStream {
    let BindAddr::Tcp(sa) = addr else { panic!() };
    let mut stream = TcpStream::connect(sa).expect("connect");
    let req = encode_request(&Request::Select {
        query: Query::all(),
        cursor: None,
        limit: 20_000,
    });
    for _ in 0..64 {
        if stream.write_all(&req).is_err() {
            break; // server already gave up on us — exactly the point
        }
    }
    stream
}

fn expect_error(resp: &Response, code: u8) {
    match resp.body {
        ResponseBody::Error { code: got } => assert_eq!(got, code, "wrong error code"),
        ref other => panic!("expected error {code}, got {other:?}"),
    }
}

// ---- round trips -----------------------------------------------------

#[test]
fn tcp_and_uds_round_trip_identically() {
    let (server, sock) = start_tcp_and_uds(10, "rt");
    let req = Request::Select {
        query: Query::all(),
        cursor: None,
        limit: 5,
    };
    let mut bodies = Vec::new();
    for addr in server.local_addrs().to_vec() {
        let mut client = ServeClient::connect(&addr).expect("connect");
        let pong = client.call(&Request::Ping).expect("ping");
        assert!(matches!(pong.body, ResponseBody::Pong { live: 10 }));
        bodies.push(client.call(&req).expect("select").body);
    }
    assert_eq!(bodies[0], bodies[1], "TCP and UDS must serve identically");
    let report = server.drain();
    assert_eq!(report.stats.requests, 4);
    assert_eq!(report.forced_closes, 0);
    assert!(!sock.exists(), "drain removes the UDS socket path");
}

#[test]
fn pipelined_responses_arrive_in_request_order() {
    let (server, _sock) = start_tcp_and_uds(20, "pipe");
    // Ten lookups written before the first read: responses carry no
    // tags, so the N-th answer must be the N-th request's.
    let framed: Vec<u8> = (1..=10u128)
        .flat_map(|i| {
            encode_request(&Request::Lookup {
                addr: expanse_addr::u128_to_addr(i),
            })
        })
        .collect();
    for addr in server.local_addrs().to_vec() {
        let mut client = ServeClient::connect(&addr).expect("connect");
        client.send_raw(&framed).expect("pipelined send");
        for i in 1..=10u128 {
            match client.recv().expect("answer").body {
                ResponseBody::Record { found: Some(rec) } => {
                    assert_eq!(rec.addr, expanse_addr::u128_to_addr(i), "on {addr}");
                }
                other => panic!("unexpected body {other:?}"),
            }
        }
    }
    let report = server.drain();
    assert_eq!(report.stats.requests, 20);
    assert_eq!(report.forced_closes, 0);
}

// ---- graceful drain under an epoch swap ------------------------------

#[test]
fn drain_finishes_in_flight_requests_across_epoch_swap() {
    let (registry, server, addr) = start_tcp(50, test_config());
    let mut client = ServeClient::connect(&addr).expect("connect");

    // Pipeline a burst of requests, all written before the drain flag
    // flips; positional matching means the N-th response answers the
    // N-th request.
    let burst = 32;
    let mut framed = Vec::new();
    for _ in 0..burst {
        framed.extend_from_slice(&encode_request(&Request::Select {
            query: Query::all(),
            cursor: None,
            limit: 8,
        }));
    }
    client.send_raw(&framed).expect("pipelined send");
    std::thread::sleep(Duration::from_millis(100));
    server.begin_drain();
    // An epoch swap lands mid-drain: in-flight requests may answer
    // from either epoch, but every one must answer.
    registry.publish(view_of(60, 2));

    let mut epochs = Vec::new();
    for i in 0..burst {
        let resp = client
            .recv()
            .unwrap_or_else(|e| panic!("response {i} lost in drain: {e}"));
        assert!(
            matches!(resp.body, ResponseBody::Page { .. }),
            "response {i} must be a page"
        );
        epochs.push(resp.epoch);
    }
    // Serial execution per connection: epochs never regress.
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "epochs: {epochs:?}"
    );
    // Once everything owed is answered, the server closes the quiet
    // connection: no response ever arrives after the drain.
    assert!(matches!(client.recv(), Err(ClientError::Closed)));

    // A connection arriving during the drain gets one shutdown frame.
    let mut late = ServeClient::connect(&addr).expect("accept still open during drain");
    let resp = late.recv().expect("shutdown status frame");
    expect_error(&resp, ERR_SHUTTING_DOWN);
    assert!(matches!(late.recv(), Err(ClientError::Closed)));

    let report = server.drain();
    assert_eq!(report.forced_closes, 0, "drain must be clean");
    assert_eq!(report.stats.rejected_shutdown, 1);
    // Nothing listens after the drain completes.
    let BindAddr::Tcp(sa) = addr else { panic!() };
    assert!(TcpStream::connect_timeout(&sa, Duration::from_millis(300)).is_err());
}

// ---- concurrent load across epoch swaps ------------------------------

/// Requests in one pipelined burst.
const BURST: usize = 32;

/// Request `i` of a mixed pool over `view_of(n, _)`'s addresses
/// `1..=n`: lookups that hit and that miss, prefix pages, samples and
/// prefix stats.
fn mixed_request(i: usize, n: u128) -> Request {
    let addr = expanse_addr::u128_to_addr(1 + i as u128 % n);
    match i % 5 {
        0 => Request::Lookup { addr },
        1 => Request::Lookup {
            addr: expanse_addr::u128_to_addr(n + 1 + i as u128),
        },
        2 => Request::Select {
            query: Query::all().under(Prefix::new(addr, 120 + (i % 8) as u8)),
            cursor: None,
            limit: 16,
        },
        3 => Request::Sample {
            query: Query::all(),
            k: 8,
            seed: i as u64,
        },
        _ => Request::Stats {
            prefix: Some(Prefix::new(addr, 124)),
        },
    }
}

/// Write one pre-framed burst in a single send, then read its `BURST`
/// responses, recording each one's epoch.
fn pipeline_burst(
    client: &mut ServeClient,
    burst: &[u8],
    epochs: &mut Vec<u64>,
) -> Result<(), String> {
    client.send_raw(burst).map_err(|e| format!("send: {e}"))?;
    for i in 0..BURST {
        let resp = client.recv().map_err(|e| format!("response {i}: {e}"))?;
        if let ResponseBody::Error { code } = resp.body {
            return Err(format!("response {i}: error frame {code}"));
        }
        epochs.push(resp.epoch);
    }
    Ok(())
}

#[test]
fn concurrent_pipelined_connections_follow_epoch_swaps() {
    const CONNS: usize = 4;
    const SWAPS: u16 = 3;
    // Bursts answered per connection, on average, before each publish.
    const BURSTS_PER_EPOCH: usize = 8;
    let (registry, server, addr) = start_tcp(200, test_config());
    let bursts: Vec<Vec<u8>> = (0..6)
        .map(|b| {
            (b * BURST..(b + 1) * BURST)
                .flat_map(|i| encode_request(&mixed_request(i, 200)))
                .collect()
        })
        .collect();
    let first_epoch = registry.pin().epoch;
    let answered = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CONNS + 1);
    let mut final_epoch = first_epoch;
    let logs: Vec<Result<(usize, Vec<u64>), String>> = std::thread::scope(|s| {
        let conns: Vec<_> = (0..CONNS)
            .map(|c| {
                let (bursts, answered, stop, barrier, addr) =
                    (&bursts, &answered, &stop, &barrier, &addr);
                s.spawn(move || {
                    let (mut sent, mut epochs) = (0, Vec::new());
                    let load = ServeClient::connect(addr)
                        .map_err(|e| format!("connect: {e}"))
                        .and_then(|mut client| {
                            client.set_timeout(Duration::from_secs(2));
                            let mut round = c;
                            while !stop.load(Ordering::Acquire) {
                                sent += BURST;
                                pipeline_burst(
                                    &mut client,
                                    &bursts[round % bursts.len()],
                                    &mut epochs,
                                )?;
                                answered.fetch_add(BURST, Ordering::Relaxed);
                                round += 1;
                            }
                            Ok(client)
                        });
                    // Failed or not, every connection meets the
                    // publisher here, so nobody waits on a dead thread.
                    barrier.wait();
                    let mut client = load?;
                    sent += BURST;
                    pipeline_burst(&mut client, &bursts[c], &mut epochs)?;
                    Ok((sent, epochs))
                })
            })
            .collect();
        for day in 2..2 + SWAPS {
            let want = usize::from(day - 1) * CONNS * BURSTS_PER_EPOCH * BURST;
            let deadline = Instant::now() + Duration::from_secs(5);
            while answered.load(Ordering::Relaxed) < want && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            final_epoch = registry.publish(view_of(200 + u128::from(day), day));
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        conns
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });

    let (mut sent, mut received) = (0, 0);
    let mut served_by = BTreeSet::new();
    for (c, log) in logs.into_iter().enumerate() {
        let (conn_sent, epochs) = log.unwrap_or_else(|e| panic!("connection {c}: {e}"));
        // Serial execution per connection: epochs never regress.
        assert!(
            epochs.windows(2).all(|w| w[0] <= w[1]),
            "connection {c} went back in epoch: {epochs:?}"
        );
        // The final burst was sent after the last publish.
        assert!(
            epochs[epochs.len() - BURST..]
                .iter()
                .all(|&e| e == final_epoch),
            "connection {c} ended off epoch {final_epoch}: {epochs:?}"
        );
        sent += conn_sent;
        received += epochs.len();
        served_by.extend(epochs);
    }
    assert_eq!(received, sent, "a response went missing");
    // The load spanned every publish, not just the last one.
    assert_eq!(
        served_by,
        (first_epoch..=final_epoch).collect(),
        "epochs that served the load"
    );

    let report = server.drain();
    assert_eq!(report.stats.requests, sent as u64);
    assert_eq!(report.stats.malformed, 0);
    assert_eq!(report.forced_closes, 0, "drain must be clean");
    // Every miss offers its response at most once, and an offer is a
    // first sighting (deferred), an insert, or dropped.
    let cache = report.cache.expect("cache configured");
    assert!(cache.hits > 0, "the load repeated no key: {cache:?}");
    assert!(
        cache.inserts + cache.deferred <= cache.misses,
        "more offers than misses: {cache:?}"
    );
}

// ---- malformed / oversized / torn frames -----------------------------

#[test]
fn garbage_frame_gets_in_band_error_and_connection_lives() {
    let (_r, server, addr) = start_tcp(5, test_config());
    let mut client = ServeClient::connect(&addr).expect("connect");

    // A frame whose envelope is garbage (checksum cannot verify).
    let mut garbage = vec![0u8; 24];
    garbage[0..4].copy_from_slice(&20u32.to_le_bytes());
    client.send_raw(&garbage).expect("send garbage");
    expect_error(&client.recv().expect("in-band error"), ERR_MALFORMED);

    // A frame that decodes but is corrupt mid-envelope: flip one
    // payload bit in a valid request.
    let mut torn = encode_request(&Request::Ping);
    let n = torn.len();
    torn[n - 9] ^= 1;
    client.send_raw(&torn).expect("send corrupt");
    expect_error(&client.recv().expect("in-band error"), ERR_MALFORMED);

    // The connection survived both: a well-formed request still works.
    let pong = client.call(&Request::Ping).expect("connection alive");
    assert!(matches!(pong.body, ResponseBody::Pong { .. }));
    let report = server.drain();
    assert_eq!(report.stats.malformed, 2);
}

#[test]
fn oversized_frame_length_closes_only_its_connection() {
    let (_r, server, addr) = start_tcp(5, test_config());
    let mut client = ServeClient::connect(&addr).expect("connect");
    // A length prefix beyond the ceiling: the stream cannot be
    // resynchronized, so the server answers once and closes.
    client
        .send_raw(&(MAX_FRAME_LEN + 1).to_le_bytes())
        .expect("send oversized length");
    expect_error(&client.recv().expect("error frame"), ERR_FRAME_TOO_LARGE);
    assert!(matches!(client.recv(), Err(ClientError::Closed)));

    // The listener survived: a fresh connection serves fine.
    let mut fresh = ServeClient::connect(&addr).expect("listener alive");
    assert!(fresh.call(&Request::Ping).is_ok());
    let report = server.drain();
    assert_eq!(report.stats.oversized_frames, 1);
}

// ---- slow clients ----------------------------------------------------

#[test]
fn mid_frame_disconnect_leaves_listener_healthy() {
    let (_r, server, addr) = start_tcp(5, test_config());
    let mut client = ServeClient::connect(&addr).expect("connect");
    let framed = encode_request(&Request::Ping);
    client.send_raw(&framed[..3]).expect("partial");
    drop(client); // vanish mid-frame
    std::thread::sleep(Duration::from_millis(100));
    let mut fresh = ServeClient::connect(&addr).expect("listener alive");
    assert!(fresh.call(&Request::Ping).is_ok());
    drop(fresh);
    let report = server.drain();
    assert_eq!(report.stats.requests, 1);
}

#[test]
fn never_reading_client_is_disconnected_not_served_forever() {
    // Small write deadline; large pages so responses outgrow the
    // socket buffers and writing must block on the stalled reader.
    let cfg = ServerConfig {
        write_timeout: Duration::from_millis(300),
        ..test_config()
    };
    let (_r, server, addr) = start_tcp(20_000, cfg);
    let stream = never_reader(&addr);
    // The server must cut the connection within the write deadline
    // (plus slack), not hold a handler hostage forever.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.write_timeouts >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never disconnected a never-reading client: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // And it still serves a well-behaved client afterwards.
    let mut fresh = ServeClient::connect(&addr).expect("listener alive");
    assert!(fresh.call(&Request::Ping).is_ok());
    drop(fresh);
    drop(stream);
    server.drain();
}

#[test]
fn never_reading_client_holds_no_execution_slot() {
    // One execution slot, and a write deadline long enough to tell
    // "waited for the stalled write" from "did not": a permit that
    // spanned the response write would park the second client's Ping
    // behind the never-reader for most of those 3 s.
    let cfg = ServerConfig {
        max_inflight: 1,
        write_timeout: Duration::from_secs(3),
        ..test_config()
    };
    let (_r, server, addr) = start_tcp(20_000, cfg);
    let stream = never_reader(&addr);
    // Wedged = the server stopped making progress on the connection:
    // its socket buffers are full and a response write is blocked.
    let mut served = 0;
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(200) {
        let now = server.stats().requests;
        if now != served {
            served = now;
            quiet_since = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        (1..64).contains(&served),
        "never-reader not wedged: {served}"
    );
    assert_eq!(server.stats().write_timeouts, 0, "wedged, not yet cut off");

    let mut fresh = ServeClient::connect(&addr).expect("listener alive");
    let t0 = Instant::now();
    let pong = fresh
        .call(&Request::Ping)
        .expect("ping behind a never-reader");
    let waited = t0.elapsed();
    assert!(matches!(pong.body, ResponseBody::Pong { .. }));
    assert!(
        waited < Duration::from_secs(1),
        "a never-reading client held the execution slot: Ping took {waited:?}"
    );
    drop(fresh);
    drop(stream);
    server.drain();
}

// ---- admission control and accept limits -----------------------------

#[test]
fn rate_limited_client_gets_reject_frames_but_keeps_connection() {
    let cfg = ServerConfig {
        rate: Some(RateLimitConfig {
            qps: 0.001, // effectively no refill during the test
            burst: 2.0,
        }),
        ..test_config()
    };
    let (_r, server, addr) = start_tcp(5, cfg);
    let mut client = ServeClient::connect(&addr).expect("connect");
    for _ in 0..2 {
        let resp = client.call(&Request::Ping).expect("within burst");
        assert!(matches!(resp.body, ResponseBody::Pong { .. }));
    }
    // Burst exhausted: rejection frames, but the connection lives.
    for _ in 0..3 {
        let resp = client.call(&Request::Ping).expect("still connected");
        expect_error(&resp, ERR_RATE_LIMITED);
    }
    let report = server.drain();
    assert_eq!(report.stats.rate_limited, 3);
    assert_eq!(report.stats.requests, 5);
}

#[test]
fn accept_limit_rejects_with_overloaded_frame() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..test_config()
    };
    let (_r, server, addr) = start_tcp(5, cfg);
    let mut first = ServeClient::connect(&addr).expect("connect");
    assert!(first.call(&Request::Ping).is_ok());
    // Second concurrent connection: one ERR_OVERLOADED frame, close.
    let mut second = ServeClient::connect(&addr).expect("tcp accepts");
    let resp = second.recv().expect("overload status frame");
    expect_error(&resp, ERR_OVERLOADED);
    assert!(matches!(second.recv(), Err(ClientError::Closed)));
    // The first connection is unaffected.
    assert!(first.call(&Request::Ping).is_ok());
    drop(first);
    std::thread::sleep(Duration::from_millis(100));
    // Slot freed: a new connection is admitted again.
    let mut third = ServeClient::connect(&addr).expect("connect");
    assert!(third.call(&Request::Ping).is_ok());
    drop(third);
    let report = server.drain();
    assert_eq!(report.stats.rejected_overloaded, 1);
}
