//! The two `serve-*` workloads: a closed loop of `nproc` connections
//! against the real `expanse_serve::Server` over loopback TCP, and — on
//! a traced run — the same request bytes replayed in-process through
//! the public layer functions `transport::serve_frame` is made of.

use crate::metrics::{Outcome, Samples, Workload, REQ_KINDS, REQ_LAYERS};
use crate::trace::Tracer;
use crate::world::{self, bytes_of, spanned, Deployment, Rng, Scale, StoreKind};
use expanse_addr::fanout::splitmix64;
use expanse_addr::{u128_to_addr, Prefix};
use expanse_packet::{ProtoSet, Protocol};
use expanse_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, MAX_FRAME_LEN,
};
use expanse_serve::{
    execute, handle_envelope, AdmissionControl, BindAddr, CacheConfig, CacheStats, ClientKey,
    FrameAssembler, Query, RateLimitConfig, Request, ResponseBody, ResponseCache, ServeClient,
    Server, ServerConfig, SnapshotRegistry, SnapshotView,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pre-built view is published this often during the socket phase,
/// so epoch pinning, cache retirement and cold-after-swap misses are
/// inside the measurement.
const SWAP_EVERY: Duration = Duration::from_secs(2);

/// Requests replayed in-process on a traced run (each twice: plain,
/// then with spans). The replay publishes a fresh epoch at every
/// quarter, so its cache counters repeat exactly for a seed.
const REPLAY_REQUESTS: usize = 8000;

const PAGE_LIMIT: u32 = 128;
const SAMPLE_K: u32 = 64;

/// `serve-point`'s 64 hot keys: 70 % lookup hits, 10 % lookup misses,
/// 20 % stats on a /32.
const POINT_KEYS: [usize; 3] = [45, 6, 13];

/// Request kind, as an index into [`REQ_KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup = 0,
    Select = 1,
    Sample = 2,
    Stats = 3,
}

enum Mix {
    /// `serve-page`: every request distinct, so the cache never hits.
    Page { addrs: Arc<Vec<u128>> },
    /// `serve-point`: pre-encoded frames of the hot keys.
    Point {
        hits: Vec<Vec<u8>>,
        misses: Vec<Vec<u8>>,
        stats: Vec<Vec<u8>>,
    },
}

/// A deterministic request stream: the same `(workload, view, seed,
/// stream)` yields the same framed request bytes.
pub struct RequestGen {
    rng: Rng,
    mix: Mix,
    buf: Vec<u8>,
}

impl RequestGen {
    pub fn new(workload: Workload, view: &SnapshotView, seed: u64, stream: u64) -> RequestGen {
        let addrs: Vec<u128> = view
            .sorted()
            .iter()
            .map(|id| view.table().bits(id))
            .collect();
        assert!(
            !addrs.is_empty(),
            "cannot generate requests over an empty view"
        );
        let mix = if workload == Workload::ServePage {
            Mix::Page {
                addrs: Arc::new(addrs),
            }
        } else {
            // The hot keys belong to the seed, not the stream: every
            // connection asks for the same 64.
            let mut keys = Rng::new(seed ^ 0x6b65_7973);
            let pick = |keys: &mut Rng| addrs[keys.below(addrs.len() as u64) as usize];
            let hits = (0..POINT_KEYS[0])
                .map(|_| {
                    encode_request(&Request::Lookup {
                        addr: u128_to_addr(pick(&mut keys)),
                    })
                })
                .collect();
            let mut misses = Vec::new();
            while misses.len() < POINT_KEYS[1] {
                // 2001:db8:dead::/48 is documentation space the model
                // never populates; the lookup below guards that.
                let addr =
                    u128_to_addr((0x2001_0db8_dead_u128 << 80) | u128::from(keys.next_u64()));
                if view.lookup(addr).is_none() {
                    misses.push(encode_request(&Request::Lookup { addr }));
                }
            }
            let stats = (0..POINT_KEYS[2])
                .map(|_| {
                    encode_request(&Request::Stats {
                        prefix: Some(Prefix::new(u128_to_addr(pick(&mut keys)), 32)),
                    })
                })
                .collect();
            Mix::Point {
                hits,
                misses,
                stats,
            }
        };
        RequestGen {
            rng: Rng::new(splitmix64(seed).wrapping_add(stream)),
            mix,
            buf: Vec::new(),
        }
    }

    /// The next request: its kind and its framed bytes.
    pub fn next_frame(&mut self) -> (Kind, &[u8]) {
        let rng = &mut self.rng;
        match &self.mix {
            Mix::Point {
                hits,
                misses,
                stats,
            } => {
                let (kind, keys) = match rng.below(100) {
                    0..=69 => (Kind::Lookup, hits),
                    70..=79 => (Kind::Lookup, misses),
                    _ => (Kind::Stats, stats),
                };
                (kind, &keys[rng.below(keys.len() as u64) as usize])
            }
            Mix::Page { addrs } => {
                // A member address anchors both the filter's prefix and
                // the cursor, so pages start inside populated space.
                let anchor = addrs[rng.below(addrs.len() as u64) as usize];
                let addr = u128_to_addr(anchor);
                let query = match rng.below(5) {
                    0 => Query::all().responsive(),
                    1 => {
                        let proto = Protocol::ALL[rng.below(5) as usize];
                        Query::all().on_protocols(ProtoSet::only(proto))
                    }
                    2 => Query::all().non_aliased(),
                    3 => Query::all().under(Prefix::new(addr, 32)),
                    _ => Query::all().under(Prefix::new(addr, 48)),
                };
                let (kind, req) = if rng.below(16) == 0 {
                    (
                        Kind::Sample,
                        Request::Sample {
                            query,
                            k: SAMPLE_K,
                            seed: rng.next_u64(),
                        },
                    )
                } else {
                    (
                        Kind::Select,
                        Request::Select {
                            query,
                            cursor: Some(anchor.wrapping_sub(u128::from(rng.below(1 << 16)))),
                            limit: PAGE_LIMIT,
                        },
                    )
                };
                self.buf = encode_request(&req);
                (kind, &self.buf)
            }
        }
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ClientStats {
    latency_ns: [Vec<u64>; 4],
    sent: u64,
    failed: u64,
    epoch_regressions: u64,
    sampled: u64,
    sample_mismatches: u64,
    swaps: u64,
    error: Option<String>,
}

/// One closed-loop connection: send, wait for the decoded response,
/// repeat until the deadline. The connection given `swaps` also
/// publishes them on schedule (no extra thread).
fn client(
    addr: &BindAddr,
    mut gen: RequestGen,
    registry: &SnapshotRegistry,
    t0: Instant,
    run_for: Duration,
    mut swaps: Vec<SnapshotView>,
    seed: u64,
) -> ClientStats {
    let mut st = ClientStats::default();
    // The crate's own blocking client: what `expansectl` and every
    // downstream consumer speak through, so its cost is part of a
    // request's.
    let mut conn = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            st.failed += 1;
            st.error = Some(format!("connect: {e}"));
            return st;
        }
    };
    let mut sampler = Rng::new(seed ^ 0x7361_6d70);
    let mut last_epoch = 0u64;
    while t0.elapsed() < run_for {
        if !swaps.is_empty() && t0.elapsed() >= SWAP_EVERY * (st.swaps as u32 + 1) {
            registry.publish(swaps.pop().expect("non-empty"));
            st.swaps += 1;
        }
        let (kind, frame) = gen.next_frame();
        let t = Instant::now();
        st.sent += 1;
        let response = conn
            .send_raw(frame)
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| conn.recv_frame().map_err(|e| format!("recv: {e}")));
        let decoded = response
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|env| decode_response(env).map_err(|e| format!("decode: {e:?}")));
        let ns = t.elapsed().as_nanos() as u64;
        let resp = match decoded {
            Ok(resp) => resp,
            Err(e) => {
                // The stream cannot be trusted past a lost or broken
                // frame: count it and give the connection up.
                st.failed += 1;
                st.error = Some(e);
                break;
            }
        };
        st.latency_ns[kind as usize].push(ns);
        if matches!(resp.body, ResponseBody::Error { .. }) {
            st.failed += 1;
        }
        if resp.epoch < last_epoch {
            st.epoch_regressions += 1;
        }
        last_epoch = resp.epoch;
        // 1 % of responses are checked against the sans-IO path on the
        // same epoch (a swap in between makes the epochs differ; such a
        // sample is skipped, not failed).
        if sampler.below(100) == 0 {
            let expected = handle_envelope(registry, &frame[4..]);
            let envelope = response.expect("decoded above");
            let same_epoch = decode_response(&expected[4..]).is_ok_and(|e| e.epoch == resp.epoch);
            if same_epoch {
                st.sampled += 1;
                if expected[4..] != envelope[..] {
                    st.sample_mismatches += 1;
                }
            }
        }
    }
    st
}

/// Everything the socket phase measured.
struct SocketPhase {
    latency: Samples,
    by_kind: [Samples; 4],
    sent: u64,
    failed: u64,
    elapsed_s: f64,
    clients: usize,
}

/// Drive the closed loop for `run_for` and drain the server.
fn socket_phase(
    workload: Workload,
    server: Server,
    dep: &Deployment,
    seed: u64,
    run_for: Duration,
    out: &mut Outcome,
) -> SocketPhase {
    let addr = &server.local_addrs()[0].clone();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let view = dep.registry.pin().view;
    let n_swaps =
        ((run_for.as_secs_f64() / SWAP_EVERY.as_secs_f64()).ceil() as usize).saturating_sub(1);
    let mut swaps: Vec<SnapshotView> = (0..n_swaps)
        .map(|_| SnapshotView::publish(&dep.p))
        .collect();
    let gens: Vec<RequestGen> = (0..clients)
        .map(|i| RequestGen::new(workload, &view, seed, i as u64))
        .collect();
    let registry = &*dep.registry;
    let t0 = Instant::now();
    let stats: Vec<ClientStats> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(i, gen)| {
                let swaps = if i == 0 {
                    std::mem::take(&mut swaps)
                } else {
                    Vec::new()
                };
                s.spawn(move || client(addr, gen, registry, t0, run_for, swaps, seed ^ i as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    // Every client socket is closed by now, so the drain is immediate
    // unless the server lost track of a connection.
    let report = server.drain();

    let mut phase = SocketPhase {
        latency: Samples::default(),
        by_kind: Default::default(),
        sent: 0,
        failed: 0,
        elapsed_s,
        clients,
    };
    let (mut regressions, mut sampled, mut mismatches, mut swapped) = (0, 0, 0, 0);
    for st in &stats {
        for (k, v) in st.latency_ns.iter().enumerate() {
            phase.latency.extend(v);
            phase.by_kind[k].extend(v);
        }
        phase.sent += st.sent;
        phase.failed += st.failed;
        regressions += st.epoch_regressions;
        sampled += st.sampled;
        mismatches += st.sample_mismatches;
        swapped += st.swaps;
        if let Some(e) = &st.error {
            out.facts.push(format!("client error: {e}"));
        }
    }
    out.attempted += phase.sent;
    out.failed += phase.failed;
    out.facts.push(format!(
        "real expanse_serve::Server over loopback TCP ({addr}), default ServerConfig; closed loop, \
         {clients} connections from one process; {swapped} epoch swaps; {} requests in {elapsed_s:.2}s",
        phase.sent
    ));
    out.check(
        "every_response_decodes",
        phase.failed == 0 && report.stats.malformed == 0,
        format!(
            "{} failed, {} malformed at the server",
            phase.failed, report.stats.malformed
        ),
    );
    out.check(
        "epochs_never_regress",
        regressions == 0,
        format!("{regressions} regressions over {swapped} swaps"),
    );
    out.check(
        "sample_equals_handle_envelope",
        mismatches == 0 && sampled > 0,
        format!("{mismatches} of {sampled} sampled responses differ"),
    );
    out.check(
        "no_response_lost",
        report.stats.requests == phase.sent && phase.latency.len() as u64 == phase.sent,
        format!(
            "{} sent, {} served, {} received",
            phase.sent,
            report.stats.requests,
            phase.latency.len()
        ),
    );
    out.check(
        "drain_is_clean",
        report.forced_closes == 0,
        format!(
            "{} forced closes, drained in {:?}",
            report.forced_closes, report.drain
        ),
    );
    let hit = report.cache.unwrap_or_default().hit_rate();
    let hit_ok = if workload == Workload::ServePage {
        hit < 0.01
    } else {
        hit > 0.99
    };
    out.check(
        "cache_hit_share_as_designed",
        hit_ok,
        format!("socket-phase hit share {hit:.4}"),
    );
    phase
}

/// What one in-process replay measured.
struct Replay {
    per_request: Samples,
    wall_ns: u64,
    cache: CacheStats,
    counts: [u64; 4],
    response_bytes: [u64; 4],
}

/// Replay `n` requests of stream 0 through the layer functions
/// `transport::serve_frame` is made of, in its order: frame assembly →
/// decode → admission → pin → cache probe → execute → encode → cache
/// fill. (The in-flight gate is private to the transport and the socket
/// write is the wire; both are absent here.)
fn replay(
    workload: Workload,
    view: &SnapshotView,
    seed: u64,
    n: usize,
    mut tr: Option<&mut Tracer>,
) -> Replay {
    let registry = SnapshotRegistry::new(view.clone());
    let cache = Arc::new(ResponseCache::new(CacheConfig::default()));
    {
        let cache = Arc::clone(&cache);
        registry.on_publish(Box::new(move |_retired, new_epoch| {
            cache.on_publish(new_epoch)
        }));
    }
    // The default ServerConfig admits everything without a limiter; a
    // never-rejecting one keeps the layer's cost visible.
    let limiter = AdmissionControl::new(RateLimitConfig {
        qps: 1e9,
        burst: 1e9,
    });
    let client = ClientKey::Ip(std::net::Ipv4Addr::LOCALHOST.into());
    let mut asm = FrameAssembler::new(MAX_FRAME_LEN);
    let mut gen = RequestGen::new(workload, view, seed, 0);
    let mut out = Replay {
        per_request: Samples::default(),
        wall_ns: 0,
        cache: CacheStats::default(),
        counts: [0; 4],
        response_bytes: [0; 4],
    };
    let [frame_s, decode_s, admit_s, pin_s, get_s, execute_s, encode_s, put_s] = REQ_LAYERS;
    let t0 = Instant::now();
    for i in 0..n {
        if i > 0 && i % (n / 4).max(1) == 0 {
            registry.publish(view.clone());
        }
        let (kind, frame) = gen.next_frame();
        let tag = REQ_KINDS[kind as usize];
        let op = i as u32;
        let t = Instant::now();
        if let Some(tr) = tr.as_deref_mut() {
            tr.enter("serve.request", tag, op);
        }
        let envelope = spanned(&mut tr, frame_s, tag, op, || {
            asm.push(frame);
            asm.next_frame()
                .expect("frame within ceiling")
                .expect("whole frame pushed")
        });
        let req = spanned(&mut tr, decode_s, tag, op, || {
            decode_request(&envelope).expect("generated request decodes")
        });
        spanned(&mut tr, admit_s, tag, op, || limiter.admit(&client));
        let pin = spanned(&mut tr, pin_s, tag, op, || registry.pin());
        let (key, hit) = spanned(&mut tr, get_s, tag, op, || {
            let key = req.cache_key();
            let hit = key.as_ref().and_then(|k| cache.get(pin.epoch, k));
            (key, hit)
        });
        let bytes: Arc<[u8]> = match hit {
            Some(bytes) => bytes,
            None => {
                let resp = spanned(&mut tr, execute_s, tag, op, || execute(&pin, &req));
                let bytes = spanned(&mut tr, encode_s, tag, op, || encode_response(&resp));
                if let Some(key) = key {
                    spanned(&mut tr, put_s, tag, op, || {
                        cache.put(pin.epoch, key, &bytes)
                    });
                }
                Arc::from(bytes)
            }
        };
        if let Some(tr) = tr.as_deref_mut() {
            tr.exit();
        }
        out.per_request.push(t.elapsed().as_nanos() as u64);
        out.counts[kind as usize] += 1;
        out.response_bytes[kind as usize] += bytes.len() as u64;
    }
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.cache = cache.stats();
    out
}

/// Run one `serve-*` workload.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();

    // ---- set-up: warm pipeline, one journaled day, view published,
    // server listening
    let mut setup = Samples::default();
    let mut deployed: Option<(Deployment, Server, u64)> = None;
    for _ in 0..if trace { 1 } else { scale.setups() } {
        if let Some((_, server, _)) = deployed.take() {
            server.drain();
        }
        let t = Instant::now();
        let mut dep = Deployment::start(scale, workload, seed, StoreKind::Memory, out_dir);
        let day_bytes = bytes_of(dep.cycle(None).record);
        let server = Server::start(
            Arc::clone(&dep.registry),
            &[BindAddr::Tcp("127.0.0.1:0".parse().expect("literal"))],
            ServerConfig::default(),
        )
        .expect("bind loopback");
        setup.push(t.elapsed().as_nanos() as u64);
        deployed = Some((dep, server, day_bytes));
    }
    let (mut dep, server, day_bytes) = deployed.expect("at least one set-up");
    out.facts.push(format!(
        "view of {} rows (day {})",
        dep.registry.pin().view.len(),
        dep.p.day()
    ));

    // ---- the socket phase (half the time on a traced run: the other
    // half is the replay's)
    let run_for = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });
    let mut phase = socket_phase(workload, server, &dep, seed, run_for, &mut out);

    // ---- restart phase (traced runs) + journal checks
    let mut tracer = trace.then(Tracer::new);
    if let Some(tr) = tracer.as_mut() {
        let journal = dep.journal_bytes();
        world::restart_phase(&journal, &dep.model_cfg, &dep.p.cfg, tr, &mut out);
    }
    world::journal_checks(&mut dep, &mut out);

    // ---- metrics
    out.set_noted("setup_s", setup.median_ns() as f64 / 1e9, setup.note());
    out.set_noted(
        "op_p50_ms",
        phase.latency.median_ns() as f64 / 1e6,
        format!("{} clients={}", phase.latency.note(), phase.clients),
    );
    out.set("ops_per_s", phase.latency.len() as f64 / phase.elapsed_s);
    out.set("journal_bytes_per_day", day_bytes as f64);
    out.set("peak_rss_mb", world::peak_rss_mb());
    if let Some(tr) = tracer.as_mut() {
        let view = dep.registry.pin().view;
        let n = REPLAY_REQUESTS;
        let mut plain = replay(workload, &view, seed, n, None);
        let traced = replay(workload, &view, seed, n, Some(tr));
        out.attempted += 2 * n as u64;
        for (key, st) in tr.self_times() {
            // Request spans: busy seconds per request of the kind, hits
            // included. Restart spans: per repetition.
            let per = match REQ_KINDS
                .iter()
                .position(|k| key.ends_with(&format!(".{k}")))
            {
                Some(kind) => traced.counts[kind],
                None => st.count,
            };
            out.set(&key, st.self_ns as f64 / 1e9 / per.max(1) as f64);
        }
        for kind in REQ_KINDS {
            out.values.remove(&format!("serve.request.{kind}"));
        }
        for (k, kind) in REQ_KINDS.iter().enumerate() {
            out.set(
                &format!("serve.protocol.response_bytes.{kind}"),
                traced.response_bytes[k] as f64 / traced.counts[k].max(1) as f64,
            );
        }
        // What the socket adds: end-to-end median minus the in-process
        // median of the same request stream.
        out.set(
            "serve.transport.wire_s",
            (phase.latency.median_ns() as f64 - plain.per_request.median_ns() as f64) / 1e9,
        );
        out.set_noted(
            "serve.transport.req_p99_us",
            phase.latency.percentile_ns(0.99) as f64 / 1e3,
            phase.latency.note(),
        );
        out.set("serve.cache.hit_share", traced.cache.hit_rate());
        out.set("serve.cache.retired", traced.cache.retired as f64);
        out.set("serve.cache.evicted", traced.cache.evicted as f64);
        out.set("serve.transport.requests", n as f64);
        out.set(
            "trace.overhead_share",
            (traced.wall_ns as f64 - plain.wall_ns as f64) / plain.wall_ns.max(1) as f64,
        );
        out.check(
            "replays_agree",
            plain.cache == traced.cache && plain.response_bytes == traced.response_bytes,
            format!("{:?} vs {:?}", plain.cache, traced.cache),
        );
        let path = out_dir.join(format!("trace-{}.json", workload.name()));
        tr.write_json(&path, workload.name(), "request")
            .expect("write trace file");
        out.facts
            .push(format!("trace written to {}", path.display()));
    }
    for (k, kind) in REQ_KINDS.iter().enumerate() {
        if !phase.by_kind[k].is_empty() {
            let p50 = phase.by_kind[k].median_ns() as f64 / 1e3;
            out.facts.push(format!(
                "{kind}: p50 {p50:.1} us ({})",
                phase.by_kind[k].note()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_core::Hitlist;
    use expanse_model::SourceId;

    fn view() -> SnapshotView {
        let mut h = Hitlist::new();
        let addrs: Vec<std::net::Ipv6Addr> = (1..=500u128)
            .map(|i| u128_to_addr((0x2001_0db8_u128 << 96) | (i << 70) | i))
            .collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        SnapshotView::from_hitlist(1, &h, Vec::new())
    }

    fn stream(workload: Workload, seed: u64, stream: u64) -> Vec<u8> {
        let view = view();
        let mut gen = RequestGen::new(workload, &view, seed, stream);
        let mut bytes = Vec::new();
        for _ in 0..400 {
            bytes.extend_from_slice(gen.next_frame().1);
        }
        bytes
    }

    #[test]
    fn same_seed_same_request_bytes() {
        for w in [Workload::ServePage, Workload::ServePoint] {
            assert_eq!(stream(w, 7, 0), stream(w, 7, 0));
            assert_ne!(stream(w, 7, 0), stream(w, 8, 0));
            assert_ne!(stream(w, 7, 0), stream(w, 7, 1));
        }
    }

    #[test]
    fn every_generated_request_decodes_and_page_keys_are_distinct() {
        let view = view();
        let mut gen = RequestGen::new(Workload::ServePage, &view, 3, 0);
        let mut keys = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let (_, frame) = gen.next_frame();
            let req = decode_request(&frame[4..]).expect("decodes");
            keys.insert(req.cache_key().expect("cacheable"));
        }
        assert!(keys.len() >= 399, "{} distinct keys", keys.len());
        let mut gen = RequestGen::new(Workload::ServePoint, &view, 3, 0);
        let mut keys = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let (_, frame) = gen.next_frame();
            keys.insert(decode_request(&frame[4..]).expect("decodes").cache_key());
        }
        assert!(keys.len() <= 64, "{} hot keys", keys.len());
    }

    #[test]
    fn scenario_feed_repeats_for_a_seed() {
        let cfg = world::model_config(Scale::Tiny, Workload::DaysSchedChurn);
        let a = expanse_model::InternetModel::build(cfg.clone());
        let b = expanse_model::InternetModel::build(cfg);
        let feed = |m: &expanse_model::InternetModel| -> Vec<_> {
            (1..8).flat_map(|d| m.scenario_feed(d)).collect()
        };
        assert!(!feed(&a).is_empty());
        assert_eq!(feed(&a), feed(&b));
    }
}
