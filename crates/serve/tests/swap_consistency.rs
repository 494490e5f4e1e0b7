//! The serving layer's two load-bearing guarantees, end to end:
//!
//! 1. **Journal equivalence** — a view loaded straight from a snapshot
//!    journal (no pipeline, no model rebuild) answers every wire
//!    request byte-identically to the view published from the live
//!    pipeline that wrote the journal, the scheduler's `Sched` answers
//!    included with every pipeline feature on.
//! 2. **Epoch pinning** — publishing day N+1 during an active
//!    multi-threaded query run neither blocks readers nor changes any
//!    in-flight result: a pinned view is immutable, and the publisher
//!    returns while readers still hold their pins.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use expanse_addr::{addr_to_u128, u128_to_addr, Prefix};
use expanse_core::{Pipeline, PipelineConfig, RetentionConfig, SchedConfig};
use expanse_model::{ModelConfig, SourceId};
use expanse_packet::{ProtoSet, Protocol};
use expanse_serve::protocol::{decode_response, encode_request, ResponseBody};
use expanse_serve::{
    execute, handle_envelope, AliasScope, Pinned, Query, Request, SnapshotRegistry, SnapshotView,
};
use std::net::Ipv6Addr;
use std::sync::{Arc, Barrier};

fn tiny_pipeline() -> Pipeline {
    let mut cfg = PipelineConfig {
        trace_budget: 20,
        // Degenerate scheduling: byte-identical probing to the fixed
        // grid, but the scheduler records real per-/48 feedback, so
        // the wire battery's Sched requests compare non-trivial state.
        sched: SchedConfig::degenerate(),
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(ModelConfig::tiny(4047), cfg);
    p.collect_sources(30);
    p
}

/// A representative wire-request battery over a view's actual
/// contents: lookups (hits and a miss), prefix walks with filters and
/// a pagination chain, samples, and stats. `aliased` is the alias set
/// the view was published with.
fn battery(view: &SnapshotView, aliased: &[Prefix]) -> Vec<Request> {
    let mut reqs = vec![Request::Ping];
    let live: Vec<Ipv6Addr> = view
        .live_set()
        .iter()
        .take(6)
        .map(|id| view.table().addr(id))
        .collect();
    for &a in &live {
        reqs.push(Request::Lookup { addr: a });
    }
    reqs.push(Request::Lookup {
        addr: u128_to_addr(u128::MAX),
    });
    let mut prefixes: Vec<Prefix> = live
        .iter()
        .flat_map(|&a| [Prefix::new(a, 32), Prefix::new(a, 48)])
        .collect();
    prefixes.extend(aliased.iter().copied().take(2));
    prefixes.dedup();
    for p in prefixes {
        reqs.push(Request::Select {
            query: Query::all().under(p),
            cursor: None,
            limit: 50,
        });
        reqs.push(Request::Stats { prefix: Some(p) });
    }
    for scope in [AliasScope::NonAliased, AliasScope::Aliased, AliasScope::Any] {
        reqs.push(Request::Select {
            query: Query::all().alias_scope(scope).responsive(),
            cursor: None,
            limit: 40,
        });
    }
    reqs.push(Request::Select {
        query: Query::all().on_protocols(ProtoSet::only(Protocol::Tcp443)),
        cursor: None,
        limit: 40,
    });
    // A pagination chain: page 2 and 3 via cursors minted on this view.
    let q = Query::all();
    let p1 = view.page(&q, None, 25);
    if let Some(c1) = p1.next {
        reqs.push(Request::Select {
            query: q,
            cursor: Some(c1),
            limit: 25,
        });
        if let Some(c2) = view.page(&q, Some(c1), 25).next {
            reqs.push(Request::Select {
                query: q,
                cursor: Some(c2),
                limit: 25,
            });
        }
    }
    reqs.push(Request::Sample {
        query: Query::all().responsive(),
        k: 32,
        seed: 0x1234_5678,
    });
    reqs.push(Request::Stats { prefix: None });
    // Scheduler introspection: ranked queue and budget-only forms.
    reqs.push(Request::Sched { k: 8 });
    reqs.push(Request::Sched { k: 0 });
    reqs
}

/// Answer every request through the shipped request path
/// (`handle_envelope`) on `workers` threads, each owning a contiguous
/// chunk; responses come back framed, in request order.
fn serve_on(registry: &SnapshotRegistry, reqs: &[Request], workers: usize) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); reqs.len()];
    let chunk = reqs.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for (slots, reqs) in out.chunks_mut(chunk).zip(reqs.chunks(chunk)) {
            s.spawn(move || {
                for (slot, req) in slots.iter_mut().zip(reqs) {
                    *slot = handle_envelope(registry, &encode_request(req)[4..]);
                }
            });
        }
    });
    out
}

/// Guarantee 1: journal-loaded and live-published views are
/// query-identical, byte for byte, over the whole wire battery.
#[test]
fn journal_view_serves_byte_identically_to_live_view() {
    let mut p = tiny_pipeline();
    let mut journal: Vec<u8> = Vec::new();
    p.run_day();
    p.save_full(&mut journal).expect("save base");
    for _ in 0..2 {
        p.run_day();
        p.append_delta(&mut journal).expect("append delta");
    }

    let live = SnapshotView::publish(&p);
    let (loaded, replay) =
        SnapshotView::load_journal(p.cfg.apd.clone(), &mut journal.as_slice()).expect("load");
    assert!(!replay.torn_tail);
    assert_eq!(replay.deltas_applied, 2);
    assert_eq!(loaded.days_complete(), live.days_complete());
    assert!(
        live.live_set().len() > 100,
        "world too small to be probative"
    );
    let aliased = p.apd.aliased_prefixes();
    assert!(!aliased.is_empty(), "want aliased prefixes in the battery");

    let reqs = battery(&live, &aliased);
    assert!(reqs.len() > 20);
    // Same epoch (0) on both registries; multi-threaded on one side to
    // show thread count cannot leak into results.
    let reg_live = SnapshotRegistry::new(live);
    let reg_loaded = SnapshotRegistry::new(loaded);
    let out_live = serve_on(&reg_live, &reqs, 4);
    let out_loaded = serve_on(&reg_loaded, &reqs, 1);
    assert_eq!(
        out_live, out_loaded,
        "journal-loaded view diverged from the live published view"
    );
}

/// Guarantee 1 with every feature on: an adversarial world, a budgeted
/// scheduler, retention expiry and the daily scenario feed. After each
/// journaled day, a view loaded from the journal answers the ranked
/// `Sched` request byte-identically to the live published view.
#[test]
fn journal_view_answers_sched_like_live_view_every_day() {
    let mut cfg = PipelineConfig {
        trace_budget: 20,
        sched: SchedConfig::budgeted(400, 64),
        retention: RetentionConfig {
            window: Some(4),
            every: 1,
        },
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(ModelConfig::adversarial(4047), cfg);
    p.collect_sources(30);
    let mut journal: Vec<u8> = Vec::new();
    p.save_full(&mut journal).expect("save base");
    let sched = encode_request(&Request::Sched { k: 16 });
    for _ in 0..5 {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
        p.run_day();
        p.append_delta(&mut journal).expect("append delta");

        let live = SnapshotRegistry::new(SnapshotView::publish(&p));
        let (loaded, replay) =
            SnapshotView::load_journal(p.cfg.apd.clone(), &mut journal.as_slice()).expect("load");
        assert!(!replay.torn_tail);
        let loaded = SnapshotRegistry::new(loaded);
        let answer = handle_envelope(&live, &sched[4..]);
        assert_eq!(
            answer,
            handle_envelope(&loaded, &sched[4..]),
            "day {day}: journal-loaded Sched answer diverged from the live one"
        );
        let body = decode_response(&answer[4..]).expect("decodes").body;
        let ResponseBody::Sched { status } = body else {
            panic!("day {day}: unexpected body {body:?}");
        };
        assert!(status.budget > 0 && !status.top.is_empty(), "day {day}");
    }
}

/// Guarantee 2, deterministic core: a reader holding a pin observes
/// the publish completing (it does not block on the reader), then
/// finishes its queries on the *old* epoch with unchanged results.
#[test]
fn publish_neither_blocks_readers_nor_mutates_pinned_results() {
    let mut p = tiny_pipeline();
    p.run_day();
    let view_a = SnapshotView::publish(&p);
    let aliased_a = p.apd.aliased_prefixes();
    p.run_day();
    let view_b = SnapshotView::publish(&p);

    let reg = Arc::new(SnapshotRegistry::new(view_a));
    // Expected epoch-0 answers, computed before any publish.
    let pin0 = reg.pin();
    let reqs = battery(&pin0.view, &aliased_a);
    let expected: Vec<_> = reqs.iter().map(|r| execute(&pin0, r)).collect();
    drop(pin0);

    let pinned = Arc::new(Barrier::new(2));
    let published = Arc::new(Barrier::new(2));
    let drained = Arc::new(Barrier::new(2));
    let reg2 = Arc::clone(&reg);
    let (pin_b, pub_b, drain_b) = (
        Arc::clone(&pinned),
        Arc::clone(&published),
        Arc::clone(&drained),
    );
    let reqs2 = reqs.clone();
    let expected2 = expected.clone();
    let reader = std::thread::spawn(move || {
        let pin = reg2.pin();
        // Tell the publisher we hold a pin before it swaps epochs;
        // without this ordering the reader can lose the scheduling
        // race and pin epoch 1 instead.
        pin_b.wait();
        assert_eq!(pin.epoch, 0);
        // Wait for the publisher to *finish* publishing while we still
        // hold the pin: if publish waited for reader drain, this would
        // deadlock (the test would hang, not pass).
        pub_b.wait();
        // Now run the whole battery on the pinned epoch: every result
        // must match what epoch 0 answered before the swap.
        for (req, want) in reqs2.iter().zip(&expected2) {
            assert_eq!(&execute(&pin, req), want, "in-flight result changed");
        }
        // New pins see the new epoch.
        assert_eq!(reg2.pin().epoch, 1);
        drain_b.wait();
    });

    pinned.wait(); // reader holds its epoch-0 pin
    assert_eq!(reg.publish(view_b), 1);
    published.wait(); // publish returned while the reader holds epoch 0
    drained.wait();
    reader.join().expect("reader panicked");
}

/// Guarantee 2, stressed: many worker threads serve wire requests
/// while epochs swap underneath; every response must be exactly what
/// its own epoch's view answers — never a blend.
#[test]
fn concurrent_publish_stress_keeps_every_response_epoch_consistent() {
    let mut p = tiny_pipeline();
    p.run_day();
    let first = SnapshotView::publish(&p);
    let aliased_first = p.apd.aliased_prefixes();
    // Three more published days to swap through.
    let later: Vec<SnapshotView> = (0..3)
        .map(|_| {
            p.run_day();
            SnapshotView::publish(&p)
        })
        .collect();
    let views: Vec<Arc<SnapshotView>> = std::iter::once(first).chain(later).map(Arc::new).collect();

    let reg = Arc::new(SnapshotRegistry::new((*views[0]).clone()));
    let reqs = battery(&views[0], &aliased_first);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reg_pub = Arc::clone(&reg);
    let views_pub = views.clone();
    let stop_pub = Arc::clone(&stop);
    let publisher = std::thread::spawn(move || {
        // Keep republishing days 1..=3 until the readers finish.
        let mut i = 1usize;
        while !stop_pub.load(std::sync::atomic::Ordering::Relaxed) {
            reg_pub.publish((*views_pub[i.min(3)]).clone());
            i += 1;
            std::thread::yield_now();
        }
    });

    for _ in 0..6 {
        let frames = serve_on(&reg, &reqs, 4);
        assert_eq!(frames.len(), reqs.len());
        for (req, frame) in reqs.iter().zip(&frames) {
            let resp = decode_response(&frame[4..]).expect("response decodes");
            // Which view served it? The publisher cycles through
            // views[1..=3] (epoch e serves views[min(e,3)] only for the
            // first few swaps), so recompute from the day stamp — each
            // published view has a distinct day.
            let view = views
                .iter()
                .find(|v| v.days_complete() == resp.day)
                .expect("response day matches no published view");
            let want = execute(
                &Pinned {
                    epoch: resp.epoch,
                    view: Arc::clone(view),
                },
                req,
            );
            assert_eq!(resp, want, "response is not a pure product of one epoch");
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    publisher.join().expect("publisher panicked");
}

/// Cursor stability across swaps at the wire level: a cursor minted on
/// epoch 0 continues correctly against epoch 1.
#[test]
fn wire_cursor_survives_a_swap() {
    let mut p = tiny_pipeline();
    p.run_day();
    let view_a = SnapshotView::publish(&p);
    p.run_day();
    let view_b = SnapshotView::publish(&p);

    let q = Query::all().responsive();
    let first = view_a.page(&q, None, 20);
    let cursor = first.next.expect("world big enough for two pages");

    let reg = SnapshotRegistry::new(view_a);
    reg.publish(view_b.clone());
    let pin = reg.pin();
    assert_eq!(pin.epoch, 1);
    let resp = execute(
        &pin,
        &Request::Select {
            query: q,
            cursor: Some(cursor),
            limit: 20,
        },
    );
    // The continuation equals epoch 1's own walk from that cursor —
    // strictly after the cursor address, in address order.
    let direct = view_b.page(&q, Some(cursor), 20);
    match resp.body {
        expanse_serve::ResponseBody::Page { addrs, next } => {
            assert_eq!(addrs, direct.addrs);
            assert_eq!(next, direct.next);
            assert!(addrs.iter().all(|&a| addr_to_u128(a) > cursor));
        }
        other => panic!("unexpected body {other:?}"),
    }
}
