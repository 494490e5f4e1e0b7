//! Response-cache correctness: a cached response must be
//! **byte-identical** to computing the response fresh, for every
//! request — including the wire encodings that only become equal after
//! canonicalization (the clamped-limit regression this file pins).

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use expanse_core::Hitlist;
use expanse_model::SourceId;
use expanse_serve::protocol::MAX_RESULT_ADDRS;
use expanse_serve::protocol::{encode_request, encode_response};
use expanse_serve::{
    execute, handle, handle_envelope, AliasScope, BindAddr, CacheConfig, ClientKey, Outcome, Query,
    Request, ResponseCache, ServeClient, Server, ServerConfig, SnapshotRegistry, SnapshotView,
};
use proptest::prelude::*;
use std::sync::Arc;

fn view_of(n: u128, day: u16) -> SnapshotView {
    let mut h = Hitlist::new();
    let addrs: Vec<std::net::Ipv6Addr> = (1..=n).map(expanse_addr::u128_to_addr).collect();
    h.add_from(SourceId::Ct, &addrs, 0);
    SnapshotView::from_hitlist(day, &h, Vec::new())
}

/// One request through the shipped path with `cache` attached.
fn via_cache(
    registry: &SnapshotRegistry,
    cache: &ResponseCache,
    req: &Request,
) -> (Arc<[u8]>, Outcome) {
    let framed = encode_request(req);
    handle(registry, Some(cache), None, &ClientKey::Local, &framed[4..])
}

// ---- the canonicalization regression ---------------------------------

/// Two wire encodings differing only in their (both over-cap) limits
/// are the same request: same canonical bytes, one cache entry, and
/// byte-identical answers. This was the bug the explicit
/// `Request::canonical` step fixed — without it the cache would key on
/// the raw encoding and store duplicate entries for clamped limits.
#[test]
fn clamped_limits_share_one_cache_entry() {
    let a = Request::Select {
        query: Query::all(),
        cursor: None,
        limit: MAX_RESULT_ADDRS as u32 + 5,
    };
    let b = Request::Select {
        query: Query::all(),
        cursor: None,
        limit: u32::MAX,
    };
    assert_ne!(
        encode_request(&a),
        encode_request(&b),
        "distinct wire encodings…"
    );
    assert_eq!(
        a.cache_key().expect("cacheable"),
        b.cache_key().expect("cacheable"),
        "…one canonical cache key"
    );
    // Same story for Sample's k.
    let s1 = Request::Sample {
        query: Query::all(),
        k: MAX_RESULT_ADDRS as u32 + 1,
        seed: 9,
    };
    let s2 = Request::Sample {
        query: Query::all(),
        k: u32::MAX,
        seed: 9,
    };
    assert_eq!(s1.cache_key(), s2.cache_key());

    // And through the request path with a real cache: the second
    // encoding is the second sighting of the first one's key — it
    // inserts the entry, and either encoding hits it from then on.
    let cache = ResponseCache::new(CacheConfig::default());
    let registry = SnapshotRegistry::new(view_of(8, 1));
    let (fresh, _) = via_cache(&registry, &cache, &a);
    let (admitted, _) = via_cache(&registry, &cache, &b);
    assert_eq!(admitted, fresh);
    let (hit, _) = via_cache(&registry, &cache, &a);
    assert_eq!(hit, fresh);
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.deferred, stats.inserts, stats.hits),
        (2, 1, 1, 1)
    );
}

/// A zero-limit `Select` is answered with an in-band error and must
/// never be cached (canonicalization must not turn it valid either).
#[test]
fn zero_limit_select_is_never_cached() {
    let req = Request::Select {
        query: Query::all(),
        cursor: None,
        limit: 0,
    };
    assert_eq!(req.cache_key(), None);
    assert_eq!(req.canonical(), req);
}

// ---- byte-identity: cached vs uncached, over a live server -----------

#[test]
fn cached_response_is_byte_identical_over_live_socket() {
    let registry = Arc::new(SnapshotRegistry::new(view_of(100, 1)));
    let server = Server::start(
        Arc::clone(&registry),
        &[BindAddr::Tcp("127.0.0.1:0".parse().unwrap())],
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addrs()[0].clone();
    let mut client = ServeClient::connect(&addr).expect("connect");
    let reqs = [
        Request::Ping,
        Request::Lookup {
            addr: expanse_addr::u128_to_addr(7),
        },
        Request::Select {
            query: Query::all(),
            cursor: Some(10),
            limit: u32::MAX, // clamped: exercises canonical keying live
        },
        Request::Sample {
            query: Query::all(),
            k: 5,
            seed: 3,
        },
        Request::Stats { prefix: None },
    ];
    let mut first = Vec::new();
    for req in &reqs {
        client.send(req).expect("send");
        first.push(client.recv_frame().expect("uncached answer"));
    }
    // The second pass is each key's second sighting (admitted), the
    // third is answered from the cache.
    for _pass in 0..2 {
        for (req, uncached) in reqs.iter().zip(&first) {
            client.send(req).expect("send");
            let cached = client.recv_frame().expect("cached answer");
            assert_eq!(&cached, uncached, "cache changed the bytes of {req:?}");
        }
    }
    let report = server.drain();
    let cache = report.cache.expect("cache enabled");
    assert!(
        cache.hits >= reqs.len() as u64,
        "third pass must hit: {cache:?}"
    );
}

// ---- property: cache-keyed execution is canonicalization-stable ------

fn arb_query() -> impl Strategy<Value = Query> {
    (0u8..=255, 0u8..3, 0u16..10).prop_map(|(protos, alias, since)| {
        let mut q = Query::all();
        q.protocols = expanse_packet::ProtoSet(protos & expanse_packet::ProtoSet::ALL.0);
        q.alias = match alias {
            0 => AliasScope::NonAliased,
            1 => AliasScope::Aliased,
            _ => AliasScope::Any,
        };
        // 0 = no freshness floor; otherwise a floor near the fixture day.
        q.min_last_responsive = if since == 0 { None } else { Some(since - 1) };
        q
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        (1u128..200).prop_map(|n| Request::Lookup {
            addr: expanse_addr::u128_to_addr(n)
        }),
        (arb_query(), 0u128..150, 1u32..=u32::MAX).prop_map(|(query, cursor, limit)| {
            Request::Select {
                query,
                cursor: if cursor == 0 { None } else { Some(cursor) },
                limit,
            }
        }),
        (arb_query(), 1u32..=u32::MAX, any::<u64>())
            .prop_map(|(query, k, seed)| { Request::Sample { query, k, seed } }),
        Just(Request::Stats { prefix: None }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every request: executing the raw request and executing its
    /// canonical form produce byte-identical framed responses — the
    /// exact invariant that makes `(epoch, canonical bytes)` a sound
    /// cache key. And the request path with a cache attached answers
    /// both misses (the sighting, then the fill) and the hit with those
    /// same bytes — the bytes a cache-less server (`handle_envelope`)
    /// answers.
    #[test]
    fn cached_answer_equals_fresh_answer(req in arb_request()) {
        let registry = SnapshotRegistry::new(view_of(120, 1));
        let pin = registry.pin();
        let fresh = encode_response(&execute(&pin, &req));
        let canonical_fresh = encode_response(&execute(&pin, &req.canonical()));
        prop_assert_eq!(&fresh, &canonical_fresh, "canonicalization changed the answer");
        prop_assert_eq!(&handle_envelope(&registry, &encode_request(&req)[4..]), &fresh);

        let cache = ResponseCache::new(CacheConfig::default());
        for _offer in 0..2 {
            let (miss, outcome) = via_cache(&registry, &cache, &req);
            prop_assert_eq!(outcome, Outcome::Served);
            prop_assert_eq!(&*miss, &fresh[..], "the cache-filling answer differs");
        }
        let (hit, _) = via_cache(&registry, &cache, &req);
        prop_assert_eq!(&*hit, &fresh[..], "cache returned different bytes");
        let stats = cache.stats();
        prop_assert_eq!(
            (stats.misses, stats.deferred, stats.inserts, stats.hits),
            (2, 1, 1, 1)
        );
    }

    /// Cache entries are epoch-scoped: the same key on a new epoch
    /// misses (a swap can change the answer), and retirement via the
    /// registry observer drops old epochs without touching current
    /// ones.
    #[test]
    fn epoch_swap_never_serves_stale_bytes(n in 1u128..60, keep in 1u64..4) {
        let cache = Arc::new(ResponseCache::new(CacheConfig { max_bytes: 1 << 20, keep_epochs: keep }));
        let registry = SnapshotRegistry::new(view_of(n, 1));
        {
            let cache = Arc::clone(&cache);
            registry.on_publish(Box::new(move |_old, new| cache.on_publish(new)));
        }
        let req = Request::Stats { prefix: None };
        let key = req.cache_key().expect("cacheable");

        let pin0 = registry.pin();
        let bytes0 = encode_response(&execute(&pin0, &req));
        for _offer in 0..2 {
            cache.put(pin0.epoch, key.clone(), &bytes0);
        }
        prop_assert!(cache.get(pin0.epoch, &key).is_some(), "second offer must insert");

        // Publish a different view: same key, new epoch → miss, and the
        // freshly computed bytes differ (different live count).
        registry.publish(view_of(n + 1, 2));
        let pin1 = registry.pin();
        prop_assert!(cache.get(pin1.epoch, &key).is_none(), "stale cross-epoch hit");
        let bytes1 = encode_response(&execute(&pin1, &req));
        prop_assert_ne!(&bytes0, &bytes1, "distinct epochs must answer distinctly here");
        for _offer in 0..2 {
            cache.put(pin1.epoch, key.clone(), &bytes1);
        }

        // Publish forward until epoch 0 must have retired.
        for day in 3..(3 + keep as u16) {
            registry.publish(view_of(n, day));
        }
        prop_assert!(cache.get(pin0.epoch, &key).is_none(), "retired epoch still cached");
    }
}
