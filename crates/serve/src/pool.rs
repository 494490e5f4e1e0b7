//! The one request path: a framed request envelope in, the framed
//! response out.
//!
//! Still sans-IO — [`handle`] takes one request envelope (the bytes a
//! [`FrameAssembler`](crate::FrameAssembler) yields) and returns the
//! response frame; it is the only code in the crate that decodes,
//! admits, pins, probes the cache, executes and encodes a request, so
//! the socket loop (`crate::transport`) and every in-memory harness
//! answer through the same lines. Each request pins its own epoch: a
//! publish landing between two requests means the later one answers
//! from the new epoch while an already-pinned one finishes on the old,
//! and every response says which epoch served it. Callers that need
//! one epoch across several requests (a paginated walk) pin once with
//! [`SnapshotRegistry::pin`] and use [`execute`] directly.

use crate::cache::ResponseCache;
use crate::limiter::{AdmissionControl, ClientKey};
use crate::protocol::{
    decode_request, encode_response, Request, Response, ResponseBody, ERR_MALFORMED,
    ERR_RATE_LIMITED,
};
use crate::registry::{Pinned, SnapshotRegistry};
use std::sync::Arc;

/// Execute one decoded request against a pinned epoch.
///
/// The request is [canonicalized](Request::canonical) first, so a
/// request and its canonical form are answered byte-identically — the
/// invariant the response cache's `(epoch, canonical bytes)` keying
/// rests on (`tests/cache_consistency.rs` pins it).
pub fn execute(pin: &Pinned, req: &Request) -> Response {
    let view = &pin.view;
    let body = match req.canonical() {
        Request::Ping => ResponseBody::Pong {
            live: view.live_count(),
        },
        Request::Lookup { addr } => ResponseBody::Record {
            found: view.lookup(addr),
        },
        Request::Select {
            query,
            cursor,
            limit,
        } => {
            if limit == 0 {
                // A zero-limit page can never make progress; answering
                // one would either falsely signal exhaustion or loop
                // the client forever. Out-of-range field → in-band
                // error, per the spec.
                ResponseBody::Error {
                    code: ERR_MALFORMED,
                }
            } else {
                // Canonicalization already clamped `limit` to the
                // per-response cap.
                let page = view.page(&query, cursor, limit as usize);
                ResponseBody::Page {
                    addrs: page.addrs,
                    next: page.next,
                }
            }
        }
        Request::Sample { query, k, seed } => ResponseBody::Sample {
            addrs: view.sample(&query, k as usize, seed),
        },
        Request::Stats { prefix } => ResponseBody::Stats {
            stats: view.stats(prefix),
        },
        Request::Sched { k } => ResponseBody::Sched {
            status: view.sched_status(k as usize),
        },
    };
    Response {
        epoch: pin.epoch,
        day: view.days_complete(),
        body,
    }
}

/// Which of the transport's three per-request counters a [`handle`]
/// call falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The request decoded and was admitted: the response is its
    /// answer (from the cache or freshly executed — a zero-limit
    /// `Select`'s in-band error included).
    Served,
    /// The envelope failed to decode; the response is an
    /// [`ERR_MALFORMED`] frame. The stream stays alive — garbage in
    /// one frame never kills a connection.
    Malformed,
    /// Admission control rejected the request; the response is an
    /// [`ERR_RATE_LIMITED`] frame.
    RateLimited,
}

/// Serve one request envelope: decode → admission → pin the current
/// epoch → cache probe → execute → encode → cache fill. Returns the
/// framed response and what kind of answer it is. `cache` and
/// `limiter` are the optional scale layers; `client` is who the
/// limiter charges.
pub fn handle(
    registry: &SnapshotRegistry,
    cache: Option<&ResponseCache>,
    limiter: Option<&AdmissionControl>,
    client: &ClientKey,
    envelope: &[u8],
) -> (Arc<[u8]>, Outcome) {
    let Ok(req) = decode_request(envelope) else {
        return (
            error_frame(registry, ERR_MALFORMED).into(),
            Outcome::Malformed,
        );
    };
    if limiter.is_some_and(|l| !l.admit(client)) {
        return (
            error_frame(registry, ERR_RATE_LIMITED).into(),
            Outcome::RateLimited,
        );
    }
    let pin = registry.pin();
    // `None` when there is no cache or the request is uncacheable.
    let keyed = cache.and_then(|cache| Some((cache, req.cache_key()?)));
    if let Some((cache, key)) = &keyed {
        if let Some(hit) = cache.get(pin.epoch, key) {
            return (hit, Outcome::Served);
        }
    }
    let bytes = encode_response(&execute(&pin, &req));
    if let Some((cache, key)) = keyed {
        cache.put(pin.epoch, key, &bytes);
    }
    (bytes.into(), Outcome::Served)
}

/// [`handle`] with no cache and no limiter, as an owned byte vector:
/// what a server with both scale layers off answers to `envelope`.
pub fn handle_envelope(registry: &SnapshotRegistry, envelope: &[u8]) -> Vec<u8> {
    handle(registry, None, None, &ClientKey::Local, envelope)
        .0
        .to_vec()
}

/// One Error response frame for the server's current epoch.
pub(crate) fn error_frame(registry: &SnapshotRegistry, code: u8) -> Vec<u8> {
    let pin = registry.pin();
    encode_response(&Response {
        epoch: pin.epoch,
        day: pin.view.days_complete(),
        body: ResponseBody::Error { code },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_response, encode_request};
    use crate::query::Query;
    use crate::view::SnapshotView;
    use expanse_core::Hitlist;
    use expanse_model::SourceId;

    fn registry(n: u128) -> SnapshotRegistry {
        let mut h = Hitlist::new();
        let addrs: Vec<std::net::Ipv6Addr> = (1..=n).map(expanse_addr::u128_to_addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        SnapshotRegistry::new(SnapshotView::from_hitlist(1, &h, Vec::new()))
    }

    #[test]
    fn zero_limit_select_is_rejected_not_falsely_exhausted() {
        let reg = registry(5);
        // Wire level: limit 0 gets an in-band error, never an empty
        // page claiming exhaustion — and it counts as served, not as
        // malformed: the frame decoded.
        let framed = encode_request(&Request::Select {
            query: Query::all(),
            cursor: None,
            limit: 0,
        });
        let (out, outcome) = handle(&reg, None, None, &ClientKey::Local, &framed[4..]);
        assert_eq!(outcome, Outcome::Served);
        assert!(matches!(
            decode_response(&out[4..]).unwrap().body,
            ResponseBody::Error {
                code: ERR_MALFORMED
            }
        ));
        // Library level: the limit clamps to 1, so progress is always
        // possible and next: None still means exhausted.
        let pin = reg.pin();
        let page = pin.view.page(&Query::all(), None, 0);
        assert_eq!(page.addrs.len(), 1);
        assert!(page.next.is_some());
    }

    #[test]
    fn malformed_frame_answers_in_band_error() {
        let reg = registry(3);
        let mut bad = encode_request(&Request::Ping);
        let n = bad.len();
        bad[n - 9] ^= 1; // breaks the checksum, not the framing
        let (out, outcome) = handle(&reg, None, None, &ClientKey::Local, &bad[4..]);
        assert_eq!(outcome, Outcome::Malformed);
        assert_eq!(&out[..], &handle_envelope(&reg, &bad[4..])[..]);
        assert!(matches!(
            decode_response(&out[4..]).unwrap().body,
            ResponseBody::Error {
                code: ERR_MALFORMED
            }
        ));
        // The next frame on the same "stream" is served as if nothing
        // had happened.
        let good = encode_request(&Request::Select {
            query: Query::all(),
            cursor: None,
            limit: 10,
        });
        assert!(matches!(
            decode_response(&handle_envelope(&reg, &good[4..])[4..])
                .unwrap()
                .body,
            ResponseBody::Page { .. }
        ));
    }
}
