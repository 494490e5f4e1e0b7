//! The worker-pool driver: serve a byte stream of request frames
//! against a [`SnapshotRegistry`] on N threads.
//!
//! Still sans-IO — the "connection" is a byte slice of length-prefixed
//! request frames in, a byte vector of response frames (in request
//! order) out. Each request pins its own epoch: a publish landing
//! mid-stream means later requests answer from the new epoch while
//! already-pinned ones finish on the old, and every response says
//! which epoch served it. Callers that need one epoch across several
//! requests (a paginated walk) pin once with
//! [`SnapshotRegistry::pin`] and use [`execute`] directly.

use crate::protocol::{
    decode_request, encode_response, split_frames, Request, Response, ResponseBody, ERR_MALFORMED,
};
use crate::registry::{Pinned, SnapshotRegistry};
use expanse_addr::CodecError;

pub use crate::protocol::MAX_RESULT_ADDRS;

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
            live: view.live_set().len() as u64,
        },
        Request::Lookup { addr } => ResponseBody::Record {
            found: view.lookup(addr).map(Into::into),
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

/// Serve one request envelope (a [`split_frames`] slice): pin the
/// current epoch, execute, and return the framed response. A frame
/// that fails to decode gets an [`ResponseBody::Error`] response — the
/// stream stays alive; garbage in one frame never kills a connection.
pub fn handle_envelope(registry: &SnapshotRegistry, envelope: &[u8]) -> Vec<u8> {
    match decode_request(envelope) {
        Ok(req) => encode_response(&execute(&registry.pin(), &req)),
        Err(_) => error_frame(registry, ERR_MALFORMED),
    }
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

/// Serve a whole stream of request frames on `threads` workers,
/// returning the concatenated response frames **in request order**
/// (responses are reassembled positionally, so pipelined clients can
/// match them up without per-request tags).
///
/// Errors only on a torn stream (a frame length pointing past the
/// input) — per-frame decode failures come back as in-band error
/// responses via [`handle_envelope`].
pub fn serve_stream(
    registry: &SnapshotRegistry,
    input: &[u8],
    threads: usize,
) -> Result<Vec<u8>, CodecError> {
    let frames = split_frames(input)?;
    let threads = threads.max(1);
    let mut responses: Vec<Vec<u8>> = vec![Vec::new(); frames.len()];
    if threads == 1 || frames.len() <= 1 {
        for (slot, envelope) in responses.iter_mut().zip(&frames) {
            *slot = handle_envelope(registry, envelope);
        }
    } else {
        // Contiguous chunks, one per worker; each worker owns its slice
        // of the response table, so reassembly is free.
        let chunk = frames.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (slots, reqs) in responses.chunks_mut(chunk).zip(frames.chunks(chunk)) {
                s.spawn(move || {
                    for (slot, envelope) in slots.iter_mut().zip(reqs) {
                        *slot = handle_envelope(registry, envelope);
                    }
                });
            }
        });
    }
    Ok(responses.concat())
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
    fn stream_responses_arrive_in_request_order() {
        let reg = registry(20);
        let mut stream = Vec::new();
        for i in 1..=10u128 {
            stream.extend_from_slice(&encode_request(&Request::Lookup {
                addr: expanse_addr::u128_to_addr(i),
            }));
        }
        for threads in [1, 4] {
            let out = serve_stream(&reg, &stream, threads).unwrap();
            let frames = split_frames(&out).unwrap();
            assert_eq!(frames.len(), 10);
            for (i, f) in frames.iter().enumerate() {
                let resp = decode_response(f).unwrap();
                match resp.body {
                    ResponseBody::Record { found: Some(rec) } => {
                        assert_eq!(rec.addr, expanse_addr::u128_to_addr(i as u128 + 1));
                    }
                    other => panic!("unexpected body {other:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_limit_select_is_rejected_not_falsely_exhausted() {
        let reg = registry(5);
        // Wire level: limit 0 gets an in-band error, never an empty
        // page claiming exhaustion.
        let stream = encode_request(&Request::Select {
            query: Query::all(),
            cursor: None,
            limit: 0,
        });
        let out = serve_stream(&reg, &stream, 1).unwrap();
        let resp = decode_response(split_frames(&out).unwrap()[0]).unwrap();
        assert!(matches!(
            resp.body,
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
        let mut stream = bad;
        stream.extend_from_slice(&encode_request(&Request::Select {
            query: Query::all(),
            cursor: None,
            limit: 10,
        }));
        let out = serve_stream(&reg, &stream, 2).unwrap();
        let frames = split_frames(&out).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            decode_response(frames[0]).unwrap().body,
            ResponseBody::Error {
                code: ERR_MALFORMED
            }
        ));
        assert!(matches!(
            decode_response(frames[1]).unwrap().body,
            ResponseBody::Page { .. }
        ));
    }
}
