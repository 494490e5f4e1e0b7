//! The sans-IO wire protocol: length-prefixed, checksummed
//! request/response frames.
//!
//! This module only translates between bytes and typed
//! [`Request`]/[`Response`] values — it performs no IO and owns no
//! sockets, so any transport (TCP, unix sockets, an in-process queue,
//! a test harness) can carry it. Framing follows the same envelope
//! idiom as [`expanse_addr::codec`]: every frame is an outer `u32`
//! little-endian length followed by one `magic · version · payload ·
//! fnv1a64` envelope, so a flipped bit anywhere in a frame fails the
//! checksum instead of mis-parsing. The byte layout is specified
//! normatively in `docs/SERVE_PROTOCOL.md`.

use crate::query::{AliasScope, Query};
use crate::view::{AddrRecord, ViewStats};
use expanse_addr::codec::{self, CodecError, Decoder, Encoder};
use expanse_addr::{addr_to_u128, u128_to_addr, Prefix};
use expanse_core::{Hitlist, SchedJobInfo, SchedStatus, SourceMask};
use expanse_packet::{ProtoSet, Protocol};
use std::net::Ipv6Addr;

/// Envelope magic for a request frame.
pub const REQUEST_MAGIC: [u8; 8] = *b"EXP6SRVQ";

/// Envelope magic for a response frame.
pub const RESPONSE_MAGIC: [u8; 8] = *b"EXP6SRVR";

/// Current wire-protocol version (independent of the snapshot codec
/// version — the two formats evolve separately).
pub const PROTOCOL_VERSION: u16 = 1;

/// Reject outer frame lengths beyond this (16 MiB): a single query or
/// response page has no business being larger, and a corrupted length
/// must not cost an implausible allocation.
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Error code: the request frame decoded but named an unknown kind or
/// carried out-of-range fields.
pub const ERR_MALFORMED: u8 = 1;

/// Error code: the server is at its accept limit; the connection is
/// closed after this frame (transport-level, sent before any request
/// was read — see the transport section of `docs/SERVE_PROTOCOL.md`).
pub const ERR_OVERLOADED: u8 = 2;

/// Error code: admission control rejected the request — the client
/// exhausted its token bucket. The connection stays alive; the client
/// should back off and retry.
pub const ERR_RATE_LIMITED: u8 = 3;

/// Error code: the client sent an outer frame length beyond the
/// server's ceiling. The stream cannot be resynchronized past an
/// untrusted length, so the connection is closed after this frame.
pub const ERR_FRAME_TOO_LARGE: u8 = 4;

/// Error code: the server is draining (graceful shutdown) and accepts
/// no new connections; sent once on a rejected connection, then close.
pub const ERR_SHUTTING_DOWN: u8 = 5;

/// Error code: the client was too slow — a frame stayed incomplete
/// past the read deadline, or a response could not be written within
/// the write deadline. The connection is closed after this frame.
pub const ERR_TIMEOUT: u8 = 6;

/// Every `ERR_*` code with its constant's name, in code order — the
/// error table of `docs/SERVE_PROTOCOL.md` lists the same six (the
/// root `normative_docs` test diffs the two).
pub const ERROR_CODES: [(u8, &str); 6] = [
    (ERR_MALFORMED, "ERR_MALFORMED"),
    (ERR_OVERLOADED, "ERR_OVERLOADED"),
    (ERR_RATE_LIMITED, "ERR_RATE_LIMITED"),
    (ERR_FRAME_TOO_LARGE, "ERR_FRAME_TOO_LARGE"),
    (ERR_SHUTTING_DOWN, "ERR_SHUTTING_DOWN"),
    (ERR_TIMEOUT, "ERR_TIMEOUT"),
];

/// Per-response cap on `Select` limits and `Sample` sizes: 2¹⁶
/// addresses is ~1 MiB of payload, comfortably inside the protocol's
/// 16 MiB frame ceiling. A client asking for more pages through with
/// cursors; the response frame can never outgrow what a peer will
/// accept. [`Request::canonical`] clamps to this, so two wire
/// encodings that differ only in an over-cap limit are the *same*
/// request — same execution, same cache entry.
pub const MAX_RESULT_ADDRS: usize = 1 << 16;

/// One query request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Liveness / epoch probe.
    Ping,
    /// Point lookup of one address.
    Lookup {
        /// The address to look up.
        addr: Ipv6Addr,
    },
    /// One page of an address-ordered filtered walk.
    Select {
        /// The filter.
        query: Query,
        /// Resume strictly after this address (bits), if given.
        cursor: Option<u128>,
        /// Page size cap.
        limit: u32,
    },
    /// A deterministic seeded sample of matching members.
    Sample {
        /// The filter.
        query: Query,
        /// Sample size cap.
        k: u32,
        /// Sampling seed: same seed + same view = same members.
        seed: u64,
    },
    /// Aggregate statistics, optionally scoped to a prefix.
    Stats {
        /// The scope (`None` = whole view).
        prefix: Option<Prefix>,
    },
    /// The probe scheduler's queue: budget figures plus the top-`k`
    /// entries by priority (`expansectl sched`).
    Sched {
        /// Queue entries requested (clamped to [`MAX_RESULT_ADDRS`]).
        k: u32,
    },
}

impl Request {
    /// The canonical form of the request: the representative every
    /// wire-equivalent encoding maps to before execution or cache
    /// keying. The server clamps `Select` limits and `Sample` sizes to
    /// [`MAX_RESULT_ADDRS`], so a `limit` of 10⁶ and a limit of 2¹⁶
    /// are answered identically — canonicalization makes that explicit
    /// *before* the response cache keys on the encoded bytes, so the
    /// two encodings share one cache entry instead of diverging.
    ///
    /// A `Select` with `limit == 0` is left alone: it is answered with
    /// an in-band error, and canonicalization must never turn an
    /// invalid request into a valid one.
    pub fn canonical(&self) -> Request {
        match *self {
            Request::Select {
                query,
                cursor,
                limit,
            } if limit as usize > MAX_RESULT_ADDRS => Request::Select {
                query,
                cursor,
                limit: MAX_RESULT_ADDRS as u32,
            },
            Request::Sample { query, k, seed } if k as usize > MAX_RESULT_ADDRS => {
                Request::Sample {
                    query,
                    k: MAX_RESULT_ADDRS as u32,
                    seed,
                }
            }
            Request::Sched { k } if k as usize > MAX_RESULT_ADDRS => Request::Sched {
                k: MAX_RESULT_ADDRS as u32,
            },
            other => other,
        }
    }

    /// The response-cache key for this request: the framed encoding of
    /// its [canonical form](Request::canonical), or `None` for
    /// requests that must not be cached (a zero-limit `Select` is
    /// answered with an error, and error responses are not worth a
    /// cache slot).
    pub fn cache_key(&self) -> Option<Vec<u8>> {
        if let Request::Select { limit: 0, .. } = self {
            return None;
        }
        Some(encode_request(&self.canonical()))
    }
}

/// The kind-specific part of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// Answer to [`Request::Ping`].
    Pong {
        /// Live members in the pinned view.
        live: u64,
    },
    /// Answer to [`Request::Lookup`].
    Record {
        /// The record, or `None` if the address was never a member.
        found: Option<AddrRecord>,
    },
    /// Answer to [`Request::Select`].
    Page {
        /// The page's addresses, ascending.
        addrs: Vec<Ipv6Addr>,
        /// Cursor for the next page (`None` = exhausted).
        next: Option<u128>,
    },
    /// Answer to [`Request::Sample`].
    Sample {
        /// The sampled addresses, ascending.
        addrs: Vec<Ipv6Addr>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// The aggregates.
        stats: ViewStats,
    },
    /// Answer to [`Request::Sched`].
    Sched {
        /// The scheduler status (budget, usage, top-K queue entries).
        status: SchedStatus,
    },
    /// The request frame could not be served.
    Error {
        /// An `ERR_*` code.
        code: u8,
    },
}

/// One response frame: which epoch and day served it, plus the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The registry epoch the serving view was pinned at.
    pub epoch: u64,
    /// The view's completed probing days.
    pub day: u16,
    /// The kind-specific payload.
    pub body: ResponseBody,
}

// ---- framing ---------------------------------------------------------

/// Wrap an envelope in the outer `u32` length prefix.
fn frame(envelope: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + envelope.len());
    out.extend_from_slice(&(envelope.len() as u32).to_le_bytes());
    out.extend_from_slice(&envelope);
    out
}

// ---- shared field codecs ---------------------------------------------

fn put_opt_u128<W: std::io::Write>(
    enc: &mut Encoder<W>,
    v: Option<u128>,
) -> Result<(), CodecError> {
    match v {
        None => enc.put_u8(0),
        Some(x) => {
            enc.put_u8(1)?;
            enc.put_u128(x)
        }
    }
}

fn get_opt_u128<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<Option<u128>, CodecError> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(dec.get_u128()?)),
        _ => Err(CodecError::Corrupt("option tag out of range")),
    }
}

fn put_opt_prefix<W: std::io::Write>(
    enc: &mut Encoder<W>,
    p: Option<Prefix>,
) -> Result<(), CodecError> {
    match p {
        None => enc.put_u8(0),
        Some(p) => {
            enc.put_u8(1)?;
            codec::write_prefix(enc, p)
        }
    }
}

fn get_opt_prefix<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<Option<Prefix>, CodecError> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(codec::read_prefix(dec)?)),
        _ => Err(CodecError::Corrupt("option tag out of range")),
    }
}

fn get_protos<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<ProtoSet, CodecError> {
    // One shared validation gate with the snapshot codec: see
    // `ProtoSet::from_bits`.
    ProtoSet::from_bits(dec.get_u8()?).ok_or(CodecError::Corrupt("protocol set has unknown bits"))
}

fn put_query<W: std::io::Write>(enc: &mut Encoder<W>, q: &Query) -> Result<(), CodecError> {
    put_opt_prefix(enc, q.prefix)?;
    enc.put_u8(q.protocols.0)?;
    match q.min_last_responsive {
        None => enc.put_u8(0)?,
        Some(d) => {
            enc.put_u8(1)?;
            enc.put_u16(d)?;
        }
    }
    enc.put_u8(match q.alias {
        AliasScope::NonAliased => 0,
        AliasScope::Aliased => 1,
        AliasScope::Any => 2,
    })
}

fn get_query<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<Query, CodecError> {
    let prefix = get_opt_prefix(dec)?;
    let protocols = get_protos(dec)?;
    let min_last_responsive = match dec.get_u8()? {
        0 => None,
        1 => Some(dec.get_u16()?),
        _ => return Err(CodecError::Corrupt("option tag out of range")),
    };
    let alias = match dec.get_u8()? {
        0 => AliasScope::NonAliased,
        1 => AliasScope::Aliased,
        2 => AliasScope::Any,
        _ => return Err(CodecError::Corrupt("alias scope out of range")),
    };
    Ok(Query {
        prefix,
        protocols,
        min_last_responsive,
        alias,
    })
}

fn put_addrs<W: std::io::Write>(
    enc: &mut Encoder<W>,
    addrs: &[Ipv6Addr],
) -> Result<(), CodecError> {
    enc.put_len(addrs.len())?;
    for &a in addrs {
        enc.put_u128(addr_to_u128(a))?;
    }
    Ok(())
}

fn get_addrs<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<Vec<Ipv6Addr>, CodecError> {
    let n = dec.get_len()?;
    let mut addrs = Vec::with_capacity(Decoder::<R>::reserve_hint(n));
    for _ in 0..n {
        addrs.push(u128_to_addr(dec.get_u128()?));
    }
    Ok(addrs)
}

// ---- requests --------------------------------------------------------

/// Encode a request into one framed byte vector (outer length prefix
/// included).
#[allow(
    clippy::expect_used,
    reason = "encoding into a Vec is infallible; the expects document that"
)]
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut envelope = Vec::new();
    let mut enc = Encoder::new(&mut envelope, &REQUEST_MAGIC, PROTOCOL_VERSION)
        .expect("Vec writes cannot fail");
    let r: Result<(), CodecError> = (|| {
        match req {
            Request::Ping => enc.put_u8(0)?,
            Request::Lookup { addr } => {
                enc.put_u8(1)?;
                enc.put_u128(addr_to_u128(*addr))?;
            }
            Request::Select {
                query,
                cursor,
                limit,
            } => {
                enc.put_u8(2)?;
                put_query(&mut enc, query)?;
                put_opt_u128(&mut enc, *cursor)?;
                enc.put_u32(*limit)?;
            }
            Request::Sample { query, k, seed } => {
                enc.put_u8(3)?;
                put_query(&mut enc, query)?;
                enc.put_u32(*k)?;
                enc.put_u64(*seed)?;
            }
            Request::Stats { prefix } => {
                enc.put_u8(4)?;
                put_opt_prefix(&mut enc, *prefix)?;
            }
            Request::Sched { k } => {
                enc.put_u8(5)?;
                enc.put_u32(*k)?;
            }
        }
        Ok(())
    })();
    r.expect("Vec writes cannot fail");
    enc.finish().expect("Vec writes cannot fail");
    frame(envelope)
}

/// Decode a request envelope (a frame without its length prefix, as
/// [`FrameAssembler`](crate::FrameAssembler) yields it).
pub fn decode_request(envelope: &[u8]) -> Result<Request, CodecError> {
    let mut dec = Decoder::new(envelope, &REQUEST_MAGIC, PROTOCOL_VERSION)?;
    let req = match dec.get_u8()? {
        0 => Request::Ping,
        1 => Request::Lookup {
            addr: u128_to_addr(dec.get_u128()?),
        },
        2 => Request::Select {
            query: get_query(&mut dec)?,
            cursor: get_opt_u128(&mut dec)?,
            limit: dec.get_u32()?,
        },
        3 => Request::Sample {
            query: get_query(&mut dec)?,
            k: dec.get_u32()?,
            seed: dec.get_u64()?,
        },
        4 => Request::Stats {
            prefix: get_opt_prefix(&mut dec)?,
        },
        5 => Request::Sched { k: dec.get_u32()? },
        _ => return Err(CodecError::Corrupt("unknown request kind")),
    };
    dec.finish()?;
    Ok(req)
}

// ---- responses -------------------------------------------------------

fn put_record<W: std::io::Write>(enc: &mut Encoder<W>, r: &AddrRecord) -> Result<(), CodecError> {
    enc.put_u128(addr_to_u128(r.addr))?;
    enc.put_bool(r.alive)?;
    enc.put_u16(r.sources.0)?;
    enc.put_u16(r.last_responsive.unwrap_or(Hitlist::NEVER_RESPONSIVE))?;
    enc.put_u8(r.protos.0)?;
    enc.put_u16(r.added_day)?;
    put_opt_prefix(enc, r.aliased)
}

fn get_record<R: std::io::Read>(dec: &mut Decoder<R>) -> Result<AddrRecord, CodecError> {
    let addr = u128_to_addr(dec.get_u128()?);
    let alive = dec.get_bool()?;
    let sources = SourceMask(dec.get_u16()?);
    let last = dec.get_u16()?;
    let protos = get_protos(dec)?;
    let added_day = dec.get_u16()?;
    let aliased = get_opt_prefix(dec)?;
    Ok(AddrRecord {
        addr,
        alive,
        sources,
        last_responsive: (last != Hitlist::NEVER_RESPONSIVE).then_some(last),
        protos,
        added_day,
        aliased,
    })
}

/// Encode a response into one framed byte vector.
#[allow(
    clippy::expect_used,
    reason = "encoding into a Vec is infallible; the expects document that"
)]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut envelope = Vec::new();
    let mut enc = Encoder::new(&mut envelope, &RESPONSE_MAGIC, PROTOCOL_VERSION)
        .expect("Vec writes cannot fail");
    let r: Result<(), CodecError> = (|| {
        enc.put_u64(resp.epoch)?;
        enc.put_u16(resp.day)?;
        match &resp.body {
            ResponseBody::Pong { live } => {
                enc.put_u8(0)?;
                enc.put_u64(*live)?;
            }
            ResponseBody::Record { found } => {
                enc.put_u8(1)?;
                match found {
                    None => enc.put_u8(0)?,
                    Some(rec) => {
                        enc.put_u8(1)?;
                        put_record(&mut enc, rec)?;
                    }
                }
            }
            ResponseBody::Page { addrs, next } => {
                enc.put_u8(2)?;
                put_addrs(&mut enc, addrs)?;
                put_opt_u128(&mut enc, *next)?;
            }
            ResponseBody::Sample { addrs } => {
                enc.put_u8(3)?;
                put_addrs(&mut enc, addrs)?;
            }
            ResponseBody::Stats { stats } => {
                enc.put_u8(4)?;
                enc.put_u64(stats.members)?;
                enc.put_u64(stats.live)?;
                enc.put_u64(stats.responsive)?;
                enc.put_u64(stats.aliased)?;
                for p in Protocol::ALL {
                    enc.put_u64(stats.per_protocol[p.index()])?;
                }
            }
            ResponseBody::Sched { status } => {
                enc.put_u8(5)?;
                enc.put_u64(status.budget)?;
                enc.put_u64(status.used)?;
                enc.put_u64(status.entries)?;
                enc.put_len(status.top.len())?;
                for row in &status.top {
                    codec::write_prefix(&mut enc, row.net)?;
                    enc.put_u8(row.kind)?;
                    enc.put_u64(row.priority)?;
                    enc.put_u64(row.spent)?;
                }
            }
            ResponseBody::Error { code } => {
                enc.put_u8(0xff)?;
                enc.put_u8(*code)?;
            }
        }
        Ok(())
    })();
    r.expect("Vec writes cannot fail");
    enc.finish().expect("Vec writes cannot fail");
    frame(envelope)
}

/// Decode a response envelope (a frame without its length prefix).
pub fn decode_response(envelope: &[u8]) -> Result<Response, CodecError> {
    let mut dec = Decoder::new(envelope, &RESPONSE_MAGIC, PROTOCOL_VERSION)?;
    let epoch = dec.get_u64()?;
    let day = dec.get_u16()?;
    let body = match dec.get_u8()? {
        0 => ResponseBody::Pong {
            live: dec.get_u64()?,
        },
        1 => ResponseBody::Record {
            found: match dec.get_u8()? {
                0 => None,
                1 => Some(get_record(&mut dec)?),
                _ => return Err(CodecError::Corrupt("option tag out of range")),
            },
        },
        2 => ResponseBody::Page {
            addrs: get_addrs(&mut dec)?,
            next: get_opt_u128(&mut dec)?,
        },
        3 => ResponseBody::Sample {
            addrs: get_addrs(&mut dec)?,
        },
        4 => {
            let members = dec.get_u64()?;
            let live = dec.get_u64()?;
            let responsive = dec.get_u64()?;
            let aliased = dec.get_u64()?;
            let mut per_protocol = [0u64; 5];
            for p in Protocol::ALL {
                per_protocol[p.index()] = dec.get_u64()?;
            }
            ResponseBody::Stats {
                stats: ViewStats {
                    members,
                    live,
                    responsive,
                    aliased,
                    per_protocol,
                },
            }
        }
        5 => {
            let budget = dec.get_u64()?;
            let used = dec.get_u64()?;
            let entries = dec.get_u64()?;
            let n = dec.get_len()?;
            let mut top = Vec::with_capacity(Decoder::<&[u8]>::reserve_hint(n));
            for _ in 0..n {
                let net = codec::read_prefix(&mut dec)?;
                let kind = dec.get_u8()?;
                if kind > 1 {
                    return Err(CodecError::Corrupt("sched job kind out of range"));
                }
                let priority = dec.get_u64()?;
                let spent = dec.get_u64()?;
                top.push(SchedJobInfo {
                    net,
                    kind,
                    priority,
                    spent,
                });
            }
            ResponseBody::Sched {
                status: SchedStatus {
                    budget,
                    used,
                    entries,
                    top,
                },
            }
        }
        0xff => ResponseBody::Error {
            code: dec.get_u8()?,
        },
        _ => return Err(CodecError::Corrupt("unknown response kind")),
    };
    dec.finish()?;
    Ok(Response { epoch, day, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let framed = encode_request(&req);
        assert_eq!(framed[..4], (framed.len() as u32 - 4).to_le_bytes());
        assert_eq!(decode_request(&framed[4..]).unwrap(), req);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Lookup {
            addr: "2001:db8::1".parse().unwrap(),
        });
        roundtrip_req(Request::Select {
            query: Query {
                min_last_responsive: Some(3),
                ..Query::all()
                    .under("2001:db8::/32".parse().unwrap())
                    .on_protocols(ProtoSet::only(Protocol::Tcp443))
                    .non_aliased()
            },
            cursor: Some(42),
            limit: 100,
        });
        roundtrip_req(Request::Sample {
            query: Query::all(),
            k: 10,
            seed: 0xfeed,
        });
        roundtrip_req(Request::Stats {
            prefix: Some("2001:db8::/32".parse().unwrap()),
        });
        roundtrip_req(Request::Sched { k: 25 });
    }

    #[test]
    fn sched_request_canonicalizes_oversize_k() {
        let req = Request::Sched { k: u32::MAX };
        assert_eq!(
            req.canonical(),
            Request::Sched {
                k: MAX_RESULT_ADDRS as u32
            }
        );
        // In-range k is untouched.
        let req = Request::Sched { k: 10 };
        assert_eq!(req.canonical(), req);
    }

    #[test]
    fn response_roundtrips() {
        let addrs: Vec<Ipv6Addr> = vec!["2001:db8::1".parse().unwrap()];
        for body in [
            ResponseBody::Pong { live: 7 },
            ResponseBody::Record { found: None },
            ResponseBody::Record {
                found: Some(AddrRecord {
                    addr: addrs[0],
                    alive: true,
                    sources: SourceMask(3),
                    last_responsive: Some(4),
                    protos: ProtoSet::only(Protocol::Icmp),
                    added_day: 1,
                    aliased: Some("2001:db8::/48".parse().unwrap()),
                }),
            },
            ResponseBody::Page {
                addrs: addrs.clone(),
                next: Some(9),
            },
            ResponseBody::Sample {
                addrs: addrs.clone(),
            },
            ResponseBody::Stats {
                stats: ViewStats {
                    members: 10,
                    live: 9,
                    responsive: 5,
                    aliased: 2,
                    per_protocol: [5, 4, 3, 2, 1],
                },
            },
            ResponseBody::Sched {
                status: SchedStatus {
                    budget: 1000,
                    used: 640,
                    entries: 3,
                    top: vec![
                        SchedJobInfo {
                            net: "2001:db8:1::/48".parse().unwrap(),
                            kind: 0,
                            priority: 5120,
                            spent: 64,
                        },
                        SchedJobInfo {
                            net: "2001:db8:2::/48".parse().unwrap(),
                            kind: 1,
                            priority: 2048,
                            spent: 16,
                        },
                    ],
                },
            },
            ResponseBody::Error {
                code: ERR_MALFORMED,
            },
        ] {
            let resp = Response {
                epoch: 3,
                day: 9,
                body,
            };
            let framed = encode_response(&resp);
            assert_eq!(framed[..4], (framed.len() as u32 - 4).to_le_bytes());
            assert_eq!(decode_response(&framed[4..]).unwrap(), resp);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut framed = encode_request(&Request::Ping);
        // Flip a payload bit: checksum fails.
        let n = framed.len();
        framed[n - 9] ^= 0x01;
        assert!(decode_request(&framed[4..]).is_err());
        // Torn envelope: the checksum trailer is cut short.
        let whole = encode_request(&Request::Ping);
        assert!(decode_request(&whole[4..whole.len() - 1]).is_err());
    }
}
