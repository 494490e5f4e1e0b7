//! Byte-exact pin of the hitlist's snapshot sections against
//! `docs/SNAPSHOT_FORMAT.md`.
//!
//! The other journal suites compare the writer with itself (replay
//! round-trips, live ≡ resumed, byte *sizes*), so a writer and reader
//! that drifted from the spec together would pass them. Here every
//! expected byte is assembled by hand from the spec — §1 primitives,
//! §2 envelope, §3.1 hitlist base, §4.1 hitlist delta — never by
//! calling a writer, and the hitlist's own `encode` / `encode_delta`
//! must produce exactly those bytes. The hand-built bytes must also
//! decode and apply back to the live state.

use expanse_addr::codec::{Decoder, Encoder, CODEC_VERSION};
use expanse_addr::Prefix;
use expanse_core::pipeline::{DELTA_MAGIC, PIPELINE_MAGIC};
use expanse_core::Hitlist;
use expanse_model::SourceId;
use expanse_packet::{ProtoSet, Protocol};
use std::net::Ipv6Addr;

fn ip(s: &str) -> Ipv6Addr {
    s.parse().unwrap()
}

fn p48(s: &str) -> Prefix {
    Prefix::new(ip(s), 48)
}

/// Byte builder over the §1 primitives.
#[derive(Default)]
struct Bytes(Vec<u8>);

impl Bytes {
    fn raw(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }
    fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }
    fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_le_bytes())
    }
    /// `len`: a `u64` collection length.
    fn len(&mut self, n: u64) -> &mut Self {
        self.u64(n)
    }
    /// `addr`: the big-endian integer value of the 16 octets, then
    /// serialized little-endian like any `u128`.
    fn addr(&mut self, s: &str) -> &mut Self {
        self.raw(&u128::from(ip(s)).to_le_bytes())
    }
    /// `prefix`: `bits: u128` + `len: u8`.
    fn prefix(&mut self, p: Prefix) -> &mut Self {
        self.raw(&p.bits().to_le_bytes()).u8(p.len())
    }
    /// `row` (§4.1): `mask:u16 first:source last:u16 protos:u8
    /// added:u16 alive:bool`.
    fn row(
        &mut self,
        mask: u16,
        first: u8,
        last: u16,
        protos: u8,
        added: u16,
        alive: bool,
    ) -> &mut Self {
        self.u16(mask)
            .u8(first)
            .u16(last)
            .u8(protos)
            .u16(added)
            .u8(u8::from(alive))
    }
}

/// §2: `magic[8] version:u16 payload checksum:u64`, the checksum being
/// FNV-1a 64 over magic, version and payload.
fn envelope(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(&4u16.to_le_bytes());
    out.extend_from_slice(payload);
    let h = out.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    out.extend_from_slice(&h.to_le_bytes());
    out
}

// §1 `source`: the index into `SourceId::ALL` (DomainLists, Fdns, Ct,
// Axfr, Bitnodes, RipeAtlas, Scamper). §3.1 masks use the same bits.
const FDNS: u8 = 1;
const CT: u8 = 2;
const SCAMPER: u8 = 6;
// §3.1 `protos`: `Protocol::ALL` bit order (Icmp, Tcp80, Tcp443, Udp53,
// Udp443).
const ICMP: u8 = 1 << 0;
const TCP80: u8 = 1 << 1;
const UDP53: u8 = 1 << 3;
const NEVER: u16 = 0xffff;

fn mask(sources: &[u8]) -> u16 {
    sources.iter().fold(0, |m, &s| m | 1 << s)
}

/// Five rows, one tombstoned, two spend counters: the sync point.
fn base_state() -> Hitlist {
    let mut h = Hitlist::new();
    h.add_from(
        SourceId::Ct,
        &[ip("2001:db8::1"), ip("2001:db8::2"), ip("2001:db8::3")],
        0,
    );
    h.add_from(SourceId::Fdns, &[ip("2001:db8::4"), ip("2001:db8::5")], 1);
    h.mark_responsive(ip("2001:db8::1"), 1, ProtoSet::only(Protocol::Icmp));
    h.mark_responsive(ip("2001:db8::3"), 2, ProtoSet::only(Protocol::Tcp80));
    // Cutoff day 1: only ::2 (added day 0, never answered) expires.
    assert_eq!(h.expire_unresponsive(2, 1), 1);
    h.charge_probes(p48("2001:db8::"), 5);
    h.charge_probes(p48("2001:db8:1::"), 2);
    h
}

/// One delta window on top of [`base_state`]: every §4.1 mutation
/// class once.
fn mutate(h: &mut Hitlist) {
    // Appended row (id 5).
    h.add_from(SourceId::Scamper, &[ip("2001:db8::6")], 3);
    // Revival of the tombstoned ::2 (id 1): a rewrite.
    h.add_from(SourceId::Ct, &[ip("2001:db8::2")], 3);
    // Widened source mask of ::3 (id 2): a rewrite.
    h.add_from(SourceId::Fdns, &[ip("2001:db8::3")], 3);
    // Two same-day last_responsive writes (ids 0 and 3): one day-run.
    h.mark_responsive(ip("2001:db8::1"), 3, ProtoSet::only(Protocol::Icmp));
    h.mark_responsive(ip("2001:db8::4"), 3, ProtoSet::only(Protocol::Udp53));
    // Cutoff day 2: only ::5 (id 4, added day 1, never answered) expires.
    assert_eq!(h.expire_unresponsive(3, 1), 1);
    // One spend counter moves: 5 → 8.
    h.charge_probes(p48("2001:db8::"), 3);
}

/// §3.1, assembled by hand.
fn expected_base() -> Vec<u8> {
    let mut b = Bytes::default();
    b.len(5)
        .addr("2001:db8::1")
        .addr("2001:db8::2")
        .addr("2001:db8::3")
        .addr("2001:db8::4")
        .addr("2001:db8::5");
    for m in [
        mask(&[CT]),
        mask(&[CT]),
        mask(&[CT]),
        mask(&[FDNS]),
        mask(&[FDNS]),
    ] {
        b.u16(m);
    }
    b.raw(&[CT, CT, CT, FDNS, FDNS]);
    for last in [1, NEVER, 2, NEVER, NEVER] {
        b.u16(last);
    }
    b.raw(&[ICMP, 0, TCP80, 0, 0]);
    for added in [0, 0, 0, 1, 1] {
        b.u16(added);
    }
    b.raw(&[1, 0, 1, 1, 1]);
    b.len(2)
        .prefix(p48("2001:db8::"))
        .u64(5)
        .prefix(p48("2001:db8:1::"))
        .u64(2);
    envelope(&PIPELINE_MAGIC, &b.0)
}

/// §4.1, assembled by hand.
fn expected_delta() -> Vec<u8> {
    let mut b = Bytes::default();
    // base_rows, then the appended table suffix and its full row.
    b.len(5).len(1).addr("2001:db8::6");
    b.row(mask(&[SCAMPER]), SCAMPER, NEVER, 0, 3, true);
    // rewrites: id-gaps [1, 2] = count 2, first id 1, gap − 1 = 0.
    b.raw(&[2, 1, 0]);
    b.row(mask(&[CT]), CT, NEVER, 0, 3, true);
    b.row(mask(&[CT, FDNS]), CT, 2, TCP80, 0, true);
    // last-writes: id-gaps [0, 3] = count 2, first id 0, gap − 1 = 2.
    b.raw(&[2, 0, 2]);
    // day-runs: one run, both rows answered on day 3.
    b.u8(2).u16(3);
    // protos of the two last-writes rows.
    b.raw(&[ICMP, UDP53]);
    // tombstones: id-gaps [4].
    b.raw(&[1, 4]);
    // spent-delta: count 1, then one prefix-run entry — len 48, shared
    // 0 (first entry), the 6 significant big-endian octets — and its
    // absolute total as a varint.
    b.u8(1)
        .u8(48)
        .u8(0)
        .raw(&[0x20, 0x01, 0x0d, 0xb8, 0x00, 0x00])
        .u8(8);
    envelope(&DELTA_MAGIC, &b.0)
}

fn encode_base(h: &Hitlist) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new(), &PIPELINE_MAGIC, CODEC_VERSION).unwrap();
    h.encode(&mut enc).unwrap();
    enc.finish().unwrap()
}

fn encode_delta(h: &Hitlist) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new(), &DELTA_MAGIC, CODEC_VERSION).unwrap();
    h.encode_delta(&mut enc).unwrap();
    enc.finish().unwrap()
}

#[test]
fn hitlist_sections_match_the_spec_byte_for_byte() {
    assert_eq!(CODEC_VERSION, 4, "the hand-built envelopes are version 4");
    let mut live = base_state();
    assert_eq!(encode_base(&live), expected_base(), "§3.1 base section");
    live.mark_synced();
    mutate(&mut live);
    assert_eq!(encode_delta(&live), expected_delta(), "§4.1 delta section");

    // The reader takes the hand-built bytes to the live state.
    let base = expected_base();
    let mut dec = Decoder::new(base.as_slice(), &PIPELINE_MAGIC, CODEC_VERSION).unwrap();
    let mut replica = Hitlist::decode(&mut dec).unwrap();
    dec.finish().unwrap();
    let delta = expected_delta();
    let mut dec = Decoder::new(delta.as_slice(), &DELTA_MAGIC, CODEC_VERSION).unwrap();
    replica.apply_delta(&mut dec).unwrap();
    dec.finish().unwrap();
    assert_eq!(encode_base(&replica), encode_base(&live));
}
