//! The packet-answering engine: `InternetModel` as a [`Network`].
//!
//! Every probe the scanners emit lands here as raw IPv6 bytes. The engine
//! decides its destination (the fused destination table, the hop model
//! and who answers), applies weather (loss, ICMP rate limits, SYN
//! proxies), and emits byte-exact replies.
//!
//! # Decide once per destination, answer once per frame
//!
//! What the engine needs to know about a destination — its covering
//! announcement and origin category, the path length, the alias region,
//! host or scenario responder behind it, whether it is lossy and which
//! middleboxes sit in front of it — depends on the destination and the
//! day, never on the frame. `InternetModel::decide_in` computes it as
//! a compact [`Decision`]; answering a frame reads only the frame, the
//! decision and the per-view middlebox state. A frame injected without
//! a decision is decided on the spot, and a decision whose destination
//! or day is not the frame's is decided afresh, so a caller that keeps
//! decisions (the battery, five frames per destination) gets the same
//! bytes as one that does not.
//!
//! The decision also says when no frame to its destination can be
//! answered or change anything ([`Reach::Silent`]): the destination is
//! unrouted, or nobody answers it, no ICMP bucket or SYN proxy sits in
//! front of it, and the frame reaches it without expiring at a router on
//! the way. A scanner leaves such probes unsent.

use crate::churn;
use crate::dest::{Dest, NONE};
use crate::fingerprint::MachineId;
use crate::host::HostKind;
use crate::ids::{AsCategory, Asn};
use crate::scenario::ScenarioResponder;
use crate::InternetModel;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{addr_to_u128, Prefix};
use expanse_netsim::{Deliveries, Duration, Network, Reach, SynProxy, Time, TokenBucket};
use expanse_packet::{
    dns, icmpv6, proto, quic, udp, Datagram, Icmpv6Message, Ipv6Header, PacketError, ProtoSet,
    Protocol, TcpFlags, TcpView, TransportView, UdpDatagram,
};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::Arc;

/// Base per-packet loss probability on clean paths.
pub(crate) const BASE_LOSS: f64 = 0.01;
/// Loss probability within high-loss prefixes.
pub(crate) const LOSSY_PREFIX_LOSS: f64 = 0.35;
/// Probability a QUIC-flaky prefix answers QUIC on a given day (the
/// Akamai/HDNet flapping of §6.3).
pub(crate) const QUIC_FLAP_UP_RATE: f64 = 0.78;

/// Per-day mutable middlebox state, rebuilt on `set_day`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DayState {
    pub day: u16,
    /// One bucket per prefix of [`InternetModel::icmp_bucket_prefixes`],
    /// by slot; the fused destination table says which slots cover an
    /// address.
    pub icmp_buckets: Vec<TokenBucket>,
    /// One proxy per prefix of the population's `syn_proxy` list, by
    /// slot.
    pub syn_proxies: Vec<SynProxy>,
    /// The scenario layer's per-day responder table (rotation hosts of
    /// the current epoch, today's temporary privacy addresses). Shared
    /// read-only across snapshots — only the buckets above are per-view
    /// mutable state.
    pub scenario_hosts: Arc<BTreeMap<u128, ScenarioResponder>>,
}

impl DayState {
    pub(crate) fn new(model: &InternetModel, day: u16) -> Self {
        // The rate-limited parent's budget changes daily and barely
        // refills; then one bucket per scenario throttled-router /64.
        // ScenarioConfig::validate guarantees positive bucket parameters
        // whenever that list is non-empty.
        let tokens = churn::rate_limit_day_tokens(model.config.seed, day);
        let mut icmp_buckets = vec![TokenBucket::new(f64::from(tokens), 0.02)];
        let sc = &model.config.scenario;
        icmp_buckets.extend(
            model
                .scenario
                .throttled
                .iter()
                .map(|_| TokenBucket::new(sc.throttle_capacity, sc.throttle_refill_per_sec)),
        );
        let syn_proxies = model
            .population
            .special
            .syn_proxy
            .iter()
            .map(|_| SynProxy::new(Duration::from_secs(20), 12, Duration::from_secs(120)))
            .collect();
        let scenario_hosts = if model.scenario.enabled() {
            Arc::new(model.scenario.day_hosts(day))
        } else {
            Arc::default()
        };
        DayState {
            day,
            icmp_buckets,
            syn_proxies,
            scenario_hosts,
        }
    }

    /// An empty placeholder used while the real state is lifted out of
    /// the model for a split borrow (see `Network for InternetModel`).
    pub(crate) fn detached() -> Self {
        DayState {
            day: 0,
            icmp_buckets: Vec::new(),
            syn_proxies: Vec::new(),
            scenario_hosts: Arc::default(),
        }
    }
}

/// What the engine decides about one destination on one day, before
/// any frame to it is answered: its entry in the fused destination
/// table, the forwarding path length and who answers. Made by
/// [`expanse_netsim::SnapshotNetwork::decide`] and read by
/// [`expanse_netsim::SnapshotNetwork::inject_decided`], which decides
/// afresh for a frame whose destination or day is not this one's, and by
/// [`expanse_netsim::SnapshotNetwork::reach`].
///
/// It is valid for the model it was made on as long as that model is
/// not changed through `&mut` other than by `set_day` (which the day
/// check covers); snapshots borrow the model, so a caller that keeps
/// decisions beside its snapshots cannot break this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    dst: Ipv6Addr,
    /// The fused-table entry covering `dst`, or [`NONE`].
    dest: u32,
    responder: Responder,
    day: u16,
    /// Hops to the destination, with an origin missing from the roster
    /// counted as [`AsCategory::Enterprise`]; 0 for unrouted space.
    path_len: u8,
}

// The battery keeps one decision per send slot.
const _: () = assert!(std::mem::size_of::<Decision>() <= 32);

/// The fused destination table's answer for one address, spelled out:
/// each prefix set's part of what a [`Decision`] reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Destination {
    /// The covering announcement, and its origin's roster category
    /// (`None` for an origin missing from the roster).
    pub route: Option<(Prefix, Asn, Option<AsCategory>)>,
    /// The alias region serving the address, carve-outs applied.
    pub alias: Option<(Prefix, crate::alias::AliasRegion)>,
    /// Is the address under a lossy prefix?
    pub lossy: bool,
    /// The prefixes of the ICMP buckets covering it, in day-state
    /// order: the rate-limited parent, then the scenario's throttled
    /// routers.
    pub icmp_buckets: Vec<Prefix>,
    /// The first SYN proxy covering it, in day-state order.
    pub syn_proxy: Option<Prefix>,
}

/// One probe frame as the engine handles it: when it arrived, its
/// header and its destination's entry and decision, and its bytes as
/// received.
struct Probe<'a> {
    now: Time,
    hdr: Ipv6Header,
    dest: &'a Dest,
    decision: &'a Decision,
    frame: &'a [u8],
}

impl Probe<'_> {
    /// The hop limit a reply arrives with: machine initial TTL minus the
    /// return path length.
    fn observed_ttl(&self, ittl: u8) -> u8 {
        ittl.saturating_sub(self.decision.path_len)
    }
}

/// What an ICMPv6 error quotes of the frame that caused it: the IPv6
/// header and the leading payload bytes, as received.
fn invoking_quote(frame: &[u8]) -> &[u8] {
    &frame[..frame.len().min(88)]
}

/// The transport part of one reply, borrowing what it echoes from the
/// probe; [`InternetModel::reply`] writes it, framed, into the caller's
/// delivery buffer.
enum Body<'a> {
    /// An ICMPv6 message.
    Icmp(Icmpv6Message<&'a [u8]>),
    /// A TCP segment.
    Tcp(TcpView<'a>),
    /// A DNS response from port 53 to `dst_port`, answering `query`.
    Dns { dst_port: u16, query: &'a [u8] },
    /// A QUIC version negotiation from port 443 to `dst_port`, answering
    /// the client Initial `initial`.
    VersionNegotiation {
        dst_port: u16,
        initial: quic::QuicView<'a>,
    },
}

impl Body<'_> {
    /// Append the whole datagram from `src` to `dst`; fails (and then
    /// must be dropped) only when a DNS query cannot be answered.
    fn emit(
        &self,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        hop_limit: u8,
        out: &mut Vec<u8>,
    ) -> Result<(), PacketError> {
        match self {
            Body::Icmp(m) => Datagram::append_with(out, src, dst, proto::ICMPV6, hop_limit, |b| {
                m.emit_into(src, dst, b);
                Ok(())
            }),
            Body::Tcp(s) => Datagram::append_with(out, src, dst, proto::TCP, hop_limit, |b| {
                s.emit_into(src, dst, b);
                Ok(())
            }),
            Body::Dns { dst_port, query } => {
                Datagram::append_with(out, src, dst, proto::UDP, hop_limit, |b| {
                    udp::emit_with(53, *dst_port, src, dst, b, |b| {
                        dns::build_response_into(query, 0, 1, b)
                    })
                })
            }
            Body::VersionNegotiation { dst_port, initial } => {
                Datagram::append_with(out, src, dst, proto::UDP, hop_limit, |b| {
                    udp::emit_with(443, *dst_port, src, dst, b, |b| {
                        let versions = [1, 0x6b33_43cf];
                        quic::version_negotiation_into(initial.scid, initial.dcid, &versions, b);
                        Ok(())
                    })
                })
            }
        }
    }
}

/// Which responder answers a destination address.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Responder {
    Alias {
        machine: MachineId,
        protos: ProtoSet,
    },
    Host {
        machine: MachineId,
        protos: ProtoSet,
        kind: HostKind,
    },
    Nobody,
}

impl Responder {
    /// The answering machine, its protocols and, for a host, its kind.
    fn parts(self) -> Option<(MachineId, ProtoSet, Option<HostKind>)> {
        match self {
            Responder::Alias { machine, protos } => Some((machine, protos, None)),
            Responder::Host {
                machine,
                protos,
                kind,
            } => Some((machine, protos, Some(kind))),
            Responder::Nobody => None,
        }
    }
}

impl InternetModel {
    /// The prefixes of the day state's ICMP buckets, by slot: the
    /// rate-limited parent (§5.1 case 4), then the scenario's throttled
    /// last-hop routers.
    pub(crate) fn icmp_bucket_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        std::iter::once(self.population.special.rate_limit_parent)
            .chain(self.scenario.throttled.iter().copied())
    }

    /// Absolute nanoseconds for timestamp counters: day offset + intra-day
    /// virtual time.
    fn abs_ns(&self, day: u16, now: Time) -> u64 {
        u64::from(day) * churn::DAY_SECS * 1_000_000_000 + now.0
    }

    /// Path latency to a destination: keyed per /32, 8–120 ms round trip,
    /// plus per-packet jitter.
    fn rtt(&self, dst: Ipv6Addr, key: u64) -> Duration {
        let net = addr_to_u128(dst) >> 96;
        let base_ms = 8 + splitmix64(net as u64 ^ self.config.seed) % 112;
        let jitter_us = splitmix64(key) % 8_000;
        Duration::from_micros(base_ms * 1000 + jitter_us)
    }

    /// Forward+reverse loss decision for a (dst, protocol, day) key. The
    /// key deliberately ignores retransmission attempts: a same-day retry
    /// of the same probe meets the same fate, which is why the paper
    /// merges across *protocols* and *days* instead (§5.2).
    fn lost(&self, day: u16, p: &Probe<'_>, proto_tag: u8, extra: u64) -> bool {
        let dst = p.hdr.dst;
        let loss = if p.dest.lossy {
            LOSSY_PREFIX_LOSS
        } else {
            BASE_LOSS
        };
        let key = splitmix64(
            (addr_to_u128(dst) as u64)
                ^ (addr_to_u128(dst) >> 64) as u64
                ^ (u64::from(proto_tag) << 56)
                ^ (u64::from(day) << 40)
                ^ extra,
        );
        expanse_netsim::KeyedLoss::new(self.config.seed ^ 0x10c5, loss).drops(key)
    }

    /// Resolve who answers `dst` (covered by `dest`) at probe-day
    /// granularity.
    fn resolve(&self, ds: &DayState, dst: Ipv6Addr, dest: &Dest) -> Responder {
        if let Some((_, region)) = self.dests.alias(dest) {
            return Responder::Alias {
                machine: region.machine,
                protos: region.protos,
            };
        }
        if let Some(h) = self.population.hosts.get(dst) {
            if h.online(ds.day) {
                return Responder::Host {
                    machine: h.machine,
                    protos: h.protos,
                    kind: h.kind,
                };
            }
        }
        // Scenario layer: the day's rotation-epoch hosts and temporary
        // privacy addresses (empty table when the scenario is disabled).
        if let Some((machine, protos, kind)) = ds.scenario_hosts.get(&addr_to_u128(dst)) {
            return Responder::Host {
                machine: *machine,
                protos: *protos,
                kind: *kind,
            };
        }
        Responder::Nobody
    }

    /// Everything about `dst` on `ds`'s day that does not depend on a
    /// frame: one fused-table search, the path length and the responder.
    pub(crate) fn decide_in(&self, ds: &DayState, dst: Ipv6Addr) -> Decision {
        let at = self.dests.find(dst);
        let dest = self.dests.get(at);
        // Unrouted space is never answered: nothing more to decide.
        let (path_len, responder) = if dest.route == NONE {
            (0, Responder::Nobody)
        } else {
            let category = dest.category.unwrap_or(AsCategory::Enterprise);
            (
                self.paths.path_len(dst, category),
                self.resolve(ds, dst, dest),
            )
        };
        Decision {
            dst,
            dest: at,
            responder,
            day: ds.day,
            path_len,
        }
    }

    /// What the fused destination table holds for `dst`, part by part.
    pub fn destination(&self, dst: Ipv6Addr) -> Destination {
        let d = self.dests.lookup(dst);
        let buckets: Vec<Prefix> = self.icmp_bucket_prefixes().collect();
        Destination {
            route: self
                .announced(d)
                .map(|(prefix, asn)| (prefix, asn, d.category)),
            alias: self.dests.alias(d).copied(),
            lossy: d.lossy,
            icmp_buckets: self
                .dests
                .buckets(d)
                .iter()
                .map(|&slot| buckets[slot as usize])
                .collect(),
            syn_proxy: self
                .population
                .special
                .syn_proxy
                .get(d.proxy as usize)
                .copied(),
        }
    }

    /// Does `protos` serve `proto` *today* (QUIC flapping applied)?
    fn serves_today(&self, day: u16, dst: Ipv6Addr, protos: ProtoSet, proto: Protocol) -> bool {
        if !protos.contains(proto) {
            return false;
        }
        if proto == Protocol::Udp443 {
            // QUIC-flaky prefixes: service comes and goes by day (§6.3).
            let net48 = addr_to_u128(dst) >> 80;
            if splitmix64(net48 as u64 ^ self.config.seed ^ 0xf1a9) % 100 < 35 {
                return churn::quic_up(net48 as u64 ^ self.config.seed, day, QUIC_FLAP_UP_RATE);
            }
        }
        true
    }

    /// Sub-day gate for client hosts (privacy-extension uptime sessions).
    fn client_gate(&self, day: u16, dst: Ipv6Addr, kind: HostKind, now: Time) -> bool {
        if kind != HostKind::Client {
            return true;
        }
        let salt = splitmix64(addr_to_u128(dst) as u64 ^ self.config.seed);
        churn::client_online(salt, day, now.0 / 1_000_000_000)
    }

    /// Append the reply to `probe` sent from `src` with hop limit
    /// `hop_limit` to `out`, arriving one round trip after `now`.
    fn reply(
        &self,
        out: &mut Deliveries,
        probe: &Probe<'_>,
        src: Ipv6Addr,
        hop_limit: u8,
        body: Body<'_>,
    ) {
        let (now, dst) = (probe.now, probe.hdr.dst);
        let key = splitmix64(addr_to_u128(dst) as u64 ^ now.0);
        let at = now + self.rtt(dst, key);
        // An unanswerable DNS query is no reply.
        let _ = out.try_push_with(at, |buf| body.emit(src, probe.hdr.src, hop_limit, buf));
    }

    fn handle_icmp(
        &self,
        ds: &mut DayState,
        p: &Probe<'_>,
        msg: Icmpv6Message<&[u8]>,
        out: &mut Deliveries,
    ) {
        let now = p.now;
        // Only echo requests are answered.
        let Icmpv6Message::EchoRequest {
            ident,
            seq,
            payload,
        } = msg
        else {
            return;
        };
        let dst = p.hdr.dst;
        // ICMP rate limiting (§5.1 case 4): every covering bucket, in
        // slot order, until one is out of tokens.
        for &slot in self.dests.buckets(p.dest) {
            if !ds.icmp_buckets[slot as usize].try_consume(now) {
                return;
            }
        }
        let Some((machine, protos, kind)) = p.decision.responder.parts() else {
            return;
        };
        if !self.serves_today(ds.day, dst, protos, Protocol::Icmp) {
            return;
        }
        if let Some(k) = kind {
            if !self.client_gate(ds.day, dst, k, now) {
                return;
            }
        }
        if self.lost(ds.day, p, 0, u64::from(ident) << 16 | u64::from(seq)) {
            return;
        }
        let m = &self.population.machines[machine.0 as usize];
        let flavor = splitmix64(addr_to_u128(dst) as u64 ^ now.0 ^ 0x1c1c);
        let ttl = p.observed_ttl(m.reply_ittl(flavor));
        let echo = Icmpv6Message::EchoReply {
            ident,
            seq,
            payload,
        };
        self.reply(out, p, dst, ttl, Body::Icmp(echo));
    }

    fn handle_tcp(&self, ds: &mut DayState, p: &Probe<'_>, seg: TcpView<'_>, out: &mut Deliveries) {
        let (now, hdr) = (p.now, &p.hdr);
        if !seg.flags.contains(TcpFlags::SYN) || seg.flags.contains(TcpFlags::ACK) {
            // Only SYN probes are modelled; ACK/RST probes get nothing.
            return;
        }
        let dst = hdr.dst;
        let proto = match seg.dst_port {
            80 => Protocol::Tcp80,
            443 => Protocol::Tcp443,
            _ => Protocol::Tcp80, // treated as generic TCP below
        };
        let tuple_key = splitmix64(
            addr_to_u128(hdr.src) as u64
                ^ (addr_to_u128(hdr.src) >> 64) as u64
                ^ addr_to_u128(dst) as u64
                ^ (addr_to_u128(dst) >> 64) as u64,
        );
        // SYN proxy (§5.1's /80 case): the first covering proxy counts
        // SYNs to its prefix; when hot, answers everything.
        if let Some(proxy) = ds.syn_proxies.get_mut(p.dest.proxy as usize) {
            if proxy.on_syn(now) {
                let m = &self.population.machines[0];
                let reply = m.syn_ack(&seg, self.abs_ns(ds.day, now), tuple_key, 0);
                let ttl = p.observed_ttl(64);
                self.reply(out, p, dst, ttl, Body::Tcp(reply.segment()));
            }
            return;
        }
        let Some((machine, protos, kind)) = p.decision.responder.parts() else {
            return;
        };
        if self.lost(ds.day, p, 1 + (seg.dst_port % 7) as u8, u64::from(seg.seq)) {
            return;
        }
        let serves = matches!(seg.dst_port, 80 | 443)
            && self.serves_today(ds.day, dst, protos, proto)
            && kind.is_none_or(|k| self.client_gate(ds.day, dst, k, now));
        let m = &self.population.machines[machine.0 as usize];
        let flavor = splitmix64(addr_to_u128(dst) as u64 ^ now.0 ^ u64::from(seg.dst_port));
        if serves {
            let reply = m.syn_ack(&seg, self.abs_ns(ds.day, now), tuple_key, flavor);
            let ttl = p.observed_ttl(m.reply_ittl(flavor));
            self.reply(out, p, dst, ttl, Body::Tcp(reply.segment()));
        } else if kind.is_some() {
            // Live host, closed port: RST-ACK.
            let rst = TcpView {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: 0,
                ack: seg.seq.wrapping_add(1),
                flags: TcpFlags::RST_ACK,
                window: 0,
                urgent: 0,
                options: &[],
                payload: &[],
            };
            let ttl = p.observed_ttl(m.reply_ittl(flavor));
            self.reply(out, p, dst, ttl, Body::Tcp(rst));
        }
    }

    fn handle_udp(
        &self,
        ds: &DayState,
        p: &Probe<'_>,
        u: UdpDatagram<&[u8]>,
        out: &mut Deliveries,
    ) {
        let now = p.now;
        let dst = p.hdr.dst;
        let Some((machine, protos, kind)) = p.decision.responder.parts() else {
            return;
        };
        if self.lost(ds.day, p, 3 + (u.dst_port % 5) as u8, u64::from(u.src_port)) {
            return;
        }
        if kind.is_some_and(|k| !self.client_gate(ds.day, dst, k, now)) {
            return;
        }
        let m = &self.population.machines[machine.0 as usize];
        let flavor = splitmix64(addr_to_u128(dst) as u64 ^ 0xd4d4);
        let ttl = p.observed_ttl(m.reply_ittl(flavor));
        let body = match u.dst_port {
            53 if self.serves_today(ds.day, dst, protos, Protocol::Udp53) => Body::Dns {
                dst_port: u.src_port,
                query: u.payload,
            },
            443 if self.serves_today(ds.day, dst, protos, Protocol::Udp443) => {
                let Ok(initial) = quic::QuicView::parse(u.payload) else {
                    return;
                };
                Body::VersionNegotiation {
                    dst_port: u.src_port,
                    initial,
                }
            }
            // Live host, closed UDP port: ICMPv6 port unreachable,
            // quoting the header + leading payload bytes as received.
            _ if kind.is_some() => Body::Icmp(Icmpv6Message::DestUnreachable {
                code: icmpv6::unreach_code::PORT_UNREACHABLE,
                invoking: invoking_quote(p.frame),
            }),
            _ => return,
        };
        self.reply(out, p, dst, ttl, body);
    }

    /// Time-exceeded handling for traceroute (hop_limit shorter than the
    /// path). Returns whether the probe burned out in transit (answered
    /// or not); `false` means it reaches its destination.
    ///
    /// The hop model reads an origin missing from the roster as an
    /// opaque path (nothing burns out), where the reply TTL falls back
    /// to `Enterprise`.
    fn handle_hops(&self, ds: &DayState, p: &Probe<'_>, out: &mut Deliveries) -> bool {
        let hdr = &p.hdr;
        let dst = hdr.dst;
        let Some(cat) = p.dest.category else {
            return false;
        };
        if hdr.hop_limit >= p.decision.path_len {
            return false; // reaches the destination; caller continues
        }
        let hop = hdr.hop_limit.max(1);
        // Per-hop responsiveness: some routers never answer, and hop
        // replies are themselves lossy.
        let hop_key = splitmix64(
            (addr_to_u128(dst) >> 80) as u64 ^ u64::from(hop) ^ self.config.seed ^ 0x40b5,
        );
        if hop_key % 100 < 12 {
            return true; // silent router
        }
        if self.lost(ds.day, p, 0x70 ^ hop, u64::from(hop)) {
            return true;
        }
        let Some((route, _)) = self.announced(p.dest) else {
            return true;
        };
        let hop_addr = self.paths.hop_addr(dst, route, cat, hop);
        let msg = Icmpv6Message::TimeExceeded {
            code: 0,
            invoking: invoking_quote(p.frame),
        };
        let ttl = 255u8.saturating_sub(hop);
        self.reply(out, p, hop_addr, ttl, Body::Icmp(msg));
        true
    }
}

impl InternetModel {
    /// The full engine, against an explicit day state, appending every
    /// reply to `out`. This is the seam the parallel scan fan-out builds
    /// on: the model stays shared and immutable while every probe stream
    /// owns its day state. `hint` is a decision the caller kept for the
    /// frame's destination; it is used only if it was made for that
    /// destination on this day state's day.
    pub(crate) fn inject_with(
        &self,
        ds: &mut DayState,
        hint: Option<&Decision>,
        now: Time,
        frame: &[u8],
        out: &mut Deliveries,
    ) {
        let Ok((hdr, transport)) = Datagram::parse_transport(frame) else {
            return;
        };
        let fresh;
        let decision = match hint {
            Some(d) if d.dst == hdr.dst && d.day == ds.day => d,
            _ => {
                fresh = self.decide_in(ds, hdr.dst);
                &fresh
            }
        };
        let dest = self.dests.get(decision.dest);
        // Unrouted space: silence (border routers dropping martians).
        if dest.route == NONE {
            return;
        }
        let p = Probe {
            now,
            hdr,
            dest,
            decision,
            frame,
        };
        // Hop-limited probes burn out in transit.
        if self.handle_hops(ds, &p, out) {
            return;
        }
        match transport {
            TransportView::Icmpv6(msg) => self.handle_icmp(ds, &p, msg, out),
            TransportView::Tcp(seg) => self.handle_tcp(ds, &p, seg, out),
            TransportView::Udp(u) => self.handle_udp(ds, &p, u, out),
            TransportView::Other(..) => {}
        }
    }
}

impl Network for InternetModel {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        // Split-borrow dance: lift the day state out so the engine can
        // borrow the model immutably alongside it.
        let mut ds = std::mem::replace(&mut self.day_state, DayState::detached());
        self.inject_with(&mut ds, None, now, frame, out);
        self.day_state = ds;
    }
}

/// A scan-time view of an [`InternetModel`]: the shared immutable world
/// plus this probe stream's own middlebox state. Constructing one costs
/// a few small `Vec` clones, so parallel fan-outs can take one per job.
#[derive(Debug)]
pub struct ScanView<'a> {
    model: &'a InternetModel,
    day: DayState,
}

impl Network for ScanView<'_> {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        self.model.inject_with(&mut self.day, None, now, frame, out);
    }
}

impl expanse_netsim::SnapshotNetwork for InternetModel {
    type Snapshot<'a> = ScanView<'a>;
    type Decision = Decision;

    fn snapshot(&self) -> ScanView<'_> {
        ScanView {
            model: self,
            day: self.day_state.clone(),
        }
    }

    fn decide(&self, dst: Ipv6Addr) -> Decision {
        self.decide_in(&self.day_state, dst)
    }

    fn inject_decided(
        snap: &mut ScanView<'_>,
        decision: &Decision,
        now: Time,
        frame: &[u8],
        out: &mut Deliveries,
    ) {
        snap.model
            .inject_with(&mut snap.day, Some(decision), now, frame, out);
    }

    /// The buckets and proxies are all a [`ScanView`] owns, and the
    /// engine consults each only for destinations under its prefix —
    /// everything else is answered from the shared immutable world. Of
    /// that, a destination is silent when it is unrouted, or when nobody
    /// answers it and no router on the way can: its origin is off the
    /// roster (an opaque path) or the frame outlives the path.
    fn reach(&self, dst: Ipv6Addr, decision: &Decision, hop_limit: u8) -> Reach {
        if decision.dst != dst || decision.day != self.day_state.day {
            return Reach::Stateful;
        }
        let dest = self.dests.get(decision.dest);
        if dest.route == NONE {
            Reach::Silent
        } else if dest.stateful() {
            Reach::Stateful
        } else if decision.responder == Responder::Nobody
            && (dest.category.is_none() || hop_limit >= decision.path_len)
        {
            Reach::Silent
        } else {
            Reach::Stateless
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetModel, ModelConfig};
    use expanse_packet::TcpOptionBlock;

    fn model() -> InternetModel {
        InternetModel::build(ModelConfig::tiny(11))
    }

    fn vantage() -> Ipv6Addr {
        "2001:db8:ffff::1".parse().unwrap()
    }

    fn echo(dst: Ipv6Addr, hop: u8) -> Vec<u8> {
        let mut frame = Vec::new();
        Datagram::emit_with(&mut frame, vantage(), dst, proto::ICMPV6, hop, |out| {
            let request = icmpv6::types::ECHO_REQUEST;
            icmpv6::emit_echo(request, 0x42, 7, &[0xab; 8], vantage(), dst, out)
        });
        frame
    }

    /// Every frame `net` sends back for `frame` at `now`, in a fresh
    /// buffer.
    fn inject(net: &mut impl Network, now: Time, frame: &[u8]) -> Deliveries {
        let mut out = Deliveries::new();
        net.inject_into(now, frame, &mut out);
        out
    }

    /// The frames of `d` with their arrival times, copied out to compare.
    fn frames(d: &Deliveries) -> Vec<(Time, Vec<u8>)> {
        d.iter().map(|(at, frame)| (at, frame.to_vec())).collect()
    }

    #[test]
    fn live_host_answers_echo() {
        let mut m = model();
        // Candidate live ICMP hosts (non-client, not aliased), in a
        // deterministic order. Individual hosts can sit behind lossy
        // paths, so try several candidates across several days.
        let mut keys: Vec<Ipv6Addr> = m
            .population
            .hosts
            .iter()
            .filter(|(a, h)| {
                h.protos.contains(Protocol::Icmp)
                    && h.online(0)
                    && h.kind != HostKind::Client
                    && !m.truth_aliased(*a)
            })
            .map(|(a, _)| a)
            .collect();
        keys.sort_unstable();
        let mut got = false;
        'outer: for addr in keys.into_iter().take(8) {
            for day in 0..5 {
                m.set_day(day);
                let out = inject(
                    &mut m,
                    Time::from_millis(u64::from(day) * 10),
                    &echo(addr, 64),
                );
                if let Some((at, frame)) = out.get(0) {
                    let (h, t) = Datagram::parse_transport(frame).unwrap();
                    assert_eq!(h.src, addr);
                    assert_eq!(h.dst, vantage());
                    match t {
                        TransportView::Icmpv6(Icmpv6Message::EchoReply { ident, seq, .. }) => {
                            assert_eq!((ident, seq), (0x42, 7));
                        }
                        other => panic!("wrong reply {other:?}"),
                    }
                    assert!(at > Time::ZERO);
                    got = true;
                    break 'outer;
                }
            }
        }
        assert!(got, "a live host should answer within 5 days of probing");
    }

    #[test]
    fn uncategorised_origin_gets_enterprise_ttl_and_an_opaque_path() {
        let mut m = model();
        // Live ICMP servers in eyeball networks: there the known category
        // (one CPE hop deeper) and the fallback give different TTLs.
        let mut keys: Vec<Ipv6Addr> = m
            .population
            .hosts
            .iter()
            .filter(|&(a, h)| {
                h.protos.contains(Protocol::Icmp)
                    && h.online(0)
                    && h.kind != HostKind::Client
                    && !m.truth_aliased(a)
                    && m.route(a).and_then(|(_, asn)| m.as_category(asn))
                        == Some(AsCategory::IspEyeball)
            })
            .map(|(a, _)| a)
            .collect();
        keys.sort_unstable();
        let now = Time::from_millis(3);
        let reply_ttl = |m: &mut InternetModel, addr: Ipv6Addr, hop: u8| {
            let out = inject(m, now, &echo(addr, hop));
            let (_, frame) = out.get(0)?;
            let (h, t) = Datagram::parse_transport(frame).unwrap();
            assert!(
                matches!(t, TransportView::Icmpv6(Icmpv6Message::EchoReply { .. })),
                "hop limit {hop}: {t:?}"
            );
            Some(h.hop_limit)
        };
        // Loss is keyed per (address, day): take the first host that answers.
        let (addr, known) = keys
            .into_iter()
            .find_map(|a| Some((a, reply_ttl(&mut m, a, 64)?)))
            .expect("an eyeball server answers on day 0");

        // Re-announce the table from an AS that is not on the roster.
        let ghost = crate::ids::Asn(1);
        assert_eq!(m.as_category(ghost), None);
        m.announcements = m.announcements.iter().map(|(p, _)| (*p, ghost)).collect();
        m.dests = crate::dest::DestTable::build(&m);

        let enterprise = m.paths.path_len(addr, AsCategory::Enterprise);
        assert_eq!(
            m.paths.path_len(addr, AsCategory::IspEyeball),
            enterprise + 1
        );
        let fallback = reply_ttl(&mut m, addr, 64).expect("same probe, same fate");
        assert_eq!(fallback, known + 1, "Enterprise path is one hop shorter");
        let machine = m
            .population
            .hosts
            .get(addr)
            .expect("chosen from hosts")
            .machine;
        let flavor = splitmix64(addr_to_u128(addr) as u64 ^ now.0 ^ 0x1c1c);
        let ittl = m.population.machines[machine.0 as usize].reply_ittl(flavor);
        assert_eq!(fallback, ittl - enterprise);
        // With no category the hop model is opaque: even hop limit 1
        // reaches the destination instead of burning out in transit.
        assert_eq!(reply_ttl(&mut m, addr, 1), Some(fallback));
    }

    #[test]
    fn unrouted_space_is_silent() {
        let mut m = model();
        let out = inject(&mut m, Time::ZERO, &echo("3fff::1".parse().unwrap(), 64));
        assert!(out.is_empty());
    }

    #[test]
    fn aliased_region_answers_any_address() {
        let mut m = model();
        let p48 = m.population.special.cdn_hook_48s[0];
        let mut answered = 0;
        for i in 0..20u64 {
            let addr = expanse_addr::keyed_random_addr(p48, i);
            if !inject(&mut m, Time::from_millis(i), &echo(addr, 64)).is_empty() {
                answered += 1;
            }
        }
        assert!(answered >= 17, "aliased /48 answered {answered}/20");
    }

    #[test]
    fn low_hop_limit_triggers_time_exceeded() {
        let mut m = model();
        let addr = m.population.sites[0].addrs[0];
        let mut te = 0;
        for hop in 1..=3u8 {
            let out = inject(&mut m, Time::from_millis(u64::from(hop)), &echo(addr, hop));
            for (_, frame) in out.iter() {
                let (h, t) = Datagram::parse_transport(frame).unwrap();
                if let TransportView::Icmpv6(Icmpv6Message::TimeExceeded { .. }) = t {
                    te += 1;
                    assert_ne!(h.src, addr, "TE must come from a router, not the target");
                }
            }
        }
        assert!(te >= 1, "expected at least one TimeExceeded");
    }

    #[test]
    fn ghost_addresses_silent() {
        let mut m = model();
        // Ghost = pool address that is not a host and not aliased.
        let ghost = m
            .population
            .sites
            .iter()
            .flat_map(|s| s.addrs.iter())
            .find(|a| !m.population.hosts.contains(**a) && !m.truth_aliased(**a))
            .copied()
            .expect("a ghost exists");
        for day in 0..3 {
            m.set_day(day);
            assert!(inject(&mut m, Time::ZERO, &echo(ghost, 64)).is_empty());
        }
    }

    #[test]
    fn dns_host_answers_udp53() {
        let mut m = model();
        let addr = m
            .population
            .hosts
            .iter()
            .filter(|(a, h)| {
                h.protos.contains(Protocol::Udp53) && h.online(0) && !m.truth_aliased(*a)
            })
            .map(|(a, _)| a)
            .next()
            .expect("dns host");
        let mut frame = Vec::new();
        Datagram::emit_with(&mut frame, vantage(), addr, proto::UDP, 64, |out| {
            udp::emit_with(40000, 53, vantage(), addr, out, |out| {
                dns::emit_query(0x1234, "example.com", dns::qtype::AAAA, true, out)
            })
        });
        let mut got = false;
        for day in 0..5 {
            m.set_day(day);
            let out = inject(&mut m, Time::from_millis(1), &frame);
            if let Some((_, reply)) = out.get(0) {
                let (_, t) = Datagram::parse_transport(reply).unwrap();
                match t {
                    TransportView::Udp(r) => {
                        assert_eq!(r.src_port, 53);
                        assert_eq!(r.dst_port, 40000);
                        let h = dns::DnsHeader::parse(r.payload).unwrap();
                        assert!(h.qr);
                        assert_eq!(h.id, 0x1234);
                    }
                    other => panic!("wrong reply {other:?}"),
                }
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn syn_probe_to_alias_gets_syn_ack_with_options() {
        let mut m = model();
        let p48 = m.population.special.cdn_hook_48s[0];
        let addr = expanse_addr::keyed_random_addr(p48, 9);
        let options = TcpOptionBlock::fingerprint(77);
        let seg = TcpView::syn(54321, 80, 1000, options.as_bytes());
        let mut frame = Vec::new();
        Datagram::emit_with(&mut frame, vantage(), addr, proto::TCP, 64, |out| {
            seg.emit_into(vantage(), addr, out)
        });
        let mut got = false;
        for day in 0..5 {
            m.set_day(day);
            if let Some((_, reply)) = inject(&mut m, Time::from_millis(2), &frame).get(0) {
                let (_, t) = Datagram::parse_transport(reply).unwrap();
                match t {
                    TransportView::Tcp(r) => {
                        assert!(r.flags.contains(TcpFlags::SYN_ACK));
                        assert_eq!(r.ack, 1001);
                        assert!(!r.options.is_empty());
                    }
                    other => panic!("wrong reply {other:?}"),
                }
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn carved_branch_is_silent_other_branches_answer() {
        let mut m = model();
        let p116 = m.population.special.carve116;
        let carved = expanse_addr::keyed_random_addr(p116.subprefix(4, 0), 3);
        for day in 0..4 {
            m.set_day(day);
            assert!(
                inject(&mut m, Time::ZERO, &echo(carved, 64)).is_empty(),
                "carved branch answered on day {day}"
            );
        }
        let mut answered = 0;
        for b in 1..16u128 {
            let a = expanse_addr::keyed_random_addr(p116.subprefix(4, b), 3);
            if !inject(&mut m, Time::from_millis(b as u64), &echo(a, 64)).is_empty() {
                answered += 1;
            }
        }
        assert!(answered >= 12, "only {answered}/15 branches answered");
    }

    #[test]
    fn rate_limited_prefix_partially_answers() {
        let mut m = model();
        let parent = m.population.special.rate_limit_parent;
        // Fire 16 ICMP probes quickly: only ~4-10 tokens are available.
        let mut answered = 0;
        for i in 0..16u128 {
            let a = expanse_addr::keyed_random_addr(parent.subprefix(4, i % 16), i as u64);
            if !inject(&mut m, Time::from_millis(i as u64), &echo(a, 64)).is_empty() {
                answered += 1;
            }
        }
        assert!(
            (2..=11).contains(&answered),
            "rate limiter should clip responses, got {answered}/16"
        );
    }

    #[test]
    fn scenario_rotation_hosts_answer_then_ghost() {
        let mut m = InternetModel::build(ModelConfig::adversarial(11));
        let rp = m.scenario.rotating[0].clone();
        let e0 = m.scenario.rotation_addrs(&rp, 0);
        // Day 0 (epoch 0): at least one rotation host answers echo.
        m.set_day(0);
        let answered = e0
            .iter()
            .enumerate()
            .filter(|(i, a)| {
                !inject(&mut m, Time::from_millis(*i as u64 * 50), &echo(**a, 64)).is_empty()
            })
            .count();
        assert!(answered >= 1, "epoch-0 rotation hosts silent on day 0");
        // A day inside epoch 1: every epoch-0 address is a ghost.
        let ghost_day = m.scenario.rotation_period;
        m.set_day(ghost_day);
        for (i, a) in e0.iter().enumerate() {
            assert!(
                inject(&mut m, Time::from_millis(i as u64 * 50), &echo(*a, 64)).is_empty(),
                "ghost {a} answered on day {ghost_day}"
            );
        }
    }

    #[test]
    fn scenario_privacy_addr_answers_today_only() {
        let mut m = InternetModel::build(ModelConfig::adversarial(11));
        // Loss is per-(addr, day), so scan several privacy hosts.
        let hosts: Vec<_> = m.scenario.privacy.iter().take(8).cloned().collect();
        m.set_day(2);
        let answered = hosts
            .iter()
            .enumerate()
            .filter(|(i, ph)| {
                let a = m.scenario.privacy_addr(ph, 2);
                !inject(&mut m, Time::from_millis(*i as u64 * 50), &echo(a, 64)).is_empty()
            })
            .count();
        assert!(answered >= 1, "no day-2 privacy address answered");
        // Yesterday's temporaries are gone on day 3...
        m.set_day(3);
        for (i, ph) in hosts.iter().enumerate() {
            let stale = m.scenario.privacy_addr(ph, 2);
            assert!(
                inject(&mut m, Time::from_millis(i as u64 * 50), &echo(stale, 64)).is_empty(),
                "stale privacy address {stale} answered"
            );
        }
        // ...while at least one stable EUI-64 address still serves.
        let stable_up = hosts
            .iter()
            .enumerate()
            .filter(|(i, ph)| {
                !inject(
                    &mut m,
                    Time::from_millis(400 + *i as u64 * 50),
                    &echo(ph.stable, 64),
                )
                .is_empty()
            })
            .count();
        assert!(stable_up >= 1, "no stable privacy-host address answered");
    }

    #[test]
    fn scenario_throttled_routers_clip_probe_bursts() {
        let mut m = InternetModel::build(ModelConfig::adversarial(11));
        m.set_day(1);
        let p64 = m.scenario.throttled[0];
        // 16 rapid probes against the 4 router addresses: the /64's
        // token bucket (capacity 6, trickle refill) must clip replies.
        let answered = (0..16u128)
            .filter(|i| {
                let a = p64.addr_at(1 + (i % 4));
                !inject(&mut m, Time::from_millis(*i as u64), &echo(a, 64)).is_empty()
            })
            .count();
        assert!(
            (1..=6).contains(&answered),
            "throttle should clip burst, got {answered}/16"
        );
    }

    #[test]
    fn scenario_fabric_answers_any_address() {
        let mut m = InternetModel::build(ModelConfig::adversarial(11));
        let f = m.scenario.fabrics[0];
        let answered = (0..20u64)
            .filter(|i| {
                let a = expanse_addr::keyed_random_addr(f, *i);
                !inject(&mut m, Time::from_millis(*i), &echo(a, 64)).is_empty()
            })
            .count();
        assert!(answered >= 17, "alias fabric answered {answered}/20");
    }

    #[test]
    fn set_day_changes_rate_limit_budget() {
        let mut m = model();
        let parent = m.population.special.rate_limit_parent;
        let count_day = |m: &mut InternetModel, day: u16| {
            m.set_day(day);
            (0..16u128)
                .filter(|i| {
                    let a = expanse_addr::keyed_random_addr(parent.subprefix(4, i % 16), *i as u64);
                    !inject(m, Time::from_millis(*i as u64), &echo(a, 64)).is_empty()
                })
                .count()
        };
        let counts: Vec<usize> = (0..6).map(|d| count_day(&mut m, d)).collect();
        // Not all days answer the same branches/counts.
        assert!(
            counts
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "daily variation expected: {counts:?}"
        );
    }

    /// One adversarial world for every case of the `reach` properties:
    /// the model is not `Clone`, and a build per case would dominate.
    /// State left by earlier cases only widens what the property meets.
    #[expect(
        clippy::disallowed_methods,
        reason = "the test harness runs cases on several threads; they share the world in turn"
    )]
    fn shared_world() -> std::sync::MutexGuard<'static, InternetModel> {
        static WORLD: std::sync::OnceLock<std::sync::Mutex<InternetModel>> =
            std::sync::OnceLock::new();
        WORLD
            .get_or_init(|| {
                let mut m = InternetModel::build(ModelConfig::adversarial(11));
                m.set_day(2);
                std::sync::Mutex::new(m)
            })
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The prefixes whose buckets and proxies today's day state holds.
    fn middlebox_prefixes(m: &InternetModel) -> Vec<Prefix> {
        let special = &m.population.special;
        let mut v = vec![special.rate_limit_parent];
        v.extend(&special.syn_proxy);
        v.extend(&m.scenario.throttled);
        v
    }

    /// A destination of every kind the engine tells apart.
    fn pick_dst(m: &InternetModel, pick: u32) -> Ipv6Addr {
        let k = u64::from(pick >> 3);
        let nth = |n: usize| k as usize % n;
        let pop = &m.population;
        match pick % 8 {
            0 => pop
                .hosts
                .keys()
                .nth(nth(pop.hosts.len()))
                .expect("in range"),
            1 => pop.alias_pool[nth(pop.alias_pool.len())],
            2 => {
                let hooks = &pop.special.cdn_hook_48s;
                expanse_addr::keyed_random_addr(hooks[nth(hooks.len())], k)
            }
            3 => {
                let site = &pop.sites[nth(pop.sites.len())];
                site.addrs[nth(site.addrs.len())]
            }
            4 => expanse_addr::u128_to_addr((0x3fffu128 << 112) | u128::from(k)),
            5 => {
                let feed = m.scenario_feed(m.day_state.day);
                feed[nth(feed.len())]
            }
            6 => expanse_addr::keyed_random_addr(pop.special.partial96, k),
            _ => {
                let boxes = middlebox_prefixes(m);
                expanse_addr::keyed_random_addr(boxes[nth(boxes.len())], k)
            }
        }
    }

    /// The hop limit of [`probe`]'s frame for `key`.
    fn probe_hops(key: u32) -> u8 {
        if key.is_multiple_of(5) {
            1 + (key % 7) as u8
        } else {
            64
        }
    }

    /// An ICMPv6 echo, a TCP SYN or a UDP probe to `dst`; one in five
    /// hop-limited like a traceroute probe.
    fn probe(dst: Ipv6Addr, transport: u8, key: u32) -> Vec<u8> {
        let hop = probe_hops(key);
        let port = [80, 443, 53, 8080][(key >> 8) as usize % 4];
        let src_port = 32768 + (key >> 16) as u16 % 16384;
        let (src, mut frame) = (vantage(), Vec::new());
        match transport {
            0 => Datagram::emit_with(&mut frame, src, dst, proto::ICMPV6, hop, |out| {
                let request = icmpv6::types::ECHO_REQUEST;
                let (ident, seq) = (key as u16, (key >> 16) as u16);
                icmpv6::emit_echo(request, ident, seq, &[0xab; 8], src, dst, out)
            }),
            1 => {
                let options = TcpOptionBlock::fingerprint(key ^ 0x5a5a);
                let seg = TcpView::syn(src_port, port, key, options.as_bytes());
                Datagram::emit_with(&mut frame, src, dst, proto::TCP, hop, |out| {
                    seg.emit_into(src, dst, out)
                })
            }
            _ => Datagram::emit_with(&mut frame, src, dst, proto::UDP, hop, |out| {
                udp::emit_with(src_port, port, src, dst, out, |out| {
                    if port == 443 {
                        quic::initial_into(&key.to_be_bytes(), &[7; 8], out)
                    } else {
                        dns::emit_query(key as u16, "example.com", dns::qtype::AAAA, true, out)
                    }
                })
            }),
        }
        frame
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The `SnapshotNetwork::reach` contract for what it does not
        /// call stateful: a frame to such a destination gets the same
        /// deliveries from the model and from any snapshot, whatever
        /// state either is in, and changes neither.
        #[test]
        fn stateless_destinations_answer_alike_from_model_and_snapshots(
            picks in proptest::collection::vec(
                (proptest::any::<u32>(), 0u8..3, proptest::any::<u32>(), 0u64..20_000_000),
                1..64,
            ),
        ) {
            use expanse_netsim::SnapshotNetwork;
            let mut m = shared_world();
            let stateful = |m: &InternetModel, dst: Ipv6Addr, hop: u8| {
                m.reach(dst, &m.decide(dst), hop) == Reach::Stateful
            };
            for p in middlebox_prefixes(&m) {
                let dst = expanse_addr::keyed_random_addr(p, 3);
                proptest::prop_assert!(stateful(&m, dst, 64));
            }
            // Stateful traffic between two captures of the day state:
            // drain the buckets, trip the proxies.
            let early_day = m.day_state.clone();
            let clock = |us: u64| Time::from_micros(us);
            for (i, p) in middlebox_prefixes(&m).into_iter().enumerate() {
                for k in 0..14u32 {
                    let dst = expanse_addr::keyed_random_addr(p, u64::from(k));
                    inject(&mut *m, clock(picks[0].3 + u64::from(k)), &probe(dst, (i as u8 + k as u8) % 2, k | 1));
                }
            }
            let late_day = m.day_state.clone();
            proptest::prop_assert!(late_day != early_day, "the stateful traffic left no trace");

            let cleared: Vec<(Time, Vec<u8>)> = picks
                .iter()
                .map(|&(pick, transport, key, us)| (pick_dst(&m, pick), transport, key, us))
                .filter(|&(dst, _, key, _)| !stateful(&m, dst, probe_hops(key)))
                .map(|(dst, transport, key, us)| (clock(us), probe(dst, transport, key)))
                .collect();
            let from_model: Vec<_> =
                cleared.iter().map(|(at, f)| frames(&inject(&mut *m, *at, f))).collect();
            proptest::prop_assert_eq!(&m.day_state, &late_day);

            let mut early = ScanView { model: &m, day: early_day.clone() };
            let mut fresh = m.snapshot();
            // Snapshots may answer in any order.
            for ((at, f), want) in cleared.iter().zip(&from_model).rev() {
                proptest::prop_assert_eq!(&frames(&inject(&mut early, *at, f)), want);
                proptest::prop_assert_eq!(&frames(&inject(&mut fresh, *at, f)), want);
            }
            proptest::prop_assert_eq!(&early.day, &early_day);
            proptest::prop_assert_eq!(&fresh.day, &late_day);
        }

        /// The decision seam's contract: on a snapshot, a frame answered
        /// with the model's decision for its destination gets the
        /// deliveries `inject_into` gives it, byte for byte, and leaves
        /// the same day state — for every kind of destination, middlebox,
        /// unrouted and scenario ones and hop-limited frames included. A
        /// decision made for another destination or another day is
        /// ignored.
        #[test]
        fn decided_frames_answer_as_undecided_ones(
            picks in proptest::collection::vec(
                (proptest::any::<u32>(), 0u8..3, proptest::any::<u32>(), 0u64..20_000_000),
                1..64,
            ),
            misled_by in proptest::any::<u32>(),
        ) {
            use expanse_netsim::SnapshotNetwork;
            let m = shared_world();
            let other_day = DayState::new(&m, m.day_state.day + 1);
            let (mut plain, mut decided, mut misled) = (m.snapshot(), m.snapshot(), m.snapshot());
            let mut got = Deliveries::new();
            for (i, &(pick, transport, key, us)) in picks.iter().enumerate() {
                let dst = pick_dst(&m, pick);
                let (at, frame) = (Time::from_micros(us), probe(dst, transport, key));
                let want = frames(&inject(&mut plain, at, &frame));

                got.clear();
                InternetModel::inject_decided(&mut decided, &m.decide(dst), at, &frame, &mut got);
                proptest::prop_assert_eq!(&frames(&got), &want);

                let wrong = if i % 2 == 0 {
                    m.decide(pick_dst(&m, pick ^ misled_by))
                } else {
                    m.decide_in(&other_day, dst)
                };
                got.clear();
                InternetModel::inject_decided(&mut misled, &wrong, at, &frame, &mut got);
                proptest::prop_assert_eq!(&frames(&got), &want);
            }
            proptest::prop_assert_eq!(&decided.day, &plain.day);
            proptest::prop_assert_eq!(&misled.day, &plain.day);
        }

        /// The `SnapshotNetwork::reach` contract for silence: a frame to
        /// a destination its decision calls silent at the frame's hop
        /// limit gets no delivery from the model or from a snapshot, and
        /// changes neither, whatever state either is in — middlebox,
        /// unrouted and scenario destinations and hop-limited frames
        /// included. A decision made for another destination or on
        /// another day reads stateful, never silent.
        #[test]
        fn silent_destinations_answer_nothing(
            picks in proptest::collection::vec(
                (proptest::any::<u32>(), 0u8..3, proptest::any::<u32>(), 0u64..20_000_000),
                1..64,
            ),
            misled_by in proptest::any::<u32>(),
        ) {
            use expanse_netsim::SnapshotNetwork;
            let mut m = shared_world();
            let other_day = DayState::new(&m, m.day_state.day + 1);
            let mut got = Deliveries::new();
            for &(pick, transport, key, us) in &picks {
                let dst = pick_dst(&m, pick);
                let (at, frame, hop) = (Time::from_micros(us), probe(dst, transport, key), probe_hops(key));
                let decision = m.decide(dst);
                let reach = m.reach(dst, &decision, hop);
                if pick % 8 == 4 {
                    proptest::prop_assert_eq!(reach, Reach::Silent, "unrouted {}", dst);
                }

                let other = pick_dst(&m, pick ^ misled_by);
                if other != dst {
                    proptest::prop_assert_eq!(m.reach(dst, &m.decide(other), hop), Reach::Stateful);
                }
                let yesterday = m.decide_in(&other_day, dst);
                proptest::prop_assert_eq!(m.reach(dst, &yesterday, hop), Reach::Stateful);

                if reach != Reach::Silent {
                    continue;
                }
                let before = m.day_state.clone();
                proptest::prop_assert!(inject(&mut *m, at, &frame).is_empty(), "model answered {}", dst);
                proptest::prop_assert_eq!(&m.day_state, &before);
                let mut snap = m.snapshot();
                got.clear();
                InternetModel::inject_decided(&mut snap, &decision, at, &frame, &mut got);
                proptest::prop_assert!(got.is_empty(), "snapshot answered {}", dst);
                proptest::prop_assert_eq!(&snap.day, &before);
            }
        }
    }
}
