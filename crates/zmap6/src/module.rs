//! Probe modules: one per scanned service (zmap's `--probe-module`).

use crate::validate::Validator;
use expanse_packet::{
    dns, icmpv6, proto, quic, udp, Datagram, Icmpv6Message, Protocol, TcpFlags, TcpOptionBlock,
    TcpView, TransportView,
};
use std::net::Ipv6Addr;

/// Information extracted from a TCP SYN-ACK, used by APD fingerprinting
/// (§5.4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynAckInfo {
    /// Options text.
    pub options_text: String,
    /// Maximum segment size option value.
    pub mss: Option<u16>,
    /// Window-scale option value.
    pub wscale: Option<u8>,
    /// Advertised receive window.
    pub window: u16,
    /// (tsval, tsecr) if the peer sent timestamps.
    pub timestamps: Option<(u32, u32)>,
}

/// Classified probe reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyKind {
    /// ICMPv6 echo reply (positive).
    EchoReply,
    /// TCP SYN-ACK with its §5.4 fingerprint fields (positive).
    SynAck(SynAckInfo),
    /// RST(-ACK): host alive, port closed. Recorded, not "responsive".
    Rst,
    /// DNS response to the UDP/53 probe's query.
    DnsResponse {
        /// DNS response code (0 = NOERROR, 3 = NXDOMAIN).
        rcode: u8,
        /// Answers.
        answers: u16,
    },
    /// QUIC Version Negotiation packet answering the UDP/443 probe's
    /// Initial.
    QuicVersionNegotiation {
        /// Supported QUIC versions advertised by the server.
        versions: Vec<u32>,
    },
    /// ICMPv6 destination unreachable (port unreachable etc.).
    Unreachable {
        /// Code.
        code: u8,
    },
}

impl ReplyKind {
    /// Does this reply make the target "responsive" in the paper's sense
    /// (a positive service answer, not an error indication)?
    pub fn is_positive(&self) -> bool {
        matches!(
            self,
            ReplyKind::EchoReply
                | ReplyKind::SynAck(_)
                | ReplyKind::DnsResponse { .. }
                | ReplyKind::QuicVersionNegotiation { .. }
        )
    }
}

/// A probe module builds probes for targets and classifies replies.
pub trait ProbeModule: Send + Sync {
    /// Which service this module scans.
    fn protocol(&self) -> Protocol;

    /// Write the probe frame for `dst` into `frame` (cleared first): the
    /// scan loop sends every probe of a job from one reused buffer. The
    /// frame's hop limit is [`Datagram::DEFAULT_HOP_LIMIT`]: the scan
    /// loop leaves unsent the probes the network proves silent at it.
    fn emit_probe(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator, frame: &mut Vec<u8>);

    /// Classify a delivered frame: `Some((target, kind))` — the probed
    /// address the reply validates for and what it says about it — if
    /// the frame is a valid reply for this module under validator `v`.
    /// (The observed hop limit is the caller's to read off `hdr`.) Reads
    /// the borrowed view of the frame; only a kept reply's [`ReplyKind`]
    /// may allocate.
    fn classify(
        &self,
        hdr: &expanse_packet::Ipv6Header,
        transport: &TransportView<'_>,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)>;
}

/// ICMPv6 echo module.
#[derive(Debug, Clone, Copy, Default)]
pub struct IcmpEchoModule;

impl ProbeModule for IcmpEchoModule {
    fn protocol(&self) -> Protocol {
        Protocol::Icmp
    }

    fn emit_probe(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator, frame: &mut Vec<u8>) {
        let f = v.fields(dst);
        let hops = Datagram::DEFAULT_HOP_LIMIT;
        Datagram::emit_with(frame, src, dst, proto::ICMPV6, hops, |out| {
            let echo = icmpv6::types::ECHO_REQUEST;
            icmpv6::emit_echo(echo, f.ident, f.seq, b"expanse-probe", src, dst, out);
        });
    }

    fn classify(
        &self,
        hdr: &expanse_packet::Ipv6Header,
        transport: &TransportView<'_>,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)> {
        match transport {
            TransportView::Icmpv6(Icmpv6Message::EchoReply { ident, seq, .. }) => {
                // The reply's source is the target we probed.
                if v.check_echo(hdr.src, *ident, *seq) {
                    Some((hdr.src, ReplyKind::EchoReply))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// TCP SYN module (ports 80/443), optionally with the §5.4
/// fingerprinting option set (`MSS-SACK-TS-N-WS`, MSS=WS=1).
#[derive(Debug, Clone, Copy)]
pub struct TcpSynModule {
    /// Port.
    pub port: u16,
    /// With options.
    pub with_options: bool,
}

impl TcpSynModule {
    /// The `synopt` fingerprinting variant.
    pub fn with_synopt(port: u16) -> Self {
        TcpSynModule {
            port,
            with_options: true,
        }
    }
}

impl ProbeModule for TcpSynModule {
    fn protocol(&self) -> Protocol {
        match self.port {
            443 => Protocol::Tcp443,
            _ => Protocol::Tcp80,
        }
    }

    fn emit_probe(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator, frame: &mut Vec<u8>) {
        let f = v.fields(dst);
        let options = if self.with_options {
            TcpOptionBlock::fingerprint(f.tcp_seq ^ 0x5c5c)
        } else {
            TcpOptionBlock::new()
        };
        let seg = TcpView::syn(f.src_port, self.port, f.tcp_seq, options.as_bytes());
        let hops = Datagram::DEFAULT_HOP_LIMIT;
        Datagram::emit_with(frame, src, dst, proto::TCP, hops, |out| {
            seg.emit_into(src, dst, out);
        });
    }

    fn classify(
        &self,
        hdr: &expanse_packet::Ipv6Header,
        transport: &TransportView<'_>,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)> {
        let TransportView::Tcp(seg) = transport else {
            return None;
        };
        if seg.src_port != self.port || !v.check_tcp(hdr.src, seg.dst_port, seg.ack) {
            return None;
        }
        if seg.flags.contains(TcpFlags::RST) {
            return Some((hdr.src, ReplyKind::Rst));
        }
        if seg.flags.contains(TcpFlags::SYN_ACK) {
            let info = SynAckInfo {
                options_text: seg.options_text(),
                mss: seg.mss(),
                wscale: seg.window_scale(),
                window: seg.window,
                timestamps: seg.timestamps(),
            };
            return Some((hdr.src, ReplyKind::SynAck(info)));
        }
        None
    }
}

/// The name every DNS probe asks for.
const DNS_PROBE_NAME: &str = "ipv6.expanse.example.com";

/// UDP/53 DNS module: sends an AAAA query; any well-formed response
/// counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnsModule;

impl ProbeModule for DnsModule {
    fn protocol(&self) -> Protocol {
        Protocol::Udp53
    }

    fn emit_probe(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator, frame: &mut Vec<u8>) {
        let f = v.fields(dst);
        let hops = Datagram::DEFAULT_HOP_LIMIT;
        Datagram::emit_with(frame, src, dst, proto::UDP, hops, |out| {
            udp::emit_with(f.src_port, 53, src, dst, out, |out| {
                dns::emit_query(f.ident, DNS_PROBE_NAME, dns::qtype::AAAA, true, out);
            });
        });
    }

    fn classify(
        &self,
        hdr: &expanse_packet::Ipv6Header,
        transport: &TransportView<'_>,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)> {
        match transport {
            TransportView::Udp(u) => {
                if u.src_port != 53 || !v.check_udp(hdr.src, u.dst_port) {
                    return None;
                }
                let h = dns::DnsHeader::parse(u.payload).ok()?;
                if !h.qr || h.id != v.fields(hdr.src).ident {
                    return None;
                }
                Some((
                    hdr.src,
                    ReplyKind::DnsResponse {
                        rcode: h.rcode,
                        answers: h.ancount,
                    },
                ))
            }
            TransportView::Icmpv6(Icmpv6Message::DestUnreachable { code, invoking }) => {
                // Port unreachable for our own probe: extract the original
                // destination from the invoking packet.
                let orig = expanse_packet::Ipv6Header::parse(invoking).ok()?;
                if v.fields(orig.dst).src_port
                    == u16::from_be_bytes([*invoking.get(40)?, *invoking.get(41)?])
                {
                    Some((orig.dst, ReplyKind::Unreachable { code: *code }))
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// UDP/443 QUIC module: greasing-version Initial; a Version Negotiation
/// reply counts.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct QuicModule;

impl ProbeModule for QuicModule {
    fn protocol(&self) -> Protocol {
        Protocol::Udp443
    }

    fn emit_probe(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator, frame: &mut Vec<u8>) {
        let f = v.fields(dst);
        let dcid = f.tcp_seq.to_be_bytes();
        let scid = f.ident.to_be_bytes();
        let hops = Datagram::DEFAULT_HOP_LIMIT;
        Datagram::emit_with(frame, src, dst, proto::UDP, hops, |out| {
            udp::emit_with(f.src_port, 443, src, dst, out, |out| {
                quic::initial_into(&dcid, &scid, out);
            });
        });
    }

    fn classify(
        &self,
        hdr: &expanse_packet::Ipv6Header,
        transport: &TransportView<'_>,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)> {
        let TransportView::Udp(u) = transport else {
            return None;
        };
        if u.src_port != 443 || !v.check_udp(hdr.src, u.dst_port) {
            return None;
        }
        let p = quic::QuicView::parse(u.payload).ok()?;
        if !p.is_version_negotiation() {
            return None;
        }
        // The server must echo our source cid as its destination cid.
        let f = v.fields(hdr.src);
        if p.dcid != f.ident.to_be_bytes() {
            return None;
        }
        Some((
            hdr.src,
            ReplyKind::QuicVersionNegotiation {
                versions: p.supported_versions().collect(),
            },
        ))
    }
}

/// The paper's standard five-module battery (§6).
pub fn standard_battery() -> Vec<Box<dyn ProbeModule>> {
    vec![
        Box::new(IcmpEchoModule),
        Box::new(TcpSynModule::with_synopt(80)),
        Box::new(TcpSynModule::with_synopt(443)),
        Box::new(DnsModule),
        Box::new(QuicModule),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_packet::{TcpOption, UdpDatagram};

    fn v() -> Validator {
        Validator::new(7)
    }

    fn pair() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        )
    }

    /// The module's probe for `dst`, emitted over a dirty buffer the way
    /// a scan job's second and later probes are.
    fn probe_frame(m: &dyn ProbeModule, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut frame = vec![0xee; 100];
        m.emit_probe(src, dst, &v(), &mut frame);
        frame
    }

    /// The frame `dst` sends back to `src`, its transport bytes written
    /// by `body`.
    fn reply(
        src: Ipv6Addr,
        dst: Ipv6Addr,
        next_header: u8,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut frame = Vec::new();
        Datagram::emit_with(&mut frame, dst, src, next_header, 60, body);
        frame
    }

    fn classify(m: &dyn ProbeModule, frame: &[u8]) -> Option<(Ipv6Addr, ReplyKind)> {
        let (hdr, t) = Datagram::parse_transport(frame).unwrap();
        m.classify(&hdr, &t, &v())
    }

    /// The transport of a probe frame, its IPv6 header checked.
    fn transport(frame: &[u8], next_header: u8) -> TransportView<'_> {
        let (h, t) = Datagram::parse_transport(frame).unwrap();
        assert_eq!((h.src, h.dst), pair());
        assert_eq!((h.next_header, h.hop_limit), (next_header, 64));
        t
    }

    #[test]
    fn probes_parse_back_to_their_fields() {
        let (src, dst) = pair();
        let f = v().fields(dst);
        let frame = probe_frame(&IcmpEchoModule, src, dst);
        let echo = Icmpv6Message::EchoRequest {
            ident: f.ident,
            seq: f.seq,
            payload: &b"expanse-probe"[..],
        };
        assert_eq!(
            transport(&frame, proto::ICMPV6),
            TransportView::Icmpv6(echo)
        );

        for m in [
            TcpSynModule::with_synopt(443),
            TcpSynModule {
                port: 80,
                with_options: false,
            },
        ] {
            let frame = probe_frame(&m, src, dst);
            let TransportView::Tcp(seg) = transport(&frame, proto::TCP) else {
                panic!("port {}: not TCP", m.port)
            };
            assert_eq!((seg.src_port, seg.dst_port), (f.src_port, m.port));
            assert_eq!((seg.seq, seg.ack, seg.flags), (f.tcp_seq, 0, TcpFlags::SYN));
            assert_eq!((seg.window, seg.payload), (65535, &[][..]));
            if m.with_options {
                assert_eq!(seg.options_text(), "MSS-SACK-TS-N-WS");
                assert_eq!((seg.mss(), seg.window_scale()), (Some(1), Some(1)));
                assert_eq!(seg.timestamps(), Some((f.tcp_seq ^ 0x5c5c, 0)));
            } else {
                assert_eq!(seg.options, [], "a bare SYN");
            }
        }

        let frame = probe_frame(&DnsModule, src, dst);
        let TransportView::Udp(u) = transport(&frame, proto::UDP) else {
            panic!("DNS probe is not UDP")
        };
        assert_eq!((u.src_port, u.dst_port), (f.src_port, 53));
        let h = dns::DnsHeader::parse(u.payload).unwrap();
        assert_eq!((h.id, h.qr, h.qdcount, h.ancount), (f.ident, false, 1, 0));
        let question = b"\x04ipv6\x07expanse\x07example\x03com\x00\x00\x1c\x00\x01";
        assert_eq!(&u.payload[12..], question, "AAAA, class IN");

        let frame = probe_frame(&QuicModule, src, dst);
        let TransportView::Udp(u) = transport(&frame, proto::UDP) else {
            panic!("QUIC probe is not UDP")
        };
        assert_eq!((u.src_port, u.dst_port), (f.src_port, 443));
        assert_eq!(u.payload.len(), quic::MIN_INITIAL_SIZE);
        let q = quic::QuicView::parse(u.payload).unwrap();
        assert_eq!(q.version, quic::PROBE_VERSION);
        assert_eq!(q.dcid, f.tcp_seq.to_be_bytes());
        assert_eq!(q.scid, f.ident.to_be_bytes());
    }

    /// Each module's probe from `2001:db8::1` to `2001:db8::2` under
    /// `Validator::new(7)`: its length and its bytes in hex, trailing
    /// zero padding left out.
    const RECORDED: [(&dyn ProbeModule, usize, &str); 5] = [
        (
            &IcmpEchoModule,
            61,
            concat!(
                "6000000000153a4020010db800000000000000000000000120010db800000000",
                "00000000000000028000cefa2aa73c49657870616e73652d70726f6265",
            ),
        ),
        (
            &TcpSynModule {
                port: 443,
                with_options: true,
            },
            80,
            concat!(
                "600000000028064020010db800000000000000000000000120010db800000000",
                "0000000000000002a2da01bb1ba9c03c00000000a002ffffb9bf000002040001",
                "0402080a1ba99c600000000001030301",
            ),
        ),
        (
            &TcpSynModule {
                port: 80,
                with_options: false,
            },
            60,
            concat!(
                "600000000014064020010db800000000000000000000000120010db800000000",
                "0000000000000002a2da00501ba9c03c000000005002ffffd55d",
            ),
        ),
        (
            &DnsModule,
            90,
            concat!(
                "600000000032114020010db800000000000000000000000120010db800000000",
                "0000000000000002a2da0035003214402aa70100000100000000000004697076",
                "3607657870616e7365076578616d706c6503636f6d00001c0001",
            ),
        ),
        (
            &QuicModule,
            1248,
            concat!(
                "6000000004b8114020010db800000000000000000000000120010db800000000",
                "0000000000000002a2da01bb04b83d0ac01a2a3a4a041ba9c03c022aa7",
            ),
        ),
    ];

    #[test]
    fn probes_match_the_recorded_bytes() {
        let (src, dst) = pair();
        for (m, len, hex) in RECORDED {
            let mut want: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            want.resize(len, 0);
            assert_eq!(probe_frame(m, src, dst), want, "{:?}", m.protocol());
        }
    }

    #[test]
    fn icmp_build_and_classify_roundtrip() {
        let (src, dst) = pair();
        let m = IcmpEchoModule;
        let probe = probe_frame(&m, src, dst);
        // Simulate the target echoing back.
        let (hdr, t) = Datagram::parse_transport(&probe).unwrap();
        assert_eq!(hdr.dst, dst);
        let TransportView::Icmpv6(Icmpv6Message::EchoRequest {
            ident,
            seq,
            payload,
        }) = t
        else {
            panic!("not an echo request");
        };
        let bytes = reply(src, dst, proto::ICMPV6, |out| {
            let echo_reply = icmpv6::types::ECHO_REPLY;
            icmpv6::emit_echo(echo_reply, ident, seq, payload, dst, src, out)
        });
        let (target, kind) = classify(&m, &bytes).unwrap();
        assert_eq!(target, dst);
        assert_eq!(kind, ReplyKind::EchoReply);
        assert_eq!(hdr.src, src);
    }

    #[test]
    fn icmp_rejects_wrong_ident() {
        let (src, dst) = pair();
        let bytes = reply(src, dst, proto::ICMPV6, |out| {
            let echo_reply = icmpv6::types::ECHO_REPLY;
            icmpv6::emit_echo(echo_reply, 0xdead, 0xbeef, &[], dst, src, out)
        });
        assert!(classify(&IcmpEchoModule, &bytes).is_none());
    }

    /// The TCP reply `seg` from `dst` to `src`.
    fn tcp_reply(src: Ipv6Addr, dst: Ipv6Addr, seg: &TcpView<'_>) -> Vec<u8> {
        reply(src, dst, proto::TCP, |out| seg.emit_into(dst, src, out))
    }

    #[test]
    fn tcp_synack_classified_with_fingerprint() {
        let (src, dst) = pair();
        let m = TcpSynModule::with_synopt(80);
        let probe = probe_frame(&m, src, dst);
        let (_, t) = Datagram::parse_transport(&probe).unwrap();
        let TransportView::Tcp(pseg) = t else {
            panic!()
        };
        assert_eq!(pseg.options_text(), "MSS-SACK-TS-N-WS");
        assert_eq!(pseg.mss(), Some(1));
        // Build a SYN-ACK echoing correctly.
        let mut options = TcpOptionBlock::new();
        options.push(&TcpOption::<&[u8]>::Mss(1440));
        options.push(&TcpOption::<&[u8]>::SackPermitted);
        let reply_seg = TcpView {
            src_port: 80,
            dst_port: pseg.src_port,
            seq: 1,
            ack: pseg.seq.wrapping_add(1),
            flags: TcpFlags::SYN_ACK,
            window: 65535,
            urgent: 0,
            options: options.as_bytes(),
            payload: &[],
        };
        let (target, kind) = classify(&m, &tcp_reply(src, dst, &reply_seg)).unwrap();
        assert_eq!(target, dst);
        match kind {
            ReplyKind::SynAck(info) => {
                assert_eq!(info.options_text, "MSS-SACK");
                assert_eq!(info.mss, Some(1440));
                assert_eq!(info.window, 65535);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tcp_rst_is_recorded_not_positive() {
        let (src, dst) = pair();
        let m = TcpSynModule {
            port: 443,
            with_options: false,
        };
        let f = v().fields(dst);
        let rst = TcpView {
            src_port: 443,
            dst_port: f.src_port,
            seq: 0,
            ack: f.tcp_seq.wrapping_add(1),
            flags: TcpFlags::RST_ACK,
            window: 0,
            urgent: 0,
            options: &[],
            payload: &[],
        };
        let (_, kind) = classify(&m, &tcp_reply(src, dst, &rst)).unwrap();
        assert_eq!(kind, ReplyKind::Rst);
        assert!(!kind.is_positive());
    }

    #[test]
    fn wrong_ack_rejected() {
        let (src, dst) = pair();
        let m = TcpSynModule {
            port: 80,
            with_options: false,
        };
        let f = v().fields(dst);
        let seg = TcpView {
            src_port: 80,
            dst_port: f.src_port,
            seq: 1,
            ack: f.tcp_seq.wrapping_add(2), // off by one
            flags: TcpFlags::SYN_ACK,
            window: 1,
            urgent: 0,
            options: &[],
            payload: &[],
        };
        assert!(classify(&m, &tcp_reply(src, dst, &seg)).is_none());
    }

    #[test]
    fn dns_response_classified() {
        let (src, dst) = pair();
        let m = DnsModule;
        let probe = probe_frame(&m, src, dst);
        let (_, t) = Datagram::parse_transport(&probe).unwrap();
        let TransportView::Udp(u) = t else { panic!() };
        let mut resp = Vec::new();
        dns::build_response_into(u.payload, 0, 1, &mut resp).unwrap();
        let answer = UdpDatagram::new(53, u.src_port, &resp[..]);
        let bytes = reply(src, dst, proto::UDP, |out| answer.emit_into(dst, src, out));
        let (target, kind) = classify(&m, &bytes).unwrap();
        assert_eq!(target, dst);
        assert_eq!(
            kind,
            ReplyKind::DnsResponse {
                rcode: 0,
                answers: 1
            }
        );
        assert!(kind.is_positive());
    }

    #[test]
    fn quic_version_negotiation_classified() {
        let (src, dst) = pair();
        let m = QuicModule;
        let probe = probe_frame(&m, src, dst);
        let (_, t) = Datagram::parse_transport(&probe).unwrap();
        let TransportView::Udp(u) = t else { panic!() };
        let init = quic::QuicView::parse(u.payload).unwrap();
        let mut vn = Vec::new();
        quic::version_negotiation_into(init.scid, init.dcid, &[1], &mut vn);
        let answer = UdpDatagram::new(443, u.src_port, &vn[..]);
        let bytes = reply(src, dst, proto::UDP, |out| answer.emit_into(dst, src, out));
        let (target, kind) = classify(&m, &bytes).unwrap();
        assert_eq!(target, dst);
        match kind {
            ReplyKind::QuicVersionNegotiation { versions } => assert_eq!(versions, vec![1]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn battery_covers_all_protocols() {
        let battery = standard_battery();
        let protos: Vec<Protocol> = battery.iter().map(|m| m.protocol()).collect();
        assert_eq!(protos, Protocol::ALL.to_vec());
    }
}
