//! Test-only: the owned transport parser the borrowed views replaced,
//! kept as the oracle they must agree with, and the frames both read.

use crate::checksum::{transport_checksum, verify_transport};
use crate::icmpv6::types;
use crate::ipv6::HEADER_LEN;
use crate::{
    proto, quic, Datagram, Icmpv6Message, Ipv6Header, PacketError, TcpFlags, TcpOption,
    TcpOptionBlock, TcpView, TransportView, UdpDatagram,
};
use std::net::Ipv6Addr;

/// The transport payload of a datagram, every field owned: what the
/// reference parser returns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Transport {
    Icmpv6(Icmpv6Message),
    Tcp(TcpSegment),
    Udp(UdpDatagram),
    Other(u8, Vec<u8>),
}

/// A TCP segment with its options decoded and every field owned.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TcpSegment {
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: TcpFlags,
    window: u16,
    urgent: u16,
    options: Vec<TcpOption>,
    payload: Vec<u8>,
}

/// `view` with every borrowed field copied out, to compare with the
/// reference parser's result.
fn owned(view: TransportView<'_>) -> Transport {
    match view {
        TransportView::Icmpv6(m) => Transport::Icmpv6(match m {
            Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload,
            } => Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmpv6Message::EchoReply {
                ident,
                seq,
                payload,
            } => Icmpv6Message::EchoReply {
                ident,
                seq,
                payload: payload.to_vec(),
            },
            Icmpv6Message::DestUnreachable { code, invoking } => Icmpv6Message::DestUnreachable {
                code,
                invoking: invoking.to_vec(),
            },
            Icmpv6Message::TimeExceeded { code, invoking } => Icmpv6Message::TimeExceeded {
                code,
                invoking: invoking.to_vec(),
            },
            Icmpv6Message::Other {
                icmp_type,
                code,
                body,
            } => Icmpv6Message::Other {
                icmp_type,
                code,
                body: body.to_vec(),
            },
        }),
        TransportView::Tcp(s) => Transport::Tcp(TcpSegment {
            src_port: s.src_port,
            dst_port: s.dst_port,
            seq: s.seq,
            ack: s.ack,
            flags: s.flags,
            window: s.window,
            urgent: s.urgent,
            options: s.options().map(owned_option).collect(),
            payload: s.payload.to_vec(),
        }),
        TransportView::Udp(u) => {
            Transport::Udp(UdpDatagram::new(u.src_port, u.dst_port, u.payload.to_vec()))
        }
        TransportView::Other(nh, payload) => Transport::Other(nh, payload.to_vec()),
    }
}

fn owned_option(opt: TcpOption<&[u8]>) -> TcpOption {
    match opt {
        TcpOption::Eol => TcpOption::Eol,
        TcpOption::Nop => TcpOption::Nop,
        TcpOption::Mss(v) => TcpOption::Mss(v),
        TcpOption::WindowScale(v) => TcpOption::WindowScale(v),
        TcpOption::SackPermitted => TcpOption::SackPermitted,
        TcpOption::Timestamps { tsval, tsecr } => TcpOption::Timestamps { tsval, tsecr },
        TcpOption::Unknown { kind, data } => TcpOption::Unknown {
            kind,
            data: data.to_vec(),
        },
    }
}

/// The frame `body` writes the transport bytes of, from `src` to `dst`.
fn frame(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: u8,
    body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut frame = Vec::new();
    Datagram::emit_with(&mut frame, src, dst, next_header, 64, body);
    frame
}

/// One well-formed frame per transport and message shape, each with a
/// non-empty checksummed payload so a payload bit can be flipped.
pub(crate) fn transport_frames() -> Vec<(&'static str, Vec<u8>)> {
    let (s, d): (Ipv6Addr, Ipv6Addr) = (
        "2001:db8::1".parse().unwrap(),
        "2001:db8::2".parse().unwrap(),
    );
    let icmpv6 =
        |msg: Icmpv6Message<&[u8]>| frame(s, d, proto::ICMPV6, |out| msg.emit_into(s, d, out));
    let tcp = |seg: TcpView<'_>| frame(s, d, proto::TCP, |out| seg.emit_into(s, d, out));
    let udp = |u: UdpDatagram<&[u8]>| frame(s, d, proto::UDP, |out| u.emit_into(s, d, out));
    let echo = Icmpv6Message::EchoRequest {
        ident: 7,
        seq: 9,
        payload: &b"expanse"[..],
    };
    let fingerprint = TcpOptionBlock::fingerprint(2);
    let seg = TcpView {
        payload: b"hello",
        ..TcpView::syn(40000, 80, 1, fingerprint.as_bytes())
    };
    let query = UdpDatagram::new(40000, 53, &b"query"[..]);
    let quote = frame(d, s, proto::UDP, |out| query.emit_into(d, s, out));
    let unreach = Icmpv6Message::DestUnreachable {
        code: 4,
        invoking: &quote[..quote.len().min(88)],
    };
    let exceeded = Icmpv6Message::TimeExceeded {
        code: 0,
        invoking: &quote[..],
    };
    let other = Icmpv6Message::Other {
        icmp_type: 135,
        code: 0,
        body: &[9; 20][..],
    };
    // A SYN-ACK whose options end in an unknown kind and zero padding.
    let mut options = TcpOptionBlock::new();
    for opt in [
        TcpOption::Mss(1440),
        TcpOption::Nop,
        TcpOption::Unknown {
            kind: 254,
            data: &[0xaa, 0xbb, 0xcc][..],
        },
    ] {
        options.push(&opt);
    }
    let synack = TcpView {
        flags: TcpFlags::SYN_ACK,
        payload: &[1],
        ..TcpView::syn(80, 40000, 7, options.as_bytes())
    };
    let mut initial = Vec::new();
    quic::initial_into(&[1; 8], &[2; 8], &mut initial);
    vec![
        ("icmpv6", icmpv6(echo)),
        ("tcp", tcp(seg)),
        ("udp", udp(query)),
        ("unreachable", icmpv6(unreach)),
        ("time-exceeded", icmpv6(exceeded)),
        ("icmpv6-other", icmpv6(other)),
        ("syn-ack", tcp(synack)),
        ("quic", udp(UdpDatagram::new(1, 443, &initial[..]))),
    ]
}

/// The owned parse, as it read before views existed.
fn reference_parse(buf: &[u8]) -> Result<(Ipv6Header, Transport), PacketError> {
    let header = Ipv6Header::parse(buf)?;
    let body = &buf[HEADER_LEN..];
    if body.len() != usize::from(header.payload_len) {
        return Err(PacketError::BadLength);
    }
    let (src, dst) = (header.src, header.dst);
    let t = match header.next_header {
        proto::ICMPV6 => Transport::Icmpv6(reference_icmpv6(src, dst, body)?),
        proto::TCP => Transport::Tcp(reference_tcp(src, dst, body)?),
        proto::UDP => Transport::Udp(reference_udp(src, dst, body)?),
        other => Transport::Other(other, body.to_vec()),
    };
    Ok((header, t))
}

fn reference_icmpv6(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    buf: &[u8],
) -> Result<Icmpv6Message, PacketError> {
    if buf.len() < 4 {
        return Err(PacketError::Truncated);
    }
    if !verify_transport(src, dst, proto::ICMPV6, buf) {
        return Err(PacketError::BadChecksum);
    }
    let (icmp_type, code) = (buf[0], buf[1]);
    match icmp_type {
        types::ECHO_REQUEST
        | types::ECHO_REPLY
        | types::DEST_UNREACHABLE
        | types::TIME_EXCEEDED
            if buf.len() < 8 =>
        {
            Err(PacketError::Truncated)
        }
        types::ECHO_REQUEST | types::ECHO_REPLY => {
            let ident = u16::from_be_bytes([buf[4], buf[5]]);
            let seq = u16::from_be_bytes([buf[6], buf[7]]);
            let payload = buf[8..].to_vec();
            Ok(if icmp_type == types::ECHO_REQUEST {
                Icmpv6Message::EchoRequest {
                    ident,
                    seq,
                    payload,
                }
            } else {
                Icmpv6Message::EchoReply {
                    ident,
                    seq,
                    payload,
                }
            })
        }
        types::DEST_UNREACHABLE => Ok(Icmpv6Message::DestUnreachable {
            code,
            invoking: buf[8..].to_vec(),
        }),
        types::TIME_EXCEEDED => Ok(Icmpv6Message::TimeExceeded {
            code,
            invoking: buf[8..].to_vec(),
        }),
        _ => Ok(Icmpv6Message::Other {
            icmp_type,
            code,
            body: buf[4..].to_vec(),
        }),
    }
}

fn reference_options(mut buf: &[u8]) -> Result<Vec<TcpOption>, PacketError> {
    let mut out = Vec::new();
    while let Some(&kind) = buf.first() {
        match kind {
            0 => {
                out.push(TcpOption::Eol);
                break;
            }
            1 => {
                out.push(TcpOption::Nop);
                buf = &buf[1..];
            }
            _ => {
                if buf.len() < 2 {
                    return Err(PacketError::Malformed("tcp option header"));
                }
                let len = usize::from(buf[1]);
                if len < 2 || len > buf.len() {
                    return Err(PacketError::Malformed("tcp option length"));
                }
                let data = &buf[2..len];
                out.push(match (kind, data.len()) {
                    (2, 2) => TcpOption::Mss(u16::from_be_bytes([data[0], data[1]])),
                    (3, 1) => TcpOption::WindowScale(data[0]),
                    (4, 0) => TcpOption::SackPermitted,
                    (8, 8) => TcpOption::Timestamps {
                        tsval: u32::from_be_bytes([data[0], data[1], data[2], data[3]]),
                        tsecr: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                    },
                    _ => TcpOption::Unknown {
                        kind,
                        data: data.to_vec(),
                    },
                });
                buf = &buf[len..];
            }
        }
    }
    Ok(out)
}

fn reference_tcp(src: Ipv6Addr, dst: Ipv6Addr, buf: &[u8]) -> Result<TcpSegment, PacketError> {
    if buf.len() < 20 {
        return Err(PacketError::Truncated);
    }
    if !verify_transport(src, dst, proto::TCP, buf) {
        return Err(PacketError::BadChecksum);
    }
    let offset_flags = u16::from_be_bytes([buf[12], buf[13]]);
    let header_len = usize::from(offset_flags >> 12) * 4;
    if header_len < 20 || header_len > buf.len() {
        return Err(PacketError::BadLength);
    }
    let mut options = reference_options(&buf[20..header_len])?;
    while options.last() == Some(&TcpOption::Eol) {
        options.pop();
    }
    Ok(TcpSegment {
        src_port: u16::from_be_bytes([buf[0], buf[1]]),
        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
        seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
        flags: crate::TcpFlags((offset_flags & 0xff) as u8),
        window: u16::from_be_bytes([buf[14], buf[15]]),
        urgent: u16::from_be_bytes([buf[18], buf[19]]),
        options,
        payload: buf[header_len..].to_vec(),
    })
}

fn reference_udp(src: Ipv6Addr, dst: Ipv6Addr, buf: &[u8]) -> Result<UdpDatagram, PacketError> {
    if buf.len() < 8 {
        return Err(PacketError::Truncated);
    }
    if usize::from(u16::from_be_bytes([buf[4], buf[5]])) != buf.len() {
        return Err(PacketError::BadLength);
    }
    if !verify_transport(src, dst, proto::UDP, buf) {
        return Err(PacketError::BadChecksum);
    }
    Ok(UdpDatagram::new(
        u16::from_be_bytes([buf[0], buf[1]]),
        u16::from_be_bytes([buf[2], buf[3]]),
        buf[8..].to_vec(),
    ))
}

/// The view parse, made owned, against the reference.
fn check(name: &str, what: &str, frame: &[u8]) {
    let got = Datagram::parse_transport(frame).map(|(h, t)| (h, owned(t)));
    assert_eq!(got, reference_parse(frame), "{name}: {what}");
}

/// `frame` with its payload length and transport checksum patched to
/// fit the body it now has, so a parse gets past both to the fields.
fn refit(frame: &mut [u8]) {
    let Ok(h) = Ipv6Header::parse(frame) else {
        return;
    };
    let body_len = frame.len() - HEADER_LEN;
    frame[4..6].copy_from_slice(&(body_len as u16).to_be_bytes());
    let at = match h.next_header {
        proto::ICMPV6 => 2,
        proto::TCP => 16,
        proto::UDP => 6,
        _ => return,
    };
    if body_len < at + 2 {
        return;
    }
    let body = &mut frame[HEADER_LEN..];
    body[at..at + 2].copy_from_slice(&[0, 0]);
    let ck = transport_checksum(h.src, h.dst, h.next_header, body);
    body[at..at + 2].copy_from_slice(&ck.to_be_bytes());
}

#[test]
fn views_parse_every_truncation_and_byte_flip_like_the_owned_parser() {
    for (name, frame) in transport_frames() {
        check(name, "as emitted", &frame);
        for len in 0..frame.len() {
            check(name, &format!("cut to {len}"), &frame[..len]);
            let mut refitted = frame[..len].to_vec();
            refit(&mut refitted);
            check(name, &format!("cut to {len}, refitted"), &refitted);
        }
        for at in 0..frame.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut bad = frame.clone();
                bad[at] ^= flip;
                check(name, &format!("byte {at} ^ {flip:#x}"), &bad);
                refit(&mut bad);
                check(name, &format!("byte {at} ^ {flip:#x}, refitted"), &bad);
            }
        }
    }
}

#[test]
fn unknown_next_header_views_its_payload() {
    let src: Ipv6Addr = "::1".parse().unwrap();
    let frame = frame(src, src, 99, |out| out.extend_from_slice(&[0xaa, 0xbb]));
    check("next header 99", "as emitted", &frame);
}
