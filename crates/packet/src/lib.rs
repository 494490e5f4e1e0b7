//! IPv6/ICMPv6/TCP/UDP wire formats for the `expanse` toolkit.
//!
//! The probers (`expanse-zmap6`, `expanse-scamper6`) build **byte-exact
//! packets** and the network simulator parses them — the same contract a
//! raw socket would impose. This keeps checksum, TCP-option, and
//! fingerprinting code honest instead of mocked.
//!
//! A frame has one form: bytes in a caller's buffer. Each message has
//! one emitter, an `emit_into` (or free `emit_*` function) that appends
//! it to that buffer, and [`Datagram::emit_with`] /
//! [`Datagram::append_with`] frame it in place. Each transport has one
//! parser, and it borrows: [`Datagram::parse_transport`] yields a
//! [`TransportView`] whose variable-length fields point into the frame,
//! with every length and checksum check done. A probe's round trip
//! through the simulator — emit, parse, answer, parse the answer —
//! therefore copies nothing onto the heap, which matters because a scan
//! sends hundreds of thousands of probes a virtual day.
//!
//! Layers:
//! - `ipv6` — fixed 40-byte IPv6 header + full datagram framing
//! - [`icmpv6`] — echo request/reply, destination unreachable, time exceeded
//! - `tcp` — segments with full option support (MSS, WScale, SACK-permitted,
//!   timestamps) — §5.4 of the paper fingerprints aliased prefixes via the
//!   `MSS-SACK-TS-WS` option set
//! - [`udp`] — datagrams
//! - [`dns`] — minimal DNS queries/responses for the UDP/53 probe
//! - [`quic`] — minimal QUIC Initial / Version Negotiation for UDP/443
//! - `checksum` — the Internet checksum with the IPv6 pseudo-header

mod checksum;
pub mod dns;
pub mod icmpv6;
mod ipv6;
mod probe;
pub mod quic;
mod tcp;
pub mod udp;

#[cfg(test)]
mod oracle;

pub use icmpv6::Icmpv6Message;
pub use ipv6::{Datagram, Ipv6Header};
pub use probe::{ProtoSet, Protocol};
pub use tcp::{TcpFlags, TcpOption, TcpOptionBlock, TcpView};
pub use udp::UdpDatagram;

use std::fmt;

/// IANA protocol numbers used in the workspace.
pub mod proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// ICMPv6.
    pub const ICMPV6: u8 = 58;
}

/// Errors from parsing wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// IP version field was not 6.
    BadVersion(u8),
    /// Checksum verification failed.
    BadChecksum,
    /// A length field disagrees with the buffer.
    BadLength,
    /// A field held an unsupported or malformed value.
    Malformed(&'static str),
}

impl fmt::Display for PacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PacketError::Truncated => write!(f, "truncated packet"),
            PacketError::BadVersion(v) => write!(f, "bad IP version {v}"),
            PacketError::BadChecksum => write!(f, "checksum mismatch"),
            PacketError::BadLength => write!(f, "length field mismatch"),
            PacketError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for PacketError {}

/// The parsed transport-layer payload of an IPv6 datagram, over borrowed
/// bytes: what a prober or the simulator reads off a frame without
/// copying it ([`Datagram::parse_transport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportView<'a> {
    /// Icmpv6.
    Icmpv6(Icmpv6Message<&'a [u8]>),
    /// A TCP segment.
    Tcp(TcpView<'a>),
    /// A UDP datagram.
    Udp(UdpDatagram<&'a [u8]>),
    /// Unknown next-header: raw payload.
    Other(u8, &'a [u8]),
}

impl<'a> TransportView<'a> {
    /// Parse the payload of `header` according to its next-header field,
    /// verifying transport checksums against the pseudo-header: the one
    /// transport parser.
    #[inline]
    pub fn parse(header: &Ipv6Header, payload: &'a [u8]) -> Result<Self, PacketError> {
        let (src, dst) = (header.src, header.dst);
        Ok(match header.next_header {
            proto::ICMPV6 => TransportView::Icmpv6(Icmpv6Message::view(src, dst, payload)?),
            proto::TCP => TransportView::Tcp(TcpView::parse(src, dst, payload)?),
            proto::UDP => TransportView::Udp(UdpDatagram::view(src, dst, payload)?),
            other => TransportView::Other(other, payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    #[test]
    fn transport_dispatch() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let echo = Icmpv6Message::EchoRequest {
            ident: 7,
            seq: 1,
            payload: &[1, 2, 3][..],
        };
        let mut bytes = Vec::new();
        Datagram::emit_with(&mut bytes, src, dst, proto::ICMPV6, 64, |out| {
            echo.emit_into(src, dst, out)
        });
        match Datagram::parse_transport(&bytes).unwrap().1 {
            TransportView::Icmpv6(m) => assert_eq!(m, echo),
            other => panic!("wrong transport: {other:?}"),
        }
    }

    #[test]
    fn unknown_next_header_preserved() {
        let src: Ipv6Addr = "::1".parse().unwrap();
        let header = Ipv6Header {
            src,
            dst: src,
            next_header: 99,
            hop_limit: 1,
            traffic_class: 0,
            flow_label: 0,
            payload_len: 2,
        };
        assert_eq!(
            TransportView::parse(&header, &[0xaa, 0xbb]),
            Ok(TransportView::Other(99, &[0xaa, 0xbb][..]))
        );
    }
}
