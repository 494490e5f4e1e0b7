//! IPv6/ICMPv6/TCP/UDP wire formats for the `expanse` toolkit.
//!
//! The probers (`expanse-zmap6`, `expanse-scamper6`) build **byte-exact
//! packets** and the network simulator parses them — the same contract a
//! raw socket would impose. This keeps checksum, TCP-option, and
//! fingerprinting code honest instead of mocked.
//!
//! Design follows the smoltcp idiom of explicit representation structs with
//! `emit`/`parse` pairs. Each transport has one parser, and it borrows:
//! [`Datagram::parse_transport`] yields a [`TransportView`] whose
//! variable-length fields point into the frame, with every length and
//! checksum check done; the owned representations ([`Transport`] and the
//! types under it, holding [`Vec<u8>`]s) are that view's `to_owned()`.
//! Emission is as frugal: every `emit` has an `emit_into` that appends to
//! a caller's buffer, and [`Datagram::emit_with`] / [`Datagram::append_with`]
//! frame one in place. A probe's round trip through the simulator —
//! emit, parse, answer, parse the answer — therefore copies nothing onto
//! the heap, which matters because a scan sends hundreds of thousands of
//! probes a virtual day.
//!
//! Layers:
//! - [`ipv6`] — fixed 40-byte IPv6 header + full datagram framing
//! - [`icmpv6`] — echo request/reply, destination unreachable, time exceeded
//! - [`tcp`] — segments with full option support (MSS, WScale, SACK-permitted,
//!   timestamps) — §5.4 of the paper fingerprints aliased prefixes via the
//!   `MSS-SACK-TS-WS` option set
//! - [`udp`] — datagrams
//! - [`dns`] — minimal DNS queries/responses for the UDP/53 probe
//! - [`quic`] — minimal QUIC Initial / Version Negotiation for UDP/443
//! - [`checksum`] — the Internet checksum with the IPv6 pseudo-header

pub mod checksum;
pub mod dns;
pub mod icmpv6;
pub mod ipv6;
pub mod probe;
pub mod quic;
pub mod tcp;
pub mod udp;

#[cfg(test)]
mod oracle;

pub use icmpv6::Icmpv6Message;
pub use ipv6::{Datagram, Ipv6Header};
pub use probe::{ProtoSet, Protocol};
pub use tcp::{TcpFlags, TcpOption, TcpOptionBlock, TcpSegment, TcpView};
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

/// Parsed transport-layer payload of an IPv6 datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// Icmpv6.
    Icmpv6(Icmpv6Message),
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// Unknown next-header: raw payload preserved.
    Other(u8, Vec<u8>),
}

impl Transport {
    /// Parse the payload of `header` according to its next-header field,
    /// verifying transport checksums against the pseudo-header.
    pub fn parse(header: &Ipv6Header, payload: &[u8]) -> Result<Transport, PacketError> {
        TransportView::parse(header, payload).map(|t| t.to_owned())
    }
}

/// [`Transport`] over borrowed bytes: what a prober or the simulator
/// reads off a frame without copying it ([`Datagram::parse_transport`]).
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

    /// The owned payload: every borrowed field copied out.
    pub fn to_owned(&self) -> Transport {
        match self {
            TransportView::Icmpv6(m) => Transport::Icmpv6(m.to_owned()),
            TransportView::Tcp(s) => Transport::Tcp(s.to_owned()),
            TransportView::Udp(u) => Transport::Udp(u.to_owned()),
            TransportView::Other(nh, payload) => Transport::Other(*nh, payload.to_vec()),
        }
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
            payload: vec![1, 2, 3],
        };
        let dgram = Datagram::icmpv6(src, dst, 64, echo.clone());
        let bytes = dgram.emit();
        let parsed = Datagram::parse(&bytes).unwrap();
        match Transport::parse(&parsed.header, &parsed.payload).unwrap() {
            Transport::Icmpv6(m) => assert_eq!(m, echo),
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
        match Transport::parse(&header, &[0xaa, 0xbb]).unwrap() {
            Transport::Other(99, p) => assert_eq!(p, vec![0xaa, 0xbb]),
            other => panic!("wrong transport: {other:?}"),
        }
    }
}
