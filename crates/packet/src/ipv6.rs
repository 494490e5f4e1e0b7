//! The fixed IPv6 header (RFC 8200) and full-datagram framing.

use crate::{PacketError, TransportView};
use std::net::Ipv6Addr;

/// Length of the fixed IPv6 header in bytes.
pub(crate) const HEADER_LEN: usize = 40;

/// The fixed IPv6 header. Extension headers are not modelled — the paper's
/// probes never emit them and the simulator never needs them (documented
/// omission, smoltcp-style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// IANA next-header value.
    pub next_header: u8,
    /// Remaining hop budget.
    pub hop_limit: u8,
    /// Traffic class byte.
    pub traffic_class: u8,
    /// 20-bit flow label.
    pub flow_label: u32,
    /// Payload length in bytes.
    pub payload_len: u16,
}

impl Ipv6Header {
    /// Emit the 40 header bytes.
    #[inline]
    pub(crate) fn emit(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        let vtf: u32 =
            (6u32 << 28) | (u32::from(self.traffic_class) << 20) | (self.flow_label & 0x000f_ffff);
        b[0..4].copy_from_slice(&vtf.to_be_bytes());
        b[4..6].copy_from_slice(&self.payload_len.to_be_bytes());
        b[6] = self.next_header;
        b[7] = self.hop_limit;
        b[8..24].copy_from_slice(&self.src.octets());
        b[24..40].copy_from_slice(&self.dst.octets());
        b
    }

    /// Parse the fixed header from the front of `buf`.
    #[inline]
    pub fn parse(buf: &[u8]) -> Result<Ipv6Header, PacketError> {
        if buf.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let vtf = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let version = (vtf >> 28) as u8;
        if version != 6 {
            return Err(PacketError::BadVersion(version));
        }
        let mut src = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        let mut dst = [0u8; 16];
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6Header {
            src: Ipv6Addr::from(src),
            dst: Ipv6Addr::from(dst),
            next_header: buf[6],
            hop_limit: buf[7],
            traffic_class: ((vtf >> 20) & 0xff) as u8,
            flow_label: vtf & 0x000f_ffff,
            payload_len: u16::from_be_bytes([buf[4], buf[5]]),
        })
    }
}

/// Full-datagram framing: the fixed header written around a transport
/// body in a caller's buffer, and read back off a frame. Never
/// constructed — a datagram lives as bytes.
pub enum Datagram {}

impl Datagram {
    /// Default hop limit for probe packets (matches Linux default).
    pub const DEFAULT_HOP_LIMIT: u8 = 64;

    /// Emit a whole frame into a reused buffer: `frame` is cleared, the
    /// fixed header written, `body` appends the transport bytes (an
    /// `emit_into` of this crate), and the payload length is patched in —
    /// a prober sends hundreds of thousands of probes a scan from one
    /// buffer.
    pub fn emit_with(
        frame: &mut Vec<u8>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        next_header: u8,
        hop_limit: u8,
        body: impl FnOnce(&mut Vec<u8>),
    ) {
        frame.clear();
        Datagram::append_with(frame, src, dst, next_header, hop_limit, body);
    }

    /// [`Datagram::emit_with`] without the clear: the frame is appended
    /// to whatever `out` already holds (one arena of many frames).
    /// Returns what `body` returns.
    pub fn append_with<R>(
        out: &mut Vec<u8>,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        next_header: u8,
        hop_limit: u8,
        body: impl FnOnce(&mut Vec<u8>) -> R,
    ) -> R {
        let start = out.len();
        out.extend_from_slice(&[0; HEADER_LEN]);
        let r = body(out);
        let payload_len = u16::try_from(out.len() - start - HEADER_LEN)
            .expect("payload exceeds 64 KiB (jumbograms unsupported)");
        let header = Ipv6Header {
            src,
            dst,
            next_header,
            hop_limit,
            traffic_class: 0,
            flow_label: 0,
            payload_len,
        };
        out[start..start + HEADER_LEN].copy_from_slice(&header.emit());
        r
    }

    /// Parse a full datagram and decode its transport payload in one
    /// step, straight off the borrowed frame: the payload length must
    /// match the buffer exactly (the simulator never fragments) and the
    /// transport checksum must verify. Nothing is copied; the view's
    /// variable-length fields point into `buf`.
    #[inline]
    pub fn parse_transport(buf: &[u8]) -> Result<(Ipv6Header, TransportView<'_>), PacketError> {
        let header = Ipv6Header::parse(buf)?;
        let body = &buf[HEADER_LEN..];
        if body.len() != usize::from(header.payload_len) {
            return Err(PacketError::BadLength);
        }
        Ok((header, TransportView::parse(&header, body)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::transport_frames;
    use crate::{proto, Icmpv6Message, TcpOptionBlock, TcpView, UdpDatagram};

    fn addr(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let h = Ipv6Header {
            src: addr("2001:db8::1"),
            dst: addr("2001:db8::2"),
            next_header: 58,
            hop_limit: 64,
            traffic_class: 0xa5,
            flow_label: 0xbeef,
            payload_len: 123,
        };
        let bytes = h.emit();
        assert_eq!(bytes.len(), 40);
        assert_eq!(bytes[0] >> 4, 6);
        let parsed = Ipv6Header::parse(&bytes).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn rejects_bad_version() {
        let h = Ipv6Header {
            src: addr("::1"),
            dst: addr("::2"),
            next_header: 6,
            hop_limit: 1,
            traffic_class: 0,
            flow_label: 0,
            payload_len: 0,
        };
        let mut bytes = h.emit();
        bytes[0] = 0x45; // IPv4-style version nibble
        assert_eq!(Ipv6Header::parse(&bytes), Err(PacketError::BadVersion(4)));
    }

    #[test]
    fn rejects_truncated() {
        assert_eq!(Ipv6Header::parse(&[0u8; 10]), Err(PacketError::Truncated));
    }

    #[test]
    fn datagram_length_must_match() {
        let mut bytes = Vec::new();
        Datagram::emit_with(&mut bytes, addr("::1"), addr("::2"), 99, 64, |out| {
            out.extend_from_slice(&[1, 2, 3])
        });
        let (h, t) = Datagram::parse_transport(&bytes).unwrap();
        assert_eq!(h.payload_len, 3);
        assert_eq!(t, TransportView::Other(99, &[1, 2, 3]));
        bytes.push(0); // trailing junk
        assert_eq!(
            Datagram::parse_transport(&bytes),
            Err(PacketError::BadLength)
        );
    }

    #[test]
    fn parse_transport_agrees_with_two_step_parse() {
        for (name, frame) in transport_frames() {
            let h = Ipv6Header::parse(&frame).unwrap();
            let t = TransportView::parse(&h, &frame[HEADER_LEN..]).unwrap();
            assert_eq!(Datagram::parse_transport(&frame), Ok((h, t)), "{name}");
        }
    }

    #[test]
    fn parse_transport_length_must_match() {
        for (name, frame) in transport_frames() {
            let mut long = frame.clone();
            long.push(0); // trailing byte
            assert_eq!(
                Datagram::parse_transport(&long),
                Err(PacketError::BadLength),
                "{name}: trailing byte"
            );
            let short = &frame[..frame.len() - 1]; // body shorter than payload_len
            assert_eq!(
                Datagram::parse_transport(short),
                Err(PacketError::BadLength),
                "{name}: short body"
            );
        }
    }

    #[test]
    fn parse_transport_verifies_checksum() {
        for (name, mut frame) in transport_frames() {
            let last = frame.len() - 1;
            frame[last] ^= 0x01; // a payload bit
            assert_eq!(
                Datagram::parse_transport(&frame),
                Err(PacketError::BadChecksum),
                "{name}"
            );
        }
    }

    #[test]
    fn emit_with_frames_each_transport_in_place() {
        let (s, d) = (addr("2001:db8::1"), addr("2001:db8::2"));
        let echo = Icmpv6Message::EchoRequest {
            ident: 7,
            seq: 9,
            payload: &b"expanse"[..],
        };
        let options = TcpOptionBlock::fingerprint(2);
        let seg = TcpView::syn(40000, 80, 1, options.as_bytes());
        let udp = UdpDatagram::new(40000, 53, &b"query"[..]);
        // One buffer across all of them: each emit starts from a clean frame.
        let mut frame = vec![0xaa; 7];
        let check = |frame: &[u8], next_header, hop_limit, want: TransportView<'_>| {
            let header = Ipv6Header {
                src: s,
                dst: d,
                next_header,
                hop_limit,
                traffic_class: 0,
                flow_label: 0,
                payload_len: (frame.len() - HEADER_LEN) as u16,
            };
            assert_eq!(Datagram::parse_transport(frame), Ok((header, want)));
        };
        Datagram::emit_with(&mut frame, s, d, proto::ICMPV6, 64, |out| {
            echo.emit_into(s, d, out)
        });
        check(&frame, proto::ICMPV6, 64, TransportView::Icmpv6(echo));
        let from_message = frame.clone();
        Datagram::emit_with(&mut frame, s, d, proto::ICMPV6, 64, |out| {
            crate::icmpv6::emit_echo(128, 7, 9, b"expanse", s, d, out)
        });
        assert_eq!(frame, from_message, "emit_echo writes the echo message");
        Datagram::emit_with(&mut frame, s, d, proto::TCP, 63, |out| {
            seg.emit_into(s, d, out)
        });
        check(&frame, proto::TCP, 63, TransportView::Tcp(seg));
        Datagram::emit_with(&mut frame, s, d, proto::UDP, 62, |out| {
            udp.emit_into(s, d, out)
        });
        check(&frame, proto::UDP, 62, TransportView::Udp(udp));
        let udp_frame = frame;

        // Appended to an arena, each frame is what emit_with writes alone.
        let mut arena = vec![0xbb; 3];
        let tcp_end = Datagram::append_with(&mut arena, s, d, proto::TCP, 63, |out| {
            seg.emit_into(s, d, out);
            out.len()
        });
        Datagram::append_with(&mut arena, s, d, proto::UDP, 62, |out| {
            udp.emit_into(s, d, out)
        });
        check(&arena[3..tcp_end], proto::TCP, 63, TransportView::Tcp(seg));
        assert_eq!(arena[tcp_end..], udp_frame);
    }

    #[test]
    fn flow_label_masked_to_20_bits() {
        let h = Ipv6Header {
            src: addr("::1"),
            dst: addr("::2"),
            next_header: 6,
            hop_limit: 1,
            traffic_class: 0,
            flow_label: 0xfff_ffff, // wider than 20 bits
            payload_len: 0,
        };
        let parsed = Ipv6Header::parse(&h.emit()).unwrap();
        assert_eq!(parsed.flow_label, 0xf_ffff);
    }
}
