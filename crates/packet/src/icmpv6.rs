//! ICMPv6 messages (RFC 4443): the subset active measurement needs.

use crate::checksum::{transport_checksum, verify_transport};
use crate::{proto, PacketError};
use std::net::Ipv6Addr;

/// ICMPv6 type numbers.
pub mod types {
    /// Destination unreachable.
    pub(crate) const DEST_UNREACHABLE: u8 = 1;
    /// Time (hop limit) exceeded in transit.
    pub(crate) const TIME_EXCEEDED: u8 = 3;
    /// Echo request (ping).
    pub const ECHO_REQUEST: u8 = 128;
    /// Echo reply (pong).
    pub const ECHO_REPLY: u8 = 129;
}

/// Destination-unreachable codes (RFC 4443 §3.1).
pub mod unreach_code {
    /// Port unreachable.
    pub const PORT_UNREACHABLE: u8 = 4;
}

/// An ICMPv6 message, generic over the bytes it carries:
/// [`Icmpv6Message::view`] yields an `Icmpv6Message<&[u8]>` borrowing
/// them from the frame it parsed, and [`Icmpv6Message::emit_into`]
/// writes any form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Icmpv6Message<B = Vec<u8>> {
    /// Echo request with identifier, sequence number, and payload.
    EchoRequest {
        /// Echo identifier (zmap validation field).
        ident: u16,
        /// Echo sequence number.
        seq: u16,
        /// Opaque payload bytes, echoed back by the peer.
        payload: B,
    },
    /// Echo reply mirroring the request's fields.
    EchoReply {
        /// Echoed identifier.
        ident: u16,
        /// Echoed sequence number.
        seq: u16,
        /// Echoed payload.
        payload: B,
    },
    /// Destination unreachable; carries the leading bytes of the invoking
    /// packet (used by traceroute and UDP port-closed detection).
    DestUnreachable {
        /// Unreachable code (see [`unreach_code`]).
        code: u8,
        /// Leading bytes of the packet that triggered the error.
        invoking: B,
    },
    /// Hop limit exceeded in transit; carries the invoking packet — the
    /// bread and butter of traceroute.
    TimeExceeded {
        /// Time-exceeded code (0 = hop limit exceeded in transit).
        code: u8,
        /// Leading bytes of the packet that triggered the error.
        invoking: B,
    },
    /// Any other type, preserved raw.
    Other {
        /// Raw ICMPv6 type.
        icmp_type: u8,
        /// Raw code.
        code: u8,
        /// Message body after the 4-byte header.
        body: B,
    },
}

/// Append one message — type, code, checksum, then `parts` in order —
/// to `out`, checksummed for transmission between `src` and `dst`.
fn emit_parts(
    msg_type: u8,
    code: u8,
    parts: [&[u8]; 2],
    src: Ipv6Addr,
    dst: Ipv6Addr,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    out.extend_from_slice(&[msg_type, code, 0, 0]);
    for part in parts {
        out.extend_from_slice(part);
    }
    let ck = transport_checksum(src, dst, proto::ICMPV6, &out[start..]);
    out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
}

/// Append an echo request or reply (`msg_type`) built from borrowed
/// fields: what [`Icmpv6Message::emit_into`] does for the echo variants,
/// for a prober that sends the same constant payload in every probe and
/// has no reason to own a copy of it per message.
pub fn emit_echo(
    msg_type: u8,
    ident: u16,
    seq: u16,
    payload: &[u8],
    src: Ipv6Addr,
    dst: Ipv6Addr,
    out: &mut Vec<u8>,
) {
    let [i0, i1] = ident.to_be_bytes();
    let [s0, s1] = seq.to_be_bytes();
    emit_parts(msg_type, 0, [&[i0, i1, s0, s1], payload], src, dst, out);
}

impl<B: AsRef<[u8]>> Icmpv6Message<B> {
    /// The ICMPv6 type byte.
    pub(crate) fn msg_type(&self) -> u8 {
        match self {
            Icmpv6Message::EchoRequest { .. } => types::ECHO_REQUEST,
            Icmpv6Message::EchoReply { .. } => types::ECHO_REPLY,
            Icmpv6Message::DestUnreachable { .. } => types::DEST_UNREACHABLE,
            Icmpv6Message::TimeExceeded { .. } => types::TIME_EXCEEDED,
            Icmpv6Message::Other { icmp_type, .. } => *icmp_type,
        }
    }

    /// Append the message to `out`, checksummed for transmission between
    /// `src` and `dst` (the checksum covers only the appended message).
    pub fn emit_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        match self {
            Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload,
            }
            | Icmpv6Message::EchoReply {
                ident,
                seq,
                payload,
            } => emit_echo(
                self.msg_type(),
                *ident,
                *seq,
                payload.as_ref(),
                src,
                dst,
                out,
            ),
            Icmpv6Message::DestUnreachable { code, invoking }
            | Icmpv6Message::TimeExceeded { code, invoking } => {
                // The second header word is unused.
                let parts = [&[0; 4], invoking.as_ref()];
                emit_parts(self.msg_type(), *code, parts, src, dst, out);
            }
            Icmpv6Message::Other {
                icmp_type,
                code,
                body,
            } => emit_parts(*icmp_type, *code, [&[], body.as_ref()], src, dst, out),
        }
    }
}

impl<'a> Icmpv6Message<&'a [u8]> {
    /// Parse and verify the checksum, borrowing the variable-length
    /// fields from `buf`: the one ICMPv6 parser.
    #[inline]
    pub fn view(src: Ipv6Addr, dst: Ipv6Addr, buf: &'a [u8]) -> Result<Self, PacketError> {
        if buf.len() < 4 {
            return Err(PacketError::Truncated);
        }
        if !verify_transport(src, dst, proto::ICMPV6, buf) {
            return Err(PacketError::BadChecksum);
        }
        let (icmp_type, code) = (buf[0], buf[1]);
        match icmp_type {
            types::ECHO_REQUEST | types::ECHO_REPLY => {
                if buf.len() < 8 {
                    return Err(PacketError::Truncated);
                }
                let ident = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                let payload = &buf[8..];
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
            types::DEST_UNREACHABLE | types::TIME_EXCEEDED => {
                if buf.len() < 8 {
                    return Err(PacketError::Truncated);
                }
                let invoking = &buf[8..];
                Ok(if icmp_type == types::DEST_UNREACHABLE {
                    Icmpv6Message::DestUnreachable { code, invoking }
                } else {
                    Icmpv6Message::TimeExceeded { code, invoking }
                })
            }
            _ => Ok(Icmpv6Message::Other {
                icmp_type,
                code,
                body: &buf[4..],
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
        )
    }

    fn emit(msg: &Icmpv6Message<&[u8]>) -> Vec<u8> {
        let (s, d) = pair();
        let mut bytes = Vec::new();
        msg.emit_into(s, d, &mut bytes);
        bytes
    }

    #[test]
    fn echo_roundtrip() {
        let (s, d) = pair();
        let msg = Icmpv6Message::EchoRequest {
            ident: 0xbeef,
            seq: 42,
            payload: &b"expanse"[..],
        };
        let bytes = emit(&msg);
        assert_eq!(bytes[0], 128);
        assert_eq!(Icmpv6Message::view(s, d, &bytes), Ok(msg));
    }

    #[test]
    fn reply_roundtrip() {
        let (s, d) = pair();
        let msg = Icmpv6Message::EchoReply {
            ident: 1,
            seq: 2,
            payload: &[][..],
        };
        assert_eq!(Icmpv6Message::view(s, d, &emit(&msg)), Ok(msg));
    }

    #[test]
    fn time_exceeded_carries_invoking_packet() {
        let (s, d) = pair();
        let invoking = [0x60, 0, 0, 0, 0, 0];
        let bytes = emit(&Icmpv6Message::TimeExceeded {
            code: 0,
            invoking: &invoking,
        });
        match Icmpv6Message::view(s, d, &bytes).unwrap() {
            Icmpv6Message::TimeExceeded {
                code: 0,
                invoking: inv,
            } => {
                assert_eq!(inv, invoking)
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn checksum_enforced() {
        let (s, d) = pair();
        let msg = Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: &[1, 2, 3, 4][..],
        };
        let mut bytes = emit(&msg);
        bytes[9] ^= 0x01;
        assert_eq!(
            Icmpv6Message::view(s, d, &bytes),
            Err(PacketError::BadChecksum)
        );
        // Also: valid bytes but wrong addresses (checksum covers them).
        let bytes = emit(&msg);
        let e: Ipv6Addr = "2001:db8::3".parse().unwrap();
        assert_eq!(
            Icmpv6Message::view(s, e, &bytes),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn other_type_preserved() {
        let (s, d) = pair();
        let msg = Icmpv6Message::Other {
            icmp_type: 135, // neighbor solicitation
            code: 0,
            body: &[9, 9][..],
        };
        assert_eq!(Icmpv6Message::view(s, d, &emit(&msg)), Ok(msg));
    }
}
