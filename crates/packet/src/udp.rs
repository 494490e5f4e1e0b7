//! UDP datagrams (RFC 768 over IPv6 per RFC 8200).

use crate::checksum::{transport_checksum, verify_transport};
use crate::{proto, PacketError};
use std::net::Ipv6Addr;

/// A UDP datagram (header + payload), generic over its payload bytes:
/// [`UdpDatagram::view`] yields a `UdpDatagram<&[u8]>` borrowing them
/// from the frame it parsed, and [`UdpDatagram::emit_into`] writes any
/// form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpDatagram<B = Vec<u8>> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: B,
}

impl<B> UdpDatagram<B> {
    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: B) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }
}

impl<B: AsRef<[u8]>> UdpDatagram<B> {
    /// Append the datagram to `out`, checksummed for transmission between
    /// `src` and `dst` (the checksum covers only the appended datagram;
    /// see [`emit_with`]).
    pub fn emit_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        emit_with(self.src_port, self.dst_port, src, dst, out, |out| {
            out.extend_from_slice(self.payload.as_ref());
        });
    }
}

impl<'a> UdpDatagram<&'a [u8]> {
    /// Parse and verify checksum + length, borrowing the payload from
    /// `buf`: the one UDP parser.
    #[inline]
    pub fn view(src: Ipv6Addr, dst: Ipv6Addr, buf: &'a [u8]) -> Result<Self, PacketError> {
        if buf.len() < 8 {
            return Err(PacketError::Truncated);
        }
        let len = usize::from(u16::from_be_bytes([buf[4], buf[5]]));
        if len != buf.len() {
            return Err(PacketError::BadLength);
        }
        if !verify_transport(src, dst, proto::UDP, buf) {
            return Err(PacketError::BadChecksum);
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            payload: &buf[8..],
        })
    }
}

/// Append a UDP datagram whose payload is whatever `payload` appends to
/// `out`, checksummed for transmission between `src` and `dst`
/// (mandatory over IPv6; an all-zero checksum is transmitted as 0xffff
/// per RFC 8200 §8.1): for a prober that builds each payload in place
/// and has no reason to own a copy of it. Returns what `payload`
/// returns.
pub fn emit_with<R>(
    src_port: u16,
    dst_port: u16,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> R,
) -> R {
    let start = out.len();
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&[0; 4]); // length and checksum, patched below
    let r = payload(out);
    let len = out.len() - start;
    out[start + 4..start + 6].copy_from_slice(&(len as u16).to_be_bytes());
    let mut ck = transport_checksum(src, dst, proto::UDP, &out[start..]);
    if ck == 0 {
        ck = 0xffff;
    }
    out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Ipv6Addr, Ipv6Addr) {
        (
            "2001:db8::1".parse().unwrap(),
            "2001:db8::53".parse().unwrap(),
        )
    }

    fn emit(u: &UdpDatagram<&[u8]>) -> Vec<u8> {
        let (s, d) = pair();
        let mut bytes = Vec::new();
        u.emit_into(s, d, &mut bytes);
        bytes
    }

    #[test]
    fn roundtrip() {
        let (s, d) = pair();
        let u = UdpDatagram::new(40000, 53, &b"query"[..]);
        assert_eq!(UdpDatagram::view(s, d, &emit(&u)), Ok(u));
    }

    #[test]
    fn length_enforced() {
        let (s, d) = pair();
        let mut bytes = emit(&UdpDatagram::new(1, 2, &[7; 4][..]));
        bytes.push(0);
        assert_eq!(UdpDatagram::view(s, d, &bytes), Err(PacketError::BadLength));
    }

    #[test]
    fn checksum_enforced() {
        let (s, d) = pair();
        let mut bytes = emit(&UdpDatagram::new(1, 2, &[7; 4][..]));
        bytes[8] ^= 0xff;
        assert_eq!(
            UdpDatagram::view(s, d, &bytes),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn empty_payload_ok() {
        let (s, d) = pair();
        let u = UdpDatagram::new(9, 9, &[][..]);
        assert_eq!(UdpDatagram::view(s, d, &emit(&u)), Ok(u));
    }
}
