//! UDP datagrams (RFC 768 over IPv6 per RFC 8200).

use crate::checksum::{transport_checksum, verify_transport};
use crate::{proto, PacketError};
use std::net::Ipv6Addr;

/// A UDP datagram (header + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Build a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Encode with checksum (mandatory over IPv6; an all-zero checksum is
    /// transmitted as 0xffff per RFC 8200 §8.1).
    pub fn emit(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.payload.len());
        self.emit_into(src, dst, &mut out);
        out
    }

    /// [`UdpDatagram::emit`], appended to `out` (the checksum covers only
    /// the appended datagram).
    pub fn emit_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        emit_with(self.src_port, self.dst_port, src, dst, out, |out| {
            out.extend_from_slice(&self.payload);
        });
    }

    /// Parse and verify checksum + length.
    pub fn parse(src: Ipv6Addr, dst: Ipv6Addr, buf: &[u8]) -> Result<UdpDatagram, PacketError> {
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
            payload: buf[8..].to_vec(),
        })
    }
}

/// Append a UDP datagram whose payload is whatever `payload` appends to
/// `out`: what [`UdpDatagram::emit_into`] does, for a prober that builds
/// each payload in place and has no reason to own a copy of it.
pub fn emit_with(
    src_port: u16,
    dst_port: u16,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&[0; 4]); // length and checksum, patched below
    payload(out);
    let len = out.len() - start;
    out[start + 4..start + 6].copy_from_slice(&(len as u16).to_be_bytes());
    let mut ck = transport_checksum(src, dst, proto::UDP, &out[start..]);
    if ck == 0 {
        ck = 0xffff;
    }
    out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
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

    #[test]
    fn roundtrip() {
        let (s, d) = pair();
        let u = UdpDatagram::new(40000, 53, b"query".to_vec());
        let bytes = u.emit(s, d);
        assert_eq!(UdpDatagram::parse(s, d, &bytes).unwrap(), u);
    }

    #[test]
    fn length_enforced() {
        let (s, d) = pair();
        let mut bytes = UdpDatagram::new(1, 2, vec![7; 4]).emit(s, d);
        bytes.push(0);
        assert_eq!(
            UdpDatagram::parse(s, d, &bytes),
            Err(PacketError::BadLength)
        );
    }

    #[test]
    fn checksum_enforced() {
        let (s, d) = pair();
        let mut bytes = UdpDatagram::new(1, 2, vec![7; 4]).emit(s, d);
        bytes[8] ^= 0xff;
        assert_eq!(
            UdpDatagram::parse(s, d, &bytes),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn empty_payload_ok() {
        let (s, d) = pair();
        let u = UdpDatagram::new(9, 9, vec![]);
        assert_eq!(UdpDatagram::parse(s, d, &u.emit(s, d)).unwrap(), u);
    }
}
