//! TCP segments with full options support.
//!
//! §5.4 of the paper fingerprints hosts by sending SYNs carrying the
//! commonly supported option set `MSS-SACK-TS-WS` (with MSS and window
//! scale set to 1 to provoke distinctive replies) and comparing the
//! *optionstext* — the ordered option/padding string — plus option values
//! across addresses of a prefix.

use crate::checksum::{transport_checksum, verify_transport};
use crate::{proto, PacketError};
use std::fmt;
use std::net::Ipv6Addr;

/// TCP flag bits (lower 8 bits of the flags field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: no more data from sender.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Psh.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// Acknowledgment number.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer significant.
    pub const URG: TcpFlags = TcpFlags(0x20);
    /// SYN|ACK, the fingerprint-bearing reply.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// RST|ACK, the "port closed" reply.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);

    /// Does `self` contain all bits of `other`?
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A TCP option as it appears on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// End of option list (kind 0).
    Eol,
    /// No-operation padding (kind 1).
    Nop,
    /// Maximum segment size (kind 2).
    Mss(u16),
    /// Window scale (kind 3).
    WindowScale(u8),
    /// SACK permitted (kind 4).
    SackPermitted,
    /// Timestamps (kind 8): value and echo reply.
    Timestamps {
        /// Sender timestamp value.
        tsval: u32,
        /// Echoed peer timestamp.
        tsecr: u32,
    },
    /// Anything else, preserved raw.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Option data (between length byte and next option).
        data: Vec<u8>,
    },
}

impl TcpOption {
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Eol | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    /// The *optionstext* token (§5.4): order-preserving, value-free.
    pub fn text_token(&self) -> String {
        match self {
            TcpOption::Eol => "E".to_string(),
            TcpOption::Nop => "N".to_string(),
            TcpOption::Mss(_) => "MSS".to_string(),
            TcpOption::WindowScale(_) => "WS".to_string(),
            TcpOption::SackPermitted => "SACK".to_string(),
            TcpOption::Timestamps { .. } => "TS".to_string(),
            TcpOption::Unknown { kind, .. } => format!("U{kind}"),
        }
    }

    fn emit_into(&self, out: &mut Vec<u8>) {
        match self {
            TcpOption::Eol => out.push(0),
            TcpOption::Nop => out.push(1),
            TcpOption::Mss(v) => {
                out.extend_from_slice(&[2, 4]);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(v) => out.extend_from_slice(&[3, 3, *v]),
            TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
            TcpOption::Timestamps { tsval, tsecr } => {
                out.extend_from_slice(&[8, 10]);
                out.extend_from_slice(&tsval.to_be_bytes());
                out.extend_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Unknown { kind, data } => {
                out.push(*kind);
                out.push((data.len() + 2) as u8);
                out.extend_from_slice(data);
            }
        }
    }

    /// Parse all options from an options block. Stops at EOL. Malformed
    /// lengths yield `PacketError::Malformed`.
    pub fn parse_all(mut buf: &[u8]) -> Result<Vec<TcpOption>, PacketError> {
        // Options average four bytes (the §5.4 probe set is 5 in 20):
        // sized once for the common case, none for an empty block.
        let mut out = Vec::with_capacity(buf.len().div_ceil(4));
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
                    let opt = match (kind, data.len()) {
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
                    };
                    out.push(opt);
                    buf = &buf[len..];
                }
            }
        }
        Ok(out)
    }
}

/// Join option tokens into the optionstext string, e.g. `MSS-SACK-TS-N-WS`.
pub fn options_text(options: &[TcpOption]) -> String {
    options
        .iter()
        .map(TcpOption::text_token)
        .collect::<Vec<_>>()
        .join("-")
}

/// A TCP segment (header + payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// TCP flag bits.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Urgent pointer (unused by probes).
    pub urgent: u16,
    /// TCP options in wire order.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// A bare SYN probe.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// The paper's fingerprinting SYN: options `MSS-SACK-TS-N-WS` with MSS
    /// and window scale set to 1 to trigger differing replies (§5.4).
    pub fn syn_with_options(src_port: u16, dst_port: u16, seq: u32, tsval: u32) -> Self {
        let mut s = TcpSegment::syn(src_port, dst_port, seq);
        s.options = vec![
            TcpOption::Mss(1),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(1),
        ];
        s
    }

    /// The options block length, padded to a multiple of 4.
    fn options_len_padded(&self) -> usize {
        let raw: usize = self.options.iter().map(TcpOption::wire_len).sum();
        raw.div_ceil(4) * 4
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        20 + self.options_len_padded()
    }

    /// Encode with checksum for transmission between `src` and `dst`.
    ///
    /// # Panics
    /// Panics if the padded options exceed the 40-byte TCP limit.
    pub fn emit(&self, src: Ipv6Addr, dst: Ipv6Addr) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.header_len() + self.payload.len());
        self.emit_into(src, dst, &mut out);
        out
    }

    /// [`TcpSegment::emit`], appended to `out` (the checksum covers only
    /// the appended segment).
    ///
    /// # Panics
    /// Panics if the padded options exceed the 40-byte TCP limit.
    pub fn emit_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        let header_len = self.header_len();
        assert!(header_len <= 60, "TCP options exceed 40 bytes");
        let start = out.len();
        out.extend_from_slice(&self.src_port.to_be_bytes());
        out.extend_from_slice(&self.dst_port.to_be_bytes());
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.ack.to_be_bytes());
        let offset_flags = ((header_len as u16 / 4) << 12) | u16::from(self.flags.0);
        out.extend_from_slice(&offset_flags.to_be_bytes());
        out.extend_from_slice(&self.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.urgent.to_be_bytes());
        for opt in &self.options {
            opt.emit_into(out);
        }
        out.resize(start + header_len, 0); // zero padding after options
        out.extend_from_slice(&self.payload);
        let ck = transport_checksum(src, dst, proto::TCP, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Parse and verify the checksum.
    pub fn parse(src: Ipv6Addr, dst: Ipv6Addr, buf: &[u8]) -> Result<TcpSegment, PacketError> {
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
        let mut options = TcpOption::parse_all(&buf[20..header_len])?;
        // Strip trailing zero padding artifacts: an EOL followed by nothing.
        while options.last() == Some(&TcpOption::Eol) {
            options.pop();
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags((offset_flags & 0xff) as u8),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            urgent: u16::from_be_bytes([buf[18], buf[19]]),
            options,
            payload: buf[header_len..].to_vec(),
        })
    }

    /// Fetch the MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// Fetch the window-scale option value, if present.
    pub fn window_scale(&self) -> Option<u8> {
        self.options.iter().find_map(|o| match o {
            TcpOption::WindowScale(v) => Some(*v),
            _ => None,
        })
    }

    /// Fetch the timestamps option, if present.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
            _ => None,
        })
    }

    /// The optionstext of this segment.
    pub fn options_text(&self) -> String {
        options_text(&self.options)
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

    #[test]
    fn bare_syn_roundtrip() {
        let (s, d) = pair();
        let seg = TcpSegment::syn(54321, 80, 0xdeadbeef);
        let bytes = seg.emit(s, d);
        assert_eq!(bytes.len(), 20);
        let parsed = TcpSegment::parse(s, d, &bytes).unwrap();
        assert_eq!(parsed, seg);
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(!parsed.flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn options_roundtrip_preserves_order() {
        let (s, d) = pair();
        let seg = TcpSegment::syn_with_options(1000, 443, 1, 777);
        let bytes = seg.emit(s, d);
        let parsed = TcpSegment::parse(s, d, &bytes).unwrap();
        assert_eq!(parsed.options, seg.options);
        assert_eq!(parsed.options_text(), "MSS-SACK-TS-N-WS");
        assert_eq!(parsed.mss(), Some(1));
        assert_eq!(parsed.window_scale(), Some(1));
        assert_eq!(parsed.timestamps(), Some((777, 0)));
    }

    #[test]
    fn optionstext_paper_example() {
        // "MSS-SACK-TS-N-WS would represent a packet that set the Maximum
        // Segment Size, Selective ACK, Timestamps, a padding byte, and
        // Window Scale options."
        let opts = vec![
            TcpOption::Mss(1440),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval: 1, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(7),
        ];
        assert_eq!(options_text(&opts), "MSS-SACK-TS-N-WS");
    }

    #[test]
    fn payload_and_flags() {
        let (s, d) = pair();
        let seg = TcpSegment {
            src_port: 80,
            dst_port: 54321,
            seq: 1,
            ack: 2,
            flags: TcpFlags::SYN_ACK,
            window: 14600,
            urgent: 0,
            options: vec![TcpOption::Mss(1440)],
            payload: b"hello".to_vec(),
        };
        let parsed = TcpSegment::parse(s, d, &seg.emit(s, d)).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(parsed.flags.to_string(), "SYN|ACK");
    }

    #[test]
    fn checksum_enforced() {
        let (s, d) = pair();
        let mut bytes = TcpSegment::syn(1, 2, 3).emit(s, d);
        bytes[4] ^= 1;
        assert_eq!(
            TcpSegment::parse(s, d, &bytes),
            Err(PacketError::BadChecksum)
        );
    }

    #[test]
    fn malformed_option_length_rejected() {
        assert!(TcpOption::parse_all(&[2, 10, 0]).is_err()); // claims 10, has 3
        assert!(TcpOption::parse_all(&[2, 1]).is_err()); // len < 2
        assert!(TcpOption::parse_all(&[2]).is_err()); // no length byte
    }

    #[test]
    fn unknown_option_preserved() {
        let opts = TcpOption::parse_all(&[254, 4, 0xaa, 0xbb]).unwrap();
        assert_eq!(
            opts,
            vec![TcpOption::Unknown {
                kind: 254,
                data: vec![0xaa, 0xbb]
            }]
        );
        assert_eq!(options_text(&opts), "U254");
    }

    #[test]
    fn eol_stops_parsing() {
        let opts = TcpOption::parse_all(&[1, 0, 2, 4, 5, 0xb4]).unwrap();
        assert_eq!(opts, vec![TcpOption::Nop, TcpOption::Eol]);
    }

    #[test]
    fn header_len_padding() {
        let seg = TcpSegment {
            options: vec![TcpOption::WindowScale(1)], // 3 bytes -> pad to 4
            ..TcpSegment::syn(1, 2, 3)
        };
        assert_eq!(seg.header_len(), 24);
    }
}
