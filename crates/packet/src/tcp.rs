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
    pub(crate) const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// Psh.
    pub(crate) const PSH: TcpFlags = TcpFlags(0x08);
    /// Acknowledgment number.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer significant.
    pub(crate) const URG: TcpFlags = TcpFlags(0x20);
    /// SYN|ACK, the fingerprint-bearing reply.
    pub const SYN_ACK: TcpFlags = TcpFlags(0x12);
    /// RST|ACK, the "port closed" reply.
    pub const RST_ACK: TcpFlags = TcpFlags(0x14);

    /// Does `self` contain all bits of `other`?
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
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

/// A TCP option as it appears on the wire, generic over the bytes of an
/// unknown option's data: parsing yields `TcpOption<&[u8]>` borrowing
/// them from the segment, and [`TcpOptionBlock::push`] writes any form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption<B = Vec<u8>> {
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
        data: B,
    },
}

/// One *optionstext* token (§5.4): a name, or `U` and an unknown kind.
#[derive(Debug, Clone, Copy)]
enum Token {
    Name(&'static str),
    Unknown(u8),
}

impl Token {
    /// Bytes the token renders to.
    fn len(self) -> usize {
        match self {
            Token::Name(name) => name.len(),
            Token::Unknown(kind) => 2 + usize::from(kind >= 10) + usize::from(kind >= 100),
        }
    }
}

impl<B: AsRef<[u8]>> TcpOption<B> {
    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Eol | TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Unknown { data, .. } => 2 + data.as_ref().len(),
        }
    }

    fn token(&self) -> Token {
        match self {
            TcpOption::Eol => Token::Name("E"),
            TcpOption::Nop => Token::Name("N"),
            TcpOption::Mss(_) => Token::Name("MSS"),
            TcpOption::WindowScale(_) => Token::Name("WS"),
            TcpOption::SackPermitted => Token::Name("SACK"),
            TcpOption::Timestamps { .. } => Token::Name("TS"),
            TcpOption::Unknown { kind, .. } => Token::Unknown(*kind),
        }
    }
}

/// The options of a block, decoded one at a time off the wire bytes; an
/// EOL is yielded and ends the walk, and so does the first malformed
/// option (as its error).
#[derive(Clone)]
struct RawOptions<'a>(&'a [u8]);

impl<'a> Iterator for RawOptions<'a> {
    type Item = Result<TcpOption<&'a [u8]>, PacketError>;

    fn next(&mut self) -> Option<Self::Item> {
        let buf = self.0;
        let &kind = buf.first()?;
        let (opt, len) = match kind {
            0 => (TcpOption::Eol, buf.len()),
            1 => (TcpOption::Nop, 1),
            _ => {
                let Some(&len) = buf.get(1) else {
                    self.0 = &[];
                    return Some(Err(PacketError::Malformed("tcp option header")));
                };
                let len = usize::from(len);
                if len < 2 || len > buf.len() {
                    self.0 = &[];
                    return Some(Err(PacketError::Malformed("tcp option length")));
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
                    _ => TcpOption::Unknown { kind, data },
                };
                (opt, len)
            }
        };
        self.0 = &buf[len..];
        Some(Ok(opt))
    }
}

/// An options block under construction, on the stack: wire bytes, at
/// most the 40 a TCP header has room for.
#[derive(Debug, Clone, Copy)]
pub struct TcpOptionBlock {
    bytes: [u8; 40],
    len: u8,
}

impl Default for TcpOptionBlock {
    fn default() -> Self {
        TcpOptionBlock {
            bytes: [0; 40],
            len: 0,
        }
    }
}

impl TcpOptionBlock {
    /// An empty block.
    pub fn new() -> Self {
        TcpOptionBlock::default()
    }

    /// Append one option's wire bytes.
    ///
    /// # Panics
    /// Panics if the block would exceed 40 bytes.
    pub fn push<B: AsRef<[u8]>>(&mut self, opt: &TcpOption<B>) {
        let start = usize::from(self.len);
        let end = start + opt.wire_len();
        assert!(end <= self.bytes.len(), "TCP options exceed 40 bytes");
        let out = &mut self.bytes[start..end];
        match opt {
            TcpOption::Eol => out[0] = 0,
            TcpOption::Nop => out[0] = 1,
            TcpOption::Mss(v) => {
                out[..2].copy_from_slice(&[2, 4]);
                out[2..].copy_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(v) => out.copy_from_slice(&[3, 3, *v]),
            TcpOption::SackPermitted => out.copy_from_slice(&[4, 2]),
            TcpOption::Timestamps { tsval, tsecr } => {
                out[..2].copy_from_slice(&[8, 10]);
                out[2..6].copy_from_slice(&tsval.to_be_bytes());
                out[6..].copy_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Unknown { kind, data } => {
                out[0] = *kind;
                out[1] = (data.as_ref().len() + 2) as u8;
                out[2..].copy_from_slice(data.as_ref());
            }
        }
        self.len = end as u8;
    }

    /// The wire bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// The options block of the paper's fingerprinting SYN,
    /// `MSS-SACK-TS-N-WS` with MSS and window scale set to 1 to trigger
    /// differing replies (§5.4).
    pub fn fingerprint(tsval: u32) -> Self {
        let mut block = TcpOptionBlock::new();
        for opt in [
            TcpOption::<&[u8]>::Mss(1),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(1),
        ] {
            block.push(&opt);
        }
        block
    }
}

/// A TCP segment over borrowed bytes: what [`TcpView::parse`] reads off
/// a frame (the one TCP parser) and what [`TcpView::emit_into`] writes
/// (the one TCP emitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpView<'a> {
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
    /// The options block as wire bytes, up to (not including) an
    /// end-of-list; at most 40 bytes. [`TcpView::parse`] guarantees it is
    /// well formed; the option walk stops at the first malformed option.
    pub options: &'a [u8],
    /// Payload bytes.
    pub payload: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// Parse and verify the checksum, borrowing options and payload.
    #[inline]
    pub fn parse(src: Ipv6Addr, dst: Ipv6Addr, buf: &'a [u8]) -> Result<Self, PacketError> {
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
        // Check every option up to an EOL, and keep the block short of
        // it: trailing zero padding is no option.
        let block = &buf[20..header_len];
        let mut walk = RawOptions(block);
        let mut end = 0;
        while let Some(opt) = walk.next() {
            if opt? == TcpOption::Eol {
                break;
            }
            end = block.len() - walk.0.len();
        }
        Ok(TcpView {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags((offset_flags & 0xff) as u8),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            urgent: u16::from_be_bytes([buf[18], buf[19]]),
            options: &block[..end],
            payload: &buf[header_len..],
        })
    }

    /// A SYN probe over the options block `options` (wire bytes): empty
    /// for a bare SYN, [`TcpOptionBlock::fingerprint`] for the paper's
    /// fingerprinting SYN.
    pub fn syn(src_port: u16, dst_port: u16, seq: u32, options: &'a [u8]) -> Self {
        TcpView {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options,
            payload: &[],
        }
    }

    /// The options in wire order.
    pub fn options(&self) -> impl Iterator<Item = TcpOption<&'a [u8]>> + Clone + 'a {
        RawOptions(self.options).map_while(Result::ok)
    }

    /// Header length in bytes (data offset × 4): the options padded to a
    /// multiple of 4.
    pub(crate) fn header_len(&self) -> usize {
        20 + self.options.len().div_ceil(4) * 4
    }

    /// Append the segment, checksummed for transmission between `src`
    /// and `dst` (the checksum covers only the appended segment).
    ///
    /// # Panics
    /// Panics if the padded options exceed the 40-byte TCP limit.
    pub fn emit_into(&self, src: Ipv6Addr, dst: Ipv6Addr, out: &mut Vec<u8>) {
        let header_len = self.header_len();
        assert!(header_len <= 60, "TCP options exceed 40 bytes");
        let start = out.len();
        let offset_flags = ((header_len as u16 / 4) << 12) | u16::from(self.flags.0);
        let mut fixed = [0u8; 20]; // the checksum (16..18) is patched below
        fixed[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        fixed[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        fixed[4..8].copy_from_slice(&self.seq.to_be_bytes());
        fixed[8..12].copy_from_slice(&self.ack.to_be_bytes());
        fixed[12..14].copy_from_slice(&offset_flags.to_be_bytes());
        fixed[14..16].copy_from_slice(&self.window.to_be_bytes());
        fixed[18..20].copy_from_slice(&self.urgent.to_be_bytes());
        out.extend_from_slice(&fixed);
        out.extend_from_slice(self.options);
        out.resize(start + header_len, 0); // zero padding after options
        out.extend_from_slice(self.payload);
        let ck = transport_checksum(src, dst, proto::TCP, &out[start..]);
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Fetch the MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options().find_map(|o| match o {
            TcpOption::Mss(v) => Some(v),
            _ => None,
        })
    }

    /// Fetch the window-scale option value, if present.
    pub fn window_scale(&self) -> Option<u8> {
        self.options().find_map(|o| match o {
            TcpOption::WindowScale(v) => Some(v),
            _ => None,
        })
    }

    /// Fetch the timestamps option, if present.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.options().find_map(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((tsval, tsecr)),
            _ => None,
        })
    }

    /// The optionstext of this segment (§5.4), e.g. `MSS-SACK-TS-N-WS`,
    /// written into one allocation of exactly its length.
    pub fn options_text(&self) -> String {
        let tokens = self.options().map(|o| o.token());
        let len = tokens.clone().map(|t| t.len() + 1).sum::<usize>();
        let mut text = String::with_capacity(len.saturating_sub(1));
        for (i, token) in tokens.enumerate() {
            if i > 0 {
                text.push('-');
            }
            match token {
                Token::Name(name) => text.push_str(name),
                Token::Unknown(kind) => {
                    use fmt::Write as _;
                    let _ = write!(text, "U{kind}");
                }
            }
        }
        text
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

    fn block(options: &[TcpOption<&[u8]>]) -> TcpOptionBlock {
        let mut block = TcpOptionBlock::new();
        for opt in options {
            block.push(opt);
        }
        block
    }

    fn emit(seg: &TcpView<'_>) -> Vec<u8> {
        let (s, d) = pair();
        let mut bytes = Vec::new();
        seg.emit_into(s, d, &mut bytes);
        bytes
    }

    /// The options block a SYN carrying the raw bytes `options` parses
    /// back to.
    fn parse_options(options: &[u8]) -> Result<Vec<u8>, PacketError> {
        let (s, d) = pair();
        let bytes = emit(&TcpView::syn(1, 2, 3, options));
        Ok(TcpView::parse(s, d, &bytes)?.options.to_vec())
    }

    #[test]
    fn bare_syn_roundtrip() {
        let (s, d) = pair();
        let seg = TcpView::syn(54321, 80, 0xdeadbeef, &[]);
        let bytes = emit(&seg);
        assert_eq!(bytes.len(), 20);
        let parsed = TcpView::parse(s, d, &bytes).unwrap();
        assert_eq!(parsed, seg);
        assert!(parsed.flags.contains(TcpFlags::SYN));
        assert!(!parsed.flags.contains(TcpFlags::ACK));
    }

    #[test]
    fn options_roundtrip_preserves_order() {
        let (s, d) = pair();
        let options = TcpOptionBlock::fingerprint(777);
        let bytes = emit(&TcpView::syn(1000, 443, 1, options.as_bytes()));
        let parsed = TcpView::parse(s, d, &bytes).unwrap();
        assert_eq!(parsed.options, options.as_bytes());
        assert_eq!(
            parsed.options().collect::<Vec<_>>(),
            [
                TcpOption::Mss(1),
                TcpOption::SackPermitted,
                TcpOption::Timestamps {
                    tsval: 777,
                    tsecr: 0
                },
                TcpOption::Nop,
                TcpOption::WindowScale(1),
            ]
        );
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
        let opts = block(&[
            TcpOption::Mss(1440),
            TcpOption::SackPermitted,
            TcpOption::Timestamps { tsval: 1, tsecr: 0 },
            TcpOption::Nop,
            TcpOption::WindowScale(7),
        ]);
        let seg = TcpView::syn(1, 2, 3, opts.as_bytes());
        assert_eq!(seg.options_text(), "MSS-SACK-TS-N-WS");
    }

    #[test]
    fn payload_and_flags() {
        let (s, d) = pair();
        let opts = block(&[TcpOption::Mss(1440)]);
        let seg = TcpView {
            src_port: 80,
            dst_port: 54321,
            seq: 1,
            ack: 2,
            flags: TcpFlags::SYN_ACK,
            window: 14600,
            urgent: 0,
            options: opts.as_bytes(),
            payload: b"hello",
        };
        let bytes = emit(&seg);
        let parsed = TcpView::parse(s, d, &bytes).unwrap();
        assert_eq!(parsed, seg);
        assert_eq!(parsed.flags.to_string(), "SYN|ACK");
    }

    #[test]
    fn checksum_enforced() {
        let (s, d) = pair();
        let mut bytes = emit(&TcpView::syn(1, 2, 3, &[]));
        bytes[4] ^= 1;
        assert_eq!(TcpView::parse(s, d, &bytes), Err(PacketError::BadChecksum));
    }

    #[test]
    fn malformed_option_length_rejected() {
        let length = Err(PacketError::Malformed("tcp option length"));
        assert_eq!(parse_options(&[2, 10, 0]), length); // claims 10, has 4
        assert_eq!(parse_options(&[2, 1]), length); // len < 2
        assert_eq!(
            parse_options(&[1, 1, 1, 2]), // no length byte
            Err(PacketError::Malformed("tcp option header"))
        );
    }

    #[test]
    fn unknown_option_preserved() {
        let (s, d) = pair();
        let bytes = emit(&TcpView::syn(1, 2, 3, &[254, 4, 0xaa, 0xbb]));
        let parsed = TcpView::parse(s, d, &bytes).unwrap();
        assert_eq!(
            parsed.options().collect::<Vec<_>>(),
            [TcpOption::Unknown {
                kind: 254,
                data: &[0xaa, 0xbb][..]
            }]
        );
        assert_eq!(parsed.options_text(), "U254");
    }

    #[test]
    fn eol_stops_parsing() {
        // An MSS after the EOL is not read, and a malformed option there
        // is no error.
        let (s, d) = pair();
        for options in [&[1, 0, 2, 4, 5, 0xb4][..], &[1, 0, 2, 99]] {
            let bytes = emit(&TcpView::syn(1, 2, 3, options));
            let parsed = TcpView::parse(s, d, &bytes).unwrap();
            assert_eq!(parsed.options, [1]);
            assert_eq!(parsed.options().collect::<Vec<_>>(), [TcpOption::Nop]);
            assert_eq!(parsed.mss(), None);
        }
        assert_eq!(parse_options(&[0, 2, 1]), Ok(vec![]));
    }

    #[test]
    fn view_reads_the_options_it_was_emitted_with() {
        let (s, d) = pair();
        let opts = block(&[
            TcpOption::Mss(1440),
            TcpOption::Unknown {
                kind: 254,
                data: &[7, 7],
            },
            TcpOption::Timestamps { tsval: 5, tsecr: 6 },
            TcpOption::WindowScale(3),
        ]);
        let seg = TcpView::syn(1, 2, 3, opts.as_bytes());
        let bytes = emit(&seg);
        let view = TcpView::parse(s, d, &bytes).unwrap();
        assert_eq!(view, seg, "padding stripped, every field read back");
        assert_eq!(view.mss(), Some(1440));
        assert_eq!(view.window_scale(), Some(3));
        assert_eq!(view.timestamps(), Some((5, 6)));
        let text = view.options_text();
        assert_eq!(text, "MSS-U254-TS-WS");
        assert_eq!(text.capacity(), text.len(), "sized in one allocation");
        // Emitting the view reproduces the segment's bytes.
        assert_eq!(emit(&view), bytes);
    }

    #[test]
    fn header_len_padding() {
        let opts = block(&[TcpOption::WindowScale(1)]); // 3 bytes -> pad to 4
        assert_eq!(TcpView::syn(1, 2, 3, opts.as_bytes()).header_len(), 24);
    }
}
