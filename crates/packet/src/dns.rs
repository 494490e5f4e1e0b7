//! Minimal DNS wire format: enough for a UDP/53 liveness probe.
//!
//! The paper's UDP/53 scan sends a well-formed query and counts any
//! syntactically valid response as "responsive". We encode a single-question
//! query and parse response headers (id, QR, RCODE, counts). Name
//! compression pointers are followed when skipping the question section.

use crate::PacketError;

/// Common query types.
pub mod qtype {
    /// A.
    pub const A: u16 = 1;
    /// Aaaa.
    pub const AAAA: u16 = 28;
}

/// Append the wire bytes of a one-question query for `qname` (dotted
/// form), class IN, with transaction id `id` and recursion desired if
/// `rd`.
///
/// # Panics
/// Panics if a label exceeds 63 bytes.
pub fn emit_query(id: u16, qname: &str, qtype: u16, rd: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(&id.to_be_bytes());
    let flags: u16 = if rd { 0x0100 } else { 0x0000 };
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out.extend_from_slice(&[0; 6]); // AN/NS/AR counts
    emit_name(out, qname);
    out.extend_from_slice(&qtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes()); // IN class
}

/// Encode a dotted name as length-prefixed labels.
fn emit_name(out: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        assert!(label.len() <= 63, "DNS label too long");
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

/// Parsed DNS message header view (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsHeader {
    /// DNS transaction id.
    pub id: u16,
    /// True for responses.
    pub qr: bool,
    /// DNS response code (0 = NOERROR, 3 = NXDOMAIN).
    pub rcode: u8,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
}

impl DnsHeader {
    /// Parse the 12-byte header.
    pub fn parse(buf: &[u8]) -> Result<DnsHeader, PacketError> {
        if buf.len() < 12 {
            return Err(PacketError::Truncated);
        }
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        Ok(DnsHeader {
            id: u16::from_be_bytes([buf[0], buf[1]]),
            qr: flags & 0x8000 != 0,
            rcode: (flags & 0x000f) as u8,
            qdcount: u16::from_be_bytes([buf[4], buf[5]]),
            ancount: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }
}

/// Skip an encoded name starting at `pos`; returns the position after it.
/// Follows the "pointer terminates the name" rule (RFC 1035 §4.1.4).
fn skip_name(buf: &[u8], mut pos: usize) -> Result<usize, PacketError> {
    loop {
        let &len = buf.get(pos).ok_or(PacketError::Truncated)?;
        match len {
            0 => return Ok(pos + 1),
            l if l & 0xc0 == 0xc0 => {
                // Compression pointer: two bytes, terminates the name.
                if pos + 1 >= buf.len() {
                    return Err(PacketError::Truncated);
                }
                return Ok(pos + 2);
            }
            l if l & 0xc0 != 0 => return Err(PacketError::Malformed("dns label type")),
            l => pos += 1 + usize::from(l),
        }
    }
}

/// Append a minimal response to `query` bytes to `out` (left untouched
/// on error): echoes id and question, sets QR/RA, given rcode, and
/// `answers` synthetic A/AAAA-shaped records.
///
/// The simulator's DNS hosts use this; the prober only checks
/// [`DnsHeader`] fields, so record contents are opaque 16-byte blobs.
pub fn build_response_into(
    query: &[u8],
    rcode: u8,
    answers: u16,
    out: &mut Vec<u8>,
) -> Result<(), PacketError> {
    let h = DnsHeader::parse(query)?;
    if h.qr {
        return Err(PacketError::Malformed("response to a response"));
    }
    // Locate end of question section to copy it.
    let mut pos = 12;
    for _ in 0..h.qdcount {
        pos = skip_name(query, pos)?;
        pos += 4; // qtype + qclass
        if pos > query.len() {
            return Err(PacketError::Truncated);
        }
    }
    out.reserve(pos + usize::from(answers) * 28);
    out.extend_from_slice(&h.id.to_be_bytes());
    let flags: u16 = 0x8180 | u16::from(rcode); // QR + RD + RA
    out.extend_from_slice(&flags.to_be_bytes());
    out.extend_from_slice(&h.qdcount.to_be_bytes());
    out.extend_from_slice(&answers.to_be_bytes());
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&query[12..pos]);
    for i in 0..answers {
        out.extend_from_slice(&[0xc0, 0x0c]); // pointer to question name
        out.extend_from_slice(&qtype::AAAA.to_be_bytes());
        out.extend_from_slice(&1u16.to_be_bytes()); // IN
        out.extend_from_slice(&60u32.to_be_bytes()); // TTL
        out.extend_from_slice(&16u16.to_be_bytes()); // RDLENGTH
        let mut addr = [0u8; 16];
        addr[15] = i as u8 + 1;
        out.extend_from_slice(&addr);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Query types only these tests send.
    const NS: u16 = 2;
    const PTR: u16 = 12;

    fn query(id: u16, qname: &str, qtype: u16) -> Vec<u8> {
        let mut out = Vec::new();
        emit_query(id, qname, qtype, true, &mut out);
        out
    }

    fn response(query: &[u8], rcode: u8, answers: u16) -> Result<Vec<u8>, PacketError> {
        let mut out = Vec::new();
        build_response_into(query, rcode, answers, &mut out)?;
        Ok(out)
    }

    #[test]
    fn query_emit_shape() {
        let b = query(0x1234, "example.com", qtype::AAAA);
        assert_eq!(&b[0..2], &[0x12, 0x34]);
        // 12 header + 1+7 + 1+3 + 1 root + 4 = 29
        assert_eq!(b.len(), 29);
        assert_eq!(b[12], 7);
        assert_eq!(&b[13..20], b"example");
        let h = DnsHeader::parse(&b).unwrap();
        assert!(!h.qr);
        assert_eq!(h.qdcount, 1);
    }

    #[test]
    fn response_roundtrip() {
        let q = query(7, "ns1.example.org", qtype::A);
        let r = response(&q, 0, 2).unwrap();
        let h = DnsHeader::parse(&r).unwrap();
        assert!(h.qr);
        assert_eq!(h.id, 7);
        assert_eq!(h.rcode, 0);
        assert_eq!(h.ancount, 2);
        assert_eq!(h.qdcount, 1);
    }

    #[test]
    fn nxdomain_response() {
        let q = query(9, "nope.invalid", PTR);
        let r = response(&q, 3, 0).unwrap();
        let h = DnsHeader::parse(&r).unwrap();
        assert_eq!(h.rcode, 3);
        assert_eq!(h.ancount, 0);
    }

    #[test]
    fn reject_response_to_response() {
        let q = query(7, "a.b", qtype::A);
        let r = response(&q, 0, 1).unwrap();
        let mut out = vec![0xee];
        assert!(build_response_into(&r, 0, 1, &mut out).is_err());
        assert_eq!(out, [0xee], "left untouched on error");
    }

    #[test]
    fn truncated_header() {
        assert_eq!(DnsHeader::parse(&[0; 5]), Err(PacketError::Truncated));
    }

    #[test]
    fn skip_name_with_pointer() {
        // name: 1 byte label "x" + pointer
        let buf = [1, b'x', 0xc0, 0x00, 0xde, 0xad];
        assert_eq!(skip_name(&buf, 0).unwrap(), 4);
    }

    #[test]
    fn root_name_query() {
        let b = query(1, ".", NS);
        assert_eq!(b[12], 0); // root label only
        let r = response(&b, 0, 1).unwrap();
        assert_eq!(DnsHeader::parse(&r).unwrap().ancount, 1);
    }
}
