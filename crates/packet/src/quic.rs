//! Minimal QUIC long-header packets: enough for a UDP/443 liveness probe.
//!
//! The paper's UDP/443 scan detects QUIC-capable hosts. A scanner only
//! needs to (a) emit a syntactically plausible Initial and (b) recognize
//! *any* QUIC long-header reply — typically a Version Negotiation, which
//! servers must send for unknown versions (RFC 8999). We deliberately use
//! a reserved "greasing" version to elicit exactly that, sidestepping the
//! crypto handshake entirely (documented simplification).

use crate::PacketError;

/// The greasing version the probe advertises (RFC 9000 §15 pattern
/// `0x?a?a?a?a` is reserved to force version negotiation).
pub const PROBE_VERSION: u32 = 0x1a2a_3a4a;

/// Minimum Initial size demanded by QUIC anti-amplification rules.
pub const MIN_INITIAL_SIZE: usize = 1200;

/// Append a client Initial-shaped probe, padded to `MIN_INITIAL_SIZE`.
///
/// # Panics
/// Panics if a connection id exceeds 20 bytes.
pub fn initial_into(dcid: &[u8], scid: &[u8], out: &mut Vec<u8>) {
    assert!(dcid.len() <= 20 && scid.len() <= 20, "cid too long");
    let start = out.len();
    out.push(0xc0); // long header, fixed bit, type=Initial
    out.extend_from_slice(&PROBE_VERSION.to_be_bytes());
    out.push(dcid.len() as u8);
    out.extend_from_slice(dcid);
    out.push(scid.len() as u8);
    out.extend_from_slice(scid);
    out.resize(start + MIN_INITIAL_SIZE, 0);
}

/// Append a Version Negotiation reply: version field zero, the server's
/// supported versions after the connection ids (RFC 8999 §6).
pub fn version_negotiation_into(dcid: &[u8], scid: &[u8], versions: &[u32], out: &mut Vec<u8>) {
    out.push(0x80); // long header form bit
    out.extend_from_slice(&0u32.to_be_bytes());
    out.push(dcid.len() as u8);
    out.extend_from_slice(dcid);
    out.push(scid.len() as u8);
    out.extend_from_slice(scid);
    for v in versions {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

/// A QUIC long header over borrowed bytes: the one long-header parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuicView<'a> {
    /// QUIC version field (0 = version negotiation).
    pub version: u32,
    /// Destination connection id.
    pub dcid: &'a [u8],
    /// Source connection id.
    pub scid: &'a [u8],
    /// For version negotiation packets: the version list, 4 bytes per
    /// version; empty otherwise.
    versions: &'a [u8],
}

impl<'a> QuicView<'a> {
    /// Parse any long-header packet.
    pub fn parse(buf: &'a [u8]) -> Result<Self, PacketError> {
        if buf.len() < 7 {
            return Err(PacketError::Truncated);
        }
        if buf[0] & 0x80 == 0 {
            return Err(PacketError::Malformed("not a QUIC long header"));
        }
        let version = u32::from_be_bytes([buf[1], buf[2], buf[3], buf[4]]);
        let mut pos = 5;
        let dcid_len = usize::from(*buf.get(pos).ok_or(PacketError::Truncated)?);
        pos += 1;
        if dcid_len > 20 || pos + dcid_len > buf.len() {
            return Err(PacketError::Malformed("dcid"));
        }
        let dcid = &buf[pos..pos + dcid_len];
        pos += dcid_len;
        let scid_len = usize::from(*buf.get(pos).ok_or(PacketError::Truncated)?);
        pos += 1;
        if scid_len > 20 || pos + scid_len > buf.len() {
            return Err(PacketError::Malformed("scid"));
        }
        let scid = &buf[pos..pos + scid_len];
        pos += scid_len;
        let mut versions: &[u8] = &[];
        if version == 0 {
            // Version negotiation: rest is a version list.
            versions = &buf[pos..];
            if versions.is_empty() || !versions.len().is_multiple_of(4) {
                return Err(PacketError::Malformed("version list"));
            }
        }
        Ok(QuicView {
            version,
            dcid,
            scid,
            versions,
        })
    }

    /// Is this a version negotiation packet?
    pub fn is_version_negotiation(&self) -> bool {
        self.version == 0
    }

    /// The versions a version negotiation packet lists.
    pub fn supported_versions(&self) -> impl Iterator<Item = u32> + 'a {
        self.versions
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version_negotiation(dcid: &[u8], scid: &[u8], versions: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        version_negotiation_into(dcid, scid, versions, &mut out);
        out
    }

    #[test]
    fn initial_shape() {
        let mut b = vec![0xee; 3];
        initial_into(&[1, 2, 3, 4, 5, 6, 7, 8], &[9, 9], &mut b);
        assert_eq!(b.len(), 3 + MIN_INITIAL_SIZE, "appended, padded");
        let p = QuicView::parse(&b[3..]).unwrap();
        assert_eq!(p.version, PROBE_VERSION);
        assert_eq!(p.dcid, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(p.scid, [9, 9]);
        assert!(!p.is_version_negotiation());
        assert_eq!(p.supported_versions().count(), 0);
    }

    #[test]
    fn version_negotiation_roundtrip() {
        let vn = version_negotiation(&[7], &[8], &[1, 0x6b33_43cf]);
        let p = QuicView::parse(&vn).unwrap();
        assert!(p.is_version_negotiation());
        assert_eq!(p.supported_versions().collect::<Vec<_>>(), [1, 0x6b33_43cf]);
        assert_eq!(p.dcid, [7]);
        assert_eq!(p.scid, [8]);
    }

    #[test]
    fn short_header_rejected() {
        assert!(QuicView::parse(&[0x40; 20]).is_err());
        assert!(QuicView::parse(&[0xc0, 0, 0]).is_err());
    }

    #[test]
    fn bad_version_list_rejected() {
        let mut vn = version_negotiation(&[7], &[8], &[1]);
        vn.push(0xff); // version list no longer a multiple of 4
        assert!(QuicView::parse(&vn).is_err());
        // Empty version list also malformed.
        let vn2 = version_negotiation(&[7], &[8], &[]);
        assert!(QuicView::parse(&vn2).is_err());
    }

    #[test]
    fn oversized_cid_rejected() {
        let mut b = vec![0xc0];
        b.extend_from_slice(&1u32.to_be_bytes());
        b.push(21); // dcid_len > 20
        b.extend_from_slice(&[0; 30]);
        assert!(QuicView::parse(&b).is_err());
    }
}
