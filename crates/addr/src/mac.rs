//! MAC addresses and EUI-64 expansion.
//!
//! §3 of the paper inspects the vendor codes (OUIs) of MAC addresses
//! recovered from SLAAC router addresses to show the Scamper source is
//! dominated by home routers (ZTE, AVM). The model crate assigns OUIs to
//! simulated CPE devices; this module provides the plumbing.

use std::fmt;
use std::net::Ipv6Addr;

/// A 48-bit IEEE MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// Build from raw octets.
    pub(crate) const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The 24-bit Organizationally Unique Identifier (vendor code).
    pub fn oui(&self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Build a MAC from an OUI and a 24-bit device id.
    ///
    /// # Panics
    /// Panics if `device` exceeds 24 bits.
    pub fn from_oui(oui: [u8; 3], device: u32) -> Self {
        assert!(device < (1 << 24), "device id {device} exceeds 24 bits");
        MacAddr([
            oui[0],
            oui[1],
            oui[2],
            (device >> 16) as u8,
            (device >> 8) as u8,
            device as u8,
        ])
    }

    /// Expand to the EUI-64 interface identifier (flips the U/L bit and
    /// inserts `ff:fe`), per RFC 4291 appendix A.
    pub fn eui64_iid(&self) -> u64 {
        let m = self.0;
        u64::from_be_bytes([m[0] ^ 0x02, m[1], m[2], 0xff, 0xfe, m[3], m[4], m[5]])
    }

    /// Build a full SLAAC address from a /64 network prefix and this MAC.
    ///
    /// Only the upper 64 bits of `net` are used.
    pub fn slaac_addr(&self, net: Ipv6Addr) -> Ipv6Addr {
        let hi = u128::from_be_bytes(net.octets()) & !0xffff_ffff_ffff_ffffu128;
        Ipv6Addr::from((hi | u128::from(self.eui64_iid())).to_be_bytes())
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            m[0], m[1], m[2], m[3], m[4], m[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac_from_eui64;

    #[test]
    fn eui64_reference_vector() {
        // RFC 4291: MAC 34-56-78-9A-BC-DE -> IID 3656:78ff:fe9a:bcde
        let mac = MacAddr::new([0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde]);
        assert_eq!(mac.eui64_iid(), 0x3656_78ff_fe9a_bcde);
    }

    #[test]
    fn slaac_roundtrip() {
        let mac = MacAddr::from_oui([0x00, 0x1f, 0xc6], 0x123456);
        let net: Ipv6Addr = "2001:db8:1:2::".parse().unwrap();
        let addr = mac.slaac_addr(net);
        assert!(crate::is_eui64(addr));
        assert_eq!(mac_from_eui64(addr), Some(mac));
        // Network half preserved.
        assert_eq!(&addr.octets()[..8], &net.octets()[..8]);
    }

    #[test]
    fn oui_and_display() {
        let mac = MacAddr::new([0xaa, 0xbb, 0xcc, 0x01, 0x02, 0x03]);
        assert_eq!(mac.oui(), [0xaa, 0xbb, 0xcc]);
        assert_eq!(mac.to_string(), "aa:bb:cc:01:02:03");
    }

    #[test]
    #[should_panic(expected = "exceeds 24 bits")]
    fn oversized_device_id_panics() {
        MacAddr::from_oui([0, 0, 0], 1 << 24);
    }
}
