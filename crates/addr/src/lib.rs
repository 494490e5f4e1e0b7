// Decode crate: untrusted bytes flow through `codec`, so short-circuit
// panics are audited. Tests keep their ergonomic unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! IPv6 address, nybble, and prefix primitives for the `expanse` toolkit.
//!
//! This crate is the bedrock of the workspace: every other crate speaks in
//! terms of the types defined here.
//!
//! The paper (Gasser et al., IMC 2018) treats an IPv6 address as a sequence
//! of 32 *nybbles* (hex characters), cf. §4 eq. (2)–(3). The [`nybbles`]
//! module provides that view. §5.1 requires generating one pseudo-random
//! address per 4-bit subprefix of a prefix under test ("fan-out", Table 3);
//! the [`fanout`] module implements it deterministically so that repeated
//! scans probe reproducible targets.
//!
//! The `table` and `set` modules hold the workspace's interned
//! address store: [`AddrTable`] issues dense, stable [`AddrId`] handles
//! for unique addresses, [`AddrSet`] is a sorted id run with linear-merge
//! set algebra, and [`AddrMap`] is a self-interning columnar map (the
//! model's host table). The layers above (hitlist, APD planning,
//! entropy fingerprints) speak ids end-to-end instead of re-hashing
//! `Ipv6Addr` keys per day.
//!
//! # Example
//!
//! ```
//! use expanse_addr::{Prefix, nybbles::nybble};
//! use std::net::Ipv6Addr;
//!
//! let pfx: Prefix = "2001:db8:407:8000::/64".parse().unwrap();
//! assert_eq!(pfx.len(), 64);
//! let a: Ipv6Addr = "2001:db8:407:8000:1::2".parse().unwrap();
//! assert!(pfx.contains(a));
//! assert_eq!(nybble(a, 0), 0x2);
//! assert_eq!(nybble(a, 3), 0x1);
//! ```

// This crate is the workspace's bedrock *and* defines the persistent
// snapshot wire format (docs/SNAPSHOT_FORMAT.md): every public item
// must say what it is, and the CI docs job keeps it that way.
#![deny(missing_docs)]

pub mod codec;
pub mod fanout;
pub mod format;
mod mac;
pub mod nybbles;
pub mod par;
pub mod prefix;
mod set;
mod sorted;
mod table;

pub use codec::{CodecError, Decoder, Encoder};
pub use fanout::{fanout16, fanout16_iter, keyed_random_addr, FanoutTarget};
pub use mac::MacAddr;
pub use par::worker_threads;
pub use prefix::{Prefix, PrefixParseError};
pub use set::{AddrSet, IdBits};
pub use sorted::SortedView;
pub use table::{AddrId, AddrMap, AddrTable};

use std::net::Ipv6Addr;

/// Convert an [`Ipv6Addr`] to its 128-bit big-endian integer value.
#[inline]
pub fn addr_to_u128(a: Ipv6Addr) -> u128 {
    u128::from_be_bytes(a.octets())
}

/// Convert a 128-bit big-endian integer value to an [`Ipv6Addr`].
#[inline]
pub fn u128_to_addr(v: u128) -> Ipv6Addr {
    Ipv6Addr::from(v.to_be_bytes())
}

/// Interface identifier (IID): the low 64 bits of an address.
#[inline]
pub(crate) fn iid(a: Ipv6Addr) -> u64 {
    addr_to_u128(a) as u64
}

/// Number of bits set in the interface identifier.
///
/// §8 of the paper uses the IID hamming weight as an indicator for clients
/// with privacy extensions (pseudo-random IIDs have expected weight 32,
/// low-numbered servers weigh ≤ 6).
#[inline]
pub fn iid_hamming_weight(a: Ipv6Addr) -> u32 {
    iid(a).count_ones()
}

/// Does the IID carry the EUI-64 `ff:fe` marker (SLAAC from a MAC address)?
///
/// The marker occupies IID bytes 3–4, i.e. address bytes 11–12, i.e.
/// nybbles 23–26 in the paper's 1-based numbering.
#[inline]
pub fn is_eui64(a: Ipv6Addr) -> bool {
    let o = a.octets();
    o[11] == 0xff && o[12] == 0xfe
}

/// Extract the MAC address embedded in an EUI-64 IID, if the `ff:fe`
/// marker is present. Undoes the universal/local bit flip.
pub fn mac_from_eui64(a: Ipv6Addr) -> Option<MacAddr> {
    if !is_eui64(a) {
        return None;
    }
    let o = a.octets();
    Some(MacAddr::new([
        o[8] ^ 0x02,
        o[9],
        o[10],
        o[13],
        o[14],
        o[15],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u128_roundtrip() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert_eq!(u128_to_addr(addr_to_u128(a)), a);
        assert_eq!(addr_to_u128(Ipv6Addr::UNSPECIFIED), 0);
        assert_eq!(addr_to_u128("::1".parse::<Ipv6Addr>().unwrap()), 1u128);
    }

    #[test]
    fn iid_extraction() {
        let a: Ipv6Addr = "2001:db8::dead:beef".parse().unwrap();
        assert_eq!(iid(a), 0x0000_0000_dead_beef);
        assert_eq!(iid_hamming_weight(a), 0xdead_beefu64.count_ones());
    }

    #[test]
    fn eui64_detection() {
        let slaac: Ipv6Addr = "fe80::0211:22ff:fe33:4455".parse().unwrap();
        assert!(is_eui64(slaac));
        let not: Ipv6Addr = "2001:db8::1".parse().unwrap();
        assert!(!is_eui64(not));
    }

    #[test]
    fn eui64_mac_recovery() {
        // MAC 00:11:22:33:44:55 -> EUI-64 0211:22ff:fe33:4455
        let slaac: Ipv6Addr = "fe80::0211:22ff:fe33:4455".parse().unwrap();
        let mac = mac_from_eui64(slaac).unwrap();
        assert_eq!(mac, MacAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]));
        assert_eq!(mac_from_eui64("2001:db8::1".parse().unwrap()), None);
    }
}
