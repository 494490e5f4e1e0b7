//! Nybble-level view of IPv6 addresses.
//!
//! The paper models an address as `A = (x_1, …, x_32)`, a sequence of 32 hex
//! characters (§4 eq. (2)). This module uses **0-based** indices: nybble 0 is
//! the most significant hex digit. The paper's 1-based "nybble 9" is our
//! index 8.

use crate::{addr_to_u128, u128_to_addr};
use std::net::Ipv6Addr;

/// Number of nybbles in an IPv6 address.
pub const NYBBLES: usize = 32;

/// Extract nybble `i` (0-based from the most significant digit).
///
/// # Panics
/// Panics if `i >= 32`.
#[inline]
pub fn nybble(a: Ipv6Addr, i: usize) -> u8 {
    assert!(i < NYBBLES, "nybble index {i} out of range");
    ((addr_to_u128(a) >> (124 - 4 * i)) & 0xf) as u8
}

/// Decompose an address into its 32 nybbles.
#[inline]
pub fn nybbles(a: Ipv6Addr) -> [u8; NYBBLES] {
    let v = addr_to_u128(a);
    let mut out = [0u8; NYBBLES];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = ((v >> (124 - 4 * i)) & 0xf) as u8;
    }
    out
}

/// Rebuild an address from 32 nybbles.
///
/// # Panics
/// Panics if any nybble value exceeds 15.
#[inline]
pub fn from_nybbles(n: &[u8; NYBBLES]) -> Ipv6Addr {
    let mut v = 0u128;
    for &x in n.iter() {
        assert!(x <= 0xf, "nybble value {x} out of range");
        v = (v << 4) | u128::from(x);
    }
    u128_to_addr(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn nybble_positions() {
        let x = a("2001:0db8:0407:8000:0151:2900:77e9:03a8");
        assert_eq!(nybble(x, 0), 0x2);
        assert_eq!(nybble(x, 1), 0x0);
        assert_eq!(nybble(x, 3), 0x1);
        assert_eq!(nybble(x, 4), 0x0);
        assert_eq!(nybble(x, 5), 0xd);
        assert_eq!(nybble(x, 31), 0x8);
        assert_eq!(nybble(x, 16), 0x0); // first IID nybble
        assert_eq!(nybble(x, 19), 0x1);
    }

    #[test]
    fn roundtrip() {
        let x = a("2001:db8::dead:beef");
        assert_eq!(from_nybbles(&nybbles(x)), x);
        let zero = a("::");
        assert_eq!(from_nybbles(&nybbles(zero)), zero);
        let all = a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff");
        assert_eq!(from_nybbles(&nybbles(all)), all);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nybble_oob_panics() {
        nybble(a("::"), 32);
    }
}
