//! Deterministic fan-out target generation for aliased prefix detection.
//!
//! §5.1 of the paper: to test whether a prefix is aliased, send 16 probes —
//! one *pseudo-random* address inside each of the 16 nybble-indexed
//! subprefixes (Table 3). Distributing probes over every subprefix prevents
//! the false-positive case where purely random addresses all fall into an
//! aliased fraction of the prefix (the paper's 9-of-16-aliased-/100s case).
//!
//! Targets are derived from a keyed hash (`splitmix64`-based) of
//! `(prefix, nybble, salt)` so the same scan configuration probes the same
//! addresses every day, which makes the multi-day sliding window of §5.2
//! meaningful.

use crate::prefix::{mask, Prefix};
use std::net::Ipv6Addr;

/// One fan-out target: the probed subprefix and the address inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutTarget {
    /// Which of the 16 nybble branches this probe traverses (0–15).
    pub branch: u8,
    /// The subprefix (4 bits longer than the tested prefix).
    pub subprefix: Prefix,
    /// The pseudo-random address probed inside `subprefix`.
    pub addr: Ipv6Addr,
}

/// `splitmix64` — tiny, well-distributed keyed mixer.
///
/// Used instead of an RNG so that fan-out targets are a pure function of
/// `(prefix, branch, salt)`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pseudo-random address inside `prefix`, keyed by `salt`.
///
/// Host bits are filled from two rounds of [`splitmix64`] over the prefix
/// bits and salt; the result is deterministic.
pub fn keyed_random_addr(prefix: Prefix, salt: u64) -> Ipv6Addr {
    let bits = prefix.bits();
    let hi = splitmix64((bits >> 64) as u64 ^ salt.rotate_left(17) ^ u64::from(prefix.len()));
    let lo = splitmix64(bits as u64 ^ salt ^ 0x51ed_270b_a5a4_4e1d);
    let fill = (u128::from(hi) << 64) | u128::from(lo);
    let host = fill & !mask(prefix.len());
    Ipv6Addr::from((bits | host).to_be_bytes())
}

/// The 16 fan-out probe targets for `prefix` (§5.1, Table 3).
///
/// One pseudo-random address is generated in each `prefix.len()+4`-bit
/// subprefix `prefix:[0-f]…`.
///
/// # Panics
/// Panics if `prefix.len() > 124` (no room for the 4-bit fan-out).
pub fn fanout16(prefix: Prefix, salt: u64) -> Vec<FanoutTarget> {
    fanout16_iter(prefix, salt).collect()
}

/// [`fanout16`] without the allocation: the same 16 targets, in branch
/// order.
///
/// # Panics
/// Panics if `prefix.len() > 124` (no room for the 4-bit fan-out).
pub fn fanout16_iter(prefix: Prefix, salt: u64) -> impl Iterator<Item = FanoutTarget> {
    assert!(
        prefix.len() <= 124,
        "fan-out requires a prefix of length <= 124, got /{}",
        prefix.len()
    );
    (0..16u8).map(move |branch| {
        let subprefix = prefix.subprefix(4, u128::from(branch));
        let addr = keyed_random_addr(subprefix, salt ^ u64::from(branch));
        FanoutTarget {
            branch,
            subprefix,
            addr,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn sixteen_targets_one_per_branch() {
        let pfx = p("2001:db8:407:8000::/64");
        let targets = fanout16(pfx, 42);
        assert_eq!(targets.len(), 16);
        for (i, t) in targets.iter().enumerate() {
            assert_eq!(usize::from(t.branch), i);
            assert!(t.subprefix.contains(t.addr), "addr outside its subprefix");
            assert!(pfx.contains(t.addr));
            assert_eq!(t.subprefix.len(), 68);
            // The fan-out nybble (nybble 16 for a /64) must equal the branch.
            assert_eq!(crate::nybbles::nybble(t.addr, 16), t.branch);
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let pfx = p("2a01:4f8::/32");
        assert_eq!(fanout16(pfx, 7), fanout16(pfx, 7));
    }

    #[test]
    fn salt_changes_targets() {
        let pfx = p("2a01:4f8::/32");
        let a = fanout16(pfx, 1);
        let b = fanout16(pfx, 2);
        let same = a.iter().zip(&b).filter(|(x, y)| x.addr == y.addr).count();
        assert!(same < 16, "different salts must change targets");
        // Branch structure must be preserved regardless of salt.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.subprefix, y.subprefix);
        }
    }

    #[test]
    fn keyed_random_addr_in_prefix() {
        for len in [16u8, 32, 48, 64, 96, 124, 128] {
            let pfx = Prefix::new("2001:db8::".parse().unwrap(), len);
            let a = keyed_random_addr(pfx, 99);
            assert!(pfx.contains(a), "len={len}");
        }
    }

    #[test]
    fn host_bits_look_random() {
        // All-zero host bits would defeat the purpose; check the filled
        // address differs from the network address for a wide prefix.
        let pfx = p("2001:db8::/32");
        let a = keyed_random_addr(pfx, 0);
        assert_ne!(a, pfx.first());
    }

    #[test]
    #[should_panic(expected = "fan-out requires")]
    fn fanout_too_long_panics() {
        fanout16(p("2001:db8::/125"), 0);
    }
}
