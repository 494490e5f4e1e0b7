//! IPv6 prefixes in canonical (masked) form.

use crate::{addr_to_u128, u128_to_addr};
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// An IPv6 prefix: `bits/len` with all host bits zero.
///
/// Ordering is lexicographic on `(bits, len)`, which sorts prefixes in
/// address order with shorter (covering) prefixes before their
/// more-specifics — the order of a prefix table's entries and of
/// zesplot input pipelines (which then re-sort by `(len, asn)`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    bits: u128,
    len: u8,
}

impl Prefix {
    /// The default route `::/0`.
    pub const DEFAULT: Prefix = Prefix { bits: 0, len: 0 };

    /// Build a prefix from a base address and a length, masking host bits.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn new(base: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Prefix {
            bits: addr_to_u128(base) & mask(len),
            len,
        }
    }

    /// Build from raw integer bits, masking host bits.
    pub fn from_bits(bits: u128, len: u8) -> Self {
        assert!(len <= 128, "prefix length {len} out of range");
        Prefix {
            bits: bits & mask(len),
            len,
        }
    }

    /// The /128 prefix for a single address.
    pub fn host(addr: Ipv6Addr) -> Self {
        Prefix {
            bits: addr_to_u128(addr),
            len: 128,
        }
    }

    /// Prefix length in bits. (No `is_empty` pair: a zero-length
    /// prefix is `::/0`, which covers *everything* — see
    /// [`Prefix::is_default`] — so the name would invert its meaning.)
    #[inline]
    #[expect(
        clippy::len_without_is_empty,
        reason = "`::/0` has length zero and covers everything"
    )]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True only for the default route (zero-length prefix).
    #[inline]
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// The (masked) network bits as an integer.
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// First address in the prefix (the network address).
    #[inline]
    pub fn first(&self) -> Ipv6Addr {
        u128_to_addr(self.bits)
    }

    /// Last address in the prefix.
    #[inline]
    pub fn last(&self) -> Ipv6Addr {
        u128_to_addr(self.bits | !mask(self.len))
    }

    /// Number of addresses covered, saturating at `u128::MAX` for `/0`.
    pub fn size(&self) -> u128 {
        if self.len == 0 {
            u128::MAX
        } else {
            1u128 << (128 - u32::from(self.len))
        }
    }

    /// Does the prefix cover `addr`?
    #[inline]
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        addr_to_u128(addr) & mask(self.len) == self.bits
    }

    /// Does the prefix cover the (equal or longer) prefix `other`?
    #[inline]
    pub fn covers(&self, other: &Prefix) -> bool {
        other.len >= self.len && other.bits & mask(self.len) == self.bits
    }

    /// Parent prefix one bit shorter, or `None` at the default route.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::from_bits(self.bits, self.len - 1))
        }
    }

    /// The `index`-th subprefix of length `self.len + extra_bits`.
    ///
    /// # Panics
    /// Panics if the resulting length exceeds 128 or `index` does not fit
    /// in `extra_bits` bits.
    pub fn subprefix(&self, extra_bits: u8, index: u128) -> Prefix {
        #[allow(
            clippy::expect_used,
            reason = "documented panic (see `# Panics` above), not a decode-path risk"
        )]
        let new_len = self.len.checked_add(extra_bits).expect("length overflow");
        assert!(new_len <= 128, "subprefix length {new_len} out of range");
        if extra_bits < 128 {
            assert!(
                index < (1u128 << extra_bits),
                "subprefix index {index} out of range for {extra_bits} extra bits"
            );
        }
        let shift = 128 - u32::from(new_len);
        Prefix {
            bits: self.bits | (index << shift),
            len: new_len,
        }
    }

    /// Iterate over all `2^extra_bits` subprefixes of length
    /// `self.len + extra_bits`.
    pub fn subprefixes(&self, extra_bits: u8) -> impl Iterator<Item = Prefix> + '_ {
        let n: u128 = 1 << extra_bits;
        (0..n).map(move |i| self.subprefix(extra_bits, i))
    }

    /// Address at `offset` within the prefix.
    ///
    /// # Panics
    /// Panics if `offset >= self.size()`.
    pub fn addr_at(&self, offset: u128) -> Ipv6Addr {
        assert!(
            self.len == 0 || offset < self.size(),
            "offset out of range for /{}",
            self.len
        );
        u128_to_addr(self.bits | offset)
    }
}

/// Network mask for a prefix length: `len` high bits set.
#[inline]
pub fn mask(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.first(), self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

/// Error from parsing a prefix string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// Missing `/` separator.
    MissingSlash,
    /// The address part did not parse as an IPv6 address.
    BadAddress,
    /// The length part did not parse or exceeded 128.
    BadLength,
    /// Host bits were set in the address part (e.g. `2001:db8::1/32`).
    HostBitsSet,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::MissingSlash => write!(f, "missing '/' in prefix"),
            PrefixParseError::BadAddress => write!(f, "invalid IPv6 address in prefix"),
            PrefixParseError::BadLength => write!(f, "invalid prefix length"),
            PrefixParseError::HostBitsSet => write!(f, "host bits set in prefix"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixParseError::MissingSlash)?;
        let addr: Ipv6Addr = addr.parse().map_err(|_| PrefixParseError::BadAddress)?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError::BadLength)?;
        if len > 128 {
            return Err(PrefixParseError::BadLength);
        }
        if addr_to_u128(addr) & !mask(len) != 0 {
            return Err(PrefixParseError::HostBitsSet);
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        let x = p("2001:db8::/32");
        assert_eq!(x.len(), 32);
        assert_eq!(x.to_string(), "2001:db8::/32");
        assert_eq!(p("::/0"), Prefix::DEFAULT);
        assert_eq!(
            "2001:db8::1/32".parse::<Prefix>(),
            Err(PrefixParseError::HostBitsSet)
        );
        assert_eq!(
            "2001:db8::/129".parse::<Prefix>(),
            Err(PrefixParseError::BadLength)
        );
        assert_eq!(
            "2001:db8::".parse::<Prefix>(),
            Err(PrefixParseError::MissingSlash)
        );
        assert_eq!("zz/32".parse::<Prefix>(), Err(PrefixParseError::BadAddress));
    }

    #[test]
    fn containment() {
        let x = p("2001:db8::/32");
        assert!(x.contains("2001:db8::1".parse().unwrap()));
        assert!(x.contains("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff".parse().unwrap()));
        assert!(!x.contains("2001:db9::".parse().unwrap()));
        assert!(Prefix::DEFAULT.contains("1:2:3::4".parse().unwrap()));
    }

    #[test]
    fn covers_relation() {
        let short = p("2001:db8::/32");
        let long = p("2001:db8:407::/48");
        assert!(short.covers(&long));
        assert!(!long.covers(&short));
        assert!(short.covers(&short));
        assert!(Prefix::DEFAULT.covers(&short));
        assert!(!short.covers(&p("2001:db9::/48")));
    }

    #[test]
    fn first_last_size() {
        let x = p("2001:db8::/126");
        assert_eq!(x.size(), 4);
        assert_eq!(x.first(), "2001:db8::".parse::<Ipv6Addr>().unwrap());
        assert_eq!(x.last(), "2001:db8::3".parse::<Ipv6Addr>().unwrap());
        assert_eq!(Prefix::host("::1".parse().unwrap()).size(), 1);
        assert_eq!(Prefix::DEFAULT.size(), u128::MAX);
    }

    #[test]
    fn subprefix_fanout() {
        // Table 3 of the paper: /64 -> 16 x /68 subprefixes, one per nybble.
        let x = p("2001:db8:407:8000::/64");
        let subs: Vec<Prefix> = x.subprefixes(4).collect();
        assert_eq!(subs.len(), 16);
        assert_eq!(subs[0], p("2001:db8:407:8000::/68"));
        assert_eq!(subs[1], p("2001:db8:407:8000:1000::/68"));
        assert_eq!(subs[15], p("2001:db8:407:8000:f000::/68"));
        for s in &subs {
            assert!(x.covers(s));
        }
    }

    #[test]
    fn parent_chain() {
        let x = p("2001:db8::/32");
        let parent = x.parent().unwrap();
        assert_eq!(parent.len(), 31);
        assert!(parent.covers(&x));
        assert_eq!(Prefix::DEFAULT.parent(), None);
    }

    #[test]
    fn offsets() {
        let x = p("2001:db8::/64");
        let a: Ipv6Addr = "2001:db8::42".parse().unwrap();
        assert_eq!(x.addr_at(0x42), a);
    }

    #[test]
    fn ordering_sorts_address_then_length() {
        let mut v = vec![p("2001:db8:1::/48"), p("2001:db8::/32"), p("2001:db8::/48")];
        v.sort();
        assert_eq!(
            v,
            vec![p("2001:db8::/32"), p("2001:db8::/48"), p("2001:db8:1::/48")]
        );
    }

    #[test]
    fn mask_extremes() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(128), u128::MAX);
        assert_eq!(mask(1), 1u128 << 127);
    }
}
