//! Scan blacklisting (§10.1 of the paper: "We follow scanning best
//! practices by maintaining a blacklist").
//!
//! A [`Blacklist`] is a prefix set consulted before each probe; targets
//! inside it are never sent to, and the scanner reports how many were
//! suppressed.

use expanse_addr::Prefix;
use expanse_trie::RangeTable;
use std::net::Ipv6Addr;

/// A set of never-probe prefixes, collected from them.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    prefixes: RangeTable<()>,
}

impl Blacklist {
    /// Is `addr` blacklisted?
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.prefixes.longest_match(addr).is_some()
    }
}

impl FromIterator<Prefix> for Blacklist {
    fn from_iter<I: IntoIterator<Item = Prefix>>(prefixes: I) -> Self {
        Blacklist {
            prefixes: prefixes.into_iter().map(|p| (p, ())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_addresses_match() {
        let bl: Blacklist = ["2001:db8:bad::/48", "2a00:dead::/32"]
            .iter()
            .map(|p| p.parse().unwrap())
            .collect();
        assert!(bl.contains("2001:db8:bad::1".parse().unwrap()));
        assert!(bl.contains("2a00:dead:beef::9".parse().unwrap()));
        assert!(!bl.contains("2001:db8:cafe::1".parse().unwrap()));
    }

    #[test]
    fn empty_blacklist_covers_nothing() {
        let bl = Blacklist::default();
        assert!(!bl.contains("::".parse().unwrap()));
        assert!(!bl.contains("2001:db8::1".parse().unwrap()));
    }
}
