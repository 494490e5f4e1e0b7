//! Scan blacklisting (§10.1 of the paper: "We follow scanning best
//! practices by maintaining a blacklist").
//!
//! A [`Blacklist`] is a prefix set consulted before each probe; targets
//! inside it are never sent to, and the scanner reports how many were
//! suppressed.

use expanse_addr::Prefix;
use expanse_trie::PrefixSet;
use std::net::Ipv6Addr;

/// A set of never-probe prefixes.
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    set: PrefixSet,
    len: usize,
}

impl Blacklist {
    /// An empty blacklist.
    pub fn new() -> Self {
        Blacklist::default()
    }

    /// Add one prefix.
    pub fn add(&mut self, p: Prefix) {
        if self.set.add(p) {
            self.len += 1;
        }
    }

    /// Is `addr` blacklisted? An empty blacklist answers without a
    /// lookup, so a layout walk over it only gathers its targets.
    pub(crate) fn contains(&self, addr: Ipv6Addr) -> bool {
        self.len > 0 && self.set.covers_addr(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_addresses_match() {
        let mut bl = Blacklist::new();
        bl.add("2001:db8:bad::/48".parse().unwrap());
        bl.add("2a00:dead::/32".parse().unwrap());
        assert_eq!(bl.len, 2);
        assert!(bl.contains("2001:db8:bad::1".parse().unwrap()));
        assert!(bl.contains("2a00:dead:beef::9".parse().unwrap()));
        assert!(!bl.contains("2001:db8:cafe::1".parse().unwrap()));
    }

    #[test]
    fn duplicates_not_double_counted() {
        let mut bl = Blacklist::new();
        bl.add("2001:db8::/32".parse().unwrap());
        bl.add("2001:db8::/32".parse().unwrap());
        assert_eq!(bl.len, 1);
    }
}
