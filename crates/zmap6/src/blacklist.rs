//! Scan blacklisting (§10.1 of the paper: "We follow scanning best
//! practices by maintaining a blacklist").
//!
//! A [`Blacklist`] is a prefix set consulted before each probe; targets
//! inside it are never sent to, and the scanner reports how many were
//! suppressed. The file format is one prefix per line with `#` comments —
//! the same convention zmap's `--blacklist-file` uses.

use expanse_addr::{Prefix, PrefixParseError};
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

    /// Parse from the one-prefix-per-line format. Lines starting with `#`
    /// and blank lines are ignored; the first malformed line aborts with
    /// its line number.
    pub fn parse(input: &str) -> Result<Blacklist, (usize, PrefixParseError)> {
        let mut bl = Blacklist::new();
        for (i, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p: Prefix = line.parse().map_err(|e| (i + 1, e))?;
            bl.add(p);
        }
        Ok(bl)
    }

    /// Is `addr` blacklisted? An empty blacklist answers without a
    /// lookup, so a layout walk over it only gathers its targets.
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        self.len > 0 && self.set.covers_addr(addr)
    }

    /// Number of blacklist entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the blacklist empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Partition targets into (probeable, suppressed).
    pub fn filter(&self, targets: &[Ipv6Addr]) -> (Vec<Ipv6Addr>, usize) {
        let mut ok = Vec::with_capacity(targets.len());
        let mut suppressed = 0;
        for &t in targets {
            if self.contains(t) {
                suppressed += 1;
            } else {
                ok.push(t);
            }
        }
        (ok, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_match() {
        let bl =
            Blacklist::parse("# research network opt-outs\n2001:db8:bad::/48\n\n2a00:dead::/32\n")
                .expect("valid file");
        assert_eq!(bl.len(), 2);
        assert!(bl.contains("2001:db8:bad::1".parse().unwrap()));
        assert!(bl.contains("2a00:dead:beef::9".parse().unwrap()));
        assert!(!bl.contains("2001:db8:cafe::1".parse().unwrap()));
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = Blacklist::parse("2001:db8::/32\nnot-a-prefix\n").unwrap_err();
        assert_eq!(err.0, 2);
    }

    #[test]
    fn filter_partitions() {
        let mut bl = Blacklist::new();
        bl.add("2001:db8::/32".parse().unwrap());
        let targets: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2a00::1".parse().unwrap(),
            "2001:db8:ffff::2".parse().unwrap(),
        ];
        let (ok, suppressed) = bl.filter(&targets);
        assert_eq!(ok.len(), 1);
        assert_eq!(suppressed, 2);
    }

    #[test]
    fn duplicates_not_double_counted() {
        let mut bl = Blacklist::new();
        bl.add("2001:db8::/32".parse().unwrap());
        bl.add("2001:db8::/32".parse().unwrap());
        assert_eq!(bl.len(), 1);
        assert!(!bl.is_empty());
    }
}
