//! The aliased-prefix filter: longest-prefix matching over detection
//! results (§5.1: "we perform longest-prefix matching to determine
//! whether a specific IPv6 address falls into an aliased prefix... If a
//! target IP address falls into an aliased prefix, we remove it from
//! that day's ZMapv6 and scamper scans").
//!
//! Multi-level detection can mark a /64 aliased and one of its /68
//! children non-aliased (or vice versa); LPM ensures the most specific
//! verdict wins per address.

use expanse_addr::{AddrSet, AddrTable, IdBits, Prefix};
use expanse_trie::RangeTable;
use std::net::Ipv6Addr;

/// Verdict for a prefix level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The prefix is aliased: remove contained addresses.
    Aliased,
    /// The prefix is explicitly non-aliased (carves out an aliased parent).
    NonAliased,
}

/// The LPM filter.
#[derive(Debug, Clone, Default)]
pub struct AliasFilter {
    verdicts: RangeTable<Verdict>,
}

impl AliasFilter {
    /// Build from a set of aliased prefixes only (everything else
    /// implicitly non-aliased).
    pub fn new(aliased: impl IntoIterator<Item = Prefix>) -> Self {
        aliased.into_iter().map(|p| (p, Verdict::Aliased)).collect()
    }

    /// Is `addr` inside an aliased prefix, by longest-prefix match?
    pub fn is_aliased(&self, addr: Ipv6Addr) -> bool {
        matches!(
            self.verdicts.longest_match(addr),
            Some((_, Verdict::Aliased))
        )
    }

    /// Split a hitlist into (kept, removed).
    pub fn split(&self, addrs: &[Ipv6Addr]) -> (Vec<Ipv6Addr>, Vec<Ipv6Addr>) {
        let mut kept = Vec::new();
        let mut removed = Vec::new();
        for &a in addrs {
            if self.is_aliased(a) {
                removed.push(a);
            } else {
                kept.push(a);
            }
        }
        (kept, removed)
    }

    /// Split an interned hitlist into (kept, removed) id sets, in
    /// ascending-id (= insertion) order, as [`AliasFilter::split`] splits
    /// the same addresses. No per-row match: verdicts come in [`Prefix`]
    /// order, where a cover precedes everything it covers, and a verdict
    /// that overturns its nearest cover's verdict paints its run of the
    /// table's address order ([`AddrTable::sorted`]) into an id bitmap.
    /// Every row so ends with its longest match's verdict.
    pub fn split_set(&self, table: &AddrTable, ids: &AddrSet) -> (AddrSet, AddrSet) {
        let order = table.sorted();
        let mut aliased = IdBits::default();
        let mut covers: Vec<(Prefix, Verdict)> = Vec::new();
        let mut from = 0;
        for (p, &v) in self.verdicts.iter() {
            while covers.last().is_some_and(|(c, _)| !c.covers(&p)) {
                covers.pop();
            }
            let outer = covers.last().map_or(Verdict::NonAliased, |&(_, v)| v);
            if v != outer {
                let run = order.positions_from(table, p, from);
                for &id in &order.as_slice()[run.clone()] {
                    aliased.set(id, v == Verdict::Aliased);
                }
                from = run.start;
            }
            covers.push((p, v));
        }
        let (removed, kept) = ids.iter().partition(|&id| aliased.contains(id));
        (AddrSet::from_sorted(kept), AddrSet::from_sorted(removed))
    }
}

impl FromIterator<(Prefix, Verdict)> for AliasFilter {
    /// Build from explicit verdicts (multi-level detection feeds both
    /// aliased and non-aliased levels so LPM can carve); of a prefix
    /// given twice, the later verdict stands.
    fn from_iter<I: IntoIterator<Item = (Prefix, Verdict)>>(verdicts: I) -> Self {
        AliasFilter {
            verdicts: verdicts.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpm_decides() {
        // Carve a non-aliased /52 inside an aliased /48.
        let f: AliasFilter = [
            ("2001:db8::/48".parse().unwrap(), Verdict::Aliased),
            ("2001:db8:0:1000::/52".parse().unwrap(), Verdict::NonAliased),
        ]
        .into_iter()
        .collect();
        assert!(f.is_aliased("2001:db8::1".parse().unwrap()));
        assert!(!f.is_aliased("2001:db8:0:1234::1".parse().unwrap()));
        assert!(!f.is_aliased("2001:db9::1".parse().unwrap()));
    }

    #[test]
    fn split_hitlist() {
        let f = AliasFilter::new(["2001:db8::/32".parse().unwrap()]);
        let addrs: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2a00::1".parse().unwrap(),
            "2001:db8:ffff::2".parse().unwrap(),
        ];
        let (kept, removed) = f.split(&addrs);
        assert_eq!(kept.len(), 1);
        assert_eq!(removed.len(), 2);
    }

    #[test]
    fn empty_filter_keeps_everything() {
        let f = AliasFilter::default();
        assert!(!f.is_aliased("::1".parse().unwrap()));
    }

    #[test]
    fn split_set_matches_slice_split() {
        let f = AliasFilter::new(["2001:db8::/32".parse().unwrap()]);
        let mut addrs: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2a00::1".parse().unwrap(),
            "2001:db8:ffff::2".parse().unwrap(),
        ];
        // Twenty thousand rows, a third of them under the aliased /32.
        let inside: Prefix = "2001:db8:1::/48".parse().unwrap();
        let outside: Prefix = "2001:db9::/32".parse().unwrap();
        for i in 0..20_000u64 {
            let p = if i % 3 == 0 { inside } else { outside };
            addrs.push(expanse_addr::keyed_random_addr(p, i));
        }
        let mut table = AddrTable::new();
        let ids: AddrSet = addrs.iter().map(|&a| table.intern(a)).collect();
        let (kept_ids, removed_ids) = f.split_set(&table, &ids);
        let (kept, removed) = f.split(&addrs);
        assert_eq!(kept_ids.addrs(&table).collect::<Vec<_>>(), kept);
        assert_eq!(removed_ids.addrs(&table).collect::<Vec<_>>(), removed);
    }
}
