//! The aliased-prefix filter: longest-prefix matching over detection
//! results (§5.1: "we perform longest-prefix matching to determine
//! whether a specific IPv6 address falls into an aliased prefix... If a
//! target IP address falls into an aliased prefix, we remove it from
//! that day's ZMapv6 and scamper scans").
//!
//! The detector outputs aliased prefixes only, so an address is aliased
//! exactly when some aliased prefix covers it. The day's alias split and
//! the served view both read one [`AliasFilter`]: per address through
//! [`AliasFilter::longest_match`], or per table through
//! [`AliasFilter::runs`], the sorted-position runs its members occupy.

use expanse_addr::{AddrSet, AddrTable, IdBits, Prefix, SortedView};
use expanse_trie::RangeTable;
use std::net::Ipv6Addr;
use std::ops::Range;

/// A day's aliased prefixes, indexed for longest-prefix match.
#[derive(Debug, Clone, Default)]
pub struct AliasFilter {
    prefixes: RangeTable<()>,
}

impl AliasFilter {
    /// Build from a set of aliased prefixes, in any order.
    pub fn new(aliased: impl IntoIterator<Item = Prefix>) -> Self {
        AliasFilter {
            prefixes: aliased.into_iter().map(|p| (p, ())).collect(),
        }
    }

    /// The most specific aliased prefix covering `addr`, if any.
    #[inline]
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<Prefix> {
        self.prefixes.longest_match(addr).map(|(p, ())| p)
    }

    /// Is `addr` inside an aliased prefix?
    pub fn is_aliased(&self, addr: Ipv6Addr) -> bool {
        self.longest_match(addr).is_some()
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

    /// The aliased rows of `table` as runs of positions in `order` (the
    /// table's address order), ascending and disjoint: one per outermost
    /// prefix, as a nested one lies inside its cover's run. Each search
    /// gallops on from where the last run ended.
    pub fn runs<'a>(
        &'a self,
        table: &'a AddrTable,
        order: &'a SortedView,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let mut cover: Option<Prefix> = None;
        let mut from = 0;
        self.prefixes.iter().filter_map(move |(p, ())| {
            if cover.is_some_and(|c| c.covers(&p)) {
                return None;
            }
            cover = Some(p);
            let run = order.positions_from(table, p, from);
            from = run.end;
            Some(run)
        })
    }

    /// Split an interned hitlist into (kept, removed) id sets, in
    /// ascending-id (= insertion) order, as [`AliasFilter::split`] splits
    /// the same addresses. No per-row match: each of
    /// [`AliasFilter::runs`] over the table's address order
    /// ([`AddrTable::sorted`]) is painted into an id bitmap.
    pub fn split_set(&self, table: &AddrTable, ids: &AddrSet) -> (AddrSet, AddrSet) {
        let order = table.sorted();
        let aliased: IdBits = self
            .runs(table, &order)
            .flat_map(|run| &order.as_slice()[run])
            .copied()
            .collect();
        let (removed, kept) = ids.iter().partition(|&id| aliased.contains(id));
        (AddrSet::from_sorted(kept), AddrSet::from_sorted(removed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_match_names_the_most_specific_prefix() {
        let p = |s: &str| -> Prefix { s.parse().unwrap() };
        let f = AliasFilter::new([p("2001:db8:0:1000::/52"), p("2001:db8::/48")]);
        let at = |s: &str| f.longest_match(s.parse().unwrap());
        assert_eq!(at("2001:db8::1"), Some(p("2001:db8::/48")));
        assert_eq!(at("2001:db8:0:1234::1"), Some(p("2001:db8:0:1000::/52")));
        assert_eq!(at("2001:db9::1"), None);
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
    fn runs_skip_nested_prefixes() {
        let p = |s: &str| -> Prefix { s.parse().unwrap() };
        let f = AliasFilter::new([p("2001:db8::/48"), p("2001:db8::/56"), p("2001:db8:2::/48")]);
        let mut table = AddrTable::new();
        for a in [
            "2001:db8::1",
            "2001:db8:0:ff::1",
            "2001:db8:1::1",
            "2001:db8:2::1",
        ] {
            table.intern(a.parse().unwrap());
        }
        let order = table.sorted();
        assert_eq!(f.runs(&table, &order).collect::<Vec<_>>(), [0..2, 3..4]);
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
