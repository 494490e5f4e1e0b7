//! Prefix aggregation: collapse complete sibling pairs into their parent.
//!
//! The hitlist service publishes the aliased-prefix list daily; detection
//! at /64 granularity inside an aliased /48 yields thousands of sibling
//! /64s that aggregate back to the /48 (CIDR supernetting). Aggregation
//! keeps the published file proportional to the *phenomenon*, not to the
//! probing schedule.

use expanse_addr::Prefix;

/// Aggregate a set of prefixes: drop prefixes covered by another prefix
/// in the set, and replace both children of a parent with the parent
/// itself, repeatedly. The result covers exactly the same address space
/// with the fewest prefixes, sorted.
///
/// One sweep in [`Prefix`] order over a stack of kept prefixes, which
/// stay sorted and disjoint: a prefix the top covers is dropped (no
/// deeper member can cover it), and a complete sibling pair can only
/// be the top two, so each push merges upward while they are one.
pub fn aggregate(prefixes: &[Prefix]) -> Vec<Prefix> {
    let mut sorted = prefixes.to_vec();
    sorted.sort_unstable();
    let mut kept: Vec<Prefix> = Vec::with_capacity(sorted.len());
    for p in sorted {
        if kept.last().is_some_and(|top| top.covers(&p)) {
            continue;
        }
        kept.push(p);
        // Two kept prefixes are distinct: one parent makes them its two
        // children.
        while let [.., a, b] = kept[..] {
            match a.parent() {
                Some(parent) if b.parent() == Some(parent) => {
                    kept.truncate(kept.len() - 2);
                    kept.push(parent);
                }
                _ => break,
            }
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn merges_complete_sibling_pairs() {
        let out = aggregate(&[p("2001:db8::/33"), p("2001:db8:8000::/33")]);
        assert_eq!(out, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn cascades_upward() {
        // Four /34s -> one /32.
        let out = aggregate(&[
            p("2001:db8::/34"),
            p("2001:db8:4000::/34"),
            p("2001:db8:8000::/34"),
            p("2001:db8:c000::/34"),
        ]);
        assert_eq!(out, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn incomplete_pairs_stay() {
        let out = aggregate(&[p("2001:db8::/33"), p("2001:db9::/33")]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn covered_prefixes_dropped() {
        let out = aggregate(&[p("2001:db8::/32"), p("2001:db8:1234::/48")]);
        assert_eq!(out, vec![p("2001:db8::/32")]);
    }

    #[test]
    fn duplicates_collapse() {
        let out = aggregate(&[p("2001:db8::/48"), p("2001:db8::/48")]);
        assert_eq!(out, vec![p("2001:db8::/48")]);
    }

    #[test]
    fn sixteen_64s_make_a_60() {
        let base = p("2001:db8:0:40::/58");
        let children: Vec<Prefix> = (0..64u128).map(|i| base.subprefix(6, i)).collect();
        let out = aggregate(&children);
        assert_eq!(out, vec![base]);
    }

    #[test]
    fn preserves_address_space_exactly() {
        let input = vec![
            p("2001:db8::/33"),
            p("2001:db8:8000::/34"),
            p("2001:db8:c000::/34"),
            p("2a00::/24"),
        ];
        let out = aggregate(&input);
        assert_eq!(out, vec![p("2001:db8::/32"), p("2a00::/24")]);
        // Membership equivalence on sample points.
        let covered = |set: &[Prefix], a| set.iter().any(|q| q.contains(a));
        for i in 0..200u64 {
            let a = expanse_addr::keyed_random_addr(p("2001:da0::/27"), i);
            assert_eq!(covered(&input, a), covered(&out, a), "{a}");
        }
    }

    #[test]
    fn empty_input() {
        assert!(aggregate(&[]).is_empty());
    }
}
