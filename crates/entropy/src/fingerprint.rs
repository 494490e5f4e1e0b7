//! Entropy fingerprints of networks (§4, eq. 1–5).
//!
//! For a set of addresses in one network aggregate (a /32, a BGP prefix,
//! an AS), the fingerprint `F_a^b` is the vector of normalized Shannon
//! entropies of nybbles `a..=b` (1-based in the paper; this module uses
//! the paper's numbering in its API to keep figures comparable).

use expanse_addr::{nybbles::nybble, Prefix};
use expanse_stats::entropy::normalized_entropy16;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// An entropy fingerprint over a nybble range.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// First nybble considered (1-based, per the paper; 9 for `F9_32`).
    pub first_nybble: usize,
    /// Normalized entropy per nybble in `first..=last`.
    pub values: Vec<f64>,
}

impl Fingerprint {
    /// Compute `F_a^b` over a sample of addresses.
    ///
    /// # Panics
    /// Panics if `a` or `b` are outside 1..=32 or `a > b`, or if `addrs`
    /// is empty.
    pub fn compute(addrs: &[Ipv6Addr], a: usize, b: usize) -> Fingerprint {
        assert!(!addrs.is_empty(), "empty address sample");
        assert!(
            (1..=32).contains(&a) && (1..=32).contains(&b) && a <= b,
            "bad nybble range"
        );
        let mut values = Vec::with_capacity(b - a + 1);
        for j in a..=b {
            let mut counts = [0u64; 16];
            for addr in addrs {
                counts[usize::from(nybble(*addr, j - 1))] += 1;
            }
            values.push(normalized_entropy16(&counts));
        }
        Fingerprint {
            first_nybble: a,
            values,
        }
    }

    /// Full-address fingerprint past the /32 boundary: `F9_32` (Fig 2a).
    pub fn full(addrs: &[Ipv6Addr]) -> Fingerprint {
        Fingerprint::compute(addrs, 9, 32)
    }
}

/// Group a hitlist's addresses by covering network aggregate and compute
/// fingerprints for every aggregate with at least `min_addrs` samples.
///
/// `group` maps an address to its aggregate key (e.g. its /32 prefix or
/// its origin AS); aggregates below the threshold are dropped, matching
/// the paper's `n ≥ 100` rule. Groups come back largest sample first,
/// equal sizes in ascending key order.
pub fn fingerprint_groups<K: Ord + Clone>(
    addrs: &[Ipv6Addr],
    a: usize,
    b: usize,
    min_addrs: usize,
    mut group: impl FnMut(Ipv6Addr) -> Option<K>,
) -> Vec<(K, Fingerprint, usize)> {
    let mut buckets: BTreeMap<K, Vec<Ipv6Addr>> = BTreeMap::new();
    for &addr in addrs {
        if let Some(k) = group(addr) {
            buckets.entry(k).or_default().push(addr);
        }
    }
    let mut out: Vec<(K, Fingerprint, usize)> = buckets
        .into_iter()
        .filter(|(_, v)| v.len() >= min_addrs)
        .map(|(k, v)| {
            let n = v.len();
            (k, Fingerprint::compute(&v, a, b), n)
        })
        .collect();
    // Buckets arrive in key order and the sort is stable, so equal sizes
    // stay in key order.
    out.sort_by_key(|x| std::cmp::Reverse(x.2));
    out
}

/// Convenience: group by /32 prefix (the paper's default granularity).
pub fn fingerprints_by_32(
    addrs: &[Ipv6Addr],
    a: usize,
    b: usize,
    min_addrs: usize,
) -> Vec<(Prefix, Fingerprint, usize)> {
    fingerprint_groups(addrs, a, b, min_addrs, |addr| Some(Prefix::new(addr, 32)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::u128_to_addr;

    fn d2(f: &Fingerprint, other: &[f64]) -> f64 {
        assert_eq!(f.values.len(), other.len(), "dimension mismatch");
        f.values
            .iter()
            .zip(other)
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    }

    fn counter_addrs(n: u128) -> Vec<Ipv6Addr> {
        (1..=n)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
            .collect()
    }

    #[test]
    fn counter_profile_shape() {
        let f = Fingerprint::full(&counter_addrs(256));
        assert_eq!(f.values.len(), 24);
        assert_eq!(f.first_nybble, 9);
        // Nybbles 9..30 constant; the last two carry the counter.
        assert!(f.values[..21].iter().all(|&h| h == 0.0), "{:?}", f.values);
        assert!(f.values[23] > 0.9, "{:?}", f.values);
    }

    #[test]
    fn iid_fingerprint_range() {
        let f = Fingerprint::compute(&counter_addrs(16), 17, 32);
        assert_eq!(f.values.len(), 16);
        assert_eq!(f.first_nybble, 17);
    }

    #[test]
    fn d2_metric() {
        let f = Fingerprint {
            first_nybble: 1,
            values: vec![0.0, 1.0],
        };
        assert_eq!(d2(&f, &[0.0, 1.0]), 0.0);
        assert_eq!(d2(&f, &[1.0, 1.0]), 1.0);
        assert_eq!(d2(&f, &[1.0, 0.0]), 2.0);
    }

    #[test]
    fn groups_respect_threshold() {
        let mut addrs = counter_addrs(150);
        // A second /32 with too few addresses.
        addrs.extend((1..=20u128).map(|i| u128_to_addr((0x2001_0db9u128 << 96) | i)));
        let groups = fingerprints_by_32(&addrs, 9, 32, 100);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].2, 150);
        assert_eq!(groups[0].0, "2001:db8::/32".parse().unwrap());
    }

    #[test]
    fn group_by_custom_key() {
        let addrs = counter_addrs(120);
        let groups = fingerprint_groups(&addrs, 9, 32, 100, |_| Some("all"));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, "all");
        // Group fn can drop addresses.
        let none = fingerprint_groups(&addrs, 9, 32, 1, |_| None::<u8>);
        assert!(none.is_empty());
    }

    /// Regression: equal-sized groups used to come back in `RandomState`
    /// order, and `cluster_networks` seeds k-means from that order.
    #[test]
    fn equal_sized_groups_come_back_in_key_order() {
        let keys: Vec<u128> = (0..40).map(|g| 0x2001_0db8 + g).collect();
        let addrs: Vec<Ipv6Addr> = keys
            .iter()
            .flat_map(|&k| (1..=60u128).map(move |i| u128_to_addr((k << 96) | i)))
            .collect();
        let key = |a: Ipv6Addr| Some(expanse_addr::addr_to_u128(a) >> 96);
        let got: Vec<u128> = fingerprint_groups(&addrs, 9, 32, 50, key)
            .iter()
            .map(|g| g.0)
            .collect();
        assert_eq!(got, keys);
    }

    #[test]
    #[should_panic(expected = "bad nybble range")]
    fn bad_range_panics() {
        Fingerprint::compute(&counter_addrs(1), 0, 32);
    }

    #[test]
    #[should_panic(expected = "empty address sample")]
    fn empty_sample_panics() {
        Fingerprint::compute(&[], 9, 32);
    }
}
