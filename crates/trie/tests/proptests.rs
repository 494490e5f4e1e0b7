//! Property tests: the prefix table must agree with a brute-force
//! model, and `aggregate` with its specification.

use expanse_addr::{addr_to_u128, u128_to_addr, Prefix};
use expanse_trie::{aggregate, RangeTable};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    // Cluster prefixes in a small space so covers/overlaps actually occur.
    (0u128..64, 0u8..=8u8, any::<u128>()).prop_map(|(hi, len_class, noise)| {
        let len = len_class * 16; // 0,16,...,128
        Prefix::from_bits((hi << 121) | (noise >> 7), len)
    })
}

/// Brute-force LPM over a map of prefixes.
fn brute_lpm(map: &BTreeMap<Prefix, u32>, addr: Ipv6Addr) -> Option<(Prefix, &u32)> {
    map.iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, v))
}

/// Prefixes of any length in a small corner of the space, each with a
/// chance of bringing its adjacent sibling (same length, last bit
/// flipped) and a duplicate entry along: nested, adjacent, `/0`, `/128`
/// and repeated prefixes all turn up.
fn arb_prefix_set() -> impl Strategy<Value = Vec<(Prefix, u32)>> {
    let one = (0u128..8, 0u8..=128, any::<u128>(), 0u8..4, any::<u32>());
    proptest::collection::vec(one, 0..48).prop_map(|raw| {
        let mut out = Vec::new();
        for (hi, len, noise, extra, v) in raw {
            let p = Prefix::from_bits((hi << 125) | (noise >> 3), len);
            out.push((p, v));
            if extra & 1 == 1 && len > 0 {
                let sibling = p.bits() ^ (1u128 << (128 - u32::from(len)));
                out.push((Prefix::from_bits(sibling, len), v ^ 1));
            }
            if extra & 2 == 2 {
                out.push((p, v.wrapping_add(7)));
            }
        }
        out
    })
}

/// Every address where a longest match or a cover can change: each
/// prefix's first and last address and their outside neighbours, plus
/// the space's ends.
fn edges<'a>(prefixes: impl IntoIterator<Item = &'a Prefix>) -> Vec<u128> {
    let mut out = vec![0, u128::MAX];
    for p in prefixes {
        let (first, last) = (p.bits(), addr_to_u128(p.last()));
        out.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
    }
    out
}

/// The pairs as a map: a later value of a prefix replaces an earlier one.
fn model(entries: &[(Prefix, u32)]) -> BTreeMap<Prefix, u32> {
    entries.iter().copied().collect()
}

/// Prefixes between /120 and /128 under one /120, so complete sibling
/// pairs and covers are common, or of any length near each other.
fn arb_aggregate_input() -> impl Strategy<Value = Vec<Prefix>> {
    const BASE: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
    let one = (0u8..4, any::<u8>(), 120u8..=128, 0u8..=128, any::<u128>());
    proptest::collection::vec(one, 0..96).prop_map(|raw| {
        raw.into_iter()
            .map(|(pick, low, dense_len, len, noise)| {
                if pick > 0 {
                    Prefix::from_bits(BASE | u128::from(low), dense_len)
                } else {
                    Prefix::from_bits(noise >> 3, len)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_matches_brute_force(
        entries in arb_prefix_set(),
        queries in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let table: RangeTable<u32> = entries.iter().copied().collect();
        let map = model(&entries);
        for q in edges(map.keys()).into_iter().chain(queries) {
            let addr = u128_to_addr(q);
            prop_assert_eq!(table.longest_match(addr), brute_lpm(&map, addr), "{}", addr);
        }
    }

    #[test]
    fn clustered_table_matches_brute_force(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..40),
        queries in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let table: RangeTable<u32> = entries.iter().copied().collect();
        let map = model(&entries);
        for q in queries {
            let addr = u128_to_addr(q);
            prop_assert_eq!(table.longest_match(addr), brute_lpm(&map, addr), "{}", addr);
        }
    }

    #[test]
    fn collect_roundtrip(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 1..30),
    ) {
        let table: RangeTable<u32> = entries.iter().copied().collect();
        let map = model(&entries);
        for (p, v) in &map {
            prop_assert_eq!(table.get(*p), Some(v));
        }
        // Iteration yields exactly the stored set, in `Prefix` order.
        let got: Vec<(Prefix, u32)> = table.iter().map(|(p, v)| (p, *v)).collect();
        let want: Vec<(Prefix, u32)> = map.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn covering_agrees_with_filter(
        entries in proptest::collection::vec(arb_prefix(), 0..30),
        q in any::<u128>(),
    ) {
        let table: RangeTable<()> = entries.iter().map(|p| (*p, ())).collect();
        let addr = u128_to_addr(q);
        let got: Vec<Prefix> = table.covering(addr).map(|(p, _)| p).collect();
        let mut want: Vec<Prefix> = entries
            .iter()
            .copied()
            .filter(|p| p.contains(addr))
            .collect();
        want.sort_by_key(|p| std::cmp::Reverse(p.len()));
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// `aggregate` against its specification: the output covers what
    /// the input covers at every edge of either, is sorted, and no
    /// member covers another or completes a sibling pair with one. The
    /// minimal prefix cover of an address set is unique, so this pins
    /// the output.
    #[test]
    fn aggregate_is_the_minimal_cover(input in arb_aggregate_input()) {
        let out = aggregate(&input);
        let covered = |set: &[Prefix], a: Ipv6Addr| set.iter().any(|p| p.contains(a));
        for q in edges(input.iter().chain(&out)) {
            let addr = u128_to_addr(q);
            prop_assert_eq!(covered(&input, addr), covered(&out, addr), "{}", addr);
        }
        prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted: {:?}", out);
        for (i, a) in out.iter().enumerate() {
            for b in &out[i + 1..] {
                prop_assert!(!a.covers(b) && !b.covers(a), "{} and {} nest", a, b);
                prop_assert!(a.parent().is_none() || a.parent() != b.parent(), "{} and {} are siblings", a, b);
            }
        }
    }
}
