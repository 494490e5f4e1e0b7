//! Property tests: the trie must agree with a brute-force model.

use expanse_addr::{u128_to_addr, Prefix};
use expanse_trie::{PrefixTrie, RangeTable};
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

/// Every address where a longest match can change: each prefix's first
/// and last address and their outside neighbours, plus the space's ends.
fn edges(entries: &[(Prefix, u32)]) -> Vec<u128> {
    let mut out = vec![0, u128::MAX];
    for (p, _) in entries {
        let (first, last) = (p.bits(), expanse_addr::addr_to_u128(p.last()));
        out.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frozen_table_matches_the_trie(
        entries in arb_prefix_set(),
        queries in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let trie: PrefixTrie<u32> = entries.iter().copied().collect();
        let frozen = RangeTable::freeze(&trie);
        for q in edges(&entries).into_iter().chain(queries) {
            let addr = u128_to_addr(q);
            prop_assert_eq!(frozen.longest_match(addr), trie.longest_match(addr), "{}", addr);
        }
    }

    #[test]
    fn trie_matches_brute_force(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 0..40),
        queries in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let mut trie = PrefixTrie::new();
        let mut map: BTreeMap<Prefix, u32> = BTreeMap::new();
        for (p, v) in entries {
            trie.insert(p, v);
            map.insert(p, v);
        }
        prop_assert_eq!(trie.iter().count(), map.len());
        for q in queries {
            let addr = u128_to_addr(q);
            let got = trie.longest_match(addr).map(|(p, v)| (p, *v));
            let want = brute_lpm(&map, addr).map(|(p, v)| (p, *v));
            // Prefix lengths must agree (values may differ only if two
            // distinct prefixes of equal length both match, impossible).
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn insert_roundtrip(
        entries in proptest::collection::vec((arb_prefix(), any::<u32>()), 1..30),
    ) {
        let mut trie = PrefixTrie::new();
        let mut map: BTreeMap<Prefix, u32> = BTreeMap::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
            map.insert(*p, *v);
        }
        prop_assert_eq!(trie.iter().count(), map.len());
        for (p, v) in &map {
            prop_assert_eq!(trie.get(*p), Some(v));
        }
        // Iteration yields exactly the stored set.
        let mut got: Vec<(Prefix, u32)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        let mut want: Vec<(Prefix, u32)> = map.into_iter().collect();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn matches_agrees_with_filter(
        entries in proptest::collection::vec(arb_prefix(), 0..30),
        q in any::<u128>(),
    ) {
        let trie: PrefixTrie<()> = entries.iter().map(|p| (*p, ())).collect();
        let addr = u128_to_addr(q);
        let got: Vec<Prefix> = trie.matches(addr).map(|(p, _)| p).collect();
        let mut want: Vec<Prefix> = entries
            .iter()
            .copied()
            .filter(|p| p.contains(addr))
            .collect();
        want.sort_by_key(|p| p.len());
        want.dedup();
        prop_assert_eq!(got, want);
    }
}
