//! Stateful oracle: random inserts and overwrites over a small pool of
//! nesting and diverging prefixes. After every step the table is
//! collected again from every pair inserted so far, in order, and
//! checked against a `BTreeMap<Prefix, V>` that took the same inserts —
//! so a repeated prefix must keep its last value, as `BTreeMap::insert`
//! does. The pool is small so that prefixes nest deeply and stored
//! values are replaced many times per case.

use expanse_addr::Prefix;
use expanse_trie::RangeTable;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// A chain of prefixes nesting down one address (lengths 0, 1, 127 and
/// 128 included), the sibling diverging from the chain at each depth,
/// and a few prefixes far from all of them.
fn pool() -> Vec<Prefix> {
    let spine: u128 = 0x2001_0db8_0407_8000_0123_4567_89ab_cdef;
    let chain = [0u8, 1, 2, 3, 16, 31, 32, 33, 48, 64, 96, 126, 127, 128];
    let mut pool: Vec<Prefix> = chain.iter().map(|&l| Prefix::from_bits(spine, l)).collect();
    for &len in &chain[1..] {
        let flipped = spine ^ (1u128 << (128 - u32::from(len)));
        pool.push(Prefix::from_bits(flipped, len));
    }
    for far in [
        "2a00::/12",
        "2a00:1450::/32",
        "2a00:1450:4001::/48",
        "fe80::/10",
    ] {
        pool.push(far.parse().expect("pool prefix"));
    }
    pool
}

type Model = BTreeMap<Prefix, u32>;

/// The model's prefixes covering `addr`, longest first.
fn covering(model: &Model, addr: Ipv6Addr) -> Vec<(Prefix, u32)> {
    let mut hits: Vec<(Prefix, u32)> = model
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .map(|(p, v)| (*p, *v))
        .collect();
    hits.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    hits
}

fn check(table: &RangeTable<u32>, model: &Model, pool: &[Prefix]) {
    let all: Vec<(Prefix, u32)> = table.iter().map(|(p, v)| (p, *v)).collect();
    let want: Vec<(Prefix, u32)> = model.iter().map(|(p, v)| (*p, *v)).collect();
    assert_eq!(all, want, "iter() order and content");

    for &p in pool {
        assert_eq!(table.get(p), model.get(&p), "get {p}");
        for addr in [p.first(), p.last()] {
            let hits = covering(model, addr);
            let got: Vec<(Prefix, u32)> = table.covering(addr).map(|(q, v)| (q, *v)).collect();
            assert_eq!(got, hits, "covering {addr}");
            let longest = table.longest_match(addr).map(|(q, v)| (q, *v));
            assert_eq!(longest, hits.first().copied(), "longest_match {addr}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_agrees_with_btreemap_after_every_step(
        steps in proptest::collection::vec((any::<u16>(), any::<u32>()), 1..80),
    ) {
        let pool = pool();
        let mut inserted: Vec<(Prefix, u32)> = Vec::new();
        let mut model = Model::new();
        check(&RangeTable::default(), &model, &pool);
        for (pick, value) in steps {
            let p = pool[usize::from(pick) % pool.len()];
            inserted.push((p, value));
            model.insert(p, value);
            let table: RangeTable<u32> = inserted.iter().copied().collect();
            check(&table, &model, &pool);
        }
    }
}
