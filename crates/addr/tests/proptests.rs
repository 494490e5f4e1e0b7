//! Property-based tests for address primitives.

use expanse_addr::codec::{read_table, read_table_suffix, write_table, write_table_suffix};
use expanse_addr::codec::{Decoder, Encoder};
use expanse_addr::{
    addr_to_u128, fanout16, keyed_random_addr, nybbles, prefix::mask, u128_to_addr, AddrId,
    AddrSet, AddrTable, IdBits, Prefix,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<u128>().prop_map(u128_to_addr)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u128>(), 0u8..=128).prop_map(|(bits, len)| Prefix::from_bits(bits, len))
}

/// One way a table grows or is rebuilt.
#[derive(Debug, Clone)]
enum TableOp {
    /// Intern one address; the kept order goes stale.
    One(u128),
    /// Intern a batch, then merge it into the kept order.
    Batch(Vec<u128>),
    /// Round-trip the table through `write_table` / `read_table`.
    Reload,
    /// Rebuild the first `at / 256` of the rows (merged or not), then
    /// append the rest through `write_table_suffix` / `read_table_suffix`.
    Suffix(u8, bool),
}

/// Small values repeat (the intern dedup path); large ones spread.
fn arb_bits() -> impl Strategy<Value = u128> {
    prop_oneof![0u128..64, any::<u128>()]
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        arb_bits().prop_map(TableOp::One),
        proptest::collection::vec(arb_bits(), 0..40).prop_map(TableOp::Batch),
        Just(TableOp::Reload),
        (any::<u8>(), any::<bool>()).prop_map(|(at, merged)| TableOp::Suffix(at, merged)),
    ]
}

const MAGIC: [u8; 8] = *b"TESTMAGC";

fn reload(t: &AddrTable) -> AddrTable {
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &MAGIC, 1).unwrap();
    write_table(&mut enc, t).unwrap();
    enc.finish().unwrap();
    read_table(&mut Decoder::new(buf.as_slice(), &MAGIC, 1).unwrap()).unwrap()
}

fn via_suffix(t: &AddrTable, at: u8, merged: bool) -> AddrTable {
    let from = t.len() * usize::from(at) / 256;
    let mut base = AddrTable::new();
    for &v in &t.raw()[..from] {
        base.intern_u128(v);
    }
    if merged {
        base.merge_order();
    }
    let mut buf = Vec::new();
    let mut enc = Encoder::new(&mut buf, &MAGIC, 1).unwrap();
    write_table_suffix(&mut enc, t, from).unwrap();
    enc.finish().unwrap();
    let mut dec = Decoder::new(buf.as_slice(), &MAGIC, 1).unwrap();
    read_table_suffix(&mut dec, &mut base).unwrap();
    base
}

proptest! {
    #[test]
    fn u128_addr_roundtrip(v in any::<u128>()) {
        prop_assert_eq!(addr_to_u128(u128_to_addr(v)), v);
    }

    #[test]
    fn nybbles_roundtrip(a in arb_addr()) {
        let n = nybbles::nybbles(a);
        prop_assert_eq!(nybbles::from_nybbles(&n), a);
        for (i, &x) in n.iter().enumerate() {
            prop_assert_eq!(nybbles::nybble(a, i), x);
            prop_assert!(x <= 0xf);
        }
    }

    #[test]
    fn prefix_contains_its_bounds(p in arb_prefix()) {
        prop_assert!(p.contains(p.first()));
        prop_assert!(p.contains(p.last()));
        if let Some(parent) = p.parent() {
            prop_assert!(parent.covers(&p));
        }
    }

    #[test]
    fn prefix_mask_consistency(p in arb_prefix()) {
        // Canonical form: no host bits set.
        prop_assert_eq!(p.bits() & !mask(p.len()), 0);
        // Display/parse roundtrip.
        let s = p.to_string();
        let q: Prefix = s.parse().unwrap();
        prop_assert_eq!(p, q);
    }

    #[test]
    fn keyed_random_addr_contained(p in arb_prefix(), salt in any::<u64>()) {
        prop_assert!(p.contains(keyed_random_addr(p, salt)));
    }

    #[test]
    fn fanout_covers_all_branches(bits in any::<u128>(), len in 0u8..=124, salt in any::<u64>()) {
        let p = Prefix::from_bits(bits, len);
        let t = fanout16(p, salt);
        prop_assert_eq!(t.len(), 16);
        let mut seen = [false; 16];
        for ft in &t {
            prop_assert!(ft.subprefix.contains(ft.addr));
            prop_assert!(p.contains(ft.addr));
            seen[usize::from(ft.branch)] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn offset_roundtrip(p in arb_prefix(), off in any::<u128>()) {
        let off = if p.is_default() { off } else { off % p.size() };
        let a = p.addr_at(off);
        prop_assert!(p.contains(a));
        prop_assert_eq!(addr_to_u128(a) & !mask(p.len()), off);
    }

    // ---- interned address store -------------------------------------

    #[test]
    fn interner_roundtrips_u128_addr_id(vals in proptest::collection::vec(any::<u128>(), 0..200)) {
        let mut table = AddrTable::new();
        for &v in &vals {
            let a = u128_to_addr(v);
            let id = table.intern(a);
            // u128 ↔ Ipv6Addr ↔ AddrId all resolve back to each other.
            prop_assert_eq!(table.bits(id), v);
            prop_assert_eq!(table.addr(id), a);
            prop_assert_eq!(table.lookup(a), Some(id));
            prop_assert_eq!(table.lookup_u128(v), Some(id));
        }
    }

    #[test]
    fn interner_stable_under_duplicate_inserts(vals in proptest::collection::vec(0u128..64, 0..200)) {
        // Small value domain forces heavy duplication.
        let mut table = AddrTable::new();
        // Interleave lookups with the inserts against an ordered model:
        // probing `v + 1` mixes hits (already interned) and misses
        // (not yet, or never, interned) across the low domain.
        let mut model: BTreeMap<u128, usize> = BTreeMap::new();
        let mut first: Vec<AddrId> = Vec::new();
        for &v in &vals {
            let next = model.len();
            let want = *model.entry(v).or_insert(next);
            let (id, new) = table.intern_u128(v);
            prop_assert_eq!((id.index(), new), (want, want == next));
            let probe = table.lookup_u128(v + 1).map(AddrId::index);
            prop_assert_eq!(probe, model.get(&(v + 1)).copied());
            first.push(id);
        }
        let len = table.len();
        let second: Vec<AddrId> = vals.iter().map(|&v| table.intern_u128(v).0).collect();
        prop_assert_eq!(&first, &second, "re-interning must return identical ids");
        prop_assert_eq!(table.len(), len, "re-interning must not grow the table");
        // Ids are dense and agree with a BTreeSet of uniques.
        let uniq: BTreeSet<u128> = vals.iter().copied().collect();
        prop_assert_eq!(table.len(), uniq.len());
        for id in first {
            prop_assert!(id.index() < table.len());
        }
    }

    #[test]
    fn addr_set_matches_btreeset_oracle(
        xs in proptest::collection::vec(0usize..80, 0..120),
        probe in 0usize..100,
    ) {
        let sa: AddrSet = xs.iter().map(|&i| AddrId::from_index(i)).collect();
        let oa: BTreeSet<usize> = xs.iter().copied().collect();
        let ids: Vec<usize> = sa.iter().map(AddrId::index).collect();
        prop_assert_eq!(ids, oa.iter().copied().collect::<Vec<_>>(), "construction dedups + sorts");
        let bits: IdBits = sa.iter().collect();
        prop_assert_eq!(bits.contains(AddrId::from_index(probe)), oa.contains(&probe));
        prop_assert_eq!(sa.len(), oa.len());
    }

    /// The sorted-view prefix range (two binary searches over the
    /// address-sorted permutation) agrees with a naive full scan of the
    /// table filtered by `Prefix::contains`, on both membership and
    /// order.
    #[test]
    fn sorted_view_range_matches_full_scan_oracle(
        vals in proptest::collection::vec(any::<u128>(), 0..200),
        near in proptest::collection::vec(0u128..1024, 0..50),
        bits in any::<u128>(),
        len in 0u8..=128,
    ) {
        let mut table = AddrTable::new();
        for &v in &vals {
            table.intern_u128(v);
        }
        let p = Prefix::from_bits(bits, len);
        // Seed values clustered around the probed prefix so ranges are
        // regularly non-empty, not just the all-random miss case.
        for &off in &near {
            table.intern_u128(p.bits() | (off & !mask(p.len())));
        }
        let view = table.sorted();

        // Oracle: scan every interned address.
        let mut expect: Vec<u128> = table
            .raw()
            .iter()
            .copied()
            .filter(|&v| p.contains(u128_to_addr(v)))
            .collect();
        expect.sort_unstable();

        let got: Vec<u128> = view.as_slice()[view.positions(&table, p)]
            .iter()
            .map(|&id| table.bits(id))
            .collect();
        prop_assert_eq!(&got, &expect, "range members/order diverge from full scan");

        // Galloping from any position at or before the run finds it too.
        let run = view.positions(&table, p);
        prop_assert_eq!(view.positions_from(&table, p, run.start / 2), run.clone());
        prop_assert_eq!(view.positions_from(&table, p, run.start), run);
    }

    #[test]
    fn kept_order_equals_a_fresh_sort(ops in proptest::collection::vec(arb_table_op(), 0..24)) {
        let mut t = AddrTable::new();
        for op in ops {
            match op {
                TableOp::One(v) => {
                    t.intern_u128(v);
                }
                TableOp::Batch(vs) => {
                    for v in vs {
                        t.intern_u128(v);
                    }
                    t.merge_order();
                }
                TableOp::Reload => t = reload(&t),
                TableOp::Suffix(at, merged) => t = via_suffix(&t, at, merged),
            }
            let mut fresh = t.raw().to_vec();
            fresh.sort_unstable();
            let sorted: Vec<u128> = t.sorted().iter().map(|id| t.bits(id)).collect();
            prop_assert_eq!(&sorted, &fresh, "the order is not a sort of raw()");
            // The kept order, current or not, sorts exactly the ids it covers.
            let kept = t.order().as_slice();
            prop_assert!(kept.windows(2).all(|w| t.bits(w[0]) < t.bits(w[1])));
            prop_assert!(kept.iter().all(|id| id.index() < kept.len()));
        }
        t.merge_order();
        prop_assert_eq!(t.order().len(), t.len());
    }
}

/// Batches of thousands of rows, each merged into all the rows before
/// it, leave the kept order a fresh sort.
#[test]
fn large_batches_merge_into_a_fresh_sort() {
    let mut t = AddrTable::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u128;
    for _ in 0..3 {
        for _ in 0..5000 {
            x = x
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                .wrapping_add(0x1405_7b7e);
            t.intern_u128(x.rotate_left(64));
        }
        t.merge_order();
    }
    let mut fresh = t.raw().to_vec();
    fresh.sort_unstable();
    let kept: Vec<u128> = t.order().iter().map(|id| t.bits(id)).collect();
    assert_eq!(kept, fresh);
}
