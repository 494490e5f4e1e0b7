//! The range-painted alias split against the per-row longest-prefix
//! match it replaced.
//!
//! `AliasFilter::split_set` paints each outermost aliased prefix's run
//! of the table's address order into an id bitmap; `AliasFilter::split`
//! asks the prefix table once per address. Over nested aliased
//! prefixes, live subsets of a table with dead rows, and a table order
//! that is current or stale, the two must keep and remove the same
//! addresses in the same (id) order.

use expanse_addr::{u128_to_addr, AddrSet, AddrTable, Prefix};
use expanse_apd::AliasFilter;
use proptest::prelude::*;
use std::net::Ipv6Addr;

/// Every address and prefix lives in one /96, most of them in its low
/// 16 bits, so marks nest deeply and cover many rows.
const BASE: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;

fn arb_low() -> impl Strategy<Value = u128> {
    // Three in four fall in the low 16 bits.
    (0u8..4, 0u128..0x1_0000_0000).prop_map(|(w, low)| if w > 0 { low & 0xffff } else { low })
}

fn arb_mark() -> impl Strategy<Value = Prefix> {
    (arb_low(), prop_oneof![96u8..=128, 100u8..=116])
        .prop_map(|(low, len)| Prefix::from_bits(BASE | low, len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn painted_split_equals_per_row_lpm(
        lows in collection::vec(arb_low(), 0..300),
        live_mask in collection::vec(any::<bool>(), 300),
        marks in collection::vec(arb_mark(), 0..24),
        merged in any::<bool>(),
    ) {
        let filter = AliasFilter::new(marks);
        let mut table = AddrTable::new();
        let mut live = Vec::new();
        for (i, &low) in lows.iter().enumerate() {
            let (id, new) = table.intern_u128(BASE | low);
            // Rows left out of `live` are the table's dead ones.
            if new && live_mask[i] {
                live.push(id);
            }
            if merged && i == lows.len() / 2 {
                table.merge_order();
            }
        }
        let live = AddrSet::from_sorted(live);
        let addrs: Vec<Ipv6Addr> = live.addrs(&table).collect();
        let (kept, removed) = filter.split_set(&table, &live);
        let (kept_lpm, removed_lpm) = filter.split(&addrs);
        prop_assert_eq!(kept.addrs(&table).collect::<Vec<_>>(), kept_lpm);
        prop_assert_eq!(removed.addrs(&table).collect::<Vec<_>>(), removed_lpm);
    }
}

#[test]
fn nested_aliased_prefixes_remove_every_row_they_cover() {
    let p = |s: &str| -> Prefix { s.parse().unwrap() };
    let filter = AliasFilter::new([p("2001:db8::/48"), p("2001:db8::/56")]);
    let mut table = AddrTable::new();
    let ids: AddrSet = ["2001:db8::1", "2001:db8:0:f000::1", "2001:db9::1"]
        .iter()
        .map(|a| table.intern(a.parse().unwrap()))
        .collect();
    let (kept, removed) = filter.split_set(&table, &ids);
    let kept: Vec<Ipv6Addr> = kept.addrs(&table).collect();
    assert_eq!(kept, [u128_to_addr(0x2001_0db9 << 96 | 1)]);
    assert_eq!(removed.len(), 2);
}
