//! The sorted-run planner against the counting it replaced.
//!
//! `plan_targets` used to upsert one map entry per (address, level) and
//! filter the map; it now sorts the addresses once and reads each
//! level's counts off as run lengths. The reference below *is* the old
//! algorithm (on an ordered map, so the oracle itself is deterministic);
//! the two must agree on every address multiset and target gate.

use expanse_addr::{u128_to_addr, AddrSet, AddrTable, Prefix};
use expanse_apd::{plan_targets, plan_targets_set, PlanConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// The pre-PR-13 planner: count every address under every level (the
/// paper's "all prefixes from 64 to 124, in 4-bit steps"), keep /64
/// prefixes unconditionally and the rest above the gate.
fn reference_plan(hitlist: &[Ipv6Addr], cfg: &PlanConfig) -> Vec<Prefix> {
    let mut counts: BTreeMap<Prefix, usize> = BTreeMap::new();
    for &a in hitlist {
        for level in (64..=124).step_by(4) {
            *counts.entry(Prefix::new(a, level)).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|(p, n)| p.len() == 64 || *n > cfg.min_targets)
        .map(|(p, _)| p)
        .collect()
}

/// Clustered addresses: four /8s, and a tail shifted right by a random
/// amount so low shifts spread the tail over the whole address and high
/// shifts pile addresses (and exact duplicates) into a few deep prefixes.
fn arb_addrs() -> impl Strategy<Value = Vec<Ipv6Addr>> {
    collection::vec(
        (0u128..4, any::<u128>(), 8u32..=127)
            .prop_map(|(top, tail, shift)| u128_to_addr((top << 120) | (tail >> shift))),
        0..200,
    )
}

/// A random target gate: low enough that runs of clustered and
/// duplicated addresses pass it at every level.
fn arb_cfg() -> impl Strategy<Value = PlanConfig> {
    (0usize..6).prop_map(|min_targets| PlanConfig { min_targets })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_runs_equal_per_level_counting(addrs in arb_addrs(), cfg in arb_cfg()) {
        prop_assert_eq!(plan_targets(&addrs, &cfg), reference_plan(&addrs, &cfg));
    }

    /// The table's address order restricted to a live subset plans like
    /// a sort of the subset's addresses. Rows left out of `live` are
    /// the table's tombstones; the order is merged half-way, so its
    /// tail is stale.
    #[test]
    fn set_plan_walks_the_table_order(
        addrs in arb_addrs(),
        live_mask in collection::vec(any::<bool>(), 200),
        cfg in arb_cfg(),
    ) {
        let mut table = AddrTable::new();
        let mut live = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let (id, new) = table.intern_u128(expanse_addr::addr_to_u128(a));
            if new && live_mask[i] {
                live.push(id);
            }
            if i == addrs.len() / 2 {
                table.merge_order();
            }
        }
        let live = AddrSet::from_sorted(live);
        let live_addrs: Vec<Ipv6Addr> = live.addrs(&table).collect();
        prop_assert_eq!(
            plan_targets_set(&table, &live, &cfg),
            plan_targets(&live_addrs, &cfg)
        );
    }
}
