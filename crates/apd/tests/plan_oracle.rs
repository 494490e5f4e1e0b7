//! The sorted-run planner against the counting it replaced.
//!
//! `plan_targets` used to upsert one map entry per (address, level) and
//! filter the map; it now sorts the addresses once and reads each
//! level's counts off as run lengths. The reference below *is* the old
//! algorithm (on an ordered map, so the oracle itself is deterministic);
//! the two must agree on every address multiset and configuration.

use expanse_addr::{u128_to_addr, AddrSet, AddrTable, Prefix};
use expanse_apd::{plan_targets, plan_targets_set, PlanConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// The pre-PR-13 planner: count every address under every level, keep
/// `min_level` prefixes unconditionally and the rest above the gate.
fn reference_plan(hitlist: &[Ipv6Addr], cfg: &PlanConfig) -> Vec<Prefix> {
    let mut counts: BTreeMap<Prefix, usize> = BTreeMap::new();
    for &a in hitlist {
        let mut level = u32::from(cfg.min_level);
        while level <= u32::from(cfg.max_level) {
            *counts.entry(Prefix::new(a, level as u8)).or_insert(0) += 1;
            level += u32::from(cfg.step);
        }
    }
    counts
        .into_iter()
        .filter(|(p, n)| p.len() == cfg.min_level || *n > cfg.min_targets)
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

fn arb_cfg() -> impl Strategy<Value = PlanConfig> {
    (
        0u8..=128,
        prop_oneof![Just(128u8), 0u8..=128],
        1u8..=16,
        0usize..6,
    )
        .prop_map(|(a, b, step, min_targets)| PlanConfig {
            min_level: a.min(b),
            max_level: a.max(b),
            step,
            min_targets,
        })
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

#[test]
fn whole_range_single_bit_steps_with_duplicates() {
    // Every level 0..=128 at once (the shift guards at both ends), a
    // zero gate, and each address three times.
    let base: Vec<Ipv6Addr> = (0..40u128)
        .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | (i * 0x0101_0101)))
        .collect();
    let addrs: Vec<Ipv6Addr> = base.iter().chain(&base).chain(&base).copied().collect();
    let cfg = PlanConfig {
        min_level: 0,
        max_level: 128,
        step: 1,
        min_targets: 3,
    };
    let plan = plan_targets(&addrs, &cfg);
    assert_eq!(plan, reference_plan(&addrs, &cfg));
    assert_eq!(
        plan[0],
        Prefix::DEFAULT,
        "min_level 0 is exempt from the gate"
    );
    // Tripled addresses are 3 targets each: not *more than* 3.
    assert!(plan.iter().all(|p| p.len() < 128));
}
