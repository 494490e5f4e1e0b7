//! Probe planning: which prefixes to test at which levels (§5.1).
//!
//! The paper maps hitlist addresses "to all prefixes from 64 to 124, in
//! 4-bit steps", limits probing to prefixes with more than `min_targets`
//! (100) known addresses — exempting /64s so every known /64 is analyzed
//! — and separately probes BGP-announced prefixes as announced.

use expanse_addr::prefix::mask;
use expanse_addr::{addr_to_u128, AddrSet, AddrTable, IdBits, Prefix};
use std::net::Ipv6Addr;

/// The shortest probed level: every known /64 is planned, whatever its
/// target count.
const MIN_LEVEL: u8 = 64;
/// The longest probed level, and the longest announcement the BGP plan
/// keeps: a /124 still fans out over 16 addresses.
const MAX_LEVEL: u8 = 124;
/// Bits between two probed levels.
const STEP: usize = 4;

/// Planning parameters.
#[derive(Debug, Clone)]
pub struct PlanConfig {
    /// Target-count gate for the levels longer than /64. Paper: >100.
    pub min_targets: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig { min_targets: 100 }
    }
}

/// Build the target-based probe plan for a hitlist given as an address
/// slice.
pub fn plan_targets(hitlist: &[Ipv6Addr], cfg: &PlanConfig) -> Vec<Prefix> {
    let mut addrs: Vec<u128> = hitlist.iter().map(|&a| addr_to_u128(a)).collect();
    addrs.sort_unstable();
    plan_sorted(&addrs, cfg)
}

/// Build the target-based probe plan straight off the interned store:
/// the pipeline passes its [`AddrTable`] and the live [`AddrSet`], and
/// the table's kept address order ([`AddrTable::sorted`]) restricted to
/// `ids` is already the sorted input — no per-day sort.
pub fn plan_targets_set(table: &AddrTable, ids: &AddrSet, cfg: &PlanConfig) -> Vec<Prefix> {
    let live: IdBits = ids.iter().collect();
    let addrs: Vec<u128> = table
        .sorted()
        .iter()
        .filter(|&id| live.contains(id))
        .map(|id| table.bits(id))
        .collect();
    plan_sorted(&addrs, cfg)
}

/// The plan over ascending addresses.
fn plan_sorted(addrs: &[u128], cfg: &PlanConfig) -> Vec<Prefix> {
    // Sorted addresses put every prefix's members next to each other at
    // every level, so counting is one run-length pass per level over a
    // flat vector — no map: a run *is* a prefix and its length the count.
    let mut out: Vec<Prefix> = Vec::new();
    for level in (MIN_LEVEL..=MAX_LEVEL).step_by(STEP) {
        let netmask = mask(level);
        for run in addrs.chunk_by(|a, b| a & netmask == b & netmask) {
            if level == MIN_LEVEL || run.len() > cfg.min_targets {
                out.push(Prefix::from_bits(run[0], level));
            }
        }
    }
    out.sort();
    out
}

/// Build the BGP-based plan: announced prefixes as-is, fan-out-able
/// (length ≤ 124) only.
pub fn plan_bgp(announcements: &[Prefix]) -> Vec<Prefix> {
    let mut out: Vec<Prefix> = announcements
        .iter()
        .copied()
        .filter(|p| p.len() <= MAX_LEVEL)
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::u128_to_addr;

    #[test]
    fn all_64s_planned_regardless_of_count() {
        let addrs = vec![
            "2001:db8::1".parse().unwrap(),
            "2001:db8:0:1::1".parse().unwrap(),
        ];
        let plan = plan_targets(&addrs, &PlanConfig::default());
        assert!(plan.contains(&"2001:db8::/64".parse().unwrap()));
        assert!(plan.contains(&"2001:db8:0:1::/64".parse().unwrap()));
        // No deeper levels: only 1 address each.
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn dense_region_planned_at_deeper_levels() {
        // 150 addresses inside one /96, spread over ten /100 children
        // (≤ 16 addresses each, under the >100 gate).
        let addrs: Vec<_> = (0..150u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | (i << 24)))
            .collect();
        let plan = plan_targets(&addrs, &PlanConfig::default());
        assert!(plan.contains(&"2001:db8::/64".parse().unwrap()));
        assert!(plan.contains(&"2001:db8::/96".parse().unwrap()));
        // Levels are 4-bit steps.
        assert!(plan.iter().all(|p| p.len() % 4 == 0));
        // The /100s hold ≤ 100 targets each... 150 spread over 16 /100
        // children ⇒ none pass the >100 gate. /68.. /96 all contain 150.
        let l100: Vec<&Prefix> = plan.iter().filter(|p| p.len() == 100).collect();
        assert!(l100.is_empty(), "{l100:?}");
        let l68 = plan.iter().filter(|p| p.len() == 68).count();
        assert_eq!(l68, 1);
    }

    #[test]
    fn gate_is_strictly_greater() {
        let cfg = PlanConfig { min_targets: 10 };
        // Exactly 10 in one /96: should NOT pass (paper: "more than 100").
        let addrs: Vec<_> = (0..10u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
            .collect();
        let plan = plan_targets(&addrs, &cfg);
        assert!(!plan.iter().any(|p| p.len() == 96));
        // 11 passes.
        let addrs11: Vec<_> = (0..11u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
            .collect();
        let plan11 = plan_targets(&addrs11, &cfg);
        assert!(plan11.iter().any(|p| p.len() == 96));
    }

    #[test]
    fn bgp_plan_filters_host_routes() {
        let plan = plan_bgp(&[
            "2001:db8::/32".parse().unwrap(),
            "2001:db8::/32".parse().unwrap(),
            Prefix::host("2001:db8::1".parse().unwrap()),
        ]);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn empty_hitlist_empty_plan() {
        assert!(plan_targets(&[], &PlanConfig::default()).is_empty());
    }

    #[test]
    fn set_and_slice_plans_agree() {
        let addrs: Vec<_> = (0..150u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | (i << 24)))
            .collect();
        let mut table = AddrTable::new();
        let ids: AddrSet = addrs.iter().map(|&a| table.intern(a)).collect();
        let cfg = PlanConfig::default();
        assert_eq!(
            plan_targets_set(&table, &ids, &cfg),
            plan_targets(&addrs, &cfg)
        );
    }
}
