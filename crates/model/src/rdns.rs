//! The `ip6.arpa` reverse tree and its walker (§8 of the paper).
//!
//! The paper evaluates rDNS as a hitlist source using Fiebig et al.'s
//! dataset; we grow a synthetic PTR tree over the population instead. The
//! walker enumerates it the way rDNS walking works on the real DNS:
//! descend nybble-by-nybble, prune on NXDOMAIN, collect terminal records —
//! and we count queries, since the paper flags walking cost as the reason
//! the source is only "semi-public".

use crate::ids::AsCategory;
use crate::InternetModel;
use expanse_addr::{addr_to_u128, u128_to_addr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// A populated reverse tree: the set of addresses with PTR records,
/// stored sorted for prefix-existence queries.
#[derive(Debug, Clone)]
pub struct RdnsTree {
    /// Sorted address keys.
    keys: Vec<u128>,
}

/// Result of a full tree walk.
#[derive(Debug, Clone)]
pub struct WalkStats {
    /// Addresses.
    pub addresses: Vec<Ipv6Addr>,
    /// DNS queries issued (the cost the paper worries about).
    pub queries: u64,
    /// NXDOMAIN answers received (pruned subtrees).
    pub nxdomains: u64,
}

impl RdnsTree {
    /// Build from any address iterator.
    pub(crate) fn new(addrs: impl IntoIterator<Item = Ipv6Addr>) -> Self {
        let mut keys: Vec<u128> = addrs.into_iter().map(addr_to_u128).collect();
        keys.sort_unstable();
        keys.dedup();
        RdnsTree { keys }
    }

    /// Does any record exist under the `depth`-nybble path `prefix`
    /// (prefix = high nybbles, left-aligned)?
    fn exists(&self, prefix: u128, depth: u32) -> bool {
        if depth == 0 {
            return !self.keys.is_empty();
        }
        let shift = 128 - 4 * depth;
        let lo = prefix;
        let hi = prefix | ((1u128 << shift) - 1);
        let i = self.keys.partition_point(|&k| k < lo);
        i < self.keys.len() && self.keys[i] <= hi
    }

    /// Walk the whole tree, NXDOMAIN-pruned, counting queries.
    pub fn walk(&self) -> WalkStats {
        let mut stats = WalkStats {
            addresses: Vec::new(),
            queries: 0,
            nxdomains: 0,
        };
        // Iterative DFS over nybble paths.
        let mut stack: Vec<(u128, u32)> = vec![(0, 0)];
        while let Some((prefix, depth)) = stack.pop() {
            if depth == 32 {
                stats.addresses.push(u128_to_addr(prefix));
                continue;
            }
            let shift = 128 - 4 * (depth + 1);
            for nyb in 0..16u128 {
                let child = prefix | (nyb << shift);
                stats.queries += 1;
                if self.exists(child, depth + 1) {
                    stack.push((child, depth + 1));
                } else {
                    stats.nxdomains += 1;
                }
            }
        }
        stats.addresses.sort();
        stats
    }
}

/// Build the rDNS dataset for a model: mostly *new* addresses (the paper:
/// 11.1 M of 11.7 M rDNS addresses were not in the hitlist), balanced
/// across hosting/enterprise ASes, with a small client share.
pub fn build_rdns(model: &InternetModel, hitlist_sample: &[Ipv6Addr]) -> RdnsTree {
    let cfg = &model.config;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4d45);
    let mut addrs: Vec<Ipv6Addr> = Vec::new();

    // ~5 % overlap with the existing hitlist.
    let overlap = hitlist_sample.len() / 20;
    addrs.extend(hitlist_sample.iter().take(overlap));

    // Fresh addresses: re-generate per site with a different salt so they
    // are new, drawn evenly (flat AS distribution — Fig 10's point).
    let want_new = (model.population.pool_size() / 5).max(1000);
    let eligible: Vec<&crate::population::SitePool> = model
        .population
        .sites
        .iter()
        .filter(|s| {
            matches!(
                s.category,
                AsCategory::Hoster | AsCategory::Enterprise | AsCategory::Academic
            )
        })
        .collect();
    if !eligible.is_empty() {
        let per_site = (want_new / eligible.len()).max(2);
        for site in &eligible {
            let fresh = site
                .scheme
                .generate(site.site, per_site, cfg.seed ^ 0x4d45_0001);
            addrs.extend(fresh);
        }
    }

    // A pinch of unrouted junk: the paper filtered 2.1 M unrouted rDNS
    // addresses before probing.
    for i in 0..(want_new / 10).max(50) {
        let junk = (0x3fffu128 << 112) | u128::from(rng.random::<u64>());
        addrs.push(u128_to_addr(junk));
        let _ = i;
    }

    addrs.shuffle(&mut rng);
    RdnsTree::new(addrs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_finds_exactly_the_records() {
        let addrs: Vec<Ipv6Addr> = vec![
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            "2001:db8:1::53".parse().unwrap(),
        ];
        let tree = RdnsTree::new(addrs.clone());
        let stats = tree.walk();
        let mut want = addrs;
        want.sort();
        assert_eq!(stats.addresses, want);
        assert!(stats.queries > 0);
        assert!(stats.nxdomains > 0);
    }

    #[test]
    fn pruning_beats_enumeration() {
        // 100 addresses in one /64: queries must be FAR below 16^32.
        let addrs: Vec<Ipv6Addr> = (0..100u128)
            .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
            .collect();
        let tree = RdnsTree::new(addrs);
        let stats = tree.walk();
        assert_eq!(stats.addresses.len(), 100);
        // Each level costs ≤ 16 queries per live node; sanity bound.
        assert!(
            stats.queries < 150_000,
            "queries = {} (pruning broken?)",
            stats.queries
        );
    }

    #[test]
    fn empty_tree() {
        let tree = RdnsTree::new(std::iter::empty());
        assert!(tree.keys.is_empty());
        let stats = tree.walk();
        assert!(stats.addresses.is_empty());
        assert_eq!(stats.queries, 16); // one round at the root
    }

    #[test]
    fn dedup() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let tree = RdnsTree::new(vec![a, a, a]);
        assert_eq!(tree.keys.len(), 1);
    }

    #[test]
    fn build_rdns_mostly_new() {
        let model = crate::InternetModel::build(crate::ModelConfig::tiny(3));
        let hitlist: Vec<Ipv6Addr> = model
            .population
            .sites
            .iter()
            .flat_map(|s| s.addrs.iter().copied())
            .take(2000)
            .collect();
        let tree = build_rdns(&model, &hitlist);
        assert!(tree.keys.len() > 500);
        let hitset: std::collections::BTreeSet<u128> =
            hitlist.iter().map(|a| addr_to_u128(*a)).collect();
        let overlap = tree.keys.iter().filter(|k| hitset.contains(k)).count();
        let share = overlap as f64 / tree.keys.len() as f64;
        assert!(share < 0.3, "rDNS should be mostly new, overlap={share}");
    }
}
