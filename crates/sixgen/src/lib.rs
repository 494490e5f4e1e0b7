//! `expanse-sixgen`: a re-implementation of 6Gen (Murdock et al., IMC
//! 2017) — dense-region growth for IPv6 target generation.
//!
//! 6Gen's premise: active addresses cluster in dense regions of the
//! address space. Seeds are 32-nybble words; a *region* is, per nybble
//! position, a set of allowed values (a combinatorial box). Regions grow
//! greedily around seeds to maximize seed density (seeds contained /
//! region size); generation enumerates the densest regions first, under
//! a budget.
//!
//! ```
//! use expanse_sixgen::{grow_regions, generate};
//! use expanse_addr::u128_to_addr;
//!
//! let seeds: Vec<_> = (1..=40u128)
//!     .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
//!     .collect();
//! let regions = grow_regions(&seeds);
//! let targets = generate(&regions, 100);
//! assert!(!targets.is_empty());
//! ```

use expanse_addr::nybbles::{from_nybbles, nybbles, NYBBLES};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// A combinatorial box: per nybble position, a bitmask of allowed values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Bit `v` of `sets[i]` set ⇒ nybble value `v` allowed at position i.
    pub sets: [u16; NYBBLES],
    /// Seeds absorbed into the region.
    pub seeds: usize,
}

impl Region {
    /// The singleton region of one seed.
    pub fn of(seed: Ipv6Addr) -> Region {
        let n = nybbles(seed);
        let mut sets = [0u16; NYBBLES];
        for (i, v) in n.iter().enumerate() {
            sets[i] = 1 << v;
        }
        Region { sets, seeds: 1 }
    }

    /// Number of addresses the region covers (product of set sizes).
    pub fn size(&self) -> u128 {
        let mut s: u128 = 1;
        for m in self.sets {
            s = s.saturating_mul(u128::from(m.count_ones()));
        }
        s
    }

    /// Seed density.
    pub fn density(&self) -> f64 {
        self.seeds as f64 / self.size() as f64
    }

    /// Does the region contain `addr`?
    pub fn contains(&self, addr: Ipv6Addr) -> bool {
        nybbles(addr)
            .iter()
            .enumerate()
            .all(|(i, v)| self.sets[i] & (1 << v) != 0)
    }

    /// Size of the region grown to include `addr` (without mutating).
    pub fn grown_size(&self, addr: Ipv6Addr) -> u128 {
        let n = nybbles(addr);
        let mut s: u128 = 1;
        for (i, v) in n.iter().enumerate() {
            let m = self.sets[i] | (1 << v);
            s = s.saturating_mul(u128::from(m.count_ones()));
        }
        s
    }

    /// Grow to include `addr`.
    pub fn grow(&mut self, addr: Ipv6Addr) {
        for (i, v) in nybbles(addr).iter().enumerate() {
            self.sets[i] |= 1 << v;
        }
        self.seeds += 1;
    }

    /// Enumerate up to `cap` addresses of the region in mixed-radix
    /// order.
    pub fn enumerate(&self, cap: usize) -> Vec<Ipv6Addr> {
        // Values per position.
        let values: Vec<Vec<u8>> = self
            .sets
            .iter()
            .map(|m| (0..16u8).filter(|v| m & (1 << v) != 0).collect())
            .collect();
        let total = self.size().min(cap as u128) as usize;
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; NYBBLES];
        for _ in 0..total {
            let mut nyb = [0u8; NYBBLES];
            for (i, vi) in idx.iter().enumerate() {
                nyb[i] = values[i][*vi];
            }
            out.push(from_nybbles(&nyb));
            // Increment mixed-radix counter from the least significant
            // position (rightmost nybble varies fastest).
            for i in (0..NYBBLES).rev() {
                idx[i] += 1;
                if idx[i] < values[i].len() {
                    break;
                }
                idx[i] = 0;
            }
        }
        out
    }
}

/// A seed joins an existing region only if the grown region's size
/// stays at or below this bound (keeps boxes scannable).
const MAX_REGION_SIZE: u128 = 1 << 20;
/// Minimum density (seeds / size) for a region to survive growth.
const MIN_DENSITY: f64 = 1e-6;
/// Maximum number of regions retained (densest first).
const MAX_REGIONS: usize = 4096;
/// A seed may join a region only if the region's density after growth
/// stays within this factor of its density before (guards against
/// outliers exploding a dense box).
const MAX_DILUTION: f64 = 8.0;

/// Grow regions from seeds: single-pass greedy assignment (each seed
/// joins the region whose growth costs the least size inflation, if the
/// result stays within bounds; otherwise it founds a new region),
/// followed by a density filter.
pub fn grow_regions(seeds: &[Ipv6Addr]) -> Vec<Region> {
    let mut regions: Vec<Region> = Vec::new();
    let mut seen: BTreeSet<Ipv6Addr> = BTreeSet::new();
    for &seed in seeds {
        if !seen.insert(seed) {
            continue;
        }
        // Find the region whose grown size is smallest, subject to the
        // size bound and the density-dilution guard.
        let mut best: Option<(usize, u128)> = None;
        for (i, r) in regions.iter().enumerate() {
            if r.contains(seed) {
                best = Some((i, r.size()));
                break;
            }
            let gs = r.grown_size(seed);
            let new_density = (r.seeds + 1) as f64 / gs as f64;
            if gs <= MAX_REGION_SIZE
                && new_density * MAX_DILUTION >= r.density()
                && best.is_none_or(|(_, b)| gs < b)
            {
                best = Some((i, gs));
            }
        }
        match best {
            Some((i, _)) => regions[i].grow(seed),
            None => regions.push(Region::of(seed)),
        }
    }
    regions.retain(|r| r.density() >= MIN_DENSITY);
    regions.sort_by(|a, b| {
        b.density()
            .partial_cmp(&a.density())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    regions.truncate(MAX_REGIONS);
    regions
}

/// Generate up to `budget` target addresses: densest regions first,
/// budget split region by region.
pub fn generate(regions: &[Region], budget: usize) -> Vec<Ipv6Addr> {
    let mut out: Vec<Ipv6Addr> = Vec::with_capacity(budget);
    let mut seen: BTreeSet<u128> = BTreeSet::new();
    for r in regions {
        if out.len() >= budget {
            break;
        }
        for a in r.enumerate(budget - out.len()) {
            if seen.insert(expanse_addr::addr_to_u128(a)) {
                out.push(a);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::u128_to_addr;

    fn seeds_two_clusters() -> Vec<Ipv6Addr> {
        let mut v = Vec::new();
        // Dense cluster: IIDs 1..=50 in one /64.
        for i in 1..=50u128 {
            v.push(u128_to_addr((0x2001_0db8u128 << 96) | i));
        }
        // A lone outlier far away.
        v.push(u128_to_addr(0x2a00_1450u128 << 96 | 0xdead));
        v
    }

    #[test]
    fn region_mechanics() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let b: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let mut r = Region::of(a);
        assert_eq!(r.size(), 1);
        assert!(r.contains(a));
        assert!(!r.contains(b));
        r.grow(b);
        assert_eq!(r.size(), 2); // last nybble now {1,2}
        assert!(r.contains(b));
        assert_eq!(r.seeds, 2);
        assert_eq!(r.density(), 1.0);
    }

    #[test]
    fn grow_regions_clusters_dense_seeds() {
        let regions = grow_regions(&seeds_two_clusters());
        assert!(regions.len() >= 2, "{}", regions.len());
        // The 50-seed cluster must coalesce into one region (the outlier
        // stays a density-1 singleton, which sorts first).
        let biggest = regions.iter().max_by_key(|r| r.seeds).unwrap();
        assert!(biggest.seeds >= 45, "cluster fragmented: {}", biggest.seeds);
        assert!(biggest.density() > 0.5);
        // All regions respect the size bound.
        for r in &regions {
            assert!(r.size() <= MAX_REGION_SIZE || r.seeds == 1);
        }
    }

    #[test]
    fn generation_prioritizes_dense_regions() {
        let regions = grow_regions(&seeds_two_clusters());
        let targets = generate(&regions, 64);
        assert!(!targets.is_empty());
        assert!(targets.len() <= 64);
        // Generated addresses live in the dense /64 predominantly.
        let p64: expanse_addr::Prefix = "2001:db8::/64".parse().unwrap();
        let dense = targets.iter().filter(|t| p64.contains(**t)).count();
        assert!(
            dense * 2 >= targets.len(),
            "dense={dense}/{}",
            targets.len()
        );
        // Distinct.
        let set: BTreeSet<_> = targets.iter().collect();
        assert_eq!(set.len(), targets.len());
    }

    #[test]
    fn enumerate_respects_cap_and_membership() {
        let mut r = Region::of("2001:db8::1".parse().unwrap());
        r.grow("2001:db8::2".parse().unwrap());
        r.grow("2001:db8::f".parse().unwrap());
        r.grow("2001:db8:0:0:1::1".parse().unwrap());
        let all = r.enumerate(1000);
        assert_eq!(all.len() as u128, r.size());
        assert!(all.iter().all(|a| r.contains(*a)));
        let some = r.enumerate(3);
        assert_eq!(some.len(), 3);
    }

    #[test]
    fn duplicate_seeds_ignored() {
        let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let regions = grow_regions(&[a, a, a]);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].seeds, 1);
    }

    #[test]
    fn empty_seeds_empty_regions() {
        let regions = grow_regions(&[]);
        assert!(regions.is_empty());
        assert!(generate(&regions, 10).is_empty());
    }

    #[test]
    fn budget_zero() {
        let regions = grow_regions(&seeds_two_clusters());
        assert!(generate(&regions, 0).is_empty());
    }

    #[test]
    fn deterministic() {
        let a = generate(&grow_regions(&seeds_two_clusters()), 50);
        let b = generate(&grow_regions(&seeds_two_clusters()), 50);
        assert_eq!(a, b);
    }
}
