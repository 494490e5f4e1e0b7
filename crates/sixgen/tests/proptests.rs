//! Property tests for 6Gen region algebra and generation.

use expanse_addr::u128_to_addr;
use expanse_sixgen::{generate, grow_regions, Region};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

fn arb_addrs() -> impl Strategy<Value = Vec<Ipv6Addr>> {
    // Cluster seeds in a /64 with a few wild bits so regions form.
    proptest::collection::vec((0u8..4, 0u16..64), 1..60).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(subnet, host)| {
                u128_to_addr(
                    (0x2001_0db8u128 << 96) | (u128::from(subnet) << 64) | u128::from(host),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn regions_cover_their_seeds(seeds in arb_addrs()) {
        let regions = grow_regions(&seeds);
        // Every (distinct) seed is inside at least one region.
        for s in &seeds {
            prop_assert!(
                regions.iter().any(|r| r.contains(*s)),
                "seed {s} not covered"
            );
        }
        // Region seed counts sum to the distinct seed count.
        let distinct: BTreeSet<&Ipv6Addr> = seeds.iter().collect();
        let total: usize = regions.iter().map(|r| r.seeds).sum();
        prop_assert_eq!(total, distinct.len());
    }

    #[test]
    fn grown_size_matches_actual_growth(seeds in arb_addrs()) {
        if seeds.len() < 2 {
            return Ok(());
        }
        let mut r = Region::of(seeds[0]);
        for s in &seeds[1..] {
            let predicted = r.grown_size(*s);
            r.grow(*s);
            prop_assert_eq!(r.size(), predicted);
        }
    }

    #[test]
    fn regions_sorted_by_density(seeds in arb_addrs()) {
        let regions = grow_regions(&seeds);
        for w in regions.windows(2) {
            prop_assert!(w[0].density() >= w[1].density() - 1e-12);
        }
    }

    #[test]
    fn generation_members_and_budget(seeds in arb_addrs(), budget in 0usize..500) {
        let regions = grow_regions(&seeds);
        let out = generate(&regions, budget);
        prop_assert!(out.len() <= budget);
        let set: BTreeSet<&Ipv6Addr> = out.iter().collect();
        prop_assert_eq!(set.len(), out.len(), "duplicates");
        for a in &out {
            prop_assert!(
                regions.iter().any(|r| r.contains(*a)),
                "{a} outside every region"
            );
        }
    }

    #[test]
    fn enumerate_cap_exact(seeds in arb_addrs(), cap in 1usize..200) {
        let regions = grow_regions(&seeds);
        if let Some(r) = regions.first() {
            let out = r.enumerate(cap);
            prop_assert_eq!(out.len() as u128, r.size().min(cap as u128));
        }
    }
}
