//! Property tests for Entropy/IP: segmentation and generation invariants.

use expanse_addr::{u128_to_addr, Prefix};
use expanse_eip::{segment, train};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// Seeds with controllable structure: a /48 site, `n_subnets` subnets,
/// counter IIDs.
fn structured_seeds(site_id: u16, n_subnets: u8, n: usize) -> Vec<Ipv6Addr> {
    let base = (0x2001_0db8u128 << 96) | (u128::from(site_id) << 80);
    (0..n)
        .map(|i| {
            let subnet = (i % usize::from(n_subnets.max(1))) as u128;
            u128_to_addr(base | (subnet << 64) | (1 + i as u128 / 4))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn segments_partition_address(site in any::<u16>(), subnets in 1u8..8, n in 100usize..300) {
        let seeds = structured_seeds(site, subnets, n);
        let segs = segment(&seeds);
        let total: usize = segs.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, 32);
        let mut pos = 0;
        for s in &segs {
            prop_assert_eq!(s.start, pos);
            prop_assert!(s.len >= 1);
            pos += s.len;
        }
    }

    #[test]
    fn generation_is_deduped_and_bounded(
        site in any::<u16>(), subnets in 1u8..8, budget in 1usize..400,
    ) {
        let seeds = structured_seeds(site, subnets, 150);
        let model = train(&seeds);
        let out = model.generate(budget);
        prop_assert!(out.len() <= budget);
        let set: BTreeSet<&Ipv6Addr> = out.iter().collect();
        prop_assert_eq!(set.len(), out.len(), "duplicates in generation");
    }

    #[test]
    fn generation_stays_in_the_site(site in any::<u16>(), subnets in 1u8..8) {
        let seeds = structured_seeds(site, subnets, 150);
        let site48 = Prefix::new(seeds[0], 48);
        let model = train(&seeds);
        for a in model.generate(150) {
            prop_assert!(site48.contains(a), "{a} escaped {site48}");
        }
    }
}
