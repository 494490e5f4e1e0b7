//! IPv6 addressing schemes.
//!
//! §4 of the paper finds that the hitlist collapses into ~6 addressing
//! schemes when clustered by per-nybble entropy (Fig 2a) — counters,
//! structured subnetting, pseudo-random IIDs, and MAC-based (EUI-64)
//! IIDs. The model generates addresses with exactly these six generating
//! processes, so the entropy-clustering crate has real structure to find.
//!
//! All generation is deterministic in `(site, seed)`.

use expanse_addr::{u128_to_addr, AddrTable, MacAddr, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// A generating addressing scheme for one site (a /32–/48 allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Nearly everything fixed; the last nybbles of subnet and IID are
    /// small counters. The paper's most popular cluster.
    TinyCounter,
    /// Structured subnetting (department/рack nybbles) with counter IIDs —
    /// more nybbles in play, still low entropy each. Cluster 2.
    StructuredCounter,
    /// Pseudo-random IIDs (privacy extensions / random static): maximal
    /// entropy on nybbles 17–32. Cluster 3.
    RandomIid,
    /// Service-word IIDs (`::1`, `::53`, `::443`, `::25`) over a moderate
    /// subnet spread. Cluster 4.
    ServiceWords,
    /// EUI-64 SLAAC with a *concentrated* vendor pool (ZTE/AVM home
    /// routers — the scamper CPE population of §3). Cluster 5.
    Eui64Cpe,
    /// EUI-64 SLAAC with a diverse vendor pool. Cluster 6.
    Eui64Mixed,
}

impl Scheme {
    /// All schemes.
    pub const ALL: [Scheme; 6] = [
        Scheme::TinyCounter,
        Scheme::StructuredCounter,
        Scheme::RandomIid,
        Scheme::ServiceWords,
        Scheme::Eui64Cpe,
        Scheme::Eui64Mixed,
    ];

    /// Generate `n` distinct addresses under `site` (site length ≤ 64).
    ///
    /// # Panics
    /// Panics if `site.len() > 64`.
    pub(crate) fn generate(self, site: Prefix, n: usize, seed: u64) -> Vec<Ipv6Addr> {
        assert!(site.len() <= 64, "site must be /64 or shorter");
        let mut rng = StdRng::seed_from_u64(
            seed ^ (site.bits() >> 64) as u64 ^ site.bits() as u64 ^ u64::from(site.len()),
        );
        let subnet_bits = 64 - u32::from(site.len());
        let mut out = Vec::with_capacity(n);
        let mut seen = AddrTable::with_capacity(n);
        let mut push = |addr: u128, out: &mut Vec<Ipv6Addr>| {
            if seen.intern_u128(addr).1 {
                out.push(u128_to_addr(addr));
                true
            } else {
                false
            }
        };
        let base = site.bits();
        let subnet = |v: u64| -> u128 {
            if subnet_bits == 0 {
                0
            } else {
                u128::from(v & ((1u64 << subnet_bits.min(63)) - 1).max(1)) << 64
            }
        };
        let mut guard = 0usize;
        while out.len() < n && guard < n * 20 + 64 {
            guard += 1;
            let addr = match self {
                Scheme::TinyCounter => {
                    // 1-2 subnets, IIDs count from 1.
                    let s = subnet(u64::from(rng.random_range(0..2u32)));
                    let iid = 1 + (out.len() as u128 / 2);
                    base | s | iid
                }
                Scheme::StructuredCounter => {
                    // Structured subnet: top subnet nybble = "site area"
                    // (0-3), next = rack (0-7); IID = vlan nybble high in
                    // the IID + a wide counter — a visibly different
                    // entropy silhouette from TinyCounter.
                    let area = rng.random_range(0..4u64);
                    let rack = rng.random_range(0..8u64);
                    let s = subnet(
                        (area << (subnet_bits.saturating_sub(4)))
                            | (rack << (subnet_bits.saturating_sub(8))),
                    );
                    let vlan = rng.random_range(0..8u128);
                    let counter = rng.random_range(1..4000u128);
                    base | s | (vlan << 56) | counter
                }
                Scheme::RandomIid => {
                    let s = subnet(u64::from(rng.random_range(0..4u32)));
                    base | s | u128::from(rng.random::<u64>())
                }
                Scheme::ServiceWords => {
                    // Wide subnet spread (two hot nybbles) distinguishes
                    // this scheme's fingerprint from TinyCounter's.
                    const WORDS: [u64; 8] = [0x1, 0x2, 0x3, 0x25, 0x53, 0x80, 0x443, 0x1111];
                    let s = subnet(rng.random_range(0..256u64));
                    let word = WORDS[rng.random_range(0..WORDS.len())];
                    base | s | u128::from(word)
                }
                Scheme::Eui64Cpe => {
                    // Two dominant OUIs (ZTE-like, AVM-like) + a thin tail.
                    let oui = match rng.random_range(0..100u32) {
                        0..=47 => [0x00, 0x1e, 0x73],  // "ZTE"
                        48..=95 => [0xbc, 0x05, 0x43], // "AVM"
                        _ => [0x00, 0x25, 0x9e],       // "Huawei"
                    };
                    let mac = MacAddr::from_oui(oui, rng.random_range(0..1 << 24));
                    // One customer per /64: subnet is a dense customer id.
                    let s = subnet(rng.random_range(0..4096u64));
                    base | s | u128::from(mac.eui64_iid())
                }
                Scheme::Eui64Mixed => {
                    let oui = [
                        rng.random_range(0..64u8),
                        rng.random::<u8>(),
                        rng.random::<u8>(),
                    ];
                    let mac = MacAddr::from_oui(oui, rng.random_range(0..1 << 24));
                    let s = subnet(rng.random_range(0..256u64));
                    base | s | u128::from(mac.eui64_iid())
                }
            };
            push(addr, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::{is_eui64, nybbles::nybble};
    use expanse_stats::entropy::nybble_entropy;

    fn site() -> Prefix {
        "2001:db8::/32".parse().unwrap()
    }

    fn entropy_profile(addrs: &[Ipv6Addr]) -> Vec<f64> {
        (0..32)
            .map(|i| nybble_entropy(addrs.iter().map(|a| nybble(*a, i))))
            .collect()
    }

    #[test]
    fn deterministic_and_contained() {
        for scheme in Scheme::ALL {
            let a = scheme.generate(site(), 200, 42);
            let b = scheme.generate(site(), 200, 42);
            assert_eq!(a, b, "{scheme:?} not deterministic");
            assert!(
                a.iter().all(|x| site().contains(*x)),
                "{scheme:?} escaped site"
            );
            // Distinctness.
            let mut dedup = a.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), a.len(), "{scheme:?} produced duplicates");
        }
    }

    #[test]
    fn tiny_counter_is_low_entropy() {
        let addrs = Scheme::TinyCounter.generate(site(), 300, 1);
        let prof = entropy_profile(&addrs);
        // Almost all nybbles constant; only the very last few vary.
        let high = prof.iter().filter(|&&h| h > 0.3).count();
        assert!(high <= 5, "too many varying nybbles: {high} ({prof:?})");
        assert!(prof[31] > 0.3, "last nybble should count");
    }

    #[test]
    fn random_iid_is_high_entropy_in_iid() {
        let addrs = Scheme::RandomIid.generate(site(), 500, 1);
        let prof = entropy_profile(&addrs);
        let iid_mean: f64 = prof[17..32].iter().sum::<f64>() / 15.0;
        assert!(iid_mean > 0.9, "iid_mean={iid_mean}");
        // Network half (after the /32) nearly constant.
        assert!(prof[0..8].iter().all(|&h| h == 0.0));
    }

    #[test]
    fn eui64_has_fffe_marker() {
        for scheme in [Scheme::Eui64Cpe, Scheme::Eui64Mixed] {
            let addrs = scheme.generate(site(), 200, 9);
            assert!(addrs.iter().all(|a| is_eui64(*a)), "{scheme:?}");
            let prof = entropy_profile(&addrs);
            // Nybbles 22-25 (0-based) hold ff:fe — constant.
            assert_eq!(prof[22], 0.0);
            assert_eq!(prof[23], 0.0);
            assert_eq!(prof[24], 0.0);
            assert_eq!(prof[25], 0.0);
            // Device-id nybbles vary.
            assert!(prof[29] > 0.5, "{scheme:?}: {prof:?}");
        }
    }

    #[test]
    fn cpe_ouis_concentrated() {
        let addrs = Scheme::Eui64Cpe.generate(site(), 1000, 3);
        let ztes = addrs
            .iter()
            .filter_map(|a| expanse_addr::mac_from_eui64(*a))
            .filter(|m| m.oui() == [0x00, 0x1e, 0x73])
            .count();
        let share = ztes as f64 / addrs.len() as f64;
        assert!((share - 0.48).abs() < 0.06, "ZTE share={share}");
    }

    #[test]
    fn service_words_low_iid_entropy() {
        let addrs = Scheme::ServiceWords.generate(site(), 300, 5);
        let prof = entropy_profile(&addrs);
        // IID nybbles mostly constant except the word nybbles at the end.
        assert!(prof[17..28].iter().all(|&h| h < 0.2), "{prof:?}");
    }

    #[test]
    fn works_on_48_and_64_sites() {
        let p48: Prefix = "2001:db8:1::/48".parse().unwrap();
        let p64: Prefix = "2001:db8:1:2::/64".parse().unwrap();
        for scheme in Scheme::ALL {
            for p in [p48, p64] {
                let addrs = scheme.generate(p, 50, 7);
                assert!(!addrs.is_empty());
                assert!(addrs.iter().all(|a| p.contains(*a)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "site must be /64 or shorter")]
    fn long_site_panics() {
        Scheme::TinyCounter.generate("2001:db8::/96".parse().unwrap(), 1, 0);
    }
}
