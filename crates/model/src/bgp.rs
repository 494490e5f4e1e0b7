//! BGP announcements of the synthetic Internet.

use crate::ids::{AsCategory, AsInfo, Asn};
use expanse_addr::Prefix;
use expanse_trie::RangeTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// The global routing table: announced prefixes and their origin ASes.
///
/// Never changed once built, so the table is frozen into a
/// [`RangeTable`]: a route lookup is one binary search. Reports and
/// experiments look routes up here; the engine routes probes through
/// its fused destination table, built from the same routes.
#[derive(Debug, Clone)]
pub struct BgpTable {
    /// One origin per announced prefix, the last announcement of a
    /// prefix winning.
    pub(crate) routes: RangeTable<Asn>,
    list: Vec<(Prefix, Asn)>,
}

impl BgpTable {
    /// Build from announcements (a later announcement of the same
    /// prefix replaces the origin of an earlier one).
    pub(crate) fn new(announcements: Vec<(Prefix, Asn)>) -> Self {
        BgpTable {
            routes: announcements.iter().copied().collect(),
            list: announcements,
        }
    }

    /// Longest-prefix match: the covering announcement for `addr`.
    #[inline]
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<(Prefix, Asn)> {
        self.routes.longest_match(addr).map(|(p, a)| (p, *a))
    }

    /// Origin AS only.
    pub fn origin(&self, addr: Ipv6Addr) -> Option<Asn> {
        self.lookup(addr).map(|(_, a)| a)
    }

    /// All announcements (stable order).
    pub fn announcements(&self) -> &[(Prefix, Asn)] {
        &self.list
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// Deterministically allocate address space and announcements for `ases`.
///
/// Allocation policy mirrors RIR practice (§4.2 of the paper: "/32
/// prefixes are commonly the smallest blocks assigned to IPv6 networks"):
/// every AS gets one or more /32s (big players get shorter aggregates),
/// and some announce more-specific /48s out of their aggregates. The
/// global unicast space used is `2000::/3`.
pub(crate) fn allocate(
    ases: &[AsInfo],
    mean_prefixes_per_as: f64,
    seed: u64,
) -> Vec<(Prefix, Asn)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb69b_0bb5);
    let mut out = Vec::new();
    // Global /32 counter: walk the 2000::/3 space deterministically.
    // /32 index i maps to prefix 0x2000.. | i << (128-32). 29 usable bits.
    let mut next32: u64 = 0x100; // leave room at the bottom for vantage
    for (i, info) in ases.iter().enumerate() {
        // How many /32 aggregates for this AS (CDNs/ISPs get more).
        let n32: usize = match info.category {
            AsCategory::Cdn => rng.random_range(2..5),
            AsCategory::IspEyeball => rng.random_range(1..4),
            AsCategory::Hoster | AsCategory::Transit => rng.random_range(1..3),
            _ => 1,
        };
        for _ in 0..n32 {
            let base = (0x2u128 << 124) | (u128::from(next32) << 96);
            next32 += 1 + u64::from(rng.random_range(0..3u32)); // gaps, like reality
            let agg = Prefix::from_bits(base, 32);
            out.push((agg, info.asn));
            // Extra more-specific announcements (deaggregation).
            let extra = ((mean_prefixes_per_as - 1.0).max(0.0)
                * rng.random_range(0.0..2.0)
                * if i % 7 == 0 { 3.0 } else { 1.0 }) as usize;
            for _ in 0..extra.min(24) {
                let len = [36u8, 40, 44, 48][rng.random_range(0..4usize)];
                let extra_bits = u32::from(len) - 32;
                let v = u128::from(rng.random::<u16>()) & ((1u128 << extra_bits) - 1);
                let more = Prefix::from_bits(base | (v << (128 - u32::from(len))), len);
                out.push((more, info.asn));
            }
        }
    }
    out.sort();
    out.dedup_by_key(|(p, _)| *p);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AsCategory;

    fn mk_ases(n: usize) -> Vec<AsInfo> {
        (0..n)
            .map(|i| {
                let cat = AsCategory::ALL[i % 6];
                AsInfo::new(Asn(64500 + i as u32), cat, i)
            })
            .collect()
    }

    #[test]
    fn allocation_is_deterministic() {
        let ases = mk_ases(50);
        let a = allocate(&ases, 3.0, 1);
        let b = allocate(&ases, 3.0, 1);
        assert_eq!(a, b);
        assert!(a.len() >= 50, "every AS announces at least one prefix");
    }

    #[test]
    fn every_as_has_an_aggregate() {
        let ases = mk_ases(30);
        let table = BgpTable::new(allocate(&ases, 2.0, 7));
        for info in &ases {
            assert!(
                table
                    .announcements()
                    .iter()
                    .any(|(p, a)| *a == info.asn && p.len() == 32),
                "{} lacks a /32",
                info.asn
            );
        }
    }

    #[test]
    fn more_specifics_covered_by_same_as_aggregate() {
        let ases = mk_ases(40);
        let table = BgpTable::new(allocate(&ases, 4.0, 3));
        for (p, asn) in table.announcements() {
            if p.len() > 32 {
                // The /32 covering this more-specific must exist and
                // belong to the same AS (we never allocate overlapping
                // space to different ASes).
                let agg = table.lookup(p.first()).expect("covered");
                assert_eq!(agg.1, *asn, "{p} originated by {asn} under {}", agg.0);
            }
        }
    }

    #[test]
    fn lookup_prefers_most_specific() {
        let asn_a = Asn(1);
        let asn_b = Asn(1);
        let table = BgpTable::new(vec![
            ("2001:db8::/32".parse().unwrap(), asn_a),
            ("2001:db8:1::/48".parse().unwrap(), asn_b),
        ]);
        let (p, _) = table.lookup("2001:db8:1::5".parse().unwrap()).unwrap();
        assert_eq!(p.len(), 48);
        let (p, _) = table.lookup("2001:db8:2::5".parse().unwrap()).unwrap();
        assert_eq!(p.len(), 32);
        assert_eq!(table.lookup("3fff::1".parse().unwrap()), None);
    }

    #[test]
    fn space_is_global_unicast() {
        let ases = mk_ases(20);
        for (p, _) in allocate(&ases, 2.0, 9) {
            assert!(
                Prefix::from_bits(0x2u128 << 124, 3).covers(&p),
                "{p} outside 2000::/3"
            );
        }
    }
}
