//! Aliased regions: address ranges fully bound to one machine.
//!
//! §5 of the paper: *"a single machine responding to all addresses in a
//! possibly large prefix"* (IP_FREEBIND-style full-prefix binds, as CDNs
//! deploy). The model keeps a frozen prefix table of aliased regions;
//! the engine answers any address inside one from the region's machine,
//! except in *carve-out* branches (§5.1's /116 case, where the `0x0`
//! branch is handled by a different system and stays silent).

use crate::fingerprint::MachineId;
use expanse_addr::Prefix;
use expanse_packet::ProtoSet;
use expanse_trie::RangeTable;
use std::net::Ipv6Addr;

/// One aliased region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliasRegion {
    /// The machine every contained address terminates at.
    pub machine: MachineId,
    /// Protocols the machine answers.
    pub protos: ProtoSet,
    /// If set, the 4-bit branch at `prefix.len()` with this value is NOT
    /// aliased (carved out) and stays silent.
    pub carve_branch: Option<u8>,
}

/// The alias table: regions keyed by prefix, longest-prefix matched.
///
/// The regions live in a [`RangeTable`], and [`AliasTable::resolve`]
/// walks the regions covering an address. Only ground truth and
/// analysis call it: the engine answers probes from its fused
/// destination table, which is built from `AliasTable::serving` once
/// per model.
#[derive(Debug, Clone, Default)]
pub struct AliasTable {
    regions: RangeTable<AliasRegion>,
}

/// The branch `region` at `p` carves out, as the sub-prefix one nybble
/// longer — if the carve applies (nybble-aligned and at most /124).
fn carved(p: Prefix, region: &AliasRegion) -> Option<Prefix> {
    let branch = region.carve_branch.filter(|&b| b < 16)?;
    (p.len() <= 124 && p.len().is_multiple_of(4)).then(|| p.subprefix(4, u128::from(branch)))
}

/// The region serving `addr` among those at most `max_len` long, by
/// walking every covering region: the most specific one that does not
/// carve `addr` out.
fn walk_resolve(
    regions: &RangeTable<AliasRegion>,
    addr: Ipv6Addr,
    max_len: u8,
) -> Option<(Prefix, AliasRegion)> {
    regions
        .covering(addr)
        .filter(|(p, _)| p.len() <= max_len)
        .find(|(p, r)| !carved(*p, r).is_some_and(|c| c.contains(addr)))
        .map(|(p, r)| (p, *r))
}

impl AliasTable {
    /// The table of `regions`; a later region at a prefix replaces an
    /// earlier one.
    pub(crate) fn new(regions: impl IntoIterator<Item = (Prefix, AliasRegion)>) -> Self {
        AliasTable {
            regions: regions.into_iter().collect(),
        }
    }

    /// Add `regions` to the table, which is collected again: a region
    /// at a prefix the table holds replaces the one there.
    pub(crate) fn extend(&mut self, regions: impl IntoIterator<Item = (Prefix, AliasRegion)>) {
        *self = AliasTable::new(self.iter().map(|(p, r)| (p, *r)).chain(regions));
    }

    /// [`AliasTable::resolve`] as a table whose longest match is the
    /// answer: every region resolves to itself; each carved branch
    /// without a region of its own resolves to what serves it from
    /// further out. The engine's fused destination table is built from
    /// it.
    pub(crate) fn serving(&self) -> RangeTable<Option<(Prefix, AliasRegion)>> {
        let carves = self
            .iter()
            .filter_map(|(p, r)| carved(p, r))
            .filter(|c| self.regions.get(*c).is_none())
            .map(|c| (c, walk_resolve(&self.regions, c.first(), c.len() - 1)));
        self.iter()
            .map(|(p, r)| (p, Some((p, *r))))
            .chain(carves)
            .collect()
    }

    /// The aliased region responsible for `addr`, if any. Honours
    /// carve-outs: an address in a region's carved branch resolves to
    /// the next region out that serves it, or `None`, unless a more
    /// specific region covers it.
    pub fn resolve(&self, addr: Ipv6Addr) -> Option<(Prefix, AliasRegion)> {
        walk_resolve(&self.regions, addr, 128)
    }

    /// Iterate regions.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &AliasRegion)> + '_ {
        self.regions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_packet::Protocol;

    fn region(m: u32) -> AliasRegion {
        AliasRegion {
            machine: MachineId(m),
            protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
            carve_branch: None,
        }
    }

    #[test]
    fn resolve_hits_inside_region() {
        let t = AliasTable::new([("2001:db8:47::/48".parse().unwrap(), region(1))]);
        let (p, r) = t
            .resolve("2001:db8:47:abcd::1234".parse().unwrap())
            .unwrap();
        assert_eq!(p.len(), 48);
        assert_eq!(r.machine, MachineId(1));
        assert!(t.resolve("2001:db8:48::1".parse().unwrap()).is_none());
    }

    #[test]
    fn more_specific_region_wins() {
        let t = AliasTable::new([
            ("2001:db8::/32".parse().unwrap(), region(1)),
            ("2001:db8:1::/48".parse().unwrap(), region(2)),
        ]);
        let (_, r) = t.resolve("2001:db8:1::9".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(2));
        let (_, r) = t.resolve("2001:db8:2::9".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(1));
    }

    #[test]
    fn carve_branch_is_silent() {
        let p: Prefix = "2001:db8:0:1::/116".parse().unwrap();
        let t = AliasTable::new([(
            p,
            AliasRegion {
                carve_branch: Some(0),
                ..region(3)
            },
        )]);
        // Branch 0x0 of the /116 (nybble index 29) is carved out.
        assert!(t.resolve("2001:db8:0:1::0042".parse().unwrap()).is_none());
        // Branch 0x5 answers.
        assert!(t.resolve("2001:db8:0:1::0542".parse().unwrap()).is_some());
    }

    #[test]
    fn carve_can_be_overridden_by_more_specific() {
        let p64: Prefix = "2001:db8:1:2::/64".parse().unwrap();
        let t = AliasTable::new([
            (
                p64,
                AliasRegion {
                    carve_branch: Some(0xf),
                    ..region(1)
                },
            ),
            // A more specific region inside the carved branch still serves.
            ("2001:db8:1:2:f000::/68".parse().unwrap(), region(9)),
        ]);
        let (_, r) = t.resolve("2001:db8:1:2:f000::1".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(9));
        // Elsewhere in the carve (no specific region) stays silent — the
        // /68 above covers the whole branch though, so pick another test
        // point outside p64 entirely.
        assert!(t.resolve("2001:db8:1:3::1".parse().unwrap()).is_none());
    }

    /// Regions nest down four spine addresses that share long prefixes —
    /// one sits in the `0xf` branch under `/64`, one in the `0x3` branch
    /// under `/120` — at nybble and non-nybble lengths, each with a carve
    /// branch or none (16 and 17 are no nybble, so they carve nothing).
    fn arb_regions() -> impl proptest::prelude::Strategy<Value = Vec<(Prefix, AliasRegion)>> {
        use proptest::prelude::Strategy;
        const S: u128 = 0x2001_0db8_0001_0002_0000_0000_0000_0000;
        const SPINES: [u128; 4] = [S, S | (0xf << 60), S | (0x3 << 4), S ^ (1 << 127)];
        const LENS: [u8; 16] = [
            0, 3, 32, 48, 61, 64, 66, 68, 72, 116, 118, 120, 122, 124, 126, 128,
        ];
        let one = (0usize..4, 0usize..16, 0u8..24, 0u32..8);
        proptest::collection::vec(one, 0..12).prop_map(|raw| {
            raw.into_iter()
                .map(|(spine, len, carve, m)| {
                    let r = AliasRegion {
                        carve_branch: (carve < 18).then_some(carve),
                        ..region(m)
                    };
                    (Prefix::from_bits(SPINES[spine], LENS[len]), r)
                })
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// [`AliasTable::resolve`] and the longest match of
        /// [`AliasTable::serving`] answer what a filter over the
        /// regions answers — the most specific region containing the
        /// address that does not carve it out — at every address where
        /// either could change. Of a prefix given twice, the later
        /// region counts.
        #[test]
        fn frozen_resolve_equals_the_covering_walk(
            regions in arb_regions(),
            noise in proptest::collection::vec(proptest::prelude::any::<u128>(), 8),
        ) {
            let t = AliasTable::new(regions.iter().copied());
            let latest: std::collections::BTreeMap<Prefix, AliasRegion> =
                regions.iter().copied().collect();
            let walk = |addr: Ipv6Addr| {
                latest
                    .iter()
                    .filter(|(p, r)| p.contains(addr) && !carved(**p, r).is_some_and(|c| c.contains(addr)))
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, r)| (*p, *r))
            };
            let mut edges: Vec<Prefix> = latest.keys().copied().collect();
            edges.extend(latest.iter().filter_map(|(p, r)| carved(*p, r)));
            let mut probes: Vec<u128> = Vec::new();
            for p in &edges {
                let (first, last) = (p.bits(), expanse_addr::addr_to_u128(p.last()));
                probes.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
                probes.extend(noise.iter().map(|n| first | (n & !expanse_addr::prefix::mask(p.len()))));
            }
            let serving = t.serving();
            for q in probes {
                let addr = expanse_addr::u128_to_addr(q);
                let want = walk(addr);
                proptest::prop_assert_eq!(t.resolve(addr), want, "resolve {}", addr);
                let got = serving.longest_match(addr).and_then(|(_, s)| *s);
                proptest::prop_assert_eq!(got, want, "serving {}", addr);
            }
        }
    }

    #[test]
    fn carve_below_a_non_nybble_region_falls_back_to_it() {
        let p64: Prefix = "2001:db8:1:2::/64".parse().unwrap();
        let t = AliasTable::new([
            (
                p64,
                AliasRegion {
                    carve_branch: Some(0xf),
                    ..region(1)
                },
            ),
            // A /66 between the /64 and its carved /68 serves the carve.
            ("2001:db8:1:2:c000::/66".parse().unwrap(), region(4)),
        ]);
        let (p, r) = t.resolve("2001:db8:1:2:f000::1".parse().unwrap()).unwrap();
        assert_eq!((p.len(), r.machine), (66, MachineId(4)));
        assert_eq!(
            t.resolve("2001:db8:1:2:1::1".parse().unwrap()).unwrap().0,
            p64
        );
    }

    #[test]
    fn ground_truth_membership() {
        let p: Prefix = "2001:db8:47::/48".parse().unwrap();
        let mut t = AliasTable::new([(p, region(1))]);
        assert!(t.regions.get(p).is_some());
        assert!(t.regions.get("2001:db8:47::/52".parse().unwrap()).is_none());
        assert_eq!(t.iter().count(), 1);
        // A second build phase adds regions; a repeated prefix takes the
        // later region.
        let q: Prefix = "2001:db8:48::/48".parse().unwrap();
        t.extend([(q, region(2)), (p, region(3))]);
        assert_eq!(t.iter().count(), 2);
        assert_eq!(
            t.resolve(p.first()).map(|(_, r)| r.machine),
            Some(MachineId(3))
        );
        assert_eq!(
            t.resolve(q.first()).map(|(_, r)| r.machine),
            Some(MachineId(2))
        );
    }
}
