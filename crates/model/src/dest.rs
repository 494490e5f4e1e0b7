//! The fused destination table: everything the engine reads about a
//! destination address that depends on the address alone, behind one
//! longest-prefix match.
//!
//! Five prefix sets decide how a frame to an address is answered before
//! its transport is looked at: the BGP routes (with each origin's roster
//! category), the alias regions that serve it (carve-outs applied), the
//! lossy prefixes, and the prefixes of the day state's ICMP buckets and
//! SYN proxies. None of them changes after `InternetModel::build`, so
//! they are fused here into one frozen [`RangeTable`]: every prefix of
//! every set is a key, and its entry holds the answer of each set for
//! the addresses whose longest match among *all* the keys it is. That
//! answer is the same for every such address — a set's own longest
//! match for it covers the key, so it is the set's longest match for
//! the key — so one search gives all five. It is the model's only
//! lookup structure: the engine, `InternetModel::route` and
//! `InternetModel::truth_aliased` all read it.

use crate::alias::AliasRegion;
use crate::ids::AsCategory;
use crate::InternetModel;
use expanse_addr::Prefix;
use expanse_trie::RangeTable;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// "No such part" in a [`Dest`] index field.
pub(crate) const NONE: u32 = u32::MAX;

/// One entry of the fused table: each prefix set's answer for the
/// addresses the entry covers. Indices point into the side tables of
/// [`DestTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dest {
    /// The covering announcement's index in the model's announcement
    /// list, or [`NONE`] for unrouted space.
    pub route: u32,
    /// The origin's roster category; `None` when unrouted or when the
    /// origin is missing from the roster.
    pub category: Option<AsCategory>,
    /// Under a lossy prefix?
    pub lossy: bool,
    /// The serving alias region in [`DestTable::aliases`], or [`NONE`].
    pub alias: u32,
    /// The covering ICMP buckets' day-state slots, ascending, as a range
    /// of [`DestTable::bucket_slots`].
    pub buckets: (u32, u32),
    /// The first covering SYN proxy's day-state slot, or [`NONE`].
    pub proxy: u32,
}

impl Dest {
    /// What an address no key covers resolves to.
    const OUTSIDE: Dest = Dest {
        route: NONE,
        category: None,
        lossy: false,
        alias: NONE,
        buckets: (0, 0),
        proxy: NONE,
    };

    /// Does a frame to this destination meet middlebox state?
    pub(crate) fn stateful(&self) -> bool {
        self.buckets.0 != self.buckets.1 || self.proxy != NONE
    }
}

/// What each prefix set says about one key prefix itself, before the
/// answers of the keys covering it are inherited.
#[derive(Default)]
struct Own {
    route: Option<u32>,
    /// The alias region at this prefix.
    region: Option<AliasRegion>,
    /// Is this prefix the branch some region carves out?
    carved: bool,
    lossy: bool,
    buckets: Vec<u32>,
    proxy: Option<u32>,
}

/// The fused table and the side tables its entries point into.
#[derive(Debug, Default)]
pub(crate) struct DestTable {
    /// Per range of the address space, the index of its [`Dest`].
    ranges: RangeTable<u32>,
    dests: Vec<Dest>,
    /// The alias regions, in [`Prefix`] order.
    aliases: Vec<(Prefix, AliasRegion)>,
    /// Concatenated covering-bucket slot lists.
    bucket_slots: Vec<u32>,
}

impl DestTable {
    /// Fuse `model`'s routes, alias regions, lossy prefixes and
    /// middlebox prefixes.
    pub(crate) fn build(model: &InternetModel) -> Self {
        let mut table = DestTable::default();
        let mut own: BTreeMap<Prefix, Own> = BTreeMap::new();
        for (i, (p, _)) in model.announcements().iter().enumerate() {
            own.entry(*p).or_default().route = Some(i as u32);
        }
        for (p, region) in model.population.aliases.iter() {
            own.entry(p).or_default().region = Some(*region);
            if let Some(branch) = region.carved(p) {
                own.entry(branch).or_default().carved = true;
            }
        }
        for p in &model.population.lossy {
            own.entry(*p).or_default().lossy = true;
        }
        for (slot, p) in model.icmp_bucket_prefixes().enumerate() {
            own.entry(p).or_default().buckets.push(slot as u32);
        }
        for (slot, p) in model.population.special.syn_proxy.iter().enumerate() {
            let proxy = &mut own.entry(*p).or_default().proxy;
            proxy.get_or_insert(slot as u32);
        }
        // Keys in address order, covering before covered, with a stack
        // of the open ones: each key starts from the entry of the key
        // that most closely covers it and overrides what it says itself.
        let mut open: Vec<(Prefix, Dest, Vec<u32>)> = Vec::new();
        let mut lists: BTreeMap<Vec<u32>, (u32, u32)> = BTreeMap::new();
        let mut keys: Vec<(Prefix, u32)> = Vec::with_capacity(own.len());
        for (p, own) in own {
            while open.last().is_some_and(|(q, ..)| !q.covers(&p)) {
                open.pop();
            }
            let (mut dest, mut buckets) = open
                .last()
                .map_or((Dest::OUTSIDE, Vec::new()), |(_, d, b)| (*d, b.clone()));
            if let Some(route) = own.route {
                dest.route = route;
                dest.category = model.as_category(model.announcements()[route as usize].1);
            }
            if let Some(region) = own.region {
                dest.alias = table.aliases.len() as u32;
                table.aliases.push((p, region));
            } else if own.carved {
                // A carved branch is served by what serves the nearest
                // open key out whose region does not carve the branch:
                // past the carving region and the keys inside it that it
                // serves, the key just outside it (or first a region in
                // between, which is not nybble-aligned, so carves none).
                let carves = |at: u32| {
                    let region = table.aliases.get(at as usize);
                    region.is_some_and(|(q, r)| r.carved(*q).is_some_and(|c| c.covers(&p)))
                };
                dest.alias = open
                    .iter()
                    .rev()
                    .map(|(_, d, _)| d.alias)
                    .find(|&at| !carves(at))
                    .unwrap_or(NONE);
            }
            dest.lossy |= own.lossy;
            if !own.buckets.is_empty() {
                buckets.extend(own.buckets);
                buckets.sort_unstable();
                let slots = &mut table.bucket_slots;
                dest.buckets = *lists.entry(buckets.clone()).or_insert_with(|| {
                    let start = slots.len() as u32;
                    slots.extend(&buckets);
                    (start, slots.len() as u32)
                });
            }
            dest.proxy = dest.proxy.min(own.proxy.unwrap_or(NONE));
            keys.push((p, table.dests.len() as u32));
            table.dests.push(dest);
            open.push((p, dest, buckets));
        }
        assert!(table.dests.len() < NONE as usize, "fused table beyond u32");
        table.ranges = keys.into_iter().collect();
        table
    }

    /// The index of the entry covering `dst`, or [`NONE`].
    #[inline]
    pub(crate) fn find(&self, dst: Ipv6Addr) -> u32 {
        self.ranges.longest_match(dst).map_or(NONE, |(_, &i)| i)
    }

    /// Entry `at`; an address no key covers resolves to an empty entry.
    #[inline]
    pub(crate) fn get(&self, at: u32) -> &Dest {
        self.dests.get(at as usize).unwrap_or(&Dest::OUTSIDE)
    }

    /// The entry covering `dst`.
    #[inline]
    pub(crate) fn lookup(&self, dst: Ipv6Addr) -> &Dest {
        self.get(self.find(dst))
    }

    /// The alias region serving `dest`.
    #[inline]
    pub(crate) fn alias(&self, dest: &Dest) -> Option<&(Prefix, AliasRegion)> {
        self.aliases.get(dest.alias as usize)
    }

    /// The day-state slots of the ICMP buckets covering `dest`, in
    /// day-state order.
    #[inline]
    pub(crate) fn buckets(&self, dest: &Dest) -> &[u32] {
        &self.bucket_slots[dest.buckets.0 as usize..dest.buckets.1 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alias::AliasTable;
    use crate::fingerprint::MachineId;
    use crate::ModelConfig;
    use expanse_addr::{addr_to_u128, prefix::mask, u128_to_addr};
    use expanse_packet::{ProtoSet, Protocol};

    fn region(m: u32) -> AliasRegion {
        AliasRegion {
            machine: MachineId(m),
            protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
            carve_branch: None,
        }
    }

    fn carving(branch: u8, m: u32) -> AliasRegion {
        AliasRegion {
            carve_branch: Some(branch),
            ..region(m)
        }
    }

    /// A tiny model whose alias regions are `regions`.
    fn model_with(regions: &[(Prefix, AliasRegion)]) -> InternetModel {
        let mut m = InternetModel::build(ModelConfig::tiny(1));
        set_regions(&mut m, regions);
        m
    }

    /// Replace `m`'s alias regions by `regions` and fuse its table again.
    fn set_regions(m: &mut InternetModel, regions: &[(Prefix, AliasRegion)]) {
        m.population.aliases = AliasTable::new(regions.iter().copied());
        m.dests = DestTable::build(m);
    }

    /// The region the fused table serves `addr` from.
    fn serving(m: &InternetModel, addr: &str) -> Option<(Prefix, MachineId)> {
        let addr: Ipv6Addr = addr.parse().unwrap();
        let got = m
            .dests
            .alias(m.dests.lookup(addr))
            .map(|&(p, r)| (p, r.machine));
        assert_eq!(m.truth_aliased(addr), got.is_some(), "truth of {addr}");
        got
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn a_region_serves_every_address_inside_it() {
        let m = model_with(&[(p("2001:db8:47::/48"), region(1))]);
        assert_eq!(
            serving(&m, "2001:db8:47:abcd::1234"),
            Some((p("2001:db8:47::/48"), MachineId(1)))
        );
        assert_eq!(serving(&m, "2001:db8:48::1"), None);
    }

    #[test]
    fn the_more_specific_region_wins() {
        let m = model_with(&[
            (p("2001:db8::/32"), region(1)),
            (p("2001:db8:1::/48"), region(2)),
        ]);
        assert_eq!(serving(&m, "2001:db8:1::9").unwrap().1, MachineId(2));
        assert_eq!(serving(&m, "2001:db8:2::9").unwrap().1, MachineId(1));
    }

    #[test]
    fn a_carved_branch_is_silent() {
        // Branch 0x0 of the /116 (nybble index 29) is carved out; branch
        // 0x5 answers.
        let m = model_with(&[(p("2001:db8:0:1::/116"), carving(0, 3))]);
        assert_eq!(serving(&m, "2001:db8:0:1::0042"), None);
        assert_eq!(serving(&m, "2001:db8:0:1::0542").unwrap().1, MachineId(3));
    }

    #[test]
    fn a_region_inside_a_carved_branch_still_serves() {
        let m = model_with(&[
            (p("2001:db8:1:2::/64"), carving(0xf, 1)),
            (p("2001:db8:1:2:f000::/68"), region(9)),
        ]);
        assert_eq!(serving(&m, "2001:db8:1:2:f000::1").unwrap().1, MachineId(9));
        assert_eq!(serving(&m, "2001:db8:1:2:1::1").unwrap().1, MachineId(1));
        assert_eq!(serving(&m, "2001:db8:1:3::1"), None);
    }

    #[test]
    fn a_carve_below_a_non_nybble_region_falls_back_to_it() {
        // A /66 between the /64 and its carved /68 serves the carve.
        let m = model_with(&[
            (p("2001:db8:1:2::/64"), carving(0xf, 1)),
            (p("2001:db8:1:2:c000::/66"), region(4)),
        ]);
        assert_eq!(
            serving(&m, "2001:db8:1:2:f000::1"),
            Some((p("2001:db8:1:2:c000::/66"), MachineId(4)))
        );
        assert_eq!(
            serving(&m, "2001:db8:1:2:1::1"),
            Some((p("2001:db8:1:2::/64"), MachineId(1)))
        );
    }

    #[test]
    fn a_carve_inside_a_carve_falls_back_past_both() {
        // The /40 sits in the /32's carved branch, and carves its own:
        // neither serves that branch, the /16 outside both does.
        let m = model_with(&[
            (p("2001::/16"), region(1)),
            (p("2001:db8::/32"), carving(0, 2)),
            (p("2001:db8::/40"), carving(0, 3)),
        ]);
        assert_eq!(serving(&m, "2001:db8::1").unwrap().1, MachineId(1));
        assert_eq!(serving(&m, "2001:db8:80::1").unwrap().1, MachineId(3));
        assert_eq!(serving(&m, "2001:db8:100::").unwrap().1, MachineId(1));
        assert_eq!(serving(&m, "2001:db8:1000::").unwrap().1, MachineId(2));
    }

    /// Regions nest down four spine addresses that share long prefixes —
    /// one sits in the `0xf` branch under `/64`, one in the `0x3` branch
    /// under `/120` — at nybble and non-nybble lengths, each with a carve
    /// branch or none (16 and 17 are no nybble, so they carve nothing).
    /// The short lengths reach past `2001:db8::/32`, over the tiny
    /// model's announcements and other prefix sets.
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

    /// The fused table serves what a covering walk over the regions
    /// serves — the most specific region containing the address that
    /// does not carve it out — at every address where either could
    /// change. Of a prefix given twice, the later region counts. One
    /// model is built and its regions replaced per case.
    #[test]
    fn fused_aliases_equal_the_covering_walk() {
        use proptest::prelude::*;
        let mut m = InternetModel::build(ModelConfig::tiny(1));
        let mut rng = proptest::rng_for("fused_aliases_equal_the_covering_walk");
        let cases = (arb_regions(), collection::vec(any::<u128>(), 8));
        for _ in 0..128 {
            let (regions, noise) = cases.generate(&mut rng);
            set_regions(&mut m, &regions);
            let latest: BTreeMap<Prefix, AliasRegion> = regions.iter().copied().collect();
            let walk = |addr: Ipv6Addr| {
                latest
                    .iter()
                    .filter(|(p, r)| {
                        p.contains(addr) && !r.carved(**p).is_some_and(|c| c.contains(addr))
                    })
                    .max_by_key(|(p, _)| p.len())
                    .map(|(p, r)| (*p, *r))
            };
            let mut edges: Vec<Prefix> = latest.keys().copied().collect();
            edges.extend(latest.iter().filter_map(|(p, r)| r.carved(*p)));
            let mut probes: Vec<u128> = Vec::new();
            for p in &edges {
                let (first, last) = (p.bits(), addr_to_u128(p.last()));
                probes.extend([first, last, first.wrapping_sub(1), last.wrapping_add(1)]);
                probes.extend(noise.iter().map(|n| first | (n & !mask(p.len()))));
            }
            for q in probes {
                let addr = u128_to_addr(q);
                let want = walk(addr);
                let got = m.dests.alias(m.dests.lookup(addr)).copied();
                assert_eq!(got, want, "serving {addr} of {regions:?}");
                assert_eq!(m.truth_aliased(addr), want.is_some(), "truth {addr}");
            }
        }
    }
}
