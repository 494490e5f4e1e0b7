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
//! the key — so one search gives all five, where the engine used to run
//! three range searches, a binary search over the AS roster and two
//! linear scans over the middleboxes.

use crate::alias::AliasRegion;
use crate::ids::{AsCategory, Asn};
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
    /// The covering announcement in [`DestTable::routes`], or [`NONE`]
    /// for unrouted space.
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
    alias: Option<u32>,
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
    /// The announcements, with their origins.
    routes: Vec<(Prefix, Asn)>,
    /// The serving alias regions.
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
        for (p, asn) in model.bgp.routes.iter() {
            own.entry(p).or_default().route = Some(table.routes.len() as u32);
            table.routes.push((p, *asn));
        }
        for (p, serving) in model.population.aliases.serving().iter() {
            let at = serving.map_or(NONE, |s| {
                table.aliases.push(s);
                table.aliases.len() as u32 - 1
            });
            own.entry(p).or_default().alias = Some(at);
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
                dest.category = model.as_category(table.routes[route as usize].1);
            }
            if let Some(alias) = own.alias {
                dest.alias = alias;
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

    /// The announcement `dest` is routed by.
    pub(crate) fn route(&self, dest: &Dest) -> Option<(Prefix, Asn)> {
        self.routes.get(dest.route as usize).copied()
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
