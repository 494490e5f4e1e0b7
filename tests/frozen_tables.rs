//! The simulated Internet answers every probe from frozen range tables;
//! for each address a tiny-scale day actually probes — every battery
//! target and every APD fan-out target — and for the addresses on
//! either side of every range edge, they must answer what the prefix
//! sets they were frozen from answer, each asked on its own through a
//! naive lookup (a `BTreeMap` probe at each prefix length): the same
//! covering announcement and roster category, the same serving alias
//! region, the same lossy membership, and the same ICMP buckets and SYN
//! proxy in front of it.

use expanse::addr::fanout::fanout16;
use expanse::addr::nybbles::nybble;
use expanse::addr::{addr_to_u128, u128_to_addr, Prefix};
use expanse::core::{Pipeline, PipelineConfig};
use expanse::model::alias::AliasRegion;
use expanse::model::{Asn, Destination, InternetModel, ModelConfig};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// One prefix set, looked up the naive way: a `BTreeMap` probe at each
/// prefix length the set holds, longest first. Of a prefix given
/// twice, the later value stays.
struct Naive<V> {
    map: BTreeMap<Prefix, V>,
    /// The stored prefixes' lengths, descending.
    lens: Vec<u8>,
}

impl<V> FromIterator<(Prefix, V)> for Naive<V> {
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(pairs: I) -> Self {
        let map: BTreeMap<Prefix, V> = pairs.into_iter().collect();
        let mut lens: Vec<u8> = map.keys().map(|p| p.len()).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        lens.dedup();
        Naive { map, lens }
    }
}

impl<V> Naive<V> {
    /// The stored prefixes covering `a`, longest first.
    fn covering(&self, a: Ipv6Addr) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.lens.iter().filter_map(move |&len| {
            let (p, v) = self.map.get_key_value(&Prefix::new(a, len))?;
            Some((*p, v))
        })
    }
}

/// Alias resolution by walking every region that covers `addr`,
/// longest first: the first one that does not carve `addr` out (a
/// nybble-aligned region of at most /124 silences its carve branch)
/// serves it.
fn walk_resolve(regions: &Naive<AliasRegion>, addr: Ipv6Addr) -> Option<(Prefix, AliasRegion)> {
    regions
        .covering(addr)
        .find(|(p, r)| {
            !r.carve_branch.is_some_and(|branch| {
                p.len() <= 124
                    && p.len() % 4 == 0
                    && nybble(addr, usize::from(p.len()) / 4) == branch
            })
        })
        .map(|(p, r)| (p, *r))
}

/// A model's prefix sets, each on its own, as naive maps and lists.
struct Sets {
    routes: Naive<Asn>,
    regions: Naive<AliasRegion>,
    lossy: Naive<()>,
    /// The day state's ICMP buckets in slot order: the rate-limited
    /// parent, then the scenario's throttled routers.
    buckets: Vec<Prefix>,
    proxies: Vec<Prefix>,
}

impl Sets {
    fn of(model: &InternetModel) -> Sets {
        let special = &model.population.special;
        Sets {
            routes: model.announcements().iter().copied().collect(),
            regions: model
                .population
                .aliases
                .iter()
                .map(|(p, r)| (p, *r))
                .collect(),
            lossy: model.population.lossy.iter().map(|p| (*p, ())).collect(),
            buckets: std::iter::once(special.rate_limit_parent)
                .chain(model.scenario.throttled.iter().copied())
                .collect(),
            proxies: special.syn_proxy.clone(),
        }
    }

    /// What the sets answer for `a`.
    fn destination(&self, model: &InternetModel, a: Ipv6Addr) -> Destination {
        let route = self.routes.covering(a).next().map(|(p, &asn)| {
            let roster = model.ases.iter().find(|info| info.asn == asn);
            (p, asn, roster.map(|info| info.category))
        });
        Destination {
            route,
            alias: walk_resolve(&self.regions, a),
            lossy: self.lossy.covering(a).next().is_some(),
            icmp_buckets: self
                .buckets
                .iter()
                .copied()
                .filter(|p| p.contains(a))
                .collect(),
            syn_proxy: self.proxies.iter().copied().find(|p| p.contains(a)),
        }
    }

    /// Every address next to a range edge of the fused table: the first
    /// and last address of every prefix of every set, and their
    /// outside neighbours. (The fused table's ranges start and end only
    /// where some set's prefix does.)
    fn edges(&self, model: &InternetModel) -> Vec<Ipv6Addr> {
        let carves = model.population.aliases.iter().filter_map(|(p, r)| {
            let branch = r
                .carve_branch
                .filter(|_| p.len() <= 124 && p.len() % 4 == 0)?;
            Some(p.subprefix(4, u128::from(branch)))
        });
        let prefixes: Vec<Prefix> = self
            .routes
            .map
            .keys()
            .chain(self.regions.map.keys())
            .copied()
            .chain(carves)
            .chain(self.lossy.map.keys().copied())
            .chain(self.buckets.iter().copied())
            .chain(self.proxies.iter().copied())
            .collect();
        let mut edges: Vec<Ipv6Addr> = prefixes
            .iter()
            .flat_map(|p| {
                let (first, last) = (addr_to_u128(p.first()), addr_to_u128(p.last()));
                [first.wrapping_sub(1), first, last, last.wrapping_add(1)]
            })
            .map(u128_to_addr)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }
}

/// The model's route and alias ground truth for `a` are what the
/// naive sets answer.
fn assert_answers(model: &InternetModel, a: Ipv6Addr, want: &Destination) {
    let route = want.route.map(|(p, asn, _)| (p, asn));
    assert_eq!(model.route(a), route, "route of {a}");
    assert_eq!(
        model.truth_aliased(a),
        want.alias.is_some(),
        "alias truth of {a}"
    );
}

#[test]
fn probed_targets_route_and_resolve_as_through_the_tries() {
    let model_cfg = ModelConfig::tiny(7);
    let mut p = Pipeline::new(model_cfg.clone(), PipelineConfig::default());
    p.collect_sources(model_cfg.runup_days);
    p.warmup_apd(1);

    let live = p.hitlist.live_set();
    let table = p.hitlist.table();
    let (kept, _) = p.apd.filter().split_set(table, &live);
    let battery: Vec<Ipv6Addr> = kept.iter().map(|id| table.addr(id)).collect();
    let plan = expanse::apd::plan_targets_set(table, &live, &p.cfg.plan);
    let apd: Vec<Ipv6Addr> = plan
        .iter()
        .flat_map(|&prefix| fanout16(prefix, p.cfg.apd.salt))
        .map(|t| t.addr)
        .collect();
    assert!(!battery.is_empty() && !apd.is_empty());

    let model = p.scanner.network();
    let sets = Sets::of(model);
    // What APD sends when it plans an alias region itself: its 16-way
    // fan-out, one branch per nybble — the carved branch included.
    let regional: Vec<Ipv6Addr> = sets
        .regions
        .map
        .keys()
        .filter(|prefix| prefix.len() <= 124)
        .flat_map(|&prefix| fanout16(prefix, p.cfg.apd.salt))
        .map(|t| t.addr)
        .collect();
    let (mut aliased, mut lossy, mut bucketed) = (0, 0, 0);
    for &a in battery.iter().chain(&apd).chain(&regional) {
        let want = sets.destination(model, a);
        assert_answers(model, a, &want);
        aliased += usize::from(want.alias.is_some());
        lossy += usize::from(want.lossy);
        bucketed += usize::from(!want.icmp_buckets.is_empty());
        assert_eq!(model.destination(a), want, "fused entry of {a}");
    }
    // The fan-out reaches into aliased, lossy and rate-limited space, so
    // those answers were asked.
    assert!(aliased > 0 && lossy > 0 && bucketed > 0);
}

#[test]
fn fused_range_edges_answer_as_the_separate_sets() {
    for cfg in [ModelConfig::tiny(7), ModelConfig::adversarial(7)] {
        let model = InternetModel::build(cfg);
        let sets = Sets::of(&model);
        let edges = sets.edges(&model);
        let (mut throttled, mut proxied) = (0, 0);
        for &a in &edges {
            let want = sets.destination(&model, a);
            assert_answers(&model, a, &want);
            let throttles = |p: &Prefix| model.scenario.throttled.contains(p);
            throttled += usize::from(want.icmp_buckets.iter().any(throttles));
            proxied += usize::from(want.syn_proxy.is_some());
            assert_eq!(model.destination(a), want, "fused entry of {a}");
        }
        assert!(proxied > 0, "no edge met a SYN proxy");
        if model.scenario.enabled() {
            assert!(throttled > 0, "no edge met a throttled router");
        }
    }
}
