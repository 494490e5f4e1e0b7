//! The simulated Internet answers every probe from frozen range tables;
//! for each address a tiny-scale day actually probes — every battery
//! target and every APD fan-out target — they must answer what the
//! tries they were frozen from answer: the same covering announcement,
//! the same serving alias region.

use expanse::addr::fanout::fanout16;
use expanse::addr::nybbles::nybble;
use expanse::addr::Prefix;
use expanse::core::{Pipeline, PipelineConfig};
use expanse::model::alias::AliasRegion;
use expanse::model::{Asn, ModelConfig};
use expanse::trie::PrefixTrie;
use std::net::Ipv6Addr;

/// Alias resolution by walking every region that covers `addr`,
/// shortest first: the last one that does not carve `addr` out (a
/// nybble-aligned region of at most /124 silences its carve branch)
/// serves it.
fn walk_resolve(
    regions: &PrefixTrie<AliasRegion>,
    addr: Ipv6Addr,
) -> Option<(Prefix, AliasRegion)> {
    let mut serving = None;
    for (p, r) in regions.matches(addr) {
        let carved = r.carve_branch.is_some_and(|branch| {
            p.len() <= 124 && p.len() % 4 == 0 && nybble(addr, usize::from(p.len()) / 4) == branch
        });
        if !carved {
            serving = Some((p, *r));
        }
    }
    serving
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
    let routes: PrefixTrie<Asn> = model.bgp.announcements().iter().copied().collect();
    let regions: PrefixTrie<AliasRegion> = model
        .population
        .aliases
        .iter()
        .map(|(p, r)| (p, *r))
        .collect();
    // What APD sends when it plans an alias region itself: its 16-way
    // fan-out, one branch per nybble — the carved branch included.
    let regional: Vec<Ipv6Addr> = regions
        .iter()
        .filter(|(prefix, _)| prefix.len() <= 124)
        .flat_map(|(prefix, _)| fanout16(prefix, p.cfg.apd.salt))
        .map(|t| t.addr)
        .collect();
    let mut aliased = 0;
    for &a in battery.iter().chain(&apd).chain(&regional) {
        let route = routes.longest_match(a).map(|(p, asn)| (p, *asn));
        assert_eq!(model.bgp.lookup(a), route, "route of {a}");
        let region = walk_resolve(&regions, a);
        assert_eq!(
            model.population.aliases.resolve(a),
            region,
            "alias region of {a}"
        );
        aliased += usize::from(region.is_some());
    }
    // The fan-out reaches into aliased space, so both answers were asked.
    assert!(aliased > 0);
}
