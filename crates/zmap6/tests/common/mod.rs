//! The worlds, target mix and recorded oracle of the pooled-scan
//! equivalence tests. Shared by `tests/scan_pooled.rs` (public API, the
//! ambient worker count) and the worker-count sweep in
//! `src/scanner.rs`'s unit tests (which reaches the crate-private
//! worker parameter), so both scan exactly the same thing.

use expanse_addr::{keyed_random_addr, Prefix};
use expanse_model::{InternetModel, ModelConfig};
use std::net::Ipv6Addr;

/// What one world's scan sequence left behind: the digests of the first
/// ICMP + TCP/80 scans, the clock after them, then the same for a
/// second pair run right after — which reads the bucket and proxy state
/// the first pair left.
pub(crate) type Fingerprint = [u64; 6];

/// [`Fingerprint`]s of the serial event-queue scan loop, recorded on
/// the commit before the scan job went onto the worker pool.
pub(crate) const RECORDED_PLAIN: Fingerprint = [
    13_679_804_073_795_178_727,
    17_561_221_096_330_672_830,
    10_245_780_000,
    5_914_868_606_634_577_564,
    15_644_771_115_708_597_598,
    20_491_560_000,
];
/// The adversarial world (throttled last-hop /64s in the day state).
pub(crate) const RECORDED_ADVERSARIAL: Fingerprint = [
    3_060_298_423_986_867_007,
    2_691_181_534_831_703_082,
    10_248_240_000,
    12_611_666_820_361_467_537,
    12_772_909_139_968_156_788,
    20_496_480_000,
];

pub(crate) fn plain() -> InternetModel {
    InternetModel::build(ModelConfig::tiny(21))
}

pub(crate) fn adversarial() -> InternetModel {
    InternetModel::build(ModelConfig::adversarial(21))
}

/// ≥ 20 k targets over everything a scan can meet: the ICMP
/// rate-limit parent, the SYN-proxy /80s, the scenario's throttled
/// /64s, aliased hooks, every live host, routed and unrouted ghosts,
/// one target listed twice, and two blacklisted prefixes (returned
/// second) with targets inside.
pub(crate) fn mix(model: &InternetModel) -> (Vec<Ipv6Addr>, Vec<Prefix>) {
    let special = &model.population().special;
    let mut targets: Vec<Ipv6Addr> = Vec::new();
    let mut fill = |p: Prefix, n: u64| {
        targets.extend((0..n).map(|i| keyed_random_addr(p, i)));
    };
    fill(special.rate_limit_parent, 600);
    for p in &special.syn_proxy {
        fill(*p, 400);
    }
    for p in &model.scenario().throttled {
        fill(*p, 100);
    }
    for p in &special.cdn_hook_48s {
        fill(*p, 500);
    }
    for site in &model.population().sites {
        fill(site.site, 40);
    }
    let unrouted: Prefix = "3fff::/20".parse().expect("valid prefix");
    fill(unrouted, 3000);
    for site in &model.population().sites {
        targets.extend(&site.addrs);
    }
    targets.extend(model.population().hosts.keys());
    let dup = keyed_random_addr(special.cdn_hook_48s[0], 7);
    targets.push(dup);
    let blacklist = vec![
        special.cdn_hook_48s[3],
        "3fff:800::/24".parse().expect("valid prefix"),
    ];
    (targets, blacklist)
}
