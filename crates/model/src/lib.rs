//! A synthetic IPv6 Internet for measurement-system experiments.
//!
//! This crate is the substitute substrate for the paper's real-world
//! vantage (see the crate map in `ARCHITECTURE.md`): a deterministic,
//! generative model of autonomous systems, BGP announcements, addressing
//! schemes, live hosts with TCP/IP personalities, aliased CDN prefixes,
//! lossy and rate-limited corners, hitlist sources, an rDNS tree, and
//! crowdsourcing panels.
//!
//! The model implements [`expanse_netsim::Network`]: probers inject raw
//! IPv6 frames and receive raw reply frames, exactly as they would from a
//! raw socket.
//!
//! ```
//! use expanse_model::{InternetModel, ModelConfig};
//! use expanse_netsim::{Deliveries, Network, Time};
//! use expanse_packet::{icmpv6, proto, Datagram};
//!
//! let mut net = InternetModel::build(ModelConfig::tiny(42));
//! let src = "2001:db8:ffff::1".parse().unwrap();
//! let target = net.population.special.cdn_hook_48s[0].first();
//! let mut probe = Vec::new();
//! Datagram::emit_with(&mut probe, src, target, proto::ICMPV6, 64, |out| {
//!     icmpv6::emit_echo(icmpv6::types::ECHO_REQUEST, 1, 1, &[], src, target, out)
//! });
//! let mut replies = Deliveries::new();
//! net.inject_into(Time::ZERO, &probe, &mut replies);
//! assert!(!replies.is_empty(), "aliased prefixes answer everything");
//! ```

pub mod alias;
mod bgp;
mod churn;
pub mod config;
pub mod crowd;
mod dest;
mod engine;
pub mod fingerprint;
pub mod host;
mod ids;
mod paths;
mod population;
pub mod rdns;
pub mod scenario;
mod scheme;
pub mod sources;

pub use config::ModelConfig;
pub use engine::{Decision, Destination, ScanView};
pub use ids::{AsCategory, AsInfo, Asn};
pub use population::{Population, SitePool, SpecialPrefixes};
pub use scheme::Scheme;
pub use sources::{Source, SourceId};

use expanse_addr::Prefix;
use expanse_trie::RangeTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// The assembled synthetic Internet.
///
/// Deliberately not `Clone`: a full-model copy per scan job measured
/// 3.7× slower than the snapshot design, so the battery fan-out shares
/// `&self` via [`expanse_netsim::SnapshotNetwork`] and each worker owns
/// only a cheap [`ScanView`] day-state copy. Callers needing a second
/// independent world rebuild with [`InternetModel::build`] (it is
/// deterministic in `config.seed`).
#[derive(Debug)]
pub struct InternetModel {
    /// The configuration the model was built from.
    pub config: ModelConfig,
    /// The AS roster.
    pub ases: Vec<AsInfo>,
    /// The BGP announcements, sorted: see [`InternetModel::announcements`].
    announcements: Vec<(Prefix, Asn)>,
    /// Population. Not to be changed after [`InternetModel::build`]:
    /// the engine's fused destination table is derived from its alias
    /// regions, lossy prefixes and middlebox prefixes at build time.
    pub population: Population,
    /// Forwarding-path model (hop counts, router identities).
    pub(crate) paths: paths::PathModel,
    /// Adversarial periphery scenario layer (empty when disabled).
    pub scenario: scenario::ScenarioState,
    /// Routes, alias regions, lossy and middlebox prefixes, fused for
    /// one search per destination.
    pub(crate) dests: dest::DestTable,
    pub(crate) day_state: engine::DayState,
    /// `(asn, slot in ases)`, sorted by ASN for binary search.
    as_index: Vec<(Asn, usize)>,
}

impl InternetModel {
    /// Build the model from a configuration. Deterministic in
    /// `config.seed`.
    pub fn build(config: ModelConfig) -> Self {
        config.validate();
        let ases = build_ases(&config);
        let mut announcements = bgp::allocate(&ases, config.mean_prefixes_per_as, config.seed);
        let paths = paths::PathModel::new(config.seed);
        let mut population = population::Builder::new(&config).build(&ases, &announcements, &paths);
        // Scenario construction runs strictly after the population build
        // so the builder's sequential RNG stream is untouched: with the
        // scenario disabled the model stays byte-identical.
        let scenario = scenario::build(&config.scenario, config.seed, &mut population);
        // CDNs announce their aliased /48s in BGP, as Amazon does — this
        // is what makes the Fig 5 "hook" visible at BGP granularity and
        // lets BGP-based APD (§5.1) see the phenomenon without targets.
        let origins: RangeTable<Asn> = announcements.iter().copied().collect();
        let hooks: Vec<(Prefix, Asn)> = population
            .aliases
            .iter()
            .filter(|(p, _)| p.len() == 48)
            .filter_map(|(p48, _)| Some((p48, *origins.longest_match(p48.first())?.1)))
            .collect();
        announcements.extend(hooks);
        announcements.sort();
        announcements.dedup();
        let mut as_index: Vec<(Asn, usize)> =
            ases.iter().enumerate().map(|(i, a)| (a.asn, i)).collect();
        as_index.sort_unstable();
        let mut model = InternetModel {
            config,
            ases,
            announcements,
            population,
            paths,
            scenario,
            // placeholders, replaced below (both are derived from &self)
            dests: dest::DestTable::default(),
            day_state: engine::DayState::detached(),
            as_index,
        };
        model.dests = dest::DestTable::build(&model);
        model.day_state = engine::DayState::new(&model, 0);
        model
    }

    /// Advance the model to probing day `day` (resets middlebox state,
    /// changes churn/flapping outcomes).
    pub fn set_day(&mut self, day: u16) {
        self.day_state = engine::DayState::new(self, day);
    }

    fn as_info(&self, asn: Asn) -> Option<&AsInfo> {
        let at = self.as_index.binary_search_by_key(&asn, |&(a, _)| a).ok()?;
        Some(&self.ases[self.as_index[at].1])
    }

    /// Category of an AS.
    pub(crate) fn as_category(&self, asn: Asn) -> Option<AsCategory> {
        self.as_info(asn).map(|a| a.category)
    }

    /// Org name of an AS.
    pub fn as_name(&self, asn: Asn) -> Option<&str> {
        self.as_info(asn).map(|a| a.name.as_str())
    }

    /// Every BGP announcement with its origin, in [`Prefix`] order.
    pub fn announcements(&self) -> &[(Prefix, Asn)] {
        &self.announcements
    }

    /// Longest-prefix match: the announcement covering `addr`.
    pub fn route(&self, addr: Ipv6Addr) -> Option<(Prefix, Asn)> {
        self.announced(self.dests.lookup(addr))
    }

    /// The announcement `dest` is routed by.
    pub(crate) fn announced(&self, dest: &dest::Dest) -> Option<(Prefix, Asn)> {
        self.announcements.get(dest.route as usize).copied()
    }

    /// Ground truth: is `addr` inside a (served) aliased region? An
    /// address in a region's carved branch is not, unless another
    /// region serves it.
    pub fn truth_aliased(&self, addr: Ipv6Addr) -> bool {
        self.dests.alias(self.dests.lookup(addr)).is_some()
    }

    /// Scenario ground truth: what hitlist sources would learn on `day`
    /// (empty with the scenario layer disabled). See
    /// `scenario::ScenarioState::feed`.
    pub fn scenario_feed(&self, day: u16) -> Vec<Ipv6Addr> {
        self.scenario.feed(day)
    }

    /// Scenario ground truth: previously-feedable addresses that can no
    /// longer answer on `day` — rotation ghosts and expired temporary
    /// privacy addresses. See `scenario::ScenarioState::ghosts`.
    pub fn scenario_ghosts(&self, day: u16) -> Vec<Ipv6Addr> {
        self.scenario.ghosts(day)
    }
}

/// Build the AS roster with category mix per
/// [`AsCategory::population_share`].
pub(crate) fn build_ases(config: &ModelConfig) -> Vec<AsInfo> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xa5e5);
    let mut out = Vec::with_capacity(config.n_as);
    let mut next_asn = 64500u32;
    let mut ordinals: BTreeMap<AsCategory, usize> = BTreeMap::new();
    // Guarantee at least 2 CDNs (hook + inner hook), 1 transit, 1 hoster,
    // eyeballs regardless of scale. (Popped back-to-front.)
    let mut forced = vec![
        AsCategory::IspEyeball,
        AsCategory::IspEyeball,
        AsCategory::IspEyeball,
        AsCategory::Hoster,
        AsCategory::Transit,
        AsCategory::Cdn,
        AsCategory::Cdn,
    ];
    for _ in 0..config.n_as {
        let cat = forced.pop().unwrap_or_else(|| {
            let x: f64 = rng.random_range(0.0..1.0);
            let mut acc = 0.0;
            let mut chosen = AsCategory::Enterprise;
            for c in AsCategory::ALL {
                acc += c.population_share();
                if x < acc {
                    chosen = c;
                    break;
                }
            }
            chosen
        });
        let ord = ordinals.entry(cat).or_insert(0);
        out.push(AsInfo::new(Asn(next_asn), cat, *ord));
        *ord += 1;
        next_asn += 1 + (rng.random_range(0..10u32));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_deterministically() {
        let a = InternetModel::build(ModelConfig::tiny(1));
        let b = InternetModel::build(ModelConfig::tiny(1));
        assert_eq!(a.ases.len(), b.ases.len());
        assert_eq!(a.announcements(), b.announcements());
        assert_eq!(a.population.hosts.len(), b.population.hosts.len());
    }

    #[test]
    fn forced_categories_present() {
        let m = InternetModel::build(ModelConfig::tiny(2));
        let cdns = m
            .ases
            .iter()
            .filter(|a| a.category == AsCategory::Cdn)
            .count();
        assert!(cdns >= 2, "need ≥2 CDN ASes, got {cdns}");
        assert!(m.ases.iter().any(|a| a.category == AsCategory::IspEyeball));
    }

    #[test]
    fn as_lookup_helpers() {
        let m = InternetModel::build(ModelConfig::tiny(3));
        let first = &m.ases[0];
        assert_eq!(m.as_category(first.asn), Some(first.category));
        assert_eq!(m.as_name(first.asn), Some(first.name.as_str()));
        assert_eq!(m.as_category(Asn(1)), None);
    }

    #[test]
    fn truth_helpers() {
        let m = InternetModel::build(ModelConfig::tiny(4));
        let hook = m.population.special.cdn_hook_48s[0];
        assert!(m.truth_aliased(hook.first()));
        let (p, _) = m.route(hook.first()).unwrap();
        assert!(p.covers(&hook) || hook.covers(&p));
    }

    #[test]
    fn day_advances() {
        let mut m = InternetModel::build(ModelConfig::tiny(5));
        assert_eq!(m.day_state.day, 0);
        m.set_day(7);
        assert_eq!(m.day_state.day, 7);
    }
}
