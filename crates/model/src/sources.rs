//! The seven hitlist sources of §3 (Table 2, Fig 1a).
//!
//! Each source samples addresses from the population with its own nature
//! (servers / routers / clients), AS concentration, and cumulative growth
//! curve. Samplers are materialized at build time as ordered reveal
//! lists; `addrs_on_day(d)` returns the cumulative prefix of the list.

use crate::ids::AsCategory;
use crate::InternetModel;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{AddrTable, Prefix};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Source identifiers, in the paper's Table 2 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceId {
    /// Domainlists.
    DomainLists,
    /// Fdns.
    Fdns,
    /// Ct.
    Ct,
    /// Axfr.
    Axfr,
    /// Bitnodes.
    Bitnodes,
    /// Ripeatlas.
    RipeAtlas,
    /// Scamper.
    Scamper,
}

impl SourceId {
    /// All.
    pub const ALL: [SourceId; 7] = [
        SourceId::DomainLists,
        SourceId::Fdns,
        SourceId::Ct,
        SourceId::Axfr,
        SourceId::Bitnodes,
        SourceId::RipeAtlas,
        SourceId::Scamper,
    ];

    /// Display name (Table 2).
    pub fn name(self) -> &'static str {
        match self {
            SourceId::DomainLists => "DL",
            SourceId::Fdns => "FDNS",
            SourceId::Ct => "CT",
            SourceId::Axfr => "AXFR",
            SourceId::Bitnodes => "BIT",
            SourceId::RipeAtlas => "RA",
            SourceId::Scamper => "Scamper",
        }
    }

    /// "Nature" column of Table 2.
    pub fn nature(self) -> &'static str {
        match self {
            SourceId::DomainLists | SourceId::Fdns | SourceId::Ct => "Servers",
            SourceId::Axfr | SourceId::Bitnodes => "Mixed",
            SourceId::RipeAtlas | SourceId::Scamper => "Routers",
        }
    }
}

/// One materialized source.
#[derive(Debug, Clone)]
pub struct Source {
    /// Which source this is.
    pub id: SourceId,
    /// Reveal-ordered addresses.
    pub pool: Vec<Ipv6Addr>,
    /// Cumulative reveal fraction per day (len = runup_days + 1,
    /// monotone, ends at 1.0).
    pub growth: Vec<f64>,
}

impl Source {
    /// Addresses known by the end of `day` (0-based; capped at the end).
    pub fn addrs_on_day(&self, day: u32) -> &[Ipv6Addr] {
        let i = (day as usize + 1).min(self.growth.len() - 1);
        let n = (self.growth[i] * self.pool.len() as f64).round() as usize;
        &self.pool[..n.min(self.pool.len())]
    }

    /// The complete pool.
    pub fn all(&self) -> &[Ipv6Addr] {
        &self.pool
    }
}

/// Relative pool-size targets (≈ Table 2 at 1:100, normalized to the
/// population actually available).
fn volume_weight(id: SourceId) -> f64 {
    match id {
        SourceId::DomainLists => 98.0,
        SourceId::Fdns => 33.0,
        SourceId::Ct => 185.0,
        SourceId::Axfr => 7.0,
        SourceId::Bitnodes => 0.31,
        SourceId::RipeAtlas => 2.0,
        SourceId::Scamper => 260.0,
    }
}

/// Share of each source's pool drawn from aliased CDN space — this is
/// what makes the Top-AS column of Table 2 so concentrated for the
/// DNS-derived sources.
fn alias_share(id: SourceId) -> f64 {
    match id {
        SourceId::DomainLists => 0.88,
        SourceId::Fdns => 0.12,
        SourceId::Ct => 0.91,
        SourceId::Axfr => 0.55,
        SourceId::Bitnodes => 0.0,
        SourceId::RipeAtlas => 0.0,
        SourceId::Scamper => 0.02,
    }
}

/// Which population categories the non-aliased share samples, with
/// weights.
fn category_mix(id: SourceId) -> &'static [(AsCategory, f64)] {
    match id {
        SourceId::DomainLists | SourceId::Ct => &[
            (AsCategory::Hoster, 0.55),
            (AsCategory::Enterprise, 0.25),
            (AsCategory::Academic, 0.15),
            (AsCategory::Cdn, 0.05),
        ],
        SourceId::Fdns => &[
            (AsCategory::Hoster, 0.40),
            (AsCategory::Enterprise, 0.25),
            (AsCategory::IspEyeball, 0.15),
            (AsCategory::Academic, 0.15),
            (AsCategory::Transit, 0.05),
        ],
        SourceId::Axfr => &[
            (AsCategory::Hoster, 0.6),
            (AsCategory::Enterprise, 0.3),
            (AsCategory::Academic, 0.1),
        ],
        SourceId::Bitnodes => &[(AsCategory::IspEyeball, 0.75), (AsCategory::Hoster, 0.25)],
        SourceId::RipeAtlas => &[
            (AsCategory::Transit, 0.55),
            (AsCategory::IspEyeball, 0.20),
            (AsCategory::Academic, 0.15),
            (AsCategory::Hoster, 0.10),
        ],
        SourceId::Scamper => &[(AsCategory::IspEyeball, 0.90), (AsCategory::Transit, 0.10)],
    }
}

/// Cumulative growth control points `(day_fraction, reveal_fraction)`
/// per source, shaped after Fig 1a.
fn growth_curve(id: SourceId) -> &'static [(f64, f64)] {
    match id {
        // Early, fast: domain lists existed from the start.
        SourceId::DomainLists => &[(0.0, 0.15), (0.2, 0.55), (0.5, 0.8), (1.0, 1.0)],
        SourceId::Fdns => &[(0.0, 0.1), (0.4, 0.5), (1.0, 1.0)],
        // CT log ingestion lands as a step midway.
        SourceId::Ct => &[
            (0.0, 0.02),
            (0.4, 0.08),
            (0.45, 0.6),
            (0.8, 0.9),
            (1.0, 1.0),
        ],
        SourceId::Axfr => &[(0.0, 0.2), (1.0, 1.0)],
        SourceId::Bitnodes => &[(0.0, 0.3), (1.0, 1.0)],
        SourceId::RipeAtlas => &[(0.0, 0.4), (1.0, 1.0)],
        // Explosive late growth (the paper calls it "peculiar").
        SourceId::Scamper => &[
            (0.0, 0.0),
            (0.3, 0.05),
            (0.6, 0.25),
            (0.85, 0.7),
            (1.0, 1.0),
        ],
    }
}

/// Interpolate a growth curve into per-day cumulative fractions.
fn materialize_growth(points: &[(f64, f64)], days: u32) -> Vec<f64> {
    let mut out = Vec::with_capacity(days as usize + 1);
    for d in 0..=days {
        let x = f64::from(d) / f64::from(days);
        // Find surrounding control points.
        let mut y = points.last().expect("non-empty curve").1;
        for w in points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if x >= x0 && x <= x1 {
                let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 1.0 };
                y = y0 + t * (y1 - y0);
                break;
            }
        }
        out.push(y.clamp(0.0, 1.0));
    }
    out
}

/// Build all seven sources from the population.
pub fn build_sources(model: &InternetModel) -> Vec<Source> {
    let pop = &model.population;
    let seed = model.config.seed;
    let days = model.config.runup_days;

    // Pre-index pool addresses by category.
    let mut by_cat: BTreeMap<AsCategory, Vec<Ipv6Addr>> = BTreeMap::new();
    for site in &pop.sites {
        by_cat
            .entry(site.category)
            .or_default()
            .extend(site.addrs.iter().copied());
    }
    // CPE addresses for Scamper: registered CpeRouter hosts + path-model
    // ghosts are already part of hosts; collect them.
    let cpe: Vec<Ipv6Addr> = {
        // Address order (not build order) feeds the keyed shuffle below.
        let mut v: Vec<Ipv6Addr> = pop
            .hosts
            .iter()
            .filter(|(_, h)| h.kind == crate::host::HostKind::CpeRouter)
            .map(|(a, _)| a)
            .collect();
        v.sort_unstable();
        v
    };

    let mut out = Vec::new();
    for id in SourceId::ALL {
        let mut rng = StdRng::seed_from_u64(seed ^ splitmix64(id as u64 ^ 0x50cc));
        let total_weight: f64 = SourceId::ALL.iter().map(|s| volume_weight(*s)).sum();
        // Scale pool sizes to the population: aim to use most of the
        // alias pool + site pools across all sources.
        let budget_all = (pop.alias_pool.len() + pop.pool_size()) as f64 * 1.05;
        let mut want = ((volume_weight(id) / total_weight) * budget_all) as usize;
        if id == SourceId::Bitnodes {
            want = want.max(200);
        }
        if id == SourceId::RipeAtlas {
            want = want.max(800);
        }

        let n_alias = ((want as f64) * alias_share(id)) as usize;
        let n_rest = want - n_alias;
        let mut pool: Vec<Ipv6Addr> = Vec::with_capacity(want);
        let mut seen = AddrTable::with_capacity(want);

        // Aliased share: deterministic slice walk with per-source offset.
        if n_alias > 0 && !pop.alias_pool.is_empty() {
            let start = splitmix64(seed ^ id as u64) as usize % pop.alias_pool.len();
            for i in 0..n_alias {
                let a = pop.alias_pool[(start + i * 7) % pop.alias_pool.len()];
                if seen.intern_u128(expanse_addr::addr_to_u128(a)).1 {
                    pool.push(a);
                }
            }
        }

        // FDNS additionally indexes server farms completely: hosting
        // fleets have forward DNS for every box, so farm /64s appear in
        // the hitlist with enough members for the §5.4 validation.
        if id == SourceId::Fdns {
            for site in &pop.sites {
                if site.category == AsCategory::Hoster && site.site.len() == 64 {
                    for a in &site.addrs {
                        if seen.intern_u128(expanse_addr::addr_to_u128(*a)).1 {
                            pool.push(*a);
                        }
                    }
                }
            }
        }

        // Category share.
        if id == SourceId::Scamper {
            // Scamper draws the CPE router population.
            let mut cpe_shuffled = cpe.clone();
            cpe_shuffled.shuffle(&mut rng);
            for a in cpe_shuffled.into_iter().take(n_rest) {
                if seen.intern_u128(expanse_addr::addr_to_u128(a)).1 {
                    pool.push(a);
                }
            }
            // Plus backbone router addresses seen in traceroutes.
            for i in 0..(n_rest / 20).max(10) {
                let hop_net: Prefix = Prefix::from_bits(0x2000_0001u128 << 96, 32);
                let a = expanse_addr::keyed_random_addr(
                    hop_net.subprefix(32, (splitmix64(i as u64) % 4096) as u128),
                    seed ^ i as u64,
                );
                if seen.intern_u128(expanse_addr::addr_to_u128(a)).1 {
                    pool.push(a);
                }
            }
        } else {
            let mix = category_mix(id);
            for (cat, w) in mix {
                let Some(cands) = by_cat.get(cat) else {
                    continue;
                };
                if cands.is_empty() {
                    continue;
                }
                let n = ((n_rest as f64) * w) as usize;
                let start = splitmix64(seed ^ id as u64 ^ *cat as u64) as usize % cands.len();
                // Stride-walk the category pool: deterministic, spreads
                // across sites, allows overlap between sources (the "new
                // IPs" column of Table 2 measures exactly this overlap).
                let stride = 1 + splitmix64(id as u64 ^ 0x57) as usize % 5;
                for i in 0..n.min(cands.len() * 2) {
                    let a = cands[(start + i * stride) % cands.len()];
                    if seen.intern_u128(expanse_addr::addr_to_u128(a)).1 {
                        pool.push(a);
                    }
                    if pool.len() >= want {
                        break;
                    }
                }
            }
        }

        // Reveal order: shuffled so growth curves expose a random mix.
        pool.shuffle(&mut rng);
        let growth = materialize_growth(growth_curve(id), days);
        out.push(Source { id, pool, growth });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetModel, ModelConfig};

    fn model() -> InternetModel {
        InternetModel::build(ModelConfig::tiny(5))
    }

    #[test]
    fn seven_sources_built() {
        let m = model();
        let sources = build_sources(&m);
        assert_eq!(sources.len(), 7);
        for s in &sources {
            assert!(!s.pool.is_empty(), "{:?} empty", s.id);
            assert_eq!(s.growth.len() as u32, m.config.runup_days + 1);
            // Growth is monotone and ends at 1.
            assert!(s.growth.windows(2).all(|w| w[0] <= w[1] + 1e-12));
            assert!((s.growth.last().unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn growth_reveals_monotonically() {
        let m = model();
        let sources = build_sources(&m);
        for s in &sources {
            let d0 = s.addrs_on_day(0).len();
            let dmid = s.addrs_on_day(m.config.runup_days / 2).len();
            let dend = s.addrs_on_day(m.config.runup_days).len();
            assert!(d0 <= dmid && dmid <= dend, "{:?}", s.id);
            assert_eq!(dend, s.pool.len(), "{:?} must fully reveal", s.id);
        }
    }

    #[test]
    fn scamper_grows_late_dl_grows_early() {
        let m = model();
        let sources = build_sources(&m);
        let frac = |id: SourceId, day: u32| {
            let s = sources.iter().find(|s| s.id == id).unwrap();
            s.addrs_on_day(day).len() as f64 / s.pool.len() as f64
        };
        let mid = m.config.runup_days / 2;
        assert!(
            frac(SourceId::DomainLists, mid) > 0.6,
            "DL should be mostly revealed by midpoint"
        );
        assert!(
            frac(SourceId::Scamper, mid) < 0.35,
            "Scamper should still be small at midpoint"
        );
    }

    #[test]
    fn dl_and_ct_are_alias_heavy() {
        let m = model();
        let sources = build_sources(&m);
        for id in [SourceId::DomainLists, SourceId::Ct] {
            let s = sources.iter().find(|s| s.id == id).unwrap();
            let aliased = s.pool.iter().filter(|a| m.truth_aliased(**a)).count();
            let share = aliased as f64 / s.pool.len() as f64;
            assert!(share > 0.7, "{id:?} alias share {share}");
        }
        let ra = sources
            .iter()
            .find(|s| s.id == SourceId::RipeAtlas)
            .unwrap();
        let ra_aliased = ra.pool.iter().filter(|a| m.truth_aliased(**a)).count();
        assert_eq!(ra_aliased, 0, "RIPE Atlas must not sample aliased space");
    }

    #[test]
    fn scamper_is_mostly_slaac_cpe() {
        let m = model();
        let sources = build_sources(&m);
        let s = sources.iter().find(|s| s.id == SourceId::Scamper).unwrap();
        let slaac = s
            .pool
            .iter()
            .filter(|a| expanse_addr::is_eui64(**a))
            .count();
        let share = slaac as f64 / s.pool.len() as f64;
        // Paper: 90.7 % of scamper addresses carry ff:fe.
        assert!(share > 0.7, "SLAAC share {share}");
    }

    #[test]
    fn deterministic() {
        let m = model();
        let a = build_sources(&m);
        let b = build_sources(&m);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pool, y.pool);
        }
    }
}
