//! Crowdsourced client address collection (§9 of the paper).
//!
//! Two platforms (MTurk-like, ProA-like) recruit participants; a fraction
//! has IPv6. Client addresses are privacy-extension SLAAC addresses in
//! eyeball ASes, mostly behind inbound-filtering CPE (RFC 7084 "outbound
//! only"), with short uptime sessions. RIPE-Atlas-like anchors in the
//! same ASes provide the §9.3 upper-bound comparison.

use crate::churn;
use crate::ids::{AsCategory, Asn};
use crate::InternetModel;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{u128_to_addr, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv6Addr;

/// Crowdsourcing platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Amazon-Mechanical-Turk-like: larger, more US/IN, higher IPv6 rate.
    Mturk,
    /// Prolific-Academic-like: smaller, more EU.
    ProA,
}

/// One study participant.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Recruiting platform.
    pub platform: Platform,
    /// Every participant has IPv4; this is their v4 AS surrogate id.
    pub asn4: Asn,
    /// Participant country code.
    pub country: &'static str,
    /// IPv6 address, if the participant's network has IPv6.
    pub addr6: Option<Ipv6Addr>,
    /// Asn6.
    pub asn6: Option<Asn>,
    /// Does the CPE forward inbound ICMPv6 at all?
    pub inbound_open: bool,
    /// Churn salt (drives uptime sessions).
    pub salt: u64,
    /// Stays at the same address the whole month (the paper found 7).
    pub pinned: bool,
}

impl Participant {
    /// Is the client's address responsive at `(day, secs)`?
    pub fn responsive_at(&self, day: u16, secs: u64) -> bool {
        if self.addr6.is_none() || !self.inbound_open {
            return false;
        }
        if self.pinned {
            return true;
        }
        churn::client_online(self.salt, day, secs)
    }
}

/// A RIPE-Atlas-like anchor probe used for the §9.3 comparison.
#[derive(Debug, Clone)]
pub struct AtlasProbe {
    /// Addr.
    pub addr: Ipv6Addr,
    /// Origin AS number.
    pub asn: Asn,
    /// Probes answer by design, unless the hosting network filters.
    pub responsive: bool,
}

/// The full §9 study population.
#[derive(Debug, Clone)]
pub struct CrowdStudy {
    /// Study participants.
    pub participants: Vec<Participant>,
    /// RIPE-Atlas-like anchors.
    pub atlas: Vec<AtlasProbe>,
}

/// Country pools per platform (order = sampling weight, descending).
const MTURK_COUNTRIES: [(&str, f64); 5] = [
    ("US", 0.55),
    ("IN", 0.25),
    ("CA", 0.08),
    ("GB", 0.07),
    ("DE", 0.05),
];
const PROA_COUNTRIES: [(&str, f64); 5] = [
    ("GB", 0.40),
    ("US", 0.25),
    ("PL", 0.15),
    ("PT", 0.10),
    ("DE", 0.10),
];

fn pick_country(rng: &mut StdRng, table: &[(&'static str, f64)]) -> &'static str {
    let mut x = rng.random_range(0.0..1.0);
    for (c, w) in table {
        if x < *w {
            return c;
        }
        x -= w;
    }
    table.last().expect("non-empty table").0
}

/// Build the crowdsourcing study over the model's eyeball networks.
///
/// Participant counts follow Table 9 (they are small absolute numbers, so
/// we keep them unscaled): 5707/1176 IPv4 participants, of which
/// 31 %/20.6 % have IPv6.
pub fn build_crowd(model: &InternetModel) -> CrowdStudy {
    let cfg = &model.config;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xc509d);
    let eyeballs: Vec<(Prefix, Asn)> = model
        .population
        .sites
        .iter()
        .filter(|s| s.category == AsCategory::IspEyeball)
        .map(|s| (s.site, s.asn))
        .collect();
    assert!(
        !eyeballs.is_empty(),
        "crowd study requires eyeball networks"
    );
    // Concentrated client ASes: Comcast-like 31.1 %, ATT-like 13.2 %,
    // Reliance-like 7.8 %, then a tail (§9.2).
    let as_weights: Vec<f64> = (0..eyeballs.len())
        .map(|i| match i {
            0 => 0.311,
            1 => 0.132,
            2 => 0.078,
            _ => 0.479 / (eyeballs.len().saturating_sub(3).max(1)) as f64,
        })
        .collect();

    let pick_eyeball = |rng: &mut StdRng| -> (Prefix, Asn) {
        let total: f64 = as_weights.iter().sum();
        let mut x = rng.random_range(0.0..total);
        for (i, w) in as_weights.iter().enumerate() {
            if x < *w {
                return eyeballs[i];
            }
            x -= w;
        }
        *eyeballs.last().expect("non-empty")
    };

    let mut participants = Vec::new();
    let specs = [
        (Platform::Mturk, 5707usize, 0.31f64, &MTURK_COUNTRIES),
        (Platform::ProA, 1176, 0.206, &PROA_COUNTRIES),
    ];
    for (platform, n, v6_rate, countries) in specs {
        for i in 0..n {
            let (site, asn) = pick_eyeball(&mut rng);
            let has_v6 = rng.random_range(0.0..1.0) < v6_rate;
            let (addr6, asn6) = if has_v6 {
                // Privacy-extension address in a customer /64.
                let extra = 64 - site.len();
                let customer = site.subprefix(extra, rng.random_range(0..(1u128 << extra.min(30))));
                let iid = rng.random::<u64>() | 0x0400_0000_0000_0000; // high-ish hamming
                let addr = u128_to_addr(customer.bits() | u128::from(iid));
                (Some(addr), Some(asn))
            } else {
                (None, None)
            };
            participants.push(Participant {
                platform,
                asn4: Asn(70_000 + (splitmix64(i as u64 ^ cfg.seed) % 1000) as u32),
                country: pick_country(&mut rng, countries),
                addr6,
                asn6,
                // §9.3: 17.3 % of collected addresses answered at least
                // one echo request.
                inbound_open: rng.random_range(0.0..1.0) < 0.19,
                salt: rng.random::<u64>(),
                pinned: false,
            });
        }
    }
    // Pin a handful of stable addresses (the paper found 7 responsive the
    // whole month).
    let mut pinned = 0;
    for p in participants.iter_mut() {
        if pinned >= 7 {
            break;
        }
        if p.addr6.is_some() && p.inbound_open {
            p.pinned = true;
            pinned += 1;
        }
    }

    // RIPE-Atlas-like anchors in the same ASes: 1398 probes, 45.8 %
    // reachable (their networks still filter inbound).
    let mut atlas = Vec::new();
    for _ in 0..1398 {
        let (site, asn) = pick_eyeball(&mut rng);
        let extra = 64 - site.len();
        let customer = site.subprefix(extra, rng.random_range(0..(1u128 << extra.min(30))));
        let addr = u128_to_addr(customer.bits() | 0x220);
        atlas.push(AtlasProbe {
            addr,
            asn,
            responsive: rng.random_range(0.0..1.0) < 0.458,
        });
    }

    CrowdStudy {
        participants,
        atlas,
    }
}

impl CrowdStudy {
    /// Participants with an IPv6 address, per platform.
    pub fn v6_count(&self, platform: Platform) -> usize {
        self.participants
            .iter()
            .filter(|p| p.platform == platform && p.addr6.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetModel, ModelConfig};

    fn study() -> CrowdStudy {
        let m = InternetModel::build(ModelConfig::tiny(4));
        build_crowd(&m)
    }

    #[test]
    fn platform_counts_match_paper() {
        let s = study();
        let mturk = s
            .participants
            .iter()
            .filter(|p| p.platform == Platform::Mturk)
            .count();
        let proa = s.participants.len() - mturk;
        assert_eq!(mturk, 5707);
        assert_eq!(proa, 1176);
        // IPv6 rates ≈ 31 % / 20.6 %.
        let m6 = s.v6_count(Platform::Mturk) as f64 / mturk as f64;
        let p6 = s.v6_count(Platform::ProA) as f64 / proa as f64;
        assert!((m6 - 0.31).abs() < 0.03, "mturk v6 rate {m6}");
        assert!((p6 - 0.206).abs() < 0.04, "proa v6 rate {p6}");
    }

    #[test]
    fn responsiveness_is_a_small_fraction() {
        let s = study();
        let v6: Vec<&Participant> = s
            .participants
            .iter()
            .filter(|p| p.addr6.is_some())
            .collect();
        // "Responds to at least one of many probes" ≈ inbound_open rate.
        let open = v6.iter().filter(|p| p.inbound_open).count() as f64 / v6.len() as f64;
        assert!((open - 0.19).abs() < 0.05, "open rate {open}");
    }

    #[test]
    fn pinned_participants_always_respond() {
        let s = study();
        let pinned: Vec<&Participant> = s.participants.iter().filter(|p| p.pinned).collect();
        assert_eq!(pinned.len(), 7);
        for p in pinned {
            for day in 0..30 {
                assert!(p.responsive_at(day, 43_200));
            }
        }
    }

    #[test]
    fn closed_clients_never_respond() {
        let s = study();
        let closed = s
            .participants
            .iter()
            .find(|p| p.addr6.is_some() && !p.inbound_open)
            .expect("closed client exists");
        for day in 0..10 {
            for hour in 0..24 {
                assert!(!closed.responsive_at(day, hour * 3600));
            }
        }
    }

    #[test]
    fn atlas_probe_share() {
        let s = study();
        assert_eq!(s.atlas.len(), 1398);
        let up = s.atlas.iter().filter(|a| a.responsive).count() as f64 / 1398.0;
        assert!((up - 0.458).abs() < 0.05, "atlas up {up}");
    }

    #[test]
    fn addresses_live_in_eyeball_space() {
        let m = InternetModel::build(ModelConfig::tiny(4));
        let s = build_crowd(&m);
        for a in s.participants.iter().filter_map(|p| p.addr6).take(200) {
            let asn = m.bgp.origin(a).expect("routed");
            let cat = m.as_category(asn).unwrap();
            assert_eq!(cat, AsCategory::IspEyeball, "{a}");
        }
    }
}
