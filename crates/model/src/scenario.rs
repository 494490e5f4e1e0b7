//! Adversarial periphery scenarios (ROADMAP "Scenario diversity").
//!
//! The base population is friendly infrastructure; the hitlists the
//! paper unbiases are dominated by hostile periphery ("Revisiting and
//! Expanding the IPv6 Periphery"; residential-broadband reconnaissance).
//! This module layers four such behaviours over a built [`Population`]:
//!
//! 1. **Prefix rotation** — delegated /56s whose hosts renumber every K
//!    days (`churn::rotation_epoch`); addresses from earlier epochs
//!    become *rotation ghosts* that never answer again.
//! 2. **RFC 4941 privacy churn** — hosts whose temporary IID regenerates
//!    daily while a stable EUI-64 service address persists.
//! 3. **Throttled last-hop routers** — /64s whose ICMPv6 responses sit
//!    behind a per-router token bucket in the engine's day state.
//! 4. **Periphery alias fabrics** — whole /64s answering on every probed
//!    address, registered as genuine [`crate::alias::AliasTable`] regions so
//!    [`crate::InternetModel::truth_aliased`] stays the single source of
//!    alias ground truth.
//!
//! Everything derives from `splitmix64` keyed hashing of the model seed,
//! so scenario state is deterministic and costs nothing when disabled:
//! an all-zero [`ScenarioConfig`] produces an empty [`ScenarioState`] and
//! a byte-identical model.
//!
//! **Ground-truth export contract** (what `bench-scenarios` scores
//! against): `ScenarioState::feed` is what sources would learn on a
//! day, and `ScenarioState::ghosts` is the subset of previously-fed
//! addresses that can no longer answer. `bench-scenarios` reads them
//! through [`crate::InternetModel::scenario_feed`] and
//! [`crate::InternetModel::scenario_ghosts`].

use crate::alias::AliasRegion;
use crate::churn;
use crate::config::ScenarioConfig;
use crate::fingerprint::{Machine, MachineId};
use crate::host::{HostKind, HostProfile};
use crate::ids::AsCategory;
use crate::population::Population;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{addr_to_u128, keyed_random_addr, u128_to_addr, Prefix};
use expanse_packet::{ProtoSet, Protocol};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// One delegated /56 that renumbers all its hosts every rotation period.
#[derive(Debug, Clone)]
pub struct RotatingPrefix {
    /// The delegated prefix.
    pub prefix: Prefix,
    /// Per-prefix derivation salt.
    pub salt: u64,
    /// Hosts alive inside the prefix during each epoch.
    pub hosts: usize,
    /// Machine personality shared by the CPE hosts.
    pub machine: MachineId,
}

/// One RFC 4941 host: a stable EUI-64 service address that persists plus
/// a temporary privacy address that regenerates daily.
#[derive(Debug, Clone)]
pub struct PrivacyHost {
    /// The host's /64.
    pub prefix: Prefix,
    /// Per-host derivation salt.
    pub salt: u64,
    /// The stable EUI-64 address (registered as a permanent live host).
    pub stable: Ipv6Addr,
    /// Machine personality (shared by the stable and temporary address).
    pub machine: MachineId,
}

/// Entry of the per-day scenario responder table.
pub(crate) type ScenarioResponder = (MachineId, ProtoSet, HostKind);

/// Scenario ground truth and derivation state, built once per model.
#[derive(Debug, Clone, Default)]
pub struct ScenarioState {
    /// Rotating delegated prefixes.
    pub rotating: Vec<RotatingPrefix>,
    /// Privacy-extension hosts.
    pub privacy: Vec<PrivacyHost>,
    /// Periphery alias fabric /64s (also present in the alias table).
    pub fabrics: Vec<Prefix>,
    /// Throttled last-hop router /64s.
    pub throttled: Vec<Prefix>,
    /// Days between rotation epochs (0 = never).
    pub rotation_period: u16,
}

/// Deterministic subprefix pick: `extra` more bits under `site`, index
/// hashed from `(seed, tag, i)` so scenario prefixes spread across the
/// site instead of clustering at low indexes.
fn carve(site: Prefix, target_len: u8, seed: u64, tag: u64, i: u64) -> Prefix {
    let extra = target_len - site.len();
    let span = 1u128 << u32::from(extra).min(63);
    let idx = u128::from(splitmix64(seed ^ tag ^ (i << 8))) % span;
    site.subprefix(extra, idx)
}

/// Build the scenario layer over a finished population. Appends fabric
/// machines and permanent scenario hosts to the population; all other
/// state lives in the returned [`ScenarioState`].
pub(crate) fn build(cfg: &ScenarioConfig, seed: u64, population: &mut Population) -> ScenarioState {
    let mut state = ScenarioState {
        rotation_period: cfg.rotation_period_days,
        ..ScenarioState::default()
    };
    if !cfg.enabled() {
        return state;
    }
    // Periphery behaviours live in eyeball space; sites are in build
    // order, so this pick is deterministic. Only sites short enough to
    // carve a /56 or /64 out of qualify.
    let eyeball: Vec<(Prefix, crate::ids::Asn)> = population
        .sites
        .iter()
        .filter(|s| s.category == AsCategory::IspEyeball && s.site.len() <= 48)
        .map(|s| (s.site, s.asn))
        .collect();
    assert!(
        !eyeball.is_empty(),
        "scenario layer needs an eyeball site of /48 or shorter"
    );
    let new_machine = |pop: &mut Population, salt_tag: u64, i: u64| {
        let id = MachineId(pop.machines.len() as u32);
        pop.machines
            .push(Machine::linux_like(splitmix64(seed ^ salt_tag ^ i)));
        id
    };

    // (1) Rotating delegated /56s.
    for i in 0..cfg.rotating_56s as u64 {
        let (site, _) = eyeball[i as usize % eyeball.len()];
        let machine = new_machine(population, 0x0307_7c9e, i);
        state.rotating.push(RotatingPrefix {
            prefix: carve(site, 56, seed, 0x6070_7a7e, i),
            salt: splitmix64(seed ^ 0x5a17 ^ (i << 8)),
            hosts: cfg.rotation_hosts,
            machine,
        });
    }

    // (2) RFC 4941 privacy hosts: register the stable EUI-64 address as
    // a permanent live host; the daily temporary address goes through
    // the per-day responder table.
    for i in 0..cfg.privacy_hosts as u64 {
        let (site, asn) = eyeball[(i as usize + 1) % eyeball.len()];
        let prefix = carve(site, 64, seed, 0x9e1f_4941, i);
        let salt = splitmix64(seed ^ 0x4941 ^ (i << 8));
        let h = splitmix64(salt ^ 0xe064);
        // EUI-64 layout: 24-bit OUI | ff:fe | 24-bit NIC.
        let iid = ((h >> 40) << 40) | 0x0000_00ff_fe00_0000 | (h & 0x00ff_ffff);
        let stable = u128_to_addr(prefix.bits() | u128::from(iid));
        let machine = new_machine(population, 0x0057_ab1e, i);
        population.hosts.insert(
            stable,
            HostProfile {
                asn,
                kind: HostKind::WebServer,
                protos: ProtoSet::only(Protocol::Icmp)
                    .with(Protocol::Tcp80)
                    .with(Protocol::Tcp443),
                machine,
                spawn_day: 0,
                death_day: u16::MAX,
            },
        );
        state.privacy.push(PrivacyHost {
            prefix,
            salt,
            stable,
            machine,
        });
    }

    // (4) Periphery alias fabrics: whole /64s answering everything.
    let mut fabrics: Vec<(Prefix, AliasRegion)> = Vec::new();
    for i in 0..cfg.fabric_64s as u64 {
        let (site, _) = eyeball[(i as usize + 2) % eyeball.len()];
        let p64 = carve(site, 64, seed, 0xfab2_1c64, i);
        let machine = new_machine(population, 0xfab_12c, i);
        fabrics.push((
            p64,
            AliasRegion {
                machine,
                protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                carve_branch: None,
            },
        ));
        state.fabrics.push(p64);
    }
    population.aliases.extend(fabrics);

    // (3) Throttled last-hop routers: a handful of permanent ICMP-only
    // router addresses per /64; the per-router token bucket is attached
    // by the engine's day state.
    for i in 0..cfg.throttled_routers as u64 {
        let (site, asn) = eyeball[(i as usize + 3) % eyeball.len()];
        let p64 = carve(site, 64, seed, 0x7077_1e00, i);
        let machine = new_machine(population, 0x0070_077e, i);
        for k in 0..4u128 {
            population.hosts.insert(
                p64.addr_at(1 + k),
                HostProfile {
                    asn,
                    kind: HostKind::CpeRouter,
                    protos: ProtoSet::only(Protocol::Icmp),
                    machine,
                    spawn_day: 0,
                    death_day: u16::MAX,
                },
            );
        }
        state.throttled.push(p64);
    }

    state
}

impl ScenarioState {
    /// Is any behaviour active?
    pub fn enabled(&self) -> bool {
        !self.rotating.is_empty()
            || !self.privacy.is_empty()
            || !self.fabrics.is_empty()
            || !self.throttled.is_empty()
    }

    /// The addresses `rp` serves during `epoch`.
    pub(crate) fn rotation_addrs(&self, rp: &RotatingPrefix, epoch: u16) -> Vec<Ipv6Addr> {
        (0..rp.hosts as u64)
            .map(|j| {
                keyed_random_addr(
                    rp.prefix,
                    splitmix64(rp.salt ^ (u64::from(epoch) << 32) ^ j),
                )
            })
            .collect()
    }

    /// The temporary privacy address of `ph` on `day`.
    pub(crate) fn privacy_addr(&self, ph: &PrivacyHost, day: u16) -> Ipv6Addr {
        keyed_random_addr(
            ph.prefix,
            splitmix64(ph.salt ^ (u64::from(day) << 16) ^ 0x4941),
        )
    }

    /// The scenario responder table for `day`: rotation hosts of the
    /// current epoch plus the day's temporary privacy addresses. Rebuilt
    /// by the engine on every `set_day`.
    pub(crate) fn day_hosts(&self, day: u16) -> BTreeMap<u128, ScenarioResponder> {
        let mut out = BTreeMap::new();
        let epoch = churn::rotation_epoch(day, self.rotation_period);
        for rp in &self.rotating {
            for a in self.rotation_addrs(rp, epoch) {
                out.insert(
                    addr_to_u128(a),
                    (
                        rp.machine,
                        ProtoSet::only(Protocol::Icmp),
                        HostKind::CpeRouter,
                    ),
                );
            }
        }
        for ph in &self.privacy {
            out.insert(
                addr_to_u128(self.privacy_addr(ph, day)),
                (
                    ph.machine,
                    ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                    HostKind::WebServer,
                ),
            );
        }
        out
    }

    /// What hitlist sources would learn on `day`: the scenario addresses
    /// answering that day (current rotation epoch, temporary + stable
    /// privacy addresses, throttled router addresses) plus a small
    /// per-day sample out of each alias fabric — fabric space is
    /// infinite, so sources only ever see samples of it.
    pub(crate) fn feed(&self, day: u16) -> Vec<Ipv6Addr> {
        let epoch = churn::rotation_epoch(day, self.rotation_period);
        let mut out: Vec<Ipv6Addr> = Vec::new();
        for rp in &self.rotating {
            out.extend(self.rotation_addrs(rp, epoch));
        }
        for ph in &self.privacy {
            out.push(ph.stable);
            out.push(self.privacy_addr(ph, day));
        }
        for p64 in &self.throttled {
            out.extend((0..4u128).map(|k| p64.addr_at(1 + k)));
        }
        for (i, f) in self.fabrics.iter().enumerate() {
            out.extend((0..4u64).map(|j| {
                keyed_random_addr(
                    *f,
                    splitmix64(i as u64 ^ (u64::from(day) << 24) ^ j ^ 0xfeed),
                )
            }));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Ground truth: previously-feedable scenario addresses that can no
    /// longer answer on `day` — rotation addresses of earlier epochs and
    /// temporary privacy addresses of earlier days.
    pub(crate) fn ghosts(&self, day: u16) -> Vec<Ipv6Addr> {
        let epoch = churn::rotation_epoch(day, self.rotation_period);
        let mut out: Vec<Ipv6Addr> = Vec::new();
        for rp in &self.rotating {
            for e in 0..epoch {
                out.extend(self.rotation_addrs(rp, e));
            }
        }
        for ph in &self.privacy {
            for d in 0..day {
                out.push(self.privacy_addr(ph, d));
            }
        }
        // An address can be re-derived by a later epoch/day; only count
        // it as a ghost if it is not also live today.
        let live = self.day_hosts(day);
        out.retain(|a| !live.contains_key(&addr_to_u128(*a)));
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InternetModel, ModelConfig};

    fn model() -> InternetModel {
        InternetModel::build(ModelConfig::adversarial(77))
    }

    #[test]
    fn disabled_scenario_is_empty() {
        let m = InternetModel::build(ModelConfig::tiny(77));
        assert!(!m.scenario.enabled());
        assert!(m.scenario.feed(0).is_empty());
        assert!(m.scenario.ghosts(5).is_empty());
    }

    #[test]
    fn adversarial_scenario_populates_every_behaviour() {
        let m = model();
        let s = &m.scenario;
        assert_eq!(s.rotating.len(), 3);
        assert_eq!(s.privacy.len(), 24);
        assert_eq!(s.fabrics.len(), 4);
        assert_eq!(s.throttled.len(), 3);
        for rp in &s.rotating {
            assert_eq!(rp.prefix.len(), 56);
        }
        for f in &s.fabrics {
            assert_eq!(f.len(), 64);
            // Fabrics are genuine alias regions: truth_aliased covers
            // arbitrary addresses inside.
            assert!(m.truth_aliased(keyed_random_addr(*f, 99)));
        }
    }

    #[test]
    fn rotation_renumbers_and_ghosts_accumulate() {
        let m = model();
        let s = &m.scenario;
        let rp = &s.rotating[0];
        let e0 = s.rotation_addrs(rp, 0);
        let e1 = s.rotation_addrs(rp, 1);
        assert_eq!(e0.len(), 12);
        assert!(e0.iter().all(|a| rp.prefix.contains(*a)));
        assert!(e0.iter().all(|a| !e1.contains(a)), "epochs must renumber");
        // Ghosts on a day in epoch 1 include all of epoch 0.
        let day = s.rotation_period; // first day of epoch 1
        let ghosts = s.ghosts(day);
        assert!(e0.iter().all(|a| ghosts.contains(a)));
        assert!(e1.iter().all(|a| !ghosts.contains(a)));
    }

    #[test]
    fn privacy_addrs_churn_daily_but_stable_persists() {
        let m = model();
        let s = &m.scenario;
        let ph = &s.privacy[0];
        let a0 = s.privacy_addr(ph, 0);
        let a1 = s.privacy_addr(ph, 1);
        assert_ne!(a0, a1, "temporary IID must regenerate daily");
        assert!(ph.prefix.contains(a0) && ph.prefix.contains(a1));
        // The stable address is EUI-64-shaped (ff:fe at IID bytes 3-4).
        let iid = addr_to_u128(ph.stable) as u64;
        assert_eq!((iid >> 24) & 0xffff, 0xfffe);
        // ... and registered as a permanent live host.
        let h = m.population.hosts.get(ph.stable).unwrap();
        assert_eq!(h.death_day, u16::MAX);
        // Both days' feeds carry the stable address.
        assert!(s.feed(0).contains(&ph.stable));
        assert!(s.feed(9).contains(&ph.stable));
    }

    #[test]
    fn ghosts_never_overlap_the_live_day_table() {
        let m = model();
        let s = &m.scenario;
        for day in [0u16, 3, 7, 11] {
            let live = s.day_hosts(day);
            for g in s.ghosts(day) {
                assert!(!live.contains_key(&addr_to_u128(g)), "day {day}: {g}");
            }
        }
    }

    #[test]
    fn feed_is_deterministic_and_nonempty() {
        let a = model();
        let b = model();
        for day in 0..6u16 {
            let fa = a.scenario.feed(day);
            assert_eq!(fa, b.scenario.feed(day));
            assert!(!fa.is_empty());
        }
    }

    /// Days 0–11 of the adversarial world cross rotation boundaries:
    /// each day's feed, ghosts and day-host table, digested together,
    /// match the digest recorded while epochs still came from replaying
    /// renumber events through an event queue.
    #[test]
    fn rotation_days_match_their_recorded_digest() {
        let m = InternetModel::build(ModelConfig::adversarial(11));
        let s = &m.scenario;
        assert!((1..6).contains(&s.rotation_period), "no boundary crossed");
        let mut bytes: Vec<u8> = Vec::new();
        for day in 0..12u16 {
            for addrs in [s.feed(day), s.ghosts(day)] {
                bytes.extend((addrs.len() as u64).to_le_bytes());
                bytes.extend(addrs.iter().flat_map(|a| a.octets()));
            }
            let hosts = s.day_hosts(day);
            bytes.extend((hosts.len() as u64).to_le_bytes());
            for (a, (machine, protos, kind)) in hosts {
                bytes.extend(a.to_le_bytes());
                bytes.extend(machine.0.to_le_bytes());
                bytes.extend([protos.0, kind as u8]);
            }
        }
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(fnv, 5_149_593_981_876_545_014, "digest {fnv}");
    }
}
