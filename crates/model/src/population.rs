//! Population builder: sites, address pools, live hosts, machines,
//! aliased regions, and the pathological corners of §5.1.

use crate::alias::{AliasRegion, AliasTable};
use crate::config::ModelConfig;
use crate::fingerprint::{Machine, MachineId, OptLayout, Pathology, TsBehavior};
use crate::host::{HostKind, HostProfile, StabilityClass};
use crate::ids::{AsCategory, AsInfo, Asn};
use crate::paths::PathModel;
use crate::scheme::Scheme;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{AddrMap, Prefix};
use expanse_packet::{ProtoSet, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

/// Fraction of announced prefixes that contain an aliased region.
/// Paper: 1.5 % of prefixes are aliased.
pub(crate) const ALIASED_PREFIX_FRACTION: f64 = 0.015;
/// Fraction of the hitlist address volume that the sources draw from
/// inside aliased prefixes. Paper: 46.6 % of addresses fall away when
/// aliased prefixes are filtered.
pub(crate) const ALIASED_ADDR_SHARE: f64 = 0.466;
/// Fraction of prefixes with high-loss paths (candidates for the
/// sliding-window rescue of §5.2).
pub(crate) const LOSSY_PREFIX_FRACTION: f64 = 0.01;
/// Number of SYN-proxy-protected /80 prefixes (§5.1 case).
const SYN_PROXY_80S: u128 = 1;
/// Daily survival probability of server addresses (DL/FDNS/CT/AXFR).
pub(crate) const SERVER_DAILY_SURVIVAL: f64 = 0.9985;
/// Daily survival probability of CPE/scamper router addresses.
pub(crate) const CPE_DAILY_SURVIVAL: f64 = 0.973;
/// Daily survival probability of client addresses (Bitnodes).
pub(crate) const CLIENT_DAILY_SURVIVAL: f64 = 0.984;

/// One allocation site: an announced prefix with an addressing scheme and
/// its sampled address pool (live hosts first, then ghosts).
#[derive(Debug, Clone)]
pub struct SitePool {
    /// The allocation prefix.
    pub site: Prefix,
    /// Origin AS number.
    pub asn: Asn,
    /// Organization category.
    pub category: AsCategory,
    /// Addressing scheme in use.
    pub scheme: Scheme,
    /// Known addresses under this site (live + ghost, shuffled).
    pub addrs: Vec<Ipv6Addr>,
}

/// The hand-built pathological prefixes of §5.1, kept addressable so
/// experiments and tests can point at them.
#[derive(Debug, Clone)]
pub struct SpecialPrefixes {
    /// A /96 of which exactly 9 of the 16 /100 subprefixes are aliased —
    /// the false-positive trap for purely random APD probes (case 3).
    pub partial96: Prefix,
    /// An aliased /116 whose 0x0 branch is carved out (answered by a
    /// different system; silent to probes) — 15-of-16 anomaly.
    pub carve116: Prefix,
    /// Parent /116 of the ICMP-rate-limited region (case 4).
    pub rate_limit_parent: Prefix,
    /// Six neighbouring /120s inside it that flap day-to-day.
    pub rate_limited: Vec<Prefix>,
    /// /80 prefixes behind a SYN proxy (3–5 of 16 TCP probes answered).
    pub syn_proxy: Vec<Prefix>,
    /// The Amazon-like aliased /48s (the "outer hook" of Fig 5b).
    pub cdn_hook_48s: Vec<Prefix>,
}

/// Everything the population builder produces.
#[derive(Debug, Clone)]
pub struct Population {
    /// Sites.
    pub sites: Vec<SitePool>,
    /// Live hosts by address (insertion-ordered, so iteration is
    /// deterministic).
    pub hosts: AddrMap<HostProfile>,
    /// Machine personality table.
    pub machines: Vec<Machine>,
    /// Aliased region table.
    pub aliases: AliasTable,
    /// Addresses sources sample from inside aliased regions.
    pub alias_pool: Vec<Ipv6Addr>,
    /// The §5.1 pathological prefixes.
    pub special: SpecialPrefixes,
    /// High-loss prefixes (the §5.2 sliding-window motivation).
    pub lossy: Vec<Prefix>,
}

impl Population {
    /// Total pool size (non-aliased known addresses).
    pub(crate) fn pool_size(&self) -> usize {
        self.sites.iter().map(|s| s.addrs.len()).sum()
    }
}

/// Scheme mix per AS category: `(scheme, weight)`.
fn scheme_mix(cat: AsCategory) -> &'static [(Scheme, f64)] {
    match cat {
        AsCategory::Cdn => &[(Scheme::StructuredCounter, 0.5), (Scheme::RandomIid, 0.5)],
        AsCategory::Hoster => &[
            (Scheme::TinyCounter, 0.55),
            (Scheme::StructuredCounter, 0.30),
            (Scheme::RandomIid, 0.15),
        ],
        AsCategory::IspEyeball => &[
            (Scheme::Eui64Cpe, 0.55),
            (Scheme::RandomIid, 0.30),
            (Scheme::Eui64Mixed, 0.15),
        ],
        AsCategory::Transit => &[(Scheme::TinyCounter, 0.7), (Scheme::ServiceWords, 0.3)],
        AsCategory::Academic => &[
            (Scheme::StructuredCounter, 0.45),
            (Scheme::ServiceWords, 0.25),
            (Scheme::Eui64Mixed, 0.30),
        ],
        AsCategory::Enterprise => &[
            (Scheme::ServiceWords, 0.4),
            (Scheme::TinyCounter, 0.35),
            (Scheme::Eui64Mixed, 0.25),
        ],
    }
}

fn pick_weighted<T: Copy>(rng: &mut StdRng, items: &[(T, f64)]) -> T {
    let total: f64 = items.iter().map(|(_, w)| w).sum();
    let mut x = rng.random_range(0.0..total);
    for (item, w) in items {
        if x < *w {
            return *item;
        }
        x -= w;
    }
    items.last().expect("non-empty weights").0
}

/// Host-kind mix per category for live hosts: `(kind, weight)`.
fn kind_mix(cat: AsCategory) -> &'static [(HostKind, f64)] {
    match cat {
        AsCategory::Cdn => &[(HostKind::WebServer, 0.9), (HostKind::DnsServer, 0.1)],
        AsCategory::Hoster => &[
            (HostKind::WebServer, 0.6),
            (HostKind::MixedServer, 0.2),
            (HostKind::DnsServer, 0.2),
        ],
        AsCategory::IspEyeball => &[
            (HostKind::CpeRouter, 0.75),
            (HostKind::Client, 0.20),
            (HostKind::DnsServer, 0.05),
        ],
        AsCategory::Transit => &[(HostKind::CoreRouter, 0.9), (HostKind::DnsServer, 0.1)],
        AsCategory::Academic => &[
            (HostKind::WebServer, 0.4),
            (HostKind::MixedServer, 0.3),
            (HostKind::CoreRouter, 0.2),
            (HostKind::DnsServer, 0.1),
        ],
        AsCategory::Enterprise => &[
            (HostKind::WebServer, 0.5),
            (HostKind::MixedServer, 0.3),
            (HostKind::DnsServer, 0.2),
        ],
    }
}

/// Live-host budget share per category (fractions of `n_live_hosts`).
fn live_share(cat: AsCategory) -> f64 {
    match cat {
        AsCategory::Cdn => 0.06,
        AsCategory::Hoster => 0.30,
        AsCategory::IspEyeball => 0.38,
        AsCategory::Transit => 0.08,
        AsCategory::Academic => 0.08,
        AsCategory::Enterprise => 0.10,
    }
}

/// Builder context.
pub(crate) struct Builder<'a> {
    cfg: &'a ModelConfig,
    rng: StdRng,
    machines: Vec<Machine>,
}

impl<'a> Builder<'a> {
    /// Create a new instance.
    pub(crate) fn new(cfg: &'a ModelConfig) -> Self {
        Builder {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15),
            machines: Vec::new(),
        }
    }

    fn new_machine(&mut self, m: Machine) -> MachineId {
        let id = MachineId(self.machines.len() as u32);
        self.machines.push(m);
        id
    }

    /// A fresh single-host machine personality for `kind`.
    fn host_machine(&mut self, kind: HostKind) -> MachineId {
        let salt = self.rng.random::<u64>();
        let r = self.rng.random_range(0..100u32);
        let ittl = match kind {
            HostKind::CoreRouter | HostKind::CpeRouter => {
                if r < 70 {
                    255
                } else {
                    64
                }
            }
            _ => match r {
                0..=74 => 64,
                75..=89 => 128,
                _ => 255,
            },
        };
        let mss = [1440u16, 1460, 1452, 1400, 8960][self.rng.random_range(0..5usize)];
        let wscale = [7u8, 8, 9, 2, 14][self.rng.random_range(0..5usize)];
        let wsize = [64240u16, 65535, 29200, 14600, 5840][self.rng.random_range(0..5usize)];
        let layout = match self.rng.random_range(0..1000u32) {
            0..=994 => OptLayout::Standard, // paper: 99.5 % choose this set
            995..=997 => OptLayout::NoTimestamps,
            _ => OptLayout::NoSack,
        };
        let ts = match self.rng.random_range(0..100u32) {
            // Post-4.10 Linux majority.
            0..=59 => TsBehavior::PerTupleRandom { rate_hz: 1000 },
            60..=89 => TsBehavior::GlobalMonotonic {
                rate_hz: [100u32, 250, 1000][self.rng.random_range(0..3usize)],
                offset: self.rng.random::<u32>(),
            },
            _ => TsBehavior::None,
        };
        self.new_machine(Machine {
            ittl,
            mss,
            wscale,
            wsize,
            layout,
            ts,
            pathology: Pathology::None,
            salt,
        })
    }

    /// A CDN-style aliased-region machine; pathology per config rate with
    /// Table 5's observed mix.
    fn alias_machine(&mut self) -> MachineId {
        let salt = self.rng.random::<u64>();
        let pathology = if self.rng.random_range(0.0..1.0) < self.cfg.alias_pathology_rate {
            // Table 5 ratio of inconsistents: WSize 1068, MSS 1030,
            // WScale 105, Optionstext 104, iTTL 6.
            pick_weighted(
                &mut self.rng,
                &[
                    (Pathology::FlakyWsize, 1068.0),
                    (Pathology::FlakyMss, 1030.0),
                    (Pathology::FlakyWscale, 105.0),
                    (Pathology::FlakyOptions, 104.0),
                    (Pathology::FlakyIttl, 6.0),
                ],
            )
        } else {
            Pathology::None
        };
        let ts = if self.rng.random_range(0..100u32) < 70 {
            // Most aliased machines expose a global counter — that is
            // what makes the paper's timestamp test land at 63.8 %.
            TsBehavior::GlobalMonotonic {
                rate_hz: [100u32, 250, 1000][self.rng.random_range(0..3usize)],
                offset: self.rng.random::<u32>(),
            }
        } else {
            TsBehavior::PerTupleRandom { rate_hz: 1000 }
        };
        self.new_machine(Machine {
            ittl: 255,
            mss: 1440,
            wscale: 9,
            wsize: 65535,
            layout: OptLayout::Standard,
            ts,
            pathology,
            salt,
        })
    }

    fn death_day(&mut self, stability: StabilityClass) -> u16 {
        let survival = match stability {
            StabilityClass::Permanent => return u16::MAX,
            StabilityClass::Server => SERVER_DAILY_SURVIVAL,
            StabilityClass::Cpe => CPE_DAILY_SURVIVAL,
            StabilityClass::Client => CLIENT_DAILY_SURVIVAL,
        };
        // Geometric: death on the first day the survival coin fails.
        let u: f64 = self.rng.random_range(0.0f64..1.0).max(1e-12);
        let d = (u.ln() / survival.ln()).ceil();
        if d >= f64::from(u16::MAX) {
            u16::MAX
        } else {
            (d as u16).max(1)
        }
    }

    fn stability_for(kind: HostKind) -> StabilityClass {
        match kind {
            HostKind::WebServer | HostKind::DnsServer | HostKind::MixedServer => {
                StabilityClass::Server
            }
            HostKind::CoreRouter => StabilityClass::Permanent,
            HostKind::CpeRouter => StabilityClass::Cpe,
            HostKind::Client => StabilityClass::Client,
        }
    }

    /// Protocol stack for a live host, with firewall-policy noise shaped
    /// to reproduce Fig 7's conditional structure.
    fn protos_for(&mut self, kind: HostKind) -> ProtoSet {
        let mut r = |p: f64| self.rng.random_range(0.0..1.0) < p;
        match kind {
            HostKind::WebServer => {
                let mut s = ProtoSet::only(Protocol::Tcp80);
                if r(0.99) {
                    s = s.with(Protocol::Icmp);
                }
                let https = r(0.91);
                if https {
                    s = s.with(Protocol::Tcp443);
                    if r(0.30) {
                        s = s.with(Protocol::Udp443); // QUIC implies HTTPS
                    }
                }
                s
            }
            HostKind::DnsServer => {
                let mut s = ProtoSet::only(Protocol::Udp53);
                if r(0.89) {
                    s = s.with(Protocol::Icmp);
                }
                // DNS servers co-hosting web services (Fig 7: P[TCP/80 |
                // UDP/53] ≈ 0.61).
                if r(0.61) {
                    s = s.with(Protocol::Tcp80);
                    if r(0.85) {
                        s = s.with(Protocol::Tcp443);
                    }
                }
                s
            }
            HostKind::MixedServer => {
                let mut s = ProtoSet::only(Protocol::Icmp)
                    .with(Protocol::Tcp80)
                    .with(Protocol::Tcp443);
                if r(0.5) {
                    s = s.with(Protocol::Udp53);
                }
                if r(0.12) {
                    s = s.with(Protocol::Udp443);
                }
                s
            }
            HostKind::CoreRouter => {
                let mut s = ProtoSet::only(Protocol::Icmp);
                if r(0.05) {
                    s = s.with(Protocol::Tcp80); // admin UIs
                }
                s
            }
            HostKind::CpeRouter => ProtoSet::only(Protocol::Icmp),
            HostKind::Client => {
                if r(0.55) {
                    ProtoSet::only(Protocol::Icmp)
                } else {
                    ProtoSet::EMPTY // inbound-filtered
                }
            }
        }
    }

    /// Build the full population.
    pub(crate) fn build(
        mut self,
        ases: &[AsInfo],
        announcements: &[(Prefix, Asn)],
        paths: &PathModel,
    ) -> Population {
        let by_asn: BTreeMap<Asn, &AsInfo> = ases.iter().map(|a| (a.asn, a)).collect();
        let mut sites: Vec<SitePool> = Vec::new();
        let mut hosts: AddrMap<HostProfile> = AddrMap::new();
        let mut aliases: Vec<(Prefix, AliasRegion)> = Vec::new();
        let mut alias_pool: Vec<Ipv6Addr> = Vec::new();
        let mut lossy: Vec<Prefix> = Vec::new();

        // ---- budget live hosts per category --------------------------------
        let mut cat_sites: BTreeMap<AsCategory, Vec<(Prefix, Asn)>> = BTreeMap::new();
        for (p, asn) in announcements {
            let cat = by_asn[asn].category;
            cat_sites.entry(cat).or_default().push((*p, *asn));
        }

        // One addressing scheme per AS: operators deploy the same plan
        // across their prefixes (§4, Fig 3b: "operators using the same
        // addressing scheme ... in their prefixes"). This is also what
        // keeps /32-level entropy fingerprints crisp.
        let mut scheme_of_as: BTreeMap<Asn, Scheme> = BTreeMap::new();
        for cat in AsCategory::ALL {
            let Some(list) = cat_sites.get(&cat) else {
                continue;
            };
            for (_, asn) in list {
                if !scheme_of_as.contains_key(asn) {
                    let s = pick_weighted(&mut self.rng, scheme_mix(cat));
                    scheme_of_as.insert(*asn, s);
                }
            }
        }
        for cat in AsCategory::ALL {
            let Some(list) = cat_sites.get(&cat) else {
                continue;
            };
            let budget = (self.cfg.n_live_hosts as f64 * live_share(cat)).round() as usize;
            if budget == 0 || list.is_empty() {
                continue;
            }
            // Zipf-ish weights over sites so concentration curves have a
            // realistic top-heavy shape per source (Fig 1b).
            let weights: Vec<f64> = (0..list.len())
                .map(|i| 1.0 / (1.0 + i as f64).powf(0.85))
                .collect();
            let wtotal: f64 = weights.iter().sum();
            for (i, (site, asn)) in list.iter().enumerate() {
                let scheme = scheme_of_as[asn];
                let n_live = ((budget as f64) * weights[i] / wtotal).round().max(0.0) as usize;
                let n_ghost = ((n_live as f64) * self.cfg.ghost_ratio) as usize;
                let want = n_live + n_ghost;
                if want == 0 {
                    continue;
                }
                let addrs = scheme.generate(*site, want, self.cfg.seed ^ 0x517e);
                for (j, &addr) in addrs.iter().enumerate() {
                    if j >= n_live {
                        break;
                    }
                    let kind = pick_weighted(&mut self.rng, kind_mix(cat));
                    let stability = Builder::stability_for(kind);
                    let machine = self.host_machine(kind);
                    let protos = self.protos_for(kind);
                    hosts.insert(
                        addr,
                        HostProfile {
                            asn: *asn,
                            kind,
                            protos,
                            machine,
                            spawn_day: 0,
                            death_day: self.death_day(stability),
                        },
                    );
                }
                sites.push(SitePool {
                    site: *site,
                    asn: *asn,
                    category: cat,
                    scheme,
                    addrs,
                });
            }
        }

        // ---- CPE identities from the path model ----------------------------
        // For eyeball sites: register the CPE router of each customer /64
        // that appears in the pool, so scamper-discovered hops and direct
        // probes agree.
        let mut cpe_addrs: Vec<(Ipv6Addr, Asn)> = Vec::new();
        for sp in &sites {
            if sp.category != AsCategory::IspEyeball {
                continue;
            }
            let mut seen64 = BTreeSet::new();
            for a in &sp.addrs {
                let c64 = Prefix::new(*a, 64);
                if seen64.insert(c64.bits()) {
                    cpe_addrs.push((paths.cpe_addr(c64), sp.asn));
                }
            }
        }
        for (addr, asn) in &cpe_addrs {
            if hosts.contains(*addr) {
                continue;
            }
            // Only a fraction of CPEs answer direct probes (inbound
            // filtering, RFC 7084 "outbound only"); the rest exist solely
            // as traceroute hops.
            let responds = self.rng.random_range(0.0..1.0) < 0.5;
            let machine = self.host_machine(HostKind::CpeRouter);
            hosts.insert(
                *addr,
                HostProfile {
                    asn: *asn,
                    kind: HostKind::CpeRouter,
                    protos: if responds {
                        ProtoSet::only(Protocol::Icmp)
                    } else {
                        ProtoSet::EMPTY
                    },
                    machine,
                    spawn_day: 0,
                    death_day: self.death_day(StabilityClass::Cpe),
                },
            );
        }

        // ---- load-balancer and rack /64s (Table 6 validation material) -----
        self.build_server_farms(&mut sites, &mut hosts);

        // ---- aliased regions ------------------------------------------------
        let special = self.build_aliases(
            ases,
            announcements,
            &mut aliases,
            &mut alias_pool,
            &mut lossy,
        );

        // ---- lossy ordinary prefixes ---------------------------------------
        for (p, _) in announcements {
            if self.rng.random_range(0.0..1.0) < LOSSY_PREFIX_FRACTION {
                lossy.push(*p);
            }
        }

        Population {
            sites,
            hosts,
            machines: self.machines,
            aliases: AliasTable::new(aliases),
            alias_pool,
            special,
            lossy,
        }
    }

    /// Hoster /64s that hold many live addresses: "racks" (distinct
    /// machines → inconsistent fingerprints) and "LBs" (one machine with
    /// many bound addresses → consistent fingerprints but NOT aliased).
    /// These produce Table 6's non-aliased validation mix.
    fn build_server_farms(&mut self, sites: &mut Vec<SitePool>, hosts: &mut AddrMap<HostProfile>) {
        let hoster_sites: Vec<(Prefix, Asn)> = sites
            .iter()
            .filter(|s| s.category == AsCategory::Hoster && s.site.len() <= 48)
            .map(|s| (s.site, s.asn))
            .collect();
        if hoster_sites.is_empty() {
            return;
        }
        let n_farms = (hoster_sites.len() / 3).clamp(4, 200);
        for i in 0..n_farms {
            let (site, asn) = hoster_sites[self.rng.random_range(0..hoster_sites.len())];
            // Pick a /64 inside the site.
            let extra = 64 - site.len();
            let sub = self.rng.random_range(0..(1u128 << extra.min(32)));
            let farm64 = site.subprefix(extra, sub);
            let is_lb = i % 3 == 0; // 1/3 LBs, 2/3 racks
            let n_addrs = self.rng.random_range(18..40usize);
            let lb_machine = if is_lb {
                // One machine, global monotonic counter: passes the
                // paper's high-confidence timestamp test.
                let salt = self.rng.random::<u64>();
                let offset = self.rng.random::<u32>();
                Some(self.new_machine(Machine {
                    ts: TsBehavior::GlobalMonotonic {
                        rate_hz: 1000,
                        offset,
                    },
                    ..Machine::linux_like(salt)
                }))
            } else {
                None
            };
            let mut addrs = Vec::with_capacity(n_addrs);
            for k in 0..n_addrs {
                let addr = farm64.addr_at(1 + k as u128); // counter IIDs
                addrs.push(addr);
                let machine = match lb_machine {
                    Some(m) => m,
                    None => self.host_machine(HostKind::WebServer),
                };
                let protos = ProtoSet::only(Protocol::Icmp)
                    .with(Protocol::Tcp80)
                    .with(Protocol::Tcp443);
                hosts.insert(
                    addr,
                    HostProfile {
                        asn,
                        kind: HostKind::WebServer,
                        protos,
                        machine,
                        spawn_day: 0,
                        death_day: self.death_day(StabilityClass::Server),
                    },
                );
            }
            sites.push(SitePool {
                site: farm64,
                asn,
                category: AsCategory::Hoster,
                scheme: Scheme::TinyCounter,
                addrs,
            });
        }
    }

    fn build_aliases(
        &mut self,
        ases: &[AsInfo],
        announcements: &[(Prefix, Asn)],
        aliases: &mut Vec<(Prefix, AliasRegion)>,
        alias_pool: &mut Vec<Ipv6Addr>,
        lossy: &mut Vec<Prefix>,
    ) -> SpecialPrefixes {
        let cdns: Vec<&AsInfo> = ases
            .iter()
            .filter(|a| a.category == AsCategory::Cdn)
            .collect();
        let cdn_aggregates: Vec<Prefix> = announcements
            .iter()
            .filter(|(p, asn)| p.len() == 32 && cdns.first().is_some_and(|c| c.asn == *asn))
            .map(|(p, _)| *p)
            .collect();
        assert!(
            !cdn_aggregates.is_empty(),
            "model needs at least one CDN /32 for the aliased hook"
        );

        // --- the Amazon-like hook: consecutive aliased /48s -----------------
        let mut cdn_hook_48s = Vec::new();
        let per_agg = self.cfg.cdn_aliased_48s / cdn_aggregates.len().max(1) + 1;
        'outer: for agg in &cdn_aggregates {
            for i in 0..per_agg {
                if cdn_hook_48s.len() >= self.cfg.cdn_aliased_48s {
                    break 'outer;
                }
                let p48 = agg.subprefix(16, i as u128);
                let machine = self.alias_machine();
                aliases.push((
                    p48,
                    AliasRegion {
                        machine,
                        protos: ProtoSet::only(Protocol::Icmp)
                            .with(Protocol::Tcp80)
                            .with(Protocol::Tcp443),
                        carve_branch: None,
                    },
                ));
                cdn_hook_48s.push(p48);
            }
        }

        // --- the Incapsula-like inner hook (second CDN AS) ------------------
        if let Some(second) = cdns.get(1) {
            let aggs: Vec<Prefix> = announcements
                .iter()
                .filter(|(p, asn)| p.len() == 32 && *asn == second.asn)
                .map(|(p, _)| *p)
                .collect();
            let n = if aggs.is_empty() {
                0
            } else {
                self.cfg.cdn_aliased_48s / 3
            };
            for (i, agg) in aggs.iter().cycle().take(n).enumerate() {
                let p48 = agg.subprefix(16, (0x100 + i) as u128);
                let machine = self.alias_machine();
                aliases.push((
                    p48,
                    AliasRegion {
                        machine,
                        protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                        carve_branch: None,
                    },
                ));
            }
        }

        // --- scattered aliased prefixes of various lengths -------------------
        let n_scattered = ((announcements.len() as f64 * ALIASED_PREFIX_FRACTION) as usize).max(8);
        let candidates: Vec<(Prefix, Asn)> = announcements
            .iter()
            .filter(|(p, _)| p.len() <= 48)
            .copied()
            .collect();
        for _ in 0..n_scattered {
            let (base, _) = candidates[self.rng.random_range(0..candidates.len())];
            let target_len = *[48u8, 56, 64, 80, 96, 112]
                .iter()
                .filter(|&&l| l > base.len())
                .nth(self.rng.random_range(0..4usize).min(3))
                .unwrap_or(&64);
            let extra = target_len - base.len();
            let idx = self.rng.random_range(0..(1u128 << extra.min(40)));
            let p = base.subprefix(extra, idx);
            let machine = self.alias_machine();
            aliases.push((
                p,
                AliasRegion {
                    machine,
                    protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                    carve_branch: None,
                },
            ));
            // A quarter of the scattered regions sit behind lossy paths —
            // the sliding-window material of Table 4.
            if self.rng.random_range(0.0..1.0) < 0.25 {
                lossy.push(p);
            }
        }

        // --- §5.1 specials ----------------------------------------------------
        let host_agg = announcements
            .iter()
            .find(|(p, asn)| {
                p.len() == 32
                    && ases
                        .iter()
                        .any(|a| a.asn == *asn && a.category == AsCategory::Hoster)
            })
            .map(|(p, _)| *p)
            .expect("model needs a hoster /32 for special prefixes");

        // (3) /96 with 9 of 16 /100s aliased.
        let partial96 = host_agg.subprefix(64, 0xbad0_0000_0000_0001);
        let m = self.alias_machine();
        for branch in [0u128, 1, 2, 4, 6, 9, 10, 12, 15] {
            aliases.push((
                partial96.subprefix(4, branch),
                AliasRegion {
                    machine: m,
                    protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                    carve_branch: None,
                },
            ));
        }

        // /116 with a carved 0x0 branch (answered elsewhere; silent here).
        let carve116 = host_agg.subprefix(84, 0xcafe_0000_0000_0000_0002);
        let m = self.alias_machine();
        aliases.push((
            carve116,
            AliasRegion {
                machine: m,
                protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
                carve_branch: Some(0),
            },
        ));

        // ICMP-rate-limited /116 containing six flapping /120s.
        let rate_limit_parent = host_agg.subprefix(84, 0x11c0_0000_0000_0000_0003);
        let m = self.alias_machine();
        aliases.push((
            rate_limit_parent,
            AliasRegion {
                machine: m,
                // ICMP-only: TCP cannot rescue these, only the sliding
                // window does (§5.2).
                protos: ProtoSet::only(Protocol::Icmp),
                carve_branch: None,
            },
        ));
        let rate_limited: Vec<Prefix> = (0..self.cfg.rate_limited_120s as u128)
            .map(|i| rate_limit_parent.subprefix(4, i))
            .collect();

        // SYN-proxied /80s.
        let syn_proxy: Vec<Prefix> = (0..SYN_PROXY_80S)
            .map(|i| host_agg.subprefix(48, 0x5151_0000_0000 + i))
            .collect();

        // --- alias pool: the addresses sources will sample -------------------
        // Volume: ALIASED_ADDR_SHARE of the final hitlist. Computed from
        // the expected non-aliased pool size.
        let non_aliased: usize =
            self.cfg.n_live_hosts + (self.cfg.n_live_hosts as f64 * self.cfg.ghost_ratio) as usize;
        let want =
            ((non_aliased as f64) * ALIASED_ADDR_SHARE / (1.0 - ALIASED_ADDR_SHARE)) as usize;
        // Concentrate on the dominant CDN's hook (Table 2's 89.7%-style
        // top-AS skew): ~84% outer hook, ~13% inner hook, 3% scattered.
        let outer: Vec<Prefix> = cdn_hook_48s.clone();
        // The other aliased /48s in prefix order, each once: the order
        // the pool below cycles through.
        let mut inner: Vec<Prefix> = aliases
            .iter()
            .map(|&(p, _)| p)
            .filter(|p| p.len() == 48 && !outer.contains(p))
            .collect();
        inner.sort_unstable();
        inner.dedup();
        for i in 0..want {
            let roll = splitmix64(i as u64 ^ self.cfg.seed ^ 0x9001) % 100;
            let pool: &[Prefix] = if roll < 84 || inner.is_empty() {
                &outer
            } else {
                &inner
            };
            let p = pool[i % pool.len()];
            // CDN-mapped addresses: structured-random inside the /48.
            let addr = expanse_addr::keyed_random_addr(
                p.subprefix(16, (splitmix64(i as u64 ^ self.cfg.seed) % 64) as u128),
                self.cfg.seed ^ i as u64,
            );
            alias_pool.push(addr);
        }

        SpecialPrefixes {
            partial96,
            carve116,
            rate_limit_parent,
            rate_limited,
            syn_proxy,
            cdn_hook_48s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgp;

    fn build_tiny() -> Population {
        let cfg = ModelConfig::tiny(7);
        let ases = crate::build_ases(&cfg);
        let ann = bgp::allocate(&ases, cfg.mean_prefixes_per_as, cfg.seed);
        let paths = PathModel::new(cfg.seed);
        Builder::new(&cfg).build(&ases, &ann, &paths)
    }

    #[test]
    fn population_builds_with_live_hosts() {
        let pop = build_tiny();
        assert!(pop.hosts.len() > 1000, "live={}", pop.hosts.len());
        assert!(pop.pool_size() > pop.hosts.len());
        assert!(pop.aliases.iter().next().is_some());
        assert!(!pop.alias_pool.is_empty());
    }

    #[test]
    fn aliased_share_close_to_config() {
        let pop = build_tiny();
        let aliased = pop.alias_pool.len() as f64;
        let total = aliased + pop.pool_size() as f64;
        let share = aliased / total;
        assert!(
            (share - 0.466).abs() < 0.12,
            "aliased share {share} (want ≈ 0.466)"
        );
    }

    #[test]
    fn alias_pool_addresses_resolve_to_regions() {
        let pop = build_tiny();
        for a in pop.alias_pool.iter().take(500) {
            assert!(pop.aliases.resolve(*a).is_some(), "{a} not in any region");
        }
    }

    #[test]
    fn live_hosts_are_in_site_pools_or_farm_or_cpe() {
        let pop = build_tiny();
        // Every site pool's first addresses must be live hosts... at least
        // a large fraction of hosts must come from pools.
        let pool_set: std::collections::BTreeSet<Ipv6Addr> = pop
            .sites
            .iter()
            .flat_map(|s| s.addrs.iter().copied())
            .collect();
        let in_pool = pop.hosts.keys().filter(|k| pool_set.contains(k)).count();
        // CPE hosts derive from the path model instead of site pools, so
        // pools cover a large minority (not a majority) of host entries.
        assert!(
            in_pool * 3 > pop.hosts.len(),
            "≥1/3 of hosts should be pool addresses: {in_pool}/{}",
            pop.hosts.len()
        );
    }

    #[test]
    fn specials_are_registered() {
        let pop = build_tiny();
        let s = &pop.special;
        assert_eq!(s.partial96.len(), 96);
        assert_eq!(s.carve116.len(), 116);
        assert_eq!(s.rate_limited.len(), 2); // tiny config
        assert!(!s.cdn_hook_48s.is_empty());
        // partial96: exactly 9 aliased /100 children.
        let aliased_children = (0..16u128)
            .filter(|b| {
                let child = s.partial96.subprefix(4, *b);
                pop.aliases.iter().any(|(p, _)| p == child)
            })
            .count();
        assert_eq!(aliased_children, 9);
        // The /96 itself is not a region.
        assert!(!pop.aliases.iter().any(|(p, _)| p == s.partial96));
        // carve116 branch 0 silent, branch 5 resolves.
        let carved = s.carve116.subprefix(4, 0);
        assert!(pop
            .aliases
            .resolve(expanse_addr::keyed_random_addr(carved, 1))
            .is_none());
        let served = s.carve116.subprefix(4, 5);
        assert!(pop
            .aliases
            .resolve(expanse_addr::keyed_random_addr(served, 1))
            .is_some());
    }

    #[test]
    fn deterministic_build() {
        let a = build_tiny();
        let b = build_tiny();
        assert_eq!(a.hosts.len(), b.hosts.len());
        assert_eq!(a.pool_size(), b.pool_size());
        assert_eq!(a.aliases.iter().count(), b.aliases.iter().count());
        assert_eq!(a.alias_pool, b.alias_pool);
    }

    #[test]
    fn machines_referenced_exist() {
        let pop = build_tiny();
        for h in pop.hosts.values() {
            assert!((h.machine.0 as usize) < pop.machines.len());
        }
        for (_, r) in pop.aliases.iter() {
            assert!((r.machine.0 as usize) < pop.machines.len());
        }
    }
}
