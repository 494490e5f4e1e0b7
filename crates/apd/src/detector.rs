//! The multi-level aliased-prefix detector (§5.1–5.2).
//!
//! Per prefix and day: 16 fan-out targets (one pseudo-random address per
//! 4-bit subprefix), each probed on ICMPv6 **and** TCP/80; a branch
//! counts as responsive if either protocol answered (cross-protocol
//! merging, §5.2). A prefix is aliased when all 16 branches responded
//! within the sliding window.

use crate::window::WindowState;
use expanse_addr::{fanout16, Prefix};
use expanse_netsim::SnapshotNetwork;
use expanse_zmap6::module::{IcmpEchoModule, TcpSynModule};
use expanse_zmap6::{ProbeReply, Scanner};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// Detector configuration.
#[derive(Debug, Clone)]
pub struct ApdConfig {
    /// Salt for fan-out target generation (fixed ⇒ same targets daily).
    pub salt: u64,
    /// Sliding window length in days (paper: 3).
    pub window: usize,
}

impl Default for ApdConfig {
    fn default() -> Self {
        ApdConfig {
            salt: 0xa11a5,
            window: 3,
        }
    }
}

/// One day's observation for one prefix.
#[derive(Debug, Clone, Default)]
pub struct DayObservation {
    /// Branch bitmap: bit b = branch b answered ICMPv6.
    pub icmp: u16,
    /// Branch bitmap for TCP/80 SYN-ACKs.
    pub tcp: u16,
    /// TCP replies per branch (for fingerprinting): 16 slots once any
    /// branch answered TCP, empty while the whole prefix is silent.
    pub tcp_replies: Vec<Option<ProbeReply>>,
    /// ICMP replies per branch (TTL evidence): 16 slots once any branch
    /// answered ICMPv6, empty before.
    pub icmp_replies: Vec<Option<ProbeReply>>,
}

impl DayObservation {
    /// Cross-protocol merged bitmap (§5.2).
    pub fn merged(&self) -> u16 {
        self.icmp | self.tcp
    }

    /// Did all 16 branches answer (single-day view)?
    pub fn full(&self) -> bool {
        self.merged() == 0xffff
    }
}

/// Record `reply` for `branch`: most fan-out targets are silent, so the
/// 16 reply slots exist only for prefixes that got an answer.
fn record_reply(
    bitmap: &mut u16,
    replies: &mut Vec<Option<ProbeReply>>,
    branch: u8,
    reply: ProbeReply,
) {
    *bitmap |= 1 << branch;
    replies.resize(16, None);
    replies[usize::from(branch)] = Some(reply);
}

/// One day's report across all probed prefixes.
#[derive(Debug, Clone, Default)]
pub struct DayReport {
    /// Per-prefix branch observations for the day: one entry per
    /// distinct probed prefix, sorted by prefix.
    pub observations: Vec<(Prefix, DayObservation)>,
    /// Probes sent.
    pub probes_sent: u64,
    /// Unique target addresses probed (each gets 2 probes).
    pub targets: u64,
}

impl DayReport {
    /// The day's observation for `prefix`, if it was probed.
    pub fn get(&self, prefix: &Prefix) -> Option<&DayObservation> {
        let i = self
            .observations
            .binary_search_by_key(prefix, |(p, _)| *p)
            .ok()?;
        Some(&self.observations[i].1)
    }
}

/// The stateful detector.
#[derive(Debug, Default)]
pub struct Apd {
    /// Detector configuration.
    pub cfg: ApdConfig,
    /// Sliding-window state per prefix, in prefix order.
    pub windows: BTreeMap<Prefix, WindowState>,
    /// Prefixes whose window state changed since the last journal sync
    /// point (see [`Apd::mark_synced`] in [`crate::persist`]), each with
    /// the number of days pushed into its window since then — what the
    /// next delta frame replays. Sorted, so frames are written in
    /// deterministic order; never larger than `windows`, so a run that
    /// never syncs does not grow it without bound.
    pub(crate) dirty: BTreeMap<Prefix, u32>,
}

impl Apd {
    /// Create a new instance.
    pub fn new(cfg: ApdConfig) -> Self {
        Apd {
            cfg,
            windows: BTreeMap::new(),
            dirty: BTreeMap::new(),
        }
    }

    /// Probe all `prefixes` once (one "day"), update window state, and
    /// return the raw observations. Probing batches the fan-out targets
    /// of every prefix into two scans (one per protocol), zmap-style.
    pub fn run_day<N: SnapshotNetwork + Sync>(
        &mut self,
        scanner: &mut Scanner<N>,
        prefixes: &[Prefix],
    ) -> DayReport {
        // One observation per distinct prefix, in prefix order (the
        // pipeline's plan already arrives that way).
        let mut order: Vec<Prefix> = prefixes.to_vec();
        order.sort();
        order.dedup();

        // The combined target list with back-references `(target, plan
        // index, branch)`. Collisions across overlapping prefixes are
        // possible (e.g. /64 and /68 plans): sorted by target then plan
        // index, keeping the first of each target means the first plan
        // wins and the branch simply gets probed once.
        let mut fan: Vec<(Ipv6Addr, usize, u8)> = Vec::with_capacity(prefixes.len() * 16);
        for (pi, p) in prefixes.iter().enumerate() {
            fan.extend(
                fanout16(*p, self.cfg.salt)
                    .into_iter()
                    .map(|t| (t.addr, pi, t.branch)),
            );
        }
        fan.sort_unstable();
        fan.dedup_by_key(|f| f.0);
        // Split the address column off for the scans; `back[i]` keeps
        // the `(plan index, branch)` of `targets[i]`, so no second copy
        // of the addresses rides through the probing.
        let (targets, back): (Vec<Ipv6Addr>, Vec<(usize, u8)>) =
            fan.into_iter().map(|(a, pi, b)| (a, (pi, b))).unzip();

        // One layout, walked once, for both passes.
        let [icmp_scan, tcp_scan] =
            scanner.scan_each(&targets, [&IcmpEchoModule, &TcpSynModule::with_synopt(80)]);

        let mut report = DayReport {
            observations: order
                .iter()
                .map(|p| (*p, DayObservation::default()))
                .collect(),
            probes_sent: icmp_scan.sent + tcp_scan.sent,
            targets: targets.len() as u64,
        };
        // The observation a reply belongs to, with its branch. §5.1's
        // /116 carve case: a reply from a *different* address does not
        // count for the probed branch.
        let slot_of = |reply: &ProbeReply| {
            if !reply.kind.is_positive() || reply.from != reply.target {
                return None;
            }
            let (pi, branch) = back[targets.binary_search(&reply.target).ok()?];
            let slot = order.binary_search(&prefixes[pi]).ok()?;
            Some((slot, branch))
        };
        for reply in icmp_scan.replies {
            if let Some((slot, branch)) = slot_of(&reply) {
                let obs = &mut report.observations[slot].1;
                record_reply(&mut obs.icmp, &mut obs.icmp_replies, branch, reply);
            }
        }
        for reply in tcp_scan.replies {
            if let Some((slot, branch)) = slot_of(&reply) {
                let obs = &mut report.observations[slot].1;
                record_reply(&mut obs.tcp, &mut obs.tcp_replies, branch, reply);
            }
        }

        // Update sliding windows.
        for (p, obs) in &report.observations {
            self.push_day(*p, obs.merged());
        }
        report
    }

    /// Record one day's merged branch bitmap for `p`, opening its
    /// window on first sight, and count the push towards the next
    /// journal delta.
    pub(crate) fn push_day(&mut self, p: Prefix, merged: u16) {
        self.windows
            .entry(p)
            .or_insert_with(|| WindowState::new(self.cfg.window))
            .push_day(merged);
        let pushes = self.dirty.entry(p).or_insert(0);
        *pushes = pushes.saturating_add(1);
    }

    /// Current windowed classification: prefixes whose branches have all
    /// responded within the window.
    pub fn aliased_prefixes(&self) -> Vec<Prefix> {
        let aliased = self.windows.iter().filter(|(_, w)| w.aliased());
        aliased.map(|(p, _)| *p).collect()
    }

    /// Prefixes whose classification has flipped at least once.
    pub fn unstable_prefixes(&self) -> Vec<Prefix> {
        let flipped = self.windows.iter().filter(|(_, w)| w.flips() > 0);
        flipped.map(|(p, _)| *p).collect()
    }

    /// Build the longest-prefix-match filter from the current aliased
    /// set.
    pub fn filter(&self) -> crate::filter::AliasFilter {
        crate::filter::AliasFilter::new(self.aliased_prefixes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_model::{InternetModel, ModelConfig};
    use expanse_zmap6::ScanConfig;

    fn scanner() -> Scanner<InternetModel> {
        Scanner::new(
            InternetModel::build(ModelConfig::tiny(55)),
            ScanConfig::default(),
        )
    }

    #[test]
    fn detects_cdn_hook_as_aliased() {
        let mut s = scanner();
        let hooks: Vec<Prefix> = s.network_mut().population.special.cdn_hook_48s[..4].to_vec();
        let mut apd = Apd::new(ApdConfig::default());
        for day in 0..2 {
            s.network_mut().set_day(day);
            apd.run_day(&mut s, &hooks);
        }
        let aliased = apd.aliased_prefixes();
        assert_eq!(aliased, hooks, "all hook /48s should classify aliased");
    }

    #[test]
    fn non_aliased_64_not_detected() {
        let mut s = scanner();
        // A live-host /64 from a site pool that is genuinely outside any
        // aliased region: fan-out targets are random addresses there,
        // which do not respond.
        let site64 = {
            let net = s.network_mut();
            net.population
                .sites
                .iter()
                .flat_map(|sp| sp.addrs.iter())
                .map(|a| Prefix::new(*a, 64))
                .find(|p64| {
                    (0..4u64).all(|k| {
                        net.population
                            .aliases
                            .resolve(expanse_addr::keyed_random_addr(*p64, k))
                            .is_none()
                    })
                })
                .expect("a non-aliased site /64 exists")
        };
        let mut apd = Apd::new(ApdConfig::default());
        apd.run_day(&mut s, &[site64]);
        assert!(apd.aliased_prefixes().is_empty());
    }

    #[test]
    fn partial96_not_aliased_but_children_are() {
        let mut s = scanner();
        let p96 = s.network_mut().population.special.partial96;
        let children: Vec<Prefix> = (0..16u128).map(|b| p96.subprefix(4, b)).collect();
        let mut plan = vec![p96];
        plan.extend(&children);
        let mut apd = Apd::new(ApdConfig::default());
        for day in 0..2 {
            s.network_mut().set_day(day);
            apd.run_day(&mut s, &plan);
        }
        let aliased = apd.aliased_prefixes();
        assert!(
            !aliased.contains(&p96),
            "fan-out must notice the 7 silent /100s"
        );
        // The 9 aliased children detected (modulo loss, at least 7).
        let hit = children.iter().filter(|c| aliased.contains(c)).count();
        assert!((7..=9).contains(&hit), "detected {hit} of 9 aliased /100s");
    }

    #[test]
    fn carve116_shows_15_of_16() {
        let mut s = scanner();
        let p116 = s.network_mut().population.special.carve116;
        let mut apd = Apd::new(ApdConfig::default());
        let report = apd.run_day(&mut s, &[p116]);
        let obs = report.get(&p116).expect("probed prefix is observed");
        let merged = obs.merged();
        assert_eq!(merged & 1, 0, "branch 0x0 must be silent (carved)");
        let answered = merged.count_ones();
        assert!((13..=15).contains(&answered), "answered={answered}");
        assert!(!apd.aliased_prefixes().contains(&p116));
    }

    #[test]
    fn observations_are_sorted_distinct_and_sized_on_first_reply() {
        let mut s = scanner();
        let hooks: Vec<Prefix> = s.network_mut().population.special.cdn_hook_48s[..2].to_vec();
        // Unrouted space: silent by construction.
        let silent: Prefix = "3fff:0:0:1::/64".parse().unwrap();
        // Out of order, one prefix twice.
        let plan = vec![hooks[1], silent, hooks[0], hooks[1]];
        let mut apd = Apd::new(ApdConfig::default());
        let report = apd.run_day(&mut s, &plan);

        let mut distinct = plan.clone();
        distinct.sort();
        distinct.dedup();
        let observed: Vec<Prefix> = report.observations.iter().map(|(p, _)| *p).collect();
        assert_eq!(observed, distinct);
        assert_eq!(report.targets, 48, "the repeated prefix is probed once");
        assert_eq!(apd.windows.len(), 3);
        assert!(report.get(&"3fff::/64".parse().unwrap()).is_none());

        let quiet = report.get(&silent).expect("probed");
        assert_eq!(quiet.merged(), 0);
        assert!(quiet.icmp_replies.is_empty() && quiet.tcp_replies.is_empty());
        let loud = report.get(&hooks[1]).expect("probed");
        assert!(loud.icmp.count_ones() >= 12, "icmp={:#06x}", loud.icmp);
        assert_eq!(loud.icmp_replies.len(), 16);
        for (b, reply) in loud.icmp_replies.iter().enumerate() {
            assert_eq!(loud.icmp & (1 << b) != 0, reply.is_some(), "branch {b}");
        }
    }

    #[test]
    fn probe_accounting() {
        let mut s = scanner();
        let hooks = vec![s.network_mut().population.special.cdn_hook_48s[0]];
        let mut apd = Apd::new(ApdConfig::default());
        let report = apd.run_day(&mut s, &hooks);
        assert_eq!(report.targets, 16);
        assert_eq!(report.probes_sent, 32); // 16 ICMP + 16 TCP
    }

    #[test]
    fn cross_protocol_merge_rescues_icmp_loss() {
        // Construct observations directly: ICMP lost branch 3, TCP got it.
        let mut obs = DayObservation {
            icmp: !(1 << 3),
            tcp: 1 << 3,
            tcp_replies: vec![None; 16],
            icmp_replies: vec![None; 16],
        };
        assert!(obs.full());
        obs.tcp = 0;
        assert!(!obs.full());
    }
}
