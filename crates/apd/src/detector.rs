//! The multi-level aliased-prefix detector (§5.1–5.2).
//!
//! Per prefix and day: 16 fan-out targets (one pseudo-random address per
//! 4-bit subprefix), each probed on ICMPv6 **and** TCP/80; a branch
//! counts as responsive if either protocol answered (cross-protocol
//! merging, §5.2). A prefix is aliased when all 16 branches responded
//! within the sliding window.

use crate::window::WindowState;
use expanse_addr::{addr_to_u128, fanout16_iter, u128_to_addr, Prefix};
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

/// One day's fan-out: the distinct targets of every planned prefix,
/// sorted, with the `(observation slot, branch)` pairs that drew each.
struct Fanout {
    /// Every target once, ascending.
    targets: Vec<Ipv6Addr>,
    /// `back[i]`: the first `(slot, branch)` that drew `targets[i]`.
    back: Vec<(u32, u8)>,
    /// `(i, slot, branch)` for every further pair that drew
    /// `targets[i]`, ascending by `i`. Two prefixes draw the same target
    /// rarely, but a planned /124 and its planned /120 parent always
    /// do: a /124's sixteen targets are all of its addresses.
    shared: Vec<(u32, u32, u8)>,
}

impl Fanout {
    /// The fan-out of `order` (distinct prefixes, ascending), observation
    /// slot `s` being `order[s]`.
    fn new(order: &[Prefix], salt: u64) -> Self {
        // `(address high half, low half, slot, branch)`: sorts like the
        // address, in 24 bytes where a `u128` key would take 32.
        let mut fan: Vec<(u64, u64, u32, u8)> = Vec::with_capacity(order.len() * 16);
        for (slot, p) in order.iter().enumerate() {
            let slot = u32::try_from(slot).expect("plan beyond u32 prefixes");
            fan.extend(fanout16_iter(*p, salt).map(|t| {
                let a = addr_to_u128(t.addr);
                ((a >> 64) as u64, a as u64, slot, t.branch)
            }));
        }
        fan.sort_unstable();
        let mut out = Fanout {
            targets: Vec::with_capacity(fan.len()),
            back: Vec::with_capacity(fan.len()),
            shared: Vec::new(),
        };
        let mut last = None;
        for (hi, lo, slot, branch) in fan {
            if last == Some((hi, lo)) {
                let i = out.targets.len() - 1;
                out.shared.push((i as u32, slot, branch));
            } else {
                out.targets
                    .push(u128_to_addr((u128::from(hi) << 64) | u128::from(lo)));
                out.back.push((slot, branch));
                last = Some((hi, lo));
            }
        }
        out
    }

    /// Hand each reply of one pass — sorted by target, like `targets` —
    /// to every `(slot, branch)` that drew its target, in one forward
    /// walk. §5.1's /116 carve case: a reply from a *different* address
    /// does not count for the probed branch.
    fn attribute(&self, replies: Vec<ProbeReply>, mut record: impl FnMut(u32, u8, ProbeReply)) {
        let mut i = 0;
        let mut shared = self.shared.iter().peekable();
        for reply in replies {
            if !reply.kind.is_positive() || reply.from != reply.target {
                continue;
            }
            let key = addr_to_u128(reply.target);
            while self.targets.get(i).is_some_and(|t| addr_to_u128(*t) < key) {
                i += 1;
            }
            if self.targets.get(i) != Some(&reply.target) {
                continue;
            }
            while shared.next_if(|s| (s.0 as usize) < i).is_some() {}
            while let Some(&(_, slot, branch)) = shared.next_if(|s| s.0 as usize == i) {
                record(slot, branch, reply.clone());
            }
            let (slot, branch) = self.back[i];
            record(slot, branch, reply);
        }
    }
}

/// Update `map` at each key of `updates` (ascending, distinct): `update`
/// the entries it has, found in one forward walk, and `open` the others,
/// inserted after it.
fn walk_sorted<V, T>(
    map: &mut BTreeMap<Prefix, V>,
    mut updates: impl Iterator<Item = (Prefix, T)>,
    update: impl Fn(&mut V, T),
    open: impl Fn(T) -> V,
) {
    let Some(first) = updates.next() else {
        return;
    };
    let mut opened = Vec::new();
    let mut entries = map.range_mut(first.0..).peekable();
    let mut prev = None;
    for (p, t) in std::iter::once(first).chain(updates) {
        debug_assert!(prev < Some(p), "updates not ascending");
        prev = Some(p);
        while entries.next_if(|(q, _)| **q < p).is_some() {}
        match entries.next_if(|(q, _)| **q == p) {
            Some((_, v)) => update(v, t),
            None => opened.push((p, open(t))),
        }
    }
    map.extend(opened);
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
    /// Of the targets, those the network did not prove silent: the
    /// ones whose probes left as frames.
    pub answerable: u64,
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
    /// of every prefix into two scans (one per protocol), zmap-style. A
    /// target that two planned prefixes draw is probed once, and its
    /// reply counts for the branch of each.
    pub fn run_day<N: SnapshotNetwork + Sync>(
        &mut self,
        scanner: &mut Scanner<N>,
        prefixes: &[Prefix],
    ) -> DayReport {
        // One observation per distinct prefix, in prefix order (the
        // pipeline's plan already arrives that way). A repeated prefix
        // would only draw its 16 targets again, so the fan-out is of
        // `order` too.
        let mut order: Vec<Prefix> = prefixes.to_vec();
        order.sort();
        order.dedup();
        let fan = Fanout::new(&order, self.cfg.salt);

        // One layout, each target decided once, for both passes.
        let [icmp_scan, tcp_scan] = scanner.scan_each(
            &fan.targets,
            [&IcmpEchoModule, &TcpSynModule::with_synopt(80)],
        );

        let mut report = DayReport {
            observations: order
                .iter()
                .map(|p| (*p, DayObservation::default()))
                .collect(),
            probes_sent: icmp_scan.sent + tcp_scan.sent,
            targets: fan.targets.len() as u64,
            answerable: icmp_scan.answerable,
        };
        let observations = &mut report.observations;
        fan.attribute(icmp_scan.replies, |slot, branch, reply| {
            let obs = &mut observations[slot as usize].1;
            record_reply(&mut obs.icmp, &mut obs.icmp_replies, branch, reply);
        });
        fan.attribute(tcp_scan.replies, |slot, branch, reply| {
            let obs = &mut observations[slot as usize].1;
            record_reply(&mut obs.tcp, &mut obs.tcp_replies, branch, reply);
        });

        self.push_days(report.observations.iter().map(|(p, o)| (*p, o.merged())));
        report
    }

    /// Record one day's merged branch bitmap per prefix — `days`
    /// ascending by prefix, each prefix once — opening a window on
    /// first sight, and count each push towards the next journal delta:
    /// one ordered walk over each map.
    pub(crate) fn push_days(
        &mut self,
        days: impl IntoIterator<Item = (Prefix, u16), IntoIter: Clone>,
    ) {
        let days = days.into_iter();
        let window = self.cfg.window;
        walk_sorted(
            &mut self.windows,
            days.clone(),
            |w, merged| w.push_day(merged),
            |merged| {
                let mut w = WindowState::new(window);
                w.push_day(merged);
                w
            },
        );
        walk_sorted(
            &mut self.dirty,
            days,
            |pushes, _| *pushes = pushes.saturating_add(1),
            |_| 1,
        );
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
                    (0..4u64).all(|k| !net.truth_aliased(expanse_addr::keyed_random_addr(*p64, k)))
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

    /// FNV-1a over the `Debug` rendering of `value`: every field of
    /// every reply, bitmap and window, in order.
    fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// A plan over everything a day meets: every 4-bit level from /64
    /// to /120 nested inside a CDN hook, the hook itself, listed twice,
    /// the /116 carve, unrouted space, the partial /96 — out of order.
    /// No two of its prefixes share a fan-out target.
    fn mixed_plan(s: &mut Scanner<InternetModel>) -> Vec<Prefix> {
        let special = &s.network_mut().population.special;
        let hook = special.cdn_hook_48s[0];
        let mut plan = vec![special.carve116, hook, special.partial96];
        let mut p = hook.subprefix(16, 0x5a5a);
        while p.len() <= 120 {
            plan.push(p);
            p = p.subprefix(4, u128::from(p.len() % 16));
        }
        plan.push("3fff:0:0:2::/64".parse().unwrap());
        plan.push(hook);
        plan
    }

    /// Two days of [`mixed_plan`]: per day the fingerprint of the
    /// report's observations, its probe and target counts and the
    /// scanner clock after it; then the windows and the pushes
    /// pending for the next journal delta. Recorded on the commit before
    /// the fan-out was built, attributed and windowed in ordered passes.
    const RECORDED_RUN_DAY: [u64; 10] = [
        6_168_614_895_754_918_262,
        608,
        304,
        10_006_080_000,
        1_544_521_032_161_822_665,
        608,
        304,
        20_012_160_000,
        17_438_650_388_111_514_190,
        18_374_089_036_749_365_177,
    ];

    #[test]
    fn run_day_matches_recorded() {
        let mut s = scanner();
        let plan = mixed_plan(&mut s);
        let mut apd = Apd::new(ApdConfig::default());
        let mut pin = Vec::new();
        for day in 0..2 {
            s.network_mut().set_day(day);
            let report = apd.run_day(&mut s, &plan);
            assert_eq!(
                report.targets,
                16 * report.observations.len() as u64,
                "fan-out targets collide"
            );
            pin.extend([
                fingerprint(&report.observations),
                report.probes_sent,
                report.targets,
                s.now().0,
            ]);
        }
        pin.extend([fingerprint(&apd.windows), fingerprint(&apd.dirty)]);
        assert_eq!(pin, RECORDED_RUN_DAY);
    }

    /// A /120 and one of its /124 branches share a fan-out target: a
    /// /124's sixteen targets are all of its addresses. The target's
    /// reply counts for both, whichever comes first in the plan.
    #[test]
    fn shared_target_answers_for_every_prefix_that_drew_it() {
        for outer_first in [true, false] {
            let mut s = scanner();
            let hook = s.network_mut().population.special.cdn_hook_48s[2];
            let p120 = hook.subprefix(72, 0x00c0_ffee_0000_0001_0203);
            let p124 = p120.subprefix(4, 0x7);
            let plan = if outer_first {
                vec![p120, p124]
            } else {
                vec![p124, p120]
            };
            let mut apd = Apd::new(ApdConfig::default());
            for day in 0..2 {
                s.network_mut().set_day(day);
                let report = apd.run_day(&mut s, &plan);
                assert_eq!(report.targets, 31, "exactly one target is shared");
            }
            assert_eq!(
                apd.aliased_prefixes(),
                vec![p120, p124],
                "outer first: {outer_first}"
            );
        }
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
