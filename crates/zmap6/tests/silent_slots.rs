//! The scanner sends nothing the network proves silent, and decides
//! each target once.
//!
//! A send slot whose destination the network's decision calls
//! [`Reach::Silent`] is counted as sent but never emitted or injected.
//! A counting wrapper over the simulated Internet checks that: the
//! frames that reach the network and its snapshots are exactly the
//! non-silent slots, and every result and clock equals the bare model's.
//! It also counts the decisions per address: a scan, both passes of a
//! `scan_each` and a battery each decide every send slot's destination
//! once, and no target outside the shard or on the blacklist at all.

mod common;

use expanse_addr::{keyed_random_addr, Prefix};
use expanse_model::{Decision, InternetModel, ScanView};
use expanse_netsim::{Deliveries, Duration, Network, Reach, SnapshotNetwork, Time};
use expanse_packet::Datagram;
use expanse_zmap6::module::{IcmpEchoModule, TcpSynModule};
use expanse_zmap6::{
    standard_battery, MultiScanResult, Permutation, ProbeModule, ScanConfig, Scanner,
};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// The simulated Internet, counting every frame injected into it or
/// into any of its snapshots, and every decision it makes.
struct Counting {
    model: InternetModel,
    frames: AtomicU64,
    /// The addresses whose decisions are counted one by one: sorted,
    /// distinct, with a counter each.
    watched: Vec<Ipv6Addr>,
    decisions: Vec<AtomicU64>,
    /// Decisions about any other address.
    unwatched: AtomicU64,
}

/// A snapshot of a [`Counting`] network, counting into its network's
/// counter.
struct CountingView<'a> {
    view: ScanView<'a>,
    frames: &'a AtomicU64,
}

impl Counting {
    /// `model`, counting the decisions about each of `watch` apart.
    fn new(model: InternetModel, watch: &[Ipv6Addr]) -> Self {
        let mut watched = watch.to_vec();
        watched.sort_unstable();
        watched.dedup();
        Counting {
            model,
            frames: AtomicU64::new(0),
            decisions: watched.iter().map(|_| AtomicU64::new(0)).collect(),
            watched,
            unwatched: AtomicU64::new(0),
        }
    }

    /// The frames injected since the last call.
    fn take(&self) -> u64 {
        self.frames.swap(0, Ordering::Relaxed)
    }

    /// The decisions made since the last call: how many about each
    /// watched address decided at all, and how many about the others.
    fn take_decisions(&self) -> (BTreeMap<Ipv6Addr, u64>, u64) {
        let per_addr = self
            .watched
            .iter()
            .zip(&self.decisions)
            .map(|(a, n)| (*a, n.swap(0, Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect();
        (per_addr, self.unwatched.swap(0, Ordering::Relaxed))
    }
}

/// Each of `slots`' destinations decided once per slot it takes: what
/// [`Counting::take_decisions`] reads after one layout over them.
fn once_each(slots: &[Ipv6Addr]) -> (BTreeMap<Ipv6Addr, u64>, u64) {
    let mut per_addr = BTreeMap::new();
    for &a in slots {
        *per_addr.entry(a).or_default() += 1;
    }
    (per_addr, 0)
}

impl Network for Counting {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.model.inject_into(now, frame, out);
    }
}

impl Network for CountingView<'_> {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.view.inject_into(now, frame, out);
    }
}

impl SnapshotNetwork for Counting {
    type Snapshot<'a> = CountingView<'a>;
    type Decision = Decision;

    fn snapshot(&self) -> CountingView<'_> {
        CountingView {
            view: self.model.snapshot(),
            frames: &self.frames,
        }
    }

    fn decide(&self, dst: Ipv6Addr) -> Decision {
        let counter = match self.watched.binary_search(&dst) {
            Ok(i) => &self.decisions[i],
            Err(_) => &self.unwatched,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.model.decide(dst)
    }

    fn inject_decided(
        snap: &mut CountingView<'_>,
        decision: &Decision,
        now: Time,
        frame: &[u8],
        out: &mut Deliveries,
    ) {
        snap.frames.fetch_add(1, Ordering::Relaxed);
        InternetModel::inject_decided(&mut snap.view, decision, now, frame, out);
    }

    fn reach(&self, dst: Ipv6Addr, decision: &Decision, hop_limit: u8) -> Reach {
        self.model.reach(dst, decision, hop_limit)
    }
}

/// How many of `slots` the model does not call silent.
fn non_silent(model: &InternetModel, slots: &[Ipv6Addr]) -> u64 {
    let hops = Datagram::DEFAULT_HOP_LIMIT;
    let silent = |t: Ipv6Addr| model.reach(t, &model.decide(t), hops) == Reach::Silent;
    slots.iter().filter(|&&t| !silent(t)).count() as u64
}

#[test]
fn unrouted_targets_send_no_frame_and_keep_the_clock() {
    let unrouted: Prefix = "3fff::/20".parse().expect("valid prefix");
    let n = 5_000u64;
    let targets: Vec<Ipv6Addr> = (0..n).map(|i| keyed_random_addr(unrouted, i)).collect();
    let mut bare = Scanner::new(common::plain(), ScanConfig::default());
    let mut counted = Scanner::new(
        Counting::new(common::plain(), &targets),
        ScanConfig::default(),
    );
    assert_eq!(non_silent(bare.network(), &targets), 0);

    // 5 000 slots at 100 000 probes a second, then a 5 s cooldown.
    let pass = Duration::from_millis(50) + Duration::from_secs(5);
    let tcp = TcpSynModule::with_synopt(80);
    let [icmp, syn] = counted.scan_each(&targets, [&IcmpEchoModule, &tcp]);
    assert_eq!((icmp.sent, syn.sent), (n, n));
    assert_eq!(icmp.received + syn.received, 0);
    assert_eq!((icmp.answerable, syn.answerable), (0, 0));
    assert_eq!(counted.network().take(), 0, "frames sent to silent slots");
    assert_eq!(counted.network().take_decisions(), once_each(&targets));
    assert_eq!(counted.now(), Time::ZERO + pass + pass);
    assert_eq!(
        bare.scan_each(&targets, [&IcmpEchoModule, &tcp]),
        [icmp, syn]
    );
    assert_eq!(bare.now(), counted.now());

    let battery = standard_battery();
    let multi = counted.scan_battery(&targets, &battery);
    assert_eq!(multi.total_sent(), battery.len() as u64 * n);
    assert_eq!(counted.network().take(), 0, "frames sent by the battery");
    assert_eq!(counted.network().take_decisions(), once_each(&targets));
    assert_eq!(
        bare.scan_battery(&targets, &battery).digest(),
        multi.digest()
    );
    assert_eq!(bare.now(), counted.now());
}

/// The configuration the recorded fingerprints were taken with: shard 1
/// of 3, `blacklisted` in force.
fn mix_config(blacklisted: &[Prefix]) -> ScanConfig {
    ScanConfig {
        shard: (1, 3),
        blacklist: blacklisted.iter().copied().collect(),
        ..ScanConfig::default()
    }
}

/// The destinations of `cfg`'s send slots over `targets`, in send
/// order: the keyed permutation's positions of the shard, blacklisted
/// targets dropped.
fn slots(cfg: &ScanConfig, targets: &[Ipv6Addr], blacklisted: &[Prefix]) -> Vec<Ipv6Addr> {
    let perm = Permutation::new(targets.len() as u64, cfg.seed);
    let (shard, total) = cfg.shard;
    (shard..targets.len() as u64)
        .step_by(total as usize)
        .map(|i| targets[perm.at(i) as usize])
        .filter(|&t| !blacklisted.iter().any(|p| p.contains(t)))
        .collect()
}

/// Over a world's mix of every kind of destination, each scan injects
/// one frame per non-silent slot — into worker snapshots or, for the
/// stateful ones, the network itself — and the scans still fingerprint
/// to the recorded serial loop; each battery cell injects its
/// sub-shard's non-silent slots, and the battery equals the bare
/// model's. Each scan, `scan_each`'s two passes together, and the
/// battery's grid each decide every slot's destination once, and no
/// other target.
fn injects_the_non_silent_slots(build: fn() -> InternetModel, recorded: common::Fingerprint) {
    let model = build();
    let (targets, blacklisted) = common::mix(&model);
    let cfg = mix_config(&blacklisted);
    let slots = slots(&cfg, &targets, &blacklisted);
    let (sent, loud) = (slots.len() as u64, non_silent(&model, &slots));
    assert!(1_000 < loud && loud < sent / 2, "{loud} of {sent}");

    let decided_once = once_each(&slots);
    let mut s = Scanner::new(Counting::new(model, &targets), cfg.clone());
    let tcp = TcpSynModule::with_synopt(80);
    let scan = |s: &mut Scanner<Counting>, module: &dyn ProbeModule| {
        let r = s.scan(&targets, module);
        assert_eq!((r.sent, r.answerable), (sent, loud));
        assert_eq!(s.network().take(), loud, "{:?}", r.protocol);
        assert_eq!(s.network().take_decisions(), decided_once);
        MultiScanResult::from_passes([r]).digest()
    };
    let mut got = [0u64; 6];
    for pair in got.chunks_mut(3) {
        pair[0] = scan(&mut s, &IcmpEchoModule);
        pair[1] = scan(&mut s, &tcp);
        pair[2] = s.now().0;
    }
    assert_eq!(got, recorded);

    // Both passes along one layout: one decision per slot, not two.
    let mut each = Scanner::new(Counting::new(build(), &targets), cfg.clone());
    let [icmp, syn] = each.scan_each(&targets, [&IcmpEchoModule, &tcp]);
    assert_eq!((icmp.answerable, syn.answerable), (loud, loud));
    assert_eq!(each.network().take(), 2 * loud);
    assert_eq!(each.network().take_decisions(), decided_once);

    let battery = standard_battery();
    let mut counted = Scanner::new(Counting::new(build(), &targets), cfg.clone());
    let multi = counted.scan_battery(&targets, &battery);
    let modules = battery.len() as u64;
    assert_eq!(multi.total_sent(), modules * sent);
    assert_eq!(counted.network().take(), modules * loud);
    assert_eq!(counted.network().take_decisions(), decided_once);
    let mut bare = Scanner::new(build(), cfg);
    assert_eq!(
        bare.scan_battery(&targets, &battery).digest(),
        multi.digest()
    );
    assert_eq!(bare.now(), counted.now());
}

#[test]
fn plain_world_injects_the_non_silent_slots() {
    injects_the_non_silent_slots(common::plain, common::RECORDED_PLAIN);
}

#[test]
fn adversarial_world_injects_the_non_silent_slots() {
    injects_the_non_silent_slots(common::adversarial, common::RECORDED_ADVERSARIAL);
}
