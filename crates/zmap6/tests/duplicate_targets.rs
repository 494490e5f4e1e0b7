//! First-reply-wins accounting when one responsive address is listed
//! twice, and the shape of the reply runs (`replies` strictly sorted by
//! target, `ScanResult::get`, and the battery's responder run).
//!
//! The duplicate sits at two permutation positions that land in
//! different battery sub-shards, so the merge (not the scan job) has to
//! discard the second reply. The counts below were recorded on the
//! commit before `replies` became a sorted run (hash-map `entry`
//! dedup); the sorted-run settle must reproduce them.

use expanse_addr::keyed_random_addr;
use expanse_model::{InternetModel, ModelConfig};
use expanse_packet::{ProtoSet, Protocol};
use expanse_zmap6::module::IcmpEchoModule;
use expanse_zmap6::{
    standard_battery, MultiScanResult, Permutation, ScanConfig, ScanResult, Scanner,
};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

const N: u64 = 200;

/// Per protocol: `(sent, received, replies, duplicates)` of the battery
/// over [`targets`], and the battery digest — recorded on the parent.
const RECORDED: [(Protocol, u64, u64, usize, u64); 5] = [
    (Protocol::Icmp, 200, 196, 195, 1),
    (Protocol::Tcp80, 200, 195, 194, 1),
    (Protocol::Tcp443, 200, 199, 198, 1),
    (Protocol::Udp53, 200, 0, 0, 0),
    (Protocol::Udp443, 200, 0, 0, 0),
];
const RECORDED_DIGEST: u64 = 1_027_758_043_450_571_162;
/// The same for one unsharded ICMP `scan`, plus the arrival time (ns)
/// of the duplicate's kept reply.
const RECORDED_SCAN: (u64, u64, usize, u64, u64) = (200, 196, 195, 1, 83_869_000);

fn model() -> InternetModel {
    InternetModel::build(ModelConfig::tiny(21))
}

/// 200 addresses inside an aliased /48 (everything answers), with the
/// address at permutation position 0 — sub-shard 0's first probe —
/// repeated at position 17 = 1 + 8·2, sub-shard 1's third probe.
fn targets() -> (Vec<Ipv6Addr>, Ipv6Addr) {
    let p48 = model().population().special.cdn_hook_48s[0];
    let mut targets: Vec<Ipv6Addr> = (0..N).map(|i| keyed_random_addr(p48, i)).collect();
    let perm = Permutation::new(N, ScanConfig::default().seed);
    let (first, second) = (perm.at(0) as usize, perm.at(17) as usize);
    let dup = targets[first];
    targets[second] = dup;
    (targets, dup)
}

fn battery() -> MultiScanResult {
    Scanner::new(model(), ScanConfig::default()).scan_battery(&targets().0, &standard_battery())
}

fn assert_accounted(r: &ScanResult) {
    assert_eq!(
        r.received,
        r.replies.len() as u64 + r.duplicates + r.malformed + r.unvalidated,
        "{:?}: every received frame is a reply, a duplicate, or rejected",
        r.protocol
    );
    assert!(
        r.replies.windows(2).all(|w| w[0].target < w[1].target),
        "{:?}: replies must be strictly sorted by target",
        r.protocol
    );
}

#[test]
fn duplicate_across_sub_shards_keeps_the_first_merged_reply() {
    let (targets, dup) = targets();
    let multi = battery();
    // The responder run: each address once, strictly ascending, with
    // the union over the protocol passes of every positive reply's
    // protocol.
    let mut oracle: BTreeMap<Ipv6Addr, ProtoSet> = BTreeMap::new();
    for (&protocol, r) in &multi.by_protocol {
        for a in r.responsive() {
            let set = oracle.entry(a).or_insert(ProtoSet::EMPTY);
            *set = set.with(protocol);
        }
    }
    assert!(oracle.values().any(|set| set.len() > 1), "a vacuous union");
    assert!(multi.responsive.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(multi.responsive, oracle.into_iter().collect::<Vec<_>>());

    assert_eq!(multi.digest(), RECORDED_DIGEST);

    for (protocol, sent, received, replies, duplicates) in RECORDED {
        let r = &multi.by_protocol[&protocol];
        assert_accounted(r);
        assert_eq!(
            (r.sent, r.received, r.replies.len(), r.duplicates),
            (sent, received, replies, duplicates),
            "{protocol:?}"
        );
    }

    // Sub-shards 0 and 1 of 8 each probe the duplicate once, at
    // different virtual instants; the merge keeps sub-shard 0's reply.
    let shard_reply = |shard: u64| {
        let cfg = ScanConfig {
            shard: (shard, 8),
            ..ScanConfig::default()
        };
        let r = Scanner::new(model(), cfg).scan(&targets, &IcmpEchoModule);
        r.get(dup).cloned().expect("aliased target answers")
    };
    let (first, second) = (shard_reply(0), shard_reply(1));
    assert_ne!(first.at, second.at);
    assert_eq!(multi.by_protocol[&Protocol::Icmp].get(dup), Some(&first));
}

#[test]
fn duplicate_inside_one_scan_job_is_counted_once() {
    let (targets, dup) = targets();
    let r = Scanner::new(model(), ScanConfig::default()).scan(&targets, &IcmpEchoModule);
    assert_accounted(&r);
    // Hit, and a miss on either side of the run.
    let kept = r.get(dup).expect("aliased target answers");
    assert_eq!(kept.target, dup);
    assert_eq!(
        (r.sent, r.received, r.replies.len(), r.duplicates, kept.at.0),
        RECORDED_SCAN
    );
    assert!(r.get(Ipv6Addr::UNSPECIFIED).is_none());
    assert!(r.get(Ipv6Addr::from(u128::MAX)).is_none());
}
