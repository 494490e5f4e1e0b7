//! Pooled scan ≡ the serial event-queue loop it replaced.
//!
//! `Scanner::scan` runs one job's stateless probes on worker snapshots
//! and its stateful ones (rate-limit buckets, throttled last-hop
//! routers, SYN proxies) in send order on the network itself. Nothing
//! about that may show: the fingerprints in `common` were recorded from
//! the serial loop before the scan job went onto the worker pool, over
//! a target mix that meets every kind of destination, with an outer
//! shard and a blacklist in force. This file checks them at the ambient
//! worker count (`EXPANSE_THREADS` in the CI determinism lane); the unit
//! tests in `src/scanner.rs` sweep explicit counts.

mod common;

use common::Fingerprint;
use expanse_netsim::SnapshotNetwork;
use expanse_zmap6::module::{IcmpEchoModule, TcpSynModule};
use expanse_zmap6::{MultiScanResult, ScanConfig, ScanResult, Scanner};
use std::net::Ipv6Addr;

fn digest(r: ScanResult) -> u64 {
    assert_eq!(
        r.received,
        r.replies.len() as u64 + r.duplicates + r.malformed + r.unvalidated,
        "every received frame is a reply, a duplicate, or rejected"
    );
    MultiScanResult::from_passes([r]).digest()
}

fn fingerprint<N: SnapshotNetwork + Sync>(
    net: N,
    (targets, blacklisted): (Vec<Ipv6Addr>, Vec<expanse_addr::Prefix>),
) -> Fingerprint {
    assert!(targets.len() >= 20_000, "{} targets", targets.len());
    let cfg = ScanConfig {
        shard: (1, 3),
        blacklist: blacklisted.into_iter().collect(),
        ..ScanConfig::default()
    };
    let mut s = Scanner::new(net, cfg);
    let mut out = [0u64; 6];
    for pair in out.chunks_mut(3) {
        pair[0] = digest(s.scan(&targets, &IcmpEchoModule));
        pair[1] = digest(s.scan(&targets, &TcpSynModule::with_synopt(80)));
        pair[2] = s.now().0;
    }
    out
}

#[test]
fn plain_world_matches_the_serial_loop() {
    let net = common::plain();
    let mix = common::mix(&net);
    assert_eq!(fingerprint(net, mix), common::RECORDED_PLAIN);
}

#[test]
fn adversarial_world_matches_the_serial_loop() {
    let net = common::adversarial();
    assert!(!net.scenario().throttled.is_empty());
    let mix = common::mix(&net);
    assert_eq!(fingerprint(net, mix), common::RECORDED_ADVERSARIAL);
}
