//! The Murdock et al. (6Gen) baseline APD (§5.5).
//!
//! "Murdock et al. send three probes each to three random addresses in
//! every /96 prefix. Upon receipt of replies from all three random
//! addresses, the prefix is determined as aliased." Static level, purely
//! random targets, single protocol — the paper's comparison shows the
//! fan-out multi-level method finds more aliased space with fewer than
//! half the probes.

use crate::detector::counts;
use expanse_addr::{keyed_random_addr, Prefix};
use expanse_netsim::SnapshotNetwork;
use expanse_zmap6::module::IcmpEchoModule;
use expanse_zmap6::Scanner;
use std::net::Ipv6Addr;

/// Result of a Murdock-style detection pass.
#[derive(Debug, Clone)]
pub struct MurdockResult {
    /// /96 prefixes classified aliased.
    pub aliased: Vec<Prefix>,
    /// Probes sent (3 probes × 3 addresses per /96).
    pub probes_sent: u64,
    /// Distinct addresses probed.
    pub addresses_probed: u64,
}

/// Run the baseline over a hitlist: every /96 containing at least one
/// hitlist address is tested with 3 random addresses × 3 probes.
pub fn detect<N: SnapshotNetwork + Sync>(
    scanner: &mut Scanner<N>,
    hitlist: &[Ipv6Addr],
    salt: u64,
) -> MurdockResult {
    // Collect the /96s.
    let mut p96s: Vec<Prefix> = hitlist.iter().map(|&a| Prefix::new(a, 96)).collect();
    p96s.sort();
    p96s.dedup();

    // Three purely random addresses per /96 (no fan-out discipline),
    // as the detector's sorted back-reference vector `(target, /96
    // index)`. Distinct /96s are disjoint, so no target repeats.
    let mut fan: Vec<(Ipv6Addr, usize)> = Vec::with_capacity(p96s.len() * 3);
    for (i, p) in p96s.iter().enumerate() {
        for k in 0..3u64 {
            fan.push((
                keyed_random_addr(*p, salt ^ (k.wrapping_mul(0x9e37_79b9))),
                i,
            ));
        }
    }
    fan.sort_unstable();
    fan.dedup_by_key(|f| f.0);
    let targets: Vec<Ipv6Addr> = fan.iter().map(|f| f.0).collect();

    // 3 probes per address (same-day retries; in both the paper's
    // methodology and this simulation, retries mostly share fate).
    let mut answered = vec![false; targets.len()];
    let mut probes_sent = 0u64;
    for _attempt in 0..3 {
        let scan = scanner.scan(&targets, &IcmpEchoModule);
        probes_sent += scan.sent;
        for reply in &scan.replies {
            if counts(reply) {
                if let Ok(t) = targets.binary_search(&reply.target) {
                    answered[t] = true;
                }
            }
        }
    }

    // Aliased: all three of a /96's addresses answered.
    let mut hits = vec![0u8; p96s.len()];
    for (&(_, i), _) in fan.iter().zip(&answered).filter(|(_, a)| **a) {
        hits[i] += 1;
    }
    let aliased: Vec<Prefix> = p96s
        .iter()
        .zip(&hits)
        .filter(|(_, h)| **h == 3)
        .map(|(p, _)| *p)
        .collect();

    MurdockResult {
        aliased,
        probes_sent,
        addresses_probed: targets.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_model::{InternetModel, ModelConfig};
    use expanse_zmap6::ScanConfig;

    #[test]
    fn finds_aliased_96s_inside_hook() {
        let model = InternetModel::build(ModelConfig::tiny(66));
        let hook = model.population().special.cdn_hook_48s[0];
        let mut scanner = Scanner::new(model, ScanConfig::default());
        // Hitlist: a few addresses inside one aliased /48.
        let hitlist: Vec<Ipv6Addr> = (0..5u64).map(|i| keyed_random_addr(hook, i)).collect();
        let r = detect(&mut scanner, &hitlist, 7);
        assert!(!r.aliased.is_empty(), "should classify hook /96s aliased");
        assert!(r.aliased.iter().all(|p| p.len() == 96));
        assert!(r.probes_sent >= r.addresses_probed);
    }

    #[test]
    fn non_aliased_not_flagged() {
        let model = InternetModel::build(ModelConfig::tiny(66));
        // A site address outside every aliased region (which site index
        // that is depends on the model's random stream).
        let host_addr = model
            .population()
            .sites
            .iter()
            .flat_map(|s| s.addrs.iter())
            .copied()
            .find(|a| !model.truth_aliased(*a))
            .expect("a non-aliased site address exists");
        let mut scanner = Scanner::new(model, ScanConfig::default());
        let r = detect(&mut scanner, &[host_addr], 7);
        assert!(r.aliased.is_empty());
        // 1 /96 × 3 addresses × 3 attempts.
        assert_eq!(r.addresses_probed, 3);
        assert_eq!(r.probes_sent, 9);
    }

    #[test]
    fn static_96_misses_deeper_alias() {
        // An aliased /112 inside a /96: random /96 probes land outside
        // the /112 with overwhelming probability -> missed. Our fan-out
        // method at /112 level would catch it (tested in detector.rs).
        let model = InternetModel::build(ModelConfig::tiny(66));
        // Find a scattered aliased region deeper than /96 if present.
        let deep: Vec<Prefix> = model
            .population()
            .aliases
            .iter()
            .map(|(p, _)| p)
            .filter(|p| p.len() > 96)
            .collect();
        let mut scanner = Scanner::new(model, ScanConfig::default());
        for p in deep.iter().take(2) {
            let inside = keyed_random_addr(*p, 1);
            let r = detect(&mut scanner, &[inside], 3);
            // The /96 containing the /112+ region: probes are random in
            // the /96, P(landing in the region) ≤ 2^-16 per probe.
            assert!(
                r.aliased.is_empty(),
                "static /96 should miss deep region {p}"
            );
        }
    }
}
