//! Scan result containers.

use crate::module::ReplyKind;
use expanse_addr::{addr_to_u128, AddrId, AddrMap};
use expanse_netsim::Time;
use expanse_packet::{ProtoSet, Protocol};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

/// One validated reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeReply {
    /// The probed target this reply validates for.
    pub target: Ipv6Addr,
    /// The reply's actual source address (≠ target for off-path answers).
    pub from: Ipv6Addr,
    /// Virtual time of the frame.
    pub at: Time,
    /// Hop limit observed at the vantage (the iTTL input of §5.4).
    pub ttl: u8,
    /// What kind of host this address is.
    pub kind: ReplyKind,
}

/// Result of scanning one protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanResult {
    /// The scanned protocol.
    pub protocol: Protocol,
    /// Probes sent.
    pub sent: u64,
    /// Of them, those the network did not prove silent: the probes
    /// emitted. The others kept their send slot but left no frame.
    pub answerable: u64,
    /// Targets suppressed by the blacklist (never probed).
    pub blacklisted: u64,
    /// Frames received.
    pub received: u64,
    /// Frames that failed to parse.
    pub malformed: u64,
    /// Frames that failed stateless validation.
    pub unvalidated: u64,
    /// Duplicate replies discarded.
    pub duplicates: u64,
    /// First validated reply per target: a run sorted by `target`, one
    /// entry per target (every scan entry point settles it so before
    /// returning).
    pub replies: Vec<ProbeReply>,
}

impl ScanResult {
    /// Create a new instance.
    pub(crate) fn new(protocol: Protocol) -> Self {
        ScanResult {
            protocol,
            sent: 0,
            answerable: 0,
            blacklisted: 0,
            received: 0,
            malformed: 0,
            unvalidated: 0,
            duplicates: 0,
            replies: Vec::new(),
        }
    }

    /// Targets with a positive service answer.
    pub fn responsive(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.replies
            .iter()
            .filter(|r| r.kind.is_positive())
            .map(|r| r.target)
    }

    /// The reply recorded for `target`, if it answered (binary search
    /// over the sorted run).
    pub fn get(&self, target: Ipv6Addr) -> Option<&ProbeReply> {
        let at = self.replies.binary_search_by_key(&target, |r| r.target);
        at.ok().map(|i| &self.replies[i])
    }

    /// Count of positive responders.
    pub fn responsive_count(&self) -> usize {
        self.responsive().count()
    }

    /// Hit rate: positive responders / probes sent.
    pub fn hit_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.responsive_count() as f64 / self.sent as f64
        }
    }

    /// One protocol's result from its sub-shards' results, each already
    /// settled (sorted by target, one reply per target), in merge order:
    /// counters add, and the reply runs merge into one settled run, each
    /// reply moved once. Sub-shards partition the *positions* of the
    /// target list, so for duplicate-free target lists the runs are
    /// disjoint; if a target appears twice and its replies land in two
    /// shards, the earlier shard's reply wins and the other counts as a
    /// duplicate — mirroring the unsharded scan's first-reply-wins
    /// accounting (`received == replies + duplicates + malformed +
    /// unvalidated` stays intact).
    ///
    /// # Panics
    /// Panics if a part scanned another protocol.
    pub(crate) fn from_shards(protocol: Protocol, parts: Vec<ScanResult>) -> ScanResult {
        let mut out = ScanResult::new(protocol);
        let mut runs = Vec::with_capacity(parts.len());
        for part in parts {
            assert_eq!(part.protocol, protocol, "from_shards across protocols");
            out.sent += part.sent;
            out.answerable += part.answerable;
            out.blacklisted += part.blacklisted;
            out.received += part.received;
            out.malformed += part.malformed;
            out.unvalidated += part.unvalidated;
            out.duplicates += part.duplicates;
            runs.push(part.replies.into_iter());
        }
        out.replies
            .reserve_exact(runs.iter().map(|r| r.len()).sum());
        let head = |run: &std::vec::IntoIter<ProbeReply>| {
            run.as_slice().first().map(|r| addr_to_u128(r.target))
        };
        // `(head target, run)` of every run not yet drained, in run
        // order. Take the least head each time; ties go to the earlier
        // run, whose reply is then the one kept.
        let mut heads: Vec<(u128, usize)> = runs
            .iter()
            .enumerate()
            .filter_map(|(run, r)| Some((head(r)?, run)))
            .collect();
        while !heads.is_empty() {
            let mut least = 0;
            for (j, h) in heads.iter().enumerate().skip(1) {
                if h.0 < heads[least].0 {
                    least = j;
                }
            }
            let run = heads[least].1;
            let reply = runs[run].next().expect("a run with a head");
            match head(&runs[run]) {
                Some(target) => heads[least].0 = target,
                None => {
                    heads.remove(least);
                }
            }
            if out.replies.last().is_some_and(|r| r.target == reply.target) {
                out.duplicates += 1;
            } else {
                out.replies.push(reply);
            }
        }
        out
    }
}

/// Merged results across protocols (the §6 battery).
#[derive(Debug, Clone, Default)]
pub struct MultiScanResult {
    /// Per-protocol scan results.
    pub by_protocol: BTreeMap<Protocol, ScanResult>,
    /// Per-address positive protocol set: a columnar interned map
    /// (address column + `ProtoSet` column) instead of a per-day
    /// hash-map rebuild. Its equality is content-based, so executors
    /// that merge in different orders still compare equal.
    pub responsive: AddrMap<ProtoSet>,
    /// Caller-domain ids of the responsive addresses, parallel to
    /// `responsive`'s insertion order: entry *i* is the resolved id of
    /// the *i*-th distinct responder (protocols in merge order, each
    /// protocol's new responders in target order). Filled only by
    /// [`crate::Scanner::scan_battery_resolved`] (the pipeline resolves
    /// against its hitlist once per responder, instead of a hash lookup
    /// per reply); stays empty under plain
    /// [`MultiScanResult::merge`]. Excluded from equality — it mirrors
    /// `responsive`'s keys through an external table, adding no
    /// information of its own.
    pub responsive_ids: Vec<AddrId>,
}

impl MultiScanResult {
    /// Fold one protocol scan in.
    pub fn merge(&mut self, r: ScanResult) {
        for reply in &r.replies {
            if reply.kind.is_positive() {
                let e = self.responsive.entry_or(reply.target, ProtoSet::EMPTY);
                *e = e.with(r.protocol);
            }
        }
        self.by_protocol.insert(r.protocol, r);
    }

    /// The day's `(id, protocols)` pairs in `responsive` insertion
    /// order, zipping the resolved id column against the protocol-set
    /// column.
    ///
    /// # Panics
    /// Panics if the result was not built by
    /// [`crate::Scanner::scan_battery_resolved`] (the columns must be
    /// parallel).
    pub fn resolved_pairs(&self) -> impl Iterator<Item = (AddrId, ProtoSet)> + '_ {
        assert_eq!(
            self.responsive_ids.len(),
            self.responsive.len(),
            "responsive_ids out of step with the responsive map"
        );
        self.responsive_ids
            .iter()
            .copied()
            .zip(self.responsive.values().copied())
    }

    /// Move the merged responsive map out (the per-protocol results
    /// stay). The daily pipeline hands it to the snapshot instead of
    /// cloning; compute [`MultiScanResult::digest`] first if the full
    /// digest is wanted.
    pub fn take_responsive(&mut self) -> AddrMap<ProtoSet> {
        std::mem::take(&mut self.responsive)
    }

    /// Total probes sent across protocols.
    pub fn total_sent(&self) -> u64 {
        self.by_protocol.values().map(|r| r.sent).sum()
    }

    /// A canonical FNV-1a digest over every field of every reply, walked
    /// in place: protocols in `Protocol` order, each protocol's replies
    /// in target order, then the responsive map sorted by address. The
    /// encoding is injective (variable-length fields are
    /// length-prefixed), so equal results always produce equal digests
    /// and unequal results collide only at ordinary 64-bit hash odds;
    /// the fan-out determinism guard and the throughput bench compare
    /// this.
    /// Allocation-free per reply (runs once per virtual day over the
    /// whole merged battery, so it must stay off the daily loop's back).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        // Count-prefix every list so the byte stream is self-delimiting
        // (injectivity must not lean on unenforced counter invariants).
        h.eat(&(self.by_protocol.len() as u64).to_le_bytes());
        for (p, r) in &self.by_protocol {
            h.eat(&[p.index() as u8]);
            for n in [
                r.sent,
                r.blacklisted,
                r.received,
                r.malformed,
                r.unvalidated,
                r.duplicates,
            ] {
                h.eat(&n.to_le_bytes());
            }
            h.eat(&(r.replies.len() as u64).to_le_bytes());
            for reply in &r.replies {
                h.eat(&reply.target.octets());
                h.eat(&reply.from.octets());
                h.eat(&reply.at.0.to_le_bytes());
                h.eat(&[reply.ttl]);
                h.eat_kind(&reply.kind);
            }
        }
        let mut responsive: Vec<(Ipv6Addr, ProtoSet)> =
            self.responsive.iter().map(|(a, set)| (a, *set)).collect();
        responsive.sort_unstable_by_key(|&(a, _)| a);
        h.eat(&(responsive.len() as u64).to_le_bytes());
        for (a, set) in responsive {
            h.eat(&a.octets());
            h.eat(&[set.0]);
        }
        h.0
    }
}

/// Equality ignores [`MultiScanResult::responsive_ids`]: the id column
/// mirrors `responsive`'s keys through an external table, so it adds
/// nothing to the content the digest and the determinism guards compare
/// (and a plain [`MultiScanResult::merge`] leaves it empty).
impl PartialEq for MultiScanResult {
    fn eq(&self, other: &Self) -> bool {
        self.by_protocol == other.by_protocol && self.responsive == other.responsive
    }
}

/// FNV-1a folding with a structural (allocation-free) [`ReplyKind`]
/// encoding: discriminant byte, then each field in declaration order,
/// `Option`s as a presence byte + payload.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Variable-length field: length-prefixed so adjacent fields cannot
    /// alias across different splits of the same byte stream.
    fn eat_var(&mut self, bytes: &[u8]) {
        self.eat(&(bytes.len() as u64).to_le_bytes());
        self.eat(bytes);
    }

    fn eat_kind(&mut self, kind: &ReplyKind) {
        match kind {
            ReplyKind::EchoReply => self.eat(&[0]),
            ReplyKind::SynAck(info) => {
                self.eat(&[1]);
                self.eat_var(info.options_text.as_bytes());
                match info.mss {
                    Some(v) => {
                        self.eat(&[1]);
                        self.eat(&v.to_le_bytes());
                    }
                    None => self.eat(&[0]),
                }
                match info.wscale {
                    Some(v) => self.eat(&[1, v]),
                    None => self.eat(&[0]),
                }
                self.eat(&info.window.to_le_bytes());
                match info.timestamps {
                    Some((tsval, tsecr)) => {
                        self.eat(&[1]);
                        self.eat(&tsval.to_le_bytes());
                        self.eat(&tsecr.to_le_bytes());
                    }
                    None => self.eat(&[0]),
                }
            }
            ReplyKind::Rst => self.eat(&[2]),
            ReplyKind::DnsResponse { rcode, answers } => {
                self.eat(&[3, *rcode]);
                self.eat(&answers.to_le_bytes());
            }
            ReplyKind::QuicVersionNegotiation { versions } => {
                self.eat(&[4]);
                self.eat(&(versions.len() as u64).to_le_bytes());
                for v in versions {
                    self.eat(&v.to_le_bytes());
                }
            }
            ReplyKind::Unreachable { code } => self.eat(&[5, *code]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(target: &str, kind: ReplyKind) -> ProbeReply {
        let t: Ipv6Addr = target.parse().unwrap();
        ProbeReply {
            target: t,
            from: t,
            at: Time::ZERO,
            ttl: 60,
            kind,
        }
    }

    #[test]
    fn hit_rate_counts_only_positive() {
        let mut r = ScanResult::new(Protocol::Tcp80);
        r.sent = 4;
        r.replies.push(reply("::1", ReplyKind::Rst));
        r.replies.push(reply(
            "::2",
            ReplyKind::SynAck(crate::module::SynAckInfo {
                options_text: "MSS".into(),
                mss: Some(1440),
                wscale: None,
                window: 100,
                timestamps: None,
            }),
        ));
        assert_eq!(r.responsive_count(), 1);
        assert_eq!(r.hit_rate(), 0.25);
    }

    #[test]
    fn multi_merge_builds_protosets() {
        let mut m = MultiScanResult::default();
        let mut icmp = ScanResult::new(Protocol::Icmp);
        icmp.replies.push(reply("::1", ReplyKind::EchoReply));
        m.merge(icmp);
        let mut dns = ScanResult::new(Protocol::Udp53);
        dns.replies.push(reply(
            "::1",
            ReplyKind::DnsResponse {
                rcode: 0,
                answers: 1,
            },
        ));
        m.merge(dns);
        let set = *m.responsive.get("::1".parse().unwrap()).unwrap();
        assert!(set.contains(Protocol::Icmp));
        assert!(set.contains(Protocol::Udp53));
        assert_eq!(set.len(), 2);
        assert_eq!(m.responsive.len(), 1);
    }

    #[test]
    fn empty_hit_rate_zero() {
        assert_eq!(ScanResult::new(Protocol::Icmp).hit_rate(), 0.0);
    }
}
