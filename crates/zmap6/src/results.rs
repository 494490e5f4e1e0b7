//! Scan result containers.

use crate::module::ReplyKind;
use expanse_addr::{addr_to_u128, AddrId};
use expanse_netsim::Time;
use expanse_packet::{ProtoSet, Protocol};
use std::collections::BTreeMap;
use std::iter::Peekable;
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
            runs.push(part.replies);
        }
        out.replies.reserve_exact(runs.iter().map(Vec::len).sum());
        merge_runs(
            runs,
            |r| r.target,
            |reply| {
                if out.replies.last().is_some_and(|r| r.target == reply.target) {
                    out.duplicates += 1;
                } else {
                    out.replies.push(reply);
                }
            },
        );
        out
    }
}

/// Merge `runs`, each ascending by `key`, handing every item to `fold`
/// once in key order; equal keys go in run order. Both run merges of
/// the crate go through it: a protocol's sub-shards
/// ([`ScanResult::from_shards`]) and the battery's responder run
/// ([`MultiScanResult::from_passes`]).
fn merge_runs<I: IntoIterator>(
    runs: impl IntoIterator<Item = I>,
    key: impl Fn(&I::Item) -> Ipv6Addr,
    mut fold: impl FnMut(I::Item),
) {
    let mut runs: Vec<Peekable<I::IntoIter>> = runs
        .into_iter()
        .map(|run| run.into_iter().peekable())
        .collect();
    let head = |run: &mut Peekable<I::IntoIter>| run.peek().map(|item| addr_to_u128(key(item)));
    // `(head key, run)` of every run not yet drained, in run order.
    // Take the least head each time; ties go to the earlier run.
    let mut heads: Vec<(u128, usize)> = runs
        .iter_mut()
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
        let item = runs[run].next().expect("a run with a head");
        match head(&mut runs[run]) {
            Some(next) => heads[least].0 = next,
            None => {
                heads.remove(least);
            }
        }
        fold(item);
    }
}

/// Merged results across protocols (the §6 battery).
#[derive(Debug, Clone)]
pub struct MultiScanResult {
    /// Per-protocol scan results.
    pub by_protocol: BTreeMap<Protocol, ScanResult>,
    /// Per-address positive protocol set: one run strictly ascending by
    /// address, each responder once, with the union of the protocols
    /// whose replies it answered positively.
    pub responsive: Vec<(Ipv6Addr, ProtoSet)>,
    /// Caller-domain ids of the responsive addresses, parallel to
    /// `responsive`: entry *i* is the resolved id of its *i*-th
    /// responder. Filled only by
    /// [`crate::Scanner::scan_battery_resolved`] (the pipeline resolves
    /// against its hitlist once per responder, instead of a hash lookup
    /// per reply); stays empty under plain
    /// [`MultiScanResult::from_passes`]. Excluded from equality — it
    /// mirrors `responsive`'s addresses through an external table,
    /// adding no information of its own.
    pub responsive_ids: Vec<AddrId>,
}

impl MultiScanResult {
    /// The battery's result from its protocol passes: each kept under
    /// its protocol (a later pass of the same protocol replaces an
    /// earlier one), and their positive replies, already sorted by
    /// target, merged into the responder run.
    pub fn from_passes(passes: impl IntoIterator<Item = ScanResult>) -> MultiScanResult {
        let by_protocol: BTreeMap<Protocol, ScanResult> =
            passes.into_iter().map(|r| (r.protocol, r)).collect();
        let mut responsive: Vec<(Ipv6Addr, ProtoSet)> = Vec::new();
        let runs = by_protocol.values().map(|r| {
            r.replies
                .iter()
                .filter(|reply| reply.kind.is_positive())
                .map(|reply| (reply.target, r.protocol))
        });
        merge_runs(
            runs,
            |&(a, _)| a,
            |(a, p)| match responsive.last_mut() {
                Some((last, set)) if *last == a => *set = set.with(p),
                _ => responsive.push((a, ProtoSet::only(p))),
            },
        );
        MultiScanResult {
            by_protocol,
            responsive,
            responsive_ids: Vec::new(),
        }
    }

    /// The day's `(id, protocols)` pairs in address order, zipping the
    /// resolved id column against the responder run.
    ///
    /// # Panics
    /// Panics if the result was not built by
    /// [`crate::Scanner::scan_battery_resolved`] (the columns must be
    /// parallel).
    pub fn resolved_pairs(&self) -> impl Iterator<Item = (AddrId, ProtoSet)> + '_ {
        assert_eq!(
            self.responsive_ids.len(),
            self.responsive.len(),
            "responsive_ids out of step with the responder run"
        );
        self.responsive_ids
            .iter()
            .copied()
            .zip(self.responsive.iter().map(|&(_, set)| set))
    }

    /// Move the responder run out (the per-protocol results stay). The
    /// daily pipeline hands it to the snapshot instead of cloning;
    /// compute [`MultiScanResult::digest`] first if the full digest is
    /// wanted.
    pub fn take_responsive(&mut self) -> Vec<(Ipv6Addr, ProtoSet)> {
        std::mem::take(&mut self.responsive)
    }

    /// Total probes sent across protocols.
    pub fn total_sent(&self) -> u64 {
        self.by_protocol.values().map(|r| r.sent).sum()
    }

    /// A canonical FNV-1a digest over every field of every reply, walked
    /// in place: protocols in `Protocol` order, each protocol's replies
    /// in target order, then the responder run. The encoding is
    /// injective (variable-length fields are length-prefixed), so equal
    /// results always produce equal digests and unequal results collide
    /// only at ordinary 64-bit hash odds; the fan-out determinism guard
    /// and the throughput bench compare this.
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
        h.eat(&(self.responsive.len() as u64).to_le_bytes());
        for (a, set) in &self.responsive {
            h.eat(&a.octets());
            h.eat(&[set.0]);
        }
        h.0
    }
}

/// Equality ignores [`MultiScanResult::responsive_ids`]: the id column
/// mirrors `responsive`'s addresses through an external table, so it
/// adds nothing to the content the digest and the determinism guards
/// compare (and a plain [`MultiScanResult::from_passes`] leaves it
/// empty).
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
        let mut icmp = ScanResult::new(Protocol::Icmp);
        icmp.replies.push(reply("::1", ReplyKind::EchoReply));
        icmp.replies.push(reply("::3", ReplyKind::EchoReply));
        let mut tcp = ScanResult::new(Protocol::Tcp80);
        tcp.replies.push(reply("::2", ReplyKind::Rst));
        let mut dns = ScanResult::new(Protocol::Udp53);
        dns.replies.push(reply(
            "::1",
            ReplyKind::DnsResponse {
                rcode: 0,
                answers: 1,
            },
        ));
        let m = MultiScanResult::from_passes([dns, tcp, icmp]);
        let both = ProtoSet::only(Protocol::Icmp).with(Protocol::Udp53);
        let icmp_only = ProtoSet::only(Protocol::Icmp);
        assert_eq!(
            m.responsive,
            [
                ("::1".parse().unwrap(), both),
                ("::3".parse().unwrap(), icmp_only)
            ]
        );
        assert_eq!(m.by_protocol.len(), 3);
    }

    #[test]
    fn empty_hit_rate_zero() {
        assert_eq!(ScanResult::new(Protocol::Icmp).hit_rate(), 0.0);
    }
}
