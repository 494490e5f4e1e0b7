//! The scan loop: permute targets, rate-limit sends, collect and
//! validate replies.
//!
//! # One job: collect, then order
//!
//! A scan never reacts to its replies. The targets of a job therefore
//! map to send slots, and the slots to send instants, before the first
//! probe leaves (`Job`); injecting a slot and classifying what comes
//! back is independent of every other slot unless the network keeps
//! state for the destination; and the receive side — a queue popped in
//! `(arrival time, push order)` — is a sort by `(arrival time, send
//! slot, index within the inject)` over what was collected. Both
//! callers run that one loop: a battery cell injects every answerable
//! slot into its own snapshot, and [`Scanner::scan`] spreads the
//! answerable slots over worker snapshots, keeping only the
//! [`Reach::Stateful`] destinations for the network itself, in send
//! order. The result does not depend on who injected what;
//! `tests/scan_pooled.rs` pins it to the serial loop's.
//!
//! # A layout decides each target once
//!
//! Which target takes which send slot — the keyed permutation walked
//! over one shard, blacklisted targets dropped — depends on `(targets,
//! seed, shard)` alone, and how far a slot's probe can reach on the
//! network's decision for its destination ([`SnapshotNetwork::decide`],
//! read by [`SnapshotNetwork::reach`] at the hop limit every module's
//! probe carries). A `Layout` works out both before any probe leaves:
//!
//! 1. the walk: the shard's permutation positions, in send order, as
//!    target indices;
//! 2. the classification: each of the shard's targets, in target order,
//!    is blacklisted, silent or answerable — the last with its
//!    decision. Target order, not send order: consecutive decisions
//!    search neighbouring parts of the network's tables;
//! 3. the stitch: the walk again, numbering the send slots (a
//!    blacklisted target takes none) and keeping the answerable ones
//!    only, as `(slot, destination, reach, decision)` in send order.
//!
//! Each step runs on the worker pool in contiguous ranges, of positions
//! or of targets, and the ranges' slot counts are stitched in order, so
//! the layout is the same on any worker count.
//!
//! A [`Reach::Silent`] slot — no frame to it is answered or changes any
//! state; for the simulated Internet, unrouted space and the addresses
//! nobody and nothing on the way answers — still counts as sent and
//! keeps its send instant, but no job walks it: its probe is neither
//! emitted nor injected, since its delivery list would be empty and the
//! result cannot tell. Most of an alias-detection fan-out is silent
//! (≈ 90 % of a full-APD day's targets), and the layout keeps neither a
//! slot nor a decision for it. `tests/silent_slots.rs` counts the frames
//! and the decisions.
//!
//! Every job over the same targets and shard would lay them out alike,
//! so a layout is shared: by the passes of one [`Scanner::scan_each`]
//! (APD's ICMP and TCP passes), and by the five battery cells of each
//! sub-shard. Between two passes the network itself sees only frames to
//! stateful destinations, and by [`Reach`]'s contract those change
//! nothing a silent or stateless destination's frames meet: the
//! decisions made before the first pass hold for the next.
//!
//! # The battery fan-out
//!
//! The multi-protocol battery ([`Scanner::scan_battery`]) is the
//! pipeline's hot path: every virtual day re-probes the whole non-aliased
//! hitlist once per protocol. It is decomposed into a **fixed grid of
//! independent jobs** — one per `(protocol, sub-shard)` pair, the
//! sub-shards carved by the same keyed permutation zmap uses for
//! `--shards` — and each job runs against its own snapshot of the
//! network starting from the same virtual instant. The decomposition is
//! fixed by the grid's constant eight sub-shards per protocol, not by
//! the worker count: the cells go through
//! [`expanse_addr::par::par_map_coarse`] like a single scan's slot
//! ranges, and come back in grid order, so the [`MultiScanResult`] is
//! the same on one worker or eight; the battery's unit tests sweep the
//! worker count against results recorded before the grid went onto
//! that pool.
//!
//! Each sub-shard's layout is built by whichever of its five cells runs
//! first, inside the pool and on that cell's worker alone, and shared by
//! the others: every cell answers each answerable slot's frame through
//! [`SnapshotNetwork::inject_decided`] with the slot's decision, so a
//! destination is decided once per day, not once per protocol. The
//! decisions are made against the network itself, which no cell's
//! snapshot changes, and a decision changes no answer (the
//! [`SnapshotNetwork`] contract), so which cell makes them cannot move
//! a result either.
//!
//! The price of independence is deliberate: destination-side middlebox
//! state (ICMP token buckets, SYN-proxy counters) is *private per job*,
//! whereas real concurrent scanners share the destination's middleboxes.
//! Each sub-shard therefore sees a fraction of the probe pressure —
//! e.g. eight sub-shards give a rate-limited prefix eight private token
//! buckets — so the sub-shard count is a results-affecting modeling
//! constant, not a free tuning parameter. The pipeline's paper-shape
//! tests pin it at 8; change it only alongside them.

use crate::blacklist::Blacklist;
use crate::module::ProbeModule;
use crate::permute::Permutation;
use crate::results::{MultiScanResult, ProbeReply, ScanResult};
use crate::validate::Validator;
use expanse_addr::addr_to_u128;
use expanse_addr::par::par_map_coarse;
use expanse_netsim::{Deliveries, Duration, Network, Reach, SnapshotNetwork, Time};
use expanse_packet::{Datagram, Protocol};
use std::net::Ipv6Addr;
use std::ops::Range;
use std::sync::OnceLock;

/// Probes per (virtual) second. The scanner is sans-IO: the rate only
/// stamps virtual send times.
const RATE_PPS: u64 = 100_000;
/// The hop limit every module's probe carries: what the scan loop asks
/// the network's [`SnapshotNetwork::reach`] about.
const PROBE_HOPS: u8 = Datagram::DEFAULT_HOP_LIMIT;
/// Virtual time between two consecutive probes.
const GAP: Duration = Duration(1_000_000_000 / RATE_PPS);
/// How long to keep listening after the last probe.
const COOLDOWN: Duration = Duration::from_secs(5);
/// Sub-shards each protocol pass of the battery is split into. Results
/// depend on this value (each sub-shard has its own virtual clock and
/// middlebox state), so it is part of the scan model, not an execution
/// detail.
const BATTERY_SHARDS: u64 = 8;

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Source address probes are sent from.
    pub src: Ipv6Addr,
    /// Scan secret (drives validation and the target permutation).
    pub seed: u64,
    /// Shard selection `(shard, total)`, zmap's `--shard/--shards`.
    pub shard: (u64, u64),
    /// Never-probe prefixes (§10.1 scanning ethics).
    pub blacklist: Blacklist,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            src: "2001:db8:ffff::1".parse().expect("valid vantage"),
            seed: 0x5ca9,
            shard: (0, 1),
            blacklist: Blacklist::default(),
        }
    }
}

/// A sans-IO scanner bound to a network.
pub struct Scanner<N: Network> {
    net: N,
    cfg: ScanConfig,
    clock: Time,
}

impl<N: Network> Scanner<N> {
    /// Create a new instance.
    pub fn new(net: N, cfg: ScanConfig) -> Self {
        Scanner {
            net,
            cfg,
            clock: Time::ZERO,
        }
    }

    /// Access the underlying network (e.g. to advance model days).
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.net
    }

    /// Shared access to the underlying network.
    pub fn network(&self) -> &N {
        &self.net
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock
    }

    /// Restore the virtual clock (snapshot resume). The clock is
    /// genuine cross-day state: every scan starts where the previous
    /// one ended, reply timestamps build on it, and the canonical
    /// battery digest hashes those timestamps — so a resumed pipeline
    /// must continue from the saved clock to stay byte-identical with
    /// an uninterrupted run.
    pub fn set_now(&mut self, t: Time) {
        self.clock = t;
    }
}

/// A layout's positions and targets, and a pass's answerable slots, go
/// onto the worker pool only at or above this many: below it the thread
/// spawns cost more than the work.
const POOL_MIN_SLOTS: usize = 4096;

/// `0..n` in contiguous ranges, one per worker — one below
/// [`POOL_MIN_SLOTS`].
fn ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let parts = if n < POOL_MIN_SLOTS {
        1
    } else {
        workers.max(1)
    };
    let per = n.div_ceil(parts).max(1);
    (0..n)
        .step_by(per)
        .map(|lo| lo..(lo + per).min(n))
        .collect()
}

/// A target's class in a layout: blacklisted, silent, or (any smaller
/// value) its rank among the layout's answerable targets in target
/// order. A target outside the shard is classed silent unread.
const BLACKLISTED: u32 = u32::MAX;
const SILENT: u32 = u32::MAX - 1;

/// One send slot the network did not prove silent.
struct Slot<D> {
    /// Its place in send order, which fixes when its probe leaves.
    at: u32,
    dst: Ipv6Addr,
    /// [`Reach::Stateless`] or [`Reach::Stateful`].
    reach: Reach,
    decision: D,
}

/// Which target takes which send slot in one shard of a scan, and which
/// slots can answer: worked out once, with one decision per target, and
/// shared by every job over the same targets and shard (see "A layout
/// decides each target once" above).
struct Layout<D> {
    /// Send slots: the shard's targets the blacklist left.
    sent: u64,
    /// Targets the blacklist suppressed; they take no slot.
    blacklisted: u64,
    /// The slots the network did not prove silent, in send order.
    answerable: Vec<Slot<D>>,
    /// The target list was empty: a job along this layout sends
    /// nothing and waits out no cooldown.
    idle: bool,
}

impl<D: Send + Sync> Layout<D> {
    /// Lay out shard `shard` of `shards` over `targets` on `workers`
    /// workers, deciding each of the shard's targets once on `net`.
    fn new<N: SnapshotNetwork<Decision = D> + Sync>(
        net: &N,
        cfg: &ScanConfig,
        targets: &[Ipv6Addr],
        (shard, shards): (u64, u64),
        workers: usize,
    ) -> Self {
        let mut layout = Layout {
            sent: 0,
            blacklisted: 0,
            answerable: Vec::new(),
            idle: targets.is_empty(),
        };
        if layout.idle {
            return layout;
        }
        assert!(
            targets.len() < SILENT as usize,
            "target list beyond u32 positions"
        );
        let perm = Permutation::new(targets.len() as u64, cfg.seed);

        // 1. The walk: the shard's target indices, in send order.
        let positions = ranges(perm.shard_len(shard, shards) as usize, workers);
        let order: Vec<u32> = par_map_coarse(&positions, workers, |ks| {
            let ks = ks.start as u64..ks.end as u64;
            perm.shard(shard, shards, ks)
                .map(|t| t as u32)
                .collect::<Vec<u32>>()
        })
        .concat();

        // 2. The classification, in target order, of the shard's targets
        // only: the `i`-th is `member(i)`, all targets unless the scan is
        // sharded.
        let members = (shards > 1).then(|| {
            let mut members = order.clone();
            members.sort_unstable();
            members
        });
        let member = |i: usize| members.as_ref().map_or(i as u32, |m| m[i]);
        let n_members = members.as_ref().map_or(targets.len(), Vec::len);
        let parts = par_map_coarse(&ranges(n_members, workers), workers, |ms| {
            let mut class = Vec::with_capacity(ms.len());
            let mut loud = Vec::new();
            for i in ms.clone() {
                let dst = targets[member(i) as usize];
                class.push(if cfg.blacklist.contains(dst) {
                    BLACKLISTED
                } else {
                    let decision = net.decide(dst);
                    match net.reach(dst, &decision, PROBE_HOPS) {
                        Reach::Silent => SILENT,
                        reach => {
                            loud.push(Some((reach, decision)));
                            loud.len() as u32 - 1
                        }
                    }
                });
            }
            (class, loud)
        });
        let mut class = vec![SILENT; targets.len()];
        let mut loud = Vec::new();
        let mut i = 0;
        for (part, part_loud) in parts {
            let first = loud.len() as u32;
            for c in part {
                class[member(i) as usize] = if c < SILENT { first + c } else { c };
                i += 1;
            }
            loud.extend(part_loud);
        }

        // 3. The stitch: the walk's send slots numbered, per range and
        // then across ranges in order, the answerable ones kept.
        let walks = par_map_coarse(&ranges(order.len(), workers), workers, |ps| {
            let (mut slots, mut blacklisted, mut kept) = (0u32, 0u64, Vec::new());
            for &t in &order[ps.clone()] {
                match class[t as usize] {
                    BLACKLISTED => blacklisted += 1,
                    SILENT => slots += 1,
                    rank => {
                        kept.push((slots, t, rank));
                        slots += 1;
                    }
                }
            }
            (slots, blacklisted, kept)
        });
        layout.answerable.reserve_exact(loud.len());
        for (slots, blacklisted, kept) in walks {
            let first = layout.sent as u32;
            layout
                .answerable
                .extend(kept.into_iter().map(|(at, t, rank)| {
                    let (reach, decision) =
                        loud[rank as usize].take().expect("a target takes one slot");
                    Slot {
                        at: first + at,
                        dst: targets[t as usize],
                        reach,
                        decision,
                    }
                }));
            layout.sent += u64::from(slots);
            layout.blacklisted += blacklisted;
        }
        layout
    }
}

/// One sub-shard of the battery grid: its `(shard, total)` selection and
/// its layout, built by whichever of its cells runs first — inside the
/// worker pool, not before it — and shared by the others.
struct SubShard<D> {
    shard: u64,
    total: u64,
    laid_out: OnceLock<Layout<D>>,
}

/// The send side of one scan job, fixed before the first probe leaves.
///
/// A scan never reacts to its replies, so which target takes which send
/// slot (the shared [`Layout`]), and the instant each slot's probe
/// leaves, are known up front: any part of the job can be injected
/// anywhere, in any order, as long as the network answers it the same —
/// and the receive side is a sort.
struct Job<'a, D> {
    cfg: &'a ScanConfig,
    module: &'a dyn ProbeModule,
    validator: Validator,
    layout: &'a Layout<D>,
    start: Time,
    /// The end of the cooldown after the last slot: later deliveries are
    /// never received. (An empty target list ends where it starts.)
    end: Time,
}

/// What injecting some of a job's slots brought back by the job's end.
#[derive(Default)]
struct Collected {
    received: u64,
    malformed: u64,
    unvalidated: u64,
    /// Where each validated reply goes, in push order.
    arrivals: Vec<Arrival>,
    /// The replies themselves, parallel to `arrivals`; each is taken
    /// exactly once when the job settles.
    replies: Vec<Option<ProbeReply>>,
}

/// A validated reply's place in the settled result, as a compact sort
/// key: by target, then in the order a receive queue pops — arrival
/// time, then push order (send slot, then order within that inject,
/// which `id` follows) — with `id` its ordinal among the replies the
/// job collected.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Arrival {
    target: u128,
    at: Time,
    slot: u32,
    id: u32,
}

impl<'a, D> Job<'a, D> {
    /// A job sending `module`'s probes along `layout` from `start`.
    fn new(
        cfg: &'a ScanConfig,
        start: Time,
        layout: &'a Layout<D>,
        module: &'a dyn ProbeModule,
    ) -> Self {
        let mut job = Job {
            cfg,
            module,
            validator: Validator::new(cfg.seed),
            layout,
            start,
            end: start,
        };
        if !layout.idle {
            job.end = job.clock(layout.sent) + COOLDOWN;
        }
        job
    }

    /// When slot `slot`'s probe leaves (`layout.sent`: the send loop's
    /// end).
    fn clock(&self, slot: u64) -> Time {
        self.start + Duration(GAP.0 * slot)
    }

    /// Emit each of `slots`' probes and hand it to `inject(decision,
    /// now, probe, out)` at its slot's clock; classify what comes back
    /// by the job's end.
    ///
    /// One probe buffer and one delivery buffer serve the whole walk, and
    /// replies are read through borrowed views: a probe whose reply is
    /// not kept allocates nothing once the buffers have grown.
    fn collect<'s>(
        &self,
        slots: impl Iterator<Item = &'s Slot<D>>,
        mut inject: impl FnMut(&D, Time, &[u8], &mut Deliveries),
    ) -> Collected
    where
        D: 's,
    {
        let mut out = Collected::default();
        let mut probe: Vec<u8> = Vec::new();
        let mut deliveries = Deliveries::new();
        for slot in slots {
            self.module
                .emit_probe(self.cfg.src, slot.dst, &self.validator, &mut probe);
            let now = self.clock(u64::from(slot.at));
            deliveries.clear();
            inject(&slot.decision, now, &probe, &mut deliveries);
            for (at, frame) in deliveries.iter() {
                debug_assert!(at >= now, "delivery before its probe left");
                if at > self.end {
                    continue;
                }
                out.received += 1;
                let Ok((hdr, transport)) = Datagram::parse_transport(frame) else {
                    out.malformed += 1;
                    continue;
                };
                let Some((target, kind)) = self.module.classify(&hdr, &transport, &self.validator)
                else {
                    out.unvalidated += 1;
                    continue;
                };
                out.arrivals.push(Arrival {
                    target: addr_to_u128(target),
                    at,
                    slot: slot.at,
                    id: out.replies.len() as u32,
                });
                out.replies.push(Some(ProbeReply {
                    target,
                    from: hdr.src,
                    at,
                    ttl: hdr.hop_limit,
                    kind,
                }));
            }
        }
        out
    }

    /// Put the collected parts in receive order and settle the result.
    /// Returns it with the job's end time.
    ///
    /// Settling is one sort of compact [`Arrival`] keys — a receive queue
    /// pops in arrival order, ties in push order, and the first reply
    /// per target wins — after which each reply moves once, into place.
    fn finish(self, mut parts: Vec<Collected>) -> (ScanResult, Time) {
        let mut result = ScanResult::new(self.module.protocol());
        result.sent = self.layout.sent;
        result.answerable = self.layout.answerable.len() as u64;
        result.blacklisted = self.layout.blacklisted;
        // `firsts[p]`: the ordinal of part `p`'s first reply among all.
        let mut firsts = Vec::with_capacity(parts.len());
        let mut keys = Vec::with_capacity(parts.iter().map(|p| p.replies.len()).sum());
        for c in &parts {
            result.received += c.received;
            result.malformed += c.malformed;
            result.unvalidated += c.unvalidated;
            let first = u32::try_from(keys.len()).expect("replies beyond u32 ordinals");
            firsts.push(first);
            keys.extend(c.arrivals.iter().map(|a| Arrival {
                id: first + a.id,
                ..*a
            }));
        }
        keys.sort_unstable();
        let pushed = keys.len();
        keys.dedup_by_key(|k| k.target);
        result.duplicates = (pushed - keys.len()) as u64;
        result.replies = keys
            .iter()
            .map(|k| {
                let part = firsts.partition_point(|&f| f <= k.id) - 1;
                parts[part].replies[(k.id - firsts[part]) as usize]
                    .take()
                    .expect("each reply settles once")
            })
            .collect();
        (result, self.end)
    }
}

impl<N: SnapshotNetwork + Sync> Scanner<N> {
    /// Scan `targets` with one module: probes leave in permuted order
    /// at the configured rate, one send slot each (blacklisted targets
    /// take none), and replies are validated statelessly.
    ///
    /// Replies are received in the order `(arrival time, send slot,
    /// index within that probe's deliveries)` up to the end of the
    /// cooldown, and the first validated reply per target wins. That
    /// order is all a result depends on, so a job of 4096 answerable
    /// slots or more (the slots [`Reach::Silent`] leaves) is spread over
    /// [`expanse_addr::worker_threads`] workers — each walks a
    /// contiguous range of them against its own snapshot — except for
    /// the probes to [`Reach::Stateful`] destinations, which reach the
    /// network itself afterwards, in send order with their original
    /// clocks: middlebox state ends the scan where a one-thread walk
    /// leaves it, and the result is identical for any worker count.
    /// Probes to silent destinations take their slot but are never
    /// sent. The network must not deliver a frame before the `now` of
    /// the inject that caused it.
    pub fn scan(&mut self, targets: &[Ipv6Addr], module: &dyn ProbeModule) -> ScanResult {
        self.scan_pooled(expanse_addr::worker_threads(), targets, module)
    }

    /// [`Scanner::scan`] with each module in turn, every scan starting
    /// where the previous one ended — exactly what that many `scan`
    /// calls return — over one layout: each target is decided once, not
    /// once per module (see the module docs, "A layout decides each
    /// target once").
    pub fn scan_each<const M: usize>(
        &mut self,
        targets: &[Ipv6Addr],
        modules: [&dyn ProbeModule; M],
    ) -> [ScanResult; M] {
        self.scan_each_pooled(expanse_addr::worker_threads(), targets, modules)
    }

    /// [`Scanner::scan_each`] on `workers` workers.
    fn scan_each_pooled<const M: usize>(
        &mut self,
        workers: usize,
        targets: &[Ipv6Addr],
        modules: [&dyn ProbeModule; M],
    ) -> [ScanResult; M] {
        let layout = Layout::new(&self.net, &self.cfg, targets, self.cfg.shard, workers);
        modules.map(|module| self.pass(workers, &layout, module))
    }

    /// [`Scanner::scan`] on `workers` workers.
    fn scan_pooled(
        &mut self,
        workers: usize,
        targets: &[Ipv6Addr],
        module: &dyn ProbeModule,
    ) -> ScanResult {
        let [result] = self.scan_each_pooled(workers, targets, [module]);
        result
    }

    /// One pass of [`Scanner::scan_each_pooled`] along its layout: the
    /// stateless slots in contiguous ranges on `workers` workers, each
    /// range against its own snapshot, then the stateful slots on the
    /// network itself, in send order.
    fn pass(
        &mut self,
        workers: usize,
        layout: &Layout<N::Decision>,
        module: &dyn ProbeModule,
    ) -> ScanResult {
        let job = Job::new(&self.cfg, self.clock, layout, module);
        let slots = &layout.answerable;
        let net = &self.net;
        let mut parts = par_map_coarse(&ranges(slots.len(), workers), workers, |range| {
            let mut snap = net.snapshot();
            job.collect(
                slots[range.clone()]
                    .iter()
                    .filter(|s| s.reach == Reach::Stateless),
                |decision, now, probe, out| {
                    N::inject_decided(&mut snap, decision, now, probe, out);
                },
            )
        });
        let net = &mut self.net;
        parts.push(job.collect(
            slots.iter().filter(|s| s.reach == Reach::Stateful),
            |_, now, probe, out| net.inject_into(now, probe, out),
        ));
        let (result, end) = job.finish(parts);
        self.clock = end;
        result
    }

    /// The multi-protocol battery over `targets`: the `(module,
    /// sub-shard)` grid (see "The battery fan-out" above) on
    /// [`expanse_addr::worker_threads`] workers, folded in module
    /// order. The clock advances to the slowest cell's end.
    pub fn scan_battery(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> MultiScanResult {
        let passes = self.battery_passes(expanse_addr::worker_threads(), targets, modules);
        self.merge_battery(passes)
    }

    /// [`Scanner::scan_battery`], then each responder resolved to a
    /// caller-domain id, in the responder run's address order, into
    /// [`MultiScanResult::responsive_ids`] — the pipeline passes its
    /// hitlist lookup here, so it runs once per responder. The resolver
    /// runs after the grid is back, so it needs no synchronization.
    pub fn scan_battery_resolved(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
        resolve: &mut dyn FnMut(Ipv6Addr) -> expanse_addr::AddrId,
    ) -> MultiScanResult {
        let mut multi = self.scan_battery(targets, modules);
        multi.responsive_ids = multi.responsive.iter().map(|&(a, _)| resolve(a)).collect();
        multi
    }

    /// One result per module — its sub-shards' cells joined, in
    /// sub-shard order — with the `(module, sub-shard)` grid mapped
    /// over `workers` workers. A module's sub-shards are adjacent in the
    /// grid, modules in order; every cell runs against its own snapshot
    /// of the network, so which worker runs a cell, and when, cannot
    /// change it.
    fn battery_passes(
        &self,
        workers: usize,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> Vec<(ScanResult, Time)> {
        let subs: Vec<SubShard<N::Decision>> = self
            .battery_shards()
            .into_iter()
            .map(|(shard, total)| SubShard {
                shard,
                total,
                laid_out: OnceLock::new(),
            })
            .collect();
        let grid: Vec<(&dyn ProbeModule, &SubShard<N::Decision>)> = modules
            .iter()
            .flat_map(|module| subs.iter().map(move |sub| (module.as_ref(), sub)))
            .collect();
        let mut cells = par_map_coarse(&grid, workers, |&(module, sub)| {
            self.battery_cell(targets, sub, module)
        })
        .into_iter();
        modules
            .iter()
            .map(|module| join_pass(module.protocol(), cells.by_ref().take(subs.len())))
            .collect()
    }

    /// One battery cell: `module` along sub-shard `sub`'s layout (laid
    /// out here, on this worker alone, if no other cell of the sub-shard
    /// has yet), every answerable slot answered with its decision by a
    /// fresh snapshot of the network, starting at the scanner's clock.
    /// Pure in its inputs — this is the unit the battery fan-out
    /// distributes.
    fn battery_cell(
        &self,
        targets: &[Ipv6Addr],
        sub: &SubShard<N::Decision>,
        module: &dyn ProbeModule,
    ) -> (ScanResult, Time) {
        let net = &self.net;
        let layout = sub
            .laid_out
            .get_or_init(|| Layout::new(net, &self.cfg, targets, (sub.shard, sub.total), 1));
        let job = Job::new(&self.cfg, self.clock, layout, module);
        let mut snap = net.snapshot();
        let all = job.collect(layout.answerable.iter(), |decision, now, probe, out| {
            N::inject_decided(&mut snap, decision, now, probe, out);
        });
        job.finish(vec![all])
    }

    /// The sub-shards every protocol pass is split into, as `(shard,
    /// total)`: composing the configured zmap-level shard selection with
    /// the fan-out's [`BATTERY_SHARDS`] per-protocol sub-shards. For
    /// outer selection `(s, T)` and `J` sub-shards, sub-shard `j` walks
    /// permutation positions `i` with `i ≡ s + T·j (mod T·J)` — a
    /// partition of the outer shard's positions.
    fn battery_shards(&self) -> Vec<(u64, u64)> {
        let (shard, shards) = self.cfg.shard;
        (0..BATTERY_SHARDS)
            .map(|j| (shard + shards * j, shards * BATTERY_SHARDS))
            .collect()
    }

    /// Fold the per-module passes into one [`MultiScanResult`]
    /// ([`MultiScanResult::from_passes`]); the scanner clock advances to
    /// the slowest cell's end time, like a barrier over parallel zmap
    /// processes.
    fn merge_battery(&mut self, passes: Vec<(ScanResult, Time)>) -> MultiScanResult {
        let mut end = self.clock;
        let multi = MultiScanResult::from_passes(passes.into_iter().map(|(pass, pass_end)| {
            end = end.max(pass_end);
            pass
        }));
        self.clock = end;
        multi
    }
}

/// One protocol's pass from its sub-shards' cells, in sub-shard order:
/// the results joined ([`ScanResult::from_shards`]) and the latest end.
fn join_pass(
    protocol: Protocol,
    cells: impl Iterator<Item = (ScanResult, Time)>,
) -> (ScanResult, Time) {
    let mut end = Time::ZERO;
    let parts = cells
        .map(|(part, cell_end)| {
            end = end.max(cell_end);
            part
        })
        .collect();
    (ScanResult::from_shards(protocol, parts), end)
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{IcmpEchoModule, ReplyKind, TcpSynModule};
    use expanse_model::{InternetModel, ModelConfig};

    fn scanner() -> Scanner<InternetModel> {
        let model = InternetModel::build(ModelConfig::tiny(21));
        Scanner::new(model, ScanConfig::default())
    }

    #[test]
    fn scans_aliased_prefix_fully() {
        let mut s = scanner();
        let p48 = s.network_mut().population().special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..50u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let r = s.scan(&targets, &IcmpEchoModule);
        assert_eq!(r.sent, 50);
        // Aliased: nearly everything answers (minus base loss).
        assert!(r.replies.len() >= 40, "{} replies", r.replies.len());
        assert!(r.replies.iter().all(|rep| rep.kind.is_positive()));
        assert_eq!(r.malformed, 0);
        assert_eq!(r.unvalidated, 0);
    }

    #[test]
    fn ghost_targets_no_response() {
        let mut s = scanner();
        // Unrouted space.
        let targets: Vec<Ipv6Addr> = (0..20u64)
            .map(|i| expanse_addr::u128_to_addr((0x3fffu128 << 112) | u128::from(i)))
            .collect();
        let r = s.scan(&targets, &IcmpEchoModule);
        assert_eq!(r.sent, 20);
        assert!(r.replies.is_empty());
    }

    #[test]
    fn tcp_scan_of_alias_returns_synacks() {
        let mut s = scanner();
        let p48 = s.network_mut().population().special.cdn_hook_48s[1];
        let targets: Vec<Ipv6Addr> = (0..30u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let r = s.scan(&targets, &TcpSynModule::with_synopt(80));
        assert!(r.replies.len() >= 20, "{}", r.replies.len());
        for rep in &r.replies {
            match &rep.kind {
                ReplyKind::SynAck(info) => {
                    assert!(!info.options_text.is_empty());
                }
                other => panic!("expected SYN-ACK, got {other:?}"),
            }
        }
    }

    #[test]
    fn shards_cover_disjoint_targets() {
        let model = InternetModel::build(ModelConfig::tiny(21));
        let p48 = model.population().special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..40u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();

        let mut sent_total = 0;
        for shard in 0..3u64 {
            let model = InternetModel::build(ModelConfig::tiny(21));
            let mut s = Scanner::new(
                model,
                ScanConfig {
                    shard: (shard, 3),
                    ..ScanConfig::default()
                },
            );
            let r = s.scan(&targets, &IcmpEchoModule);
            sent_total += r.sent;
        }
        assert_eq!(sent_total, 40);
    }

    #[test]
    fn battery_merges_protocols() {
        let mut s = scanner();
        let p48 = s.network_mut().population().special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..20u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let multi = s.scan_battery(&targets, &crate::module::standard_battery());
        // Aliased CDN hooks answer ICMP + TCP80 + TCP443 but not DNS.
        let get = |p: Protocol| multi.by_protocol[&p].responsive().count();
        assert!(get(Protocol::Icmp) >= 15);
        assert!(get(Protocol::Tcp80) >= 15);
        assert_eq!(get(Protocol::Udp53), 0);
        // Per-address protocol sets populated.
        let any = multi.responsive.first().unwrap();
        assert!(any.1.len() >= 2, "{:?}", any);
    }

    /// The battery over 200 targets of an aliased hook: its digest,
    /// probes sent and end clock (ns), recorded on the commit before the
    /// grid went onto `par_map_coarse`, where the one-thread and
    /// worker-pool executors agreed.
    const RECORDED_HOOK_BATTERY: (u64, u64, u64) =
        (16_902_901_003_111_753_134, 1_000, 5_000_250_000);

    #[test]
    fn battery_matches_recorded() {
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population()
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..200u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let model = InternetModel::build(ModelConfig::tiny(21));
        let mut s = Scanner::new(model, ScanConfig::default());
        let multi = s.scan_battery(&targets, &crate::module::standard_battery());
        assert_eq!(
            (multi.digest(), multi.total_sent(), s.now().0),
            RECORDED_HOOK_BATTERY
        );
    }

    #[test]
    fn battery_composes_with_outer_zmap_shards() {
        // Multi-instance scanning: three scanner instances with
        // shard=(s,3), each sub-sharded by the battery grid. The composed grid
        // (`shard + shards·j` of `shards·per`) must still partition the
        // target set — every target probed exactly once per protocol
        // across the instances, none double-probed or skipped.
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population()
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..41u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let battery = crate::module::standard_battery();
        let mut sent_per_protocol: std::collections::BTreeMap<Protocol, u64> =
            std::collections::BTreeMap::new();
        let mut seen: std::collections::BTreeMap<Protocol, Vec<Ipv6Addr>> =
            std::collections::BTreeMap::new();
        for shard in 0..3u64 {
            let model = InternetModel::build(ModelConfig::tiny(21));
            let cfg = ScanConfig {
                shard: (shard, 3),
                ..ScanConfig::default()
            };
            let mut s = Scanner::new(model, cfg);
            let multi = s.scan_battery(&targets, &battery);
            for (p, r) in &multi.by_protocol {
                *sent_per_protocol.entry(*p).or_default() += r.sent;
                seen.entry(*p)
                    .or_default()
                    .extend(r.replies.iter().map(|rep| rep.target));
            }
        }
        for (p, sent) in &sent_per_protocol {
            assert_eq!(*sent, 41, "protocol {p:?} probes must partition");
        }
        for (p, replies) in &mut seen {
            let before = replies.len();
            replies.sort();
            replies.dedup();
            assert_eq!(before, replies.len(), "{p:?}: a target answered twice");
        }
    }

    #[test]
    fn battery_shards_partition_sends() {
        // Every target is probed exactly once per protocol (the grid
        // partitions the permutation).
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population()
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..37u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let model = InternetModel::build(ModelConfig::tiny(21));
        let mut s = Scanner::new(model, ScanConfig::default());
        let multi = s.scan_battery(&targets, &crate::module::standard_battery());
        for r in multi.by_protocol.values() {
            assert_eq!(r.sent, 37, "protocol {:?}", r.protocol);
        }
    }

    /// The configuration the worker sweeps scan a target mix with:
    /// shard 1 of 3, the mix's prefixes blacklisted.
    fn mix_config(blacklisted: Vec<expanse_addr::Prefix>) -> ScanConfig {
        ScanConfig {
            shard: (1, 3),
            blacklist: blacklisted.into_iter().collect(),
            ..ScanConfig::default()
        }
    }

    /// `tests/scan_pooled.rs` at explicit worker counts: the whole
    /// `ScanResult` of each of the four scans and the clocks between
    /// them are the same for 1, 2, 3 and 8 workers, and fingerprint to
    /// what the serial loop left on the parent commit; `scan_each` of
    /// the first two modules returns the first two scans on any count.
    fn sweep_workers<N: SnapshotNetwork + Sync>(
        build: impl Fn() -> N,
        (targets, blacklisted): (Vec<Ipv6Addr>, Vec<expanse_addr::Prefix>),
        recorded: common::Fingerprint,
    ) {
        let cfg = mix_config(blacklisted);
        let tcp = TcpSynModule::with_synopt(80);
        let modules: [&dyn ProbeModule; 4] = [&IcmpEchoModule, &tcp, &IcmpEchoModule, &tcp];
        let run = |workers: usize| -> Vec<(ScanResult, Time)> {
            let mut s = Scanner::new(build(), cfg.clone());
            let scan = |m: &&dyn ProbeModule| (s.scan_pooled(workers, &targets, *m), s.now());
            modules.iter().map(scan).collect()
        };
        let one = run(1);
        assert!(
            one[0].0.answerable as usize >= POOL_MIN_SLOTS,
            "below the floor"
        );
        assert!(one[0].0.blacklisted > 0 && one[0].0.duplicates > 0);
        let digest = |r: &ScanResult| MultiScanResult::from_passes([r.clone()]).digest();
        let (d, t) = (|i: usize| digest(&one[i].0), |i: usize| one[i].1 .0);
        assert_eq!([d(0), d(1), t(1), d(2), d(3), t(3)], recorded);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), one, "workers={workers}");
        }
        // Both passes share one layout: the blacklist count, duplicates,
        // deferred stateful slots and clock must still match.
        for workers in [1, 2, 3, 8] {
            let mut s = Scanner::new(build(), cfg.clone());
            let [icmp, tcp] = s.scan_each_pooled(workers, &targets, [modules[0], modules[1]]);
            assert_eq!(
                (&icmp, &tcp, s.now()),
                (&one[0].0, &one[1].0, one[1].1),
                "scan_each, workers={workers}"
            );
        }
    }

    /// Does `net` leave frames to `dst` to the network itself?
    fn stateful<N: SnapshotNetwork>(net: &N, dst: Ipv6Addr) -> bool {
        net.reach(dst, &net.decide(dst), PROBE_HOPS) == Reach::Stateful
    }

    #[test]
    fn pooled_scan_is_worker_count_independent() {
        let net = common::plain();
        let mix = common::mix(&net);
        let stateful = mix.0.iter().filter(|t| stateful(&net, **t)).count();
        assert!((500..mix.0.len() / 8).contains(&stateful), "{stateful}");
        sweep_workers(common::plain, mix, common::RECORDED_PLAIN);
    }

    #[test]
    fn pooled_scan_keeps_throttled_64s_in_send_order() {
        let net = common::adversarial();
        let p64 = net.scenario().throttled[0];
        assert!(stateful(&net, p64.addr_at(1)));
        let mix = common::mix(&net);
        sweep_workers(common::adversarial, mix, common::RECORDED_ADVERSARIAL);
    }

    /// Two batteries back to back over a world's target mix
    /// ([`mix_config`]): per battery its digest, probes sent and the
    /// clock after it. Recorded on the commit before the grid
    /// went onto `par_map_coarse`, where the one-thread and worker-pool
    /// executors agreed.
    type BatteryFingerprint = [u64; 6];
    const RECORDED_BATTERY_PLAIN: BatteryFingerprint = [
        11_458_194_885_761_383_009,
        61_445,
        5_015_410_000,
        3_214_360_779_333_795_516,
        61_445,
        10_030_820_000,
    ];
    const RECORDED_BATTERY_ADVERSARIAL: BatteryFingerprint = [
        4_303_127_825_968_148_511,
        62_060,
        5_015_560_000,
        17_872_716_209_054_444_964,
        62_060,
        10_031_120_000,
    ];

    /// The battery grid on 1, 2, 3 and 8 workers: every pass of both
    /// batteries is equal across worker counts, and the batteries match
    /// their recorded fingerprint.
    fn sweep_battery_workers(build: impl Fn() -> InternetModel, recorded: BatteryFingerprint) {
        let (targets, blacklisted) = common::mix(&build());
        let cfg = mix_config(blacklisted);
        let battery = crate::module::standard_battery();
        let run = |workers: usize| {
            let mut s = Scanner::new(build(), cfg.clone());
            let mut day = || {
                let passes = s.battery_passes(workers, &targets, &battery);
                let multi = s.merge_battery(passes.clone());
                (passes, multi.digest(), multi.total_sent(), s.now().0)
            };
            [day(), day()]
        };
        let one = run(1);
        let [(_, d1, n1, t1), (_, d2, n2, t2)] = &one;
        assert_eq!([*d1, *n1, *t1, *d2, *n2, *t2], recorded);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), one, "workers={workers}");
        }
    }

    #[test]
    fn battery_is_worker_count_independent() {
        sweep_battery_workers(common::plain, RECORDED_BATTERY_PLAIN);
    }

    #[test]
    fn battery_is_worker_count_independent_on_the_adversarial_world() {
        sweep_battery_workers(common::adversarial, RECORDED_BATTERY_ADVERSARIAL);
    }

    #[test]
    fn empty_target_list_takes_no_time() {
        let mut s = scanner();
        let r = s.scan(&[], &IcmpEchoModule);
        assert_eq!(r, ScanResult::new(Protocol::Icmp));
        assert_eq!(s.now(), Time::ZERO, "no probes, no cooldown");
    }

    #[test]
    fn virtual_time_advances_with_rate() {
        let model = InternetModel::build(ModelConfig::tiny(21));
        let mut s = Scanner::new(model, ScanConfig::default());
        let p48 = s.network_mut().population().special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..100u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let before = s.now();
        s.scan(&targets, &IcmpEchoModule);
        let elapsed = s.now() - before;
        // 100 probes at `RATE_PPS` = 1 ms, then the cooldown.
        assert_eq!(elapsed, Duration::from_millis(1) + COOLDOWN);
    }
}
