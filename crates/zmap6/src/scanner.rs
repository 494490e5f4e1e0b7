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
//! callers run that one loop: a battery cell injects every slot into
//! its own snapshot, and [`Scanner::scan`] spreads the slots over
//! worker snapshots, keeping only the
//! [`stateful`](SnapshotNetwork::stateful) destinations for the network
//! itself, in send order. The result does not depend on who injected
//! what; `tests/scan_pooled.rs` pins it to the serial loop's.
//!
//! # The battery fan-out
//!
//! The multi-protocol battery ([`Scanner::scan_battery`]) is the
//! pipeline's hot path: every virtual day re-probes the whole non-aliased
//! hitlist once per protocol. It is decomposed into a **fixed grid of
//! independent jobs** — one per `(protocol, sub-shard)` pair, the
//! sub-shards carved by the same keyed permutation zmap uses for
//! `--shards` — and each job runs against its own snapshot of the
//! network starting from the same virtual instant. Because the
//! decomposition is fixed by [`Fanout`] (not by the executing thread
//! count), a worker pool and a sequential loop ([`Fanout::parallel`]
//! picks) produce **identical** [`MultiScanResult`]s;
//! `tests/fanout_determinism.rs` in `expanse-core` holds that
//! guarantee.
//!
//! The price of independence is deliberate: destination-side middlebox
//! state (ICMP token buckets, SYN-proxy counters) is *private per job*,
//! whereas real concurrent scanners share the destination's middleboxes.
//! Each sub-shard therefore sees a fraction of the probe pressure —
//! e.g. eight sub-shards give a rate-limited prefix eight private token
//! buckets — so `shards_per_protocol` is a results-affecting modeling
//! knob, not a free tuning parameter. The pipeline's paper-shape tests
//! pin the default (8); change it only alongside them.

use crate::blacklist::Blacklist;
use crate::module::ProbeModule;
use crate::permute::Permutation;
use crate::results::{MultiScanResult, ProbeReply, ScanResult};
use crate::validate::Validator;
use expanse_netsim::{Duration, Network, SnapshotNetwork, Time};
use expanse_packet::{Datagram, Protocol};
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the multi-protocol battery decomposes and executes.
///
/// The decomposition (`shards_per_protocol`) fixes the *work grid* and
/// therefore the results; `parallel` only chooses whether a worker pool
/// or a sequential loop walks that grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanout {
    /// Sub-shards each protocol pass is split into. Results depend on
    /// this value (each sub-shard has its own virtual clock), so it is
    /// part of the scan configuration, not an execution detail.
    pub shards_per_protocol: u64,
    /// Execute the grid on a worker pool sized to the machine. `false`
    /// walks the identical grid serially — same results, one core.
    pub parallel: bool,
}

impl Default for Fanout {
    fn default() -> Self {
        Fanout {
            shards_per_protocol: 8,
            parallel: true,
        }
    }
}

impl Fanout {
    /// A serial executor over the same grid (for A/B determinism checks
    /// and single-core baselines).
    pub fn serial(self) -> Self {
        Fanout {
            parallel: false,
            ..self
        }
    }
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Source address probes are sent from.
    pub src: Ipv6Addr,
    /// Probes per (virtual) second.
    pub rate_pps: u64,
    /// Scan secret (drives validation and the target permutation).
    pub seed: u64,
    /// How long to keep listening after the last probe.
    pub cooldown: Duration,
    /// Shard selection `(shard, total)`, zmap's `--shard/--shards`.
    pub shard: (u64, u64),
    /// Never-probe prefixes (§10.1 scanning ethics).
    pub blacklist: Blacklist,
    /// Battery decomposition and execution policy.
    pub fanout: Fanout,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            src: "2001:db8:ffff::1".parse().expect("valid vantage"),
            rate_pps: 100_000,
            seed: 0x5ca9,
            cooldown: Duration::from_secs(5),
            shard: (0, 1),
            blacklist: Blacklist::new(),
            fanout: Fanout::default(),
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

    /// The scan configuration.
    pub fn config(&self) -> &ScanConfig {
        &self.cfg
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

/// A single job goes onto the worker pool only at or above this many
/// send slots (the floor `AliasFilter::split_set` uses): below it the
/// thread spawns cost more than the probes.
const POOL_MIN_SLOTS: usize = 4096;

/// The send side of one scan job, fixed before the first probe leaves.
///
/// A scan never reacts to its replies, so which target takes which send
/// slot, and the instant each slot's probe leaves, are known up front:
/// any part of the job can be injected anywhere, in any order, as long
/// as the network answers it the same — and the receive side is a sort.
struct Job<'a> {
    cfg: &'a ScanConfig,
    module: &'a dyn ProbeModule,
    validator: Validator,
    targets: &'a [Ipv6Addr],
    /// Target index per send slot, in permuted shard order.
    slots: Vec<u32>,
    /// Targets the blacklist suppressed; they take no slot.
    blacklisted: u64,
    start: Time,
    gap: Duration,
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
    /// Validated replies, each with its place in the receive queue's
    /// tie-break order: `(send slot, index within that inject)`.
    replies: Vec<(usize, usize, ProbeReply)>,
    /// Slots left to the caller because their destination is stateful.
    deferred: Vec<usize>,
}

impl<'a> Job<'a> {
    /// Lay out shard `shard` of `shards` over `targets`.
    fn new(
        cfg: &'a ScanConfig,
        start: Time,
        targets: &'a [Ipv6Addr],
        module: &'a dyn ProbeModule,
        shard: u64,
        shards: u64,
    ) -> Self {
        let mut job = Job {
            cfg,
            module,
            validator: Validator::new(cfg.seed),
            targets,
            slots: Vec::new(),
            blacklisted: 0,
            start,
            gap: Duration(1_000_000_000 / cfg.rate_pps.max(1)),
            end: start,
        };
        if targets.is_empty() {
            return job;
        }
        assert!(
            u32::try_from(targets.len()).is_ok(),
            "target list beyond u32 positions"
        );
        let perm = Permutation::new(targets.len() as u64, cfg.seed);
        let positions = perm.shard(shard, shards);
        // The walk's length is known: one allocation, not a doubling
        // chain (a cell lays out its job on a fresh worker thread).
        job.slots.reserve_exact(positions.size_hint().0);
        for idx in positions {
            if cfg.blacklist.contains(targets[idx as usize]) {
                job.blacklisted += 1;
            } else {
                job.slots.push(idx as u32);
            }
        }
        job.end = job.clock(job.slots.len()) + cfg.cooldown;
        job
    }

    /// When slot `slot`'s probe leaves (`slots.len()`: the send loop's end).
    fn clock(&self, slot: usize) -> Time {
        self.start + Duration(self.gap.0 * slot as u64)
    }

    /// Inject `slots` into `net`, each at its own clock, and classify
    /// what comes back by the job's end. Slots whose destination `defer`
    /// claims are skipped and handed back instead.
    fn collect<M: Network>(
        &self,
        net: &mut M,
        slots: impl Iterator<Item = usize>,
        defer: impl Fn(Ipv6Addr) -> bool,
    ) -> Collected {
        let mut out = Collected::default();
        // Every probe of the walk is emitted into this one buffer.
        let mut frame: Vec<u8> = Vec::new();
        for slot in slots {
            let dst = self.targets[self.slots[slot] as usize];
            if defer(dst) {
                out.deferred.push(slot);
                continue;
            }
            self.module
                .emit_probe(self.cfg.src, dst, &self.validator, &mut frame);
            let now = self.clock(slot);
            for (nth, d) in net.inject(now, &frame).into_iter().enumerate() {
                debug_assert!(d.at >= now, "delivery before its probe left");
                if d.at > self.end {
                    continue;
                }
                out.received += 1;
                let Ok((hdr, transport)) = Datagram::parse_transport(&d.frame) else {
                    out.malformed += 1;
                    continue;
                };
                let Some((target, kind)) = self.module.classify(&hdr, &transport, &self.validator)
                else {
                    out.unvalidated += 1;
                    continue;
                };
                let reply = ProbeReply {
                    target,
                    from: hdr.src,
                    at: d.at,
                    ttl: hdr.hop_limit,
                    kind,
                };
                out.replies.push((slot, nth, reply));
            }
        }
        out
    }

    /// Put the collected parts in receive order and settle the result.
    /// Returns it with the job's end time.
    fn finish(self, parts: Vec<Collected>) -> (ScanResult, Time) {
        let mut result = ScanResult::new(self.module.protocol());
        result.sent = self.slots.len() as u64;
        result.blacklisted = self.blacklisted;
        let mut arrivals = Vec::with_capacity(parts.iter().map(|p| p.replies.len()).sum());
        for mut part in parts {
            result.received += part.received;
            result.malformed += part.malformed;
            result.unvalidated += part.unvalidated;
            arrivals.append(&mut part.replies);
        }
        // The order a receive queue pops in: arrival time, ties in push
        // order — and pushes happen slot by slot, delivery by delivery.
        arrivals.sort_unstable_by_key(|(slot, nth, reply)| (reply.at, *slot, *nth));
        result.replies = arrivals.into_iter().map(|(_, _, reply)| reply).collect();
        // First reply wins (zmap dedup); duplicates are counted.
        result.settle();
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
    /// order is all a result depends on, so a job of 4096 send slots
    /// or more is spread over [`expanse_addr::worker_threads`] workers —
    /// each walks a contiguous range of slots against its own snapshot
    /// — except for the probes to [`SnapshotNetwork::stateful`]
    /// destinations, which reach the network itself afterwards, in send
    /// order with their original clocks: middlebox state ends the scan
    /// where a one-thread walk leaves it, and the result is identical
    /// for any worker count. The network must not deliver a frame
    /// before the `now` of the inject that caused it.
    pub fn scan(&mut self, targets: &[Ipv6Addr], module: &dyn ProbeModule) -> ScanResult {
        self.scan_pooled(expanse_addr::worker_threads(), targets, module)
    }

    /// [`Scanner::scan`] on `workers` workers.
    fn scan_pooled(
        &mut self,
        workers: usize,
        targets: &[Ipv6Addr],
        module: &dyn ProbeModule,
    ) -> ScanResult {
        let (shard, shards) = self.cfg.shard;
        let job = Job::new(&self.cfg, self.clock, targets, module, shard, shards);
        let n = job.slots.len();
        let n_ranges = if n < POOL_MIN_SLOTS {
            1
        } else {
            workers.max(1)
        };
        let per_range = n.div_ceil(n_ranges).max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..n)
            .step_by(per_range)
            .map(|lo| lo..(lo + per_range).min(n))
            .collect();
        let net = &self.net;
        let mut parts = expanse_addr::par::par_map_coarse(&ranges, ranges.len(), |range| {
            job.collect(&mut net.snapshot(), range.clone(), |dst| net.stateful(dst))
        });
        // Ranges ascend, so their leftovers concatenate in send order.
        let deferred: Vec<usize> = parts
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.deferred))
            .collect();
        parts.push(job.collect(&mut self.net, deferred.into_iter(), |_| false));
        let (result, end) = job.finish(parts);
        self.clock = end;
        result
    }

    /// One battery cell: shard `shard` of `shards`, every slot against
    /// `net` (the cell's own snapshot), starting at `start`. Pure in its
    /// inputs — this is the unit the battery fan-out distributes.
    fn scan_job<M: Network>(
        net: &mut M,
        cfg: &ScanConfig,
        start: Time,
        targets: &[Ipv6Addr],
        module: &dyn ProbeModule,
        shard: u64,
        shards: u64,
    ) -> (ScanResult, Time) {
        let job = Job::new(cfg, start, targets, module, shard, shards);
        let all = job.collect(net, 0..job.slots.len(), |_| false);
        job.finish(vec![all])
    }

    /// Run the paper's whole §6 battery over `targets`: one pass per
    /// protocol, each split into [`Fanout::shards_per_protocol`]
    /// sub-shards, merged per-address. The worker pool or the one-thread
    /// walk executes the grid per `cfg.fanout.parallel`; both produce
    /// identical results for the same configuration.
    pub fn scan_battery(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> MultiScanResult {
        let cells = self.battery_cells(targets, modules);
        self.merge_battery(modules, cells, None)
    }

    /// [`Scanner::scan_battery`], resolving each responsive address to a
    /// caller-domain id *during* the merge (see
    /// [`MultiScanResult::merge_resolved`]) — the pipeline passes its
    /// hitlist lookup here instead of re-hashing every responder after
    /// the battery returns. Executor choice follows `cfg.fanout.parallel`
    /// exactly as in [`Scanner::scan_battery`]; the resolver only runs
    /// on the serial merge fold, so it needs no synchronization.
    pub fn scan_battery_resolved(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
        resolve: &mut dyn FnMut(Ipv6Addr) -> expanse_addr::AddrId,
    ) -> MultiScanResult {
        let cells = self.battery_cells(targets, modules);
        self.merge_battery(modules, cells, Some(resolve))
    }

    /// The battery grid's cells, from the executor `cfg.fanout.parallel`
    /// names.
    fn battery_cells(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> Vec<Option<(ScanResult, Time)>> {
        if self.cfg.fanout.parallel {
            self.battery_cells_parallel(targets, modules)
        } else {
            self.battery_cells_serial(targets, modules)
        }
    }

    /// One-thread executor for the battery grid's cells: the reference
    /// the determinism checks compare the pool against.
    fn battery_cells_serial(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> Vec<Option<(ScanResult, Time)>> {
        let grid = self.battery_grid(modules.len());
        let mut cells: Vec<Option<(ScanResult, Time)>> = Vec::with_capacity(grid.len());
        for &(m, job, jobs) in &grid {
            let mut net = self.net.snapshot();
            cells.push(Some(Self::scan_job(
                &mut net,
                &self.cfg,
                self.clock,
                targets,
                modules[m].as_ref(),
                job,
                jobs,
            )));
        }
        cells
    }

    /// Worker-pool executor for the battery grid's cells, sized by
    /// [`expanse_addr::worker_threads`] (the `EXPANSE_THREADS` knob).
    /// Each worker claims cells off a shared counter; every cell clones
    /// the network snapshot, so execution order cannot influence results.
    fn battery_cells_parallel(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> Vec<Option<(ScanResult, Time)>> {
        let grid = self.battery_grid(modules.len());
        let workers = expanse_addr::worker_threads().min(grid.len()).max(1);
        if workers == 1 {
            // One worker = the serial walk, minus thread/Mutex overhead;
            // results are identical by construction.
            return self.battery_cells_serial(targets, modules);
        }
        let cells: Vec<Mutex<Option<(ScanResult, Time)>>> =
            grid.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let this: &Scanner<N> = self;
        // check: allow(thread, results land in per-cell slots indexed by grid position; collection order is deterministic)
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(m, job, jobs)) = grid.get(i) else {
                        break;
                    };
                    let mut net = this.net.snapshot();
                    let out = Self::scan_job(
                        &mut net,
                        &this.cfg,
                        this.clock,
                        targets,
                        modules[m].as_ref(),
                        job,
                        jobs,
                    );
                    *cells[i].lock().expect("cell lock") = Some(out);
                });
            }
        });
        cells
            .into_iter()
            .map(|c| c.into_inner().expect("cell lock"))
            .collect()
    }

    /// The fixed work grid: `(module index, sub-shard, total shards)`
    /// cells, composing the configured zmap-level shard selection with
    /// the fan-out's per-protocol sub-sharding. For outer selection
    /// `(s, T)` and `J` sub-shards, sub-shard `j` walks permutation
    /// positions `i` with `i ≡ s + T·j (mod T·J)` — a partition of the
    /// outer shard's positions.
    fn battery_grid(&self, n_modules: usize) -> Vec<(usize, u64, u64)> {
        let (shard, shards) = self.cfg.shard;
        let per = self.cfg.fanout.shards_per_protocol.max(1);
        let mut grid = Vec::with_capacity(n_modules * per as usize);
        for m in 0..n_modules {
            for j in 0..per {
                grid.push((m, shard + shards * j, shards * per));
            }
        }
        grid
    }

    /// Fold the grid's cells into one [`MultiScanResult`], in module
    /// order, summing counters and concatenating the (disjoint)
    /// per-target reply runs, settled once per protocol; the scanner
    /// clock advances to the slowest cell's end time, like a barrier
    /// over parallel zmap processes.
    fn merge_battery(
        &mut self,
        modules: &[Box<dyn ProbeModule>],
        cells: Vec<Option<(ScanResult, Time)>>,
        mut resolve: Option<&mut dyn FnMut(Ipv6Addr) -> expanse_addr::AddrId>,
    ) -> MultiScanResult {
        let per = self.cfg.fanout.shards_per_protocol.max(1) as usize;
        let mut multi = MultiScanResult::default();
        let mut end = self.clock;
        let mut cells = cells.into_iter();
        for module in modules {
            let mut merged = ScanResult::new(module.protocol());
            for _ in 0..per {
                // Every cell is filled by construction (worker panics
                // propagate out of thread::scope); a hole here would
                // silently drop a sub-shard's results, so fail loudly.
                let (part, cell_end) = cells
                    .next()
                    .expect("battery grid shorter than modules × shards")
                    .expect("battery cell left unfilled");
                merged.absorb_shard(part);
                end = end.max(cell_end);
            }
            merged.settle();
            match resolve.as_deref_mut() {
                Some(resolve) => multi.merge_resolved(merged, resolve),
                None => multi.merge(merged),
            }
        }
        self.clock = end;
        multi
    }
}

/// Convenience: is the reply a positive service answer?
pub fn positive(reply: &ProbeReply) -> bool {
    reply.kind.is_positive()
}

/// Derive the per-protocol responsive sets from a battery result.
pub fn responsive_sets(multi: &MultiScanResult) -> Vec<(Protocol, Vec<Ipv6Addr>)> {
    Protocol::ALL
        .iter()
        .map(|p| {
            let scan = multi.by_protocol.get(p);
            let positive = scan.map(|r| r.responsive().collect());
            (*p, positive.unwrap_or_default())
        })
        .collect()
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
        let p48 = s.network_mut().population.special.cdn_hook_48s[0];
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
        let p48 = s.network_mut().population.special.cdn_hook_48s[1];
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
        let p48 = model.population.special.cdn_hook_48s[0];
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
        let p48 = s.network_mut().population.special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..20u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let multi = s.scan_battery(&targets, &crate::module::standard_battery());
        // Aliased CDN hooks answer ICMP + TCP80 + TCP443 but not DNS.
        let sets = responsive_sets(&multi);
        let get = |p: Protocol| {
            sets.iter()
                .find(|(q, _)| *q == p)
                .map(|(_, v)| v.len())
                .unwrap_or(0)
        };
        assert!(get(Protocol::Icmp) >= 15);
        assert!(get(Protocol::Tcp80) >= 15);
        assert_eq!(get(Protocol::Udp53), 0);
        // Per-address protocol sets populated.
        let any = multi.responsive.iter().next().unwrap();
        assert!(any.1.len() >= 2, "{:?}", any);
    }

    #[test]
    fn parallel_and_serial_battery_identical() {
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..200u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let battery = crate::module::standard_battery();
        let run = |parallel: bool| {
            let model = InternetModel::build(ModelConfig::tiny(21));
            let mut cfg = ScanConfig::default();
            cfg.fanout.parallel = parallel;
            let mut s = Scanner::new(model, cfg);
            let multi = s.scan_battery(&targets, &battery);
            (multi, s.now())
        };
        let (serial, serial_end) = run(false);
        let (parallel, parallel_end) = run(true);
        assert_eq!(serial, parallel, "fan-out must not change results");
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial_end, parallel_end, "clock advance must match");
        assert!(serial.total_sent() >= 200 * 5 - 100);
    }

    #[test]
    fn battery_composes_with_outer_zmap_shards() {
        // Multi-instance scanning: three scanner instances with
        // shard=(s,3), each sub-sharded 4 ways. The composed grid
        // (`shard + shards·j` of `shards·per`) must still partition the
        // target set — every target probed exactly once per protocol
        // across the instances, none double-probed or skipped.
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..41u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let battery = crate::module::standard_battery();
        let mut sent_per_protocol: std::collections::HashMap<Protocol, u64> =
            std::collections::HashMap::new();
        let mut seen: std::collections::HashMap<Protocol, Vec<Ipv6Addr>> =
            std::collections::HashMap::new();
        for shard in 0..3u64 {
            let model = InternetModel::build(ModelConfig::tiny(21));
            let mut cfg = ScanConfig {
                shard: (shard, 3),
                ..ScanConfig::default()
            };
            cfg.fanout.shards_per_protocol = 4;
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
        // Whatever the sub-shard count, every target is probed exactly
        // once per protocol (the grid partitions the permutation).
        let p48 = InternetModel::build(ModelConfig::tiny(21))
            .population
            .special
            .cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..37u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let battery = crate::module::standard_battery();
        for shards in [1u64, 3, 8, 64] {
            let model = InternetModel::build(ModelConfig::tiny(21));
            let mut cfg = ScanConfig::default();
            cfg.fanout.shards_per_protocol = shards;
            let mut s = Scanner::new(model, cfg);
            let multi = s.scan_battery(&targets, &battery);
            for r in multi.by_protocol.values() {
                assert_eq!(r.sent, 37, "shards={shards}");
            }
        }
    }

    /// `tests/scan_pooled.rs` at explicit worker counts: the whole
    /// `ScanResult` of each of the four scans and the clocks between
    /// them are the same for 1, 2, 3 and 8 workers, and fingerprint to
    /// what the serial loop left on the parent commit.
    fn sweep_workers<N: SnapshotNetwork + Sync>(
        build: impl Fn() -> N,
        (targets, blacklisted): (Vec<Ipv6Addr>, Vec<expanse_addr::Prefix>),
        recorded: common::Fingerprint,
    ) {
        let mut blacklist = Blacklist::new();
        for p in blacklisted {
            blacklist.add(p);
        }
        let cfg = ScanConfig {
            shard: (1, 3),
            blacklist,
            ..ScanConfig::default()
        };
        let tcp = TcpSynModule::with_synopt(80);
        let modules: [&dyn ProbeModule; 4] = [&IcmpEchoModule, &tcp, &IcmpEchoModule, &tcp];
        let run = |workers: usize| -> Vec<(ScanResult, Time)> {
            let mut s = Scanner::new(build(), cfg.clone());
            let scan = |m: &&dyn ProbeModule| (s.scan_pooled(workers, &targets, *m), s.now());
            modules.iter().map(scan).collect()
        };
        let one = run(1);
        assert!(one[0].0.sent as usize >= POOL_MIN_SLOTS, "below the floor");
        assert!(one[0].0.blacklisted > 0 && one[0].0.duplicates > 0);
        let digest = |r: &ScanResult| {
            let mut multi = MultiScanResult::default();
            multi.merge(r.clone());
            multi.digest()
        };
        let (d, t) = (|i: usize| digest(&one[i].0), |i: usize| one[i].1 .0);
        assert_eq!([d(0), d(1), t(1), d(2), d(3), t(3)], recorded);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), one, "workers={workers}");
        }
    }

    #[test]
    fn pooled_scan_is_worker_count_independent() {
        let net = common::plain();
        let mix = common::mix(&net);
        let stateful = mix.0.iter().filter(|t| net.stateful(**t)).count();
        assert!((500..mix.0.len() / 8).contains(&stateful), "{stateful}");
        sweep_workers(common::plain, mix, common::RECORDED_PLAIN);
    }

    #[test]
    fn pooled_scan_keeps_throttled_64s_in_send_order() {
        let net = common::adversarial();
        let p64 = net.scenario.throttled[0];
        assert!(net.stateful(p64.addr_at(1)));
        let mix = common::mix(&net);
        sweep_workers(common::adversarial, mix, common::RECORDED_ADVERSARIAL);
    }

    #[test]
    fn pooled_scan_leaves_an_opaque_wrapper_serial() {
        let net = common::throttled();
        let mix = common::mix(net.inner());
        assert!(mix.0.iter().all(|t| net.stateful(*t)));
        sweep_workers(common::throttled, mix, common::RECORDED_THROTTLED);
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
        let mut s = Scanner::new(
            model,
            ScanConfig {
                rate_pps: 1000,
                cooldown: Duration::from_secs(1),
                ..ScanConfig::default()
            },
        );
        let p48 = s.network_mut().population.special.cdn_hook_48s[0];
        let targets: Vec<Ipv6Addr> = (0..100u64)
            .map(|i| expanse_addr::keyed_random_addr(p48, i))
            .collect();
        let before = s.now();
        s.scan(&targets, &IcmpEchoModule);
        let elapsed = s.now() - before;
        // 100 probes at 1000 pps = 0.1 s + 1 s cooldown.
        assert_eq!(elapsed, Duration::from_millis(1100));
    }
}
