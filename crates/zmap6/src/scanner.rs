//! The scan loop: permute targets, rate-limit sends, collect and
//! validate replies.
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
//! count), a worker pool ([`Scanner::scan_battery_parallel`]) and a
//! sequential loop ([`Scanner::scan_battery_serial`]) produce
//! **identical** [`MultiScanResult`]s; `tests/fanout_determinism.rs`
//! in `expanse-core` holds that guarantee.
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
use expanse_netsim::{Duration, EventQueue, Network, SnapshotNetwork, Time};
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

    /// Scan `targets` with one module. Probes are sent in permuted order
    /// at the configured rate; replies are validated statelessly.
    pub fn scan(&mut self, targets: &[Ipv6Addr], module: &dyn ProbeModule) -> ScanResult {
        let (shard, shards) = self.cfg.shard;
        let (result, end) = Self::scan_job(
            &mut self.net,
            &self.cfg,
            self.clock,
            targets,
            module,
            shard,
            shards,
        );
        self.clock = end;
        result
    }

    /// One scan job: the core rate-limited send/receive loop over shard
    /// `shard` of `shards`, against `net`, starting at `start`. Pure in
    /// its inputs — this is the unit the battery fan-out distributes.
    fn scan_job<M: Network>(
        net: &mut M,
        cfg: &ScanConfig,
        start: Time,
        targets: &[Ipv6Addr],
        module: &dyn ProbeModule,
        shard: u64,
        shards: u64,
    ) -> (ScanResult, Time) {
        let validator = Validator::new(cfg.seed);
        let mut result = ScanResult::new(module.protocol());
        if targets.is_empty() {
            return (result, start);
        }
        let perm = Permutation::new(targets.len() as u64, cfg.seed);
        let gap = Duration(1_000_000_000 / cfg.rate_pps.max(1));
        let mut rx: EventQueue<Vec<u8>> = EventQueue::new();
        let mut clock = start;
        // Every probe of the job is emitted into this one buffer.
        let mut frame: Vec<u8> = Vec::new();

        for idx in perm.shard(shard, shards) {
            let dst = targets[idx as usize];
            if cfg.blacklist.contains(dst) {
                result.blacklisted += 1;
                continue;
            }
            module.emit_probe(cfg.src, dst, &validator, &mut frame);
            result.sent += 1;
            for d in net.inject(clock, &frame) {
                rx.push(d.at, d.frame);
            }
            clock += gap;
            // Drain replies that have arrived by now.
            while let Some((at, frame)) = rx.pop_due(clock) {
                Self::receive(&mut result, module, &validator, at, &frame);
            }
        }
        // Cooldown drain.
        let deadline = clock + cfg.cooldown;
        while let Some((at, frame)) = rx.pop_due(deadline) {
            Self::receive(&mut result, module, &validator, at, &frame);
        }
        // First reply wins (zmap dedup); duplicates are counted.
        result.settle();
        (result, deadline)
    }

    fn receive(
        result: &mut ScanResult,
        module: &dyn ProbeModule,
        validator: &Validator,
        at: Time,
        frame: &[u8],
    ) {
        result.received += 1;
        let Ok((hdr, transport)) = Datagram::parse_transport(frame) else {
            result.malformed += 1;
            return;
        };
        let Some((target, kind)) = module.classify(&hdr, &transport, validator) else {
            result.unvalidated += 1;
            return;
        };
        // Arrival order; `scan_job` settles the run once at the end.
        result.replies.push(ProbeReply {
            target,
            from: hdr.src,
            at,
            ttl: hdr.hop_limit,
            kind,
        });
    }
}

impl<N: SnapshotNetwork + Sync> Scanner<N> {
    /// Run the paper's whole §6 battery over `targets`: one pass per
    /// protocol, each split into [`Fanout::shards_per_protocol`]
    /// sub-shards, merged per-address. Dispatches to the parallel or
    /// serial executor per `cfg.fanout.parallel`; both produce identical
    /// results for the same configuration.
    pub fn scan_battery(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> MultiScanResult {
        if self.cfg.fanout.parallel {
            self.scan_battery_parallel(targets, modules)
        } else {
            self.scan_battery_serial(targets, modules)
        }
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
        let cells = if self.cfg.fanout.parallel {
            self.battery_cells_parallel(targets, modules)
        } else {
            self.battery_cells_serial(targets, modules)
        };
        self.merge_battery(modules, cells, Some(resolve))
    }

    /// The battery grid, walked by one thread. Reference executor for
    /// determinism checks and single-core baselines.
    pub fn scan_battery_serial(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> MultiScanResult {
        let cells = self.battery_cells_serial(targets, modules);
        self.merge_battery(modules, cells, None)
    }

    /// One-thread executor for the battery grid's cells.
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

    /// The battery grid, walked by a worker pool sized by
    /// [`expanse_addr::worker_threads`] (the `EXPANSE_THREADS` knob).
    /// Each worker claims cells off a shared counter; every cell clones
    /// the network snapshot, so execution order cannot influence results.
    pub fn scan_battery_parallel(
        &mut self,
        targets: &[Ipv6Addr],
        modules: &[Box<dyn ProbeModule>],
    ) -> MultiScanResult {
        let cells = self.battery_cells_parallel(targets, modules);
        self.merge_battery(modules, cells, None)
    }

    /// Worker-pool executor for the battery grid's cells.
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
