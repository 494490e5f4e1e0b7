//! The daily measurement pipeline (§6): collect → merge → de-alias →
//! traceroute → probe → record — with retention expiry and a
//! persistent snapshot/resume path for long-running service
//! deployments.

use crate::hitlist::Hitlist;
use crate::longitudinal::Ledger;
use expanse_addr::codec::{self, CodecError, Decoder, Encoder, PrefixRun};
use expanse_addr::{AddrId, AddrSet, Prefix};
use expanse_apd::{Apd, ApdConfig, PlanConfig};
use expanse_model::{InternetModel, ModelConfig, Source, SourceId};
use expanse_netsim::Time;
use expanse_packet::ProtoSet;
use expanse_scamper6::{TraceConfig, Tracer};
use expanse_sched::{SchedConfig, Scheduler};
use expanse_zmap6::{standard_battery, MultiScanResult, ScanConfig, Scanner};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::Ipv6Addr;

/// Retention policy: when (if ever) unresponsive members are expired
/// from the accumulated hitlist.
///
/// The paper accumulates indefinitely (§3) but names
/// unresponsiveness-window removal as future work; this wires
/// [`Hitlist::expire_unresponsive`] into the daily cycle. Every member
/// gets a full `window` of grace from insertion (or revival) before it
/// can expire — see the hitlist docs for the churn bug this prevents.
#[derive(Debug, Clone)]
pub struct RetentionConfig {
    /// Expire members whose last response (or insertion) is more than
    /// this many days old. `None` disables expiry: accumulate forever,
    /// the paper's published policy.
    pub window: Option<u16>,
    /// Run the expiry pass every N days (values < 1 behave as 1).
    pub every: u16,
}

impl Default for RetentionConfig {
    fn default() -> Self {
        RetentionConfig {
            window: None,
            every: 1,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Scan.
    pub scan: ScanConfig,
    /// Aliased-prefix detector state.
    pub apd: ApdConfig,
    /// Plan.
    pub plan: PlanConfig,
    /// Traceroute at most this many targets per day (the paper traces
    /// everything; we subsample to keep virtual days cheap).
    pub trace_budget: usize,
    /// Re-run the full APD plan every N days (between full runs, only
    /// prefixes that ever looked nearly-aliased are re-probed).
    pub full_apd_every: u16,
    /// Hitlist retention policy.
    pub retention: RetentionConfig,
    /// Probe scheduling policy. Default **off**: the battery probes
    /// every non-aliased member (the fixed grid); enabled, the
    /// [`Scheduler`] admits a budgeted, yield-ranked subset per day.
    pub sched: SchedConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            scan: ScanConfig::default(),
            apd: ApdConfig::default(),
            plan: PlanConfig::default(),
            trace_budget: 200,
            full_apd_every: 7,
            retention: RetentionConfig::default(),
            sched: SchedConfig::default(),
        }
    }
}

/// One day's outcome, returned by [`Pipeline::run_day`]: what the day
/// publishes, and in [`DailySnapshot::report`] what each stage did. The
/// pipeline keeps neither; a caller that wants an older day's record
/// keeps its snapshot.
#[derive(Debug, Clone)]
pub struct DailySnapshot {
    /// Probing day.
    pub day: u16,
    /// Live hitlist members at day end (today's alias-filter survivors
    /// are [`StageReport::kept`]).
    pub hitlist_total: usize,
    /// Aliased prefixes currently classified.
    pub aliased_prefixes: Vec<Prefix>,
    /// Per-address responsive protocol sets (non-aliased targets only):
    /// the battery's responder run, strictly ascending by address,
    /// taken over from the battery result (no per-day clone).
    pub responsive: Vec<(Ipv6Addr, ProtoSet)>,
    /// Members expired by the retention policy today (0 when disabled).
    pub expired_today: usize,
    /// Probes sent today (APD + battery + traceroute).
    pub probes_sent: u64,
    /// Canonical digest of the battery's merged scan result. The same
    /// at every worker count; the published daily files carry it as a
    /// reproducibility stamp.
    pub battery_digest: u64,
    /// What each stage did today, as exact counts. Carried beside the
    /// published outputs, never in them: no save, journal record or
    /// digest holds it.
    pub report: StageReport,
}

/// What each stage of one day did, as exact counts: the same for a
/// given seed on every machine and at every thread count. Probes are
/// split by the stage that sends them (APD echo fan-out, follow-up
/// traces, the responsiveness battery).
///
/// Counts only — where the day's *time* went is what the repo
/// benchmark's `--trace 1` reports. The report is the day's
/// [`DailySnapshot::report`] and is never encoded, journaled or
/// digested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageReport {
    /// Prefixes in today's APD plan.
    pub plan_prefixes: u64,
    /// APD fan-out probes sent.
    pub apd_probes: u64,
    /// APD fan-out targets the network did not prove silent: each is
    /// probed by a frame per protocol, the others by none.
    pub apd_answerable: u64,
    /// Live members at day start that survived the alias filter.
    pub kept: u64,
    /// Live members at day start under an aliased prefix.
    pub removed: u64,
    /// Battery targets: all of `kept` with the scheduler off, the
    /// admitted subset with it on.
    pub admitted: u64,
    /// Traceroute probes sent.
    pub trace_probes: u64,
    /// Router addresses the traces harvested.
    pub routers: u64,
    /// Battery probes sent, all protocols.
    pub battery_probes: u64,
    /// Addresses that answered the battery on at least one protocol.
    pub responders: u64,
    /// Members expired by the retention policy.
    pub expired: u64,
    /// Addresses the day newly interned into the hitlist's table
    /// (harvested routers not seen before).
    pub interned: u64,
}

/// The full system: model + probers + state.
pub struct Pipeline {
    /// Configuration.
    pub cfg: PipelineConfig,
    /// The probing scanner.
    pub scanner: Scanner<InternetModel>,
    /// Aliased-prefix detector state.
    pub apd: Apd,
    /// The accumulated hitlist.
    pub hitlist: Hitlist,
    /// The seven source samplers.
    pub sources: Vec<Source>,
    /// Longitudinal responsiveness ledger.
    pub ledger: Ledger,
    /// The probe scheduler's feedback queue (per-/48 yield history and
    /// APD flags). Always persisted, but planned and recorded only
    /// while [`SchedConfig::enabled`] is set: history accrues only
    /// while the switch is on, so flipping it on for a resumed journal
    /// starts from whatever the queue held when it was last on — a
    /// cold queue if it never was.
    pub sched: Scheduler,
    /// Prefixes worth re-probing between full APD runs: a sorted set,
    /// pruned when a prefix is classified aliased or goes cold (a
    /// classified prefix holds its verdict without daily probes until
    /// the next full run re-validates it).
    hot_prefixes: BTreeSet<Prefix>,
    day: u16,
    /// The hot-prefix set as of the last journal sync point; the next
    /// delta frame carries the (removed, added) difference against it.
    synced_hot: BTreeSet<Prefix>,
    /// The day counter as of the last journal sync point; each delta
    /// frame names it so frames replay strictly in order.
    synced_day: u16,
}

impl Pipeline {
    /// Build a pipeline over a fresh model: the pipeline a journal of
    /// one empty state (day 0, clock 0, every section empty) resumes to.
    pub fn new(model_cfg: ModelConfig, cfg: PipelineConfig) -> Self {
        let empty = PersistedState {
            day: 0,
            clock: Time::ZERO,
            hot_prefixes: BTreeSet::new(),
            hitlist: Hitlist::new(),
            ledger: Ledger::new(),
            apd: Apd::new(cfg.apd.clone()),
            sched: Scheduler::new(),
        };
        Pipeline::from_state(model_cfg, cfg, empty)
    }

    /// The pipeline that continues `st`: the deterministic side rebuilt
    /// from config, plus the one cross-day scanner scalar, the virtual
    /// clock (reply timestamps, and so the battery digest, build on it).
    fn from_state(model_cfg: ModelConfig, cfg: PipelineConfig, st: PersistedState) -> Self {
        let model = InternetModel::build(model_cfg);
        let sources = expanse_model::sources::build_sources(&model);
        let mut scanner = Scanner::new(model, cfg.scan.clone());
        scanner.set_now(st.clock);
        Pipeline {
            cfg,
            scanner,
            apd: st.apd,
            hitlist: st.hitlist,
            sources,
            ledger: st.ledger,
            sched: st.sched,
            synced_hot: st.hot_prefixes.clone(),
            hot_prefixes: st.hot_prefixes,
            day: st.day,
            synced_day: st.day,
        }
    }

    /// Shared access to the underlying model.
    pub fn model_ref(&self) -> &InternetModel {
        self.scanner.network()
    }

    /// Ingest every source's addresses known by runup day `runup_day`.
    pub fn collect_sources(&mut self, runup_day: u32) {
        let day = self.day;
        for s in &self.sources {
            self.hitlist.add_from(s.id, s.addrs_on_day(runup_day), day);
        }
    }

    /// Run `days` of APD-only probing to warm up the aliased-prefix
    /// filter before responsiveness tracking starts. The paper's
    /// longitudinal window (Fig 8) opens with months of APD history; a
    /// cold filter would otherwise pollute the day-0 baseline with
    /// aliased addresses that later "die" when the filter catches them.
    pub fn warmup_apd(&mut self, days: u16) {
        for _ in 0..days {
            let day = self.day;
            self.scanner.network_mut().set_day(day);
            let live = self.hitlist.live_set();
            let plan = expanse_apd::plan_targets_set(self.hitlist.table(), &live, &self.cfg.plan);
            if !plan.is_empty() {
                self.apd.run_day(&mut self.scanner, &plan);
            }
            self.day += 1;
        }
    }

    /// Run one probing day: APD, filter, traceroute subsample, battery
    /// scan of non-aliased targets, ledger update.
    pub fn run_day(&mut self) -> DailySnapshot {
        self.run_day_full().0
    }

    /// [`Pipeline::run_day`], also returning the battery's merged scan
    /// result (the fan-out determinism guard pins its digest). The
    /// snapshot takes ownership of the responder run; the
    /// returned result carries the per-protocol breakdown.
    ///
    /// The body is the day's stage list and nothing else: the eight
    /// stages are the private methods below, in this order.
    pub fn run_day_full(&mut self) -> (DailySnapshot, MultiScanResult) {
        let day = self.day;
        self.scanner.network_mut().set_day(day);
        let rows_before = self.hitlist.table().len();
        // One id-space view of the hitlist for the whole day: the APD
        // plan, the alias split, and the battery targets all derive from
        // it (routers harvested mid-day join tomorrow's view).
        let live = self.hitlist.live_set();
        let (aliased_now, plan_prefixes, apd_probes, apd_answerable) =
            self.detect_aliases(day, &live);
        let (kept_ids, kept, removed) = self.filter_aliased(&aliased_now, &live);
        let kept_len = kept.len();
        let (target_ids, targets, follow_ups) =
            self.schedule_targets(day, kept_ids, kept, &aliased_now);
        let (routers_found, trace_probes) = self.trace_routers(day, &targets, follow_ups);
        let (mut multi, battery_digest) = self.probe_battery(&targets);
        let day_pass = self.record_day_pass(day, &multi);
        self.account_probes(day, &target_ids, &day_pass);
        let expired_today = self.expire_members(day);

        let report = StageReport {
            plan_prefixes,
            apd_probes,
            apd_answerable,
            kept: kept_len as u64,
            removed,
            admitted: targets.len() as u64,
            trace_probes,
            routers: routers_found as u64,
            battery_probes: multi.total_sent(),
            responders: day_pass.len() as u64,
            expired: expired_today as u64,
            interned: (self.hitlist.table().len() - rows_before) as u64,
        };
        let snapshot = DailySnapshot {
            day,
            hitlist_total: self.hitlist.len(),
            aliased_prefixes: aliased_now,
            // The snapshot takes the responder run over; the returned
            // MultiScanResult keeps the per-protocol results (its own
            // run is left empty).
            responsive: multi.take_responsive(),
            expired_today,
            probes_sent: report.apd_probes + report.trace_probes + report.battery_probes,
            battery_digest,
            report,
        };
        self.day += 1;
        (snapshot, multi)
    }

    /// Stage 1, aliased prefix detection: plan (full every
    /// `full_apd_every` days, the hot set between), probe, slide the
    /// windows, classify. Returns today's aliased prefixes (sorted), the
    /// plan size, the probes sent and the fan-out targets the network
    /// did not prove silent.
    fn detect_aliases(&mut self, day: u16, live: &AddrSet) -> (Vec<Prefix>, u64, u64, u64) {
        let mut plan: Vec<Prefix> = if day.is_multiple_of(self.cfg.full_apd_every) {
            expanse_apd::plan_targets_set(self.hitlist.table(), live, &self.cfg.plan)
        } else {
            self.hot_prefixes.iter().copied().collect()
        };
        // Scheduler feedback into the APD plan: suspect (nearly-aliased)
        // /48s the queue flagged get re-validated today even between
        // full runs. A no-op in the degenerate config (follow-up off).
        if self.cfg.sched.enabled && self.cfg.sched.followup_targets > 0 {
            let suspects = self.sched.suspect_prefixes();
            if !suspects.is_empty() {
                plan.extend(suspects);
                plan.sort();
                plan.dedup();
            }
        }
        let report = if plan.is_empty() {
            None
        } else {
            Some(self.apd.run_day(&mut self.scanner, &plan))
        };
        // One windowed classification pass for the whole day: the hot
        // set, the LPM filter, and the snapshot all read this vector
        // (it is only current *after* today's window update above).
        let aliased_now = self.apd.aliased_prefixes();
        let (mut probes, mut answerable) = (0, 0);
        if let Some(report) = report {
            probes = report.probes_sent;
            answerable = report.answerable;
            // Maintain the hot set from today's evidence: a prefix at
            // ≥ 14/16 branches is nearly aliased and worth daily
            // attention — but once the windowed detector classifies it
            // aliased it needs no extra probing (the verdict holds
            // until the next full run), and one that went cold leaves.
            for (p, o) in &report.observations {
                let nearly = o.merged().count_ones() >= 14;
                if nearly && aliased_now.binary_search(p).is_err() {
                    self.hot_prefixes.insert(*p);
                } else {
                    self.hot_prefixes.remove(p);
                }
            }
        }
        (aliased_now, plan.len() as u64, probes, answerable)
    }

    /// Stage 2, alias filter: split the day's live members on today's
    /// aliased prefixes. Returns the non-aliased targets as ids and
    /// materialized once in id (= insertion) order — the same
    /// byte-for-byte target list the fan-out grid's snapshot workers
    /// partition — and the number of members removed.
    fn filter_aliased(
        &self,
        aliased_now: &[Prefix],
        live: &AddrSet,
    ) -> (AddrSet, Vec<Ipv6Addr>, u64) {
        let filter = expanse_apd::AliasFilter::new(aliased_now.iter().copied());
        let (kept_ids, removed) = filter.split_set(self.hitlist.table(), live);
        let kept = kept_ids.addrs(self.hitlist.table()).collect();
        (kept_ids, kept, removed.len() as u64)
    }

    /// Stage 3, probe scheduling. Enabled: the scheduler plans the day
    /// (budget, caps, splits; the hot set is the suspect signal) and the
    /// battery scans the admitted subset — an id-order subsequence of
    /// `kept`, so the degenerate config reproduces the fixed grid byte for
    /// byte — plus the plan's trace targets. Disabled: all of `kept`.
    fn schedule_targets(
        &mut self,
        day: u16,
        kept_ids: AddrSet,
        kept: Vec<Ipv6Addr>,
        aliased_now: &[Prefix],
    ) -> (AddrSet, Vec<Ipv6Addr>, Vec<Ipv6Addr>) {
        if !self.cfg.sched.enabled {
            return (kept_ids, kept, Vec::new());
        }
        let suspects: Vec<Prefix> = self.hot_prefixes.iter().copied().collect();
        let cfg = &self.cfg.sched;
        self.sched
            .schedule_day(cfg, day, &kept_ids, &kept, aliased_now, &suspects)
    }

    /// Stage 4, scamper: trace a budgeted subsample and add the routers
    /// it learns to the hitlist. The scheduled `trace_targets` (suspect
    /// confirmation) take the head of the trace budget; the remainder
    /// subsamples today's battery targets. A blacklisted target is
    /// never traced and takes no budget (§10.1). Returns the routers
    /// found and the probes sent.
    fn trace_routers(
        &mut self,
        day: u16,
        targets: &[Ipv6Addr],
        mut trace_targets: Vec<Ipv6Addr>,
    ) -> (usize, u64) {
        let budget = self.cfg.trace_budget;
        let blacklist = &self.cfg.scan.blacklist;
        trace_targets.retain(|&a| !blacklist.contains(a));
        trace_targets.truncate(budget);
        let seen: BTreeSet<Ipv6Addr> = trace_targets.iter().copied().collect();
        let room = budget - trace_targets.len();
        trace_targets.extend(
            targets
                .iter()
                .copied()
                .filter(|&a| !seen.contains(&a) && !blacklist.contains(a))
                .take(room),
        );
        let cfg = TraceConfig {
            src: self.cfg.scan.src,
            seed: self.cfg.scan.seed ^ 0x7ace,
        };
        let harvest = Tracer::new(self.scanner.network_mut(), cfg).harvest(&trace_targets);
        self.hitlist
            .add_from(SourceId::Scamper, &harvest.routers, day);
        (harvest.routers.len(), harvest.probes_sent)
    }

    /// Stage 5, the responsiveness battery over `targets`. Responders
    /// resolve to hitlist ids *during* the merge (battery targets are
    /// live members, so every responder resolves), so the day pass is a
    /// zip instead of a per-responder lookup. Returns the merged result
    /// and its canonical digest.
    fn probe_battery(&mut self, targets: &[Ipv6Addr]) -> (MultiScanResult, u64) {
        let hl = &self.hitlist;
        let multi = self
            .scanner
            .scan_battery_resolved(targets, &standard_battery(), &mut |a| {
                #[allow(
                    clippy::expect_used,
                    reason = "scan targets were drawn from the hitlist above"
                )]
                let id = hl.id_of(a).expect("responder not in hitlist");
                id
            });
        let digest = multi.digest();
        (multi, digest)
    }

    /// Stage 6, the day pass: one dense id run over the day's
    /// responders, written to the ledger and the hitlist's
    /// responsiveness columns. Sorted by id for the ledger's
    /// merge-joins; ids are distinct (one per responder), so the
    /// unstable sort has one result.
    fn record_day_pass(&mut self, day: u16, multi: &MultiScanResult) -> Vec<(AddrId, ProtoSet)> {
        let mut day_pass: Vec<(AddrId, ProtoSet)> = multi.resolved_pairs().collect();
        day_pass.sort_unstable_by_key(|&(id, _)| id);
        self.ledger.record_day(day, &day_pass, &self.hitlist);
        debug_assert!(
            day_pass.windows(2).all(|w| w[0].0 < w[1].0),
            "day pass must be strictly ascending by id"
        );
        for &(id, protos) in &day_pass {
            self.hitlist.mark_responsive_id(id, day, protos);
        }
        day_pass
    }

    /// Stage 7, discovery-cost accounting: the hitlist charges each /48
    /// the battery slots [`expanse_sched::day_outcomes`] counts (so yield
    /// per probe is computable on both paths), and the scheduler, when it
    /// planned the day, records the responders credited to them too.
    fn account_probes(&mut self, day: u16, targets: &AddrSet, day_pass: &[(AddrId, ProtoSet)]) {
        let responders = day_pass.iter().map(|&(id, _)| id);
        let outcomes = expanse_sched::day_outcomes(self.hitlist.table(), targets, responders);
        for &(net, spent, _) in &outcomes {
            self.hitlist.charge_probes(net, spent);
        }
        if self.cfg.sched.enabled {
            self.sched.record_day(day, &outcomes);
        }
    }

    /// Stage 8, retention: expire long-unresponsive members. Runs after
    /// today's responses are recorded, so an address that answered today
    /// can never expire today. Returns the members expired.
    fn expire_members(&mut self, day: u16) -> usize {
        match self.cfg.retention.window {
            Some(window) if day.is_multiple_of(self.cfg.retention.every.max(1)) => {
                self.hitlist.expire_unresponsive(day, window)
            }
            _ => 0,
        }
    }

    /// Current probing day (next `run_day` uses this).
    pub fn day(&self) -> u16 {
        self.day
    }

    /// Declare the current state a journal sync point: the next
    /// [`Pipeline::append_delta`] will be relative to exactly this
    /// state. Called after every full save, delta append, and replayed
    /// frame — and only once the written bytes are known durable, so a
    /// failed store write never advances the sync point (the changes
    /// stay pending for the next record).
    pub(crate) fn mark_synced(&mut self) {
        self.hitlist.mark_synced();
        self.ledger.mark_synced();
        self.apd.mark_synced();
        self.sched.mark_synced();
        self.synced_hot = self.hot_prefixes.clone();
        self.synced_day = self.day;
    }

    /// Pure encoder behind [`Pipeline::save_full`]: writes the base
    /// envelope without touching the sync point, so a caller that
    /// persists through a fallible store (see [`crate::journal`]) can
    /// mark the state synced only after the bytes actually landed.
    pub(crate) fn write_full<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut enc = Encoder::new(w, &PIPELINE_MAGIC, codec::CODEC_VERSION)?;
        enc.put_u16(self.day)?;
        enc.put_u64(self.scanner.now().0)?;
        enc.put_len(self.hot_prefixes.len())?;
        for &p in &self.hot_prefixes {
            codec::write_prefix(&mut enc, p)?;
        }
        self.hitlist.encode(&mut enc)?;
        self.ledger.encode(&mut enc)?;
        self.apd.encode(&mut enc)?;
        self.sched.encode(&mut enc)?;
        enc.finish()?;
        Ok(())
    }

    /// Serialize the pipeline's full persistent state — hitlist (all
    /// provenance/responsiveness columns + tombstones), ledger
    /// (baselines + survival series), APD window state, the hot-prefix
    /// set, the day counter, and the scanner's virtual clock — into one
    /// versioned, checksummed base envelope, and start a new journal
    /// sync point (the next [`Pipeline::append_delta`] is relative to
    /// this state).
    ///
    /// The [`InternetModel`] is **not** stored: it is rebuilt
    /// deterministically from [`ModelConfig`] + `set_day` at
    /// [`Pipeline::resume`]. Any model state that turned out to be
    /// cross-day stateful would be a bug in that contract, guarded by
    /// the `resume_determinism` integration test.
    pub fn save_full<W: Write>(&mut self, w: &mut W) -> Result<(), CodecError> {
        self.write_full(w)?;
        self.mark_synced();
        Ok(())
    }

    /// Pure encoder behind [`Pipeline::append_delta`]: writes one
    /// outer-length-prefixed delta record without touching the sync
    /// point (see [`Pipeline::write_full`] for why).
    pub(crate) fn write_delta_record<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut frame = Vec::new();
        let mut enc = Encoder::new(&mut frame, &DELTA_MAGIC, codec::CODEC_VERSION)?;
        enc.put_u16(self.synced_day)?;
        enc.put_u16(self.day)?;
        enc.put_u64(self.scanner.now().0)?;
        let removed: Vec<Prefix> = self
            .synced_hot
            .difference(&self.hot_prefixes)
            .copied()
            .collect();
        let added: Vec<Prefix> = self
            .hot_prefixes
            .difference(&self.synced_hot)
            .copied()
            .collect();
        for list in [&removed, &added] {
            enc.put_varint(list.len() as u64)?;
            let mut run = PrefixRun::new();
            for &p in list {
                run.write(&mut enc, p)?;
            }
        }
        self.hitlist.encode_delta(&mut enc)?;
        self.ledger.encode_delta(&mut enc)?;
        self.apd.encode_delta(&mut enc)?;
        self.sched.encode_delta(&mut enc)?;
        enc.finish()?;
        w.write_all(&(frame.len() as u64).to_le_bytes())?;
        w.write_all(&frame)?;
        Ok(())
    }

    /// Append one delta record to a snapshot journal: everything that
    /// changed since the last sync point ([`Pipeline::save_full`], the
    /// previous `append_delta`, or a replayed [`Pipeline::resume`]) —
    /// addresses appended to the table, rewritten hitlist rows, ledger
    /// day appends, touched APD windows, the hot-prefix diff, and the
    /// day counter + scanner clock.
    ///
    /// On disk the record is `frame_len (u64) · frame`, where the frame
    /// is its own checksummed `magic "EXP6DLTA" · version · payload ·
    /// fnv1a64` envelope — so a write torn anywhere inside the record
    /// is detected on replay and recovery falls back to the previous
    /// record (see `docs/SNAPSHOT_FORMAT.md`). On error the sync point
    /// is not advanced: the changes stay pending.
    pub fn append_delta<W: Write>(&mut self, w: &mut W) -> Result<(), CodecError> {
        self.write_delta_record(w)?;
        self.mark_synced();
        Ok(())
    }

    /// Rebuild a pipeline from a snapshot journal — the base envelope
    /// written by [`Pipeline::save_full`] followed by any number of
    /// [`Pipeline::append_delta`] records — plus the same model and
    /// pipeline configuration the saved run used.
    ///
    /// Running N + M days straight and running N days → save → resume →
    /// M days produce byte-identical daily outputs (same
    /// `battery_digest`, same service files). A corrupted or truncated
    /// *base* errors; a journal torn anywhere inside a delta record
    /// recovers to the last complete record, reported via
    /// [`JournalReplay::torn_tail`]. Nothing ever panics on bad input,
    /// and a frame is applied only after its checksum verifies, so a
    /// torn tail can never half-apply.
    ///
    /// Readers that only need the journaled *state* (not a runnable
    /// pipeline) should use [`PersistedState::load`] instead: it skips
    /// the model rebuild entirely.
    #[deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        reason = "replays untrusted journal bytes: torn input must map to Err, not a panic"
    )]
    pub fn resume<R: Read>(
        model_cfg: ModelConfig,
        cfg: PipelineConfig,
        r: &mut R,
    ) -> Result<(Pipeline, JournalReplay), CodecError> {
        let (st, replay) = PersistedState::load(cfg.apd.clone(), r)?;
        Ok((Pipeline::from_state(model_cfg, cfg, st), replay))
    }
}

/// The pipeline's journaled persistent state, decoupled from the
/// probing machinery: everything the base envelope holds and every
/// delta frame mutates, and nothing else — no [`InternetModel`], no
/// scanner, no source samplers.
///
/// This is the **read-only journal load path**: consumers that only
/// query published state (the serving layer building a snapshot view,
/// offline inspection tools) replay a journal into a `PersistedState`
/// in one decode pass, paying neither the model rebuild nor the
/// pipeline wiring that [`Pipeline::resume`] needs to keep probing.
/// Byte-for-byte, the state loaded here is exactly the state a resumed
/// pipeline would hold — both paths share one decoder.
pub struct PersistedState {
    /// The day counter: completed probing days (the next `run_day`
    /// would be this day).
    pub day: u16,
    /// The scanner's virtual clock at save time.
    pub clock: Time,
    /// The hot-prefix set (daily APD re-probe candidates).
    pub hot_prefixes: BTreeSet<Prefix>,
    /// The accumulated hitlist with all provenance/responsiveness
    /// columns and expiry tombstones.
    pub hitlist: Hitlist,
    /// The longitudinal responsiveness ledger.
    pub ledger: Ledger,
    /// The aliased-prefix detector's window state.
    pub apd: Apd,
    /// The probe scheduler's feedback queue (per-/48 yield history).
    pub sched: Scheduler,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "replays untrusted journal bytes: torn input must map to Err, not a panic"
)]
impl PersistedState {
    /// Decode one base envelope (`EXP6PIPE`).
    fn decode_base<R: Read>(apd_cfg: ApdConfig, r: &mut R) -> Result<PersistedState, CodecError> {
        let mut dec = Decoder::new(r, &PIPELINE_MAGIC, codec::CODEC_VERSION)?;
        let day = dec.get_u16()?;
        let clock = Time(dec.get_u64()?);
        let n_hot = dec.get_len()?;
        let mut hot_prefixes = BTreeSet::new();
        let mut prev = None;
        for _ in 0..n_hot {
            let p = codec::read_prefix(&mut dec)?;
            if prev.is_some_and(|q| q >= p) {
                return Err(CodecError::Corrupt("hot prefixes not strictly sorted"));
            }
            prev = Some(p);
            hot_prefixes.insert(p);
        }
        let hitlist = Hitlist::decode(&mut dec)?;
        let ledger = Ledger::decode(&mut dec)?;
        let apd = Apd::decode(apd_cfg, &mut dec)?;
        let sched = Scheduler::decode(&mut dec)?;
        dec.finish()?;
        let st = PersistedState {
            day,
            clock,
            hot_prefixes,
            hitlist,
            ledger,
            apd,
            sched,
        };
        st.check_ledger_day()?;
        Ok(st)
    }

    /// The ledger's next day must be the pipeline's day, or the next
    /// `run_day` would record out of order.
    fn check_ledger_day(&self) -> Result<(), CodecError> {
        if self.ledger.records_next(self.day) {
            Ok(())
        } else {
            Err(CodecError::Corrupt(
                "ledger days do not end at the pipeline's day",
            ))
        }
    }

    /// Apply one whole, checksum-verified delta frame (the envelope
    /// bytes, without the outer length prefix). Errors here mean the
    /// frame is internally valid but does not follow this state — a
    /// misordered or foreign journal — and are hard failures, not torn
    /// tails.
    fn apply_delta_frame(&mut self, frame: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(frame, &DELTA_MAGIC, codec::CODEC_VERSION)?;
        let base_day = dec.get_u16()?;
        if base_day != self.day {
            return Err(CodecError::Corrupt("delta frame does not follow its base"));
        }
        let day = dec.get_u16()?;
        if day < base_day {
            return Err(CodecError::Corrupt("delta frame rewinds the day counter"));
        }
        let clock = Time(dec.get_u64()?);
        let mut removed = Vec::new();
        let mut added = Vec::new();
        for list in [&mut removed, &mut added] {
            let n = dec.get_varint_len()?;
            let mut run = PrefixRun::new();
            for _ in 0..n {
                list.push(run.read(&mut dec)?);
            }
        }
        for p in &removed {
            if !self.hot_prefixes.remove(p) {
                return Err(CodecError::Corrupt("hot-prefix diff removes a non-member"));
            }
        }
        for p in &added {
            if !self.hot_prefixes.insert(*p) {
                return Err(CodecError::Corrupt(
                    "hot-prefix diff adds an existing member",
                ));
            }
        }
        self.hitlist.apply_delta(&mut dec)?;
        self.ledger.apply_delta(&mut dec)?;
        self.apd.apply_delta(&mut dec)?;
        self.sched.apply_delta(&mut dec)?;
        dec.finish()?;
        self.day = day;
        self.clock = clock;
        self.check_ledger_day()
    }

    /// Replay a whole journal (base + deltas) into a state, with the
    /// same torn-tail recovery contract as [`Pipeline::resume`] — both
    /// paths *are* this decoder. The `apd_cfg` must match the saved
    /// run's detector configuration (the stored window length is
    /// validated against it).
    pub fn load<R: Read>(
        apd_cfg: ApdConfig,
        r: &mut R,
    ) -> Result<(PersistedState, JournalReplay), CodecError> {
        let mut r = CountingReader { inner: r, count: 0 };
        let r = &mut r;
        let mut st = Self::decode_base(apd_cfg, r)?;

        // Replay delta records until the journal ends — cleanly (EOF at
        // a record boundary) or torn (anything else inside a record).
        let base_bytes = r.count;
        let mut replay = JournalReplay {
            deltas_applied: 0,
            torn_tail: false,
            base_bytes,
            journal_bytes: base_bytes,
        };
        loop {
            // `read_to_end` retries `Interrupted` and stops only at EOF
            // or the 8th byte: none is a clean end, 1–7 a torn record.
            let mut prefix = Vec::with_capacity(8);
            r.by_ref().take(8).read_to_end(&mut prefix)?;
            let Ok(lenb) = <[u8; 8]>::try_from(prefix.as_slice()) else {
                replay.torn_tail = !prefix.is_empty();
                break;
            };
            let frame_len = u64::from_le_bytes(lenb);
            if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&frame_len) {
                replay.torn_tail = true;
                break;
            }
            // `take` bounds the read, and the Vec grows only as bytes
            // actually arrive — a corrupted length prefix can cost at
            // most the remaining journal, never an implausible
            // allocation.
            let mut frame = Vec::new();
            r.by_ref().take(frame_len).read_to_end(&mut frame)?;
            if frame.len() as u64 != frame_len || !codec::envelope_checksum_ok(&frame) {
                replay.torn_tail = true;
                break;
            }
            st.apply_delta_frame(&frame)?;
            replay.deltas_applied += 1;
            replay.journal_bytes = r.count;
        }
        st.hitlist.merge_order();
        Ok((st, replay))
    }
}

/// How a delta-journal replay ended: how many records applied, how
/// many bytes they spanned, and whether the journal's tail was torn
/// (truncated or corrupted inside the final record — recovery then
/// stops at the last complete record, losing at most one in-flight
/// append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalReplay {
    /// Complete delta records applied on top of the base snapshot.
    pub deltas_applied: usize,
    /// Did the journal end mid-record instead of at a record boundary?
    pub torn_tail: bool,
    /// Size of the base envelope in bytes.
    pub base_bytes: u64,
    /// Bytes through the end of the last applied record (base +
    /// complete deltas; torn tail bytes excluded). The journal's byte
    /// accounting resumes from these without rereading anything.
    pub journal_bytes: u64,
}

/// A [`Read`] adapter counting consumed bytes, so replay can report
/// record boundaries ([`JournalReplay::journal_bytes`]) without the
/// underlying reader being seekable.
struct CountingReader<R> {
    inner: R,
    count: u64,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "replays untrusted journal bytes: torn input must map to Err, not a panic"
)]
impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// Envelope magic for a full pipeline snapshot (the journal base).
pub const PIPELINE_MAGIC: [u8; 8] = *b"EXP6PIPE";

/// Envelope magic for one journal delta frame.
pub const DELTA_MAGIC: [u8; 8] = *b"EXP6DLTA";

/// Smallest well-formed delta frame — a record of no change before the
/// ledger's first day: the envelope (magic 8 + version 2 + checksum 8)
/// around day pair + clock (12), two empty hot-prefix lists (2), the
/// hitlist's two table lengths and four empty runs (20), the ledger's
/// day pair, first-day tag and baseline flag (6), the APD window and an
/// empty run (9), the scheduler's two scalars and an empty run (17).
/// Pinned by `no_change_delta_is_the_frame_floor`.
const MIN_FRAME_LEN: u64 = 18 + 12 + 2 + 20 + 6 + 9 + 17;

/// Reject outer length prefixes beyond this (2^32 bytes) as torn: a
/// single day's delta outgrowing 4 GiB means the writer should have
/// compacted long ago.
const MAX_FRAME_LEN: u64 = 1 << 32;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pipeline() -> Pipeline {
        // Keep test days cheap.
        let mut cfg = PipelineConfig {
            trace_budget: 30,
            ..PipelineConfig::default()
        };
        cfg.plan.min_targets = 30;
        Pipeline::new(ModelConfig::tiny(77), cfg)
    }

    #[test]
    fn no_change_delta_is_the_frame_floor() {
        let mut p = tiny_pipeline();
        let mut journal = Vec::new();
        p.save_full(&mut journal).unwrap();
        let base = journal.len();
        p.append_delta(&mut journal).unwrap();
        assert_eq!((journal.len() - base) as u64, 8 + MIN_FRAME_LEN);
        let (_, replay) = PersistedState::load(p.cfg.apd.clone(), &mut journal.as_slice()).unwrap();
        assert_eq!((replay.deltas_applied, replay.torn_tail), (1, false));
    }

    #[test]
    fn full_day_cycle() {
        let mut p = tiny_pipeline();
        p.collect_sources(30); // full runup in tiny config
        assert!(p.hitlist.len() > 3000, "hitlist={}", p.hitlist.len());
        let snap = p.run_day();
        assert_eq!(snap.day, 0);
        assert!((snap.report.kept as usize) < snap.hitlist_total);
        assert!(
            !snap.aliased_prefixes.is_empty(),
            "APD should find the CDN hooks"
        );
        assert!(!snap.responsive.is_empty(), "someone must answer");
        assert!(snap.probes_sent > 1000);
        assert_eq!(p.day(), 1);
    }

    #[test]
    fn apd_removes_roughly_the_aliased_share() {
        let mut p = tiny_pipeline();
        p.collect_sources(30);
        let snap = p.run_day();
        let removed = snap.hitlist_total - snap.report.kept as usize;
        let share = removed as f64 / snap.hitlist_total as f64;
        // Paper: 46.6 % of addresses fall in aliased prefixes. The tiny
        // model is noisier; accept a broad band around it.
        assert!(
            (0.25..=0.65).contains(&share),
            "removed share {share} (total {}, removed {removed})",
            snap.hitlist_total
        );
    }

    #[test]
    fn scamper_feeds_hitlist() {
        let mut p = tiny_pipeline();
        p.collect_sources(30);
        let before = p.hitlist.len();
        let snap = p.run_day();
        assert!(snap.report.routers > 0);
        assert!(p.hitlist.len() >= before);
    }

    #[test]
    fn responsive_subset_of_kept() {
        let mut p = tiny_pipeline();
        p.collect_sources(10);
        let snap = p.run_day();
        let filter = p.apd.filter();
        for &(addr, _) in &snap.responsive {
            assert!(
                !filter.is_aliased(addr),
                "{addr} responsive but aliased-filtered"
            );
        }
    }
}
