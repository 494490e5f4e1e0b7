//! `expanse-sched`: the feedback-driven probe scheduler — a
//! deterministic priority work queue that replaces the fixed daily
//! battery grid with budgeted, yield-directed probing.
//!
//! The daily battery probes every kept hitlist member uniformly; a real
//! scanner allocates probes where new addresses are expected. This
//! crate schedules that day ([`Scheduler::schedule_day`]): admission
//! quotas ([`SchedPlan`]) per /48 — or per /52 child when the /48's
//! sample entropy says it is heterogeneous — admit a day-rotated window
//! of each quota's members, suspects get follow-up traceroute targets,
//! and the day's per-/48 outcomes ([`day_outcomes`]) feed the queue.
//! Priorities come from signals the workspace already produces —
//! historical yield per probe and freshness, aliased-prefix verdicts
//! (APD), and per-prefix entropy fingerprints (`expanse_entropy`).
//!
//! Two hard invariants keep a scheduled hitlist honest ("IPv6 Hitlists
//! at Scale" is the cautionary grounding — unbounded chasing of
//! high-yield periphery poisons a list):
//!
//! - a **fixed daily probe budget** ([`SchedConfig::daily_budget`]),
//!   spent greedily by expected new-address yield, and
//! - a **hard per-/48 spend cap** ([`SchedConfig::per_48_cap`]) so an
//!   alias fabric answering everything can never monopolize the day.
//!
//! Everything is deterministic: entries live in ordered maps, the
//! priority function is integer fixed-point, and ties break on the
//! prefix order — the same inputs plan the same day on any thread
//! count, which is what lets the pipeline's byte-identical fan-out and
//! resume guarantees extend to scheduled runs. The degenerate
//! configuration (infinite budget and cap, splitting and follow-up
//! disabled) admits every candidate and reproduces the fixed grid
//! byte-identically (`crates/core/tests/sched_determinism.rs`).

#![deny(missing_docs)]

mod persist;

use expanse_addr::{AddrId, AddrSet, AddrTable, IdBits, Prefix};
use expanse_entropy::Fingerprint;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

/// `last_scanned` sentinel: the prefix has never been scheduled.
pub(crate) const NEVER_SCANNED: u16 = 0xffff;

/// Scheduling granularity: entries, caps, and spend accounting are all
/// keyed by the covering prefix of this length.
pub const SCHED_PREFIX_LEN: u8 = 48;

/// Split granularity: a split /48 fans out into 16 children of this
/// length, mirroring the /48 → /52 subnetting step.
pub const SPLIT_PREFIX_LEN: u8 = 52;

/// Ceiling on a [`PrefixDemand`] sample: enough addresses for a stable
/// nybble-entropy fingerprint and a follow-up trace pool, small enough
/// that demand building stays O(candidates).
pub const MAX_DEMAND_SAMPLE: usize = 64;

/// Which of its /48's 16 /52 children an address's `bits` fall under.
fn child_of(bits: u128) -> usize {
    (bits >> (128 - u32::from(SPLIT_PREFIX_LEN)) & 0xf) as usize
}

/// Scheduler knobs. The default is **off**: the pipeline runs today's
/// fixed grid and the scheduler is never consulted.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedConfig {
    /// Master switch; `false` = the pipeline's fixed daily grid.
    pub enabled: bool,
    /// Daily probe budget in battery target slots (one slot = one
    /// address probed by the full protocol battery).
    pub daily_budget: u64,
    /// Hard per-/48 daily spend cap, same unit as the budget.
    pub per_48_cap: u64,
    /// Mean normalized nybble entropy (over nybbles 13–16, the /48→/64
    /// span) at or above which a prefix is split into /52 children.
    /// Values above `1.0` disable splitting (entropy is normalized).
    pub split_entropy: f64,
    /// Trace targets drawn from each planned suspect's sample (see
    /// [`SchedPlan::trace_targets`]); `0` disables follow-up tracing
    /// and the suspect feedback into the APD plan.
    pub followup_targets: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            enabled: false,
            daily_budget: u64::MAX,
            per_48_cap: u64::MAX,
            split_entropy: 2.0,
            followup_targets: 0,
        }
    }
}

impl SchedConfig {
    /// The degenerate *enabled* configuration: scheduling is consulted
    /// but constrains nothing — infinite budget and cap, splitting and
    /// follow-up disabled. Guaranteed byte-identical to the fixed grid.
    pub fn degenerate() -> Self {
        SchedConfig {
            enabled: true,
            ..SchedConfig::default()
        }
    }

    /// A budgeted feedback preset: spend at most `daily_budget` slots
    /// per day, at most `per_48_cap` per /48, split heterogeneous
    /// prefixes, and trace suspects.
    pub fn budgeted(daily_budget: u64, per_48_cap: u64) -> Self {
        SchedConfig {
            enabled: true,
            daily_budget,
            per_48_cap,
            split_entropy: 0.35,
            followup_targets: 8,
        }
    }
}

/// Per-/48 feedback state: everything the priority function reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixEntry {
    /// Cumulative battery target slots spent under this prefix.
    pub spent: u64,
    /// Cumulative responsive addresses credited to those slots.
    pub found: u64,
    /// Last day this prefix was scheduled; `NEVER_SCANNED` if never.
    pub last_scanned: u16,
    /// An APD verdict covers this whole prefix: it is alias space and
    /// gets zero priority.
    pub aliased: bool,
    /// Nearly aliased, or an alias fabric sits *inside* the prefix
    /// (its remaining candidates passed the alias filter, so they are
    /// honest — but the neighbourhood is suspect): demoted, traced,
    /// and fed back to the APD plan.
    pub suspect: bool,
}

impl PrefixEntry {
    /// A fresh, never-scanned entry.
    pub(crate) fn new() -> Self {
        PrefixEntry {
            spent: 0,
            found: 0,
            last_scanned: NEVER_SCANNED,
            aliased: false,
            suspect: false,
        }
    }
}

// NOT derivable: a fresh entry is *never scanned* (`last_scanned` is
// the 0xffff sentinel, not 0). A derived default would make new
// prefixes look freshly probed and starve them of the staleness boost.
impl Default for PrefixEntry {
    fn default() -> Self {
        Self::new()
    }
}

/// One /48's demand for today: how many battery candidates live under
/// it and a bounded address sample (for entropy and follow-up targets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixDemand {
    /// The covering /48.
    pub net: Prefix,
    /// Battery candidates (kept hitlist members) under it today.
    pub candidates: u64,
    /// A bounded sample of those candidates, ascending.
    pub sample: Vec<Ipv6Addr>,
}

/// The outcome of [`Scheduler::plan_day`]: per-prefix admission quotas
/// plus the follow-up trace targets.
#[derive(Debug, Clone, Default)]
pub struct SchedPlan {
    /// Admission quotas: `/52` entries for split prefixes, `/48`
    /// entries otherwise. [`SchedPlan::admit`] consumes them one by one.
    pub quotas: BTreeMap<Prefix, u64>,
    /// Follow-up trace targets, highest-priority suspect first.
    trace: Vec<Ipv6Addr>,
}

impl SchedPlan {
    /// Admit one battery candidate against the plan's quotas: `true`
    /// consumes a slot (from its /52 child's quota if the /48 was
    /// split, else the /48's own), `false` means the prefix's allocation is
    /// exhausted — or was never selected — and the address is skipped
    /// today. Deterministic: admission depends only on quota state and
    /// call order.
    pub fn admit(&mut self, addr: Ipv6Addr) -> bool {
        let p52 = Prefix::new(addr, SPLIT_PREFIX_LEN);
        let key = if self.quotas.contains_key(&p52) {
            p52
        } else {
            Prefix::new(addr, SCHED_PREFIX_LEN)
        };
        match self.quotas.get_mut(&key) {
            Some(q) if *q > 0 => {
                *q -= 1;
                true
            }
            _ => false,
        }
    }

    /// The follow-up trace targets: each planned suspect's first
    /// [`SchedConfig::followup_targets`] sample members, suspects in
    /// priority order (ties on ascending prefix).
    pub fn trace_targets(&self) -> Vec<Ipv6Addr> {
        self.trace.clone()
    }
}

/// One introspection row: a queue entry as reported over the serve
/// protocol (`expansectl sched`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedJobInfo {
    /// The /48 entry.
    pub net: Prefix,
    /// Job kind: `0` = echo-scan, `1` = follow-up trace (suspect).
    pub kind: u8,
    /// Canonical priority (computed with `candidates = found.max(1)`).
    pub priority: u64,
    /// Cumulative slots spent under the prefix.
    pub spent: u64,
}

/// The scheduler section of a status response: last plan's budget
/// figures plus the top-K queue entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStatus {
    /// Budget the last plan was drawn against (`0` = never planned).
    pub budget: u64,
    /// Slots the last plan allocated.
    pub used: u64,
    /// Tracked /48 entries.
    pub entries: u64,
    /// Top-K entries by canonical priority, ties on prefix order.
    pub top: Vec<SchedJobInfo>,
}

/// The deterministic priority work queue. Holds one [`PrefixEntry`]
/// per /48 ever scheduled; persisted through the snapshot journal (the
/// `sched` sections of `docs/SNAPSHOT_FORMAT.md`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scheduler {
    pub(crate) entries: BTreeMap<Prefix, PrefixEntry>,
    pub(crate) dirty: BTreeSet<Prefix>,
    pub(crate) last_budget: u64,
    pub(crate) last_used: u64,
}

/// The fixed-point priority of one entry (higher = scan sooner):
/// `candidates × (yield + staleness + 1)`, halved for suspects, zero
/// for aliased prefixes. `yield` is `found/spent` in 1/1024 units
/// (optimistic `1024` before any spend, clamped at `4096`); staleness
/// is `64 × days-since-scan` (clamped at 64 days), with a `4096`
/// never-scanned boost. Pure integer math — no floats, no overflow
/// (≤ 2²⁰ × 2¹³ < 2⁶⁴).
pub(crate) fn priority(e: &PrefixEntry, candidates: u64, day: u16) -> u64 {
    if e.aliased {
        return 0;
    }
    let staleness = if e.last_scanned == NEVER_SCANNED {
        4096
    } else {
        u64::from(day.saturating_sub(e.last_scanned).min(64)) * 64
    };
    let yield_q10 = e
        .found
        .saturating_mul(1024)
        .checked_div(e.spent)
        .map_or(1024, |y| y.min(4096));
    let p = candidates.clamp(1, 1 << 20) * (yield_q10 + staleness + 1);
    if e.suspect {
        p / 2
    } else {
        p
    }
}

/// Minimum sample size before an entropy fingerprint is computed;
/// smaller prefixes are never split.
const ENTROPY_MIN_SAMPLE: usize = 16;

/// Mean normalized nybble entropy of a demand's sample over nybbles
/// 13–16 (the /48 → /64 span), or `0.0` when the sample is too small
/// to fingerprint.
fn demand_entropy(d: &PrefixDemand) -> f64 {
    if d.sample.len() < ENTROPY_MIN_SAMPLE {
        return 0.0;
    }
    let f = Fingerprint::compute(&d.sample, 13, 16);
    f.values.iter().sum::<f64>() / f.values.len() as f64
}

/// A verdict list (APD aliased prefixes, or suspects) indexed for the
/// two questions the flag refresh asks of a /48: does a verdict cover
/// it, and does a verdict lie strictly inside it? Each is one binary
/// search.
struct Verdicts {
    /// `[first, last]` address ranges of the verdicts at or above the
    /// /48, merged where they nest: ascending and disjoint.
    covering: Vec<(u128, u128)>,
    /// Network bits of the verdicts longer than a /48, ascending.
    inside: Vec<u128>,
}

impl Verdicts {
    /// Index `verdicts`, given in any order (a copy is sorted only when
    /// they are not already).
    fn new(verdicts: &[Prefix]) -> Self {
        let mut sorted = Vec::new();
        let verdicts = if verdicts.is_sorted() {
            verdicts
        } else {
            sorted.extend_from_slice(verdicts);
            sorted.sort_unstable();
            &sorted
        };
        let mut covering: Vec<(u128, u128)> = Vec::new();
        let mut inside = Vec::new();
        for v in verdicts {
            if v.len() > SCHED_PREFIX_LEN {
                inside.push(v.bits());
                continue;
            }
            let (first, last) = (v.bits(), u128::from(v.last()));
            match covering.last_mut() {
                Some((_, end)) if first <= *end => *end = (*end).max(last),
                _ => covering.push((first, last)),
            }
        }
        Verdicts { covering, inside }
    }

    /// Does a verdict at or above the /48 cover `net`?
    fn covers(&self, net: Prefix) -> bool {
        let i = self
            .covering
            .partition_point(|&(first, _)| first <= net.bits());
        i.checked_sub(1)
            .and_then(|i| self.covering.get(i))
            .is_some_and(|&(_, last)| net.bits() <= last)
    }

    /// Does a verdict longer than the /48 lie inside `net`?
    fn has_inside(&self, net: Prefix) -> bool {
        let i = self.inside.partition_point(|&bits| bits < net.bits());
        self.inside
            .get(i)
            .is_some_and(|&bits| bits <= u128::from(net.last()))
    }
}

impl Scheduler {
    /// An empty scheduler (no history, nothing dirty).
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Suspect (nearly-aliased, not yet aliased) /48s, ascending —
    /// the feedback set unioned into the APD probing plan.
    pub fn suspect_prefixes(&self) -> Vec<Prefix> {
        self.entries
            .iter()
            .filter(|(_, e)| e.suspect && !e.aliased)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Plan one probing day.
    ///
    /// Updates each demanded /48's APD flags from `aliased` /
    /// `suspects`, computes priorities, and greedily spends
    /// `cfg.daily_budget` slots in priority order, never exceeding
    /// `cfg.per_48_cap` per /48. Prefixes whose sample entropy clears
    /// `cfg.split_entropy` are split into /52 children with the
    /// allocation weighted by the sample's per-child member counts.
    /// Each suspect that gets slots also hands its first
    /// `cfg.followup_targets` sample members to the plan's trace list,
    /// in the same priority order.
    ///
    /// Deterministic: demands are keyed by prefix, the priority is
    /// integer-valued, and ties break on ascending prefix. The inputs
    /// may come in any order.
    ///
    /// Cost: O((d + a) log a) for the flag refresh — each verdict list
    /// of `a` prefixes is indexed once, then asked two binary searches
    /// per demand — and O(d log d) for the priority order, for `d`
    /// demands.
    pub fn plan_day(
        &mut self,
        cfg: &SchedConfig,
        day: u16,
        demands: &[PrefixDemand],
        aliased: &[Prefix],
        suspects: &[Prefix],
    ) -> SchedPlan {
        let mut plan = SchedPlan::default();

        // Refresh the APD flags on every demanded entry; only actual
        // transitions dirty the journal, and a /48 without an entry gets one
        // only with a flag. A verdict at or above the /48 means the whole
        // entry is alias space (starved); a verdict strictly inside it
        // leaves the filtered candidates honest but marks the neighbourhood
        // suspect — the fixed grid still probes those members, so starving
        // them would break the degenerate oracle (and waste real coverage).
        // A suspect verdict marks the /48 it covers or lies inside.
        let (aliased, suspects) = (Verdicts::new(aliased), Verdicts::new(suspects));
        for d in demands {
            debug_assert_eq!(d.net.len(), SCHED_PREFIX_LEN, "demands are keyed by /48");
            let is_aliased = aliased.covers(d.net);
            let interior_fabric = !is_aliased && aliased.has_inside(d.net);
            let is_suspect =
                interior_fabric || suspects.covers(d.net) || suspects.has_inside(d.net);
            if !is_aliased && !is_suspect && !self.entries.contains_key(&d.net) {
                continue;
            }
            let e = self.entries.entry(d.net).or_default();
            if e.aliased != is_aliased || e.suspect != is_suspect {
                e.aliased = is_aliased;
                e.suspect = is_suspect;
                self.dirty.insert(d.net);
            }
        }

        // Priority order: highest first, ties on ascending prefix.
        let mut order: Vec<(u64, &PrefixDemand)> = demands
            .iter()
            .map(|d| {
                let e = self.entries.get(&d.net).copied().unwrap_or_default();
                (priority(&e, d.candidates, day), d)
            })
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.net.cmp(&b.1.net)));

        let mut remaining = cfg.daily_budget;
        let split_on = cfg.split_entropy <= 1.0;
        for (prio, d) in order {
            if prio == 0 || remaining == 0 {
                continue; // aliased prefixes get nothing; budget may be dry
            }
            let take = d.candidates.min(cfg.per_48_cap).min(remaining);
            if take == 0 {
                continue;
            }
            remaining -= take;
            let split = split_on && take >= 16 && demand_entropy(d) >= cfg.split_entropy;
            let sampled: u64 = d.sample.len() as u64;
            if split && sampled > 0 {
                // Weight the allocation by the sample's observed /52
                // children. An even 16-way spread parks quota on
                // children with no members, and admission silently
                // underspends the budget by exactly that amount.
                let mut counts = [0u64; 16];
                for &a in &d.sample {
                    counts[child_of(u128::from(a))] += 1;
                }
                let mut quotas = counts.map(|c| take * c / sampled);
                // Remainder round-robins over the sampled children in
                // prefix order, so the full `take` is always assigned.
                let left = take - quotas.iter().sum::<u64>();
                for c in (0..16)
                    .cycle()
                    .filter(|&c| counts[c] > 0)
                    .take(left as usize)
                {
                    quotas[c] += 1;
                }
                for (child, &q) in d.net.subprefixes(4).zip(&quotas) {
                    if q > 0 {
                        plan.quotas.insert(child, q);
                    }
                }
            } else {
                plan.quotas.insert(d.net, take);
            }
            if self.entries.get(&d.net).is_some_and(|e| e.suspect) {
                plan.trace
                    .extend(d.sample.iter().take(cfg.followup_targets));
            }
        }
        self.last_budget = cfg.daily_budget;
        self.last_used = cfg.daily_budget - remaining;
        plan
    }

    /// Plan and admit one day: `kept` (ids in `kept_ids`) grouped into
    /// /48 demands, [`Scheduler::plan_day`] over them, and each quota's
    /// day-rotated window admitted. Returns the admitted targets, as ids
    /// and addresses, and the plan's [`SchedPlan::trace_targets`].
    pub fn schedule_day(
        &mut self,
        cfg: &SchedConfig,
        day: u16,
        kept_ids: &AddrSet,
        kept: &[Ipv6Addr],
        aliased: &[Prefix],
        suspects: &[Prefix],
    ) -> (AddrSet, Vec<Ipv6Addr>, Vec<Ipv6Addr>) {
        let (order, demands) = sched_demands(kept);
        let plan = self.plan_day(cfg, day, &demands, aliased, suspects);
        let (ids, targets) = sched_admit(day, kept_ids, kept, &order, &demands, &plan);
        (ids, targets, plan.trace)
    }

    /// Fold one probing day's outcome back into the queue: per /48,
    /// the slots actually spent and the responsive addresses credited.
    /// Touched entries are marked for the next journal delta.
    pub fn record_day(&mut self, day: u16, outcomes: &[(Prefix, u64, u64)]) {
        for &(net, spent, found) in outcomes {
            let e = self.entries.entry(net).or_default();
            e.spent = e.spent.saturating_add(spent);
            e.found = e.found.saturating_add(found);
            e.last_scanned = day;
            self.dirty.insert(net);
        }
    }

    /// The introspection view: last plan's budget figures plus the
    /// top-`k` entries by canonical priority (candidates approximated
    /// by `found.max(1)` so the ranking is derivable from persisted
    /// state alone — identical for live and journal-loaded views).
    pub fn status(&self, day: u16, k: usize) -> SchedStatus {
        let mut ranked: Vec<SchedJobInfo> = self
            .entries
            .iter()
            .map(|(p, e)| SchedJobInfo {
                net: *p,
                kind: u8::from(e.suspect && !e.aliased),
                priority: priority(e, e.found.max(1), day),
                spent: e.spent,
            })
            .collect();
        ranked.sort_by(|a, b| b.priority.cmp(&a.priority).then_with(|| a.net.cmp(&b.net)));
        ranked.truncate(k);
        SchedStatus {
            budget: self.last_budget,
            used: self.last_used,
            entries: self.entries.len() as u64,
            top: ranked,
        }
    }
}

/// The day's `(/48, targets, responders)` counts that
/// [`Scheduler::record_day`] folds, ascending, /48s with neither left
/// out: the table's address order puts each /48's members in one run.
pub fn day_outcomes(
    table: &AddrTable,
    targets: &AddrSet,
    responders: impl IntoIterator<Item = AddrId>,
) -> Vec<(Prefix, u64, u64)> {
    let order = table.sorted();
    let targeted: IdBits = targets.iter().collect();
    let found: IdBits = responders.into_iter().collect();
    let mut outcomes: Vec<(Prefix, u64, u64)> = Vec::new();
    let mut at = 0;
    while let Some(&first) = order.as_slice().get(at) {
        let net = Prefix::from_bits(table.bits(first), SCHED_PREFIX_LEN);
        let run = order.positions_from(table, net, at);
        let members = &order.as_slice()[run.clone()];
        let count = |bits: &IdBits| members.iter().filter(|&&id| bits.contains(id)).count();
        let (spent, hits) = (count(&targeted) as u64, count(&found) as u64);
        if spent + hits > 0 {
            outcomes.push((net, spent, hits));
        }
        at = run.end;
    }
    outcomes
}

/// Scheduling step 1 of 3: group the kept members by covering /48 and
/// build one [`PrefixDemand`] per group (candidate count + a bounded
/// sorted sample for the entropy fingerprint and follow-up traces).
///
/// The groups come back as runs: `kept`'s positions sorted by
/// `(/48, position)`, so each /48's members are one run in id order.
/// The demands are ascending by /48 too, and each one's candidate
/// count is its run's length.
fn sched_demands(kept: &[Ipv6Addr]) -> (Vec<usize>, Vec<PrefixDemand>) {
    let host_bits = 128 - u32::from(SCHED_PREFIX_LEN);
    // One sort key per member: its /48 above its position.
    let mut keys: Vec<u128> = kept
        .iter()
        .enumerate()
        .map(|(pos, &a)| u128::from(a) >> host_bits << 64 | pos as u128)
        .collect();
    keys.sort_unstable();
    let pos = |key: u128| key as u64 as usize;
    let demands = keys
        .chunk_by(|a, b| a >> 64 == b >> 64)
        .map(|run| {
            let mut sample: Vec<Ipv6Addr> = run
                .iter()
                .take(MAX_DEMAND_SAMPLE)
                .map(|&key| kept[pos(key)])
                .collect();
            sample.sort_unstable();
            PrefixDemand {
                net: Prefix::from_bits(run[0] >> 64 << host_bits, SCHED_PREFIX_LEN),
                candidates: run.len() as u64,
                sample,
            }
        })
        .collect();
    (keys.into_iter().map(pos).collect(), demands)
}

/// Scheduling step 3 of 3: admit members against the plan's per-prefix
/// quotas. Within its /48's run, each member falls under its quota key
/// (its /52 child when that child holds a quota — the /48 was split —
/// the /48 itself otherwise), and a rotated window of each key's
/// members is admitted: the window's start offset advances by `quota`
/// positions per day, so a /48 held under its cap cycles through *all*
/// its members across days instead of re-probing the same head.
///
/// A window never exceeds its key's quota, so it is exactly what
/// [`SchedPlan::admit`] accepts when called member by member; the
/// quotas are read once per run and never consumed.
///
/// The returned list is an id-order subsequence of `kept`; with the
/// degenerate config every member is admitted and the list *is*
/// `kept`, which is what makes the scheduled and fixed paths
/// byte-identical there.
fn sched_admit(
    day: u16,
    kept_ids: &AddrSet,
    kept: &[Ipv6Addr],
    order: &[usize],
    demands: &[PrefixDemand],
    plan: &SchedPlan,
) -> (AddrSet, Vec<Ipv6Addr>) {
    // Bit `i` admits `kept[i]`.
    let mut selected = vec![0u64; kept.len().div_ceil(64)];
    let mut admit_window = |members: &[usize], quota: Option<&u64>| {
        let m = members.len();
        let q = quota.map_or(0, |&quota| quota.min(m as u64) as usize);
        // A run is never empty, and a full window (`q == m`) starts at 0.
        let start = usize::from(day) * q % m;
        for &pos in members[start..].iter().chain(&members[..start]).take(q) {
            selected[pos / 64] |= 1 << (pos % 64);
        }
    };
    let mut rest = order;
    let mut regrouped = Vec::new();
    for d in demands {
        let (run, tail) = rest.split_at(d.candidates as usize);
        rest = tail;
        // The quotas under this /48: its own, and each /52 child's.
        let own = plan.quotas.get(&d.net);
        let mut children: [Option<&u64>; 16] = [None; 16];
        let span = d.net.subprefix(4, 0)..=d.net.subprefix(4, 15);
        for (p, q) in plan.quotas.range(span) {
            children[child_of(p.bits())] = Some(q);
        }
        if children.iter().all(Option::is_none) {
            admit_window(run, own);
            continue;
        }
        // Split: a member's key is its child when that child holds a
        // quota, else the /48 (`None`). A stable sort by key keeps id
        // order within each key.
        let key =
            |pos: usize| Some(child_of(u128::from(kept[pos]))).filter(|&c| children[c].is_some());
        regrouped.clear();
        regrouped.extend_from_slice(run);
        regrouped.sort_by_key(|&pos| key(pos));
        for members in regrouped.chunk_by(|&a, &b| key(a) == key(b)) {
            admit_window(members, key(members[0]).map_or(own, |c| children[c]));
        }
    }
    let (ids, targets) = kept_ids
        .iter()
        .zip(kept)
        .enumerate()
        .filter(|&(pos, _)| selected[pos / 64] >> (pos % 64) & 1 == 1)
        .map(|(_, (id, &a))| (id, a))
        .unzip();
    (AddrSet::from_sorted(ids), targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p48(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn demand(net: &str, candidates: u64) -> PrefixDemand {
        let net = p48(net);
        let sample: Vec<Ipv6Addr> = (0..candidates.min(64))
            .map(|i| net.addr_at(i as u128))
            .collect();
        PrefixDemand {
            net,
            candidates,
            sample,
        }
    }

    #[test]
    fn degenerate_config_admits_everything() {
        let cfg = SchedConfig::degenerate();
        let mut s = Scheduler::new();
        let demands = vec![demand("2001:db8:1::/48", 100), demand("2001:db8:2::/48", 7)];
        let mut plan = s.plan_day(&cfg, 3, &demands, &[], &[]);
        assert_eq!(s.status(3, 0).used, 107);
        assert!(s.suspect_prefixes().is_empty());
        assert!(plan.trace_targets().is_empty());
        for d in &demands {
            assert_eq!(plan.quotas.get(&d.net), Some(&d.candidates));
            for i in 0..d.candidates {
                assert!(
                    plan.admit(d.net.addr_at(i as u128)),
                    "slot {i} of {}",
                    d.net
                );
            }
        }
        // Every slot was consumed, and no quota was overdrawn.
        assert!(plan.quotas.values().all(|&q| q == 0));
    }

    #[test]
    fn unselected_prefix_is_refused() {
        let cfg = SchedConfig::degenerate();
        let mut s = Scheduler::new();
        let mut plan = s.plan_day(&cfg, 0, &[demand("2001:db8:1::/48", 4)], &[], &[]);
        assert!(!plan.admit(p48("2001:db8:9::/48").addr_at(0)));
    }

    #[test]
    fn per_48_cap_is_hard() {
        let cfg = SchedConfig::budgeted(1000, 10);
        let mut s = Scheduler::new();
        let demands = vec![demand("2001:db8:1::/48", 500)];
        let mut plan = s.plan_day(&cfg, 0, &demands, &[], &[]);
        assert_eq!(plan.quotas.get(&demands[0].net), Some(&10));
        let admitted: Vec<u128> = (0..500u128)
            .filter(|&i| plan.admit(demands[0].net.addr_at(i)))
            .collect();
        // The first ten calls take the cap; every later one is refused.
        assert_eq!(admitted, (0..10).collect::<Vec<_>>());
        assert_eq!(plan.quotas.get(&demands[0].net), Some(&0));
    }

    #[test]
    fn budget_is_spent_by_priority() {
        let cfg = SchedConfig::budgeted(20, 20);
        let mut s = Scheduler::new();
        // Give the second prefix a strong yield history.
        s.record_day(0, &[(p48("2001:db8:1::/48"), 100, 1)]);
        s.record_day(0, &[(p48("2001:db8:2::/48"), 100, 90)]);
        let demands = vec![demand("2001:db8:1::/48", 20), demand("2001:db8:2::/48", 20)];
        let plan = s.plan_day(&cfg, 5, &demands, &[], &[]);
        // The whole budget lands on the high-yield prefix.
        assert_eq!(plan.quotas.get(&p48("2001:db8:2::/48")), Some(&20));
        assert_eq!(plan.quotas.get(&p48("2001:db8:1::/48")), None);
        assert_eq!(s.status(5, 0).used, 20);
    }

    #[test]
    fn follow_up_traces_come_in_priority_order() {
        let cfg = SchedConfig::budgeted(1000, 100);
        let mut s = Scheduler::new();
        // Two suspects with different yield histories — the stronger one
        // at the higher prefix, so prefix order alone would list it last
        // — and one clean /48 between them.
        let (weak, clean, strong) = (
            p48("2001:db8:1::/48"),
            p48("2001:db8:2::/48"),
            p48("2001:db8:3::/48"),
        );
        s.record_day(0, &[(weak, 100, 1), (clean, 100, 50), (strong, 100, 90)]);
        let demands = vec![
            demand("2001:db8:1::/48", 20),
            demand("2001:db8:2::/48", 20),
            demand("2001:db8:3::/48", 20),
        ];
        let plan = s.plan_day(&cfg, 5, &demands, &[], &[weak, strong]);
        assert_eq!(s.suspect_prefixes(), vec![weak, strong]);
        let first = |net: Prefix| -> Vec<Ipv6Addr> {
            (0..cfg.followup_targets as u128)
                .map(|i| net.addr_at(i))
                .collect()
        };
        assert_eq!(plan.trace_targets(), [first(strong), first(weak)].concat());
        let quotas: u64 = plan.quotas.values().sum();
        assert_eq!(quotas, 60);
        assert_eq!(s.status(5, 3).used, quotas);
    }

    #[test]
    fn aliased_prefixes_are_starved_and_suspects_traced() {
        let mut cfg = SchedConfig::budgeted(100, 50);
        cfg.split_entropy = 2.0; // isolate the alias/suspect behaviour
        let mut s = Scheduler::new();
        let demands = vec![
            demand("2001:db8:1::/48", 30),
            demand("2001:db8:100::/48", 30),
        ];
        // A verdict covering the first /48 (but not the second, which
        // differs inside the /40 span): alias space, starved.
        let covering: Prefix = "2001:db8::/40".parse().unwrap();
        let suspect = p48("2001:db8:100::/48");
        let plan = s.plan_day(&cfg, 1, &demands, &[covering], &[suspect]);
        assert_eq!(plan.quotas.get(&p48("2001:db8:1::/48")), None);
        assert!(s.entries.get(&p48("2001:db8:1::/48")).unwrap().aliased);
        // The suspect still scans (demoted) and gets follow-up traces.
        assert!(plan.quotas.contains_key(&suspect));
        let traces = plan.trace_targets();
        assert_eq!(traces.len(), cfg.followup_targets);
        assert!(traces.iter().all(|&a| suspect.contains(a)));
        assert_eq!(s.suspect_prefixes(), vec![suspect]);
    }

    #[test]
    fn interior_fabric_marks_suspect_not_aliased() {
        // A fabric verdict strictly *inside* the /48: the surviving
        // candidates already passed the alias filter, so the prefix
        // keeps scanning (demoted) instead of being starved — the
        // behaviour the degenerate oracle depends on.
        let mut cfg = SchedConfig::budgeted(100, 50);
        cfg.split_entropy = 2.0;
        let mut s = Scheduler::new();
        let net = p48("2001:db8:1::/48");
        let fabric: Prefix = "2001:db8:1:1::/64".parse().unwrap();
        let plan = s.plan_day(&cfg, 1, &[demand("2001:db8:1::/48", 30)], &[fabric], &[]);
        let e = s.entries.get(&net).unwrap();
        assert!(!e.aliased);
        assert!(e.suspect);
        assert_eq!(plan.quotas.get(&net), Some(&30));
        // Suspect feedback: traced and fed back to the APD plan.
        let traces = plan.trace_targets();
        assert_eq!(traces.len(), cfg.followup_targets);
        assert!(traces.iter().all(|&a| net.contains(a)));
        assert_eq!(s.suspect_prefixes(), vec![net]);
    }

    #[test]
    fn high_entropy_prefix_splits_into_52s() {
        let mut cfg = SchedConfig::budgeted(64, 64);
        cfg.split_entropy = 0.1;
        let net = p48("2001:db8:1::/48");
        // Spread the sample across all 16 /52 children: maximal nybble-13
        // entropy, so the prefix must split.
        let sample: Vec<Ipv6Addr> = (0..64u128)
            .map(|i| net.addr_at((i % 16) << 76 | (i / 16)))
            .collect();
        let mut s = Scheduler::new();
        let mut plan = s.plan_day(
            &cfg,
            0,
            &[PrefixDemand {
                net,
                candidates: 64,
                sample: sample.clone(),
            }],
            &[],
            &[],
        );
        // 16 /52 quotas of 4 each, no /48-level quota.
        assert_eq!(plan.quotas.len(), 16);
        assert!(plan.quotas.keys().all(|p| p.len() == SPLIT_PREFIX_LEN));
        assert_eq!(plan.quotas.values().sum::<u64>(), 64);
        // The largest /52 quota.
        assert_eq!(plan.quotas.values().max(), Some(&4));
        // Admission charges the member's /52 child, never the /48.
        let child = Prefix::new(sample[0], SPLIT_PREFIX_LEN);
        assert!(plan.admit(sample[0]));
        assert_eq!(plan.quotas.get(&child), Some(&3));
        assert_eq!(plan.quotas.get(&net), None);
        assert_eq!(plan.quotas.values().sum::<u64>(), 63);
    }

    #[test]
    fn split_remainder_goes_to_the_lowest_sampled_children() {
        let mut cfg = SchedConfig::budgeted(37, 37);
        cfg.split_entropy = 0.01;
        let net = p48("2001:db8:1::/48");
        // Six sampled members in each of children 0, 5 and 9: 37 × 6/18
        // floors to 12 each, and the one slot left goes to child 0.
        let sample: Vec<Ipv6Addr> = [0u128, 5, 9]
            .iter()
            .flat_map(|&c| (0..6u128).map(move |i| net.addr_at(c << 76 | i)))
            .collect();
        let demand = PrefixDemand {
            net,
            candidates: 37,
            sample,
        };
        let plan = Scheduler::new().plan_day(&cfg, 0, &[demand], &[], &[]);
        let quotas: Vec<(usize, u64)> = plan
            .quotas
            .iter()
            .map(|(p, &q)| (child_of(p.bits()), q))
            .collect();
        assert_eq!(quotas, [(0, 13), (5, 12), (9, 12)]);
    }

    /// The demanded /48s live under one /45, so verdicts from /32 to
    /// /64 cover several of them, all, or lie inside one.
    const BASE45: u128 = 0x2001_0db8_0010 << 80;

    /// A verdict: the network bits of /48 number `idx` plus a /64
    /// below it, masked to `len`. Lengths favour the /45–/48 span and
    /// the exact /48, and the low bits are often zero, so a verdict
    /// and a longer or shorter one often share their first address.
    fn arb_verdict() -> impl Strategy<Value = Prefix> {
        (
            0u128..9,
            prop_oneof![Just(0u128), 0u128..4, any::<u16>().prop_map(u128::from)],
            prop_oneof![32u8..=64, 45u8..=48, Just(48u8), 49u8..=64],
        )
            .prop_map(|(idx, low, len)| Prefix::from_bits(BASE45 + (idx << 80) + (low << 64), len))
    }

    /// `list`, with each of its first `twins.len()` verdicts repeated
    /// at the length `twins` gives it (same first address), the whole
    /// list doubled when `dup`, and reversed and rotated out of order
    /// when `shuffle > 0`.
    fn verdict_list(mut list: Vec<Prefix>, twins: &[u8], dup: bool, shuffle: usize) -> Vec<Prefix> {
        let extra: Vec<Prefix> = list
            .iter()
            .zip(twins)
            .map(|(v, &len)| Prefix::from_bits(v.bits(), len))
            .collect();
        list.extend(extra);
        if dup {
            list.extend(list.clone());
        }
        list.sort_unstable();
        if shuffle > 0 && !list.is_empty() {
            list.reverse();
            let k = shuffle % list.len();
            list.rotate_left(k);
        }
        list
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `plan_day`'s flag refresh against the definition it replaced:
        /// aliased when an aliased verdict at or above the /48 covers
        /// it; suspect when an aliased verdict lies strictly inside an
        /// unaliased /48, or a suspect verdict covers it or lies inside
        /// it. Exactly the flag transitions are dirtied.
        #[test]
        fn flag_refresh_matches_the_naive_scan(
            picks in collection::vec(0u128..9, 0..12),
            initial in collection::vec((0u128..9, any::<bool>(), any::<bool>()), 0..6),
            aliased in collection::vec(arb_verdict(), 0..10),
            alias_twins in collection::vec(32u8..=64, 0..4),
            suspects in collection::vec(arb_verdict(), 0..6),
            suspect_twins in collection::vec(32u8..=64, 0..3),
            (dup, shuffle_a, shuffle_s, reverse_d) in (any::<bool>(), 0usize..4, 0usize..4, any::<bool>()),
        ) {
            let aliased = verdict_list(aliased, &alias_twins, dup, shuffle_a);
            let suspects = verdict_list(suspects, &suspect_twins, !dup, shuffle_s);
            let net = |idx: u128| Prefix::from_bits(BASE45 + (idx << 80), SCHED_PREFIX_LEN);
            let mut nets: Vec<Prefix> = picks.iter().map(|&i| net(i)).collect();
            nets.sort_unstable();
            nets.dedup();
            if reverse_d {
                nets.reverse();
            }
            let demands: Vec<PrefixDemand> = nets
                .iter()
                .map(|&net| PrefixDemand { net, candidates: 1, sample: Vec::new() })
                .collect();

            let mut s = Scheduler::new();
            for &(idx, aliased, suspect) in &initial {
                let e = PrefixEntry { aliased, suspect, ..PrefixEntry::new() };
                s.entries.insert(net(idx), e);
            }
            let before = s.entries.clone();
            s.plan_day(&SchedConfig::degenerate(), 0, &demands, &aliased, &suspects);

            let mut dirty = BTreeSet::new();
            for &n in &nets {
                let is_aliased = aliased.iter().any(|a| a.len() <= 48 && a.covers(&n));
                let inside = aliased.iter().any(|a| a.len() > 48 && n.covers(a));
                let overlaps = |v: &Prefix| {
                    if v.len() <= n.len() { v.covers(&n) } else { n.covers(v) }
                };
                let is_suspect = (!is_aliased && inside) || suspects.iter().any(overlaps);
                let e = s.entries.get(&n).copied().unwrap_or_default();
                prop_assert_eq!((e.aliased, e.suspect), (is_aliased, is_suspect), "{}", n);
                let old = before.get(&n).copied().unwrap_or_default();
                if (old.aliased, old.suspect) != (is_aliased, is_suspect) {
                    dirty.insert(n);
                }
            }
            prop_assert_eq!(&s.dirty, &dirty);
        }
    }

    #[test]
    fn staleness_rotates_cold_prefixes_back_in() {
        let e_fresh = PrefixEntry {
            spent: 100,
            found: 0,
            last_scanned: 10,
            ..PrefixEntry::new()
        };
        let e_stale = PrefixEntry {
            spent: 100,
            found: 0,
            last_scanned: 0,
            ..PrefixEntry::new()
        };
        assert!(priority(&e_stale, 10, 10) > priority(&e_fresh, 10, 10));
        // Never-scanned beats both.
        assert!(priority(&PrefixEntry::new(), 10, 10) > priority(&e_stale, 10, 10));
    }

    #[test]
    fn status_ranks_by_priority_and_truncates() {
        let mut s = Scheduler::new();
        s.record_day(2, &[(p48("2001:db8:1::/48"), 100, 2)]);
        s.record_day(2, &[(p48("2001:db8:2::/48"), 100, 80)]);
        s.record_day(2, &[(p48("2001:db8:3::/48"), 100, 40)]);
        let cfg = SchedConfig::budgeted(50, 25);
        s.plan_day(&cfg, 3, &[demand("2001:db8:2::/48", 10)], &[], &[]);
        let st = s.status(3, 2);
        assert_eq!(st.entries, 3);
        assert_eq!(st.budget, 50);
        assert_eq!(st.top.len(), 2);
        assert_eq!(st.top[0].net, p48("2001:db8:2::/48"));
        assert!(st.top[0].priority >= st.top[1].priority);
    }

    /// The kept members grouped by covering /48, id order within a group.
    type Groups = BTreeMap<Prefix, Vec<Ipv6Addr>>;

    /// Reference for [`sched_demands`]: a `BTreeMap` regroup.
    fn sched_demands_reference(kept: &[Ipv6Addr]) -> (Groups, Vec<PrefixDemand>) {
        let mut groups = Groups::new();
        for &a in kept {
            groups
                .entry(Prefix::new(a, SCHED_PREFIX_LEN))
                .or_default()
                .push(a);
        }
        let demands = groups
            .iter()
            .map(|(&net, members)| {
                let mut sample: Vec<Ipv6Addr> =
                    members.iter().copied().take(MAX_DEMAND_SAMPLE).collect();
                sample.sort_unstable();
                PrefixDemand {
                    net,
                    candidates: members.len() as u64,
                    sample,
                }
            })
            .collect();
        (groups, demands)
    }

    /// Reference for [`sched_admit`]: regroup every member under its
    /// quota key, then admit each group's rotated window one member at
    /// a time through [`SchedPlan::admit`].
    fn sched_admit_reference(
        day: u16,
        kept_ids: &AddrSet,
        kept: &[Ipv6Addr],
        groups: &Groups,
        plan: &mut SchedPlan,
    ) -> (AddrSet, Vec<Ipv6Addr>) {
        let mut qgroups = Groups::new();
        for (&net, members) in groups {
            for &a in members {
                let p52 = Prefix::new(a, SPLIT_PREFIX_LEN);
                let key = if plan.quotas.contains_key(&p52) {
                    p52
                } else {
                    net
                };
                qgroups.entry(key).or_default().push(a);
            }
        }
        let mut selected: BTreeSet<Ipv6Addr> = BTreeSet::new();
        for (key, members) in &qgroups {
            let Some(&quota) = plan.quotas.get(key) else {
                continue;
            };
            let m = members.len();
            let q = quota.min(m as u64) as usize;
            if q == 0 {
                continue;
            }
            let start = if q >= m { 0 } else { (day as usize * q) % m };
            for i in 0..q {
                let a = members[(start + i) % m];
                if plan.admit(a) {
                    selected.insert(a);
                }
            }
        }
        let (ids, targets) = kept_ids
            .iter()
            .zip(kept)
            .filter(|(_, a)| selected.contains(a))
            .unzip();
        (AddrSet::from_sorted(ids), targets)
    }

    /// Reference for [`day_outcomes`]: a `BTreeMap` regroup of the
    /// targets and the responders by covering /48.
    fn day_outcomes_reference(
        table: &AddrTable,
        targets: &AddrSet,
        responders: &[AddrId],
    ) -> Vec<(Prefix, u64, u64)> {
        let mut outcomes: BTreeMap<Prefix, (u64, u64)> = BTreeMap::new();
        for a in targets.addrs(table) {
            outcomes
                .entry(Prefix::new(a, SCHED_PREFIX_LEN))
                .or_default()
                .0 += 1;
        }
        for &id in responders {
            outcomes
                .entry(Prefix::new(table.addr(id), SCHED_PREFIX_LEN))
                .or_default()
                .1 += 1;
        }
        outcomes
            .into_iter()
            .map(|(net, (spent, found))| (net, spent, found))
            .collect()
    }

    /// The six /48s the oracles draw from.
    fn oracle_net(i: u8) -> Prefix {
        Prefix::from_bits((0x2001_0db8_0000 + u128::from(i)) << 80, SCHED_PREFIX_LEN)
    }

    /// An address under /48 number `net`, /52 child `child`: few
    /// distinct /52s and few addresses per /52, so groups are both
    /// large and small.
    fn oracle_bits(net: u8, child: u8, sub: u8, low: u16) -> u128 {
        oracle_net(net).bits()
            | u128::from(child) << 76
            | u128::from(sub) << 64
            | u128::from(low % 64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The runs-and-bitset admission against the `BTreeMap` regroup
        /// and per-member `SchedPlan::admit` it replaced. Each /48 gets
        /// no quota, a /48 quota (zero, below, at or above its member
        /// count), or /52 child quotas (some zero, some children
        /// without one, sometimes beside a /48 quota); the day makes
        /// most rotated windows wrap.
        #[test]
        fn admission_matches_the_btreemap_reference(
            members in collection::vec((0u8..6, 0u8..16, 0u8..4, any::<u16>()), 0..300),
            modes in collection::vec((0u8..4, 0u64..40, collection::vec(0u64..6, 16)), 6),
            day in any::<u16>(),
        ) {
            let mut table = AddrTable::new();
            let mut ids = Vec::new();
            let mut kept = Vec::new();
            for &(net, child, sub, low) in &members {
                let (id, new) = table.intern_u128(oracle_bits(net, child, sub, low));
                if new {
                    ids.push(id);
                    kept.push(table.addr(id));
                }
            }
            let kept_ids = AddrSet::from_sorted(ids);

            let mut plan = SchedPlan::default();
            for (i, (mode, quota, child_quotas)) in modes.iter().enumerate() {
                let net = oracle_net(i as u8);
                if matches!(mode, 1 | 3) {
                    plan.quotas.insert(net, *quota);
                }
                if *mode >= 2 {
                    for (c, child) in net.subprefixes(4).enumerate() {
                        // Quota 5 means "no quota for this child".
                        if child_quotas[c] < 5 {
                            plan.quotas.insert(child, child_quotas[c]);
                        }
                    }
                }
            }

            let (groups, want_demands) = sched_demands_reference(&kept);
            let (order, demands) = sched_demands(&kept);
            prop_assert_eq!(&demands, &want_demands);
            let want = sched_admit_reference(day, &kept_ids, &kept, &groups, &mut plan.clone());
            let got = sched_admit(day, &kept_ids, &kept, &order, &demands, &plan);
            prop_assert_eq!(got, want);
        }

        /// The per-/48 run walk against a `BTreeMap` regroup of the
        /// targets and responders. The table's rows span few /48s, some
        /// rows are not targets (and some /48s hold no target at all),
        /// the targets are a random subset of the rows, and the
        /// responders a random subset of the targets. Equal runs, with
        /// no /48 that saw neither.
        #[test]
        fn outcomes_match_the_btreemap_reference(
            rows in collection::vec(
                ((0u8..6, 0u8..16, 0u8..4, any::<u16>()), any::<bool>(), any::<bool>()),
                0..300,
            ),
        ) {
            let mut table = AddrTable::new();
            let (mut targets, mut responders) = (Vec::new(), Vec::new());
            for &((net, child, sub, low), targeted, answered) in &rows {
                let (id, new) = table.intern_u128(oracle_bits(net, child, sub, low));
                if new && targeted {
                    targets.push(id);
                    if answered {
                        responders.push(id);
                    }
                }
            }
            let targets = AddrSet::from_sorted(targets);
            let want = day_outcomes_reference(&table, &targets, &responders);
            let got = day_outcomes(&table, &targets, responders.iter().copied());
            prop_assert_eq!(got, want);
        }
    }
}
