//! Determinism and invariant guards for the probe scheduler
//! (`expanse-sched`) as integrated into the daily pipeline.
//!
//! Four contracts:
//!
//! 1. **Degenerate oracle** (proptest): the degenerate scheduler config
//!    (enabled, infinite budget/cap, splitting and follow-up off) is
//!    byte-identical to the fixed daily grid — same battery digests,
//!    same published service files — across model seeds.
//! 2. **Budget invariants on the adversarial model**: a budgeted run
//!    never exceeds the per-/48 daily spend cap (checked black-box from
//!    the hitlist's `probes_spent` deltas), and APD precision against
//!    the scenario layer's ground truth stays ≥ 0.95 — the scheduler
//!    must not trick the detector into flagging honest prefixes.
//! 3. **Recorded days**: scheduled days equal digests recorded before
//!    the battery grid went onto `par_map_coarse` (the CI multi-thread
//!    lane reruns this file under `EXPANSE_THREADS` 1/2/8).
//! 4. **Save/resume**: a scheduled run interrupted by save_full →
//!    resume recomputes the same future as the uninterrupted run.

use expanse_addr::Prefix;
use expanse_core::{service, Pipeline, PipelineConfig, SchedConfig};
use expanse_model::{ModelConfig, SourceId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Daily probe budget for the budgeted runs: roughly half the tiny
/// model's kept set, so the scheduler actually has to choose.
const BUDGET: u64 = 600;

/// Hard per-/48 daily spend cap for the budgeted runs.
const CAP: u64 = 64;

fn config(sched: SchedConfig) -> PipelineConfig {
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        sched,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    cfg
}

fn pipeline(model: ModelConfig, sched: SchedConfig) -> Pipeline {
    let mut p = Pipeline::new(model, config(sched));
    p.collect_sources(30);
    p
}

/// Everything a day publishes, byte for byte.
#[derive(Debug, PartialEq)]
struct DayOutput {
    day: u16,
    battery_digest: u64,
    hitlist_file: String,
    aliased_prefixes_file: String,
    probes_sent: u64,
}

fn drive(p: &mut Pipeline, days: usize) -> Vec<DayOutput> {
    (0..days)
        .map(|_| {
            let snap = p.run_day();
            DayOutput {
                day: snap.day,
                battery_digest: snap.battery_digest,
                hitlist_file: service::hitlist_file(&snap),
                aliased_prefixes_file: service::aliased_prefixes_file(&snap),
                probes_sent: snap.probes_sent,
            }
        })
        .collect()
}

proptest! {
    // Each case runs 2 × 3 probing days of the tiny model — expensive,
    // so a handful of seeds; the oracle is structural, not statistical.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The degenerate config admits every kept member in id order, so
    /// the scheduled path must reproduce the fixed grid byte for byte.
    #[test]
    fn degenerate_config_reproduces_fixed_grid(seed in 0u64..1000) {
        let fixed = drive(&mut pipeline(ModelConfig::tiny(seed), SchedConfig::default()), 3);
        let degen = drive(&mut pipeline(ModelConfig::tiny(seed), SchedConfig::degenerate()), 3);
        prop_assert_eq!(fixed, degen);
    }
}

/// Black-box per-/48 daily spend, from the hitlist's persisted
/// `probes_spent` counters (cumulative → per-day diff).
fn spent_by_48(p: &Pipeline) -> BTreeMap<Prefix, u64> {
    p.hitlist.probes_spent().collect()
}

#[test]
fn budgeted_run_respects_cap_and_budget_on_alias_fabrics() {
    let mut p = pipeline(
        ModelConfig::adversarial(77),
        SchedConfig::budgeted(BUDGET, CAP),
    );
    let mut before = spent_by_48(&p);
    for _ in 0..10u16 {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
        let snap = p.run_day();
        let after = spent_by_48(&p);
        let mut day_total = 0u64;
        for (&net, &cum) in &after {
            let spent = cum - before.get(&net).copied().unwrap_or(0);
            day_total += spent;
            assert!(
                spent <= CAP,
                "day {}: {net} spent {spent} battery slots, cap is {CAP}",
                snap.day
            );
        }
        assert!(
            day_total <= BUDGET,
            "day {}: {day_total} battery slots spent, budget is {BUDGET}",
            snap.day
        );
        assert!(day_total > 0, "day {}: scheduler starved the day", snap.day);
        before = after;
    }

    // APD precision against the model's ground truth: every prefix the
    // windowed detector classified aliased must actually cover an alias
    // fabric. The scheduler feeds suspects back into the APD plan, and
    // that feedback must not cost precision.
    let flagged = p.apd.aliased_prefixes();
    assert!(!flagged.is_empty(), "APD found nothing on the alias model");
    let truth = p.model_ref();
    let tp = flagged
        .iter()
        .filter(|px| truth.truth_aliased(px.addr_at(0)))
        .count();
    let precision = tp as f64 / flagged.len() as f64;
    assert!(
        precision >= 0.95,
        "APD precision {precision:.3} < 0.95 ({tp} true of {} flagged)",
        flagged.len()
    );
}

/// Four scheduled days of `ModelConfig::adversarial(77)` with the
/// daily scenario feed: per day `(battery_digest, multi digest,
/// probes_sent)`, recorded on the commit before the battery grid went
/// onto `par_map_coarse`, where the one-thread and worker-pool
/// executors agreed.
const RECORDED_SCHEDULED: [(u64, u64, u64); 4] = [
    (
        15_322_834_432_262_825_337,
        15_514_937_415_729_731_002,
        207_554,
    ),
    (13_101_478_280_524_804_605, 1_025_974_178_672_459_489, 3_546),
    (1_728_549_577_056_432_455, 9_957_649_844_916_170_412, 3_423),
    (7_085_135_991_892_857_361, 1_855_885_584_438_689_535, 3_465),
];

#[test]
fn scheduled_days_match_recorded() {
    let mut p = Pipeline::new(
        ModelConfig::adversarial(77),
        config(SchedConfig::budgeted(BUDGET, CAP)),
    );
    p.collect_sources(30);
    let mut days = Vec::new();
    for _ in 0..4u16 {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
        let (snap, multi) = p.run_day_full();
        days.push((snap.battery_digest, multi.digest(), snap.probes_sent));
    }
    assert_eq!(days, RECORDED_SCHEDULED);
}

#[test]
fn scheduled_run_resumes_byte_identically() {
    const N: usize = 3;
    const M: usize = 3;
    let sched = SchedConfig::budgeted(BUDGET, CAP);

    let mut straight = pipeline(ModelConfig::tiny(4242), sched.clone());
    let reference = drive(&mut straight, N + M);

    let mut before = pipeline(ModelConfig::tiny(4242), sched.clone());
    let head = drive(&mut before, N);
    assert_eq!(head[..], reference[..N]);
    let mut journal = Vec::new();
    before.save_full(&mut journal).expect("save_full");
    // One more scheduled day sealed as a delta record: the scheduler's
    // dirty upserts must ride the journal, not just the base.
    let sealed = drive(&mut before, 1);
    assert_eq!(sealed[..], reference[N..N + 1]);
    before.append_delta(&mut journal).expect("append_delta");
    drop(before);

    let (mut resumed, replay) = Pipeline::resume(
        ModelConfig::tiny(4242),
        config(sched),
        &mut journal.as_slice(),
    )
    .expect("resume");
    assert_eq!(replay.deltas_applied, 1);
    assert!(!replay.torn_tail);
    let tail = drive(&mut resumed, M - 1);
    assert_eq!(
        tail[..],
        reference[N + 1..],
        "post-resume scheduled days diverged from the uninterrupted run"
    );
    // The queue state itself converged, not just the published outputs.
    let mut a = Vec::new();
    let mut b = Vec::new();
    resumed.save_full(&mut a).expect("save resumed");
    straight.save_full(&mut b).expect("save straight");
    assert_eq!(a, b, "journaled scheduler state diverged after resume");
}
