//! The [`StageReport`] is exact and stays outside every persisted byte.
//!
//! Each day's report is checked against what the day's own outputs say
//! (the snapshot, the battery result, the hitlist before and after),
//! with the scheduler off, in the degenerate config, and budgeted on
//! the adversarial world with the daily scenario feed and retention on.
//! The fixed-grid reports are also pinned to recorded constants: the CI
//! multi-thread lane reruns this file at `EXPANSE_THREADS` 2 and 8, so a
//! count that moved with the worker count fails there by name.

use expanse_core::{Pipeline, PipelineConfig, RetentionConfig, SchedConfig, StageReport};
use expanse_model::{ModelConfig, SourceId};

/// How `admitted` must relate to `kept`.
#[derive(Clone, Copy)]
enum Admits {
    /// Scheduler off or degenerate: every kept member is a target.
    All,
    /// Under a budget: a subset.
    AtMostKept,
}

fn pipeline(model: ModelConfig, sched: SchedConfig, retention: RetentionConfig) -> Pipeline {
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        full_apd_every: 1,
        sched,
        retention,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(model, cfg);
    p.collect_sources(30);
    p
}

/// Run `days` days, checking every report against the day's outputs.
fn checked_days(p: &mut Pipeline, days: usize, feed: bool, admits: Admits) -> Vec<StageReport> {
    (0..days)
        .map(|_| {
            if feed {
                let today = p.day();
                let addrs = p.model_ref().scenario_feed(today);
                p.hitlist.add_from(SourceId::RipeAtlas, &addrs, today);
            }
            let live_at_start = p.hitlist.live_set().len() as u64;
            let rows_before = p.hitlist.table().len();
            let (snap, multi) = p.run_day_full();
            let r = snap.report;
            assert_eq!(
                snap.probes_sent,
                r.apd_probes + r.trace_probes + r.battery_probes
            );
            // Two probes per fan-out target, one per protocol, and
            // the silent targets' probes among them leave no frame.
            assert!(2 * r.apd_answerable <= r.apd_probes);
            assert_eq!(r.kept + r.removed, live_at_start);
            match admits {
                Admits::All => assert_eq!(r.admitted, r.kept),
                Admits::AtMostKept => assert!(r.admitted <= r.kept),
            }
            assert_eq!(r.battery_probes, multi.total_sent());
            assert_eq!(r.responders, snap.responsive.len() as u64);
            assert_eq!(r.expired, snap.expired_today as u64);
            assert_eq!(r.interned, (p.hitlist.table().len() - rows_before) as u64);
            assert!(
                r.plan_prefixes > 0 && r.apd_probes > 0,
                "every day is a full APD day"
            );
            r
        })
        .collect()
}

/// Three fixed-grid days of `ModelConfig::tiny(7)` — the world
/// `golden_digests` pins, so each day's probe counters sum to its
/// `PROBES_SENT`.
fn fixed() -> [StageReport; 3] {
    let day0 = StageReport {
        plan_prefixes: 6_779,
        apd_probes: 216_888,
        apd_answerable: 17_302,
        kept: 8_916,
        removed: 7_476,
        admitted: 8_916,
        trace_probes: 430,
        routers: 19,
        battery_probes: 44_580,
        responders: 3_489,
        expired: 0,
        interned: 17,
    };
    let day1 = StageReport {
        kept: 8_933,
        admitted: 8_933,
        trace_probes: 433,
        battery_probes: 44_665,
        responders: 3_428,
        interned: 0,
        ..day0
    };
    let day2 = StageReport {
        trace_probes: 432,
        responders: 3_373,
        ..day1
    };
    [day0, day1, day2]
}

#[test]
fn fixed_grid_reports_match_the_days_and_the_record() {
    let mut p = pipeline(
        ModelConfig::tiny(7),
        SchedConfig::default(),
        RetentionConfig::default(),
    );
    assert_eq!(checked_days(&mut p, 3, false, Admits::All), fixed());
}

#[test]
fn degenerate_scheduler_reports_equal_the_fixed_grid() {
    let mut p = pipeline(
        ModelConfig::tiny(7),
        SchedConfig::degenerate(),
        RetentionConfig::default(),
    );
    assert_eq!(checked_days(&mut p, 3, false, Admits::All), fixed());
}

#[test]
fn budgeted_days_with_feed_and_retention_report_exactly() {
    let retention = RetentionConfig {
        window: Some(1),
        every: 1,
    };
    let mut p = pipeline(
        ModelConfig::adversarial(7),
        SchedConfig::budgeted(600, 64),
        retention,
    );
    let reports = checked_days(&mut p, 4, true, Admits::AtMostKept);
    assert!(reports.iter().any(|r| r.admitted < r.kept), "budget binds");
    assert!(reports.iter().any(|r| r.expired > 0), "retention expires");
}

/// A resumed pipeline holds the live one's state byte for byte: the
/// report is in neither a base nor a delta record.
#[test]
fn report_is_absent_from_save_full_and_append_delta_bytes() {
    let model = ModelConfig::tiny(7);
    let mut p = pipeline(
        model.clone(),
        SchedConfig::default(),
        RetentionConfig::default(),
    );
    p.run_day();
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("in-memory save");
    p.run_day();
    p.append_delta(&mut journal).expect("in-memory append");

    let (mut resumed, replay) =
        Pipeline::resume(model, p.cfg.clone(), &mut journal.as_slice()).expect("resume");
    assert_eq!(replay.deltas_applied, 1);
    let (mut live_bytes, mut resumed_bytes) = (Vec::new(), Vec::new());
    p.save_full(&mut live_bytes).expect("in-memory save");
    resumed
        .save_full(&mut resumed_bytes)
        .expect("in-memory save");
    assert_eq!(live_bytes, resumed_bytes);
}
