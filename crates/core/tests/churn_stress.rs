//! Churn stress properties: the pipeline driven by the adversarial
//! scenario layer (rotating delegated prefixes, privacy-address churn,
//! throttled routers, alias fabrics) with the scenario feed pouring the
//! *currently valid* periphery addresses into the hitlist every day.
//!
//! Under any interleaving of compacting saves and delta appends the
//! journal must replay to the straight-line run's exact state bytes;
//! tombstone/revival accounting must stay consistent when ghosts are
//! deliberately re-fed after expiry; and the per-day delta must stay
//! bounded — churn rewrites rows, it must not make the journal carry
//! the accumulated past every day, and a full-APD day's record must fit
//! a budget counted in planned prefixes and responders.

use expanse_core::{Pipeline, PipelineConfig, RetentionConfig};
use expanse_model::{ModelConfig, SourceId};
use proptest::prelude::*;
use std::sync::OnceLock;

const SEED: u64 = 2641;
const MAX_DAYS: usize = 5;

fn model_config() -> ModelConfig {
    ModelConfig::adversarial(SEED)
}

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig {
        trace_budget: 20,
        retention: RetentionConfig {
            window: Some(3),
            every: 1,
        },
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    cfg
}

fn fresh() -> Pipeline {
    let mut p = Pipeline::new(model_config(), config());
    p.collect_sources(30);
    p.warmup_apd(1);
    p
}

/// One adversarial probing day: feed the day's valid scenario addresses
/// (the rotation epoch's hosts, today's privacy addresses, the throttled
/// routers, fabric samples), then run the pipeline day.
fn feed_and_run(p: &mut Pipeline) {
    let day = p.day();
    let feed = p.model_ref().scenario_feed(day);
    assert!(!feed.is_empty(), "adversarial feed must not be empty");
    p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
    p.run_day();
}

fn state_bytes(p: &mut Pipeline) -> Vec<u8> {
    let mut buf = Vec::new();
    p.save_full(&mut buf).expect("save_full");
    buf
}

/// `reference()[d]`: straight-line state bytes after `d` fed days.
fn reference() -> &'static [Vec<u8>] {
    static REF: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    REF.get_or_init(|| {
        let mut p = fresh();
        let mut states = vec![state_bytes(&mut p)];
        for _ in 0..MAX_DAYS {
            feed_and_run(&mut p);
            states.push(state_bytes(&mut p));
        }
        states
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any interleaving of compacting full saves and delta appends over
    /// the churning run replays byte-identical to the straight line —
    /// rotation renumbering, privacy-address turnover, and retention
    /// tombstones included.
    #[test]
    fn churny_journal_replays_to_straight_line_state(
        plan in proptest::collection::vec(any::<bool>(), 1..=MAX_DAYS),
    ) {
        let days = plan.len();
        let mut p = fresh();
        let mut journal = Vec::new();
        p.save_full(&mut journal).expect("initial base");
        let mut deltas_since_full = 0usize;
        for &full in &plan {
            feed_and_run(&mut p);
            if full {
                journal.clear();
                p.save_full(&mut journal).expect("compacting save");
                deltas_since_full = 0;
            } else {
                p.append_delta(&mut journal).expect("append_delta");
                deltas_since_full += 1;
            }
        }

        let (mut resumed, replay) =
            Pipeline::resume(model_config(), config(), &mut journal.as_slice())
                .expect("journal resume");
        prop_assert_eq!(replay.deltas_applied, deltas_since_full);
        prop_assert!(!replay.torn_tail);
        prop_assert_eq!(
            state_bytes(&mut resumed),
            reference()[days].clone(),
            "plan {:?} diverged from the straight-line run",
            plan
        );
    }
}

/// Re-feeding expired ghosts revives their tombstoned rows: the revival
/// count reported by `add_from` matches the number of dead rows named,
/// no new ids are minted, and the revived rows are alive again.
#[test]
fn ghost_refeed_revives_tombstones_consistently() {
    let mut p = fresh();
    for _ in 0..MAX_DAYS {
        feed_and_run(&mut p);
    }
    let today = p.day();
    // Ghosts of the final day that retention already tombstoned.
    let dead: Vec<_> = p
        .model_ref()
        .scenario_ghosts(today - 1)
        .into_iter()
        .filter(|&a| {
            // `id_of` only answers for live members; tombstoned rows are
            // found through the raw table.
            p.hitlist
                .table()
                .lookup(a)
                .is_some_and(|id| !p.hitlist.columns().alive[id.index()])
        })
        .collect();
    assert!(
        !dead.is_empty(),
        "a {MAX_DAYS}-day churn run must tombstone some ghosts"
    );

    let rows_before = p.hitlist.table().len();
    let live_before = p.hitlist.live_set().len();
    let revived = p.hitlist.add_from(SourceId::RipeAtlas, &dead, today);
    assert_eq!(revived, dead.len(), "every dead row must count as revived");
    assert_eq!(
        p.hitlist.table().len(),
        rows_before,
        "revival must not mint new ids"
    );
    assert_eq!(
        p.hitlist.live_set().len(),
        live_before + dead.len(),
        "revived rows must be alive members again"
    );
    for &a in &dead {
        let id = p.hitlist.id_of(a).expect("revived address keeps its id");
        assert!(p.hitlist.columns().alive[id.index()]);
        assert_eq!(
            p.hitlist.columns().added_day[id.index()],
            today,
            "revival must reset the retention grace window"
        );
    }
    // And a second add of the same addresses is a no-op.
    assert_eq!(p.hitlist.add_from(SourceId::RipeAtlas, &dead, today), 0);
}

/// Per-day delta bytes stay bounded under sustained churn: every delta
/// is far below the base snapshot, and the late-run deltas do not grow
/// past the early ones (the journal carries the day's churn, never the
/// accumulated history).
#[test]
fn per_day_delta_bytes_stay_bounded_under_churn() {
    let mut p = fresh();
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    let base_bytes = journal.len();
    let mut deltas = Vec::new();
    for _ in 0..MAX_DAYS {
        feed_and_run(&mut p);
        let before = journal.len();
        p.append_delta(&mut journal).expect("append_delta");
        deltas.push(journal.len() - before);
    }
    for (d, &bytes) in deltas.iter().enumerate() {
        assert!(
            bytes < base_bytes,
            "day {d}: delta {bytes} not smaller than the base {base_bytes}"
        );
    }
    let half = deltas.len() / 2;
    let early = deltas[..half].iter().sum::<usize>() as f64 / half as f64;
    let late = deltas[half..].iter().sum::<usize>() as f64 / (deltas.len() - half) as f64;
    assert!(
        late <= early * 2.0,
        "late deltas grew past the early ones: {deltas:?}"
    );
}

/// A full-APD day's record is sized by what the day learned — a day
/// bitmap per planned prefix, a protocol byte per responder — not by
/// the windows and rows it touched: at most 8 bytes a planned prefix
/// (front-coded key, push count, one bitmap ≈ 6.3) and 4 a responder
/// (id gap, protocol byte ≈ 2.6), plus slack for the frame, the ledger
/// day and the day's few appended rows.
#[test]
fn full_apd_day_delta_fits_its_size_budget() {
    let cfg = PipelineConfig {
        full_apd_every: 1,
        ..config()
    };
    let mut p = Pipeline::new(ModelConfig::tiny(SEED), cfg);
    p.collect_sources(30);
    p.warmup_apd(1);
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    for day in 0..3 {
        let report = p.run_day().report;
        assert!(report.plan_prefixes > 1000 && report.responders > 1000);
        let before = journal.len();
        p.append_delta(&mut journal).expect("append_delta");
        let bytes = (journal.len() - before) as u64;
        let budget = 8 * report.plan_prefixes + 4 * report.responders + 4096;
        assert!(
            bytes <= budget,
            "day {day}: {bytes}-byte delta over its {budget}-byte budget ({report:?})"
        );
    }
}
