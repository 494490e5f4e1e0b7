//! Byte identity against *history*, not just serial ≡ parallel.
//!
//! The other determinism suites compare two runs of the same commit
//! (serial vs parallel, live vs resumed), so an optimisation that
//! changed every output the same way on both sides would pass them.
//! This file pins three tiny-scale full-APD days to constants recorded
//! on the commit *before* the probe-path rewrite (PR 13: sorted-run
//! planning, one route lookup per frame, borrowed parse, reused frame
//! buffer, dense fan-out bookkeeping), and three days of the
//! adversarial world — one full-APD day, then two *hot* days — to
//! constants recorded on the commit before the container rewrite
//! (PR 14: sorted reply runs, arena trie, flat host index). A change
//! that is meant to keep every output byte passes it unedited; a change
//! that is meant to move the outputs re-records the constants and says
//! so.

use expanse_core::{Pipeline, PipelineConfig, SchedConfig};
use expanse_model::{ModelConfig, SourceId};

/// Per-day `battery_digest`, identical with the scheduler off and in
/// the degenerate config (the degenerate oracle of `sched_determinism`).
const DIGESTS: [u64; 3] = [
    621_330_540_362_602_448,
    8_576_060_311_091_779_024,
    17_977_382_459_976_938_771,
];

/// Per-day `probes_sent` (APD fan-out + traceroute + battery).
const PROBES_SENT: [u64; 3] = [261_898, 261_986, 261_985];

/// `save_full` after day 3, scheduler off: length, FNV-1a of the
/// *payload* (bytes `[10, len − 8)` — no magic, version or checksum)
/// and FNV-1a of the whole envelope. Length and payload hash were
/// recorded on the last codec-version-3 commit and survive a version
/// bump unedited — the base payload is the same at version 4; the
/// envelope hash was re-recorded at the bump, and the two version bytes
/// (plus the checksum over them) are the whole difference.
const SAVE_FIXED: (usize, u64, u64) = (731_572, 1_855_279_809_987_636_809, 937_634_766_884_496_860);

/// The same for `SchedConfig::degenerate()` (the queue adds entries).
const SAVE_DEGENERATE: (usize, u64, u64) = (
    743_092,
    11_701_831_329_155_036_384,
    2_806_299_343_198_206_529,
);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The adversarial world (rotating /56s, privacy churn, throttled
/// /64s, alias fabrics) with the daily scenario feed ingested: day 0
/// runs the full APD plan, days 1–2 are hot days, so the battery's
/// `scenario_hosts` and extra token-bucket paths carry the digest.
const ADVERSARIAL_DIGESTS: [u64; 3] = [
    12_737_875_461_527_271_307,
    4_764_881_485_117_139_893,
    10_433_070_167_097_953_532,
];
const ADVERSARIAL_PROBES_SENT: [u64; 3] = [264_478, 45_730, 45_817];
const ADVERSARIAL_SAVE: (usize, u64, u64) = (
    712_906,
    11_994_622_209_174_791_743,
    8_265_905_069_709_357_353,
);

/// Three days of `model`: digests, probe counts, and the final full
/// snapshot's (length, payload hash, envelope hash). `feed` ingests the
/// model's scenario feed before each day, as the bench harness does.
fn run(
    model: ModelConfig,
    full_apd_every: u16,
    sched: SchedConfig,
    feed: bool,
) -> ([u64; 3], [u64; 3], (usize, u64, u64)) {
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        full_apd_every,
        sched,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(model, cfg);
    p.collect_sources(30);
    let mut digests = [0u64; 3];
    let mut probes = [0u64; 3];
    for day in 0..3 {
        if feed {
            let today = p.day();
            let addrs = p.model_ref().scenario_feed(today);
            p.hitlist.add_from(SourceId::RipeAtlas, &addrs, today);
        }
        let full_apd = p.day().is_multiple_of(full_apd_every);
        let snap = p.run_day();
        // A single scan goes onto the worker pool from 4096 answerable
        // slots up (`POOL_MIN_SLOTS` in `expanse-zmap6`): the pinned
        // digests must cover that path, not only the one-thread
        // fallback below it.
        if full_apd {
            let slots = snap.report.apd_answerable;
            assert!(slots >= 4096, "day {day}: {slots} answerable APD slots");
        }
        digests[day] = snap.battery_digest;
        probes[day] = snap.probes_sent;
    }
    let mut full = Vec::new();
    p.save_full(&mut full).expect("in-memory save");
    let payload = &full[10..full.len() - 8];
    (digests, probes, (full.len(), fnv1a(payload), fnv1a(&full)))
}

#[test]
fn fixed_grid_days_match_recorded_history() {
    let (digests, probes, save) = run(ModelConfig::tiny(7), 1, SchedConfig::default(), false);
    assert_eq!(
        (digests, probes, save),
        (DIGESTS, PROBES_SENT, SAVE_FIXED),
        "outputs moved against the recorded parent commit"
    );
}

#[test]
fn degenerate_scheduler_days_match_recorded_history() {
    let (digests, probes, save) = run(ModelConfig::tiny(7), 1, SchedConfig::degenerate(), false);
    assert_eq!(
        (digests, probes, save),
        (DIGESTS, PROBES_SENT, SAVE_DEGENERATE),
        "outputs moved against the recorded parent commit"
    );
}

#[test]
fn adversarial_hot_days_match_recorded_history() {
    let (digests, probes, save) = run(
        ModelConfig::adversarial(7),
        4096,
        SchedConfig::default(),
        true,
    );
    assert_eq!(
        (digests, probes, save),
        (
            ADVERSARIAL_DIGESTS,
            ADVERSARIAL_PROBES_SENT,
            ADVERSARIAL_SAVE
        ),
        "outputs moved against the recorded parent commit"
    );
}
