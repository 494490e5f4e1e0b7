//! Determinism guard for the battery fan-out and the snapshot encoders:
//! a default-configured pipeline's day, and the snapshot and journal
//! bytes written after it, equal constants recorded on the commit
//! before the battery grid went onto `par_map_coarse` — where the
//! one-thread and worker-pool executors agreed. The worker count is
//! `EXPANSE_THREADS`; the CI multi-thread lane runs this file at 1, 2
//! and 8.

use expanse_core::{Pipeline, PipelineConfig};
use expanse_model::{ModelConfig, SourceId};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pipeline(model: ModelConfig) -> Pipeline {
    // Keep the virtual day cheap.
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(model, cfg);
    p.collect_sources(30);
    p
}

/// Day 0 of `ModelConfig::tiny(77)`: the battery's digest, the
/// snapshot's stamp, the responder run's length and FNV-1a over
/// `(address octets, protocol-set byte)` in run (address) order, the hitlist
/// before and after the alias filter, the aliased prefixes' count and
/// FNV-1a over `(bits as little-endian, length)`, and probes sent.
const RECORDED_DAY: DayFingerprint = DayFingerprint {
    multi: 14_679_521_244_857_042_884,
    battery: 4_156_100_604_172_024_107,
    responsive: (3_444, 1_065_642_688_949_314_537),
    hitlist_total: 15_572,
    hitlist_after_apd: 8_164,
    aliased: (1_127, 1_844_169_596_200_618_370),
    probes_sent: 243_225,
};

#[derive(Debug, PartialEq, Eq)]
struct DayFingerprint {
    multi: u64,
    battery: u64,
    responsive: (usize, u64),
    hitlist_total: usize,
    hitlist_after_apd: usize,
    aliased: (usize, u64),
    probes_sent: u64,
}

#[test]
fn default_config_day_matches_recorded() {
    let (snap, multi) = pipeline(ModelConfig::tiny(77)).run_day_full();
    // The snapshot took ownership of the responder run, so the battery
    // digest covers `by_protocol`; the run is checked through the
    // snapshot, and must not be empty — otherwise the equality would be
    // vacuous.
    assert!(multi.responsive.is_empty(), "taken by the snapshot");
    assert!(!snap.responsive.is_empty(), "someone must answer");
    let responsive: Vec<u8> = snap
        .responsive
        .iter()
        .flat_map(|(a, p)| a.octets().into_iter().chain([p.0]))
        .collect();
    let aliased: Vec<u8> = snap
        .aliased_prefixes
        .iter()
        .flat_map(|p| p.bits().to_le_bytes().into_iter().chain([p.len()]))
        .collect();
    let got = DayFingerprint {
        multi: multi.digest(),
        battery: snap.battery_digest,
        responsive: (snap.responsive.len(), fnv1a(&responsive)),
        hitlist_total: snap.hitlist_total,
        hitlist_after_apd: snap.report.kept as usize,
        aliased: (snap.aliased_prefixes.len(), fnv1a(&aliased)),
        probes_sent: snap.probes_sent,
    };
    assert_eq!(got, RECORDED_DAY);
}

#[test]
fn digest_is_seed_sensitive() {
    // The digest actually discriminates: a different model seed yields a
    // different battery result.
    let (snap_a, _) = pipeline(ModelConfig::tiny(77)).run_day_full();
    let (snap_b, _) = pipeline(ModelConfig::tiny(78)).run_day_full();
    assert_ne!(snap_a.battery_digest, snap_b.battery_digest);
}

/// Four days of `ModelConfig::adversarial(77)` with the daily scenario
/// feed: per day `(battery_digest, multi digest, probes_sent)`.
const RECORDED_ADVERSARIAL: [(u64, u64, u64); 4] = [
    (
        7_267_316_819_578_755_034,
        10_939_111_028_686_006_229,
        245_849,
    ),
    (
        4_645_745_810_395_272_806,
        18_196_158_553_530_555_780,
        41_839,
    ),
    (
        10_498_216_876_465_173_838,
        1_135_320_349_829_065_308,
        41_862,
    ),
    (
        5_631_054_787_981_671_105,
        17_530_015_880_278_075_768,
        42_164,
    ),
];

/// The adversarial scenario layer — per-router ICMPv6 token buckets
/// draining inside the battery grid, rotation renumbering, privacy
/// churn, alias fabrics — must not perturb fan-out determinism: the
/// throttle state is cloned into every cell's snapshot, so the grid's
/// output does not depend on the worker count, across days of rotation
/// churn.
#[test]
fn adversarial_scenario_days_match_recorded() {
    let mut p = pipeline(ModelConfig::adversarial(77));
    // Cross a rotation boundary (period 3 in the preset) with the daily
    // scenario feed active, like the bench harness does.
    let mut days = Vec::new();
    for _ in 0..4u16 {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
        let (snap, multi) = p.run_day_full();
        assert!(!snap.responsive.is_empty(), "someone must answer");
        days.push((snap.battery_digest, multi.digest(), snap.probes_sent));
    }
    assert_eq!(days, RECORDED_ADVERSARIAL);
}

/// After day 0: the hitlist's full encode, as `(length, FNV-1a)` of the
/// envelope.
const RECORDED_ENCODE: (usize, u64) = (395_209, 5_935_508_678_274_063_236);
/// After a `save_full` and one more day: the hitlist's delta encode.
const RECORDED_DELTA: (usize, u64) = (7_974, 8_060_163_531_768_665_639);

/// The snapshot encode and the delta encode write the bytes recorded
/// before they lost their thread-count parameter.
#[test]
fn encodes_match_recorded_bytes() {
    let mut p = pipeline(ModelConfig::tiny(77));
    let snap = p.run_day_full().0;
    assert!(!snap.responsive.is_empty(), "someone must answer");
    let envelope = |p: &Pipeline, delta: bool| -> (usize, u64) {
        let mut enc = expanse_addr::Encoder::new(Vec::new(), b"FANGUARD", 1).expect("enc");
        if delta {
            p.hitlist.encode_delta(&mut enc).expect("delta");
        } else {
            p.hitlist.encode(&mut enc).expect("encode");
        }
        let bytes = enc.finish().expect("finish");
        (bytes.len(), fnv1a(&bytes))
    };
    assert_eq!(envelope(&p, false), RECORDED_ENCODE);

    let mut base = Vec::new();
    p.save_full(&mut base).expect("save_full");
    p.run_day();
    assert_eq!(envelope(&p, true), RECORDED_DELTA);
}
