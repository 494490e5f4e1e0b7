//! End-to-end pipeline integration: sources → APD → probing → service
//! files, with paper-shape assertions.

use expanse::core::{service, Pipeline, PipelineConfig};
use expanse::model::ModelConfig;
use expanse::packet::Protocol;

fn pipeline(seed: u64) -> Pipeline {
    let cfg = PipelineConfig {
        trace_budget: 25,
        ..PipelineConfig::default()
    };
    Pipeline::new(ModelConfig::tiny(seed), cfg)
}

#[test]
fn sources_to_service_files() {
    let mut p = pipeline(1001);
    p.collect_sources(30);
    let total = p.hitlist.len();
    assert!(total > 3_000, "hitlist too small: {total}");

    let snap = p.run_day();

    // De-aliasing removes a large share of addresses but few prefixes
    // relative to the whole table (§5.3's asymmetry).
    let removed_share =
        (snap.hitlist_total - snap.report.kept as usize) as f64 / snap.hitlist_total as f64;
    assert!(
        (0.2..=0.7).contains(&removed_share),
        "aliased share {removed_share}"
    );

    // Service artifacts are well-formed.
    let hitlist_file = service::hitlist_file(&snap);
    // Two provenance lines: counts + scan digest.
    assert!(hitlist_file.lines().count() == snap.responsive.len() + 2);
    assert!(
        hitlist_file.contains(&format!("# scan digest {:016x}", snap.battery_digest)),
        "digest stamp missing"
    );
    let aliased_file = service::aliased_prefixes_file(&snap);
    // Aggregation merges detection-granularity siblings, so the file is
    // never longer than the raw detection list.
    assert!(aliased_file.lines().count() <= snap.aliased_prefixes.len() + 1);
    assert!(aliased_file.lines().count() >= 2, "some prefixes expected");
    for line in aliased_file.lines().skip(1) {
        line.parse::<expanse::addr::Prefix>()
            .unwrap_or_else(|e| panic!("bad prefix line {line}: {e}"));
    }

    // ICMP dominates responsiveness (Fig 7's strongest row).
    let icmp = snap
        .responsive
        .iter()
        .filter(|(_, s)| s.contains(Protocol::Icmp))
        .count();
    assert!(
        icmp * 10 >= snap.responsive.len() * 8,
        "ICMP share too low: {icmp}/{}",
        snap.responsive.len()
    );
}

#[test]
fn aliased_detection_matches_ground_truth() {
    let mut p = pipeline(1002);
    p.collect_sources(30);
    // Two days so the window has evidence.
    p.run_day();
    let snap = p.run_day();

    let truth_aliased: Vec<bool> = snap
        .aliased_prefixes
        .iter()
        .map(|pfx| {
            // Every detected prefix should be truly aliased (probe 3
            // random addresses as ground-truth check).
            (0..3u64).all(|k| {
                p.model_ref()
                    .truth_aliased(expanse::addr::keyed_random_addr(*pfx, 7000 + k))
            })
        })
        .collect();
    let true_pos = truth_aliased.iter().filter(|x| **x).count();
    let precision = true_pos as f64 / truth_aliased.len().max(1) as f64;
    assert!(
        precision > 0.95,
        "APD precision {precision} ({true_pos}/{})",
        truth_aliased.len()
    );
}

#[test]
fn responsive_addresses_never_aliased() {
    let mut p = pipeline(1003);
    p.collect_sources(10);
    let snap = p.run_day();
    for &(a, _) in &snap.responsive {
        assert!(
            !p.apd.filter().is_aliased(a),
            "{a} both responsive and filtered"
        );
    }
}

#[test]
fn hitlist_grows_from_scamper_feedback() {
    let mut p = pipeline(1004);
    p.collect_sources(5); // early runup: sources still small
    let before = p.hitlist.len();
    p.run_day();
    // Traceroute must have added router addresses to the hitlist.
    assert!(
        p.hitlist.len() > before,
        "no growth: {before} -> {}",
        p.hitlist.len()
    );
}
