//! Integration tests for the §5.1 pathological prefixes: the anomaly
//! cases the paper root-caused, reproduced end-to-end through the real
//! probing stack.

use expanse::addr::Prefix;
use expanse::apd::{Apd, ApdConfig};
use expanse::core::{Pipeline, PipelineConfig};
use expanse::model::{InternetModel, ModelConfig};
use expanse::zmap6::{ScanConfig, Scanner};

fn scanner(seed: u64) -> Scanner<InternetModel> {
    Scanner::new(
        InternetModel::build(ModelConfig::tiny(seed)),
        ScanConfig::default(),
    )
}

#[test]
fn syn_proxy_80_answers_a_minority_of_tcp_probes() {
    // Paper: "The /80 prefix shows 3 to 5 out of the 16 possible
    // responses over time... a SYN proxy activated only after a certain
    // threshold of connection attempts."
    let mut s = scanner(501);
    let p80 = s.network_mut().population.special.syn_proxy[0];
    let mut apd = Apd::new(ApdConfig::default());
    let mut partial_days = 0;
    for day in 0..4u16 {
        s.network_mut().set_day(day);
        let report = apd.run_day(&mut s, &[p80]);
        let obs = report.get(&p80).unwrap();
        let tcp_answers = obs.tcp.count_ones();
        // The proxy only wakes after ~12 SYNs land within its window, so
        // only the tail of the 16 TCP probes gets answered.
        assert!(
            tcp_answers < 16,
            "day {day}: SYN proxy should never answer everything, got {tcp_answers}"
        );
        if (1..=8).contains(&tcp_answers) {
            partial_days += 1;
        }
    }
    assert!(
        partial_days >= 2,
        "expected partial TCP response days, saw {partial_days}"
    );
    // The /80 must not be classified aliased.
    assert!(!apd.aliased_prefixes().contains(&p80));
}

#[test]
fn rate_limited_120s_flap_across_days_and_window_stabilizes() {
    // Paper case 4: six neighbouring /120s flap day-to-day due to ICMP
    // rate limiting; the sliding window absorbs it.
    let mut s = scanner(502);
    let prefixes = s.network_mut().population.special.rate_limited.clone();
    let mut apd = Apd::new(ApdConfig {
        window: 3,
        ..ApdConfig::default()
    });
    let mut day_bitmaps: Vec<u16> = Vec::new();
    for day in 0..6u16 {
        s.network_mut().set_day(day);
        let report = apd.run_day(&mut s, &prefixes);
        day_bitmaps.push(report.get(&prefixes[0]).unwrap().merged());
    }
    // Single-day views differ across days (the flapping).
    let distinct: std::collections::BTreeSet<u16> = day_bitmaps.iter().copied().collect();
    assert!(
        distinct.len() > 1,
        "rate-limited prefix should answer different branches on different days: {day_bitmaps:?}"
    );
    // No day answers everything (bucket holds 4..=10 tokens).
    assert!(day_bitmaps.iter().all(|b| b.count_ones() < 16));
}

#[test]
fn partial96_described_by_multi_level_not_by_parent() {
    let mut s = scanner(503);
    let p96 = s.network_mut().population.special.partial96;
    let children: Vec<_> = (0..16u128).map(|b| p96.subprefix(4, b)).collect();
    let mut plan = vec![p96];
    plan.extend(&children);
    let mut apd = Apd::new(ApdConfig::default());
    for day in 0..3u16 {
        s.network_mut().set_day(day);
        apd.run_day(&mut s, &plan);
    }
    let aliased = apd.aliased_prefixes();
    assert!(!aliased.contains(&p96), "parent /96 must stay non-aliased");
    let detected: Vec<_> = children.iter().filter(|c| aliased.contains(c)).collect();
    assert_eq!(detected.len(), 9, "exactly the 9 aliased /100 children");
    // And the LPM filter therefore removes addresses in those 9 branches
    // while keeping the other 7.
    let filter = apd.filter();
    let aliased_branch = expanse::addr::keyed_random_addr(children[0], 1);
    assert!(filter.is_aliased(aliased_branch));
    let clean_branch = expanse::addr::keyed_random_addr(children[3], 1);
    assert!(!filter.is_aliased(clean_branch));
}

#[test]
fn blacklist_suppresses_probes_end_to_end() {
    // §10.1 ethics: blacklisted prefixes are never probed, even if they
    // would respond.
    let model = InternetModel::build(ModelConfig::tiny(504));
    let hook = model.population.special.cdn_hook_48s[0];
    let cfg = ScanConfig {
        blacklist: [hook].into_iter().collect(),
        ..ScanConfig::default()
    };
    let mut s = Scanner::new(model, cfg);
    let targets: Vec<_> = (0..20u64)
        .map(|i| expanse::addr::keyed_random_addr(hook, i))
        .collect();
    let r = s.scan(&targets, &expanse::zmap6::module::IcmpEchoModule);
    assert_eq!(r.sent, 0, "no probes may leave the scanner");
    assert_eq!(r.blacklisted, 20);
    assert!(r.replies.is_empty());
}

#[test]
fn blacklist_suppresses_every_probing_stage() {
    // §10.1 again, for the whole day: APD, traceroute and the battery
    // all skip what the blacklist covers — here every address.
    let cfg = PipelineConfig {
        scan: ScanConfig {
            blacklist: [Prefix::DEFAULT].into_iter().collect(),
            ..ScanConfig::default()
        },
        ..PipelineConfig::default()
    };
    let model_cfg = ModelConfig::tiny(504);
    let mut p = Pipeline::new(model_cfg.clone(), cfg);
    p.collect_sources(model_cfg.runup_days);
    let snap = p.run_day();
    let report = p.last_report();
    assert!(report.admitted > 0, "the day had battery targets");
    assert_eq!(report.trace_probes, 0, "no blacklisted target is traced");
    assert_eq!(snap.probes_sent, 0, "no probe may leave the pipeline");
}
