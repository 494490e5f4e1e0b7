//! Ground-truth accuracy of alias detection under the adversarial
//! periphery scenarios: APD must keep separating the scenario layer's
//! alias fabrics (whole /64s answering every probe) from honest
//! residential prefixes whose churn, sparsity, or ICMPv6 throttling
//! makes them *look* strange — scored against the model's exported
//! labels, end-to-end through the real probing stack.

use expanse::addr::Prefix;
use expanse::apd::{Apd, ApdConfig};
use expanse::model::{InternetModel, ModelConfig};
use expanse::zmap6::module::IcmpEchoModule;
use expanse::zmap6::{ScanConfig, Scanner};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// The labeled prefix universe: the scenario's alias fabrics as
/// positives; honest non-aliased /64 sites plus the scenario's own
/// throttled router /64s and rotating /56s as negatives.
fn labeled_universe(model: &InternetModel) -> (Vec<Prefix>, Vec<Prefix>) {
    let positives = model.scenario().fabrics.clone();
    assert!(
        !positives.is_empty(),
        "adversarial preset must build fabrics"
    );
    let mut negatives: Vec<Prefix> = model
        .population()
        .sites
        .iter()
        .filter(|s| s.site.len() == 64 && !model.truth_aliased(s.site.addr_at(0)))
        .map(|s| s.site)
        .take(12)
        .collect();
    negatives.extend(model.scenario().throttled.iter().copied());
    negatives.extend(model.scenario().rotating.iter().map(|r| r.prefix));
    negatives.sort();
    negatives.dedup();
    assert!(negatives.len() >= 10, "want a meaningful negative pool");
    (positives, negatives)
}

/// Score the detector's flagged set against the labels.
fn score(flagged: &BTreeSet<Prefix>, positives: &[Prefix]) -> (f64, f64) {
    let tp = positives.iter().filter(|p| flagged.contains(p)).count();
    let precision = tp as f64 / (flagged.len() as f64).max(1.0);
    let recall = tp as f64 / positives.len() as f64;
    (precision, recall)
}

/// The labeled prefixes as one sorted, deduplicated APD plan.
fn plan(positives: &[Prefix], negatives: &[Prefix]) -> Vec<Prefix> {
    let mut plan: Vec<Prefix> = positives.iter().chain(negatives).copied().collect();
    plan.sort();
    plan.dedup();
    plan
}

/// Run APD over `plan` on days 0–3 of `model`, each day after an
/// ICMPv6 echo scan of `routers` on the same scanner: the prefixes APD
/// flags, and how many of the routers answered over the four days.
fn run_apd(
    model: InternetModel,
    plan: &[Prefix],
    routers: &[Ipv6Addr],
) -> (BTreeSet<Prefix>, usize) {
    let mut s = Scanner::new(model, ScanConfig::default());
    let mut apd = Apd::new(ApdConfig::default());
    let mut answered = 0;
    for day in 0..4u16 {
        s.network_mut().set_day(day);
        answered += s.scan(routers, &IcmpEchoModule).replies.len();
        apd.run_day(&mut s, plan);
    }
    (apd.aliased_prefixes().into_iter().collect(), answered)
}

/// Precision ≥ 0.95, recall ≥ 0.9, and none of the labeled honest
/// prefixes flagged: every false positive evicts a real residential
/// prefix from the hitlist.
fn assert_accurate(flagged: &BTreeSet<Prefix>, positives: &[Prefix], negatives: &[Prefix]) {
    let (precision, recall) = score(flagged, positives);
    assert!(
        precision >= 0.95,
        "APD precision {precision:.3} below 0.95 (flagged {flagged:?})"
    );
    assert!(
        recall >= 0.9,
        "APD recall {recall:.3} below 0.9 (flagged {flagged:?})"
    );
    for n in negatives {
        assert!(!flagged.contains(n), "honest prefix {n} flagged as aliased");
    }
}

#[test]
fn apd_accuracy_on_labeled_adversarial_prefixes() {
    let model = InternetModel::build(ModelConfig::adversarial(907));
    let (positives, negatives) = labeled_universe(&model);
    let (flagged, _) = run_apd(model, &plan(&positives, &negatives), &[]);
    assert_accurate(&flagged, &positives, &negatives);
}

#[test]
fn apd_accuracy_survives_last_hop_throttling() {
    // The same world, with the engine's throttled last-hop routers
    // starved: a 2-token bucket refilling once every 100 s. Starving
    // the router /64s' ICMPv6 must not make them look aliased, and the
    // fabrics (which are not throttled) must still be caught.
    let preset = ModelConfig::adversarial(907);
    let mut starved = preset.clone();
    starved.scenario.throttle_capacity = 2.0;
    starved.scenario.throttle_refill_per_sec = 0.01;
    let model = InternetModel::build(starved);
    let (positives, negatives) = labeled_universe(&model);
    let plan = plan(&positives, &negatives);
    // APD's fan-out targets in a router /64 hold no host under either
    // budget, so the budget shows in what the routers themselves answer.
    let routers: Vec<Ipv6Addr> = model
        .scenario()
        .throttled
        .iter()
        .flat_map(|p| (1..=4).map(|k| p.addr_at(k)))
        .collect();
    let (flagged, answered) = run_apd(model, &plan, &routers);
    let (_, preset_answered) = run_apd(InternetModel::build(preset), &plan, &routers);
    assert!(
        answered < preset_answered,
        "the starved budget starved nothing: {answered} vs {preset_answered} echo replies"
    );
    assert_accurate(&flagged, &positives, &negatives);
}
