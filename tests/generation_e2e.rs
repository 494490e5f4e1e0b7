//! §7 end-to-end: Entropy/IP and 6Gen trained on model seeds generate
//! probeable targets; the two tools overlap little.

use expanse::eip;
use expanse::model::{AsCategory, InternetModel, ModelConfig};
use expanse::sixgen;
use expanse::zmap6::{module::IcmpEchoModule, ScanConfig, Scanner};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

fn seeds_and_model() -> (Vec<Ipv6Addr>, InternetModel) {
    let model = InternetModel::build(ModelConfig::tiny(2001));
    let site = model
        .population()
        .sites
        .iter()
        .filter(|s| s.category == AsCategory::Hoster && s.addrs.len() >= 80)
        .max_by_key(|s| s.addrs.len())
        .expect("hoster site")
        .clone();
    (site.addrs, model)
}

#[test]
fn both_generators_produce_valid_targets() {
    let (seeds, _model) = seeds_and_model();
    let eip_model = eip::train(&seeds);
    let eip_targets = eip_model.generate(500);
    assert!(!eip_targets.is_empty());

    let regions = sixgen::grow_regions(&seeds);
    let six_targets = sixgen::generate(&regions, 500);
    assert!(!six_targets.is_empty());

    // Both stay in the seeds' /32 (structure learned, not invented).
    let site32 = expanse::addr::Prefix::new(seeds[0], 32);
    let eip_inside = eip_targets.iter().filter(|a| site32.contains(**a)).count();
    assert!(eip_inside * 10 >= eip_targets.len() * 9);
    let six_inside = six_targets.iter().filter(|a| site32.contains(**a)).count();
    assert!(six_inside * 10 >= six_targets.len() * 9);
}

#[test]
fn generators_overlap_little() {
    let (seeds, _model) = seeds_and_model();
    let eip_targets: BTreeSet<Ipv6Addr> = eip::train(&seeds).generate(800).into_iter().collect();
    let six_targets = sixgen::generate(&sixgen::grow_regions(&seeds), 800);
    let overlap = six_targets
        .iter()
        .filter(|a| eip_targets.contains(a))
        .count();
    // The paper: 0.2 % overlap of 239M. Tiny-scale is noisier, but the
    // two methods must still be mostly complementary.
    let share = overlap as f64 / six_targets.len().max(1) as f64;
    assert!(share < 0.5, "overlap share {share}");
}

#[test]
fn generated_targets_find_some_responsive_hosts() {
    // The paper's setting: the hitlist knows only *part* of a network
    // (sources sample pools with gaps); the generator's job is to find
    // live addresses the seeds missed. Seed with every other pool
    // address so half the live hosts are genuinely unknown.
    let (pool, model) = seeds_and_model();
    let seeds: Vec<Ipv6Addr> = pool.iter().copied().step_by(2).collect();
    let seed_set: BTreeSet<Ipv6Addr> = seeds.iter().copied().collect();
    let eip_targets: Vec<Ipv6Addr> = eip::train(&seeds)
        .generate(3000)
        .into_iter()
        .filter(|a| !seed_set.contains(a))
        .collect();
    assert!(
        !eip_targets.is_empty(),
        "generator produced nothing beyond the seeds"
    );
    let mut scanner = Scanner::new(model, ScanConfig::default());
    let result = scanner.scan(&eip_targets, &IcmpEchoModule);
    // Counter-scheme sites interpolate: some generated addresses must be
    // real live hosts the seeds didn't include.
    assert!(
        result.responsive_count() > 0,
        "no responsive generated addresses out of {}",
        eip_targets.len()
    );
    // But the hit rate stays low (the paper's 0.3 % shape, loosely).
    assert!(
        result.hit_rate() < 0.5,
        "implausibly high hit rate {}",
        result.hit_rate()
    );
}
