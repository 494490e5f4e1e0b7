//! The whole system must be bit-reproducible under a fixed seed — the
//! property every other test and every experiment relies on.

use expanse::core::{Pipeline, PipelineConfig};
use expanse::model::{InternetModel, ModelConfig};
use expanse::zmap6::{module::IcmpEchoModule, ScanConfig, Scanner};

#[test]
fn pipeline_day_is_reproducible() {
    let run = || {
        let mut p = Pipeline::new(ModelConfig::tiny(42), PipelineConfig::default());
        p.collect_sources(15);
        let snap = p.run_day();
        (
            snap.hitlist_total,
            snap.report,
            snap.aliased_prefixes,
            snap.responsive,
            snap.probes_sent,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ() {
    let total = |seed: u64| {
        let mut p = Pipeline::new(ModelConfig::tiny(seed), PipelineConfig::default());
        p.collect_sources(15);
        p.hitlist.len()
    };
    assert_ne!(total(1), total(2), "seeds must matter");
}

#[test]
fn scans_reproducible_across_scanner_instances() {
    let scan = || {
        let model = InternetModel::build(ModelConfig::tiny(5));
        let hook = model.population().special.cdn_hook_48s[0];
        let targets: Vec<_> = (0..64u64)
            .map(|i| expanse::addr::keyed_random_addr(hook, i))
            .collect();
        let mut s = Scanner::new(model, ScanConfig::default());
        let r = s.scan(&targets, &IcmpEchoModule);
        (r.sent, r.replies)
    };
    assert_eq!(scan(), scan());
}
