//! Probe-scheduler bench: discovery under a fixed daily budget.
//!
//! Not a paper artifact — it quantifies the value of the feedback
//! scheduler (`expanse-sched`) over §5.1's fixed daily grid: how much
//! of the full-grid discovery a budgeted run keeps at 25 / 50 / 100 %
//! of the grid's daily spend, and what each battery slot buys
//! (addresses/probe).
//! All runs use the adversarial scenario model, so the budget has to
//! coexist with alias fabrics and churn. Writes `BENCH_sched.json`
//! (uploaded and jq-gated by CI: zero cap violations, ≥ 80 % of
//! full-grid discovery at the 50 % tier) next to the rendered report.

use crate::ctx::{header, pct, Ctx};
use expanse_addr::Prefix;
use expanse_core::{Pipeline, PipelineConfig, SchedConfig};
use expanse_model::{ModelConfig, SourceId};
use std::collections::BTreeMap;

/// Probing days per run — matches the scenario bench, spanning three
/// rotation epochs of the adversarial preset.
const DAYS: u16 = 10;

/// Budget tiers, as percentages of the fixed grid's mean daily spend.
const TIERS: &[u64] = &[25, 50, 100];

/// Everything one 10-day run yields for the comparison.
struct RunStats {
    /// Distinct addresses confirmed responsive at least once.
    discovered: u64,
    /// Total battery slots spent (from the hitlist's per-/48 ledger).
    probes: u64,
    /// `(day, /48)` pairs whose spend exceeded the cap — must be zero.
    cap_violations: u64,
}

/// Drive `DAYS` probing days of the adversarial model under `sched`,
/// feeding the scenario layer's churn daily, and measure discovery and
/// spend black-box from the hitlist's persisted `probes_spent` ledger.
fn run_days(model_cfg: &ModelConfig, sched: SchedConfig, cap: Option<u64>) -> RunStats {
    let cfg = PipelineConfig {
        sched,
        ..PipelineConfig::default()
    };
    let runup = model_cfg.runup_days;
    let mut p = Pipeline::new(model_cfg.clone(), cfg);
    p.collect_sources(runup);
    let mut before: BTreeMap<Prefix, u64> = p.hitlist.probes_spent().collect();
    let mut cap_violations = 0u64;
    for _ in 0..DAYS {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
        p.run_day();
        let after: BTreeMap<Prefix, u64> = p.hitlist.probes_spent().collect();
        if let Some(cap) = cap {
            for (&net, &cum) in &after {
                let spent = cum - before.get(&net).copied().unwrap_or(0);
                if spent > cap {
                    cap_violations += 1;
                }
            }
        }
        before = after;
    }
    let discovered = p
        .hitlist
        .iter()
        .filter(|&a| p.hitlist.last_responsive(a).is_some())
        .count() as u64;
    let probes: u64 = before.values().sum();
    RunStats {
        discovered,
        probes,
        cap_violations,
    }
}

/// Run the bench; writes `BENCH_sched.json` next to the reports.
pub(crate) fn bench_sched(ctx: &mut Ctx) -> String {
    let mut out = header(
        "BENCH: feedback scheduler vs fixed grid under a probe budget",
        "§5.1 probing economics, not a paper figure",
    );
    let scale = format!("{:?}", ctx.scale).to_lowercase();
    let mut model_cfg = ctx.scale.model_config(ctx.seed);
    model_cfg.scenario = ModelConfig::adversarial(ctx.seed).scenario;

    // ---- the yardstick: the fixed daily grid, unbudgeted --------------
    let fixed = run_days(&model_cfg, SchedConfig::default(), None);
    let fixed_daily = (fixed.probes / u64::from(DAYS)).max(1);
    // One hard per-/48 cap across all tiers: a quarter of the grid's
    // daily spend, so dense prefixes genuinely compete for slots.
    let cap = (fixed_daily / 4).max(8);
    out.push_str(&format!(
        "model scale {scale}: {DAYS} probing days on the adversarial scenario model\n\
         fixed grid: {} addresses discovered, {} battery slots \
         ({fixed_daily}/day, {:.4} addrs/probe)\n\n",
        fixed.discovered,
        fixed.probes,
        fixed.discovered as f64 / (fixed.probes as f64).max(1.0),
    ));

    // ---- budget tiers: 25 / 50 / 100 % of the grid's daily spend ------
    let mut tier_rows = Vec::new();
    let mut ratio_50 = 0.0f64;
    let mut violations_total = 0u64;
    out.push_str(
        "tier     budget/day   discovered   ratio    probes   addrs/probe   cap-violations\n",
    );
    for &tier_pct in TIERS {
        let budget = (fixed_daily * tier_pct / 100).max(1);
        let run = run_days(&model_cfg, SchedConfig::budgeted(budget, cap), Some(cap));
        let ratio = run.discovered as f64 / (fixed.discovered as f64).max(1.0);
        let per_probe = run.discovered as f64 / (run.probes as f64).max(1.0);
        if tier_pct == 50 {
            ratio_50 = ratio;
        }
        violations_total += run.cap_violations;
        out.push_str(&format!(
            "{tier_pct:>3}%   {budget:>10}   {:>10}   {:>5}   {:>7}   {per_probe:>11.4}   {:>14}\n",
            run.discovered,
            pct(ratio),
            run.probes,
            run.cap_violations,
        ));
        tier_rows.push(format!(
            "    {{ \"budget_pct\": {tier_pct}, \"budget\": {budget}, \"discovered\": {}, \
             \"probes\": {}, \"discovery_ratio\": {ratio:.4}, \"addrs_per_probe\": {per_probe:.4}, \
             \"cap_violations\": {} }}",
            run.discovered, run.probes, run.cap_violations,
        ));
    }

    out.push_str(&format!(
        "\ngates: cap violations {violations_total} (must be 0), \
         50%-budget discovery {} (must be ≥ 80%)\n",
        pct(ratio_50),
    ));

    let json = format!(
        "{{\n  \"schema\": 2,\n  \"scale\": \"{scale}\",\n  \"days\": {DAYS},\n  \
         \"fixed\": {{ \"discovered\": {}, \"probes\": {}, \"daily_spend\": {fixed_daily} }},\n  \
         \"per_48_cap\": {cap},\n  \"tiers\": [\n{}\n  ],\n  \
         \"discovery_ratio_50\": {ratio_50:.4},\n  \"cap_violations\": {violations_total}\n}}\n",
        fixed.discovered,
        fixed.probes,
        tier_rows.join(",\n"),
    );
    ctx.write("BENCH_sched.json", &json);
    out.push_str("\nwrote BENCH_sched.json\n");
    out
}
