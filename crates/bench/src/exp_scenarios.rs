//! Adversarial periphery stress bench: the pipeline run against the
//! scenario layer (`expanse_model::scenario`) — rotating delegated
//! prefixes, RFC 4941 privacy churn, throttled last-hop routers, and
//! periphery alias fabrics — scored against the model's exported ground
//! truth.
//!
//! Not a paper artifact — it answers the operational questions §6
//! raises but cannot measure on the real Internet: how much of a served
//! hitlist is *known-dead* under residential churn, whether APD still
//! separates alias fabrics from honest dense sites, and whether the
//! journal's per-day delta stays bounded when the periphery renumbers
//! constantly. Writes `BENCH_scenarios.json` (uploaded and jq-gated by
//! CI) next to the rendered report.

use crate::ctx::{header, pct, Ctx};
use expanse_apd::{Apd, ApdConfig};
use expanse_core::{Pipeline, PipelineConfig, RetentionConfig};
use expanse_model::{ModelConfig, SourceId};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// Probing days the scenario run covers. Spans three rotation epochs at
/// the adversarial preset's 3-day period, and exceeds the retention
/// window below so expiry provably catches up with the ghosts.
const DAYS: u16 = 10;

/// Retention window for the run: ghosts fed on day `d` stop answering
/// within a rotation period and must be tombstoned by `d + WINDOW + 1`.
const WINDOW: u16 = 5;

/// Run the bench; writes `BENCH_scenarios.json` next to the reports.
pub(crate) fn bench_scenarios(ctx: &mut Ctx) -> String {
    let mut out = header(
        "BENCH: adversarial periphery scenarios (churn, throttling, alias fabrics)",
        "§6 unbiasing stress, not a paper figure",
    );
    let scale = format!("{:?}", ctx.scale).to_lowercase();

    // The scale's normal world plus the adversarial scenario block.
    // This pipeline is private to the bench: the scenario feed and the
    // retention window below must not leak into the shared `ctx`
    // pipeline other experiments reuse.
    let mut model_cfg = ctx.scale.model_config(ctx.seed);
    model_cfg.scenario = ModelConfig::adversarial(ctx.seed).scenario;
    let rotation_period = model_cfg.scenario.rotation_period_days;
    let pipe_cfg = PipelineConfig {
        retention: RetentionConfig {
            window: Some(WINDOW),
            every: 1,
        },
        ..PipelineConfig::default()
    };
    let runup = model_cfg.runup_days;
    let mut p = Pipeline::new(model_cfg.clone(), pipe_cfg.clone());
    p.collect_sources(runup);

    // ---- the churn loop: feed today's periphery, probe, seal a delta --
    // The scenario feed plays the role of a crowdsourced residential
    // source: every day it contributes the *currently* valid rotation,
    // privacy, router, and fabric addresses, so the hitlist keeps
    // accumulating addresses that a rotation or midnight regeneration
    // will kill tomorrow.
    let mut journal: Vec<u8> = Vec::new();
    p.save_full(&mut journal).expect("save_full");
    let base_bytes = journal.len();
    let mut delta_bytes: Vec<u64> = Vec::new();
    let mut feed_total = 0u64;
    let mut feed_new_total = 0u64;
    let mut expired_total = 0u64;
    for _ in 0..DAYS {
        let day = p.day();
        let feed = p.model_ref().scenario_feed(day);
        feed_total += feed.len() as u64;
        feed_new_total += p.hitlist.add_from(SourceId::RipeAtlas, &feed, day) as u64;
        let (snap, _) = p.run_day_full();
        expired_total += snap.expired_today as u64;
        let before = journal.len();
        p.append_delta(&mut journal).expect("append_delta");
        delta_bytes.push((journal.len() - before) as u64);
    }
    let last_day = p.day() - 1;

    // ---- journal health: replay fidelity and delta growth -------------
    // Replay must reconstruct the exact state (byte-identical re-save),
    // and the per-day delta must plateau rather than grow with history:
    // a delta carries the day's churn, not the accumulated past.
    let (mut replayed, replay) =
        Pipeline::resume(model_cfg.clone(), pipe_cfg.clone(), &mut journal.as_slice())
            .expect("journal resume");
    assert_eq!(replay.deltas_applied, usize::from(DAYS));
    assert!(!replay.torn_tail);
    let mut straight = Vec::new();
    let mut resumed = Vec::new();
    p.save_full(&mut straight).expect("save straight-line");
    replayed.save_full(&mut resumed).expect("save replayed");
    let replay_identical = straight == resumed;
    let half = delta_bytes.len() / 2;
    let early_mean = delta_bytes[..half].iter().sum::<u64>() as f64 / half.max(1) as f64;
    let late_mean =
        delta_bytes[half..].iter().sum::<u64>() as f64 / (delta_bytes.len() - half).max(1) as f64;
    let delta_growth_ratio = late_mean / early_mean.max(1.0);
    let delta_mean = delta_bytes.iter().sum::<u64>() as f64 / delta_bytes.len() as f64;

    // ---- staleness: how much of the served list is known-dead ---------
    // Ground truth: `scenario_ghosts` is every address an earlier epoch
    // or an earlier privacy day handed out that no longer answers.
    // Retention is the only defence; with the window above, ghosts older
    // than `WINDOW` days must already be tombstoned.
    let ghosts: BTreeSet<Ipv6Addr> = p
        .model_ref()
        .scenario_ghosts(last_day)
        .into_iter()
        .collect();
    let live = p.hitlist.live_set();
    let mut live_total = 0u64;
    let mut ghosts_listed = 0u64;
    for a in live.addrs(p.hitlist.table()) {
        live_total += 1;
        if ghosts.contains(&a) {
            ghosts_listed += 1;
        }
    }
    let ghost_live_fraction = ghosts_listed as f64 / (ghosts.len() as f64).max(1.0);
    let hitlist_stale_fraction = ghosts_listed as f64 / (live_total as f64).max(1.0);

    // ---- APD vs the fabrics: precision/recall on labeled prefixes -----
    // Positives: the scenario's alias fabrics (whole /64s answering
    // everything). Negatives: honest non-aliased /64 sites plus the
    // scenario's own throttled router /64s and rotating /56s — sparse
    // real hosts that a fan-out probe essentially never hits, however
    // adversarial their churn. A detector fooled by throttling or
    // rotation shows up here as lost precision/recall.
    let (positives, negatives) = {
        let m = p.model_ref();
        let pos: Vec<_> = m.scenario().fabrics.clone();
        let mut neg: Vec<_> = m
            .population()
            .sites
            .iter()
            .filter(|s| s.site.len() == 64 && !m.truth_aliased(s.site.addr_at(0)))
            .map(|s| s.site)
            .take(12)
            .collect();
        neg.extend(m.scenario().throttled.iter().copied());
        neg.extend(m.scenario().rotating.iter().map(|r| r.prefix));
        neg.sort();
        neg.dedup();
        (pos, neg)
    };
    let mut plan: Vec<_> = positives.iter().chain(negatives.iter()).copied().collect();
    plan.sort();
    plan.dedup();
    let mut apd = Apd::new(ApdConfig::default());
    for day in 0..4 {
        p.scanner.network_mut().set_day(last_day + 1 + day);
        apd.run_day(&mut p.scanner, &plan);
    }
    let flagged: BTreeSet<_> = apd.aliased_prefixes().into_iter().collect();
    let tp = positives.iter().filter(|px| flagged.contains(px)).count();
    let fp = flagged.len() - tp;
    let apd_precision = tp as f64 / (flagged.len() as f64).max(1.0);
    let apd_recall = tp as f64 / (positives.len() as f64).max(1.0);

    out.push_str(&format!(
        "model scale {scale}: {DAYS} probing days, rotation every {rotation_period} days, \
         retention window {WINDOW}\n\n"
    ));
    out.push_str(&format!(
        "scenario feed     {feed_total:>8} addresses fed ({feed_new_total} new), \
         {expired_total} expired by retention\n"
    ));
    out.push_str(&format!(
        "staleness         {ghosts_listed:>8} of {} ghosts still listed ({}), \
         {} of the live hitlist\n",
        ghosts.len(),
        pct(ghost_live_fraction),
        pct(hitlist_stale_fraction),
    ));
    out.push_str(&format!(
        "apd vs fabrics    {:>8} flagged: {tp} true / {fp} false over {} positives + {} negatives \
         (precision {}, recall {})\n",
        flagged.len(),
        positives.len(),
        negatives.len(),
        pct(apd_precision),
        pct(apd_recall),
    ));
    out.push_str(&format!(
        "journal           {delta_mean:>8.0} delta bytes/day (base {base_bytes}), \
         late/early growth {delta_growth_ratio:.2}x, replay {}\n",
        if replay_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    ));

    let delta_list = delta_bytes
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"scale\": \"{scale}\",\n  \"days\": {DAYS},\n  \
         \"rotation_period_days\": {rotation_period},\n  \"retention_window\": {WINDOW},\n  \
         \"feed\": {{ \"total\": {feed_total}, \"new\": {feed_new_total}, \"expired\": {expired_total} }},\n  \
         \"apd\": {{ \"precision\": {apd_precision:.4}, \"recall\": {apd_recall:.4}, \
         \"flagged\": {}, \"positives\": {}, \"negatives\": {} }},\n  \
         \"staleness\": {{ \"ghosts\": {}, \"ghosts_listed\": {ghosts_listed}, \
         \"ghost_live_fraction\": {ghost_live_fraction:.4}, \
         \"hitlist_stale_fraction\": {hitlist_stale_fraction:.4}, \"hitlist_live\": {live_total} }},\n  \
         \"journal\": {{ \"base_bytes\": {base_bytes}, \"delta_bytes_per_day\": [{delta_list}],\n    \
         \"delta_bytes_mean\": {delta_mean:.1}, \"delta_growth_ratio\": {delta_growth_ratio:.4},\n    \
         \"deltas_applied\": {}, \"replay_identical\": {replay_identical} }}\n}}\n",
        flagged.len(),
        positives.len(),
        negatives.len(),
        ghosts.len(),
        replay.deltas_applied,
    );
    ctx.write("BENCH_scenarios.json", &json);
    out.push_str("\nwrote BENCH_scenarios.json\n");
    out
}
