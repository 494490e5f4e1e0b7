//! Pipeline record: what a deployed pipeline's days consist of and what
//! they cost the journal, as exact counts.
//!
//! Not a paper artifact, and not a stopwatch — where a day's *time* goes
//! is the repo benchmark's job (`benchmark/ --trace 1`). This builds its
//! own pipeline (so a `--smoke` pass and a standalone run agree), runs
//! real days, and writes `BENCH_pipeline.json` from each day's
//! [`DailySnapshot::report`](expanse_core::DailySnapshot::report) and
//! the journal: stage counts per day,
//! snapshot and delta bytes, render bytes. Nothing in it depends on the
//! machine or the thread count, so the copy committed at the repo root
//! is a golden record CI compares byte-for-byte.

use crate::ctx::{header, Ctx};
use expanse_core::{PersistedState, Pipeline, PipelineConfig, StageReport};
use expanse_packet::Protocol;

/// Probing days recorded after the one warm-up day: days 1–7 of the
/// default configuration, so six hot days and — on day 7 — one full APD
/// run.
const DAYS: usize = 7;

/// The report's twelve counts under their JSON keys, in stage order.
fn counts(r: &StageReport) -> [(&'static str, u64); 12] {
    [
        ("plan_prefixes", r.plan_prefixes),
        ("apd_probes", r.apd_probes),
        ("apd_answerable", r.apd_answerable),
        ("kept", r.kept),
        ("removed", r.removed),
        ("admitted", r.admitted),
        ("trace_probes", r.trace_probes),
        ("routers", r.routers),
        ("battery_probes", r.battery_probes),
        ("responders", r.responders),
        ("expired", r.expired),
        ("interned", r.interned),
    ]
}

/// Run the days; writes `BENCH_pipeline.json` next to the reports.
pub fn bench_pipeline(ctx: &mut Ctx) -> String {
    let mut out = header(
        "BENCH: pipeline record — stage counts, snapshot / journal / render bytes",
        "system record, not a paper figure",
    );
    let scale = format!("{:?}", ctx.scale).to_lowercase();
    let model_cfg = ctx.scale.model_config(ctx.seed);
    let runup = model_cfg.runup_days;
    let mut p = Pipeline::new(model_cfg, PipelineConfig::default());
    p.collect_sources(runup);
    // Warm the alias filter so the kept set is realistic.
    p.warmup_apd(1);

    // ---- journal: one base, then one delta record per probing day -----
    let mut journal: Vec<u8> = Vec::new();
    p.save_full(&mut journal).expect("save_full");
    let snapshot_bytes = journal.len();
    let hitlist = p.hitlist.len();
    out.push_str(&format!(
        "model scale {scale}: hitlist {hitlist}, base snapshot {snapshot_bytes} bytes\n\nday"
    ));
    for (name, _) in counts(&StageReport::default()) {
        out.push_str(&format!("  {name}"));
    }
    out.push_str("  delta_bytes\n");
    let mut day_rows = Vec::with_capacity(DAYS);
    let mut last_snapshot = None;
    for _ in 0..DAYS {
        let snap = p.run_day();
        let counts = counts(&snap.report);
        let before = journal.len();
        p.append_delta(&mut journal).expect("append_delta");
        let delta_bytes = journal.len() - before;
        out.push_str(&format!("{:>3}", snap.day));
        let mut row = format!("    {{ \"day\": {}", snap.day);
        for (name, n) in counts {
            out.push_str(&format!("  {n:>w$}", w = name.len()));
            row.push_str(&format!(", \"{name}\": {n}"));
        }
        out.push_str(&format!("  {delta_bytes:>11}\n"));
        row.push_str(&format!(", \"delta_bytes\": {delta_bytes} }}"));
        day_rows.push(row);
        last_snapshot = Some(snap);
    }
    // The bytes counted above are a journal: it replays whole.
    let (_, replay) =
        PersistedState::load(p.cfg.apd.clone(), &mut journal.as_slice()).expect("journal load");
    assert_eq!(replay.deltas_applied, DAYS);
    assert!(!replay.torn_tail);
    let delta_mean = (journal.len() - snapshot_bytes) as f64 / DAYS as f64;
    let delta_ratio = delta_mean / snapshot_bytes as f64;

    // ---- service render: the daily publish path -----------------------
    let day_snap = last_snapshot.expect("DAYS >= 1");
    let render_bytes = expanse_core::service::hitlist_file(&day_snap).len()
        + expanse_core::service::protocol_file(&day_snap, Protocol::Tcp443).len();

    out.push_str(&format!(
        "\njournal delta     {delta_mean:>12.1} bytes/day  ({:.1}% of the base, {DAYS} days)\n\
         service render    {render_bytes:>12} bytes  (hitlist + one protocol view, day {})\n",
        delta_ratio * 100.0,
        day_snap.day,
    ));

    let json = format!(
        "{{\n  \"schema\": 8,\n  \"scale\": \"{scale}\",\n  \"hitlist\": {hitlist},\n  \
         \"days\": [\n{}\n  ],\n  \
         \"snapshot\": {{ \"bytes\": {snapshot_bytes} }},\n  \
         \"journal\": {{ \"delta_days\": {DAYS}, \"delta_bytes_per_day\": {delta_mean:.1}, \
         \"delta_to_base_ratio\": {delta_ratio:.4} }},\n  \
         \"service\": {{ \"render_bytes\": {render_bytes} }}\n}}\n",
        day_rows.join(",\n"),
    );
    ctx.write("BENCH_pipeline.json", &json);
    out.push_str("\nwrote BENCH_pipeline.json\n");
    out
}
