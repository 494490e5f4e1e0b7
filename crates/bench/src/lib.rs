//! `expanse-bench`: the experiment harness.
//!
//! One module per section of the paper's evaluation; each experiment
//! regenerates the rows/series of its table or figure from the simulated
//! substrate and returns a rendered report. The `experiments` binary
//! dispatches by artifact id (`table2`, `fig7`, `all`, ...) and writes
//! results under `results/`.
//!
//! Absolute numbers are *scaled* (the model defaults to ≈1:100 of the
//! paper's population); every report therefore prints shapes — shares,
//! ratios, orderings — next to the paper's reported values.
//! `ARCHITECTURE.md` is the system inventory.

pub mod ctx;
mod exp_ablations;
mod exp_apd;
mod exp_entropy;
mod exp_fingerprint;
mod exp_generation;
pub mod exp_pipeline;
mod exp_probing;
mod exp_rdns_crowd;
mod exp_scenarios;
mod exp_sched;
mod exp_sources;

pub use ctx::Ctx;

/// All experiment ids in paper order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "table3",
    "table4",
    "fig4",
    "fig5",
    "table5",
    "table6",
    "murdock",
    "fig6",
    "fig7",
    "fig8",
    "table7",
    "fig9",
    "fig10",
    "table8",
    "table9",
    "abl-fanout",
    "abl-crossproto",
    "abl-gating",
    "abl-elbow",
    "abl-cluster-as",
    "abl-bgp-apd",
    "bench-pipeline",
    "bench-scenarios",
    "bench-sched",
];

/// Run one experiment by id; returns the rendered report.
pub fn run(id: &str, ctx: &mut Ctx) -> Option<String> {
    let out = match id {
        "table1" => exp_sources::table1(ctx),
        "table2" => exp_sources::table2(ctx),
        "fig1a" => exp_sources::fig1a(ctx),
        "fig1b" => exp_sources::fig1b(ctx),
        "fig1c" => exp_sources::fig1c(ctx),
        "fig2a" => exp_entropy::fig2a(ctx),
        "fig2b" => exp_entropy::fig2b(ctx),
        "fig3a" => exp_entropy::fig3a(ctx),
        "fig3b" => exp_entropy::fig3b(ctx),
        "table3" => exp_apd::table3(ctx),
        "table4" => exp_apd::table4(ctx),
        "fig4" => exp_apd::fig4(ctx),
        "fig5" => exp_apd::fig5(ctx),
        "table5" => exp_fingerprint::table5(ctx),
        "table6" => exp_fingerprint::table6(ctx),
        "murdock" => exp_apd::murdock(ctx),
        "fig6" => exp_probing::fig6(ctx),
        "fig7" => exp_probing::fig7(ctx),
        "fig8" => exp_probing::fig8(ctx),
        "table7" => exp_generation::table7_fig9(ctx, false),
        "fig9" => exp_generation::table7_fig9(ctx, true),
        "fig10" => exp_rdns_crowd::fig10_table8(ctx, false),
        "table8" => exp_rdns_crowd::fig10_table8(ctx, true),
        "table9" => exp_rdns_crowd::table9(ctx),
        "abl-fanout" => exp_ablations::fanout(ctx),
        "abl-crossproto" => exp_ablations::crossproto(ctx),
        "abl-gating" => exp_ablations::gating(ctx),
        "abl-elbow" => exp_ablations::elbow(ctx),
        "abl-cluster-as" => exp_ablations::cluster_as(ctx),
        "abl-bgp-apd" => exp_ablations::bgp_apd(ctx),
        "bench-pipeline" => exp_pipeline::bench_pipeline(ctx),
        "bench-scenarios" => exp_scenarios::bench_scenarios(ctx),
        "bench-sched" => exp_sched::bench_sched(ctx),
        _ => return None,
    };
    Some(out)
}
