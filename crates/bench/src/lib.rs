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

/// An artifact's renderer: regenerates its rows or series and returns
/// the rendered report.
pub type Render = fn(&mut Ctx) -> String;

/// Every experiment in paper order, by artifact id: the one list the
/// `experiments` binary checks, lists and runs ids from.
pub const EXPERIMENTS: &[(&str, Render)] = &[
    ("table1", exp_sources::table1),
    ("table2", exp_sources::table2),
    ("fig1a", exp_sources::fig1a),
    ("fig1b", exp_sources::fig1b),
    ("fig1c", exp_sources::fig1c),
    ("fig2a", exp_entropy::fig2a),
    ("fig2b", exp_entropy::fig2b),
    ("fig3a", exp_entropy::fig3a),
    ("fig3b", exp_entropy::fig3b),
    ("table3", exp_apd::table3),
    ("table4", exp_apd::table4),
    ("fig4", exp_apd::fig4),
    ("fig5", exp_apd::fig5),
    ("table5", exp_fingerprint::table5),
    ("table6", exp_fingerprint::table6),
    ("murdock", exp_apd::murdock),
    ("fig6", exp_probing::fig6),
    ("fig7", exp_probing::fig7),
    ("fig8", exp_probing::fig8),
    ("table7", |ctx| exp_generation::table7_fig9(ctx, false)),
    ("fig9", |ctx| exp_generation::table7_fig9(ctx, true)),
    ("fig10", |ctx| exp_rdns_crowd::fig10_table8(ctx, false)),
    ("table8", |ctx| exp_rdns_crowd::fig10_table8(ctx, true)),
    ("table9", exp_rdns_crowd::table9),
    ("abl-fanout", exp_ablations::fanout),
    ("abl-crossproto", exp_ablations::crossproto),
    ("abl-gating", exp_ablations::gating),
    ("abl-elbow", exp_ablations::elbow),
    ("abl-cluster-as", exp_ablations::cluster_as),
    ("abl-bgp-apd", exp_ablations::bgp_apd),
    ("bench-pipeline", exp_pipeline::bench_pipeline),
    ("bench-scenarios", exp_scenarios::bench_scenarios),
    ("bench-sched", exp_sched::bench_sched),
];
