//! Quickstart: build a synthetic IPv6 Internet, assemble a hitlist from
//! all seven sources, de-alias it, probe it on five protocols, and print
//! what the paper's pipeline would publish.
//!
//! Run with: `cargo run --release --example quickstart`

use expanse::core::{render_source_table, source_table, total_row, Pipeline, PipelineConfig};
use expanse::model::ModelConfig;
use expanse::packet::Protocol;

fn main() {
    // A small model so the example runs in seconds. Bump to
    // `ModelConfig::default()` for the full-scale experiment runs.
    let model_cfg = ModelConfig::tiny(2024);
    let mut pipeline = Pipeline::new(model_cfg, PipelineConfig::default());

    // Ingest everything the sources know by the end of the runup.
    let runup_days = pipeline.model_ref().config.runup_days;
    pipeline.collect_sources(runup_days);
    println!(
        "hitlist after source collection: {} addresses\n",
        pipeline.hitlist.len()
    );

    // One probing day: APD -> filter -> traceroute -> 5-protocol battery.
    let snap = pipeline.run_day();

    println!("== Table 2-style source overview ==");
    let rows = source_table(&pipeline.hitlist, pipeline.model_ref());
    let total = total_row(&pipeline.hitlist, pipeline.model_ref());
    println!("{}", render_source_table(&rows, &total));

    println!("== de-aliasing (§5) ==");
    println!("aliased prefixes detected: {}", snap.aliased_prefixes.len());
    let kept = snap.report.kept as usize;
    println!(
        "hitlist: {} total -> {} after aliased-prefix filtering ({:.1}% removed)",
        snap.hitlist_total,
        kept,
        100.0 * (snap.hitlist_total - kept) as f64 / snap.hitlist_total.max(1) as f64
    );

    println!("\n== responsiveness (§6) ==");
    println!(
        "{} of {} non-aliased targets responded to at least one protocol",
        snap.responsive.len(),
        kept
    );
    for proto in Protocol::ALL {
        let n = snap
            .responsive
            .iter()
            .filter(|(_, set)| set.contains(proto))
            .count();
        println!("  {proto:<8} {n}");
    }
    println!(
        "\nrouters learned via traceroute today: {}",
        snap.report.routers
    );
    println!("probes sent today: {}", snap.probes_sent);
}
