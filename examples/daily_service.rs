//! The daily hitlist service (§11): run the pipeline for two simulated
//! weeks, print the Fig 8 longitudinal responsiveness matrix, and write
//! the published artifacts (responsive hitlist + aliased prefixes) to
//! `./out/`.
//!
//! Run with: `cargo run --release --example daily_service`

use expanse::core::{service, Pipeline, PipelineConfig};
use expanse::model::ModelConfig;

fn main() {
    let mut pipeline = Pipeline::new(ModelConfig::tiny(99), PipelineConfig::default());
    let runup = pipeline.model_ref().config.runup_days;
    pipeline.collect_sources(runup);
    pipeline.warmup_apd(3); // stabilize the aliased-prefix filter first
    println!(
        "collected {} addresses from 7 sources; probing for 14 days...\n",
        pipeline.hitlist.len()
    );

    std::fs::create_dir_all("out").expect("create out/");
    let mut last = None;
    for day in 0..14u16 {
        let snap = pipeline.run_day();
        println!(
            "day {day:>2}: {:>6} targets after APD, {:>5} responsive, {:>3} aliased prefixes, {:>8} probes",
            snap.report.kept,
            snap.responsive.len(),
            snap.aliased_prefixes.len(),
            snap.probes_sent
        );
        if day == 13 {
            std::fs::write("out/hitlist_day13.txt", service::hitlist_file(&snap))
                .expect("write hitlist");
            std::fs::write(
                "out/aliased_prefixes_day13.txt",
                service::aliased_prefixes_file(&snap),
            )
            .expect("write aliased prefixes");
        }
        last = Some(snap);
    }

    println!("\n== Fig 8: responsiveness relative to day-0 baseline ==");
    print!("{}", pipeline.ledger.render());

    if let Some(snap) = last {
        println!(
            "\nwrote out/hitlist_day13.txt ({} addresses) and out/aliased_prefixes_day13.txt ({} prefixes)",
            snap.responsive.len(),
            snap.aliased_prefixes.len()
        );
    }
}
