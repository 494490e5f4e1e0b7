//! `BENCH_pipeline.json` is a record, not a measurement: the same bytes
//! from every run, and nothing in it that a clock or a core count could
//! have written.

use expanse_bench::ctx::Scale;
use expanse_bench::{exp_pipeline, Ctx};
use std::path::Path;

/// The experiments CLI's default seed — what the copy committed at the
/// repo root was written with.
const SEED: u64 = 20_181_031;

fn record(dir: &str) -> String {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let mut ctx = Ctx::new(Scale::Small, SEED, out.clone());
    exp_pipeline::bench_pipeline(&mut ctx);
    std::fs::read_to_string(out.join("BENCH_pipeline.json")).expect("record written")
}

#[test]
fn two_runs_write_the_committed_record_and_no_timing_key() {
    let first = record("pipeline_record_1");
    assert_eq!(first, record("pipeline_record_2"));
    assert_eq!(first, include_str!("../../../BENCH_pipeline.json"));
    assert!(first.contains("\"schema\": 8"));
    for timing in ["_per_s", "_s\"", "threads", "cores", "speedup"] {
        assert!(!first.contains(timing), "{timing} in {first}");
    }
}
