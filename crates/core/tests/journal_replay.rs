//! Property tests for the snapshot journal: **any** interleaving of
//! full saves and delta appends replays to a state byte-identical to
//! the straight-line run, and a journal truncated anywhere inside its
//! last delta record resumes cleanly from the previous record.
//! Replay reads through any [`Read`]: one that is interrupted before
//! every read and yields a byte at a time replays like a slice.
//!
//! The per-day reference states are computed once (straight-line run,
//! full snapshot after every day) and shared across properties.

use expanse_core::{Pipeline, PipelineConfig, RetentionConfig};
use expanse_model::ModelConfig;
use proptest::prelude::*;
use std::io::{self, Read};
use std::sync::OnceLock;

const SEED: u64 = 1717;
const WARMUP: u16 = 1;
const MAX_DAYS: usize = 4;

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig {
        trace_budget: 20,
        retention: RetentionConfig {
            window: Some(3),
            every: 1,
        },
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    cfg
}

fn fresh() -> Pipeline {
    let mut p = Pipeline::new(ModelConfig::tiny(SEED), config());
    p.collect_sources(30);
    p.warmup_apd(WARMUP);
    p
}

/// The pipeline's full state as one byte string: two pipelines are in
/// the same state iff these agree.
fn state_bytes(p: &mut Pipeline) -> Vec<u8> {
    let mut buf = Vec::new();
    p.save_full(&mut buf).expect("save_full");
    buf
}

/// `reference()[d]`: the full-state bytes of the straight-line run
/// after `d` probing days, for `d` in `0..=MAX_DAYS`.
fn reference() -> &'static [Vec<u8>] {
    static REF: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    REF.get_or_init(|| {
        let mut p = fresh();
        let mut states = vec![state_bytes(&mut p)];
        for _ in 0..MAX_DAYS {
            p.run_day();
            states.push(state_bytes(&mut p));
        }
        states
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Drive `plan.len()` days, sealing each with either a full base
    /// rewrite (`true`, what compaction does) or a delta append
    /// (`false`). Whatever the interleaving, replaying the journal
    /// must land on the straight-line run's exact state bytes.
    #[test]
    fn any_interleaving_replays_to_straight_line_state(
        plan in proptest::collection::vec(any::<bool>(), 1..=MAX_DAYS),
    ) {
        let days = plan.len();
        let mut p = fresh();
        let mut journal = Vec::new();
        p.save_full(&mut journal).expect("initial base");
        let mut deltas_since_full = 0usize;
        for &full in &plan {
            p.run_day();
            if full {
                journal.clear();
                p.save_full(&mut journal).expect("compacting save");
                deltas_since_full = 0;
            } else {
                p.append_delta(&mut journal).expect("append_delta");
                deltas_since_full += 1;
            }
        }

        let (mut resumed, replay) =
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut journal.as_slice())
                .expect("journal resume");
        prop_assert_eq!(replay.deltas_applied, deltas_since_full);
        prop_assert!(!replay.torn_tail);
        prop_assert_eq!(
            state_bytes(&mut resumed),
            reference()[days].clone(),
            "plan {:?} diverged from the straight-line run",
            plan
        );
    }

    /// An all-delta journal truncated anywhere strictly inside its last
    /// record — from "only the length prefix landed" to "one byte
    /// short" — recovers to the state one day earlier, torn tail
    /// reported.
    #[test]
    fn truncation_inside_last_record_recovers_to_previous(
        days in 2usize..=MAX_DAYS,
        frac in 0.0f64..1.0,
    ) {
        let mut p = fresh();
        let mut journal = Vec::new();
        p.save_full(&mut journal).expect("base");
        let mut boundary = journal.len();
        for d in 0..days {
            if d == days - 1 {
                boundary = journal.len();
            }
            p.run_day();
            p.append_delta(&mut journal).expect("append_delta");
        }

        // Strictly inside the last record: boundary + 1 ..= len - 1.
        let span = journal.len() - boundary - 1;
        let cut = boundary + 1 + ((frac * span as f64) as usize).min(span - 1);
        let (mut resumed, replay) =
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &journal[..cut])
                .expect("torn journal must resume");
        prop_assert_eq!(replay.deltas_applied, days - 1, "cut at {}", cut);
        prop_assert!(replay.torn_tail, "cut at {}", cut);
        prop_assert_eq!(
            state_bytes(&mut resumed),
            reference()[days - 1].clone(),
            "cut at {} did not recover to the previous record",
            cut
        );
    }
}

/// A reader that fails with `Interrupted` before every read and then
/// yields one byte: the slowest a `BufReader<File>` may legally be.
struct Trickle<'a> {
    bytes: &'a [u8],
    interrupt: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.interrupt = !self.interrupt;
        if self.interrupt {
            return Err(io::ErrorKind::Interrupted.into());
        }
        match (self.bytes.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.bytes = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A clean three-delta journal, the same journal cut inside its last
/// length prefix, and cut inside its last frame: each replays through
/// a [`Trickle`] to the state and the [`expanse_core::JournalReplay`]
/// that the plain slice gives.
#[test]
fn interrupted_one_byte_reads_replay_like_a_slice() {
    let mut p = fresh();
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    let mut last = 0;
    for _ in 0..3 {
        p.run_day();
        last = journal.len();
        p.append_delta(&mut journal).expect("append_delta");
    }
    let cuts = [
        (journal.len(), 3, false),
        (last + 3, 2, true),
        (last + 8 + 20, 2, true),
    ];
    for (cut, deltas, torn) in cuts {
        let bytes = &journal[..cut];
        let (mut plain, plain_replay) =
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &bytes[..])
                .expect("slice resume");
        let mut trickle = Trickle {
            bytes,
            interrupt: false,
        };
        let (mut trickled, trickled_replay) =
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut trickle)
                .expect("trickle resume");
        assert_eq!(
            (plain_replay.deltas_applied, plain_replay.torn_tail),
            (deltas, torn),
            "cut at {cut}"
        );
        assert_eq!(trickled_replay, plain_replay, "cut at {cut}");
        assert_eq!(
            state_bytes(&mut trickled),
            state_bytes(&mut plain),
            "cut at {cut}"
        );
    }
}
