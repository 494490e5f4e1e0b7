//! Snapshot/resume determinism guard: running N + M days straight and
//! running N days → save → load → M days must be **byte-identical** —
//! the same `battery_digest` every day and the same published service
//! files. This is the contract that makes the snapshot subsystem safe
//! to deploy: a restart can never fork the published hitlist history.
//!
//! The same guard covers the incremental journal: run(N) → full base →
//! M × delta → replay must equal run(N + M), and a journal torn inside
//! the last delta record must recover to the previous record.
//!
//! Retention expiry is enabled so the guard also covers the
//! accumulate→expire→publish lifecycle (expiry counts must match too).
//! Each day's [`StageReport`] is compared as well: it is never
//! persisted, so a resumed day must recount every stage exactly.
//!
//! With the probe scheduler on, a journal's replay must rebuild the
//! live scheduler exactly: no entry the plan touched but never
//! journaled.
//!
//! Delta records replay APD day bitmaps rather than carry windows
//! whole, so the guard also drives records that span one day, a full
//! window of days, and more days than a window holds; and the version
//! gate: journals of the previous format are refused outright.

use expanse_addr::codec::{Encoder, CODEC_VERSION};
use expanse_addr::{CodecError, Prefix};
use expanse_core::pipeline::{DELTA_MAGIC, PIPELINE_MAGIC};
use expanse_core::{
    service, PersistedState, Pipeline, PipelineConfig, RetentionConfig, SchedConfig, StageReport,
};
use expanse_model::{ModelConfig, SourceId};

const SEED: u64 = 4242;
const WARMUP: u16 = 2;
const N: usize = 3; // days before the save
const M: usize = 3; // days after the resume

fn config() -> PipelineConfig {
    let mut cfg = PipelineConfig {
        trace_budget: 25,
        retention: RetentionConfig {
            window: Some(4),
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

/// Everything a day publishes, byte for byte.
#[derive(Debug, PartialEq)]
struct DayOutput {
    day: u16,
    battery_digest: u64,
    hitlist_file: String,
    aliased_prefixes_file: String,
    expired_today: usize,
    report: StageReport,
}

fn drive(p: &mut Pipeline, days: usize) -> Vec<DayOutput> {
    (0..days)
        .map(|_| {
            let snap = p.run_day();
            DayOutput {
                day: snap.day,
                battery_digest: snap.battery_digest,
                hitlist_file: service::hitlist_file(&snap),
                aliased_prefixes_file: service::aliased_prefixes_file(&snap),
                expired_today: snap.expired_today,
                report: snap.report,
            }
        })
        .collect()
}

/// The pipeline's full state as one byte string (a sealed base
/// envelope): two pipelines are in the same state iff these agree.
fn state_bytes(p: &mut Pipeline) -> Vec<u8> {
    let mut buf = Vec::new();
    p.save_full(&mut buf).expect("save_full");
    buf
}

#[test]
fn resume_equals_uninterrupted_run() {
    // Reference: one uninterrupted N + M day run.
    let mut straight = fresh();
    let reference = drive(&mut straight, N + M);

    // Candidate: N days, snapshot to bytes, resume, M more days.
    let mut before = fresh();
    let head = drive(&mut before, N);
    assert_eq!(
        head[..],
        reference[..N],
        "same seed + config must agree before the save"
    );
    let mut snapshot = Vec::new();
    before.save_full(&mut snapshot).expect("save_full");
    drop(before);

    let (mut resumed, replay) =
        Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut snapshot.as_slice())
            .expect("resume");
    assert_eq!(replay.deltas_applied, 0);
    assert!(!replay.torn_tail);
    assert_eq!(resumed.day(), (WARMUP as usize + N) as u16);
    let tail = drive(&mut resumed, M);

    assert_eq!(
        tail[..],
        reference[N..],
        "post-resume days must be byte-identical to the uninterrupted run"
    );
    // The resumed pipeline's accumulated state converges too, not just
    // its published outputs.
    assert_eq!(resumed.hitlist.len(), straight.hitlist.len());
    let ledger_bytes = |p: &Pipeline| {
        let mut enc = Encoder::new(Vec::new(), b"LEDGER\0\0", 1).expect("in-memory envelope");
        p.ledger.encode(&mut enc).expect("ledger");
        enc.finish().expect("seal")
    };
    assert_eq!(ledger_bytes(&resumed), ledger_bytes(&straight));
    assert_eq!(resumed.day(), straight.day());
    assert_eq!(
        resumed.apd.aliased_prefixes(),
        straight.apd.aliased_prefixes()
    );
}

#[test]
fn journal_replay_equals_uninterrupted_run() {
    const K: usize = 2; // days driven after the journal replay

    // Reference: one uninterrupted N + M + K day run.
    let mut straight = fresh();
    let reference = drive(&mut straight, N + M + K);

    // Candidate: N days → full base, then M days each sealed with one
    // delta record.
    let mut writer = fresh();
    drive(&mut writer, N);
    let mut journal = Vec::new();
    writer.save_full(&mut journal).expect("save_full");
    let base_len = journal.len();
    let mut boundaries = Vec::new(); // journal length after each record
    let middle = (0..M)
        .map(|_| {
            let out = drive(&mut writer, 1).pop().expect("one day");
            writer.append_delta(&mut journal).expect("append_delta");
            boundaries.push(journal.len());
            out
        })
        .collect::<Vec<_>>();
    assert_eq!(
        middle[..],
        reference[N..N + M],
        "journal-writing days must match the uninterrupted run"
    );
    // Incrementality: each record is a fraction of the base even at
    // tiny scale, where one day's working set (responders + re-probed
    // APD windows) is a far larger share of the world than in a real
    // deployment. The bench reports the actual ratio.
    for (i, delta_len) in boundaries
        .iter()
        .scan(base_len, |prev, &b| {
            let d = b - *prev;
            *prev = b;
            Some(d)
        })
        .enumerate()
    {
        assert!(
            delta_len < base_len / 3,
            "delta {i} is {delta_len} bytes — not incremental against a {base_len}-byte base"
        );
    }
    assert!(
        journal.len() < 2 * base_len,
        "journal ({} bytes) outgrew twice its base ({base_len} bytes) in {M} days",
        journal.len()
    );

    // Replay the whole journal: every record applies, nothing is torn,
    // and the restored state is byte-identical to the writer's.
    let (mut resumed, replay) =
        Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut journal.as_slice())
            .expect("journal resume");
    assert_eq!(replay.deltas_applied, M);
    assert!(!replay.torn_tail);
    assert_eq!(
        state_bytes(&mut resumed),
        state_bytes(&mut writer),
        "replayed state must be byte-identical to the writer's"
    );

    // And the future it computes is the uninterrupted run's.
    let after = drive(&mut resumed, K);
    assert_eq!(after[..], reference[N + M..]);
}

#[test]
fn torn_tail_recovers_to_previous_record() {
    let mut straight = fresh();
    let reference = drive(&mut straight, N + 2);

    let mut writer = fresh();
    drive(&mut writer, N);
    let mut journal = Vec::new();
    writer.save_full(&mut journal).expect("save_full");
    drive(&mut writer, 1);
    writer.append_delta(&mut journal).expect("append_delta");
    let complete_len = journal.len();
    drive(&mut writer, 1);
    writer.append_delta(&mut journal).expect("append_delta");

    // Tear the journal at every depth inside the last record — from
    // "only the length prefix arrived" to "one byte short": replay must
    // recover to the first record every time, and the recovered
    // pipeline recomputes the lost day byte-identically.
    for keep in [complete_len + 8, (complete_len + journal.len()) / 2] {
        let (p, replay) =
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &journal[..keep])
                .expect("torn journal must still resume");
        assert_eq!(replay.deltas_applied, 1, "torn at {keep}");
        assert!(replay.torn_tail, "torn at {keep}");
        let mut p = p;
        let redone = drive(&mut p, 1);
        assert_eq!(redone[..], reference[N + 1..N + 2], "torn at {keep}");
    }
    // Torn exactly at a record boundary: indistinguishable from a clean
    // shutdown — one record, no torn tail.
    let (_, replay) = Pipeline::resume(
        ModelConfig::tiny(SEED),
        config(),
        &mut &journal[..complete_len],
    )
    .expect("boundary cut resumes");
    assert_eq!(replay.deltas_applied, 1);
    assert!(!replay.torn_tail);
    // A flipped bit inside the last frame is the same as truncation:
    // the record's checksum fails, recovery stops one record earlier.
    let mut evil = journal.clone();
    let at = complete_len + 12;
    evil[at] ^= 0x40;
    let (_, replay) = Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut evil.as_slice())
        .expect("corrupt tail record must not kill the journal");
    assert_eq!(replay.deltas_applied, 1);
    assert!(replay.torn_tail);
}

#[test]
fn save_full_is_deterministic() {
    // Two saves of the same state are byte-identical (no hash-map
    // iteration order may leak into the snapshot), and an append_delta
    // in between must not change what a full save writes.
    let mut p = fresh();
    drive(&mut p, 2);
    let a = state_bytes(&mut p);
    let mut sink = Vec::new();
    p.append_delta(&mut sink).unwrap(); // empty delta: no day ran
    let b = state_bytes(&mut p);
    assert_eq!(a, b);
}

#[test]
fn corrupted_snapshot_errors_cleanly() {
    let mut p = fresh();
    drive(&mut p, 1);
    let mut snapshot = Vec::new();
    p.save_full(&mut snapshot).unwrap();

    // Sanity: the pristine snapshot resumes.
    assert!(Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut snapshot.as_slice()).is_ok());
    // Truncated at any of a few depths inside the *base*: error, never
    // panic (the base has no earlier record to fall back to).
    for keep in [0, 4, snapshot.len() / 2, snapshot.len() - 1] {
        assert!(
            Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &snapshot[..keep]).is_err(),
            "truncation at {keep} accepted"
        );
    }
    // Wrong magic.
    let mut evil = snapshot.clone();
    evil[0] ^= 0xff;
    assert!(matches!(
        Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut evil.as_slice()),
        Err(CodecError::BadMagic { expected, .. }) if expected == PIPELINE_MAGIC
    ));
    // A flipped payload bit deep in the stream: caught (checksum at the
    // latest), never silently accepted.
    let mut evil = snapshot.clone();
    let at = snapshot.len() * 2 / 3;
    evil[at] ^= 0x01;
    assert!(
        Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut evil.as_slice()).is_err(),
        "bit flip at {at} accepted"
    );
}

/// The four journaled sections as one byte string, whichever struct
/// holds them (a live pipeline or a journal-loaded state).
fn section_bytes(
    hitlist: &expanse_core::Hitlist,
    ledger: &expanse_core::Ledger,
    apd: &expanse_apd::Apd,
    sched: &expanse_core::Scheduler,
) -> Vec<u8> {
    let mut enc = Encoder::new(Vec::new(), b"SECTIONS", 1).expect("in-memory envelope");
    hitlist.encode(&mut enc).expect("hitlist");
    ledger.encode(&mut enc).expect("ledger");
    apd.encode(&mut enc).expect("apd");
    sched.encode(&mut enc).expect("sched");
    enc.finish().expect("seal")
}

#[test]
fn records_spanning_any_number_of_days_replay_exactly() {
    let cfg = PipelineConfig {
        full_apd_every: 1,
        ..config()
    };
    let window = cfg.apd.window;
    let mut p = Pipeline::new(ModelConfig::tiny(SEED), cfg.clone());
    p.collect_sources(30);
    p.warmup_apd(WARMUP);
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");

    // One day, exactly as many days as a window holds, and one more —
    // by then every window has slid past its sync-point days, so only
    // full window entries can carry the record.
    for (n, gap) in [1, window + 1, window + 2].into_iter().enumerate() {
        // A /64 nobody has seen: the full plan probes every known /64,
        // so its window opens inside the gap.
        let newcomer: Prefix = format!("3fff:{n:x}::/64").parse().expect("prefix");
        assert!(!p.apd.windows.contains_key(&newcomer));
        p.hitlist
            .add_from(SourceId::RipeAtlas, &[newcomer.addr_at(1)], p.day());
        drive(&mut p, gap);
        assert!(p.apd.windows.contains_key(&newcomer));
        p.append_delta(&mut journal).expect("append_delta");

        let (st, replay) =
            PersistedState::load(cfg.apd.clone(), &mut journal.as_slice()).expect("load");
        assert_eq!((replay.deltas_applied, replay.torn_tail), (n + 1, false));
        assert_eq!(st.day, p.day(), "{gap}-day record");
        assert_eq!(
            section_bytes(&st.hitlist, &st.ledger, &st.apd, &st.sched),
            section_bytes(&p.hitlist, &p.ledger, &p.apd, &p.sched),
            "{gap}-day record: journal-loaded state differs from the live one"
        );
        let (mut resumed, _) = Pipeline::resume(
            ModelConfig::tiny(SEED),
            cfg.clone(),
            &mut journal.as_slice(),
        )
        .expect("resume");
        assert_eq!(
            state_bytes(&mut resumed),
            state_bytes(&mut p),
            "{gap}-day record: resumed save_full differs from the live one"
        );
    }
}

#[test]
fn responder_free_first_day_resumes_to_the_live_state() {
    // No sources collected: the first day's battery has no target, so
    // no ledger row establishes a baseline on it. The record of that
    // day must still leave a resumed ledger in the live one's state.
    let mut p = Pipeline::new(ModelConfig::tiny(7), config());
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    let snap = p.run_day();
    assert!(snap.responsive.is_empty());
    p.append_delta(&mut journal).expect("append_delta");
    let (mut resumed, replay) =
        Pipeline::resume(ModelConfig::tiny(7), config(), &mut journal.as_slice()).expect("resume");
    assert_eq!((replay.deltas_applied, replay.torn_tail), (1, false));
    assert_eq!(
        state_bytes(&mut resumed),
        state_bytes(&mut p),
        "resumed save_full differs from the live one"
    );
}

#[test]
fn ledger_days_must_end_at_the_pipeline_day() {
    // A ledger one recorded day ahead of its pipeline, in the base and
    // through a delta: the next `run_day` would record out of order, so
    // both readers must refuse the journal instead of resuming it.
    let mut ahead = fresh();
    drive(&mut ahead, 2);
    ahead.save_full(&mut Vec::new()).expect("sync point");
    drive(&mut ahead, 1);
    let refused = |journal: &[u8]| {
        let resumed = Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &journal[..]);
        assert!(resumed.is_err(), "resume accepted the ledger");
        let loaded = PersistedState::load(config().apd, &mut &journal[..]);
        assert!(loaded.is_err(), "load accepted the ledger");
    };

    let mut p = fresh();
    drive(&mut p, 2);
    p.ledger = ahead.ledger.clone();
    refused(&state_bytes(&mut p));

    let mut p = fresh();
    drive(&mut p, 2);
    let mut journal = state_bytes(&mut p);
    p.ledger = ahead.ledger.clone();
    p.append_delta(&mut journal).expect("append_delta");
    refused(&journal);
}

#[test]
fn scheduled_journal_resumes_to_the_live_state() {
    // A budget well under the kept set: each day's plan demands /48s it
    // gives no slots, and neither the plan nor the journal may keep
    // anything of those that a resumed pipeline lacks.
    let cfg = PipelineConfig {
        sched: SchedConfig::budgeted(400, 64),
        ..config()
    };
    let mut p = Pipeline::new(ModelConfig::tiny(SEED), cfg.clone());
    p.collect_sources(30);
    p.warmup_apd(WARMUP);
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    for _ in 0..5 {
        drive(&mut p, 1);
        p.append_delta(&mut journal).expect("append_delta");
    }
    let (mut resumed, replay) =
        Pipeline::resume(ModelConfig::tiny(SEED), cfg, &mut journal.as_slice()).expect("resume");
    assert_eq!((replay.deltas_applied, replay.torn_tail), (5, false));
    assert_eq!(
        resumed.sched.status(resumed.day(), 16),
        p.sched.status(p.day(), 16)
    );
    assert_eq!(
        state_bytes(&mut resumed),
        state_bytes(&mut p),
        "resumed save_full differs from the live one"
    );
}

#[test]
fn previous_format_version_is_refused_not_recovered() {
    let mut p = fresh();
    let mut journal = Vec::new();
    p.save_full(&mut journal).expect("base");
    let resume = |bytes: &[u8]| {
        Pipeline::resume(ModelConfig::tiny(SEED), config(), &mut &bytes[..]).map(|(_, r)| r)
    };
    // Today: found 3, supported 4.
    let old = CODEC_VERSION - 1;
    let refused = |r: Result<_, CodecError>| {
        matches!(r, Err(CodecError::UnsupportedVersion { found, supported })
            if found == old && supported == CODEC_VERSION)
    };

    // A base of the previous version: refused at the gate (R1), before
    // any payload byte is interpreted.
    let mut old_base = journal.clone();
    old_base[8..10].copy_from_slice(&old.to_le_bytes());
    assert!(refused(resume(&old_base)));

    // A whole, checksum-valid delta frame of the previous version
    // behind a current base: the journal is internally inconsistent — a
    // hard error (R3), never a torn tail to recover past (R2).
    let mut enc = Encoder::new(Vec::new(), &DELTA_MAGIC, old).expect("in-memory envelope");
    enc.put_bytes(&[0; 128]).expect("payload");
    let frame = enc.finish().expect("seal");
    journal.extend_from_slice(&(frame.len() as u64).to_le_bytes());
    journal.extend_from_slice(&frame);
    assert!(refused(resume(&journal)));
    // The same frame with a byte flipped fails its checksum first, and
    // *that* is a torn tail.
    let last = journal.len() - 20;
    journal[last] ^= 1;
    let replay = resume(&journal).expect("torn tail recovers");
    assert_eq!((replay.deltas_applied, replay.torn_tail), (0, true));
}
