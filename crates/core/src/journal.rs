//! The incremental snapshot journal: one base envelope plus per-day
//! delta records, with a compaction policy.
//!
//! [`crate::Pipeline::save_full`] rewrites the entire accumulated state
//! — at the hitlist scales follow-up work operates (hundreds of
//! millions of entries), doing that every day is the dominant I/O cost
//! of the service. The journal instead appends one small
//! [`crate::Pipeline::append_delta`] record per day (new addresses,
//! rewritten rows, ledger day appends, touched APD windows) and
//! rewrites the base only when the accumulated delta bytes outgrow it
//! ([`JournalPolicy::compact_ratio`]). Replay is
//! [`crate::Pipeline::resume`]: base + deltas, byte-identical to the
//! uninterrupted run, recovering to the last complete record if the
//! final append was torn.
//!
//! Durability contract: the pipeline's sync point advances only after
//! the store reports the bytes written, so a failed append leaves the
//! day's changes pending for the next record; and compaction goes
//! through [`JournalStore::replace`], which [`PathStore`] implements as
//! an atomic write-temp-then-rename — a crash mid-compaction leaves
//! the old journal or the new one, never a ruin.
//!
//! The byte format is specified normatively in
//! `docs/SNAPSHOT_FORMAT.md`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "journal bytes are untrusted: a torn or corrupt journal must map to Err, not a panic"
)]

use crate::pipeline::{JournalReplay, Pipeline, PipelineConfig};
use expanse_addr::CodecError;
use expanse_model::ModelConfig;
use std::io::{self, Write};
use std::path::PathBuf;

/// Storage backend for a snapshot journal: an append-only byte log
/// that can be replaced wholesale when the base is rewritten.
///
/// Two backends ship with the crate: `Vec<u8>` (in-memory, the test
/// and bench substrate) and [`PathStore`] (appends to a file, replaces
/// via atomic rename). The journal only ever appends, replaces, or
/// reads the whole log — there is no random-access mutation, which is
/// what makes torn-tail recovery sound.
pub trait JournalStore {
    /// Append bytes at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Replace the whole log with `bytes` in one step (compaction).
    /// Backends should make this as atomic as they can; [`PathStore`]
    /// guarantees old-or-new, never partial.
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Read the whole log from the start.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
}

impl JournalStore for Vec<u8> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.clear();
        self.extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.clone())
    }
}

/// A path-backed journal store whose [`JournalStore::replace`] is
/// atomic: the fresh log is written and synced to a sibling `.tmp`
/// file, then renamed over the journal. A crash mid-compaction leaves
/// either the old journal or the complete new one on disk — never a
/// partial base with nothing to fall back to.
#[derive(Debug, Clone)]
pub struct PathStore {
    path: PathBuf,
}

impl PathStore {
    /// A store at `path`. The file is created on first write; opening
    /// a journal at a path that does not exist yet fails with the
    /// underlying not-found error.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PathStore { path: path.into() }
    }

    /// The sibling path compaction stages the fresh log at.
    fn tmp_path(&self) -> PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        self.path.with_file_name(name)
    }
}

impl JournalStore for PathStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(bytes)?;
        // The sync-point contract ("at most one in-flight append is
        // ever lost") holds only if an acknowledged record is actually
        // on disk, not in the page cache.
        f.sync_data()
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.tmp_path();
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            // The rename must never promote a partially flushed file.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        std::fs::read(&self.path)
    }
}

/// When to fold the accumulated deltas back into a fresh base.
#[derive(Debug, Clone, Copy)]
pub struct JournalPolicy {
    /// Rewrite the base once `delta_bytes > compact_ratio ×
    /// base_bytes`. `1.0` (the default) bounds the journal at twice the
    /// base size and amortizes the rewrite over `base/delta` days;
    /// larger values trade slower restarts (more records to replay) for
    /// rarer rewrites. Values ≤ 0 compact on every record; non-finite
    /// values (`f64::INFINITY`, NaN) never compact by policy — the log
    /// then grows, and the base is rewritten only by
    /// [`Journal::create`], by a [`Journal::open`] that found a torn
    /// tail, and by the first [`Journal::record`] after a failed append.
    pub compact_ratio: f64,
}

impl Default for JournalPolicy {
    fn default() -> Self {
        JournalPolicy { compact_ratio: 1.0 }
    }
}

/// What one [`Journal::record`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A delta record was appended.
    Appended {
        /// Bytes appended (outer length prefix + frame).
        bytes: u64,
    },
    /// The policy triggered: the log was replaced by a fresh base.
    Compacted {
        /// Bytes of the fresh base envelope.
        bytes: u64,
    },
}

/// A pipeline snapshot journal over a [`JournalStore`]: tracks base and
/// delta byte counts and applies the [`JournalPolicy`] on every record.
#[derive(Debug)]
pub struct Journal<S: JournalStore> {
    store: S,
    policy: JournalPolicy,
    base_bytes: u64,
    delta_bytes: u64,
    /// A previous append failed, so the log may end in torn bytes at an
    /// unknown depth. Appending past them would strand every later
    /// record behind garbage on replay — the next `record` must go
    /// through a compacting replace instead.
    poisoned: bool,
}

impl<S: JournalStore> Journal<S> {
    /// Start a journal on `store` from the pipeline's current state:
    /// replaces the store's content with a fresh base envelope.
    pub fn create(store: S, policy: JournalPolicy, p: &mut Pipeline) -> Result<Self, CodecError> {
        let mut j = Journal {
            store,
            policy,
            base_bytes: 0,
            delta_bytes: 0,
            poisoned: false,
        };
        j.compact(p)?;
        Ok(j)
    }

    /// Reopen a journal: replay the store's base + deltas into a
    /// pipeline and resume byte accounting from the replay's record
    /// boundaries — a clean reopen costs one replay, **not** a base
    /// rewrite. Only a torn tail (reported in the returned
    /// [`JournalReplay`]) triggers a compaction, to shed the torn
    /// bytes before anything is appended after them; with a
    /// [`PathStore`] that compaction is an atomic swap, so the old
    /// journal stays intact until the new base is fully on disk.
    pub fn open(
        mut store: S,
        policy: JournalPolicy,
        model_cfg: ModelConfig,
        cfg: PipelineConfig,
    ) -> Result<(Self, Pipeline, JournalReplay), CodecError> {
        let bytes = store.read_all()?;
        let (mut p, replay) = Pipeline::resume(model_cfg, cfg, &mut bytes.as_slice())?;
        let mut j = Journal {
            store,
            policy,
            base_bytes: replay.base_bytes,
            // A replay never reports fewer journal bytes than base bytes,
            // but this counter only drives the compaction heuristic —
            // saturate rather than trusting that across refactors.
            delta_bytes: replay.journal_bytes.saturating_sub(replay.base_bytes),
            poisoned: false,
        };
        if replay.torn_tail {
            j.compact(&mut p)?;
        }
        Ok((j, p, replay))
    }

    /// Record the pipeline's changes since the last record: appends a
    /// delta, or — when the accumulated delta bytes would outgrow the
    /// policy, or a previous append failed and the log may end in torn
    /// bytes — replaces the log with a fresh base instead.
    ///
    /// The pipeline's sync point advances only after the store write
    /// succeeds: on error the day's changes stay pending and the next
    /// `record` carries them (via a compacting replace, so torn bytes
    /// from the failed append can never strand later records).
    pub fn record(&mut self, p: &mut Pipeline) -> Result<JournalRecord, CodecError> {
        let mut buf = Vec::new();
        p.write_delta_record(&mut buf)?;
        let projected = self.delta_bytes + buf.len() as u64;
        if self.poisoned || (projected as f64) > self.policy.compact_ratio * self.base_bytes as f64
        {
            let bytes = self.compact(p)?;
            Ok(JournalRecord::Compacted { bytes })
        } else {
            match self.store.append(&buf) {
                Ok(()) => {}
                Err(e) => {
                    self.poisoned = true;
                    return Err(e.into());
                }
            }
            p.mark_synced();
            self.delta_bytes = projected;
            Ok(JournalRecord::Appended {
                bytes: buf.len() as u64,
            })
        }
    }

    /// Replace the log with a fresh base envelope of the pipeline's
    /// current state; returns the base size. It runs on create, by
    /// policy, after a torn-tail reopen, and on the first record after
    /// a failed append — nowhere else.
    pub(crate) fn compact(&mut self, p: &mut Pipeline) -> Result<u64, CodecError> {
        let mut buf = Vec::new();
        p.write_full(&mut buf)?;
        self.store.replace(&buf)?;
        p.mark_synced();
        self.base_bytes = buf.len() as u64;
        self.delta_bytes = 0;
        self.poisoned = false;
        Ok(self.base_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RetentionConfig;

    fn tiny() -> Pipeline {
        let mut cfg = PipelineConfig {
            trace_budget: 20,
            retention: RetentionConfig {
                window: Some(4),
                every: 1,
            },
            ..PipelineConfig::default()
        };
        cfg.plan.min_targets = 30;
        let mut p = Pipeline::new(ModelConfig::tiny(99), cfg);
        p.collect_sources(30);
        p
    }

    #[test]
    fn journal_records_then_compacts() {
        let mut p = tiny();
        p.run_day();
        let mut j = Journal::create(Vec::new(), JournalPolicy::default(), &mut p).unwrap();
        let base = j.base_bytes;
        assert!(base > 0);
        // Daily deltas are a small fraction of the base; they append
        // until their sum crosses the base size, then the log resets.
        let mut appended = 0;
        for _ in 0..6 {
            p.run_day();
            match j.record(&mut p).unwrap() {
                JournalRecord::Appended { bytes } => {
                    appended += 1;
                    assert!(bytes > 0);
                    assert!(j.delta_bytes <= j.base_bytes);
                }
                JournalRecord::Compacted { .. } => {
                    assert_eq!(j.delta_bytes, 0);
                }
            }
        }
        assert!(appended > 0, "no delta was ever appended");
        // Reopen replays to the same state: recording continues cleanly.
        let cfg = p.cfg.clone();
        let store = j.store;
        let (mut j2, mut q, replay) =
            Journal::open(store, JournalPolicy::default(), ModelConfig::tiny(99), cfg).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(q.day(), p.day());
        q.run_day();
        j2.record(&mut q).unwrap();
    }

    #[test]
    fn reopen_resumes_byte_accounting_from_replay_boundaries() {
        // Regression for the delta counter on reopen: a base-only log
        // reopens with zero delta bytes (journal == base, the
        // subtraction saturates instead of trusting the invariant), and
        // a log with appended deltas reopens with exactly their sum, so
        // the compaction policy picks up where the old process left off.
        let mut p = tiny();
        p.run_day();
        let j = Journal::create(Vec::new(), JournalPolicy::default(), &mut p).unwrap();
        let cfg = p.cfg.clone();
        let (j2, mut q, _) = Journal::open(
            j.store,
            JournalPolicy::default(),
            ModelConfig::tiny(99),
            cfg,
        )
        .unwrap();
        assert_eq!(j2.delta_bytes, 0, "base-only log has no delta bytes");

        let mut j2 = j2;
        q.run_day();
        let rec = j2.record(&mut q).unwrap();
        let JournalRecord::Appended { bytes } = rec else {
            panic!("small delta should append, not compact: {rec:?}");
        };
        let cfg = q.cfg.clone();
        let (j3, _, replay) = Journal::open(
            j2.store,
            JournalPolicy::default(),
            ModelConfig::tiny(99),
            cfg,
        )
        .unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(j3.delta_bytes, bytes);
        assert_eq!(replay.journal_bytes - replay.base_bytes, bytes);
    }

    #[test]
    fn zero_ratio_always_compacts() {
        let mut p = tiny();
        p.run_day();
        let mut j =
            Journal::create(Vec::new(), JournalPolicy { compact_ratio: 0.0 }, &mut p).unwrap();
        p.run_day();
        assert!(matches!(
            j.record(&mut p).unwrap(),
            JournalRecord::Compacted { .. }
        ));
        assert_eq!(j.delta_bytes, 0);
    }

    /// A store whose appends fail must not advance the pipeline's sync
    /// point: the day's changes stay pending and land in the next
    /// successful record, so nothing is ever lost silently.
    #[test]
    fn failed_append_keeps_changes_pending() {
        struct FailingAppends(Vec<u8>);
        impl JournalStore for FailingAppends {
            fn append(&mut self, _: &[u8]) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
            fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
                self.0.replace(bytes)
            }
            fn read_all(&mut self) -> io::Result<Vec<u8>> {
                self.0.read_all()
            }
        }

        let mut p = tiny();
        p.run_day();
        let mut j = Journal::create(
            FailingAppends(Vec::new()),
            JournalPolicy {
                compact_ratio: f64::INFINITY,
            },
            &mut p,
        )
        .unwrap();
        p.run_day();
        assert!(j.record(&mut p).is_err(), "append must surface the error");
        // The failure is latched: the next record must not append past
        // whatever torn bytes the failed write may have left — it goes
        // through a compacting replace, folding both pending days in.
        p.run_day();
        assert!(matches!(
            j.record(&mut p).unwrap(),
            JournalRecord::Compacted { .. }
        ));
        let cfg = p.cfg.clone();
        let (_, q, replay) = Journal::open(
            j.store.0,
            JournalPolicy::default(),
            ModelConfig::tiny(99),
            cfg,
        )
        .unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(q.day(), p.day(), "the failed-append days must not be lost");
    }

    #[test]
    fn path_store_roundtrip_and_atomic_swap_staging() {
        let path = std::env::temp_dir().join(format!("expanse-journal-{}.bin", std::process::id()));
        std::fs::remove_file(&path).ok();
        let store = PathStore::new(&path);
        let mut p = tiny();
        p.run_day();
        let mut j = Journal::create(
            store,
            JournalPolicy {
                compact_ratio: f64::INFINITY,
            },
            &mut p,
        )
        .unwrap();
        p.run_day();
        assert!(matches!(
            j.record(&mut p).unwrap(),
            JournalRecord::Appended { .. }
        ));
        // The staging file never outlives a replace.
        assert!(!j.store.tmp_path().exists());

        let cfg = p.cfg.clone();
        let (j2, q, replay) = Journal::open(
            PathStore::new(&path),
            JournalPolicy::default(),
            ModelConfig::tiny(99),
            cfg,
        )
        .unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.deltas_applied, 1);
        assert_eq!(q.day(), p.day());
        drop(j2);
        std::fs::remove_file(&path).ok();
    }
}
