// Decode crate: journal replay and pipeline resume parse on-disk bytes,
// so short-circuit panics are audited. Tests keep their ergonomic unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! `expanse-core`: the IPv6 hitlist pipeline — the paper's measurement
//! system end to end.
//!
//! The daily cycle of §6: collect addresses from the seven sources
//! (`hitlist`), detect and filter aliased prefixes (via
//! [`expanse_apd`]), learn router addresses with traceroute (via
//! [`expanse_scamper6`]), probe responsiveness on five protocols (via
//! [`expanse_zmap6`]), and track longitudinal stability
//! (`longitudinal`). [`service`] renders the published artifacts
//! (daily hitlist + aliased-prefix files); `report` derives the
//! Table 2 source statistics.
//!
//! ```no_run
//! use expanse_core::{Pipeline, PipelineConfig};
//! use expanse_model::ModelConfig;
//!
//! let mut pipeline = Pipeline::new(ModelConfig::tiny(1), PipelineConfig::default());
//! pipeline.collect_sources(30);
//! let snapshot = pipeline.run_day();
//! println!(
//!     "day {}: {} responsive, {} aliased prefixes",
//!     snapshot.day,
//!     snapshot.responsive.len(),
//!     snapshot.aliased_prefixes.len()
//! );
//! ```

mod hitlist;
mod journal;
mod longitudinal;
pub mod pipeline;
mod report;
pub mod service;

pub use hitlist::{Hitlist, HitlistColumns, SourceMask};
pub use journal::{Journal, JournalPolicy, JournalRecord, JournalStore, PathStore};
pub use longitudinal::{Fig8Row, Ledger};
pub use pipeline::{
    DailySnapshot, JournalReplay, PersistedState, Pipeline, PipelineConfig, RetentionConfig,
    StageReport,
};
pub use report::{render_source_table, source_table, total_row, SourceRow};
// The scheduler rides through the pipeline's journal and status
// surfaces; re-export its types so downstream crates (serve, served)
// name them without a direct manifest edge.
pub use expanse_sched::{SchedConfig, SchedJobInfo, SchedStatus, Scheduler};
