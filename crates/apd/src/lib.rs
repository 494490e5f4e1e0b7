//! `expanse-apd`: multi-level aliased prefix detection — the paper's §5.
//!
//! Aliased prefixes (one machine answering an entire prefix, e.g. via
//! `IP_FREEBIND`) can flood a hitlist with millions of same-host
//! addresses; the paper finds ~1.5 % of prefixes aliased, covering about
//! *half* of all hitlist addresses. This crate implements the full
//! detection pipeline:
//!
//! - `plan`: which prefixes to test — every known /64 plus deeper
//!   4-bit levels down to /124 gated on >100 known targets, and
//!   BGP-announced prefixes as-is
//! - `detector`: 16-way nybble fan-out probing (one pseudo-random
//!   address per subprefix, Table 3) on ICMPv6 + TCP/80 with
//!   cross-protocol merging
//! - `window`: the multi-day sliding window that stabilizes lossy and
//!   ICMP-rate-limited prefixes (Table 4)
//! - `filter`: longest-prefix-match filtering of hitlist addresses
//! - `persist`: checksummed snapshot encode/decode of the window
//!   state, for the pipeline's save/resume path
//! - [`murdock`]: the static-/96 baseline of Murdock et al. for the
//!   §5.5 comparison
//! - [`fingerprint`]: the §5.4 consistency battery (iTTL, optionstext,
//!   WScale, MSS, WSize, TCP-timestamp same/monotonic/R²) validating
//!   that detected prefixes behave like one machine

mod detector;
mod filter;
pub mod fingerprint;
pub mod murdock;
mod persist;
mod plan;
mod window;

pub use detector::{Apd, ApdConfig, DayObservation, DayReport};
pub use filter::AliasFilter;
pub use fingerprint::{analyze, collect_evidence, ittl, Class, ConsistencyReport, TsVerdict};
pub use plan::{plan_bgp, plan_targets, plan_targets_set, PlanConfig};
pub use window::WindowState;
