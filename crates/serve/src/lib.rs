// Decode crate: the wire protocol parses untrusted frames, so
// short-circuit panics are audited. Tests keep their ergonomic unwraps.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! `expanse-serve`: the hitlist **serving layer** — a concurrent query
//! engine over immutable, epoch-swapped snapshot views.
//!
//! The paper's end product is a *service*: daily hitlist and
//! aliased-prefix files published for downstream scanners (§11,
//! ipv6hitlist.github.io). Flat files force every consumer question —
//! "responsive TCP/443 addresses under `2001:db8::/32`", "sample 10k
//! non-aliased targets" — through a full re-parse of millions of lines.
//! This crate answers those questions directly:
//!
//! - [`SnapshotView`]: one immutable, `Arc`-shareable view of a
//!   published day — the interned address column, a sorted-by-address
//!   permutation for prefix ranges, every responsiveness/provenance
//!   column, and the aliased-prefix set in a prefix table. Built from a
//!   live [`expanse_core::Pipeline`] at day end, or loaded straight
//!   from a snapshot journal without reconstructing the pipeline or
//!   the `InternetModel` (the read-only
//!   [`expanse_core::PersistedState`] path). Both constructions yield
//!   query-identical views.
//! - [`Query`]: point lookups, prefix-range queries, per-protocol and
//!   freshness filters, aliased/non-aliased scoping, deterministic
//!   seeded sampling, and cursor-based pagination whose cursors
//!   survive epoch swaps — evaluated on per-view predicate bitsets, so
//!   a page costs its matches, not the rows its filter skips.
//! - [`SnapshotRegistry`]: the concurrency model — an epoch/RCU-style
//!   registry that atomically publishes day *N + 1* while in-flight
//!   readers drain on day *N*. Publishing never blocks queries; a
//!   pinned view never changes under a reader.
//! - [`protocol`]: a small sans-IO, length-prefixed request/response
//!   wire format (the same checksummed-envelope idiom as
//!   [`expanse_addr::codec`]), specified in `docs/SERVE_PROTOCOL.md`.
//! - `pool`: the one request path — [`handle`] turns a request
//!   envelope into its framed response (decode, admission, pin, cache,
//!   [`execute`], encode); the socket loop and every in-memory harness
//!   call it.
//! - `transport`: the real daemon front — TCP and unix-domain
//!   listeners with connection lifecycle, a bounded gate on concurrent
//!   execution, and graceful drain across epoch swaps (the
//!   `expanse-served` binary is a thin shell around [`Server`]).
//! - `cache`: an encoded-response cache keyed by `(epoch, canonical
//!   request bytes)` — a response is admitted the second time its key
//!   is asked for; entries never invalidate, they age out when their
//!   epoch retires.
//! - `limiter`: per-client token-bucket admission control, reusing
//!   the simulator's bucket on a wall clock.
//!
//! Every lock in the crate goes through one private `sync` module, whose
//! closures let no guard outlive its call: no lock is ever taken while
//! another is held, and debug builds assert it.
//!
//! ```
//! use expanse_core::{Pipeline, PipelineConfig};
//! use expanse_model::ModelConfig;
//! use expanse_serve::{Query, SnapshotRegistry, SnapshotView};
//!
//! let mut pipeline = Pipeline::new(ModelConfig::tiny(7), PipelineConfig::default());
//! pipeline.collect_sources(5);
//! pipeline.run_day();
//!
//! // Publish the day into an epoch registry…
//! let registry = SnapshotRegistry::new(SnapshotView::publish(&pipeline));
//! let pinned = registry.pin();
//! // …and query the pinned view: readers never see a later publish.
//! let responsive = pinned.view.stats(None).responsive;
//! assert!(responsive > 0);
//! ```

#![allow(
    clippy::disallowed_types,
    reason = "outside the determinism boundary: the serving layer reads immutable views, \
              and its clocks and hash-keyed caches never reach a digest or a snapshot byte"
)]
// The serving layer defines a persistent wire protocol
// (docs/SERVE_PROTOCOL.md); like expanse-addr, every public item must
// say what it is.
#![deny(missing_docs)]

mod cache;
mod conn;
mod limiter;
mod pool;
pub mod protocol;
mod query;
mod registry;
mod sync;
mod transport;
mod view;

pub use cache::{CacheConfig, CacheStats, ResponseCache};
pub use conn::{FrameAssembler, OversizedFrame};
pub use limiter::{AdmissionControl, ClientKey, RateLimitConfig};
pub use pool::{execute, handle, handle_envelope, Outcome};
pub use protocol::{Request, Response, ResponseBody};
pub use query::{AliasScope, Page, Query};
pub use registry::{Pinned, SnapshotRegistry};
pub use transport::{
    BindAddr, ClientError, DrainReport, ServeClient, Server, ServerConfig, ServerStats,
};
pub use view::{AddrRecord, SnapshotView, ViewStats};
