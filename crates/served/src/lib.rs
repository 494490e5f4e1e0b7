//! Shared plumbing for the `expanse-served` daemon and the
//! `expansectl` control CLI: a dependency-free flag parser and the
//! human rendering of wire responses. The daemon itself is a thin
//! shell around [`expanse_serve::Server`]; everything protocol- or
//! transport-shaped lives in `expanse-serve` where it is testable
//! without processes.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary: the daemon's clocks and threads never \
              reach a digest or a snapshot byte"
)]
#![deny(missing_docs)]

mod flags;
pub mod render;

pub use flags::Flags;
