//! `expanse-eip`: a re-implementation of Entropy/IP (Foremski, Plonka,
//! Berger — IMC 2016) with the exhaustive generator of the hitlist paper
//! (§7).
//!
//! Pipeline:
//! 1. [`segment()`] — split the 32 nybbles into homogeneous-entropy segments
//! 2. [`model::train`] — mine per-segment value distributions and chain
//!    them into a Bayesian network
//! 3. [`model::EipModel::generate`] — best-first (probability-ordered)
//!    exhaustive walk — the paper's improvement over random sampling,
//!    "focusing on more probable IPv6 addresses under a constrained
//!    scanning budget"
//!
//! ```
//! use expanse_eip::train;
//! use expanse_addr::u128_to_addr;
//!
//! let seeds: Vec<_> = (1..=150u128)
//!     .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
//!     .collect();
//! let model = train(&seeds);
//! let generated = model.generate(200);
//! assert!(!generated.is_empty());
//! ```

mod model;
pub mod segment;

pub use model::{train, EipModel, ValueDist};
pub use segment::{entropy_profile, segment, Band, Segment};
