//! Statistics substrate for the `expanse` workspace.
//!
//! Everything the paper's analyses need and nothing more:
//!
//! - [`entropy`]: Shannon entropy, normalized per §4 eq. (5)
//! - [`concentration`]: "fraction of addresses in top-X ASes" curves
//!   (Fig 1b, 4, 9, 10)
//! - `condprob`: conditional response-probability matrices (Fig 7)
//! - [`regress`]: ordinary least squares + R² (TCP timestamp test, §5.4)
//! - [`summary`]: means, medians, quantiles
//! - `topk`: counting maps with top-k reports (Table 2, Table 8)
//!
//! All algorithms are implemented from scratch; no external math crates.

pub mod concentration;
mod condprob;
pub mod entropy;
pub mod regress;
pub mod summary;
mod topk;

pub use concentration::ConcentrationCurve;
pub use condprob::CondMatrix;
pub use entropy::normalized_entropy16;
pub use regress::{ols, OlsFit};
pub use summary::{mean, median};
pub use topk::Counter;
