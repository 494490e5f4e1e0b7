//! `expanse-entropy`: entropy clustering of IPv6 networks (§4 of the
//! paper).
//!
//! The pipeline: per-network nybble `fingerprint`s → `kmeans()` with
//! k-means++ seeding and the elbow method → `cluster` summaries with
//! popularity and per-nybble median entropy, matching Figures 2 and 3.
//!
//! ```
//! use expanse_entropy::{cluster_networks, Fingerprint};
//! use expanse_addr::u128_to_addr;
//!
//! // Two /32s: one counter-addressed, one random-IID.
//! let counter: Vec<_> = (1..=128u128)
//!     .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i)).collect();
//! let random: Vec<_> = (1..=128u64)
//!     .map(|i| u128_to_addr((0x2001_0db9u128 << 96)
//!         | u128::from(expanse_addr::fanout::splitmix64(i)))).collect();
//! let groups = vec![
//!     ("counter", Fingerprint::full(&counter)),
//!     ("random", Fingerprint::full(&random)),
//! ];
//! let clustering = cluster_networks(&groups, 2, Some(2), 42);
//! assert_eq!(clustering.clusters.len(), 2);
//! ```

mod cluster;
mod fingerprint;
mod kmeans;

pub use cluster::{cluster_networks, render_clusters, ClusterSummary, Clustering};
pub use fingerprint::{fingerprint_groups, fingerprints_by_32, Fingerprint};
pub use kmeans::{elbow, sse_curve};
