//! # expanse — an IPv6 hitlist toolkit
//!
//! A reproduction of *Clusters in the Expanse: Understanding and Unbiasing
//! IPv6 Hitlists* (Gasser et al., IMC 2018) as a production-grade Rust
//! workspace. This facade crate re-exports every subsystem:
//!
//! - [`addr`]: IPv6 address/nybble/prefix primitives
//! - [`trie`]: the prefix table: longest-prefix match over sorted ranges
//! - [`stats`]: entropy, CDFs, conditional matrices, regression
//! - [`packet`]: IPv6/ICMPv6/TCP/UDP wire formats
//! - [`netsim`]: deterministic network simulation substrate (virtual
//!   time, middleboxes, the `Network` seam)
//! - [`model`]: synthetic IPv6 Internet (ASes, schemes, hosts, sources)
//! - [`zmap6`]: ZMapv6-style stateless prober
//! - [`scamper6`]: traceroute engine
//! - [`entropy`]: entropy-fingerprint clustering (§4)
//! - [`eip`]: Entropy/IP target generation (§7)
//! - [`sixgen`]: 6Gen target generation (§7)
//! - [`apd`]: multi-level aliased prefix detection (§5)
//! - [`zesplot`]: squarified-treemap prefix plots
//! - [`core`]: the hitlist pipeline and daily service
//! - [`serve`]: the concurrent query engine over epoch-swapped
//!   snapshot views
//!
//! See `ARCHITECTURE.md` for the system inventory; the `experiments`
//! binary (`expanse-bench`) prints every table and figure next to the
//! paper's reported values.

pub use expanse_addr as addr;
pub use expanse_apd as apd;
pub use expanse_core as core;
pub use expanse_eip as eip;
pub use expanse_entropy as entropy;
pub use expanse_model as model;
pub use expanse_netsim as netsim;
pub use expanse_packet as packet;
pub use expanse_scamper6 as scamper6;
pub use expanse_serve as serve;
pub use expanse_sixgen as sixgen;
pub use expanse_stats as stats;
pub use expanse_trie as trie;
pub use expanse_zesplot as zesplot;
pub use expanse_zmap6 as zmap6;
