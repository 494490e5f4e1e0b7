//! Deterministic network simulation substrate.
//!
//! The probers in this workspace (`expanse-zmap6`, `expanse-scamper6`)
//! are *sans-IO*: they build byte-exact packets and hand them to a
//! [`Network`] — the one trait a raw socket would otherwise implement. The
//! synthetic Internet (`expanse-model`) implements [`Network`]; this crate
//! provides the shared machinery:
//!
//! - [`time`]: virtual time ([`Time`]), nanosecond precision
//! - [`ratelimit`]: token buckets (ICMP rate limiting, §5.1's /120 case,
//!   and throttled last-hop routers)
//! - `loss`: deterministic keyed packet loss (Bernoulli)
//! - `synproxy`: the SYN-proxy middlebox of §5.1's /80 anomaly
//! - `network`: the [`Network`] and [`SnapshotNetwork`] traits
//!
//! Everything is deterministic: "randomness" is keyed hashing of packet
//! bytes and a seed, so a simulation re-run reproduces byte-identical
//! traces.

mod loss;
mod network;
pub mod ratelimit;
mod synproxy;
pub mod time;

pub use loss::KeyedLoss;
pub use network::{Deliveries, Network, Reach, SnapshotNetwork};
pub use ratelimit::TokenBucket;
pub use synproxy::SynProxy;
pub use time::{Duration, Time};
