//! [`AdmissionControl`]: per-client token-bucket rate limiting.
//!
//! The bucket itself is [`expanse_netsim::ratelimit::TokenBucket`] —
//! the same continuous-refill implementation the simulator attaches to
//! ICMP-rate-limited prefixes (paper §5.1), driven here by wall-clock
//! nanoseconds since the limiter was built instead of virtual time.
//! One bucket per client key (the peer IP for TCP, one shared local
//! key for unix sockets); a request that finds its bucket empty is
//! answered with an in-band `Error` frame
//! ([`ERR_RATE_LIMITED`](crate::protocol::ERR_RATE_LIMITED)) and the
//! connection stays alive — rejecting is cheaper than serving, which
//! is the point of admission control.

use crate::sync::Lock;
use expanse_netsim::ratelimit::TokenBucket;
use expanse_netsim::time::Time;
use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

/// Who a connection is, for rate-limiting purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ClientKey {
    /// A TCP peer, keyed by address (all connections from one host
    /// share a bucket; ports are not identity).
    Ip(IpAddr),
    /// A unix-domain-socket peer: local, one shared bucket.
    Local,
}

impl std::fmt::Display for ClientKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientKey::Ip(ip) => write!(f, "{ip}"),
            ClientKey::Local => write!(f, "local"),
        }
    }
}

/// Token-bucket policy applied to every client key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Sustained requests per second each client may issue.
    pub qps: f64,
    /// Burst capacity: how many requests a fresh (or long-idle) client
    /// may issue back to back before the sustained rate binds.
    pub burst: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            qps: 1000.0,
            burst: 2000.0,
        }
    }
}

/// Beyond this many tracked clients, full (= long idle) buckets are
/// dropped on the next admit — a full bucket reconstructs exactly, so
/// forgetting one never changes an admission decision.
const MAX_TRACKED_CLIENTS: usize = 4096;

/// The per-client admission gate. Shared (`Arc`) across connection
/// handlers; all methods take `&self`.
#[derive(Debug)]
pub struct AdmissionControl {
    cfg: RateLimitConfig,
    start: Instant,
    buckets: Lock<HashMap<ClientKey, TokenBucket>>,
}

impl AdmissionControl {
    /// A limiter applying `cfg` to every client key independently.
    ///
    /// # Panics
    /// Panics if `qps` or `burst` is non-positive (the bucket's own
    /// contract).
    pub fn new(cfg: RateLimitConfig) -> AdmissionControl {
        // Fail at construction, not on the first admit.
        let _ = TokenBucket::new(cfg.burst, cfg.qps);
        AdmissionControl {
            cfg,
            start: Instant::now(),
            buckets: Lock::new(HashMap::new()),
        }
    }

    /// The limiter's clock: nanoseconds since construction, as the
    /// bucket's virtual-time type.
    fn now(&self) -> Time {
        Time(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Admit or reject one request from `key`. Admission consumes one
    /// token from the client's bucket (created full on first sight).
    pub fn admit(&self, key: &ClientKey) -> bool {
        let now = self.now();
        self.buckets.with(|buckets| {
            if buckets.len() > MAX_TRACKED_CLIENTS && !buckets.contains_key(key) {
                // Shed idle state: a bucket refilled to capacity is
                // indistinguishable from a fresh one.
                let cap = self.cfg.burst;
                buckets.retain(|_, b| b.available(now) < cap);
            }
            let bucket = buckets
                .entry(key.clone())
                .or_insert_with(|| TokenBucket::new(self.cfg.burst, self.cfg.qps));
            bucket.try_consume(now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_reject_per_client() {
        let ac = AdmissionControl::new(RateLimitConfig {
            qps: 0.001, // effectively no refill within the test
            burst: 2.0,
        });
        let a = ClientKey::Ip("10.0.0.1".parse().unwrap());
        let b = ClientKey::Ip("10.0.0.2".parse().unwrap());
        assert!(ac.admit(&a));
        assert!(ac.admit(&a));
        assert!(!ac.admit(&a), "burst exhausted");
        // Another client's bucket is untouched.
        assert!(ac.admit(&b));
    }

    #[test]
    fn refill_restores_admission() {
        let ac = AdmissionControl::new(RateLimitConfig {
            qps: 1e9, // one token per elapsed nanosecond
            burst: 1.0,
        });
        let k = ClientKey::Local;
        assert!(ac.admit(&k));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(ac.admit(&k), "bucket refilled by wall clock");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn non_positive_burst_panics_at_construction() {
        AdmissionControl::new(RateLimitConfig {
            qps: 10.0,
            burst: 0.0,
        });
    }
}
