//! Token-bucket rate limiting.
//!
//! The paper's §5.1 root-causes one APD anomaly (six /120 prefixes with
//! day-to-day flapping branches) as *ICMP rate limiting*. The simulator
//! attaches token buckets to such prefixes so the anomaly — and the
//! paper's cross-protocol + sliding-window countermeasures (§5.2) — can be
//! reproduced.

use crate::time::Time;

/// A token bucket: `capacity` tokens, refilled continuously at
/// `refill_per_sec` tokens per second.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Time,
}

impl TokenBucket {
    /// A bucket starting full.
    ///
    /// # Panics
    /// Panics if `capacity` or `refill_per_sec` is non-positive.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        assert!(refill_per_sec > 0.0, "refill rate must be positive");
        TokenBucket {
            capacity,
            tokens: capacity,
            refill_per_sec,
            last: Time::ZERO,
        }
    }

    fn refill(&mut self, now: Time) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.refill_per_sec).min(self.capacity);
            self.last = now;
        }
    }

    /// Try to consume one token at time `now`. Returns `true` on success.
    pub fn try_consume(&mut self, now: Time) -> bool {
        self.refill(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: Time) -> f64 {
        self.refill(now);
        self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_starve() {
        let mut b = TokenBucket::new(3.0, 1.0);
        let t = Time::ZERO;
        assert!(b.try_consume(t));
        assert!(b.try_consume(t));
        assert!(b.try_consume(t));
        assert!(!b.try_consume(t), "bucket should be empty");
    }

    #[test]
    fn refills_over_time() {
        let mut b = TokenBucket::new(1.0, 2.0); // 2 tokens/sec
        assert!(b.try_consume(Time::ZERO));
        assert!(!b.try_consume(Time::from_millis(100)));
        assert!(b.try_consume(Time::from_millis(600))); // 0.6s * 2 = 1.2 tokens
    }

    #[test]
    fn capacity_caps_refill() {
        let mut b = TokenBucket::new(2.0, 1000.0);
        assert!((b.available(Time::from_millis(100_000)) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        TokenBucket::new(0.0, 1.0);
    }
}
