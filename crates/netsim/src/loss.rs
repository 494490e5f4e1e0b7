//! Deterministic packet-loss models.
//!
//! Loss decisions are *keyed hashes*, not RNG draws: the same packet key
//! (e.g. `(day, target, protocol, attempt)`) always makes the same
//! decision under the same seed. This is what lets §5.2's sliding-window
//! experiment (Table 4) produce a stable count of "unstable" prefixes.

use expanse_addr::fanout::splitmix64;

/// Map a 64-bit hash to a uniform float in [0, 1).
#[inline]
fn unit(h: u64) -> f64 {
    // 53 mantissa bits -> exactly representable uniform grid.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Independent (Bernoulli) loss, keyed.
#[derive(Debug, Clone, Copy)]
pub struct KeyedLoss {
    seed: u64,
    /// Loss probability in [0, 1].
    pub p: f64,
}

impl KeyedLoss {
    /// A loss model with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside [0, 1].
    #[inline]
    pub fn new(seed: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} out of range"
        );
        KeyedLoss { seed, p }
    }

    /// Should the packet identified by `key` be dropped?
    #[inline]
    pub fn drops(&self, key: u64) -> bool {
        if self.p <= 0.0 {
            return false;
        }
        if self.p >= 1.0 {
            return true;
        }
        unit(splitmix64(key ^ self.seed)) < self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let l = KeyedLoss::new(42, 0.5);
        for k in 0..100 {
            assert_eq!(l.drops(k), l.drops(k));
        }
    }

    #[test]
    fn extremes() {
        let never = KeyedLoss::new(1, 0.0);
        let always = KeyedLoss::new(1, 1.0);
        for k in 0..100 {
            assert!(!never.drops(k));
            assert!(always.drops(k));
        }
    }

    #[test]
    fn empirical_rate_close() {
        let l = KeyedLoss::new(7, 0.3);
        let n = 100_000;
        let dropped = (0..n).filter(|&k| l.drops(k)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn seeds_decorrelate() {
        let a = KeyedLoss::new(1, 0.5);
        let b = KeyedLoss::new(2, 0.5);
        let agree = (0..10_000u64).filter(|&k| a.drops(k) == b.drops(k)).count();
        // Independent coins agree ~50%.
        assert!((4_000..6_000).contains(&agree), "agree={agree}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_panics() {
        KeyedLoss::new(0, 1.5);
    }
}
