//! Property tests for the simulation substrate.

use expanse_netsim::{Duration, Time, TokenBucket};
use proptest::prelude::*;

proptest! {
    #[test]
    fn token_bucket_never_overspends(
        capacity in 1.0f64..32.0,
        rate in 0.1f64..1000.0,
        gaps_ms in proptest::collection::vec(0u64..5_000, 1..200),
    ) {
        let mut b = TokenBucket::new(capacity, rate);
        let mut now = Time::ZERO;
        let mut granted = 0u64;
        let mut total_ms = 0u64;
        for g in gaps_ms {
            now += Duration::from_millis(g);
            total_ms += g;
            if b.try_consume(now) {
                granted += 1;
            }
        }
        // Can never exceed initial capacity plus refill over the horizon.
        let bound = capacity + rate * (total_ms as f64 / 1000.0) + 1.0;
        prop_assert!(
            (granted as f64) <= bound,
            "granted {granted} > bound {bound}"
        );
        // Available tokens never exceed capacity.
        prop_assert!(b.available(now) <= capacity + 1e-9);
    }

    #[test]
    fn keyed_loss_rate_tracks_probability(p in 0.0f64..1.0, seed in any::<u64>()) {
        let l = expanse_netsim::KeyedLoss::new(seed, p);
        let n = 20_000u64;
        let drops = (0..n).filter(|k| l.drops(*k)).count() as f64 / n as f64;
        prop_assert!((drops - p).abs() < 0.02, "drops={drops} p={p}");
    }
}
