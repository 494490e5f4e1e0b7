//! Property tests for the statistics substrate.

use expanse_stats::concentration::ConcentrationCurve;
use expanse_stats::entropy::{normalized_entropy16, shannon_entropy};
use expanse_stats::regress::ols;
use expanse_stats::summary::{mean, median, quantile};
use expanse_stats::Counter;
use proptest::prelude::*;

proptest! {
    #[test]
    fn entropy_bounds(counts in proptest::collection::vec(0u64..10_000, 16)) {
        let arr: [u64; 16] = counts.clone().try_into().expect("len 16");
        let h = normalized_entropy16(&arr);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&h), "h={h}");
        // Permutation invariance.
        let mut rev = arr;
        rev.reverse();
        prop_assert!((normalized_entropy16(&rev) - h).abs() < 1e-12);
    }

    #[test]
    fn entropy_scaling_invariance(counts in proptest::collection::vec(1u64..1000, 2..12)) {
        // Multiplying all counts by a constant leaves entropy unchanged.
        let h1 = shannon_entropy(&counts);
        let scaled: Vec<u64> = counts.iter().map(|c| c * 7).collect();
        let h2 = shannon_entropy(&scaled);
        prop_assert!((h1 - h2).abs() < 1e-9, "{h1} vs {h2}");
    }

    #[test]
    fn concentration_monotone(counts in proptest::collection::vec(0u64..100_000, 1..60)) {
        let c = ConcentrationCurve::from_counts(counts.clone());
        let groups = counts.iter().filter(|&&n| n > 0).count();
        let mut prev = 0.0;
        for x in 1..=groups {
            let f = c.fraction_in_top(x);
            prop_assert!(f + 1e-12 >= prev, "not monotone at {x}");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
            prev = f;
        }
        if groups > 0 {
            prop_assert!((c.fraction_in_top(groups) - 1.0).abs() < 1e-9);
        }
        let g = c.gini();
        prop_assert!((0.0..=1.0).contains(&g), "gini={g}");
    }

    #[test]
    fn quantiles_ordered(xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.50).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
        prop_assert_eq!(median(&xs).unwrap(), q50);
        // Mean lies within [min, max].
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::MAX, f64::min);
        let hi = xs.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn ols_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 3usize..40,
    ) {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| (i as f64, slope * i as f64 + intercept))
            .collect();
        let fit = ols(&pts).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6, "slope {} vs {slope}", fit.slope);
        prop_assert!((fit.intercept - intercept).abs() < 1e-4);
        prop_assert!(fit.r2 > 1.0 - 1e-9);
    }

    #[test]
    fn counter_totals(keys in proptest::collection::vec(0u8..20, 0..200)) {
        let c: Counter<u8> = keys.iter().copied().collect();
        prop_assert_eq!(c.total(), keys.len() as u64);
        let top_sum: u64 = c.top(100).iter().map(|(_, n)| n).sum();
        prop_assert_eq!(top_sum, keys.len() as u64);
        // Shares sum to 1 for non-empty input.
        if !keys.is_empty() {
            let share_sum: f64 = c.top_shares(100).iter().map(|(_, s)| s).sum();
            prop_assert!((share_sum - 1.0).abs() < 1e-9);
        }
    }
}
