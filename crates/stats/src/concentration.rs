//! Concentration curves: fraction of mass in the top-X groups.
//!
//! Figures 1b, 4, 9 and 10 of the paper all plot, for a grouping of
//! addresses (by AS or by prefix), the cumulative fraction of addresses
//! contained in the top-X largest groups, with X on a log axis.

/// A concentration curve over groups sorted by descending size.
#[derive(Debug, Clone, PartialEq)]
pub struct ConcentrationCurve {
    /// Group sizes, sorted descending.
    sizes: Vec<u64>,
    total: u64,
}

impl ConcentrationCurve {
    /// Build from unordered group sizes.
    pub fn from_counts(counts: impl IntoIterator<Item = u64>) -> Self {
        let mut sizes: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let total = sizes.iter().sum();
        ConcentrationCurve { sizes, total }
    }

    /// Fraction of total mass in the `x` largest groups (x ≥ groups → 1.0).
    pub fn fraction_in_top(&self, x: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let s: u64 = self.sizes.iter().take(x).sum();
        s as f64 / self.total as f64
    }

    /// Gini-style evenness summary in [0, 1]: 0 = perfectly even groups,
    /// →1 = all mass in one group. Used to compare "flatness" of source
    /// distributions quantitatively (the paper does this visually).
    pub fn gini(&self) -> f64 {
        let n = self.sizes.len();
        if n <= 1 || self.total == 0 {
            return 0.0;
        }
        // sizes are sorted descending; Gini over the distribution.
        let total = self.total as f64;
        let mut weighted = 0.0;
        for (i, &s) in self.sizes.iter().rev().enumerate() {
            weighted += (2.0 * (i as f64 + 1.0) - n as f64 - 1.0) * s as f64;
        }
        weighted / (n as f64 * total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_fraction_basics() {
        let c = ConcentrationCurve::from_counts([10, 30, 60]);
        assert_eq!(c.sizes.len(), 3);
        assert_eq!(c.total, 100);
        assert!((c.fraction_in_top(1) - 0.6).abs() < 1e-12);
        assert!((c.fraction_in_top(2) - 0.9).abs() < 1e-12);
        assert!((c.fraction_in_top(3) - 1.0).abs() < 1e-12);
        assert!((c.fraction_in_top(99) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_empty_groups() {
        let c = ConcentrationCurve::from_counts([0, 5, 0, 5]);
        assert_eq!(c.sizes.len(), 2);
        assert!((c.fraction_in_top(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gini_extremes() {
        let even = ConcentrationCurve::from_counts([10, 10, 10, 10]);
        assert!(even.gini().abs() < 1e-12);
        let skewed = ConcentrationCurve::from_counts([1000, 1, 1, 1]);
        assert!(skewed.gini() > 0.7);
        let empty = ConcentrationCurve::from_counts([]);
        assert_eq!(empty.gini(), 0.0);
    }
}
