//! Ordinary least squares on (x, y) pairs.
//!
//! §5.4 of the paper tests whether receive timestamps and remote TCP
//! timestamps fit a global linear counter with `R² > 0.8` — a strong
//! indicator that all probed addresses terminate at one machine.

/// A fitted line `y = slope * x + intercept` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlsFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in [0, 1] (1 = perfect fit).
    pub r2: f64,
}

/// Least-squares fit. Returns `None` for fewer than 2 points or zero
/// x-variance.
pub fn ols(points: &[(f64, f64)]) -> Option<OlsFit> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        // y is constant: the fit is exact (slope 0).
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(OlsFit {
        slope,
        intercept,
        r2,
    })
}

/// Is a sequence non-decreasing?
pub fn non_decreasing<T: PartialOrd>(xs: &[T]) -> bool {
    xs.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let fit = ols(&pts).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_high_r2() {
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                // deterministic "noise"
                let noise = if i % 2 == 0 { 0.5 } else { -0.5 };
                (x, 10.0 * x + noise)
            })
            .collect();
        let fit = ols(&pts).unwrap();
        assert!(fit.r2 > 0.99, "r2={}", fit.r2);
    }

    #[test]
    fn random_scatter_low_r2() {
        // A zig-zag with no linear trend.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|i| (i as f64, if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let fit = ols(&pts).unwrap();
        assert!(fit.r2 < 0.1, "r2={}", fit.r2);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(ols(&[]).is_none());
        assert!(ols(&[(1.0, 2.0)]).is_none());
        assert!(ols(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // zero x-variance
                                                           // Constant y: exact fit.
        let fit = ols(&[(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn monotonicity_checks() {
        assert!(non_decreasing(&[1, 2, 2]));
        assert!(!non_decreasing(&[2, 1]));
    }
}
