//! k-means with k-means++ seeding, from scratch.
//!
//! §4 of the paper: "we run the k-means algorithm on the obtained dataset
//! to find clusters of networks with similar fingerprints", with the
//! elbow method over `SSE(k)` (eq. 6) to choose `k`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one k-means run.
#[derive(Debug, Clone)]
pub(crate) struct KMeansResult {
    /// Cluster centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignment: Vec<usize>,
    /// Sum of squared errors (eq. 6).
    pub sse: f64,
}

fn d2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// k-means++ initialization.
fn init_pp(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())].clone());
    let mut dist: Vec<f64> = points.iter().map(|p| d2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dist.iter().sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with existing centroids.
            rng.random_range(0..points.len())
        } else {
            let mut x = rng.random_range(0.0..total);
            let mut chosen = points.len() - 1;
            for (i, d) in dist.iter().enumerate() {
                if x < *d {
                    chosen = i;
                    break;
                }
                x -= d;
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            let d = d2(p, centroids.last().expect("just pushed"));
            if d < dist[i] {
                dist[i] = d;
            }
        }
    }
    centroids
}

/// Run k-means (`n_init` restarts, best SSE wins). Deterministic in
/// `seed`.
///
/// # Panics
/// Panics if `k == 0`, `points` is empty, or dimensions are ragged.
pub(crate) fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, n_init: usize) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    assert!(!points.is_empty(), "no points to cluster");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "ragged point dimensions"
    );
    let k = k.min(points.len());
    let mut best: Option<KMeansResult> = None;
    for restart in 0..n_init.max(1) {
        let mut rng = StdRng::seed_from_u64(seed ^ (restart as u64).wrapping_mul(0x9e37));
        let mut centroids = init_pp(points, k, &mut rng);
        let mut assignment = vec![0usize; points.len()];
        let mut iterations = 0;
        loop {
            iterations += 1;
            // Assign.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let mut bi = 0;
                let mut bd = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = d2(p, centroid);
                    if d < bd {
                        bd = d;
                        bi = c;
                    }
                }
                if assignment[i] != bi {
                    assignment[i] = bi;
                    changed = true;
                }
            }
            if !changed && iterations > 1 {
                break;
            }
            // Update.
            let mut sums = vec![vec![0.0; dim]; k];
            let mut counts = vec![0usize; k];
            for (i, p) in points.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, x) in sums[assignment[i]].iter_mut().zip(p) {
                    *s += x;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for s in sums[c].iter_mut() {
                        *s /= counts[c] as f64;
                    }
                    centroids[c] = sums[c].clone();
                }
                // Empty cluster: keep the old centroid.
            }
            if iterations >= 200 {
                break;
            }
        }
        let sse: f64 = points
            .iter()
            .zip(&assignment)
            .map(|(p, &c)| d2(p, &centroids[c]))
            .sum();
        if best.as_ref().is_none_or(|b| sse < b.sse) {
            best = Some(KMeansResult {
                centroids,
                assignment,
                sse,
            });
        }
    }
    best.expect("at least one restart")
}

/// SSE curve for the elbow method: `SSE(k)` for `k = 1..=k_max` (eq. 6,
/// paper uses `k = 1..20`).
pub fn sse_curve(points: &[Vec<f64>], k_max: usize, seed: u64) -> Vec<(usize, f64)> {
    (1..=k_max)
        .map(|k| (k, kmeans(points, k, seed, 3).sse))
        .collect()
}

/// Pick the elbow of an SSE curve: the k maximizing distance to the
/// chord between the curve's endpoints (a standard automation of the
/// paper's visual elbow selection).
pub fn elbow(curve: &[(usize, f64)]) -> usize {
    assert!(!curve.is_empty(), "empty SSE curve");
    if curve.len() < 3 {
        return curve[0].0;
    }
    let (x0, y0) = (curve[0].0 as f64, curve[0].1);
    let (x1, y1) = (curve[curve.len() - 1].0 as f64, curve[curve.len() - 1].1);
    let norm = ((y1 - y0).powi(2) + (x1 - x0).powi(2)).sqrt();
    let mut best_k = curve[0].0;
    let mut best_d = f64::MIN;
    for &(k, sse) in curve {
        // Perpendicular distance from (k, sse) to the chord.
        let d = ((y1 - y0) * k as f64 - (x1 - x0) * sse + x1 * y0 - y1 * x0).abs()
            / norm.max(f64::EPSILON);
        if d > best_d {
            best_d = d;
            best_k = k;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(1);
        let centers = [[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]];
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (li, c) in centers.iter().enumerate() {
            for _ in 0..50 {
                pts.push(vec![
                    c[0] + rng.random_range(-0.5..0.5),
                    c[1] + rng.random_range(-0.5..0.5),
                ]);
                labels.push(li);
            }
        }
        (pts, labels)
    }

    #[test]
    fn recovers_blobs() {
        let (pts, labels) = blobs();
        let r = kmeans(&pts, 3, 7, 5);
        // Same-label points must share a cluster.
        for li in 0..3 {
            let clusters: std::collections::BTreeSet<usize> = labels
                .iter()
                .zip(&r.assignment)
                .filter(|(l, _)| **l == li)
                .map(|(_, c)| *c)
                .collect();
            assert_eq!(clusters.len(), 1, "blob {li} split: {clusters:?}");
        }
        assert!(r.sse < 100.0, "sse={}", r.sse);
    }

    #[test]
    fn deterministic() {
        let (pts, _) = blobs();
        let a = kmeans(&pts, 3, 9, 3);
        let b = kmeans(&pts, 3, 9, 3);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.sse, b.sse);
    }

    #[test]
    fn sse_decreases_with_k() {
        let (pts, _) = blobs();
        let curve = sse_curve(&pts, 6, 3);
        for w in curve.windows(2) {
            assert!(
                w[1].1 <= w[0].1 * 1.05,
                "SSE should (mostly) decrease: {curve:?}"
            );
        }
    }

    #[test]
    fn elbow_finds_three() {
        let (pts, _) = blobs();
        let curve = sse_curve(&pts, 8, 3);
        let k = elbow(&curve);
        assert!((2..=4).contains(&k), "elbow={k}, curve={curve:?}");
    }

    #[test]
    fn k_larger_than_points_clamped() {
        let pts = vec![vec![0.0], vec![1.0]];
        let r = kmeans(&pts, 10, 1, 1);
        assert!(r.centroids.len() <= 2);
        assert!(r.sse < 1e-9);
    }

    #[test]
    fn identical_points_one_effective_cluster() {
        let pts = vec![vec![1.0, 2.0]; 20];
        let r = kmeans(&pts, 3, 5, 2);
        assert!(r.sse < 1e-12);
    }

    #[test]
    fn elbow_degenerate_curves() {
        assert_eq!(elbow(&[(1, 5.0)]), 1);
        assert_eq!(elbow(&[(1, 5.0), (2, 1.0)]), 1);
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn empty_points_panics() {
        kmeans(&[], 2, 0, 1);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_points_panics() {
        kmeans(&[vec![1.0], vec![1.0, 2.0]], 2, 0, 1);
    }
}
