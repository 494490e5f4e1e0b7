//! End-to-end entropy clustering: fingerprints → k-means → cluster
//! summaries (the Fig 2/3 pipeline).

use crate::fingerprint::Fingerprint;
use crate::kmeans::{elbow, kmeans, sse_curve, KMeansResult};
use expanse_stats::summary::column_medians;

/// One cluster's summary row (what Fig 2 plots).
#[derive(Debug, Clone)]
pub struct ClusterSummary {
    /// 1-based cluster id, ordered by popularity (1 = most popular).
    pub id: usize,
    /// Number of member networks.
    pub members: usize,
    /// Share of all clustered networks.
    pub popularity: f64,
    /// Median entropy per nybble (the right-hand side of Fig 2).
    pub median_entropy: Vec<f64>,
}

/// Full clustering output.
#[derive(Debug, Clone)]
pub struct Clustering<K> {
    /// First nybble of the fingerprints (9 for F9_32, 17 for F17_32).
    pub first_nybble: usize,
    /// Chosen k (elbow over the SSE curve).
    pub k: usize,
    /// The SSE curve used for the elbow (k → SSE).
    pub sse_curve: Vec<(usize, f64)>,
    /// Clusters ordered by popularity.
    pub clusters: Vec<ClusterSummary>,
    /// (key, cluster id) per network, cluster ids matching `clusters`.
    pub assignment: Vec<(K, usize)>,
}

/// Cluster a set of `(key, fingerprint)` pairs. `k` is chosen by the
/// elbow method over `k = 1..=k_max` unless `fixed_k` pins it.
///
/// # Panics
/// Panics if `groups` is empty or fingerprints are ragged.
pub fn cluster_networks<K: Clone>(
    groups: &[(K, Fingerprint)],
    k_max: usize,
    fixed_k: Option<usize>,
    seed: u64,
) -> Clustering<K> {
    assert!(!groups.is_empty(), "nothing to cluster");
    let first_nybble = groups[0].1.first_nybble;
    let points: Vec<Vec<f64>> = groups.iter().map(|(_, f)| f.values.clone()).collect();
    let curve = sse_curve(&points, k_max.min(points.len()).max(1), seed);
    let k = fixed_k.unwrap_or_else(|| elbow(&curve));
    let result: KMeansResult = kmeans(&points, k, seed, 5);

    // Order clusters by popularity.
    let k_eff = result.centroids.len();
    let mut counts = vec![0usize; k_eff];
    for &c in &result.assignment {
        counts[c] += 1;
    }
    let mut order: Vec<usize> = (0..k_eff).collect();
    order.sort_by(|a, b| counts[*b].cmp(&counts[*a]));
    let rank_of: Vec<usize> = {
        let mut r = vec![0usize; k_eff];
        for (rank, &c) in order.iter().enumerate() {
            r[c] = rank;
        }
        r
    };

    let total: usize = counts.iter().sum();
    let clusters: Vec<ClusterSummary> = order
        .iter()
        .enumerate()
        .filter(|(_, &c)| counts[c] > 0)
        .map(|(rank, &c)| {
            let rows: Vec<Vec<f64>> = points
                .iter()
                .zip(&result.assignment)
                .filter(|(_, a)| **a == c)
                .map(|(p, _)| p.clone())
                .collect();
            ClusterSummary {
                id: rank + 1,
                members: counts[c],
                popularity: counts[c] as f64 / total as f64,
                median_entropy: column_medians(&rows),
            }
        })
        .collect();

    let assignment: Vec<(K, usize)> = groups
        .iter()
        .zip(&result.assignment)
        .map(|((k, _), &c)| (k.clone(), rank_of[c] + 1))
        .collect();

    Clustering {
        first_nybble,
        k,
        sse_curve: curve,
        clusters,
        assignment,
    }
}

/// Render the cluster table the way Fig 2 reads: one row per cluster,
/// popularity and per-nybble median entropy (sparkline-style digits,
/// 0–9 for entropy 0.0–0.9+).
pub fn render_clusters<K>(c: &Clustering<K>) -> String {
    let mut out = String::new();
    let last = c.first_nybble + c.clusters.first().map_or(0, |x| x.median_entropy.len()) - 1;
    out.push_str(&format!(
        "cluster | share  | nybbles {:>2}..{:<2} (entropy 0-9 per nybble)\n",
        c.first_nybble, last
    ));
    for cl in &c.clusters {
        let spark: String = cl
            .median_entropy
            .iter()
            .map(|h| {
                let d = (h * 10.0).floor().clamp(0.0, 9.0) as u8;
                char::from(b'0' + d)
            })
            .collect();
        out.push_str(&format!(
            "{:>7} | {:>5.1}% | {}\n",
            cl.id,
            cl.popularity * 100.0,
            spark
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_addr::u128_to_addr;
    use std::net::Ipv6Addr;

    /// Build synthetic networks with two clearly distinct schemes.
    fn two_scheme_groups() -> Vec<(u32, Fingerprint)> {
        let mut groups = Vec::new();
        for g in 0..30u32 {
            let base = (0x2001_0000u128 + u128::from(g)) << 96;
            let addrs: Vec<Ipv6Addr> = if g % 2 == 0 {
                // Counters: low entropy.
                (1..=120u128).map(|i| u128_to_addr(base | i)).collect()
            } else {
                // Pseudo-random IIDs: high entropy.
                (1..=120u64)
                    .map(|i| {
                        u128_to_addr(
                            base | u128::from(expanse_addr::fanout::splitmix64(
                                u64::from(g) * 1000 + i,
                            )),
                        )
                    })
                    .collect()
            };
            groups.push((g, Fingerprint::full(&addrs)));
        }
        groups
    }

    #[test]
    fn separates_two_schemes() {
        let groups = two_scheme_groups();
        let c = cluster_networks(&groups, 8, Some(2), 11);
        assert_eq!(c.clusters.len(), 2);
        // Every even key in one cluster, odd in the other.
        let even_cluster: std::collections::BTreeSet<usize> = c
            .assignment
            .iter()
            .filter(|(k, _)| k % 2 == 0)
            .map(|(_, c)| *c)
            .collect();
        assert_eq!(even_cluster.len(), 1);
        let odd_cluster: std::collections::BTreeSet<usize> = c
            .assignment
            .iter()
            .filter(|(k, _)| k % 2 == 1)
            .map(|(_, c)| *c)
            .collect();
        assert_eq!(odd_cluster.len(), 1);
        assert_ne!(even_cluster, odd_cluster);
    }

    #[test]
    fn elbow_choice_reasonable() {
        let groups = two_scheme_groups();
        let c = cluster_networks(&groups, 8, None, 11);
        assert!((2..=4).contains(&c.k), "k={}", c.k);
        assert_eq!(c.sse_curve.len(), 8);
    }

    #[test]
    fn popularity_sums_to_one() {
        let groups = two_scheme_groups();
        let c = cluster_networks(&groups, 6, Some(3), 1);
        let total: f64 = c.clusters.iter().map(|x| x.popularity).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Ordered by popularity.
        for w in c.clusters.windows(2) {
            assert!(w[0].members >= w[1].members);
        }
        // Ids are 1-based consecutive.
        let ids: Vec<usize> = c.clusters.iter().map(|x| x.id).collect();
        assert_eq!(ids, (1..=c.clusters.len()).collect::<Vec<_>>());
    }

    #[test]
    fn median_entropy_shapes() {
        let groups = two_scheme_groups();
        let c = cluster_networks(&groups, 6, Some(2), 11);
        // One cluster low entropy everywhere-but-tail, the other high in
        // the IID half.
        let lows: Vec<f64> = c.clusters[0]
            .median_entropy
            .iter()
            .chain(c.clusters[1].median_entropy.iter())
            .copied()
            .collect();
        assert!(lows.iter().any(|&h| h < 0.1));
        assert!(lows.iter().any(|&h| h > 0.9));
    }

    #[test]
    fn render_contains_rows() {
        let groups = two_scheme_groups();
        let c = cluster_networks(&groups, 6, Some(2), 11);
        let s = render_clusters(&c);
        assert!(s.contains("cluster"), "{s}");
        assert_eq!(s.lines().count(), 3, "{s}");
    }
}
