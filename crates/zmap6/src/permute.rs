//! Pseudorandom target permutation.
//!
//! ZMap walks targets in a pseudorandom order so that probe load spreads
//! across networks instead of hammering one prefix sequentially (and so
//! that scans are stateless: position i of the permutation is computable
//! without storing per-target state). ZMap uses a multiplicative cyclic
//! group mod p; we use the other standard construction — a four-round
//! Feistel network over the index space with cycle-walking — which gives
//! the same properties (full permutation, O(1) per step, keyed) without
//! needing primality searches.

use expanse_addr::fanout::splitmix64;

/// A keyed permutation over `0..n`.
#[derive(Debug, Clone, Copy)]
pub struct Permutation {
    n: u64,
    /// Feistel domain: smallest even-bit-width power of two ≥ n.
    half_bits: u32,
    keys: [u64; 4],
}

impl Permutation {
    /// Build a permutation over `0..n` keyed by `seed`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty permutation domain");
        // Width in bits, rounded up to even so it splits into two halves.
        let bits = (64 - n.leading_zeros()).max(2);
        let bits = bits + (bits & 1);
        Permutation {
            n,
            half_bits: bits / 2,
            keys: [
                splitmix64(seed ^ 0xf157_0001),
                splitmix64(seed ^ 0xf157_0002),
                splitmix64(seed ^ 0xf157_0003),
                splitmix64(seed ^ 0xf157_0004),
            ],
        }
    }

    #[inline]
    fn feistel(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut l = x >> self.half_bits;
        let mut r = x & mask;
        for k in self.keys {
            let f = splitmix64(r ^ k) & mask;
            let nl = r;
            r = l ^ f;
            l = nl;
        }
        (l << self.half_bits) | r
    }

    /// The element at position `i` of the permutation (cycle-walking:
    /// re-encrypt until the value lands inside the domain).
    ///
    /// # Panics
    /// Panics if `i >= n`.
    pub fn at(&self, i: u64) -> u64 {
        assert!(i < self.n, "position {i} out of domain {}", self.n);
        let mut x = self.feistel(i);
        while x >= self.n {
            x = self.feistel(x);
        }
        x
    }

    /// How many positions shard `shard` of `total` holds (round-robin
    /// split, zmap's `--shards` / `--shard`): positions `shard, shard +
    /// total, …` below `n`.
    ///
    /// # Panics
    /// Panics if `shard >= total` or `total == 0`.
    pub(crate) fn shard_len(&self, shard: u64, total: u64) -> u64 {
        assert!(total > 0 && shard < total, "bad shard {shard}/{total}");
        self.n.saturating_sub(shard).div_ceil(total)
    }

    /// The elements at the shard's positions `ks` (its `k`-th position
    /// is `shard + k·total`): a stride, so a shard of a 40-cell battery
    /// grid walks n/40 positions, not all n, and a range of them starts
    /// where it starts.
    ///
    /// # Panics
    /// Panics if `shard >= total`, `total == 0` or `ks` runs past
    /// [`Permutation::shard_len`].
    pub(crate) fn shard(
        &self,
        shard: u64,
        total: u64,
        ks: std::ops::Range<u64>,
    ) -> impl Iterator<Item = u64> + '_ {
        assert!(
            ks.end <= self.shard_len(shard, total),
            "positions past the shard"
        );
        ks.map(move |k| self.at(shard + k * total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn iter(p: &Permutation) -> impl Iterator<Item = u64> + '_ {
        (0..p.n).map(move |i| p.at(i))
    }

    #[test]
    fn is_a_permutation() {
        for n in [1u64, 2, 7, 16, 100, 1000, 4097] {
            let p = Permutation::new(n, 42);
            let seen: BTreeSet<u64> = iter(&p).collect();
            assert_eq!(seen.len() as u64, n, "n={n}");
            assert!(seen.iter().all(|&x| x < n), "n={n}");
        }
    }

    #[test]
    fn keyed() {
        let a: Vec<u64> = iter(&Permutation::new(1000, 1)).collect();
        let b: Vec<u64> = iter(&Permutation::new(1000, 2)).collect();
        assert_ne!(a, b);
        let c: Vec<u64> = iter(&Permutation::new(1000, 1)).collect();
        assert_eq!(a, c);
    }

    #[test]
    fn looks_shuffled() {
        // Consecutive outputs should not be consecutive integers.
        let p = Permutation::new(10_000, 7);
        let out: Vec<u64> = iter(&p).take(100).collect();
        let consecutive = out
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || w[0] == w[1] + 1)
            .count();
        assert!(consecutive < 5, "too sequential: {consecutive}");
    }

    #[test]
    fn shards_partition_the_domain() {
        let p = Permutation::new(997, 3);
        let mut all: Vec<u64> = Vec::new();
        for s in 0..4 {
            all.extend(p.shard(s, 4, 0..p.shard_len(s, 4)));
        }
        all.sort_unstable();
        let want: Vec<u64> = (0..997).collect();
        assert_eq!(all, want);
    }

    #[test]
    fn shard_is_the_positions_congruent_to_it() {
        // The stride walk against the definition it replaced.
        for (n, total) in [(1u64, 1u64), (10, 3), (997, 4), (40, 40), (5, 8), (64, 7)] {
            let p = Permutation::new(n, 11);
            for shard in 0..total {
                let len = p.shard_len(shard, total);
                let got: Vec<u64> = p.shard(shard, total, 0..len).collect();
                let want: Vec<u64> = (0..n)
                    .filter(|i| i % total == shard)
                    .map(|i| p.at(i))
                    .collect();
                assert_eq!(got, want, "n={n} shard={shard}/{total}");
                // A range of positions is that slice of the walk.
                let tail: Vec<u64> = p.shard(shard, total, len.min(1)..len).collect();
                assert_eq!(
                    tail,
                    want[want.len().min(1)..],
                    "n={n} shard={shard}/{total}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty permutation")]
    fn zero_domain_panics() {
        Permutation::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_domain_panics() {
        Permutation::new(10, 0).at(10);
    }
}
