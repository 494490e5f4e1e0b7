//! Counting maps with top-k extraction.
//!
//! Used for the "Top AS1/AS2/AS3" columns of Table 2 and Table 8.

use std::collections::BTreeMap;

/// A frequency counter over ordered keys.
#[derive(Debug, Clone)]
pub struct Counter<K: Ord> {
    counts: BTreeMap<K, u64>,
    total: u64,
}

impl<K: Ord + Clone> Default for Counter<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone> Counter<K> {
    /// An empty counter.
    pub fn new() -> Self {
        Counter {
            counts: BTreeMap::new(),
            total: 0,
        }
    }

    /// Add `n` observations of `key`.
    pub(crate) fn add(&mut self, key: K, n: u64) {
        *self.counts.entry(key).or_insert(0) += n;
        self.total += n;
    }

    /// Add one observation of `key`.
    pub fn push(&mut self, key: K) {
        self.add(key, 1);
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count for one key (0 if unseen).
    pub fn get(&self, key: &K) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// The `k` most frequent keys with their counts, ties broken by key
    /// order for determinism.
    pub fn top(&self, k: usize) -> Vec<(K, u64)> {
        let mut v: Vec<(K, u64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Top-k as `(key, share-of-total)` pairs.
    pub fn top_shares(&self, k: usize) -> Vec<(K, f64)> {
        let t = self.total.max(1) as f64;
        self.top(k)
            .into_iter()
            .map(|(key, c)| (key, c as f64 / t))
            .collect()
    }

    /// All counts in ascending key order, for feeding concentration curves.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.values().copied()
    }

    /// Iterate over `(key, count)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, u64)> + '_ {
        self.counts.iter().map(|(k, &c)| (k, c))
    }
}

impl<K: Ord + Clone> FromIterator<K> for Counter<K> {
    fn from_iter<T: IntoIterator<Item = K>>(iter: T) -> Self {
        let mut c = Counter::new();
        for k in iter {
            c.push(k);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_top() {
        let c: Counter<&str> = ["a", "b", "a", "c", "a", "b"].into_iter().collect();
        assert_eq!(c.total(), 6);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.get(&"a"), 3);
        assert_eq!(c.get(&"zz"), 0);
        assert_eq!(c.top(2), vec![("a", 3), ("b", 2)]);
    }

    #[test]
    fn top_shares_sum() {
        let mut c = Counter::new();
        c.add("x", 90);
        c.add("y", 10);
        let shares = c.top_shares(10);
        assert_eq!(shares[0], ("x", 0.9));
        assert_eq!(shares[1], ("y", 0.1));
    }

    #[test]
    fn deterministic_tie_break() {
        let mut c = Counter::new();
        c.add("b", 5);
        c.add("a", 5);
        assert_eq!(c.top(2), vec![("a", 5), ("b", 5)]);
    }

    /// Two counters fed the same keys in different orders walk identically.
    #[test]
    fn iteration_is_key_ordered_across_instances() {
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 7919) % 101).collect();
        let a: Counter<u64> = keys.iter().copied().collect();
        let b: Counter<u64> = keys.iter().rev().copied().collect();
        assert_eq!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(
            a.counts().collect::<Vec<_>>(),
            b.counts().collect::<Vec<_>>()
        );
        assert!(a.iter().map(|(k, _)| *k).is_sorted());
    }

    #[test]
    fn empty_counter() {
        let c: Counter<u32> = Counter::new();
        assert_eq!(c.total(), 0);
        assert!(c.top(3).is_empty());
        assert!(c.top_shares(3).is_empty());
    }
}
