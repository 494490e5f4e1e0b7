//! [`AddrSet`]: a sorted-run set of [`AddrId`]s.
//!
//! The hitlist layers pass address *collections* around constantly —
//! the live hitlist, the APD-kept subset, per-source slices, baseline
//! cohorts. As sorted runs of dense ids they cost 4 bytes per member,
//! and because ids are issued in insertion order, ascending-id
//! iteration doubles as insertion-order iteration. Materializing concrete [`Ipv6Addr`]s is
//! deferred to [`AddrSet::addrs`], which resolves against the owning
//! [`AddrTable`] on demand.

use crate::table::{AddrId, AddrTable};
use std::net::Ipv6Addr;

/// A set of interned addresses: strictly increasing run of ids.
///
/// # Example
///
/// ```
/// use expanse_addr::{AddrSet, AddrTable};
/// use std::net::Ipv6Addr;
///
/// let mut table = AddrTable::new();
/// let ids: Vec<_> = ["2001:db8::1", "2001:db8::2", "2001:db8::3"]
///     .iter()
///     .map(|s| table.intern(s.parse().unwrap()))
///     .collect();
///
/// // Members are kept as a sorted, deduplicated id run…
/// let evens: AddrSet = [ids[2], ids[0], ids[2]].into_iter().collect();
/// assert_eq!(evens.len(), 2);
/// // …and resolve to addresses against the owning table.
/// let addrs: Vec<Ipv6Addr> = evens.addrs(&table).collect();
/// assert_eq!(addrs[0], "2001:db8::1".parse::<Ipv6Addr>().unwrap());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrSet {
    ids: Vec<AddrId>,
}

impl AddrSet {
    /// The empty set.
    pub fn new() -> Self {
        AddrSet::default()
    }

    /// Build from an already strictly-increasing id run.
    ///
    /// # Panics
    /// Debug-panics if `ids` is not strictly increasing.
    pub fn from_sorted(ids: Vec<AddrId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not sorted");
        AddrSet { ids }
    }

    /// Build from ids in any order, with duplicates.
    pub(crate) fn from_unsorted(mut ids: Vec<AddrId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        AddrSet { ids }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids as a sorted slice.
    pub fn as_slice(&self) -> &[AddrId] {
        &self.ids
    }

    /// Iterate ids ascending (= table insertion order).
    pub fn iter(&self) -> impl Iterator<Item = AddrId> + '_ {
        self.ids.iter().copied()
    }

    /// Resolve members to concrete addresses against their table, in id
    /// order, on demand.
    pub fn addrs<'a>(&'a self, table: &'a AddrTable) -> impl Iterator<Item = Ipv6Addr> + 'a {
        self.ids.iter().map(|&id| table.addr(id))
    }
}

impl FromIterator<AddrId> for AddrSet {
    fn from_iter<I: IntoIterator<Item = AddrId>>(iter: I) -> Self {
        AddrSet::from_unsorted(iter.into_iter().collect())
    }
}

/// A membership bitmap over ids: the constant-time test a walk in
/// address order ([`AddrTable::sorted`]) asks of an [`AddrSet`]. Bit
/// `i` speaks for id `i`.
#[derive(Debug, Clone, Default)]
pub struct IdBits {
    words: Vec<u64>,
}

impl IdBits {
    /// Set or clear `id`'s bit.
    #[inline]
    pub fn set(&mut self, id: AddrId, on: bool) {
        let (w, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if w >= self.words.len() {
            if !on {
                return;
            }
            self.words.resize(w + 1, 0);
        }
        if on {
            self.words[w] |= bit;
        } else {
            self.words[w] &= !bit;
        }
    }

    /// Is `id`'s bit set?
    #[inline]
    pub fn contains(&self, id: AddrId) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w >> (id.index() % 64) & 1 == 1)
    }
}

impl FromIterator<AddrId> for IdBits {
    fn from_iter<I: IntoIterator<Item = AddrId>>(iter: I) -> Self {
        let mut bits = IdBits::default();
        for id in iter {
            bits.set(id, true);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> AddrSet {
        AddrSet::from_unsorted(ids.iter().map(|&i| AddrId::from_index(i)).collect())
    }

    #[test]
    fn construction_dedups_and_sorts() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        let ids: Vec<usize> = s.iter().map(AddrId::index).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn id_bits_set_clear_and_test_past_the_end() {
        let id = AddrId::from_index;
        let mut b: IdBits = [3, 64, 200].into_iter().map(id).collect();
        assert!(b.contains(id(3)) && b.contains(id(64)) && b.contains(id(200)));
        assert!(!b.contains(id(4)) && !b.contains(id(10_000)));
        b.set(id(64), false);
        b.set(id(10_000), false);
        assert!(!b.contains(id(64)) && !b.contains(id(10_000)));
    }

    #[test]
    fn resolves_against_table() {
        let mut t = AddrTable::new();
        let i1 = t.intern("2001:db8::1".parse().unwrap());
        let i2 = t.intern("2001:db8::2".parse().unwrap());
        let s: AddrSet = [i2, i1].into_iter().collect();
        let addrs: Vec<std::net::Ipv6Addr> = s.addrs(&t).collect();
        assert_eq!(
            addrs,
            vec![
                "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap(),
                "2001:db8::2".parse().unwrap()
            ]
        );
    }
}
