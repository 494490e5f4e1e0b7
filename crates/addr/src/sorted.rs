//! [`SortedView`]: a sorted-by-address permutation over an
//! [`AddrTable`].
//!
//! The interned store numbers addresses by *insertion* order — the right
//! order for append-only columns and journal suffixes, but useless for
//! range questions like "every member under `2001:db8::/32`". A
//! [`SortedView`] is the missing index: one `Vec<AddrId>` permutation of
//! the table sorted by the 128-bit address value, built once per
//! immutable snapshot, answering any prefix-range query with two binary
//! searches over the permutation (no per-query scan, no trie build).
//!
//! The view is a *snapshot* index: it covers exactly the first
//! [`SortedView::len`] ids of the table it was built from. Interning
//! more addresses afterwards does not invalidate it (ids never move) —
//! it simply doesn't cover the new tail. The serving layer builds one
//! per published [`epoch`](https://en.wikipedia.org/wiki/Read-copy-update)
//! and never mutates it.

use crate::prefix::Prefix;
use crate::set::AddrSet;
use crate::table::{AddrId, AddrTable};

/// A permutation of an [`AddrTable`]'s ids, sorted by address value.
///
/// # Example
///
/// ```
/// use expanse_addr::{AddrTable, Prefix, SortedView};
/// use std::net::Ipv6Addr;
///
/// let mut table = AddrTable::new();
/// // Interned out of address order on purpose.
/// for s in ["2001:db8:2::1", "2001:db8:1::1", "2001:db9::1"] {
///     table.intern(s.parse().unwrap());
/// }
/// let view = SortedView::build(&table);
/// let pfx: Prefix = "2001:db8::/32".parse().unwrap();
/// // Two members fall under the prefix, returned in address order.
/// let hits: Vec<_> = view.range(&table, pfx).to_vec();
/// assert_eq!(hits.len(), 2);
/// assert_eq!(table.addr(hits[0]), "2001:db8:1::1".parse::<Ipv6Addr>().unwrap());
/// assert_eq!(table.addr(hits[1]), "2001:db8:2::1".parse::<Ipv6Addr>().unwrap());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SortedView {
    /// Ids ordered by ascending address bits.
    perm: Vec<AddrId>,
}

impl SortedView {
    /// Build the permutation for `table`'s current contents.
    ///
    /// Addresses are unique by construction (the table interns), so the
    /// order is total and the build is a single `O(n log n)` sort of
    /// the dense id range keyed by the raw address column.
    pub fn build(table: &AddrTable) -> SortedView {
        SortedView::build_par(table, 1)
    }

    /// [`SortedView::build`] on up to `threads` workers: contiguous id
    /// chunks sort concurrently, then merge k-way. Addresses are unique,
    /// so the sorted order is total and the result is byte-identical to
    /// the serial build for every thread count — this is the parallel
    /// half of `SnapshotView::publish`'s day-end fan-out.
    pub fn build_par(table: &AddrTable, threads: usize) -> SortedView {
        let mut perm: Vec<AddrId> = (0..table.len()).map(AddrId::from_index).collect();
        let raw = table.raw();
        crate::par::par_sort_by_key(&mut perm, threads, |&id| raw[id.index()]);
        SortedView { perm }
    }

    /// Number of ids covered (the table length at build time).
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// All covered ids in ascending *address* order.
    pub fn iter(&self) -> impl Iterator<Item = AddrId> + '_ {
        self.perm.iter().copied()
    }

    /// The whole permutation as a slice (ids in ascending address
    /// order).
    pub fn as_slice(&self) -> &[AddrId] {
        &self.perm
    }

    /// The ids whose addresses fall under `prefix`, in ascending
    /// address order, as a slice of the permutation.
    ///
    /// Two binary searches bound the run: prefixes cover a contiguous
    /// `[first, last]` address interval, and the permutation is sorted
    /// by address, so the members are exactly one contiguous slice.
    ///
    /// # Panics
    /// Panics if the view was built from a different (or since-shrunk)
    /// table — ids out of range index past the address column.
    pub fn range<'a>(&'a self, table: &AddrTable, prefix: Prefix) -> &'a [AddrId] {
        &self.perm[self.positions(table, prefix)]
    }

    /// [`SortedView::range`] as positions into the permutation
    /// ([`SortedView::as_slice`]) — what an index laid out over sorted
    /// positions needs.
    ///
    /// # Panics
    /// As [`SortedView::range`].
    pub fn positions(&self, table: &AddrTable, prefix: Prefix) -> std::ops::Range<usize> {
        let lo = prefix.bits();
        let hi = crate::addr_to_u128(prefix.last());
        let start = self.perm.partition_point(|&id| table.bits(id) < lo);
        let end = self.perm[start..].partition_point(|&id| table.bits(id) <= hi) + start;
        start..end
    }

    /// [`SortedView::range`] as an [`AddrSet`] (sorted by id), ready for
    /// set algebra against live sets, baselines, or other query results.
    pub fn range_set(&self, table: &AddrTable, prefix: Prefix) -> AddrSet {
        AddrSet::from_unsorted(self.range(table, prefix).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_of(bits: &[u128]) -> AddrTable {
        let mut t = AddrTable::new();
        for &v in bits {
            t.intern_u128(v);
        }
        t
    }

    #[test]
    fn empty_table_empty_ranges() {
        let t = AddrTable::new();
        let v = SortedView::build(&t);
        assert!(v.is_empty());
        assert!(v.range(&t, Prefix::DEFAULT).is_empty());
    }

    #[test]
    fn permutation_is_address_sorted() {
        let t = table_of(&[500, 3, 42, 7, u128::MAX, 0]);
        let v = SortedView::build(&t);
        let order: Vec<u128> = v.iter().map(|id| t.bits(id)).collect();
        assert_eq!(order, vec![0, 3, 7, 42, 500, u128::MAX]);
        // The default route covers everything.
        assert_eq!(v.range(&t, Prefix::DEFAULT).len(), t.len());
    }

    #[test]
    fn range_bounds_are_inclusive() {
        // /126 starting at 8 covers exactly 8..=11.
        let t = table_of(&[7, 8, 9, 11, 12]);
        let v = SortedView::build(&t);
        let p = Prefix::from_bits(8, 126);
        let hits: Vec<u128> = v.range(&t, p).iter().map(|&id| t.bits(id)).collect();
        assert_eq!(hits, vec![8, 9, 11]);
        // A prefix with no members yields an empty slice, not a panic.
        assert!(v.range(&t, Prefix::from_bits(1 << 90, 60)).is_empty());
    }

    #[test]
    fn range_set_is_id_sorted() {
        let t = table_of(&[20, 10, 30]);
        let v = SortedView::build(&t);
        let s = v.range_set(&t, Prefix::from_bits(0, 122));
        // Ids 0 (=20) and 1 (=10) both fall under 0/122 (0..=63).
        let ids: Vec<usize> = s.iter().map(AddrId::index).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn host_prefix_finds_exactly_one() {
        let t = table_of(&[1, 2, 3]);
        let v = SortedView::build(&t);
        let p = Prefix::host(crate::u128_to_addr(2));
        let hits = v.range(&t, p);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.bits(hits[0]), 2);
    }
}
