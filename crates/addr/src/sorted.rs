//! [`SortedView`]: an [`AddrTable`]'s ids in address order, the index
//! for range questions like "every member under `2001:db8::/32`": a
//! prefix's members are one contiguous run of it. The table keeps one
//! as derived state ([`AddrTable::sorted`]); ids never move, so a batch
//! of new rows is sorted on its own and merged in.

use crate::prefix::Prefix;
use crate::table::{AddrId, AddrTable};
use std::ops::Range;

/// A permutation of an [`AddrTable`]'s ids, sorted by address value.
///
/// # Example
///
/// ```
/// use expanse_addr::{AddrTable, Prefix};
/// use std::net::Ipv6Addr;
///
/// let mut table = AddrTable::new();
/// // Interned out of address order on purpose.
/// for s in ["2001:db8:2::1", "2001:db8:1::1", "2001:db9::1"] {
///     table.intern(s.parse().unwrap());
/// }
/// let view = table.sorted();
/// let pfx: Prefix = "2001:db8::/32".parse().unwrap();
/// // Two members fall under the prefix, returned in address order.
/// let hits = &view.as_slice()[view.positions(&table, pfx)];
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
    /// Extend the permutation over every id of `raw` (the table's
    /// address column), `O(n + k log k)` for `k` ids past [`len`]:
    /// those sort on their own, then merge in from the back, so an old
    /// id below every new address is never touched. Addresses are
    /// unique, so the order is total.
    ///
    /// [`len`]: SortedView::len
    pub(crate) fn merge_from(&mut self, raw: &[u128]) {
        let done = self.perm.len();
        let key = |id: &AddrId| raw[id.index()];
        let mut tail: Vec<AddrId> = (done..raw.len()).map(AddrId::from_index).collect();
        tail.sort_unstable_by_key(key);
        self.perm.resize(raw.len(), AddrId::from_index(0));
        let (mut old, mut at) = (done, raw.len());
        while let Some(&new) = tail.last() {
            at -= 1;
            if old > 0 && key(&self.perm[old - 1]) > key(&new) {
                old -= 1;
                self.perm[at] = self.perm[old];
            } else {
                self.perm[at] = new;
                tail.pop();
            }
        }
    }

    /// Number of ids covered.
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

    /// The positions in [`SortedView::as_slice`] of the ids whose
    /// addresses fall under `prefix`: one contiguous run.
    ///
    /// # Panics
    /// Panics if the view belongs to a different table — ids out of
    /// range index past the address column.
    pub fn positions(&self, table: &AddrTable, prefix: Prefix) -> Range<usize> {
        self.positions_from(table, prefix, 0)
    }

    /// [`SortedView::positions`] of a prefix whose run starts at or
    /// after position `from`, found by galloping from there: a walk
    /// over ascending prefixes pays the log of each step, not of the
    /// table.
    ///
    /// # Panics
    /// As [`SortedView::positions`], or if `from` is past
    /// [`SortedView::len`].
    pub fn positions_from(&self, table: &AddrTable, prefix: Prefix, from: usize) -> Range<usize> {
        let hi = crate::addr_to_u128(prefix.last());
        let start = from + gallop(&self.perm[from..], |id| table.bits(id) < prefix.bits());
        start..start + gallop(&self.perm[start..], |id| table.bits(id) <= hi)
    }
}

/// The first index of `ids` that is not `below`, for a `below` that
/// holds on a prefix of `ids`: doubling steps bracket it, then a binary
/// search inside the last step finds it.
fn gallop(ids: &[AddrId], below: impl Fn(AddrId) -> bool) -> usize {
    let (mut done, mut step) = (0, 1);
    while done + step <= ids.len() && below(ids[done + step - 1]) {
        done += step;
        step *= 2;
    }
    let bracket = &ids[done..ids.len().min(done + step)];
    done + bracket.partition_point(|&id| below(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range<'a>(v: &'a SortedView, t: &AddrTable, p: Prefix) -> &'a [AddrId] {
        &v.as_slice()[v.positions(t, p)]
    }

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
        let v = t.sorted();
        assert!(v.is_empty());
        assert!(range(&v, &t, Prefix::DEFAULT).is_empty());
    }

    #[test]
    fn permutation_is_address_sorted() {
        let t = table_of(&[500, 3, 42, 7, u128::MAX, 0]);
        let v = t.sorted();
        let order: Vec<u128> = v.iter().map(|id| t.bits(id)).collect();
        assert_eq!(order, vec![0, 3, 7, 42, 500, u128::MAX]);
        // The default route covers everything.
        assert_eq!(range(&v, &t, Prefix::DEFAULT).len(), t.len());
    }

    #[test]
    fn range_bounds_are_inclusive() {
        // /126 starting at 8 covers exactly 8..=11.
        let t = table_of(&[7, 8, 9, 11, 12]);
        let v = t.sorted();
        let p = Prefix::from_bits(8, 126);
        let hits: Vec<u128> = range(&v, &t, p).iter().map(|&id| t.bits(id)).collect();
        assert_eq!(hits, vec![8, 9, 11]);
        // A prefix with no members yields an empty slice, not a panic.
        assert!(range(&v, &t, Prefix::from_bits(1 << 90, 60)).is_empty());
    }

    #[test]
    fn galloping_finds_the_runs_binary_search_finds() {
        let t = table_of(&(0..300u128).map(|v| v * 3).collect::<Vec<_>>());
        let v = t.sorted();
        let mut from = 0;
        for bits in (0..1000u128).step_by(7) {
            let p = Prefix::from_bits(bits, 124);
            let run = v.positions_from(&t, p, from);
            assert_eq!(run, v.positions(&t, p), "{p:?}");
            from = run.start;
        }
        assert_eq!(
            v.positions_from(&t, Prefix::DEFAULT, t.len()),
            t.len()..t.len()
        );
    }

    #[test]
    fn host_prefix_finds_exactly_one() {
        let t = table_of(&[1, 2, 3]);
        let v = t.sorted();
        let p = Prefix::host(crate::u128_to_addr(2));
        let hits = range(&v, &t, p);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.bits(hits[0]), 2);
    }
}
