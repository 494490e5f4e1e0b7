//! The interned address store: [`AddrTable`] and [`AddrMap`].
//!
//! The paper's pipeline accumulates addresses indefinitely (§3) and
//! re-walks the full hitlist every day for dedup, APD planning, the
//! probe battery, and longitudinal tracking. At hitlist scale
//! (hundreds of millions of entries in follow-up work), hash-keyed
//! `HashMap<Ipv6Addr, …>` collections become the memory and cache
//! bottleneck: every per-day structure re-hashes 16-byte keys and
//! scatters its values across the heap.
//!
//! [`AddrTable`] interns each unique 128-bit address once and hands out
//! a dense [`AddrId`] (`u32`) handle. Everything above keys its side
//! data by id — parallel columns (`Vec<T>` indexed by `AddrId`) instead
//! of per-crate maps — so daily passes become sequential array walks.
//! The index is a flat open-addressing slot array over a `splitmix64`
//! mix of the address bits: one `u32` per slot, no per-entry heap
//! allocation, ~6 bytes of index overhead per address at the 3/4 load
//! ceiling.
//!
//! Ids are assigned in insertion order and are **never reused or
//! reordered**, so ascending-id iteration is insertion-order iteration
//! and persists across days. Address order is derived state beside it
//! ([`AddrTable::sorted`]), kept by merging each batch of new rows in.

use crate::fanout::splitmix64;
use crate::sorted::SortedView;
use crate::{addr_to_u128, u128_to_addr};
use std::borrow::Cow;
use std::net::Ipv6Addr;

/// Dense handle for one interned address.
///
/// Valid only against the [`AddrTable`] that issued it. Ids are
/// assigned sequentially from 0 in insertion order and never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AddrId(u32);

impl AddrId {
    /// The id as a column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a column index.
    ///
    /// # Panics
    /// Panics if `i` does not fit the handle width.
    #[inline]
    pub fn from_index(i: usize) -> AddrId {
        assert!(i < u32::MAX as usize, "AddrId overflow");
        AddrId(i as u32)
    }
}

/// Empty-slot marker in the index (also caps the table at `u32::MAX - 1`
/// entries).
const EMPTY: u32 = u32::MAX;

/// Interning table: unique `u128` address values, densely numbered.
///
/// # Example
///
/// ```
/// use expanse_addr::AddrTable;
/// use std::net::Ipv6Addr;
///
/// let mut table = AddrTable::new();
/// let a: Ipv6Addr = "2001:db8::1".parse().unwrap();
/// let id = table.intern(a);
/// // Interning is idempotent: the same address keeps its id…
/// assert_eq!(table.intern(a), id);
/// // …ids are dense, insertion-ordered, and resolve back.
/// assert_eq!(id.index(), 0);
/// assert_eq!(table.addr(id), a);
/// assert_eq!(table.lookup(a), Some(id));
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddrTable {
    /// Id → address bits; the primary column.
    addrs: Vec<u128>,
    /// Open-addressing index: slot → id. Power-of-two length.
    slots: Vec<u32>,
    /// The ids up to the last [`AddrTable::merge_order`], in address
    /// order. Derived, never encoded; empty on a table that never
    /// merges.
    order: SortedView,
}

/// One well-mixed 64-bit hash of the 128 address bits.
#[inline]
fn hash128(v: u128) -> u64 {
    splitmix64((v as u64).wrapping_add(splitmix64((v >> 64) as u64)))
}

impl AddrTable {
    /// Create an empty table.
    pub fn new() -> Self {
        AddrTable::default()
    }

    /// Create a table sized for about `n` addresses up front.
    pub fn with_capacity(n: usize) -> Self {
        let mut t = AddrTable {
            addrs: Vec::with_capacity(n),
            ..AddrTable::default()
        };
        t.rebuild_slots(n);
        t
    }

    /// Unique addresses interned.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Intern an address, returning its stable id.
    #[inline]
    pub fn intern(&mut self, a: Ipv6Addr) -> AddrId {
        self.intern_u128(addr_to_u128(a)).0
    }

    /// Intern raw address bits; returns `(id, newly_inserted)`.
    #[inline]
    pub fn intern_u128(&mut self, v: u128) -> (AddrId, bool) {
        // Keep the load factor below 3/4.
        if (self.addrs.len() + 1) * 4 > self.slots.len() * 3 {
            self.rebuild_slots(self.addrs.len() + 1);
        }
        let mask = self.slots.len() - 1;
        let mut at = hash128(v) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                assert!(self.addrs.len() < EMPTY as usize, "AddrTable full");
                let id = self.addrs.len() as u32;
                self.slots[at] = id;
                self.addrs.push(v);
                return (AddrId(id), true);
            }
            if self.addrs[slot as usize] == v {
                return (AddrId(slot), false);
            }
            at = (at + 1) & mask;
        }
    }

    /// The id of an already-interned address, if any.
    #[inline]
    pub fn lookup(&self, a: Ipv6Addr) -> Option<AddrId> {
        self.lookup_u128(addr_to_u128(a))
    }

    /// [`AddrTable::lookup`] on raw bits.
    #[inline]
    pub fn lookup_u128(&self, v: u128) -> Option<AddrId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash128(v) as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == EMPTY {
                return None;
            }
            if self.addrs[slot as usize] == v {
                return Some(AddrId(slot));
            }
            at = (at + 1) & mask;
        }
    }

    /// The address behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this table.
    #[inline]
    pub fn addr(&self, id: AddrId) -> Ipv6Addr {
        u128_to_addr(self.addrs[id.index()])
    }

    /// The raw 128 bits behind an id.
    #[inline]
    pub fn bits(&self, id: AddrId) -> u128 {
        self.addrs[id.index()]
    }

    /// The raw address column, indexed by id. This is the table's
    /// entire persistent state: the probe index is derived, so the
    /// snapshot codec stores only this column and rebuilds the rest.
    #[inline]
    pub fn raw(&self) -> &[u128] {
        &self.addrs
    }

    /// All `(id, address)` pairs in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (AddrId, Ipv6Addr)> + '_ {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &v)| (AddrId(i as u32), u128_to_addr(v)))
    }

    /// Every id in address order. Borrowed when the kept order is
    /// current — a table that merges after each batch of interns
    /// ([`AddrTable::merge_order`]) pays nothing here; otherwise a copy
    /// merged the same way.
    pub fn sorted(&self) -> Cow<'_, SortedView> {
        if self.order.len() == self.addrs.len() {
            Cow::Borrowed(&self.order)
        } else {
            let mut order = self.order.clone();
            order.merge_from(&self.addrs);
            Cow::Owned(order)
        }
    }

    /// The kept order as of the last [`AddrTable::merge_order`]: it
    /// covers the ids interned before that call, all of them until the
    /// next intern. [`AddrTable::sorted`] is the complete order.
    pub fn order(&self) -> &SortedView {
        &self.order
    }

    /// Merge the ids interned since the last call into the kept order,
    /// at `O(n + k log k)` for `k` new ids.
    pub fn merge_order(&mut self) {
        if self.order.len() < self.addrs.len() {
            self.order.merge_from(&self.addrs);
        }
    }

    /// Re-key the slot array for at least `want` entries.
    fn rebuild_slots(&mut self, want: usize) {
        let cap = (want * 4 / 3 + 1).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        let mask = cap - 1;
        for (i, &v) in self.addrs.iter().enumerate() {
            let mut at = hash128(v) as usize & mask;
            while self.slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = i as u32;
        }
    }
}

/// A columnar map from addresses to values, backed by its own interner:
/// the model's host table, built once and then looked up per probe.
/// Values live in one dense column parallel to the intern table, so
/// iteration is a sequential array walk and the per-entry overhead is
/// the table's ~22 bytes instead of a hash-map node.
///
/// Insertion order is preserved (it is the intern order).
#[derive(Debug, Clone, Default)]
pub struct AddrMap<V> {
    table: AddrTable,
    vals: Vec<V>,
}

impl<V> AddrMap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        AddrMap {
            table: AddrTable::new(),
            vals: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Insert or overwrite the value for `a`; returns `true` when the
    /// address was new.
    #[inline]
    pub fn insert(&mut self, a: Ipv6Addr, v: V) -> bool {
        let (id, new) = self.table.intern_u128(addr_to_u128(a));
        if new {
            self.vals.push(v);
        } else {
            self.vals[id.index()] = v;
        }
        new
    }

    /// The value for `a`, if present.
    #[inline]
    pub fn get(&self, a: Ipv6Addr) -> Option<&V> {
        self.table.lookup(a).map(|id| &self.vals[id.index()])
    }

    /// Membership test.
    pub fn contains(&self, a: Ipv6Addr) -> bool {
        self.table.lookup(a).is_some()
    }

    /// `(address, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv6Addr, &V)> {
        self.table.iter().map(|(id, a)| (a, &self.vals[id.index()]))
    }

    /// Addresses in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.table.iter().map(|(_, a)| a)
    }

    /// Values in insertion order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.vals.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn intern_assigns_dense_ids() {
        let mut t = AddrTable::new();
        let i1 = t.intern(a("2001:db8::1"));
        let i2 = t.intern(a("2001:db8::2"));
        let i1b = t.intern(a("2001:db8::1"));
        assert_eq!(i1, i1b);
        assert_ne!(i1, i2);
        assert_eq!(i1.index(), 0);
        assert_eq!(i2.index(), 1);
        assert_eq!(t.len(), 2);
        assert_eq!(t.addr(i2), a("2001:db8::2"));
        assert_eq!(t.lookup(a("2001:db8::2")), Some(i2));
        assert_eq!(t.lookup(a("2001:db8::3")), None);
    }

    #[test]
    fn survives_resize() {
        let mut t = AddrTable::new();
        let ids: Vec<AddrId> = (0..10_000u128)
            .map(|i| t.intern_u128(i * 7 + 1).0)
            .collect();
        assert_eq!(t.len(), 10_000);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(t.bits(*id), n as u128 * 7 + 1);
            assert_eq!(t.lookup_u128(n as u128 * 7 + 1), Some(*id));
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut t = AddrTable::with_capacity(100);
        for i in 0..100u128 {
            t.intern_u128(i);
        }
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn empty_lookup() {
        let t = AddrTable::new();
        assert_eq!(t.lookup(a("::1")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn map_insert_and_order() {
        let mut m: AddrMap<u32> = AddrMap::new();
        assert!(m.insert(a("::2"), 5));
        assert!(m.insert(a("::1"), 1));
        assert!(!m.insert(a("::2"), 6));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a("::2")), Some(&6));
        assert_eq!(m.get(a("::3")), None);
        // Insertion order preserved.
        let keys: Vec<Ipv6Addr> = m.keys().collect();
        assert_eq!(keys, vec![a("::2"), a("::1")]);
    }
}
