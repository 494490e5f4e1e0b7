//! Path-compressed radix trie over IPv6 prefixes.
//!
//! The substrate for every prefix-keyed lookup in the workspace:
//!
//! - the BGP table of the synthetic Internet (`expanse-model`),
//! - the aliased-prefix filter applied by longest-prefix matching (§5.1 of
//!   the paper: *"After the APD probing, we perform longest-prefix matching
//!   to determine whether a specific IPv6 address falls into an aliased
//!   prefix or not"*),
//! - the scanner's blacklist (`expanse-zmap6`), the served view's
//!   aliased-prefix lookups (`expanse-serve`), and the aggregation of
//!   the published aliased-prefix list ([`aggregate()`]).
//!
//! The trie is a path-compressed binary radix trie in a `Vec` arena:
//! each node stores the full `(bits, len)` of the prefix it stands for
//! and the `u32` slots of its two children, so one lookup step is "does
//! the child on the key's side cover the key?" and a walk takes one step
//! per stored branching point on the key's path instead of one pointer
//! chase per bit. Values live only on nodes that correspond to inserted
//! prefixes; the other nodes are forks where two stored prefixes
//! diverge. A trie only grows: there is no removal, so no slot is ever
//! freed.
//!
//! A table that is built once and then only read — the simulated
//! Internet's routing table, its aliased regions, the destination table
//! its engine fuses from those and its other prefix sets — freezes its
//! trie into a [`RangeTable`]: the prefixes cut the address space into
//! sorted ranges, and a longest-prefix match becomes one binary search.
//!
//! # Example
//!
//! ```
//! use expanse_trie::PrefixTrie;
//! use expanse_addr::Prefix;
//!
//! let mut t = PrefixTrie::new();
//! t.insert("2001:db8::/32".parse().unwrap(), "corp");
//! t.insert("2001:db8:407::/48".parse().unwrap(), "lab");
//! let (pfx, v) = t.longest_match("2001:db8:407::1".parse().unwrap()).unwrap();
//! assert_eq!(*v, "lab");
//! assert_eq!(pfx.len(), 48);
//! ```

mod aggregate;
mod iter;
mod node;
mod range;
mod trie;

pub use aggregate::aggregate;
pub use iter::{Iter, MatchesIter};
pub use range::RangeTable;
pub use trie::PrefixTrie;

/// A set of prefixes (trie with unit values) with set-flavoured helpers.
pub type PrefixSet = PrefixTrie<()>;

impl PrefixSet {
    /// Insert a prefix into the set. Returns `true` if newly inserted.
    pub fn add(&mut self, p: expanse_addr::Prefix) -> bool {
        self.insert(p, ()).is_none()
    }

    /// Does any prefix in the set cover `addr`?
    pub fn covers_addr(&self, addr: std::net::Ipv6Addr) -> bool {
        self.longest_match(addr).is_some()
    }
}
