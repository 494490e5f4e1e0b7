//! The prefix table over IPv6 prefixes.
//!
//! The substrate for every prefix-keyed lookup in the workspace:
//!
//! - the BGP table of the synthetic Internet (`expanse-model`), its
//!   aliased regions and the destination table its engine fuses from
//!   those and its other prefix sets,
//! - the aliased-prefix filter applied by longest-prefix matching (§5.1 of
//!   the paper: *"After the APD probing, we perform longest-prefix matching
//!   to determine whether a specific IPv6 address falls into an aliased
//!   prefix or not"*),
//! - the scanner's blacklist (`expanse-zmap6`) and the served view's
//!   aliased-prefix lookups (`expanse-serve`).
//!
//! Every one of these sets is built whole and then only read, so one
//! frozen form serves them all: a [`RangeTable`] is collected from
//! `(Prefix, value)` pairs, its prefixes cut the address space into
//! sorted ranges, and a longest-prefix match is one binary search. The
//! published aliased-prefix list is aggregated by [`aggregate()`], one
//! sorted sweep.
//!
//! # Example
//!
//! ```
//! use expanse_trie::RangeTable;
//! use expanse_addr::Prefix;
//!
//! let t: RangeTable<&str> = [
//!     ("2001:db8::/32".parse::<Prefix>().unwrap(), "corp"),
//!     ("2001:db8:407::/48".parse().unwrap(), "lab"),
//! ]
//! .into_iter()
//! .collect();
//! let (pfx, v) = t.longest_match("2001:db8:407::1".parse().unwrap()).unwrap();
//! assert_eq!(*v, "lab");
//! assert_eq!(pfx.len(), 48);
//! let (pfx, v) = t.longest_match("2001:db8:408::1".parse().unwrap()).unwrap();
//! assert_eq!((*v, pfx.len()), ("corp", 32));
//! assert!(t.longest_match("2001:db9::1".parse().unwrap()).is_none());
//! ```

mod aggregate;
mod range;

pub use aggregate::aggregate;
pub use range::RangeTable;
