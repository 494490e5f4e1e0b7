//! The trie proper: insert, get, longest-prefix match.

use crate::iter::{Iter, MatchesIter};
use crate::node::{bit, common_len, Node, NIL, ROOT};
use expanse_addr::prefix::mask;
use expanse_addr::{addr_to_u128, Prefix};
use std::net::Ipv6Addr;

/// A map from IPv6 prefixes to values with longest-prefix-match lookup.
///
/// Nodes live in one `Vec` arena and point at each other by `u32` slot;
/// edges are path-compressed, so a lookup takes one step per *stored
/// branching point* on the key's path, not one per bit.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    /// The arena. Slot [`ROOT`] is `::/0`; nothing is ever removed, so
    /// every slot is live.
    pub(crate) nodes: Vec<Node<V>>,
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new(0, 0, None)],
        }
    }

    #[inline]
    fn node(&self, slot: u32) -> &Node<V> {
        &self.nodes[slot as usize]
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        let slot = u32::try_from(self.nodes.len()).unwrap_or(NIL);
        assert!(slot != NIL, "PrefixTrie arena full");
        self.nodes.push(node);
        slot
    }

    /// Slot of the node for exactly `prefix`, if the tree has one (it
    /// may be a valueless branching point).
    fn find(&self, prefix: Prefix) -> Option<u32> {
        let (bits, len) = (prefix.bits(), prefix.len());
        let mut slot = ROOT;
        loop {
            let n = self.node(slot);
            // `n` covers `prefix`, so equal length means equal prefix.
            if n.len == len {
                return Some(slot);
            }
            slot = n.child_toward(bits);
            if slot == NIL || !self.node(slot).covers(bits, len) {
                return None;
            }
        }
    }

    /// Slot of the node for exactly `prefix`, created (valueless) if
    /// absent: a new leaf, a new node on a compressed edge, or a new
    /// leaf beside a new branching point where the edge diverges.
    fn find_or_create(&mut self, prefix: Prefix) -> u32 {
        let (bits, len) = (prefix.bits(), prefix.len());
        let mut slot = ROOT;
        loop {
            let n = self.node(slot);
            if n.len == len {
                return slot;
            }
            let side = bit(bits, n.len);
            let child = n.children[side];
            if child == NIL {
                let leaf = self.alloc(Node::new(bits, len, None));
                self.nodes[slot as usize].children[side] = leaf;
                return leaf;
            }
            let c = self.node(child);
            let (c_bits, c_len) = (c.bits, c.len);
            let common = common_len(c_bits, bits).min(c_len).min(len);
            if common == c_len {
                slot = child;
                continue;
            }
            // `created` is the node for `prefix`; `top` replaces `child`
            // under `slot`.
            let (top, created) = if common == len {
                // `prefix` sits on the edge above `child`.
                let mut mid = Node::new(bits, len, None);
                mid.children[bit(c_bits, len)] = child;
                let mid = self.alloc(mid);
                (mid, mid)
            } else {
                // The edge diverges: fork at the last shared bit.
                let leaf = self.alloc(Node::new(bits, len, None));
                let mut fork = Node::new(bits & mask(common), common, None);
                fork.children[bit(c_bits, common)] = child;
                fork.children[bit(bits, common)] = leaf;
                (self.alloc(fork), leaf)
            };
            self.nodes[slot as usize].children[side] = top;
            return created;
        }
    }

    /// Insert `prefix -> value`. Returns the previous value if the prefix
    /// was already present.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let slot = self.find_or_create(prefix);
        self.nodes[slot as usize].value.replace(value)
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        self.node(self.find(prefix)?).value.as_ref()
    }

    /// Longest-prefix match: the most specific stored prefix covering
    /// `addr`, with its value.
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Prefix, &V)> {
        let key = addr_to_u128(addr);
        let mut n = self.node(ROOT);
        let mut best = None;
        loop {
            if let Some(v) = n.value.as_ref() {
                best = Some((n, v));
            }
            if n.len == 128 {
                break;
            }
            let child = n.child_toward(key);
            if child == NIL {
                break;
            }
            n = self.node(child);
            if !n.covers(key, 128) {
                break;
            }
        }
        best.map(|(n, v)| (Prefix::from_bits(n.bits, n.len), v))
    }

    /// All stored prefixes covering `addr`, from shortest to longest.
    pub fn matches(&self, addr: Ipv6Addr) -> MatchesIter<'_, V> {
        MatchesIter::new(self, addr)
    }

    /// In-order iteration over `(Prefix, &V)` pairs.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter::new(&self.nodes, ROOT)
    }

    /// Collect all stored prefixes (sorted by address then length).
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.iter().map(|(p, _)| p).collect()
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

impl<'a, V> IntoIterator for &'a PrefixTrie<V> {
    type Item = (Prefix, &'a V);
    type IntoIter = Iter<'a, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.insert(p("2001:db8::/32"), 1), None);
        assert_eq!(t.insert(p("2001:db8::/32"), 2), Some(1));
        assert_eq!(t.iter().count(), 1);
        assert_eq!(t.get(p("2001:db8::/32")), Some(&2));
        assert_eq!(t.get(p("2001:db8::/33")), None);
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("::/0"), "default");
        t.insert(p("2001:db8::/32"), "corp");
        t.insert(p("2001:db8:407::/48"), "lab");
        let (px, v) = t.longest_match(a("2001:db8:407::1")).unwrap();
        assert_eq!(*v, "lab");
        assert_eq!(px, p("2001:db8:407::/48"));
        let (px, v) = t.longest_match(a("2001:db8:1::1")).unwrap();
        assert_eq!(*v, "corp");
        assert_eq!(px, p("2001:db8::/32"));
        let (px, v) = t.longest_match(a("9999::1")).unwrap();
        assert_eq!(*v, "default");
        assert_eq!(px, Prefix::DEFAULT);
    }

    #[test]
    fn lpm_without_default_route() {
        let mut t = PrefixTrie::new();
        t.insert(p("2001:db8::/32"), ());
        assert!(t.longest_match(a("2001:db9::1")).is_none());
    }

    #[test]
    fn host_route_matching() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::host(a("2001:db8::1")), ());
        assert!(t.longest_match(a("2001:db8::1")).is_some());
        assert!(t.longest_match(a("2001:db8::2")).is_none());
    }

    #[test]
    fn default_route_value() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::DEFAULT, "d");
        assert_eq!(t.get(Prefix::DEFAULT), Some(&"d"));
        assert_eq!(t.longest_match(a("::1")).unwrap().1, &"d");
    }

    #[test]
    fn from_iterator_and_prefixes_sorted() {
        let t: PrefixTrie<u8> = [(p("2001:db9::/32"), 1), (p("2001:db8::/32"), 0)]
            .into_iter()
            .collect();
        assert_eq!(t.prefixes(), vec![p("2001:db8::/32"), p("2001:db9::/32")]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random inserts over nesting and diverging prefixes: at most
        /// one fork per stored prefix joins the arena, the root included.
        #[test]
        fn inserts_add_at_most_one_fork_per_prefix(
            picks in proptest::collection::vec(0usize..28, 1..80),
        ) {
            let spine: u128 = 0x2001_0db8_0407_8000_0123_4567_89ab_cdef;
            let lens = [0u8, 1, 2, 3, 16, 31, 32, 33, 48, 64, 96, 126, 127, 128];
            let mut pool: Vec<Prefix> = lens.iter().map(|&l| Prefix::from_bits(spine, l)).collect();
            for &len in &lens[1..] {
                pool.push(Prefix::from_bits(spine ^ (1u128 << (128 - u32::from(len))), len));
            }
            pool.push(p("2a00::/12"));
            let mut t = PrefixTrie::new();
            for pick in picks {
                t.insert(pool[pick % pool.len()], ());
                proptest::prop_assert!(t.nodes.len() <= 2 * t.iter().count() + 1);
            }
        }
    }
}
