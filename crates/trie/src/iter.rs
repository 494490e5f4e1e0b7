//! Trie iterators.

use crate::node::{Node, NIL, ROOT};
use crate::trie::PrefixTrie;
use expanse_addr::{addr_to_u128, Prefix};
use std::net::Ipv6Addr;

/// Depth-first in-order iterator over `(Prefix, &V)`.
///
/// Yields prefixes in `(bits, len)` order: address order, with covering
/// prefixes before their more-specifics.
pub struct Iter<'a, V> {
    nodes: &'a [Node<V>],
    stack: Vec<u32>,
}

impl<'a, V> Iter<'a, V> {
    /// Walk the subtree rooted at arena slot `top`.
    pub(crate) fn new(nodes: &'a [Node<V>], top: u32) -> Self {
        Iter {
            nodes,
            stack: vec![top],
        }
    }
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(slot) = self.stack.pop() {
            let node = &self.nodes[slot as usize];
            // Push children in reverse order so the 0 branch pops first.
            for &child in node.children.iter().rev() {
                if child != NIL {
                    self.stack.push(child);
                }
            }
            if let Some(v) = node.value.as_ref() {
                return Some((Prefix::from_bits(node.bits, node.len), v));
            }
        }
        None
    }
}

/// Iterator over all stored prefixes covering one address, shortest first.
pub struct MatchesIter<'a, V> {
    nodes: &'a [Node<V>],
    /// Next node on the key's path ([`NIL`] when the walk is over); it
    /// always covers the key.
    next: u32,
    key: u128,
}

impl<'a, V> MatchesIter<'a, V> {
    pub(crate) fn new(trie: &'a PrefixTrie<V>, addr: Ipv6Addr) -> Self {
        MatchesIter {
            nodes: &trie.nodes,
            next: ROOT,
            key: addr_to_u128(addr),
        }
    }
}

impl<'a, V> Iterator for MatchesIter<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next != NIL {
            let node = &self.nodes[self.next as usize];
            self.next = NIL;
            if node.len < 128 {
                let child = node.child_toward(self.key);
                if child != NIL && self.nodes[child as usize].covers(self.key, 128) {
                    self.next = child;
                }
            }
            if let Some(v) = node.value.as_ref() {
                return Some((Prefix::from_bits(node.bits, node.len), v));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn iter_order_is_sorted() {
        let mut t = PrefixTrie::new();
        for s in [
            "2001:db8:2::/48",
            "2001:db8::/32",
            "2001:db8:1::/48",
            "::/0",
        ] {
            t.insert(p(s), ());
        }
        let got: Vec<Prefix> = t.iter().map(|(q, _)| q).collect();
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(got, sorted);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], Prefix::DEFAULT);
    }

    #[test]
    fn matches_shortest_first() {
        let mut t = PrefixTrie::new();
        t.insert(p("::/0"), 0u8);
        t.insert(p("2001:db8::/32"), 1);
        t.insert(p("2001:db8:407::/48"), 2);
        t.insert(p("3000::/4"), 9);
        let m: Vec<u8> = t
            .matches("2001:db8:407::1".parse().unwrap())
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(m, vec![0, 1, 2]);
    }

    #[test]
    fn matches_includes_host_route() {
        let mut t = PrefixTrie::new();
        let addr: Ipv6Addr = "2001:db8::1".parse().unwrap();
        t.insert(Prefix::host(addr), "h");
        t.insert(p("2001:db8::/32"), "n");
        let m: Vec<&str> = t.matches(addr).map(|(_, v)| *v).collect();
        assert_eq!(m, vec!["n", "h"]);
    }
}
