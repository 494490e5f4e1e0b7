//! Trie node representation: arena slots with path-compressed edges.

/// "No child" marker in [`Node::children`]; also caps the arena at
/// `u32::MAX - 1` nodes.
pub(crate) const NIL: u32 = u32::MAX;

/// Arena slot of the root node, `::/0`. Always present.
pub(crate) const ROOT: u32 = 0;

/// One trie node. It stands for the prefix `bits/len` (host bits zero),
/// whatever its depth in the tree: edges are path-compressed, so a child
/// may be many bits longer than its parent. `children[b]` is the arena
/// slot of the subtree whose bit `len` is `b`.
///
/// Invariant (kept by insert): a node other than the root either
/// stores a value or has both children, so every leaf stores a value
/// and no subtree is empty.
#[derive(Debug, Clone)]
pub(crate) struct Node<V> {
    pub(crate) bits: u128,
    pub(crate) children: [u32; 2],
    pub(crate) len: u8,
    pub(crate) value: Option<V>,
}

impl<V> Node<V> {
    pub(crate) fn new(bits: u128, len: u8, value: Option<V>) -> Self {
        Node {
            bits,
            children: [NIL, NIL],
            len,
            value,
        }
    }

    /// Does this node's prefix cover the `len`-bit prefix `bits`?
    #[inline]
    pub(crate) fn covers(&self, bits: u128, len: u8) -> bool {
        self.len <= len && common_len(self.bits, bits) >= self.len
    }

    /// The arena slot of the child on `key`'s side, or [`NIL`]. Only
    /// meaningful when `self.len < 128`.
    #[inline]
    pub(crate) fn child_toward(&self, key: u128) -> u32 {
        self.children[bit(key, self.len)]
    }
}

/// Extract bit `i` (0 = most significant) from a 128-bit key.
#[inline]
pub(crate) fn bit(key: u128, i: u8) -> usize {
    debug_assert!(i < 128);
    ((key >> (127 - u32::from(i))) & 1) as usize
}

/// Number of leading bits `a` and `b` share (128 when equal).
#[inline]
pub(crate) fn common_len(a: u128, b: u128) -> u8 {
    (a ^ b).leading_zeros() as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_extraction() {
        let k: u128 = 1 << 127; // only the MSB set
        assert_eq!(bit(k, 0), 1);
        assert_eq!(bit(k, 1), 0);
        assert_eq!(bit(1u128, 127), 1);
        assert_eq!(bit(1u128, 126), 0);
    }

    #[test]
    fn covers_compares_only_the_nodes_own_bits() {
        let n: Node<()> = Node::new(0x2001_0db8 << 96, 32, None);
        assert!(n.covers((0x2001_0db8 << 96) | 1, 128));
        assert!(n.covers(0x2001_0db8 << 96, 32));
        assert!(!n.covers(0x2001_0db8 << 96, 31));
        assert!(!n.covers(0x2001_0db9 << 96, 128));
        assert_eq!(common_len(7, 7), 128);
        assert_eq!(common_len(0, 1 << 127), 0);
    }
}
