//! The five probed services of the paper (§6: "We send probes on ICMP,
//! TCP/80, TCP/443, UDP/53, and UDP/443 to cover the most common
//! services") as a shared vocabulary type, plus compact protocol sets.

use std::fmt;

/// A probed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMPv6 echo.
    Icmp,
    /// HTTP.
    Tcp80,
    /// HTTPS.
    Tcp443,
    /// DNS.
    Udp53,
    /// QUIC.
    Udp443,
}

impl Protocol {
    /// All five, in the paper's display order.
    pub const ALL: [Protocol; 5] = [
        Protocol::Icmp,
        Protocol::Tcp80,
        Protocol::Tcp443,
        Protocol::Udp53,
        Protocol::Udp443,
    ];

    /// Stable index 0..5 (bit position in [`ProtoSet`]).
    pub fn index(self) -> usize {
        match self {
            Protocol::Icmp => 0,
            Protocol::Tcp80 => 1,
            Protocol::Tcp443 => 2,
            Protocol::Udp53 => 3,
            Protocol::Udp443 => 4,
        }
    }

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Icmp => "ICMP",
            Protocol::Tcp80 => "TCP/80",
            Protocol::Tcp443 => "TCP/443",
            Protocol::Udp53 => "UDP/53",
            Protocol::Udp443 => "UDP/443",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of protocols, packed into one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ProtoSet(pub u8);

impl ProtoSet {
    /// The empty set.
    pub const EMPTY: ProtoSet = ProtoSet(0);
    /// All five protocols.
    pub const ALL: ProtoSet = ProtoSet(0b11111);

    /// Singleton set.
    pub fn only(p: Protocol) -> ProtoSet {
        ProtoSet(1 << p.index())
    }

    /// The checked constructor from a raw bitmask: `None` if any bit
    /// beyond the protocol universe is set. Every decoder of a
    /// persisted or wire-transported protocol byte (the snapshot
    /// codec, the serve protocol) must validate through this one gate,
    /// so widening [`ProtoSet::ALL`] can never silently desynchronize
    /// what different layers accept.
    pub fn from_bits(b: u8) -> Option<ProtoSet> {
        (b & !ProtoSet::ALL.0 == 0).then_some(ProtoSet(b))
    }

    /// Add a protocol.
    #[must_use]
    pub fn with(self, p: Protocol) -> ProtoSet {
        ProtoSet(self.0 | (1 << p.index()))
    }

    /// Membership test.
    pub fn contains(self, p: Protocol) -> bool {
        self.0 & (1 << p.index()) != 0
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of protocols in the set.
    pub fn len(self) -> usize {
        (self.0 & 0b11111).count_ones() as usize
    }

    /// Iterate over members in display order.
    pub fn iter(self) -> impl Iterator<Item = Protocol> {
        Protocol::ALL.into_iter().filter(move |p| self.contains(*p))
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ProtoSet) -> ProtoSet {
        ProtoSet(self.0 | other.0)
    }

    /// Intersection.
    #[must_use]
    pub fn intersect(self, other: ProtoSet) -> ProtoSet {
        ProtoSet(self.0 & other.0)
    }
}

impl FromIterator<Protocol> for ProtoSet {
    fn from_iter<I: IntoIterator<Item = Protocol>>(ps: I) -> ProtoSet {
        let mut s = ProtoSet::EMPTY;
        for p in ps {
            s = s.with(p);
        }
        s
    }
}

impl fmt::Display for ProtoSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_stable_and_distinct() {
        let idx: Vec<usize> = Protocol::ALL.iter().map(|p| p.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn set_operations() {
        let s = ProtoSet::only(Protocol::Icmp).with(Protocol::Udp53);
        assert!(s.contains(Protocol::Icmp));
        assert!(s.contains(Protocol::Udp53));
        assert!(!s.contains(Protocol::Tcp80));
        assert_eq!(s.len(), 2);
        assert_eq!(ProtoSet::ALL.len(), 5);
        assert!(ProtoSet::EMPTY.is_empty());
    }

    #[test]
    fn union_intersect() {
        let a = ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80);
        let b = ProtoSet::only(Protocol::Tcp80).with(Protocol::Tcp443);
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersect(b), ProtoSet::only(Protocol::Tcp80));
    }

    #[test]
    fn iter_order_matches_paper() {
        let all: Vec<Protocol> = ProtoSet::ALL.iter().collect();
        assert_eq!(all, Protocol::ALL.to_vec());
    }

    #[test]
    fn display() {
        let s = ProtoSet::only(Protocol::Icmp).with(Protocol::Udp443);
        assert_eq!(s.to_string(), "ICMP+UDP/443");
        assert_eq!(ProtoSet::EMPTY.to_string(), "∅");
        assert_eq!(Protocol::Tcp80.to_string(), "TCP/80");
    }
}
