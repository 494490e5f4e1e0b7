//! Aliased regions: address ranges fully bound to one machine.
//!
//! §5 of the paper: *"a single machine responding to all addresses in a
//! possibly large prefix"* (IP_FREEBIND-style full-prefix binds, as CDNs
//! deploy). The model keeps a trie of aliased regions; the engine answers
//! any address inside one from the region's machine, except in *carve-out*
//! branches (§5.1's /116 case, where the `0x0` branch is handled by a
//! different system and stays silent).

use crate::fingerprint::MachineId;
use expanse_addr::{nybbles::nybble, Prefix};
use expanse_packet::ProtoSet;
use expanse_trie::PrefixTrie;
use std::net::Ipv6Addr;

/// One aliased region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliasRegion {
    /// The machine every contained address terminates at.
    pub machine: MachineId,
    /// Protocols the machine answers.
    pub protos: ProtoSet,
    /// If set, the 4-bit branch at `prefix.len()` with this value is NOT
    /// aliased (carved out) and stays silent.
    pub carve_branch: Option<u8>,
}

/// The alias table: regions keyed by prefix, longest-prefix matched.
#[derive(Debug, Clone, Default)]
pub struct AliasTable {
    trie: PrefixTrie<AliasRegion>,
}

impl AliasTable {
    /// Create a new instance.
    pub fn new() -> Self {
        AliasTable {
            trie: PrefixTrie::new(),
        }
    }

    /// Register a region.
    pub fn insert(&mut self, prefix: Prefix, region: AliasRegion) {
        self.trie.insert(prefix, region);
    }

    /// The aliased region responsible for `addr`, if any. Honours
    /// carve-outs: an address in a region's carved branch resolves to
    /// `None` unless a more specific region covers it.
    pub fn resolve(&self, addr: Ipv6Addr) -> Option<(Prefix, AliasRegion)> {
        // Covering regions arrive shortest first: the last one that does
        // not carve `addr` out is the most specific region serving it.
        let mut serving = None;
        for (p, r) in self.trie.matches(addr) {
            let carved = r.carve_branch.is_some_and(|branch| {
                p.len() <= 124
                    && p.len() % 4 == 0
                    && nybble(addr, usize::from(p.len()) / 4) == branch
            });
            if !carved {
                serving = Some((p, *r));
            }
        }
        serving
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// All region prefixes.
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.trie.prefixes()
    }

    /// Iterate regions.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &AliasRegion)> + '_ {
        self.trie.iter()
    }

    /// Ground truth check used by experiment validation: is `p` (exactly)
    /// a registered aliased region?
    pub fn contains_region(&self, p: Prefix) -> bool {
        self.trie.get(p).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_packet::Protocol;

    fn region(m: u32) -> AliasRegion {
        AliasRegion {
            machine: MachineId(m),
            protos: ProtoSet::only(Protocol::Icmp).with(Protocol::Tcp80),
            carve_branch: None,
        }
    }

    #[test]
    fn resolve_hits_inside_region() {
        let mut t = AliasTable::new();
        t.insert("2001:db8:47::/48".parse().unwrap(), region(1));
        let (p, r) = t
            .resolve("2001:db8:47:abcd::1234".parse().unwrap())
            .unwrap();
        assert_eq!(p.len(), 48);
        assert_eq!(r.machine, MachineId(1));
        assert!(t.resolve("2001:db8:48::1".parse().unwrap()).is_none());
    }

    #[test]
    fn more_specific_region_wins() {
        let mut t = AliasTable::new();
        t.insert("2001:db8::/32".parse().unwrap(), region(1));
        t.insert("2001:db8:1::/48".parse().unwrap(), region(2));
        let (_, r) = t.resolve("2001:db8:1::9".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(2));
        let (_, r) = t.resolve("2001:db8:2::9".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(1));
    }

    #[test]
    fn carve_branch_is_silent() {
        let mut t = AliasTable::new();
        let p: Prefix = "2001:db8:0:1::/116".parse().unwrap();
        t.insert(
            p,
            AliasRegion {
                carve_branch: Some(0),
                ..region(3)
            },
        );
        // Branch 0x0 of the /116 (nybble index 29) is carved out.
        assert!(t.resolve("2001:db8:0:1::0042".parse().unwrap()).is_none());
        // Branch 0x5 answers.
        assert!(t.resolve("2001:db8:0:1::0542".parse().unwrap()).is_some());
    }

    #[test]
    fn carve_can_be_overridden_by_more_specific() {
        let mut t = AliasTable::new();
        let p64: Prefix = "2001:db8:1:2::/64".parse().unwrap();
        t.insert(
            p64,
            AliasRegion {
                carve_branch: Some(0xf),
                ..region(1)
            },
        );
        // A more specific region inside the carved branch still serves.
        t.insert("2001:db8:1:2:f000::/68".parse().unwrap(), region(9));
        let (_, r) = t.resolve("2001:db8:1:2:f000::1".parse().unwrap()).unwrap();
        assert_eq!(r.machine, MachineId(9));
        // Elsewhere in the carve (no specific region) stays silent — the
        // /68 above covers the whole branch though, so pick another test
        // point outside p64 entirely.
        assert!(t.resolve("2001:db8:1:3::1".parse().unwrap()).is_none());
    }

    #[test]
    fn ground_truth_membership() {
        let mut t = AliasTable::new();
        let p: Prefix = "2001:db8:47::/48".parse().unwrap();
        t.insert(p, region(1));
        assert!(t.contains_region(p));
        assert!(!t.contains_region("2001:db8:47::/52".parse().unwrap()));
        assert_eq!(t.len(), 1);
    }
}
