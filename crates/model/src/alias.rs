//! Aliased regions: address ranges fully bound to one machine.
//!
//! §5 of the paper: *"a single machine responding to all addresses in a
//! possibly large prefix"* (IP_FREEBIND-style full-prefix binds, as CDNs
//! deploy). The model keeps an ordered map of aliased regions; the
//! engine answers any address inside one from the region's machine,
//! except in *carve-out* branches (§5.1's /116 case, where the `0x0`
//! branch is handled by a different system and stays silent). Which
//! region serves an address is decided once per model, in the fused
//! destination table.

use crate::fingerprint::MachineId;
use expanse_addr::Prefix;
use expanse_packet::ProtoSet;
use std::collections::BTreeMap;

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

impl AliasRegion {
    /// The branch this region at `p` carves out, as the sub-prefix one
    /// nybble longer — if the carve applies (nybble-aligned and at most
    /// /124).
    pub(crate) fn carved(&self, p: Prefix) -> Option<Prefix> {
        let branch = self.carve_branch.filter(|&b| b < 16)?;
        (p.len() <= 124 && p.len().is_multiple_of(4)).then(|| p.subprefix(4, u128::from(branch)))
    }
}

/// The alias regions keyed by prefix, in [`Prefix`] order. The fused
/// destination table reads them to decide which region serves each
/// address; ground truth asks it through `InternetModel::truth_aliased`.
#[derive(Debug, Clone, Default)]
pub struct AliasTable {
    regions: BTreeMap<Prefix, AliasRegion>,
}

impl AliasTable {
    /// The table of `regions`; a later region at a prefix replaces an
    /// earlier one.
    pub(crate) fn new(regions: impl IntoIterator<Item = (Prefix, AliasRegion)>) -> Self {
        AliasTable {
            regions: regions.into_iter().collect(),
        }
    }

    /// Add `regions` to the table: a region at a prefix the table holds
    /// replaces the one there.
    pub(crate) fn extend(&mut self, regions: impl IntoIterator<Item = (Prefix, AliasRegion)>) {
        self.regions.extend(regions);
    }

    /// Iterate regions in [`Prefix`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &AliasRegion)> + '_ {
        self.regions.iter().map(|(p, r)| (*p, r))
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
    fn a_later_region_replaces_an_earlier_one() {
        let p: Prefix = "2001:db8:47::/48".parse().unwrap();
        let mut t = AliasTable::new([(p, region(1))]);
        assert_eq!(t.iter().count(), 1);
        // A second build phase adds regions; a repeated prefix takes the
        // later region.
        let q: Prefix = "2001:db8:48::/48".parse().unwrap();
        t.extend([(q, region(2)), (p, region(3))]);
        let got: Vec<(Prefix, MachineId)> = t.iter().map(|(p, r)| (p, r.machine)).collect();
        assert_eq!(got, [(p, MachineId(3)), (q, MachineId(2))]);
    }
}
