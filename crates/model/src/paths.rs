//! Forwarding paths: hop counts and router addresses for traceroute.
//!
//! Scamper (§3 of the paper) contributes 25.9 M router addresses to the
//! hitlist, 90.7 % of them SLAAC `ff:fe` addresses of home routers (ZTE,
//! AVM vendor codes). The model therefore gives every destination prefix
//! a deterministic hop chain: transit routers with low-IID addresses,
//! then — for eyeball networks — a CPE last hop with an EUI-64 address.

use crate::ids::AsCategory;
use expanse_addr::fanout::splitmix64;
use expanse_addr::{u128_to_addr, MacAddr, Prefix};
use std::net::Ipv6Addr;

/// Path model parameters (derived from the master seed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathModel {
    seed: u64,
    /// The /32 transit backbone routers live in.
    transit_net: Prefix,
}

/// CPE vendor OUIs with paper-like concentration (§3: 47.9 % ZTE,
/// 47.7 % AVM, 1.2 % Huawei, long tail).
pub(crate) const CPE_OUIS: [([u8; 3], &str); 3] = [
    ([0x00, 0x1e, 0x73], "ZTE"),
    ([0xbc, 0x05, 0x43], "AVM"),
    ([0x00, 0x25, 0x9e], "Huawei"),
];

impl PathModel {
    /// Create a new instance.
    pub(crate) fn new(seed: u64) -> Self {
        PathModel {
            seed,
            // A dedicated backbone /32 outside allocated space.
            transit_net: Prefix::from_bits(0x2000_0001u128 << 96, 32),
        }
    }

    /// Total forwarding hops from the vantage to `dst` (the destination
    /// answers at hop `len`). Deterministic per destination /48.
    pub(crate) fn path_len(&self, dst: Ipv6Addr, category: AsCategory) -> u8 {
        let key = expanse_addr::addr_to_u128(dst) >> 80; // /48 granularity
        let base = 4 + (splitmix64(key as u64 ^ self.seed) % 4) as u8; // 4..7
        match category {
            // Eyeballs sit one CPE hop deeper.
            AsCategory::IspEyeball => base + 1,
            _ => base,
        }
    }

    /// The router answering with Time Exceeded at hop `hop` (1-based,
    /// `hop < path_len`) on the way to `dst`.
    ///
    /// Hops up to `path_len - 2` are transit backbone routers; the
    /// penultimate hop is an edge router inside the destination AS; for
    /// eyeball destinations the last hop before delivery is the customer
    /// CPE (an EUI-64 address *inside the destination /64's site*).
    pub(crate) fn hop_addr(
        &self,
        dst: Ipv6Addr,
        dst_prefix: Prefix,
        category: AsCategory,
        hop: u8,
    ) -> Ipv6Addr {
        let plen = self.path_len(dst, category);
        debug_assert!(hop >= 1 && hop < plen);
        let dst_bits = expanse_addr::addr_to_u128(dst);
        if hop < plen.saturating_sub(2) {
            // Backbone: one router per (coarse direction, hop). Low IIDs —
            // point-to-point link addressing.
            let direction = (dst_bits >> 104) as u64; // /24 granularity
            let rid = splitmix64(self.seed ^ direction ^ (u64::from(hop) << 32)) % 0xffff;
            let iid = u128::from(rid) << 16 | u128::from(hop);
            u128_to_addr(self.transit_net.bits() | iid)
        } else if hop == plen - 1 && category == AsCategory::IspEyeball {
            // CPE: EUI-64 inside the customer's own /64.
            self.cpe_addr(Prefix::from_bits(dst_bits, 64))
        } else {
            // Edge router of the destination AS: low IID in the announced
            // prefix's first /64.
            let rid = splitmix64(self.seed ^ (dst_prefix.bits() >> 64) as u64 ^ u64::from(hop));
            u128_to_addr(dst_prefix.bits() | u128::from(rid % 250 + 1))
        }
    }
}

impl PathModel {
    /// The CPE router address for a customer /64 — the *same* derivation
    /// the hop model uses, so population building and traceroute agree on
    /// CPE identities.
    pub(crate) fn cpe_addr(&self, customer64: Prefix) -> Ipv6Addr {
        debug_assert_eq!(customer64.len(), 64);
        let key = splitmix64(self.seed ^ (customer64.bits() >> 64) as u64 ^ CPE_KEY);
        let oui = pick_cpe_oui(key);
        let mac = MacAddr::from_oui(oui, (splitmix64(key ^ 1) % (1 << 24)) as u32);
        mac.slaac_addr(customer64.first())
    }
}

/// Pick a CPE vendor OUI with the paper's concentration.
pub(crate) fn pick_cpe_oui(key: u64) -> [u8; 3] {
    match splitmix64(key) % 1000 {
        0..=478 => CPE_OUIS[0].0,
        479..=955 => CPE_OUIS[1].0,
        956..=967 => CPE_OUIS[2].0,
        tail => {
            // Long tail of ~240 other vendors.
            let v = splitmix64(tail ^ key) as u32 % 240;
            [0x40, (v >> 8) as u8, v as u8]
        }
    }
}

/// Domain-separation key for CPE identity derivation.
const CPE_KEY: u64 = 0xc9e5_11fe;

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> PathModel {
        PathModel::new(42)
    }

    #[test]
    fn path_len_in_range_and_deterministic() {
        let dst: Ipv6Addr = "2001:db8:1::5".parse().unwrap();
        for cat in AsCategory::ALL {
            let l = pm().path_len(dst, cat);
            assert_eq!(l, pm().path_len(dst, cat));
            assert!((4..=8).contains(&l), "{cat:?}: {l}");
        }
        assert_eq!(
            pm().path_len(dst, AsCategory::IspEyeball),
            pm().path_len(dst, AsCategory::Hoster) + 1
        );
    }

    #[test]
    fn same_48_same_path() {
        let a: Ipv6Addr = "2001:db8:1::5".parse().unwrap();
        let b: Ipv6Addr = "2001:db8:1:ffff::9".parse().unwrap();
        assert_eq!(
            pm().path_len(a, AsCategory::Hoster),
            pm().path_len(b, AsCategory::Hoster)
        );
    }

    #[test]
    fn eyeball_last_hop_is_cpe_slaac() {
        let dst: Ipv6Addr = "2001:db8:99:1234::abcd".parse().unwrap();
        let pfx: Prefix = "2001:db8::/32".parse().unwrap();
        let cat = AsCategory::IspEyeball;
        let plen = pm().path_len(dst, cat);
        let cpe = pm().hop_addr(dst, pfx, cat, plen - 1);
        assert!(expanse_addr::is_eui64(cpe), "CPE must be EUI-64: {cpe}");
        // CPE lives in the customer's /64.
        assert!(Prefix::new(dst, 64).contains(cpe));
    }

    #[test]
    fn backbone_hops_in_transit_net() {
        let dst: Ipv6Addr = "2001:db8:99::1".parse().unwrap();
        let pfx: Prefix = "2001:db8::/32".parse().unwrap();
        let h1 = pm().hop_addr(dst, pfx, AsCategory::Hoster, 1);
        assert!(pm().transit_net.contains(h1), "{h1}");
        // Deterministic.
        assert_eq!(h1, pm().hop_addr(dst, pfx, AsCategory::Hoster, 1));
    }

    #[test]
    fn edge_hop_in_destination_prefix() {
        let dst: Ipv6Addr = "2001:db8:99::1".parse().unwrap();
        let pfx: Prefix = "2001:db8::/32".parse().unwrap();
        let cat = AsCategory::Hoster;
        let plen = pm().path_len(dst, cat);
        let edge = pm().hop_addr(dst, pfx, cat, plen - 1);
        assert!(pfx.contains(edge), "{edge}");
    }

    #[test]
    fn cpe_oui_concentration() {
        let n = 20_000u64;
        let zte = (0..n).filter(|k| pick_cpe_oui(*k) == CPE_OUIS[0].0).count() as f64 / n as f64;
        assert!((zte - 0.479).abs() < 0.02, "zte={zte}");
        let avm = (0..n).filter(|k| pick_cpe_oui(*k) == CPE_OUIS[1].0).count() as f64 / n as f64;
        assert!((avm - 0.477).abs() < 0.02, "avm={avm}");
    }
}
