//! Autonomous systems and organization categories.

use std::fmt;

/// An AS number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Coarse organization category; drives addressing scheme mix, host kinds,
/// firewall policy, and which sources see the AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsCategory {
    /// Content delivery networks (Amazon/Cloudflare/Incapsula-likes):
    /// dominate DNS-derived sources, home of the aliased /48 "hook".
    Cdn,
    /// Hosting / cloud providers (Hetzner/OVH-likes): dense server pools,
    /// counter-style addressing.
    Hoster,
    /// Eyeball ISPs (Comcast/DTAG-likes): CPE routers, SLAAC clients.
    IspEyeball,
    /// Transit / backbone networks: core routers seen by RIPE Atlas.
    Transit,
    /// Universities / NRENs: structured addressing, moderate populations.
    Academic,
    /// Everything else: small enterprise networks.
    Enterprise,
}

impl AsCategory {
    /// All categories.
    pub const ALL: [AsCategory; 6] = [
        AsCategory::Cdn,
        AsCategory::Hoster,
        AsCategory::IspEyeball,
        AsCategory::Transit,
        AsCategory::Academic,
        AsCategory::Enterprise,
    ];

    /// Share of ASes in each category (sums to 1). CDNs are few but huge;
    /// enterprises are many but tiny — mirroring the concentration the
    /// paper reports per source (Table 2).
    pub(crate) fn population_share(self) -> f64 {
        match self {
            AsCategory::Cdn => 0.01,
            AsCategory::Hoster => 0.15,
            AsCategory::IspEyeball => 0.25,
            AsCategory::Transit => 0.09,
            AsCategory::Academic => 0.10,
            AsCategory::Enterprise => 0.40,
        }
    }

    /// Short tag for synthetic org names.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            AsCategory::Cdn => "cdn",
            AsCategory::Hoster => "host",
            AsCategory::IspEyeball => "isp",
            AsCategory::Transit => "transit",
            AsCategory::Academic => "edu",
            AsCategory::Enterprise => "corp",
        }
    }
}

/// One autonomous system in the model.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// Origin AS number.
    pub asn: Asn,
    /// Synthetic organization name.
    pub name: String,
    /// Organization category.
    pub category: AsCategory,
}

impl AsInfo {
    /// Create a new instance.
    pub(crate) fn new(asn: Asn, category: AsCategory, ordinal: usize) -> Self {
        AsInfo {
            asn,
            name: format!("{}-{:04}", category.tag(), ordinal),
            category,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let total: f64 = AsCategory::ALL.iter().map(|c| c.population_share()).sum();
        assert!((total - 1.0).abs() < 1e-12, "total={total}");
    }

    #[test]
    fn display_and_names() {
        assert_eq!(Asn(64500).to_string(), "AS64500");
        let info = AsInfo::new(Asn(1), AsCategory::Cdn, 3);
        assert_eq!(info.name, "cdn-0003");
    }

    #[test]
    fn categories_distinct() {
        let mut tags: Vec<&str> = AsCategory::ALL.iter().map(|c| c.tag()).collect();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), 6);
    }
}
