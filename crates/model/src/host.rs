//! Host profiles: the live population of the synthetic Internet.

use crate::fingerprint::MachineId;
use crate::ids::Asn;
use expanse_packet::ProtoSet;

/// What a live address is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostKind {
    /// HTTP(S) web server, possibly QUIC-enabled.
    WebServer,
    /// Authoritative/recursive DNS server.
    DnsServer,
    /// Server speaking several services.
    MixedServer,
    /// Backbone/transit router (RIPE-Atlas-visible).
    CoreRouter,
    /// Customer-premises router (the scamper population).
    CpeRouter,
    /// End-user client (Bitnodes / crowdsourcing).
    Client,
}

/// Longitudinal stability class (Fig 8 of the paper: servers decay by a
/// few percent over 14 days, CPE routers lose 32 %, clients churn fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StabilityClass {
    /// Never goes away (anchors, e.g. RIPE-Atlas-like probes).
    Permanent,
    /// Server-grade stability.
    Server,
    /// CPE-grade churn.
    Cpe,
    /// Client-grade churn (plus privacy-extension address cycling).
    Client,
}

/// One live address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostProfile {
    /// Origin AS number.
    pub asn: Asn,
    /// What kind of host this address is.
    pub kind: HostKind,
    /// Protocols this address answers (after firewall policy).
    pub protos: ProtoSet,
    /// The machine terminating this address (shared for multi-address
    /// machines).
    pub machine: MachineId,
    /// First probing day this address exists (0 = since before the scan).
    pub spawn_day: u16,
    /// First probing day this address is gone (u16::MAX = never dies).
    pub death_day: u16,
}

impl HostProfile {
    /// Is the address alive on probing day `day`?
    pub(crate) fn online(&self, day: u16) -> bool {
        self.spawn_day <= day && day < self.death_day
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_window() {
        let h = HostProfile {
            asn: Asn(1),
            kind: HostKind::WebServer,
            protos: ProtoSet::ALL,
            machine: MachineId(0),
            spawn_day: 2,
            death_day: 5,
        };
        assert!(!h.online(1));
        assert!(h.online(2));
        assert!(h.online(4));
        assert!(!h.online(5));
    }
}
