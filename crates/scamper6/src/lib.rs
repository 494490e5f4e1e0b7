//! `expanse-scamper6`: a scamper-style IPv6 traceroute engine.
//!
//! §3 of the paper: *"we run traceroute measurements using scamper on all
//! addresses from other sources, and extract router IP addresses learned
//! from these measurements"* — the Scamper source grows to 25.9 M
//! addresses, mostly home-router CPE. This crate reproduces that path:
//! hop-limited ICMPv6 echo probes (paris-style: stateless validation
//! fields constant per flow), Time-Exceeded collection, path assembly,
//! and router-address harvesting.

use expanse_netsim::{Deliveries, Duration, Network, Time};
use expanse_packet::{icmpv6, proto, Datagram, Icmpv6Message, TransportView};
use expanse_zmap6::Validator;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// Largest hop limit tried.
const MAX_HOPS: u8 = 16;
/// Attempts per hop (scamper default 2).
const ATTEMPTS: u8 = 2;
/// Per-hop reply wait.
const WAIT: Duration = Duration::from_millis(500);

/// Traceroute configuration.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Vantage source address.
    pub src: Ipv6Addr,
    /// Validation secret.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            src: "2001:db8:ffff::1".parse().expect("valid vantage"),
            seed: 0x7ace,
        }
    }
}

/// One traced path.
#[derive(Debug, Clone)]
pub struct TracePath {
    /// The traced destination.
    pub dst: Ipv6Addr,
    /// Router address per hop (index 0 = hop 1); `None` = no answer.
    pub hops: Vec<Option<Ipv6Addr>>,
    /// Did the destination itself answer?
    pub reached: bool,
    /// Probes sent.
    pub probes_sent: u64,
}

impl TracePath {
    /// All router addresses discovered on this path.
    pub(crate) fn routers(&self) -> impl Iterator<Item = Ipv6Addr> + '_ {
        self.hops.iter().flatten().copied()
    }
}

/// The traceroute engine.
pub struct Tracer<N: Network> {
    net: N,
    cfg: TraceConfig,
    clock: Time,
}

impl<N: Network> Tracer<N> {
    /// Create a new instance.
    pub fn new(net: N, cfg: TraceConfig) -> Self {
        Tracer {
            net,
            cfg,
            clock: Time::ZERO,
        }
    }

    /// Trace the path to `dst`.
    pub(crate) fn trace(&mut self, dst: Ipv6Addr) -> TracePath {
        let validator = Validator::new(self.cfg.seed);
        let f = validator.fields(dst);
        let src = self.cfg.src;
        let mut hops: Vec<Option<Ipv6Addr>> = Vec::new();
        let mut reached = false;
        let mut probes_sent = 0u64;
        // One probe buffer, one delivery buffer and one receive order
        // serve every probe of the trace.
        let mut probe: Vec<u8> = Vec::new();
        let mut rx = Deliveries::new();
        let mut due: Vec<(Time, usize)> = Vec::new();

        'hops: for hop in 1..=MAX_HOPS {
            let mut hop_addr = None;
            for attempt in 0..ATTEMPTS {
                probes_sent += 1;
                // paris-style: sequence varies per attempt only.
                let seq = f.seq.wrapping_add(u16::from(attempt));
                Datagram::emit_with(&mut probe, src, dst, proto::ICMPV6, hop, |out| {
                    let echo = icmpv6::types::ECHO_REQUEST;
                    icmpv6::emit_echo(echo, f.ident, seq, b"expanse-trace", src, dst, out);
                });
                rx.clear();
                self.net.inject_into(self.clock, &probe, &mut rx);
                self.clock += WAIT;
                // What a receive queue pops by the end of the wait: the
                // frames due by then, in arrival order, ties in the
                // order they were delivered.
                due.clear();
                due.extend(
                    rx.iter()
                        .enumerate()
                        .filter(|(_, (at, _))| *at <= self.clock)
                        .map(|(i, (at, _))| (at, i)),
                );
                due.sort_unstable();
                for &(_, i) in &due {
                    let Some((_, frame)) = rx.get(i) else {
                        continue;
                    };
                    let Ok((hdr, t)) = Datagram::parse_transport(frame) else {
                        continue;
                    };
                    match t {
                        TransportView::Icmpv6(Icmpv6Message::TimeExceeded { invoking, .. }) => {
                            // Validate: the invoking packet must be ours
                            // to this destination.
                            let Ok(orig) = expanse_packet::Ipv6Header::parse(invoking) else {
                                continue;
                            };
                            if orig.dst == dst && orig.src == src {
                                hop_addr = Some(hdr.src);
                            }
                        }
                        TransportView::Icmpv6(Icmpv6Message::EchoReply { ident, .. })
                            if ident == f.ident && hdr.src == dst =>
                        {
                            hops.push(Some(dst));
                            reached = true;
                            break 'hops;
                        }
                        _ => {}
                    }
                }
                if hop_addr.is_some() {
                    break;
                }
            }
            // Destination reached via TE? (never: TE comes from routers)
            hops.push(hop_addr);
            // Stop early after a long silent run (scamper's gap limit).
            if hops.len() >= 5 && hops.iter().rev().take(5).all(|h| h.is_none()) {
                break;
            }
        }
        TracePath {
            dst,
            hops,
            reached,
            probes_sent,
        }
    }

    /// Trace many targets, harvesting unique router addresses — the
    /// Scamper hitlist source.
    pub fn harvest(&mut self, targets: &[Ipv6Addr]) -> HarvestResult {
        let mut routers: BTreeSet<Ipv6Addr> = BTreeSet::new();
        let mut probes = 0u64;
        for &dst in targets {
            let path = self.trace(dst);
            probes += path.probes_sent;
            for r in path.routers() {
                if r != dst {
                    routers.insert(r);
                }
            }
        }
        HarvestResult {
            routers: routers.into_iter().collect(),
            probes_sent: probes,
        }
    }
}

/// Result of a harvesting run.
#[derive(Debug, Clone)]
pub struct HarvestResult {
    /// Unique router addresses discovered (destinations excluded).
    pub routers: Vec<Ipv6Addr>,
    /// Probes sent.
    pub probes_sent: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_model::{InternetModel, ModelConfig};

    fn tracer() -> Tracer<InternetModel> {
        let model = InternetModel::build(ModelConfig::tiny(33));
        Tracer::new(model, TraceConfig::default())
    }

    #[test]
    fn traces_reach_aliased_targets() {
        let mut t = tracer();
        let p48 = t.net.population().special.cdn_hook_48s[0];
        let dst = expanse_addr::keyed_random_addr(p48, 5);
        let path = t.trace(dst);
        assert!(path.reached, "aliased target should answer: {path:?}");
        assert!(path.hops.len() >= 4, "expected several hops");
        // Intermediate hops are routers, not the target.
        let routers: Vec<Ipv6Addr> = path.routers().filter(|r| *r != dst).collect();
        assert!(!routers.is_empty(), "should discover routers");
    }

    #[test]
    fn eyeball_paths_end_in_cpe() {
        let mut t = tracer();
        // Take an eyeball site address.
        let site = t
            .net
            .population()
            .sites
            .iter()
            .find(|s| s.category == expanse_model::AsCategory::IspEyeball)
            .expect("eyeball site")
            .clone();
        let dst = site.addrs[0];
        let path = t.trace(dst);
        // Whether or not dst answers, the CPE hop should be discoverable.
        let slaac_hops = path
            .routers()
            .filter(|r| expanse_addr::is_eui64(*r))
            .count();
        assert!(
            slaac_hops >= 1 || path.hops.iter().filter(|h| h.is_none()).count() > 2,
            "expected an EUI-64 CPE hop (or heavy hop loss): {path:?}"
        );
    }

    #[test]
    fn unrouted_destination_never_reached() {
        let mut t = tracer();
        let path = t.trace("3fff::1".parse().unwrap());
        assert!(!path.reached);
        assert!(path.routers().count() == 0);
    }

    #[test]
    fn harvest_collects_many_routers() {
        let mut t = tracer();
        let targets: Vec<Ipv6Addr> = t
            .net
            .population()
            .sites
            .iter()
            .filter(|s| s.category == expanse_model::AsCategory::IspEyeball)
            .flat_map(|s| s.addrs.iter().take(8).copied())
            .take(60)
            .collect();
        let h = t.harvest(&targets);
        // Every target was traced: the probes are the traces' sum.
        let mut fresh = tracer();
        let traced: u64 = targets.iter().map(|&d| fresh.trace(d).probes_sent).sum();
        assert_eq!(h.probes_sent, traced);
        assert!(h.routers.len() >= 8, "routers={}", h.routers.len());
        assert!(h.probes_sent > 100);
        // A healthy share of harvested routers are CPE (ff:fe).
        let slaac = h
            .routers
            .iter()
            .filter(|r| expanse_addr::is_eui64(**r))
            .count();
        assert!(
            slaac * 3 >= h.routers.len(),
            "slaac {slaac}/{}",
            h.routers.len()
        );
    }

    #[test]
    fn deterministic() {
        let mut a = tracer();
        let mut b = tracer();
        let dst = a.net.population().sites[0].addrs[0];
        let pa = a.trace(dst);
        let pb = b.trace(dst);
        assert_eq!(pa.hops, pb.hops);
        assert_eq!(pa.reached, pb.reached);
        let targets: Vec<Ipv6Addr> = a.net.population().sites[..20]
            .iter()
            .map(|s| s.addrs[0])
            .collect();
        let (ha, hb) = (a.harvest(&targets), b.harvest(&targets));
        assert!(!ha.routers.is_empty());
        assert_eq!(ha.routers, hb.routers);
    }
}
