//! ICMPv6 response throttling as a composable [`Network`] wrapper.
//!
//! Real last-hop routers rate-limit the ICMPv6 they originate (RFC 4443
//! §2.4f recommends it), so bursts of probes into a residential /64 see
//! only the first few replies. [`ThrottledNetwork`] models that at the
//! network seam: replies whose *source* falls under a registered router
//! prefix pass through a per-router [`TokenBucket`]; everything else is
//! untouched. It wraps any inner [`Network`] — and it propagates
//! [`SnapshotNetwork`], cloning the bucket state into each snapshot so
//! parallel fan-out streams start from identical budgets and the scan
//! grid stays byte-identical regardless of executor shape.

use crate::network::{Deliveries, Network, SnapshotNetwork};
use crate::ratelimit::TokenBucket;
use crate::time::Time;
use expanse_addr::Prefix;
use expanse_packet::{Datagram, TransportView};
use std::net::Ipv6Addr;

/// Keep each delivery from index `from` on unless it is an ICMPv6 frame
/// sourced from a throttled prefix whose bucket is out of tokens.
fn gate(routers: &mut [(Prefix, TokenBucket)], out: &mut Deliveries, from: usize) {
    out.retain_from(from, |at, frame| {
        let Ok((hdr, TransportView::Icmpv6(_))) = Datagram::parse_transport(frame) else {
            return true;
        };
        for (p, bucket) in routers.iter_mut() {
            if p.contains(hdr.src) {
                return bucket.try_consume(at);
            }
        }
        true
    });
}

/// A wrapper that throttles ICMPv6 responses per router prefix.
#[derive(Debug, Clone)]
pub struct ThrottledNetwork<N> {
    inner: N,
    routers: Vec<(Prefix, TokenBucket)>,
}

impl<N> ThrottledNetwork<N> {
    /// Wrap `inner` with no throttles yet.
    pub fn new(inner: N) -> Self {
        ThrottledNetwork {
            inner,
            routers: Vec::new(),
        }
    }

    /// Throttle ICMPv6 sourced from `prefix` behind a token bucket.
    /// `capacity` and `refill_per_sec` must be positive (the bucket
    /// rejects non-positive parameters).
    pub fn with_router(mut self, prefix: Prefix, capacity: f64, refill_per_sec: f64) -> Self {
        self.routers
            .push((prefix, TokenBucket::new(capacity, refill_per_sec)));
        self
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// The wrapped network, mutably.
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Unwrap, discarding throttle state.
    pub fn into_inner(self) -> N {
        self.inner
    }
}

impl<N: Network> Network for ThrottledNetwork<N> {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        let from = out.len();
        self.inner.inject_into(now, frame, out);
        gate(&mut self.routers, out, from);
    }
}

/// Per-stream view of a [`ThrottledNetwork`]: borrows the inner network's
/// snapshot and owns a copy of the bucket state, so every stream starts
/// from the same budget.
#[derive(Debug)]
pub struct ThrottledSnapshot<'a, N: SnapshotNetwork + 'a> {
    inner: N::Snapshot<'a>,
    routers: Vec<(Prefix, TokenBucket)>,
}

impl<'a, N: SnapshotNetwork + 'a> Network for ThrottledSnapshot<'a, N> {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        let from = out.len();
        self.inner.inject_into(now, frame, out);
        gate(&mut self.routers, out, from);
    }
}

/// Keeps the default `stateful == true` for every destination: the
/// buckets are keyed on a reply's *source*, which the probed address
/// does not determine (an off-path router may answer for it).
impl<N: SnapshotNetwork> SnapshotNetwork for ThrottledNetwork<N> {
    type Snapshot<'a>
        = ThrottledSnapshot<'a, N>
    where
        Self: 'a;
    type Decision = N::Decision;

    fn snapshot(&self) -> ThrottledSnapshot<'_, N> {
        ThrottledSnapshot {
            inner: self.inner.snapshot(),
            routers: self.routers.clone(),
        }
    }

    fn decide(&self, dst: Ipv6Addr) -> N::Decision {
        self.inner.decide(dst)
    }

    /// The inner network answers with the decision; the gate reads
    /// only the replies.
    fn inject_decided(
        snap: &mut ThrottledSnapshot<'_, N>,
        decision: &N::Decision,
        now: Time,
        frame: &[u8],
        out: &mut Deliveries,
    ) {
        let from = out.len();
        N::inject_decided(&mut snap.inner, decision, now, frame, out);
        gate(&mut snap.routers, out, from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use expanse_packet::Icmpv6Message;

    /// Echoes every ICMPv6 echo request after 1 ms; stateless, so it can
    /// trivially hand out snapshots of itself.
    #[derive(Debug, Clone, Copy)]
    struct Echoer;

    impl Network for Echoer {
        fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
            let Ok((
                h,
                TransportView::Icmpv6(Icmpv6Message::EchoRequest {
                    ident,
                    seq,
                    payload,
                }),
            )) = Datagram::parse_transport(frame)
            else {
                return;
            };
            let reply = Datagram::icmpv6(
                h.dst,
                h.src,
                64,
                Icmpv6Message::EchoReply {
                    ident,
                    seq,
                    payload: payload.to_vec(),
                },
            );
            out.push(now + Duration::from_millis(1), &reply.emit());
        }
    }

    impl SnapshotNetwork for Echoer {
        type Snapshot<'a> = Echoer;
        type Decision = ();

        fn snapshot(&self) -> Echoer {
            Echoer
        }

        fn decide(&self, _: Ipv6Addr) {}
    }

    fn vantage() -> Ipv6Addr {
        "2001:db8:ffff::1".parse().unwrap()
    }

    fn echo_to(dst: Ipv6Addr, seq: u16) -> Vec<u8> {
        Datagram::icmpv6(
            vantage(),
            dst,
            64,
            Icmpv6Message::EchoRequest {
                ident: 1,
                seq,
                payload: vec![0; 8],
            },
        )
        .emit()
    }

    fn router64() -> Prefix {
        Prefix::new("2001:db8:1:2::".parse().unwrap(), 64)
    }

    #[test]
    fn burst_is_clipped_to_capacity() {
        let mut net = ThrottledNetwork::new(Echoer).with_router(router64(), 3.0, 0.001);
        let dst = router64().addr_at(1);
        let delivered: usize = (0..10u16)
            .map(|i| {
                net.inject(Time::from_millis(u64::from(i)), &echo_to(dst, i))
                    .len()
            })
            .sum();
        assert_eq!(delivered, 3, "bucket capacity should clip the burst");
    }

    #[test]
    fn unmatched_prefixes_pass_untouched() {
        let mut net = ThrottledNetwork::new(Echoer).with_router(router64(), 1.0, 0.001);
        let other: Ipv6Addr = "2001:db8:9::1".parse().unwrap();
        let delivered: usize = (0..10u16)
            .map(|i| {
                net.inject(Time::from_millis(u64::from(i)), &echo_to(other, i))
                    .len()
            })
            .sum();
        assert_eq!(delivered, 10);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut net = ThrottledNetwork::new(Echoer).with_router(router64(), 1.0, 1.0);
        let dst = router64().addr_at(1);
        assert_eq!(net.inject(Time::ZERO, &echo_to(dst, 0)).len(), 1);
        assert_eq!(net.inject(Time::from_millis(10), &echo_to(dst, 1)).len(), 0);
        // A second later the bucket holds a fresh token.
        assert_eq!(net.inject(Time::from_secs(2), &echo_to(dst, 2)).len(), 1);
    }

    #[test]
    fn every_destination_is_stateful_unless_a_network_says_otherwise() {
        let other: Ipv6Addr = "2001:db8:9::1".parse().unwrap();
        assert!(Echoer.stateful(other), "the trait default claims nothing");
        let net = ThrottledNetwork::new(Echoer).with_router(router64(), 1.0, 1.0);
        assert!(net.stateful(router64().addr_at(1)));
        assert!(net.stateful(other), "throttles key on the reply source");
    }

    #[test]
    fn decided_frames_pass_the_same_gate() {
        let base = ThrottledNetwork::new(Echoer).with_router(router64(), 2.0, 0.001);
        let dst = router64().addr_at(1);
        let (mut plain, mut decided) = (base.snapshot(), base.snapshot());
        let mut out = Deliveries::new();
        for i in 0..5u16 {
            let (at, frame) = (Time::from_millis(u64::from(i)), echo_to(dst, i));
            out.clear();
            ThrottledNetwork::inject_decided(&mut decided, &base.decide(dst), at, &frame, &mut out);
            assert_eq!(out.to_vec(), plain.inject(at, &frame), "probe {i}");
        }
    }

    #[test]
    fn snapshots_start_from_identical_budgets() {
        let base = ThrottledNetwork::new(Echoer).with_router(router64(), 2.0, 0.001);
        let dst = router64().addr_at(1);
        let run = |mut view: ThrottledSnapshot<'_, Echoer>| -> Vec<usize> {
            (0..5u16)
                .map(|i| {
                    view.inject(Time::from_millis(u64::from(i)), &echo_to(dst, i))
                        .len()
                })
                .collect()
        };
        let a = run(base.snapshot());
        let b = run(base.snapshot());
        assert_eq!(a, b, "independent snapshots must behave identically");
        assert_eq!(a.iter().sum::<usize>(), 2);
    }
}
