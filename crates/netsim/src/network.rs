//! The [`Network`] trait: the seam between probers and the simulated
//! Internet, plus composable wrappers (fault injection, tracing).

use crate::loss::KeyedLoss;
use crate::time::Time;
use expanse_addr::fanout::splitmix64;
use std::net::Ipv6Addr;

/// A frame delivered back to the prober at a virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// When the frame arrives at the prober's interface.
    pub at: Time,
    /// Raw IPv6 datagram bytes.
    pub frame: Vec<u8>,
}

impl Delivery {
    /// Create a new instance.
    pub fn new(at: Time, frame: Vec<u8>) -> Self {
        Delivery { at, frame }
    }
}

/// Anything that behaves like a network attached to the prober's NIC.
///
/// `inject` consumes one outgoing frame at virtual time `now` and returns
/// every response frame the network will ever send for it, already stamped
/// with arrival times (≥ `now`). Determinism contract: identical call
/// sequences produce identical deliveries.
pub trait Network {
    /// Inject one outgoing frame at `now`; returns every response delivery.
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery>;
}

/// A network that can hand out cheap independent snapshots of itself.
///
/// Parallel scan fan-outs run many probe streams against "the same"
/// network at once. Cloning a whole simulated Internet per stream would
/// dominate the scan; most network state is immutable during a scan, so
/// implementors split it: the snapshot borrows the immutable world and
/// owns only the state a scan mutates (token buckets, SYN proxy
/// counters, ...). Snapshots are independent — middlebox state consumed
/// in one is invisible to the others. That buys determinism under any
/// executor, at a modeling cost: real destinations share their
/// middleboxes across concurrent scanners, so per-stream state sees
/// proportionally less probe pressure as streams multiply. Treat the
/// stream count as part of the experiment configuration.
///
/// A single probe stream can also be spread over snapshots without any
/// modeling cost, for the destinations [`SnapshotNetwork::stateful`]
/// clears: their frames meet no state a snapshot owns, so it does not
/// matter which snapshot — or the network itself — answers them.
pub trait SnapshotNetwork: Network {
    /// The per-stream handle; borrows `self` immutably.
    type Snapshot<'a>: Network + Send
    where
        Self: 'a;

    /// Take a snapshot of the current network state.
    fn snapshot(&self) -> Self::Snapshot<'_>;

    /// Can a frame to `dst` read or change state that a snapshot owns?
    ///
    /// Contract: when this returns `false`, injecting a frame addressed
    /// to `dst` at time `t` yields the same deliveries from the network
    /// and from any snapshot of it, however many other frames either
    /// has seen, and mutates neither. Callers may then answer such
    /// frames from any snapshot in any order; frames to stateful
    /// destinations must reach one network in send order. The default
    /// claims nothing (`true`): correct for every implementor, and what
    /// a wrapper whose state is keyed on something other than the
    /// destination has to keep.
    fn stateful(&self, dst: Ipv6Addr) -> bool {
        let _ = dst;
        true
    }
}

impl<N: Network + ?Sized> Network for &mut N {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        (**self).inject(now, frame)
    }
}

impl<N: Network + ?Sized> Network for Box<N> {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        (**self).inject(now, frame)
    }
}

/// Fault injection wrapper: drops and corrupts frames in both directions,
/// keyed deterministically off the frame bytes (smoltcp's `--drop-chance`
/// / `--corrupt-chance` idiom, made reproducible).
#[derive(Debug)]
pub struct FaultInjector<N> {
    inner: N,
    drop: KeyedLoss,
    corrupt: KeyedLoss,
    counter: u64,
}

impl<N: Network> FaultInjector<N> {
    /// Create a new instance.
    pub fn new(inner: N, seed: u64, drop_chance: f64, corrupt_chance: f64) -> Self {
        FaultInjector {
            inner,
            drop: KeyedLoss::new(splitmix64(seed ^ 0xd0d0), drop_chance),
            corrupt: KeyedLoss::new(splitmix64(seed ^ 0xc0c0), corrupt_chance),
            counter: 0,
        }
    }

    fn frame_key(&mut self, frame: &[u8]) -> u64 {
        self.counter += 1;
        let mut h = self.counter;
        for chunk in frame.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            h = splitmix64(h ^ u64::from_le_bytes(b));
        }
        h
    }
}

impl<N: Network> Network for FaultInjector<N> {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        let key = self.frame_key(frame);
        // Outbound drop: the network never sees the frame.
        if self.drop.drops(key) {
            return Vec::new();
        }
        let mut owned;
        let frame = if self.corrupt.drops(key ^ 0x1) {
            owned = frame.to_vec();
            let idx = (splitmix64(key) as usize) % owned.len().max(1);
            let bit = (splitmix64(key ^ 0x2) % 8) as u8;
            if !owned.is_empty() {
                owned[idx] ^= 1 << bit;
            }
            &owned[..]
        } else {
            frame
        };
        let mut out = Vec::new();
        for d in self.inner.inject(now, frame) {
            let rkey = self.frame_key(&d.frame);
            // Inbound drop: the reply is lost on the way back.
            if self.drop.drops(rkey) {
                continue;
            }
            out.push(d);
        }
        out
    }
}

/// Direction of a traced frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Transmitted by the prober.
    Tx,
    /// Received by the prober.
    Rx,
}

/// One traced frame.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Virtual time of the frame.
    pub at: Time,
    /// Direction relative to the prober.
    pub dir: Dir,
    /// Raw frame bytes.
    pub frame: Vec<u8>,
}

/// Tracing wrapper: records every frame crossing the boundary, like the
/// examples' `--pcap` option in smoltcp. Bounded to `cap` entries so a
/// runaway scan cannot eat memory.
#[derive(Debug)]
pub struct TraceRecorder<N> {
    inner: N,
    entries: Vec<TraceEntry>,
    cap: usize,
    dropped: usize,
}

impl<N: Network> TraceRecorder<N> {
    /// Create a new instance.
    pub fn new(inner: N, cap: usize) -> Self {
        TraceRecorder {
            inner,
            entries: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn record(&mut self, at: Time, dir: Dir, frame: &[u8]) {
        if self.entries.len() < self.cap {
            self.entries.push(TraceEntry {
                at,
                dir,
                frame: frame.to_vec(),
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The captured trace.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Frames not recorded because the buffer was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Human-readable dump: one line per frame.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            let dir = match e.dir {
                Dir::Tx => "tx",
                Dir::Rx => "rx",
            };
            match expanse_packet::Datagram::parse_transport(&e.frame) {
                Ok((h, t)) => {
                    let what = match t {
                        expanse_packet::Transport::Icmpv6(m) => {
                            format!("icmpv6 type {}", m.msg_type())
                        }
                        expanse_packet::Transport::Tcp(s) => {
                            format!("tcp {} -> {} [{}]", s.src_port, s.dst_port, s.flags)
                        }
                        expanse_packet::Transport::Udp(u) => {
                            format!("udp {} -> {}", u.src_port, u.dst_port)
                        }
                        expanse_packet::Transport::Other(nh, _) => format!("proto {nh}"),
                    };
                    out.push_str(&format!(
                        "{} {} {} -> {} {}\n",
                        e.at, dir, h.src, h.dst, what
                    ));
                }
                Err(err) => out.push_str(&format!("{} {} <unparseable: {err}>\n", e.at, dir)),
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!("... {} frames not recorded (cap)\n", self.dropped));
        }
        out
    }
}

impl<N: Network> Network for TraceRecorder<N> {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        self.record(now, Dir::Tx, frame);
        let out = self.inner.inject(now, frame);
        for d in &out {
            self.record(d.at, Dir::Rx, &d.frame);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use expanse_packet::{Datagram, Icmpv6Message};

    /// A toy network: echoes every ICMPv6 echo request after 1 ms.
    struct Echoer;

    impl Network for Echoer {
        fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
            let Ok((h, t)) = Datagram::parse_transport(frame) else {
                return Vec::new();
            };
            let expanse_packet::Transport::Icmpv6(Icmpv6Message::EchoRequest {
                ident,
                seq,
                payload,
            }) = t
            else {
                return Vec::new();
            };
            let reply = Datagram::icmpv6(
                h.dst,
                h.src,
                64,
                Icmpv6Message::EchoReply {
                    ident,
                    seq,
                    payload,
                },
            );
            vec![Delivery::new(now + Duration::from_millis(1), reply.emit())]
        }
    }

    fn echo_frame(seq: u16) -> Vec<u8> {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        Datagram::icmpv6(
            src,
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

    #[test]
    fn echoer_replies() {
        let mut net = Echoer;
        let out = net.inject(Time::ZERO, &echo_frame(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, Time::from_millis(1));
    }

    #[test]
    fn fault_injector_zero_rates_transparent() {
        let mut net = FaultInjector::new(Echoer, 1, 0.0, 0.0);
        let out = net.inject(Time::ZERO, &echo_frame(1));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn fault_injector_drops_at_expected_rate() {
        let mut net = FaultInjector::new(Echoer, 99, 0.25, 0.0);
        let n = 10_000;
        let mut delivered = 0;
        for i in 0..n {
            delivered += net.inject(Time::ZERO, &echo_frame(i as u16)).len();
        }
        // Survives outbound (0.75) and inbound (0.75): ~56%.
        let rate = delivered as f64 / n as f64;
        assert!((rate - 0.5625).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn corruption_breaks_checksums() {
        let mut net = FaultInjector::new(Echoer, 5, 0.0, 1.0);
        // Every outbound frame gets one flipped bit. Most flips land in
        // checksum-covered bytes and kill the reply; flips in hop-limit /
        // traffic-class / flow-label (36 of 640 bits here) survive.
        let mut delivered = 0;
        for i in 0..1000 {
            delivered += net.inject(Time::ZERO, &echo_frame(i)).len();
        }
        assert!(delivered < 150, "delivered={delivered}");
        assert!(delivered > 0, "some flips land in non-validated fields");
    }

    #[test]
    fn trace_records_both_directions() {
        let mut net = TraceRecorder::new(Echoer, 100);
        net.inject(Time::ZERO, &echo_frame(7));
        assert_eq!(net.entries().len(), 2);
        assert_eq!(net.entries()[0].dir, Dir::Tx);
        assert_eq!(net.entries()[1].dir, Dir::Rx);
        let dump = net.dump();
        assert!(dump.contains("icmpv6 type 128"), "{dump}");
        assert!(dump.contains("icmpv6 type 129"), "{dump}");
    }

    #[test]
    fn trace_cap_enforced() {
        let mut net = TraceRecorder::new(Echoer, 3);
        for i in 0..5 {
            net.inject(Time::ZERO, &echo_frame(i));
        }
        assert_eq!(net.entries().len(), 3);
        assert_eq!(net.dropped(), 7);
        assert!(net.dump().contains("not recorded"));
    }
}
