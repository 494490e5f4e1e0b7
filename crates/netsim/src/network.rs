//! The [`Network`] trait: the seam between probers and the simulated
//! Internet.

use crate::time::Time;
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
