//! The [`Network`] trait: the seam between probers and the simulated
//! Internet.

use crate::time::Time;
use std::net::Ipv6Addr;

/// The frames a network sends back, in one reusable buffer: a byte
/// arena plus an `(arrival, range)` entry per frame, in the order the
/// network produced them. It is the one form a reply takes: a prober or
/// a test reads each frame as borrowed bytes with its arrival time
/// ([`Deliveries::get`], [`Deliveries::iter`]).
///
/// [`Deliveries::clear`] keeps both allocations, so a prober that hands
/// the same buffer to every [`Network::inject_into`] of a scan stops
/// allocating once it has held its largest burst: a probe's answer is
/// written straight into the arena, never into a `Vec` of its own.
#[derive(Debug, Clone, Default)]
pub struct Deliveries {
    bytes: Vec<u8>,
    entries: Vec<Entry>,
}

/// One frame of a [`Deliveries`]: when it arrives and where its bytes
/// sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: Time,
    start: usize,
    end: usize,
}

impl Deliveries {
    /// An empty buffer.
    pub fn new() -> Self {
        Deliveries::default()
    }

    /// Drop every frame, keeping the capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.entries.clear();
    }

    /// Does the buffer hold no frame?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Frame `i` with its arrival time.
    #[inline]
    pub fn get(&self, i: usize) -> Option<(Time, &[u8])> {
        let e = self.entries.get(i)?;
        Some((e.at, &self.bytes[e.start..e.end]))
    }

    /// The frames with their arrival times, in the order they were added.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Time, &[u8])> + '_ {
        self.entries
            .iter()
            .map(|e| (e.at, &self.bytes[e.start..e.end]))
    }

    /// Add the frame `emit` appends to the arena, arriving at `at`: a
    /// network answers without building the frame anywhere else. On
    /// `Err` whatever `emit` wrote is taken back and no frame is added.
    pub fn try_push_with<E>(
        &mut self,
        at: Time,
        emit: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<(), E> {
        let start = self.bytes.len();
        if let Err(e) = emit(&mut self.bytes) {
            self.bytes.truncate(start);
            return Err(e);
        }
        let end = self.bytes.len();
        self.entries.push(Entry { at, start, end });
        Ok(())
    }
}

/// Anything that behaves like a network attached to the prober's NIC.
///
/// [`Network::inject_into`] consumes one outgoing frame at virtual time
/// `now` and appends every response frame the network will ever send
/// for it to the caller's [`Deliveries`], already stamped with arrival
/// times (≥ `now`); what the buffer held before is left alone.
///
/// Determinism contract: identical call sequences produce identical
/// deliveries — the same frames, byte for byte, with the same arrival
/// times, in the same order — whichever buffer they are written into
/// and whatever it held before.
pub trait Network {
    /// Inject one outgoing frame at `now`; append every response
    /// delivery to `out`.
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries);
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
/// modeling cost, for the destinations [`SnapshotNetwork::reach`] does
/// not call [`Reach::Stateful`]: their frames meet no state a snapshot
/// owns, so it does not matter which snapshot — or the network itself —
/// answers them.
///
/// # Deciding a destination once
///
/// Much of what a network does with a frame depends only on where the
/// frame goes and on the network's current state, not on the frame: for
/// the simulated Internet, the route, the path length and who answers.
/// A prober that sends several frames to one destination (the battery
/// sends five) can have that part done once: [`SnapshotNetwork::decide`]
/// returns it as a [`SnapshotNetwork::Decision`], and
/// [`SnapshotNetwork::inject_decided`] answers a frame on a snapshot
/// with it. The same decision says how far a frame can reach
/// ([`SnapshotNetwork::reach`]): a prober need not send a frame at all
/// when nothing behind its destination can answer it.
///
/// Contract: `inject_decided(snap, &net.decide(dst), now, frame, out)`
/// appends exactly what `snap.inject_into(now, frame, out)` would, and
/// leaves `snap` in the same state, for every frame. A decision is a
/// hint, never an input: one made for another destination than the
/// frame's, or under state the snapshot no longer shares (another day
/// of the simulated Internet), is ignored and the frame decided afresh,
/// and `reach` reads it as [`Reach::Stateful`], so a wrong hint costs
/// time, not answers.
pub trait SnapshotNetwork: Network {
    /// The per-stream handle; borrows `self` immutably.
    type Snapshot<'a>: Network + Send
    where
        Self: 'a;

    /// Everything about one destination that every frame to it would
    /// otherwise recompute.
    type Decision: Send + Sync;

    /// Take a snapshot of the current network state.
    fn snapshot(&self) -> Self::Snapshot<'_>;

    /// Decide `dst` against the current network state.
    fn decide(&self, dst: Ipv6Addr) -> Self::Decision;

    /// [`Network::inject_into`] on `snap`, with `decision` standing in
    /// for the work it covers when it was made for the frame's
    /// destination (see "Deciding a destination once" above).
    fn inject_decided(
        snap: &mut Self::Snapshot<'_>,
        decision: &Self::Decision,
        now: Time,
        frame: &[u8],
        out: &mut Deliveries,
    );

    /// How far a frame to `dst` with a hop limit of at least `hop_limit`
    /// can reach, read from `decision` (see [`Reach`]). A decision not
    /// made for `dst` on the network's current state reads
    /// [`Reach::Stateful`]: that answer is always correct, only slower.
    fn reach(&self, dst: Ipv6Addr, decision: &Self::Decision, hop_limit: u8) -> Reach;
}

/// How far the frames to one destination can reach into a
/// [`SnapshotNetwork`], from least to most: what a prober may do with
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Nothing answers: injecting such a frame — into the network or
    /// into any snapshot of it, at any time — appends no delivery and
    /// changes neither. A prober may leave it unsent.
    Silent,
    /// Such a frame gets the same deliveries from the network and from
    /// any snapshot of it, however many other frames either has seen,
    /// and mutates neither: a prober may answer it from any snapshot in
    /// any order.
    Stateless,
    /// Such a frame may read or change state a snapshot owns: frames to
    /// it must reach one network in send order.
    Stateful,
}

impl<N: Network + ?Sized> Network for &mut N {
    fn inject_into(&mut self, now: Time, frame: &[u8], out: &mut Deliveries) {
        (**self).inject_into(now, frame, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(d: &mut Deliveries, at: Time, frame: &[u8]) {
        d.try_push_with(at, |out| {
            out.extend_from_slice(frame);
            Ok::<(), ()>(())
        })
        .unwrap();
    }

    #[test]
    fn frames_keep_their_order_times_and_bytes() {
        let mut d = Deliveries::new();
        push(&mut d, Time(5), b"abc");
        push(&mut d, Time(3), b"de");
        push(&mut d, Time(9), b"");
        let got: Vec<(Time, &[u8])> = d.iter().collect();
        assert_eq!(
            got,
            [(Time(5), &b"abc"[..]), (Time(3), b"de"), (Time(9), b"")]
        );
        assert_eq!(d.get(1), Some((Time(3), &b"de"[..])));
        assert_eq!(d.get(3), None);
    }

    #[test]
    fn a_failed_push_leaves_nothing_behind() {
        let mut d = Deliveries::new();
        push(&mut d, Time(1), b"kept");
        let failed = d.try_push_with(Time(2), |out| {
            out.extend_from_slice(b"half a frame");
            Err("no")
        });
        assert_eq!(failed, Err("no"));
        push(&mut d, Time(3), b"next");
        assert_eq!(d.iter().count(), 2);
        assert_eq!(d.bytes, b"keptnext");
    }

    #[test]
    fn clear_keeps_the_capacity() {
        let mut d = Deliveries::new();
        push(&mut d, Time(1), &[7; 100]);
        let (bytes, entries) = (d.bytes.capacity(), d.entries.capacity());
        d.clear();
        assert!(d.is_empty());
        push(&mut d, Time(2), &[8; 100]);
        assert_eq!((d.bytes.capacity(), d.entries.capacity()), (bytes, entries));
    }
}
