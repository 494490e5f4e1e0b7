//! [`SnapshotRegistry`]: epoch-swapped publication of snapshot views.
//!
//! The serving concurrency model is read-copy-update shaped: queries
//! run against an immutable [`SnapshotView`] behind an `Arc`, and
//! publishing day *N + 1* atomically swaps which view new readers pin
//! — while readers still holding day *N* drain at their own pace on
//! the old `Arc`. The registry's lock is held only for the pointer
//! swap or clone, never across a query, so:
//!
//! - **publish never blocks queries**: a reader that already pinned a
//!   view runs entirely lock-free; the publisher swaps the `Arc` and
//!   returns without waiting for anyone to drain;
//! - **queries never block publish**: pinning is one `Arc` clone under
//!   a read lock;
//! - **epoch pinning**: everything a reader computes from one
//!   [`Pinned`] — every page of a paginated walk included — reflects
//!   exactly that epoch's view, no matter how many publishes happen
//!   in between.
//!
//! These invariants are stated for consumers in `ARCHITECTURE.md` and
//! enforced by `tests/swap_consistency.rs`.
//!
//! Both of the registry's locks are leaves (see the private `sync` module):
//! `publish` clones the observer list out and releases its lock before
//! calling anyone, so an observer may take any lock in the crate,
//! including this registry's own.

use crate::sync::{Lock, RwCell};
use crate::view::SnapshotView;
use std::fmt;
use std::sync::Arc;

/// A publish observer: called with `(retired_epoch, new_epoch)` after
/// every [`SnapshotRegistry::publish`] pointer swap. Observers run
/// *outside* the registry's locks, on the publisher's thread — pinning,
/// publishing and registering from an observer are allowed (the
/// response cache uses one to age out entries whose epoch was retired).
pub(crate) type PublishObserver = Box<dyn Fn(u64, u64) + Send + Sync>;

/// A pinned epoch: the view to query plus the epoch number it was
/// published under (responses echo it, so clients can detect swaps).
#[derive(Debug, Clone)]
pub struct Pinned {
    /// The epoch counter at pin time (starts at 0, +1 per publish).
    pub epoch: u64,
    /// The pinned view. Holding this `Arc` keeps the epoch's state
    /// alive; dropping it lets the old epoch free once the last reader
    /// drains.
    pub view: Arc<SnapshotView>,
}

/// The epoch-swap registry. See the module docs.
pub struct SnapshotRegistry {
    current: RwCell<Pinned>,
    observers: Lock<Vec<Arc<PublishObserver>>>,
}

impl fmt::Debug for SnapshotRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotRegistry")
            .field("epoch", &self.epoch())
            .field("observers", &self.observers.with(|o| o.len()))
            .finish()
    }
}

impl SnapshotRegistry {
    /// Start a registry at epoch 0 with an initial view.
    pub fn new(view: SnapshotView) -> SnapshotRegistry {
        SnapshotRegistry {
            current: RwCell::new(Pinned {
                epoch: 0,
                view: Arc::new(view),
            }),
            observers: Lock::new(Vec::new()),
        }
    }

    /// Register a `PublishObserver`. An observer sees every publish
    /// whose swap happens after it is registered; each is retained for
    /// the registry's lifetime.
    pub fn on_publish(&self, observer: PublishObserver) {
        let observer = Arc::new(observer);
        self.observers.with(|o| o.push(observer));
    }

    /// Pin the current epoch: one `Arc` clone under the read lock.
    /// Queries (and whole paginated walks) should run against the
    /// returned [`Pinned`], not re-pin per step, to get epoch-stable
    /// results.
    pub fn pin(&self) -> Pinned {
        self.current.with_read(Pinned::clone)
    }

    /// Publish a new view, returning its epoch. The write lock is held
    /// only for the pointer swap — in-flight readers keep their pinned
    /// `Arc` and are neither waited for nor disturbed. Registered
    /// `PublishObserver`s run after the swap, outside every lock, with
    /// `(retired_epoch, new_epoch)`.
    pub fn publish(&self, view: SnapshotView) -> u64 {
        let new_epoch = self.current.with_write(|cur| {
            cur.epoch += 1;
            cur.view = Arc::new(view);
            cur.epoch
        });
        for obs in self.observers.with(|o| o.clone()) {
            obs(new_epoch - 1, new_epoch);
        }
        new_epoch
    }

    /// The current epoch number.
    pub(crate) fn epoch(&self) -> u64 {
        self.current.with_read(|cur| cur.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_core::Hitlist;
    use expanse_model::SourceId;
    use std::sync::mpsc;
    use std::time::Duration;

    fn view_of(n: u128, day: u16) -> SnapshotView {
        let mut h = Hitlist::new();
        let addrs: Vec<std::net::Ipv6Addr> = (1..=n).map(expanse_addr::u128_to_addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        SnapshotView::from_hitlist(day, &h, Vec::new())
    }

    #[test]
    fn publish_bumps_epoch_and_readers_keep_their_pin() {
        let reg = SnapshotRegistry::new(view_of(3, 1));
        let old = reg.pin();
        assert_eq!(old.epoch, 0);
        assert_eq!(reg.publish(view_of(5, 2)), 1);
        // The old pin still answers from day 1's state…
        assert_eq!(old.view.stats(None).live, 3);
        assert_eq!(old.view.days_complete(), 1);
        // …while new pins see day 2.
        let new = reg.pin();
        assert_eq!(new.epoch, 1);
        assert_eq!(new.view.stats(None).live, 5);
        assert_eq!(reg.epoch(), 1);
    }

    #[test]
    fn debug_takes_each_lock_alone() {
        let reg = SnapshotRegistry::new(view_of(1, 1));
        reg.on_publish(Box::new(|_, _| {}));
        assert_eq!(
            format!("{reg:?}"),
            "SnapshotRegistry { epoch: 0, observers: 1 }"
        );
    }

    #[test]
    fn an_observer_may_publish_and_register() {
        // The observer re-enters the registry once, on epoch 1. Run on
        // its own thread so a self-deadlock fails the test instead of
        // hanging it.
        let reg = Arc::new(SnapshotRegistry::new(view_of(1, 1)));
        let weak = Arc::downgrade(&reg);
        reg.on_publish(Box::new(move |_, new_epoch| {
            if new_epoch == 1 {
                let reg = weak.upgrade().expect("registry alive");
                reg.on_publish(Box::new(|_, _| {}));
                assert_eq!(reg.publish(view_of(3, 3)), 2);
            }
        }));
        let (tx, rx) = mpsc::channel();
        #[expect(
            clippy::disallowed_methods,
            reason = "a watchdog thread: the test outlives a deadlocked publish"
        )]
        std::thread::spawn(move || {
            let epoch = reg.publish(view_of(2, 2));
            let _ = tx.send((epoch, reg.epoch(), reg.pin().view.stats(None).live));
        });
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            got,
            Ok((1, 2, 3)),
            "publish from an observer deadlocked or panicked"
        );
    }
}
