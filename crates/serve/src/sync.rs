//! The crate's one lock module: the only code that calls `Mutex::lock`,
//! `RwLock::{read, write}` or `Condvar::wait*` (the root `clippy.toml`
//! bans them everywhere else).
//!
//! Every guard lives inside a closure here, so none outlives the call
//! that took it, and no caller ever holds one lock while taking another:
//! every lock in the crate is a *leaf*, and a lock order holds by
//! construction. Two policies are written once, here:
//!
//! - **Poison.** A panic under a lock leaves state every user can still
//!   read consistently (counters, maps of immutable values, a pointer),
//!   so a poisoned lock is entered as if it were clean.
//! - **Depth, in debug builds.** A thread-local counter panics when a
//!   lock is taken while another is held, and [`assert_unlocked`]
//!   panics when a socket is read or written under a lock. Release
//!   builds compile the counter away. It sees only the paths a run
//!   takes.

#![expect(
    clippy::disallowed_methods,
    reason = "the one module that may lock or wait: every guard is confined to a closure"
)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Marks this thread as inside a lock for as long as it lives.
struct Held;

impl Held {
    fn enter() -> Held {
        #[cfg(debug_assertions)]
        DEPTH.with(|d| {
            assert_eq!(d.get(), 0, "lock taken while another is held");
            d.set(1);
        });
        Held
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        DEPTH.with(|d| d.set(0));
    }
}

/// Panics in debug builds when called under a lock: socket reads and
/// writes never wait on a peer while a guard is held.
pub(crate) fn assert_unlocked() {
    #[cfg(debug_assertions)]
    DEPTH.with(|d| assert_eq!(d.get(), 0, "socket I/O while a lock is held"));
}

/// A mutex whose guard never escapes [`Lock::with`].
#[derive(Debug)]
pub(crate) struct Lock<T>(Mutex<T>);

impl<T> Lock<T> {
    pub(crate) const fn new(value: T) -> Lock<T> {
        Lock(Mutex::new(value))
    }

    /// Run `f` on the value under the lock.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _held = Held::enter();
        let mut guard = self.guard();
        f(&mut guard)
    }

    fn guard(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose guards never escape a closure.
#[derive(Debug)]
pub(crate) struct RwCell<T>(RwLock<T>);

impl<T> RwCell<T> {
    pub(crate) const fn new(value: T) -> RwCell<T> {
        RwCell(RwLock::new(value))
    }

    /// Run `f` on the value under a shared lock.
    pub(crate) fn with_read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let _held = Held::enter();
        let guard = self.0.read().unwrap_or_else(PoisonError::into_inner);
        f(&guard)
    }

    /// Run `f` on the value under the exclusive lock.
    pub(crate) fn with_write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let _held = Held::enter();
        let mut guard = self.0.write().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

/// A [`Lock`] with a condition variable: a waiter blocks until its
/// predicate clears, then acts under the same guard.
#[derive(Debug)]
pub(crate) struct Monitor<T> {
    lock: Lock<T>,
    changed: Condvar,
}

impl<T> Monitor<T> {
    pub(crate) const fn new(value: T) -> Monitor<T> {
        Monitor {
            lock: Lock::new(value),
            changed: Condvar::new(),
        }
    }

    /// Run `f` on the value under the lock.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.lock.with(f)
    }

    /// Wake one waiter to re-check its predicate.
    pub(crate) fn notify_one(&self) {
        self.changed.notify_one();
    }

    /// Wake every waiter to re-check its predicate.
    pub(crate) fn notify_all(&self) {
        self.changed.notify_all();
    }

    /// Wait while `blocked` holds, then run `f` under the same guard.
    pub(crate) fn wait_then<R>(
        &self,
        blocked: impl FnMut(&mut T) -> bool,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let _held = Held::enter();
        let mut guard = (self.changed)
            .wait_while(self.lock.guard(), blocked)
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Wait while `blocked` holds, for at most `timeout`, then run `f`
    /// under the same guard whether or not the predicate cleared.
    pub(crate) fn wait_timeout_then<R>(
        &self,
        timeout: Duration,
        blocked: impl FnMut(&mut T) -> bool,
        f: impl FnOnce(&mut T) -> R,
    ) -> R {
        let _held = Held::enter();
        let (mut guard, _) = (self.changed)
            .wait_timeout_while(self.lock.guard(), timeout, blocked)
            .unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "lock taken while another is held")]
    fn a_nested_lock_panics() {
        let (a, b) = (Lock::new(0), Lock::new(0));
        a.with(|_| b.with(|_| ()));
    }

    #[test]
    #[should_panic(expected = "lock taken while another is held")]
    fn a_lock_inside_a_read_panics() {
        let (a, b) = (RwCell::new(0), Monitor::new(0));
        a.with_read(|_| b.with(|_| ()));
    }

    #[test]
    fn sequential_locks_and_waits_leave_the_depth_at_zero() {
        let (a, m) = (Lock::new(1), Monitor::new(2));
        let sum = a.with(|x| *x) + m.wait_then(|_| false, |x| *x);
        let timed = m.wait_timeout_then(Duration::from_millis(1), |_| true, |x| *x);
        assert_eq!((sum, timed), (3, 2));
        assert_unlocked();
    }
}
