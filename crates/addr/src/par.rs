//! Worker-thread sizing and deterministic fan-out primitives.
//!
//! Two stages on the pipeline path fan out, both through
//! [`par_map_coarse`]: the scan battery's `(protocol, sub-shard)` grid
//! and a single scan job's slot ranges. The helpers here are the only
//! code on that path that starts a thread, and they size themselves
//! with [`worker_threads`]: `EXPANSE_THREADS` when set (the CI
//! determinism lanes pin it to 1, 2, and 8), otherwise
//! [`std::thread::available_parallelism`]. The day pass's sort, the
//! ledger's joins and the snapshot encoders run serially: measured,
//! none of them paid for its workers.
//!
//! The primitives here are **deterministic by construction**: their
//! output is byte-for-byte independent of the thread count. That is the
//! workspace-wide contract (see `ARCHITECTURE.md`): parallelism may
//! change *when* work happens, never *what* is produced. Each helper
//! documents the property its determinism rests on.

#![cfg_attr(
    not(test),
    allow(
        clippy::expect_used,
        reason = "the expects propagate worker panics or assert that every item was claimed; \
                  there is no error to recover from"
    )
)]
#![expect(
    clippy::disallowed_methods,
    reason = "the workspace's one sanctioned fan-out: each helper's output is \
              independent of the thread count"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The worker-thread count for parallel stages: the `EXPANSE_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
///
/// Only the scanner (its battery grid and a single scan job's slot
/// ranges) and the repo benchmark read it, so pinning
/// `EXPANSE_THREADS=1` forces every fan-out onto its serial path and
/// `=8` exercises every one — which is exactly how the CI multi-thread
/// determinism lane uses it. The serve daemon's threads are per
/// connection and do not read it.
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("EXPANSE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sort `items` by a **distinct** key: `sort_unstable_by_key`, whose
/// order is the unique sorted one because no two keys tie. `threads`
/// is ignored — the day pass this sorts is a few thousand entries,
/// where a worker costs more than it saves; the signature stays for
/// existing callers. Duplicate keys are rejected in debug builds.
#[expect(
    clippy::ptr_arg,
    reason = "the signature of the former parallel sort, kept for existing callers"
)]
pub fn par_sort_by_key<T, K, F>(items: &mut Vec<T>, _threads: usize, key: F)
where
    T: Copy + Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    items.sort_unstable_by_key(&key);
    debug_assert!(
        items.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "par_sort_by_key requires distinct keys"
    );
}

/// Map a slice through `f` on up to `threads` workers, preserving input
/// order. Workers claim the next unclaimed item off a shared counter,
/// so an item that runs long holds up one worker, not a fixed share of
/// the slice; each result is put back at its item's position, so the
/// output equals the serial `items.iter().map(f).collect()` for any
/// thread count — `f` must be a pure function of its input for that
/// contract to hold.
///
/// There is no small-input serial fallback: this is for *few,
/// heavyweight* items (a battery cell, a scan job's slot range) where
/// the per-item cost, not the item count, justifies the threads.
pub fn par_map_coarse<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done: Vec<(usize, U)> = Vec::new();
        loop {
            // The counter only hands out indices; results reach the
            // caller through `join`, which orders them.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(claim)).collect();
        for h in handles {
            for (i, out) in h.join().expect("par_map_coarse worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|out| out.expect("every item is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn par_sort_sorts_at_any_thread_count() {
        // Keys must be distinct: disambiguate by position.
        let items: Vec<(u64, u64)> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x9e37) % 65_536, i))
            .collect();
        for threads in [1, 2, 8] {
            let mut v = items.clone();
            par_sort_by_key(&mut v, threads, |&(k, i)| (k, i));
            assert!(v.windows(2).all(|w| w[0] < w[1]), "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u32> = (0..9_000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                par_map_coarse(&items, threads, |&x| u64::from(x) * 3 + 1),
                serial,
                "threads={threads}"
            );
        }
    }
}
