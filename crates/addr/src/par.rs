//! Worker-thread sizing and deterministic fan-out primitives.
//!
//! Every multi-core stage on the pipeline path — the scan battery grid,
//! a single scan job's slot ranges, the day pass's sort and ledger
//! joins, snapshot and journal encode — runs on the helpers here, the
//! only code on that path that starts a thread, and sizes itself with
//! [`worker_threads`]: `EXPANSE_THREADS` when set (the CI determinism
//! lanes pin it to 1, 2, and 8), otherwise
//! [`std::thread::available_parallelism`].
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
        reason = "the expects propagate worker panics or assert merge-loop invariants; \
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

/// Parallel fan-out below this many items costs more in thread spawns
/// than it saves; the helpers fall back to the serial path under it.
const PAR_MIN_ITEMS: usize = 4096;

/// The worker-thread count for parallel stages: the `EXPANSE_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
///
/// One knob for the whole workspace: pipeline walks, the scan battery,
/// the serve pool, and the bench drivers all size themselves here, so
/// pinning `EXPANSE_THREADS=1` forces every stage onto its serial path
/// and `=8` exercises every fan-out — which is exactly how the CI
/// multi-thread determinism lane uses it.
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

/// Sort `items` by a **distinct** key on up to `threads` workers,
/// producing exactly the order `sort_unstable_by_key` would.
///
/// Contiguous chunks are sorted concurrently, then k-way merged with
/// ties broken by chunk order. With distinct keys there are no ties, so
/// the result is the unique sorted order whatever the thread count —
/// the determinism contract. Duplicate keys would make the order of
/// equal elements depend on chunk boundaries (and therefore on
/// `threads`), so they are rejected in debug builds.
pub fn par_sort_by_key<T, K, F>(items: &mut Vec<T>, threads: usize, key: F)
where
    T: Copy + Send,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < PAR_MIN_ITEMS {
        items.sort_unstable_by_key(|t| key(t));
    } else {
        let chunk = n.div_ceil(threads);
        thread::scope(|s| {
            for c in items.chunks_mut(chunk) {
                let key = &key;
                s.spawn(move || c.sort_unstable_by_key(|t| key(t)));
            }
        });
        let mut merged: Vec<T> = Vec::with_capacity(n);
        // Per-chunk read cursors; each step takes the smallest head
        // (first chunk wins a tie, which never happens for distinct
        // keys). Chunk count is small (= threads), so the linear
        // min-scan beats a heap.
        let mut heads: Vec<(usize, usize)> = (0..items.len().div_ceil(chunk))
            .map(|i| (i * chunk, (i * chunk + chunk).min(n)))
            .collect();
        while merged.len() < n {
            let mut best: Option<usize> = None;
            for (i, &(at, end)) in heads.iter().enumerate() {
                if at < end && best.is_none_or(|b| key(&items[at]) < key(&items[heads[b].0])) {
                    best = Some(i);
                }
            }
            let b = best.expect("cursors exhausted before merge finished");
            merged.push(items[heads[b].0]);
            heads[b].0 += 1;
        }
        *items = merged;
    }
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
/// heavyweight* items (a battery cell, a scan job's slot range, one
/// merge-join per ledger row) where the per-item cost, not the item
/// count, justifies the threads.
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

/// Serialize a slice to bytes on up to `threads` workers: each worker
/// encodes one contiguous chunk into its own buffer via `encode`, and
/// the buffers come back in chunk order.
///
/// Feeding them to a checksummed
/// [`Encoder`](crate::codec::Encoder::put_bytes) in order yields a byte
/// stream identical to encoding the items serially — the FNV checksum
/// is a byte-stream fold, so it cannot tell the chunked writes apart.
/// `encode` must write each item's bytes independently of its
/// neighbours (true for every fixed-width column in the snapshot
/// format).
pub fn par_chunk_bytes<T, F>(items: &[T], threads: usize, encode: F) -> Vec<Vec<u8>>
where
    T: Sync,
    F: Fn(&[T], &mut Vec<u8>) + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 || n < PAR_MIN_ITEMS {
        let mut buf = Vec::new();
        encode(items, &mut buf);
        return vec![buf];
    }
    let chunk = n.div_ceil(threads);
    let mut bufs: Vec<Vec<u8>> = Vec::with_capacity(threads);
    thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| {
                let encode = &encode;
                s.spawn(move || {
                    let mut buf = Vec::new();
                    encode(c, &mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            bufs.push(h.join().expect("par_chunk_bytes worker panicked"));
        }
    });
    bufs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn par_sort_matches_serial_for_all_thread_counts() {
        let base: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9e37) % 65_536)
            .collect();
        // Keys must be distinct: disambiguate by position.
        let items: Vec<(u64, u64)> = base
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let mut serial = items.clone();
        serial.sort_unstable_by_key(|&(k, i)| (k, i));
        for threads in [1, 2, 3, 8, 64] {
            let mut v = items.clone();
            par_sort_by_key(&mut v, threads, |&(k, i)| (k, i));
            assert_eq!(v, serial, "threads={threads}");
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

    #[test]
    fn par_chunk_bytes_concatenation_is_serial_encoding() {
        let items: Vec<u128> = (0..8_192u128).map(|i| i * 31 + 7).collect();
        let mut serial = Vec::new();
        for &v in &items {
            serial.extend_from_slice(&v.to_le_bytes());
        }
        for threads in [1, 2, 7, 13] {
            let bufs = par_chunk_bytes(&items, threads, |chunk, buf| {
                for &v in chunk {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            });
            assert_eq!(bufs.concat(), serial, "threads={threads}");
        }
    }
}
