//! [`ResponseCache`]: encoded-response caching keyed by
//! `(epoch, canonical request bytes)`.
//!
//! The cache leans on the serving layer's central invariant: a
//! [`SnapshotView`](crate::SnapshotView) is immutable for the lifetime
//! of its epoch, so a response computed once for `(epoch, request)` is
//! correct for that key *forever*. Entries are therefore never
//! invalidated — they only **age out when their epoch is retired** (a
//! publish swaps the registry forward and a
//! [`PublishObserver`](crate::registry::PublishObserver) calls
//! [`ResponseCache::on_publish`]) or are evicted oldest-epoch-first
//! when the byte budget fills.
//!
//! Keys are the framed bytes of the request's **canonical form**
//! ([`Request::cache_key`](crate::Request::cache_key)), so two wire
//! encodings the server would answer identically — e.g. differing only
//! in an over-cap page limit — share one entry instead of diverging.
//! Values are the complete framed response bytes (epoch and day are
//! part of the response, and both are fixed per epoch), so a hit is
//! one map probe plus one socket write.
//!
//! **Admission is on the second sighting.** The first time a key is
//! offered in an epoch the cache keeps only an 8-byte hash of it (a
//! *sighting*); the response is stored when the same key is offered
//! again. A request stream that never repeats a key — a scanner paging
//! through the hitlist once — therefore costs 8 bytes a request instead
//! of a response it will never read back, and cannot push the entries
//! that *are* asked for twice out of the budget. Sightings are charged
//! to the same byte budget as entries and leave with their epoch. Two
//! keys whose hashes collide only admit the second of them one offer
//! early; what a hit returns is always keyed by the full bytes.

use crate::sync::Lock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sizing and retention policy for a [`ResponseCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Byte budget for keys + values + sightings (8 bytes each) across
    /// all epochs. When an insert would exceed it, whole epochs are
    /// evicted oldest-first until the new entry fits. An entry larger
    /// than the whole budget is simply not cached.
    pub max_bytes: usize,
    /// How many most-recent epochs to retain on publish: with
    /// `keep_epochs = 2`, publishing epoch *N* drops every entry of
    /// epochs `≤ N - 2`. At least 1 (the current epoch is always
    /// cacheable). Keeping one retired epoch lets requests pinned just
    /// before a swap keep hitting while their readers drain.
    pub keep_epochs: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 64 << 20,
            keep_epochs: 2,
        }
    }
}

/// Counters describing a cache's lifetime behavior (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries inserted.
    pub inserts: u64,
    /// Offers turned away as a key's first sighting in its epoch.
    pub deferred: u64,
    /// Entries evicted by the byte budget.
    pub evicted: u64,
    /// Entries dropped by epoch retirement.
    pub retired: u64,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What one sighting is charged against the budget: its stored hash.
const SIGHTING_BYTES: usize = 8;

/// One epoch's entries and sightings.
#[derive(Default)]
struct Epoch {
    entries: HashMap<Vec<u8>, Arc<[u8]>>,
    /// Hashes of the keys offered so far (kept after admission, so a
    /// racing third offer replaces the entry rather than deferring).
    seen: HashSet<u64>,
    /// Key + value bytes of `entries` plus the sightings' charge.
    bytes: usize,
}

/// Per-epoch state inside one ordered map: retirement and oldest-first
/// eviction are both range operations on the epoch key.
struct Inner {
    epochs: BTreeMap<u64, Epoch>,
    bytes: usize,
    /// Epochs below this have been retired: nothing is stored for them.
    min_keep: u64,
}

impl Inner {
    /// Drop the oldest epoch if it is older than `before`, returning
    /// how many entries went with it.
    fn drop_oldest(&mut self, before: u64) -> Option<u64> {
        let entry = self.epochs.first_entry().filter(|e| *e.key() < before)?;
        let epoch = entry.remove();
        self.bytes -= epoch.bytes;
        Some(epoch.entries.len() as u64)
    }
}

/// The response cache. See the module docs. All methods take
/// `&self`; the cache is shared (`Arc`) between connection handlers
/// and the publish observer.
pub struct ResponseCache {
    cfg: CacheConfig,
    inner: Lock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    deferred: AtomicU64,
    evicted: AtomicU64,
    retired: AtomicU64,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (epochs, bytes) = self.inner.with(|inner| (inner.epochs.len(), inner.bytes));
        f.debug_struct("ResponseCache")
            .field("cfg", &self.cfg)
            .field("epochs", &epochs)
            .field("bytes", &bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ResponseCache {
    /// An empty cache with the given policy (`keep_epochs` is clamped
    /// to at least 1).
    pub fn new(cfg: CacheConfig) -> ResponseCache {
        ResponseCache {
            cfg: CacheConfig {
                keep_epochs: cfg.keep_epochs.max(1),
                ..cfg
            },
            inner: Lock::new(Inner {
                epochs: BTreeMap::new(),
                bytes: 0,
                min_keep: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }

    /// The cached framed response for `(epoch, key)`, if present.
    pub fn get(&self, epoch: u64, key: &[u8]) -> Option<Arc<[u8]>> {
        let hit = self.inner.with(|inner| {
            (inner.epochs.get(&epoch))
                .and_then(|e| e.entries.get(key))
                .cloned()
        });
        match hit {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Offer the framed response for `(epoch, key)`. The first offer
    /// of a key in an epoch only records a sighting; the second stores
    /// the response (see the module docs). Either evicts
    /// oldest-epoch state if the byte budget requires it; an offer for
    /// an already-retired epoch is dropped. A racing duplicate insert
    /// is harmless (both values are byte-identical by the
    /// canonicalization invariant); the entry is counted once.
    pub fn put(&self, epoch: u64, key: Vec<u8>, response: &[u8]) {
        let entry_bytes = key.len() + response.len();
        if entry_bytes > self.cfg.max_bytes {
            return;
        }
        let mut hasher = DefaultHasher::new();
        hasher.write(&key);
        let sighting = hasher.finish();
        self.inner.with(|inner| {
            if epoch < inner.min_keep {
                return;
            }
            let seen = inner
                .epochs
                .get(&epoch)
                .is_some_and(|e| e.seen.contains(&sighting));
            let need = if seen { entry_bytes } else { SIGHTING_BYTES };
            // Evict from the oldest epoch until the addition fits. Never
            // evict from the offer's own epoch ahead of adding to it — if
            // only this epoch remains and the budget still doesn't fit,
            // skip the offer instead of thrashing.
            while inner.bytes + need > self.cfg.max_bytes {
                let Some(entries) = inner.drop_oldest(epoch) else {
                    return;
                };
                self.evicted.fetch_add(entries, Ordering::Relaxed);
            }
            let slot = inner.epochs.entry(epoch).or_default();
            let added = if !seen {
                slot.seen.insert(sighting);
                self.deferred.fetch_add(1, Ordering::Relaxed);
                SIGHTING_BYTES
            } else if slot.entries.insert(key, Arc::from(response)).is_none() {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                entry_bytes
            } else {
                0
            };
            slot.bytes += added;
            inner.bytes += added;
        });
    }

    /// Epoch-retirement hook: called (via a registry
    /// `PublishObserver`) when
    /// `new_epoch` is published. Drops every entry and sighting of
    /// epochs older than the `keep_epochs` most recent.
    pub fn on_publish(&self, new_epoch: u64) {
        let min_keep = new_epoch.saturating_sub(self.cfg.keep_epochs - 1);
        self.inner.with(|inner| {
            inner.min_keep = inner.min_keep.max(min_keep);
            while let Some(entries) = inner.drop_oldest(min_keep) {
                self.retired.fetch_add(entries, Ordering::Relaxed);
            }
        });
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes currently charged to the budget.
    fn bytes(c: &ResponseCache) -> usize {
        c.inner.with(|inner| inner.bytes)
    }

    fn cache(max_bytes: usize, keep: u64) -> ResponseCache {
        ResponseCache::new(CacheConfig {
            max_bytes,
            keep_epochs: keep,
        })
    }

    /// Offer twice: the sighting, then the entry.
    fn admit(c: &ResponseCache, epoch: u64, key: &[u8], response: &[u8]) {
        c.put(epoch, key.to_vec(), response);
        c.put(epoch, key.to_vec(), response);
    }

    #[test]
    fn second_offer_inserts_third_request_hits() {
        let c = cache(1 << 20, 2);
        assert!(c.get(1, b"key").is_none());
        c.put(1, b"key".to_vec(), b"value");
        assert!(
            c.get(1, b"key").is_none(),
            "a first sighting stores nothing"
        );
        c.put(1, b"key".to_vec(), b"value");
        assert_eq!(c.get(1, b"key").as_deref(), Some(&b"value"[..]));
        // Same key, other epoch: distinct entry space, and a sighting
        // in one epoch does not count in another.
        assert!(c.get(2, b"key").is_none());
        c.put(2, b"key".to_vec(), b"value");
        assert!(c.get(2, b"key").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts, s.deferred), (1, 4, 1, 2));
    }

    #[test]
    fn debug_shows_epochs_and_bytes() {
        let c = cache(1 << 20, 2);
        admit(&c, 1, b"k", b"v");
        let shown = format!("{c:?}");
        assert!(shown.contains("epochs: 1, bytes: 10"), "{shown}");
    }

    #[test]
    fn one_shot_keys_hold_no_value_bytes() {
        let c = cache(1 << 20, 2);
        for i in 0..1000u32 {
            c.put(1, i.to_le_bytes().to_vec(), &[0; 512]);
        }
        assert_eq!(bytes(&c), 1000 * SIGHTING_BYTES);
        let s = c.stats();
        assert_eq!((s.inserts, s.deferred), (0, 1000));
        c.on_publish(3);
        assert_eq!(bytes(&c), 0);
        assert_eq!(c.stats().retired, 0, "no entry went with the sightings");
    }

    #[test]
    fn retirement_drops_old_epochs_only() {
        let c = cache(1 << 20, 2);
        for epoch in 1..=4 {
            admit(&c, epoch, b"k", b"v");
        }
        // Publishing epoch 5 keeps epochs {4, 5}: 1..=3 retire.
        c.on_publish(5);
        assert!(c.get(3, b"k").is_none());
        assert!(c.get(4, b"k").is_some());
        assert_eq!(c.stats().retired, 3);
    }

    #[test]
    fn put_for_a_retired_epoch_leaves_nothing_behind() {
        let c = cache(1 << 20, 2);
        admit(&c, 4, b"k", b"v");
        c.on_publish(5);
        let held = bytes(&c);
        // A request pinned on epoch 3 finishes after epoch 3 retired.
        admit(&c, 3, b"late", b"v");
        assert_eq!(bytes(&c), held);
        assert!(c.get(3, b"late").is_none());
        let s = c.stats();
        assert_eq!((s.inserts, s.deferred), (1, 1));
    }

    #[test]
    fn budget_evicts_oldest_epoch_first() {
        let c = cache(80, 10);
        admit(&c, 1, &[1; 8], &[0; 24]); // 32 + 8 bytes
        admit(&c, 2, &[2; 8], &[0; 24]); // 80 — full
        admit(&c, 3, &[3; 8], &[0; 24]); // the sighting evicts epoch 1
        assert!(c.get(1, &[1; 8]).is_none());
        assert!(c.get(2, &[2; 8]).is_some());
        assert!(c.get(3, &[3; 8]).is_some());
        assert_eq!(c.stats().evicted, 1);
        assert!(bytes(&c) <= 80);
    }

    #[test]
    fn eviction_keeps_byte_accounting_exact() {
        // Regression: eviction and retirement free exactly the bytes
        // they remove — entries and sightings — so the budget stays
        // usable after the map has been fully drained.
        let c = cache(80, 10);
        c.put(1, vec![1; 8], &[0; 24]);
        assert_eq!(bytes(&c), 8, "a sighting is charged");
        c.put(1, vec![1; 8], &[0; 24]);
        assert_eq!(bytes(&c), 40);
        c.put(1, vec![1; 8], &[9; 24]); // same key: replaced, not re-counted
        assert_eq!(bytes(&c), 40);
        admit(&c, 2, &[2; 8], &[0; 24]); // 80 — at budget
        c.put(3, vec![3; 8], &[0; 24]); // evicts epoch 1, sighting included
        assert_eq!(bytes(&c), 48);
        c.put(3, vec![3; 8], &[0; 24]);
        assert_eq!(bytes(&c), 80);
        assert_eq!(c.stats().evicted, 1);
        c.on_publish(20); // retires every epoch
        assert_eq!(bytes(&c), 0);
        admit(&c, 20, b"k", b"v");
        assert_eq!(bytes(&c), 2 + SIGHTING_BYTES);
        assert!(c.get(20, b"k").is_some());
    }

    #[test]
    fn oversized_entry_is_not_cached_and_never_thrashes() {
        let c = cache(24, 2);
        admit(&c, 1, &[0; 8], &[0; 64]);
        assert!(c.get(1, &[0; 8]).is_none());
        assert_eq!(bytes(&c), 0, "a key that can never fit is not sighted");
        // A same-epoch entry that can't fit doesn't evict its peers.
        admit(&c, 2, &[1; 4], &[0; 4]); // 8 + 8
        admit(&c, 2, &[2; 4], &[0; 16]); // sighted (24), never stored
        assert!(c.get(2, &[1; 4]).is_some());
        assert!(c.get(2, &[2; 4]).is_none());
        assert_eq!(bytes(&c), 24);
    }
}
