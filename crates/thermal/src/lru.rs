//! The bounded, thread-safe LRU behind [`crate::circuit::CircuitCache`] and
//! [`crate::greens::ResponseCache`].
//!
//! Both cache a deterministic, expensive build (circuit assembly, spectral
//! response precompute) under a `u64` content digest. Builds run outside
//! the lock, so concurrent misses on *different* keys do not serialize; a
//! lost race on the same key builds one bit-identical value twice, keeps the
//! first insert and reports a hit. Inserting into a full cache evicts the
//! least recently used entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Point-in-time view of a cache's counters and occupancy (the same shape
/// for [`CircuitCache`](crate::circuit::CircuitCache) and
/// [`ResponseCache`](crate::greens::ResponseCache), so both render
/// identically in serve `stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries held at once.
    pub capacity: usize,
}

struct Entry<V> {
    value: Arc<V>,
    /// Monotone access stamp; the entry with the smallest stamp is the
    /// least recently used and the next to be evicted.
    last_used: u64,
}

struct State<V> {
    map: HashMap<u64, Entry<V>>,
    tick: u64,
}

impl<V> State<V> {
    /// Looks up `key`, refreshing its LRU stamp on a hit.
    fn touch(&mut self, key: u64) -> Option<Arc<V>> {
        let entry = self.map.get_mut(&key)?;
        entry.last_used = self.tick;
        self.tick += 1;
        Some(entry.value.clone())
    }
}

/// A bounded LRU of shared values keyed by a `u64` content digest, with
/// hit/miss/eviction counters.
pub(crate) struct Lru<V> {
    inner: Mutex<State<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V> Lru<V> {
    /// An empty cache holding at most `capacity` values.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Mutex::new(State { map: HashMap::new(), tick: 0 }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The locked state. Builds run outside the lock and every update under
    /// it leaves a valid map, so a guard poisoned by a panic is recovered.
    fn state(&self) -> std::sync::MutexGuard<'_, State<V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the value cached under `key`, running `build` outside the
    /// lock and inserting its result on a miss. The boolean reports the
    /// disposition: `true` for a hit (including a lost build race, which
    /// adopts the earlier insert), `false` when this call's build was kept.
    pub(crate) fn get_or_build(&self, key: u64, build: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let hit = self.state().touch(key);
        if let Some(hit) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (hit, true);
        }
        let built = Arc::new(build());
        let mut state = self.state();
        if let Some(existing) = state.touch(key) {
            drop(state);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (existing, true);
        }
        if state.map.len() >= self.capacity {
            let lru = state
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty map at capacity");
            state.map.remove(&lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let last_used = state.tick;
        state.tick += 1;
        state.map.insert(key, Entry { value: built.clone(), last_used });
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (built, false)
    }

    /// A snapshot of the counters and current occupancy.
    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Number of values currently held.
    pub(crate) fn len(&self) -> usize {
        self.state().map.len()
    }

    /// Maximum number of values held at once.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops every cached value (counters keep accumulating).
    pub(crate) fn clear(&self) {
        self.state().map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Looks `key` up, building `key * 10` on a miss.
    fn get(lru: &Lru<u64>, key: u64) -> (Arc<u64>, bool) {
        lru.get_or_build(key, || key * 10)
    }

    #[test]
    fn lru_cache_respects_capacity_and_counts_evictions() {
        let lru = Lru::new(3);
        for key in 0..5 {
            let (v, hit) = get(&lru, key);
            assert!(!hit, "key {key} is new");
            assert_eq!(*v, key * 10);
        }
        let c = lru.counters();
        assert_eq!(c.len, 3, "capacity bounds occupancy");
        assert_eq!(c.capacity, 3);
        assert_eq!(c.misses, 5);
        assert_eq!(c.evictions, 2, "two inserts displaced the LRU entry");
        assert_eq!(c.hits, 0);
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let lru = Lru::new(2);
        let (a0, _) = get(&lru, 0);
        get(&lru, 1);
        // Touch 0 so 1 becomes the LRU entry, then insert 2.
        let (a0_again, hit) = get(&lru, 0);
        assert!(hit);
        assert!(Arc::ptr_eq(&a0, &a0_again));
        get(&lru, 2);
        // 0 survived (recently used), 1 was evicted.
        assert!(get(&lru, 0).1, "recently used entry survives eviction");
        assert!(!get(&lru, 1).1, "LRU entry was evicted and must rebuild");
        let c = lru.counters();
        assert_eq!(c.hits, 2);
        assert_eq!(c.evictions, 2);
    }

    #[test]
    fn lru_cache_hit_skips_the_build_and_clear_preserves_counters() {
        let lru = Lru::new(4);
        let (a, first_hit) = get(&lru, 7);
        assert!(!first_hit);
        let (b, hit) = lru.get_or_build(7, || unreachable!("a hit must not build"));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        lru.clear();
        assert_eq!(lru.len(), 0);
        let c = lru.counters();
        assert_eq!((c.hits, c.misses), (1, 1), "clear drops values, not telemetry");
    }

    #[test]
    fn lost_build_race_adopts_the_first_insert() {
        let lru = Lru::new(2);
        // The build runs outside the lock: a racing insert of the same key
        // lands first, and the late builder adopts it as a hit.
        let (v, hit) = lru.get_or_build(3, || {
            assert!(!get(&lru, 3).1, "the racing build inserts first");
            99
        });
        assert!(hit, "the lost race reports a hit");
        assert_eq!(*v, 30, "the first insert wins");
        let c = lru.counters();
        assert_eq!((c.hits, c.misses, c.len), (1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = Lru::<u64>::new(0);
    }
}
