//! A small, deterministic LRU cache behind a caller-owned lock.
//!
//! Both server caches — derived-result bytes keyed by canonical
//! expression, and [`cube_algebra::PlanTables`] keyed by the ordered
//! operand-id list — share this one implementation. Recency is a
//! monotone tick, not wall-clock time, so cache behavior is identical
//! run to run; that and the engine's byte-determinism (docs/KERNELS.md §5)
//! are what make serving cached derived experiments safe: a hit returns
//! exactly the bytes a fresh evaluation would produce.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquires one of the server's shared mutexes, recovering the guard
/// if a previous holder panicked mid-critical-section.
///
/// Recovery is sound here because every critical section in this
/// server is a single self-contained call into a std collection (or a
/// `VecDeque` push/pop): a panicking holder cannot leave the guarded
/// value structurally inconsistent, and propagating the poison would
/// turn every later request that takes the lock into a caught panic
/// answered `500` — strictly worse than serving from an intact cache.
///
/// LOCK ORDER: every mutex in cube-serve is a *leaf* lock. The three
/// caches (`Shared::results`, `Shared::plans`, `Repository::handles`)
/// and the admission queue (`Shared::queue`) are each acquired with no
/// other lock held, and every guard is dropped before the next lock is
/// taken — so no lock-order relation exists and deadlock is impossible
/// by construction. `ci/lint_source.sh` (rule SL005) rejects code that
/// acquires two locks in one expression; keep critical sections
/// statement-scoped so that stays true.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// Least-recently-used map with a fixed capacity and hit/miss counters.
///
/// A capacity of zero disables the cache entirely: every `get` is a
/// miss and `insert` is a no-op. Eviction scans for the stalest entry
/// (the caches are small, tens of entries, so O(n) eviction is cheaper
/// than an intrusive list and has no unsafe code).
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    map: HashMap<K, Entry<V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            tick: 0,
            hits: 0,
            misses: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry if the
    /// cache is full. No-op when the capacity is zero.
    pub fn insert(&mut self, key: K, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(stalest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(1)); // refresh a; b is now stalest
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(1));
        assert_eq!(c.get(&"c"), Some(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(10));
        assert_eq!(c.get(&"b"), Some(2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 0);
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        let cache = std::sync::Arc::new(Mutex::new(LruCache::new(2)));
        {
            let cache = std::sync::Arc::clone(&cache);
            let _ = std::thread::spawn(move || {
                let mut c = lock_recover(&cache);
                c.insert("a", 1);
                panic!("poison the lock on purpose");
            })
            .join();
        }
        // The mutex is now poisoned; recovery still sees the insert.
        let mut c = lock_recover(&cache);
        assert_eq!(c.get(&"a"), Some(1));
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut c = LruCache::new(4);
        c.insert("a", 1);
        c.get(&"a");
        c.get(&"a");
        c.get(&"z");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }
}
