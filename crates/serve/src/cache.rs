//! The content-addressed result cache.
//!
//! Keys are built by the request layer from `(machine fingerprint,
//! algorithm list, options)` — see [`crate::wire::cache_key`]
//! — and values are the *exact response body bytes* of the first run, so a
//! cache hit is byte-identical to the original response by construction.
//! The engine's deterministic-replay guarantee (nova-chaos) is what makes
//! this sound: the same machine under the same options always produces the
//! same deterministic report fields, and timing fields ride along frozen
//! from the first run.
//!
//! Eviction is plain LRU under two simultaneous bounds: a maximum entry
//! count and a maximum total byte size. Recency is tracked with a monotonic
//! tick per entry and a `BTreeMap<tick, key>` index, giving `O(log n)`
//! touch and eviction without unsafe intrusive lists.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Bounds for a [`ResultCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum number of cached responses.
    pub max_entries: usize,
    /// Maximum total size of cached response bodies, in bytes. A single
    /// body larger than this is simply never admitted.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 4096,
            max_bytes: 64 << 20,
        }
    }
}

/// Monotonic counters describing cache behaviour since start.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Bodies admitted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bodies refused because they alone exceed `max_bytes`.
    pub oversize_rejects: u64,
}

struct Entry {
    body: Arc<Vec<u8>>,
    tick: u64,
}

/// An LRU map from cache key to frozen response body. Not internally
/// synchronized — the server wraps it in a `Mutex`.
pub struct ResultCache {
    cfg: CacheConfig,
    map: HashMap<String, Entry>,
    by_tick: BTreeMap<u64, String>,
    next_tick: u64,
    bytes: usize,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache with the given bounds.
    pub fn new(cfg: CacheConfig) -> ResultCache {
        ResultCache {
            cfg,
            map: HashMap::new(),
            by_tick: BTreeMap::new(),
            next_tick: 0,
            bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total bytes of cached bodies.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<Arc<Vec<u8>>> {
        let tick = self.next_tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                self.by_tick.remove(&entry.tick);
                entry.tick = tick;
                self.by_tick.insert(tick, key.to_string());
                self.next_tick += 1;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Admits `body` under `key`, evicting least-recently-used entries
    /// until both bounds hold. Re-inserting an existing key replaces the
    /// body. Returns `false` when the body alone exceeds the byte bound
    /// (nothing is cached, nothing is evicted).
    pub fn insert(&mut self, key: &str, body: Arc<Vec<u8>>) -> bool {
        if body.len() > self.cfg.max_bytes || self.cfg.max_entries == 0 {
            self.stats.oversize_rejects += 1;
            return false;
        }
        if let Some(old) = self.map.remove(key) {
            self.by_tick.remove(&old.tick);
            self.bytes -= old.body.len();
        }
        while self.map.len() + 1 > self.cfg.max_entries
            || self.bytes + body.len() > self.cfg.max_bytes
        {
            self.evict_oldest();
        }
        let tick = self.next_tick;
        self.next_tick += 1;
        self.bytes += body.len();
        self.map.insert(key.to_string(), Entry { body, tick });
        self.by_tick.insert(tick, key.to_string());
        self.stats.insertions += 1;
        true
    }

    fn evict_oldest(&mut self) {
        let Some((&tick, _)) = self.by_tick.iter().next() else {
            return;
        };
        let key = self.by_tick.remove(&tick).expect("tick just seen");
        let entry = self.map.remove(&key).expect("index and map agree");
        self.bytes -= entry.body.len();
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    fn cache(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache::new(CacheConfig {
            max_entries,
            max_bytes,
        })
    }

    #[test]
    fn hit_returns_the_exact_bytes() {
        let mut c = cache(8, 1024);
        assert!(c.get("k").is_none());
        c.insert("k", body("payload"));
        assert_eq!(c.get("k").unwrap().as_slice(), b"payload");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let mut c = cache(2, 1024);
        c.insert("a", body("1"));
        c.insert("b", body("2"));
        assert!(c.get("a").is_some()); // refresh a: b is now LRU
        c.insert("c", body("3"));
        assert!(c.get("b").is_none(), "LRU entry evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn byte_bound_evicts_until_it_fits() {
        let mut c = cache(100, 10);
        c.insert("a", body("aaaa")); // 4 bytes
        c.insert("b", body("bbbb")); // 8 bytes total
        c.insert("c", body("cccc")); // would be 12: evicts a
        assert_eq!(c.bytes(), 8);
        assert!(c.get("a").is_none());
        assert!(c.get("b").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversize_body_is_refused_without_disturbing_the_cache() {
        let mut c = cache(100, 10);
        c.insert("a", body("aaaa"));
        assert!(!c.insert("big", body("0123456789ab")));
        assert!(c.get("big").is_none());
        assert!(c.get("a").is_some(), "existing entries untouched");
        assert_eq!(c.stats().oversize_rejects, 1);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn reinsert_replaces_and_reaccounts_bytes() {
        let mut c = cache(8, 100);
        c.insert("k", body("short"));
        c.insert("k", body("a much longer body"));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), "a much longer body".len());
        assert_eq!(c.get("k").unwrap().as_slice(), b"a much longer body");
    }

    #[test]
    fn zero_entry_cache_never_stores() {
        let mut c = cache(0, 100);
        assert!(!c.insert("k", body("x")));
        assert!(c.get("k").is_none());
        assert_eq!(c.len(), 0);
    }
}
