//! Multi-threaded stress of the result cache under concurrent eviction:
//! many threads hammer one `Mutex<ResultCache>` (the same discipline the
//! server uses) with unique-key inserts and cross-thread reads while both
//! the entry bound and the byte bound are tight enough to force constant
//! LRU churn. The invariants under test: neither bound is ever observably
//! exceeded, and the monotonic counters reconcile exactly against the
//! operations performed and the entries left resident.

use nova_serve::{CacheConfig, ResultCache};
use std::sync::{Arc, Mutex};

const THREADS: usize = 8;
const OPS: usize = 400;

#[test]
fn concurrent_eviction_keeps_bounds_and_counters_reconciled() {
    let cfg = CacheConfig {
        max_entries: 64,
        max_bytes: 4096,
    };
    let cache = Arc::new(Mutex::new(ResultCache::new(cfg)));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..OPS {
                    // Unique key per insertion (no replacements), varied
                    // body sizes so both bounds bite.
                    let key = format!("t{t}-k{i}");
                    let body = Arc::new(vec![b'x'; 16 + (i % 7) * 48]);
                    let mut c = cache.lock().expect("cache lock");
                    assert!(c.insert(&key, body), "within-bound body admitted");
                    assert!(
                        c.get(&key).is_some(),
                        "an entry just inserted under the same lock is resident"
                    );
                    // A neighbour thread's key: hit or miss depending on
                    // eviction races, but always counted as exactly one.
                    let _ = c.get(&format!("t{}-k{i}", (t + 1) % THREADS));
                    assert!(c.len() <= cfg.max_entries, "entry bound held");
                    assert!(c.bytes() <= cfg.max_bytes, "byte bound held");
                }
            });
        }
    });

    let c = cache.lock().expect("cache lock");
    let stats = c.stats();
    assert!(c.len() <= cfg.max_entries && c.bytes() <= cfg.max_bytes);
    assert_eq!(
        stats.insertions,
        (THREADS * OPS) as u64,
        "every insert admitted"
    );
    assert_eq!(stats.oversize_rejects, 0);
    // Keys were globally unique, so residency is exactly the insert/evict
    // difference — a leaked or double-evicted entry breaks this.
    assert_eq!(c.len() as u64, stats.insertions - stats.evictions);
    // Two lookups per op, each a hit or a miss, never dropped.
    assert_eq!(stats.hits + stats.misses, (THREADS * OPS * 2) as u64);
    // The bound forces real churn: far more insertions than capacity.
    assert!(stats.evictions > 0, "the stress actually evicted");
}
