//! A small bounded LRU for served simulation results.
//!
//! Sits in front of the process-wide workload cache: that layer memoizes
//! *instrumentation* (unbounded, keyed by workload), this one memoizes
//! finished *results* (`key → cycles`) so a repeated request skips the
//! queue entirely. Capacity-bounded with least-recently-used eviction;
//! the scan-to-evict is O(len), which at serving capacities (hundreds)
//! is noise next to a simulation.
//!
//! [`ShardedLru`] wraps N independent [`LruCache`] shards behind their own
//! locks, keyed by a hash of the job key, so concurrent cache hits stop
//! serializing on one global mutex — the contention fix the serve layer
//! needs, since every request consults the cache before admission.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// The canonical job-key hash. The router picks a dispatcher from its low
/// half and each dispatcher's [`ShardedLru`] picks a sub-shard from its
/// high half: every key a dispatcher sees shares the low-half residue, so
/// reusing it would leave most sub-shards unreachable.
pub fn hash_key(key: &str) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

pub struct LruCache {
    cap: usize,
    tick: u64,
    map: HashMap<String, (u64, f64)>,
}

impl LruCache {
    /// `cap == 0` disables caching entirely.
    pub fn new(cap: usize) -> LruCache {
        LruCache {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap.min(1024)),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<f64> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1
        })
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// when full.
    pub fn put(&mut self, key: &str, value: f64) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if let Some(slot) = self.map.get_mut(key) {
            *slot = (self.tick, value);
            return;
        }
        if self.map.len() >= self.cap {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key.to_string(), (self.tick, value));
    }
}

/// N-way sharded result LRU. Each shard holds `ceil(cap / shards)` entries
/// behind its own lock; eviction is per shard (a hot shard may evict while
/// a cold one has room — total capacity stays within one entry per shard
/// of the requested bound, which is noise at serving capacities).
pub struct ShardedLru {
    shards: Vec<parking_lot::Mutex<LruCache>>,
}

/// Shard count: enough to make same-instant cache hits on distinct keys
/// unlikely to collide, small enough that per-shard capacity stays useful.
const SHARDS: usize = 8;

impl ShardedLru {
    /// Total capacity `cap` spread over the shards (`cap == 0` disables
    /// caching entirely, as in [`LruCache`]).
    pub fn new(cap: usize) -> ShardedLru {
        let per_shard = cap.div_ceil(SHARDS);
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| parking_lot::Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &parking_lot::Mutex<LruCache> {
        &self.shards[(hash_key(key) >> 32) as usize % self.shards.len()]
    }

    /// Look up `key`, refreshing its recency within its shard.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.shard(key).lock().get(key)
    }

    /// Insert (or refresh) `key`, evicting within its shard when full.
    pub fn put(&self, key: &str, value: f64) {
        self.shard(key).lock().put(key, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruCache::new(2);
        lru.put("a", 1.0);
        lru.put("b", 2.0);
        assert_eq!(lru.get("a"), Some(1.0)); // refresh a; b is now oldest
        lru.put("c", 3.0);
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("a"), Some(1.0));
        assert_eq!(lru.get("c"), Some(3.0));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut lru = LruCache::new(0);
        lru.put("a", 1.0);
        assert_eq!(lru.get("a"), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn refresh_updates_value_without_growth() {
        let mut lru = LruCache::new(4);
        lru.put("a", 1.0);
        lru.put("a", 9.0);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get("a"), Some(9.0));
    }

    #[test]
    fn sharded_roundtrip_and_bound() {
        let lru = ShardedLru::new(64);
        for i in 0..500 {
            lru.put(&format!("key-{i}"), i as f64);
        }
        // Bounded: at most ceil(64/8) entries per shard.
        assert!(lru.len() <= 64 + SHARDS, "len {} over bound", lru.len());
        // Recent keys (the survivors in each shard) still hit.
        let hits = (0..500)
            .filter(|i| lru.get(&format!("key-{i}")) == Some(*i as f64))
            .count();
        assert!(hits > 0);
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let lru = ShardedLru::new(0);
        lru.put("a", 1.0);
        assert_eq!(lru.get("a"), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn sharded_concurrent_hits() {
        let lru = std::sync::Arc::new(ShardedLru::new(128));
        for i in 0..64 {
            lru.put(&format!("k{i}"), i as f64);
        }
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lru = std::sync::Arc::clone(&lru);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        for i in 0..64 {
                            assert_eq!(lru.get(&format!("k{i}")), Some(i as f64));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
