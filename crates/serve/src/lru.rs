//! A small bounded LRU for served simulation results.
//!
//! Sits in front of the process-wide workload cache: that layer memoizes
//! *instrumentation* (unbounded, keyed by workload), this one memoizes
//! finished *results* (`job → cycles`) so a repeated request skips the
//! queue entirely. The server keys it by the decoded
//! [`JobSpec`](crate::protocol::JobSpec) itself, so a hit never builds
//! the job's key text. Capacity-bounded with least-recently-used
//! eviction; the scan-to-evict is O(len), which at serving capacities
//! (hundreds) is noise next to a simulation.
//!
//! [`ShardedLru`] wraps N independent `LruCache` shards behind their own
//! locks, picked from the high half of the key's `hash_key`, so
//! concurrent cache hits stop serializing on one global mutex — the
//! contention fix the serve layer needs, since every request consults the
//! cache before admission.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The job-key hasher: one multiply-rotate step per integer written (the
/// spec's fields are a handful of small integers), then a 64-bit mix so
/// both halves of [`finish`](Hasher::finish) are usable on their own.
/// Unkeyed on purpose: every map it indexes is bounded (an LRU sub-shard,
/// the in-flight table), so keys crafted to collide can cost a probe
/// sequence no longer than the map, never an unbounded one.
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.write_u64(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }
}

/// A map hashed with [`KeyHasher`]: its slot for a key comes from the
/// same [`hash_key`] value that routed the key.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The canonical job-key hash. The router picks a dispatcher from its low
/// half and each dispatcher's [`ShardedLru`] picks a sub-shard from its
/// high half: every key a dispatcher sees shares the low-half residue, so
/// reusing it would leave most sub-shards unreachable.
pub(crate) fn hash_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = KeyHasher::default();
    key.hash(&mut h);
    h.finish()
}

pub(crate) struct LruCache<K = String> {
    cap: usize,
    tick: u64,
    map: KeyMap<K, (u64, f64)>,
}

impl<K: Hash + Eq + Clone> LruCache<K> {
    /// `cap == 0` disables caching entirely.
    pub fn new(cap: usize) -> LruCache<K> {
        LruCache {
            cap,
            tick: 0,
            map: KeyMap::with_capacity_and_hasher(cap.min(1024), Default::default()),
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<f64> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|slot| {
            slot.0 = tick;
            slot.1
        })
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// when full.
    pub fn put(&mut self, key: &K, value: f64) {
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
        self.map.insert(key.clone(), (self.tick, value));
    }
}

/// N-way sharded result LRU. Each shard holds `ceil(cap / shards)` entries
/// behind its own lock; eviction is per shard (a hot shard may evict while
/// a cold one has room — total capacity stays within one entry per shard
/// of the requested bound, which is noise at serving capacities).
pub struct ShardedLru<K = String> {
    shards: Vec<parking_lot::Mutex<LruCache<K>>>,
}

/// Shard count: enough to make same-instant cache hits on distinct keys
/// unlikely to collide, small enough that per-shard capacity stays useful.
const SHARDS: usize = 8;

/// The sub-shard a key with [`hash_key`] `hash` lives in: its high half.
pub(crate) fn sub_shard(hash: u64) -> usize {
    (hash >> 32) as usize % SHARDS
}

impl<K: Hash + Eq + Clone> ShardedLru<K> {
    /// Total capacity `cap` spread over the shards (`cap == 0` disables
    /// caching entirely, as in `LruCache`).
    pub fn new(cap: usize) -> ShardedLru<K> {
        let per_shard = cap.div_ceil(SHARDS);
        ShardedLru {
            shards: (0..SHARDS)
                .map(|_| parking_lot::Mutex::new(LruCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &parking_lot::Mutex<LruCache<K>> {
        &self.shards[sub_shard(hash_key(key))]
    }

    /// Look up `key`, refreshing its recency within its shard.
    pub fn get(&self, key: &K) -> Option<f64> {
        self.shard(key).lock().get(key)
    }

    /// Insert (or refresh) `key`, evicting within its shard when full.
    pub fn put(&self, key: &K, value: f64) {
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
        lru.put(&"a", 1.0);
        lru.put(&"b", 2.0);
        assert_eq!(lru.get(&"a"), Some(1.0)); // refresh a; b is now oldest
        lru.put(&"c", 3.0);
        assert_eq!(lru.get(&"b"), None);
        assert_eq!(lru.get(&"a"), Some(1.0));
        assert_eq!(lru.get(&"c"), Some(3.0));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut lru = LruCache::new(0);
        lru.put(&"a", 1.0);
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn refresh_updates_value_without_growth() {
        let mut lru = LruCache::new(4);
        lru.put(&"a", 1.0);
        lru.put(&"a", 9.0);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"a"), Some(9.0));
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
        lru.put(&"a", 1.0);
        assert_eq!(lru.get(&"a"), None);
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
