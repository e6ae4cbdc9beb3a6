//! Lock-striped LRU tile cache.
//!
//! Read traffic against a catalog is tile-addressed and heavily skewed
//! (hot regions, recent layers), so the store keeps decoded tiles behind
//! an in-memory cache. The cache is striped: a tile key hashes to one of
//! `n` independent stripes, each its own mutex + LRU map, so concurrent
//! readers touching different tiles never contend on a global lock.
//! Values are `Arc<Tile>` snapshots — eviction or replacement never
//! invalidates a tile a reader already holds.
//!
//! Replacement is version-guarded: a stale tile loaded from disk by a
//! racing reader can never overwrite a newer tile installed by the
//! writer that just persisted it (see `Catalog`'s ingest path).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::grid::{TileId, TimeKey};
use crate::tile::Tile;

/// Full address of a stored tile: temporal layer + quadtree id. Ordered
/// time-major so query iteration walks layers chronologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileKey {
    /// Temporal layer.
    pub time: TimeKey,
    /// Spatial address.
    pub tile: TileId,
}

impl TileKey {
    /// Stable stripe/shard hash (FNV-1a over the key fields; independent
    /// of the std hasher's per-process randomisation so shard ownership
    /// is reproducible across runs).
    pub fn stable_hash(&self) -> u64 {
        let fields = [
            self.time.year as u64,
            self.time.month as u64,
            self.tile.level as u64,
            self.tile.x as u64,
            self.tile.y as u64,
        ];
        crate::fnv1a(fields.into_iter().flat_map(u64::to_le_bytes))
    }
}

struct Entry {
    tile: Arc<Tile>,
    /// Last-use stamp from the stripe's logical clock.
    stamp: u64,
}

struct Stripe {
    map: HashMap<TileKey, Entry>,
    tick: u64,
}

/// Cache hit/miss counters (monotonic, catalog lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (1 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The lock-striped LRU cache of decoded tiles.
pub struct TileCache {
    stripes: Vec<Mutex<Stripe>>,
    per_stripe_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TileCache {
    /// A cache holding about `capacity` tiles across `stripes` stripes
    /// (each stripe gets `ceil(capacity / stripes)` slots; both are
    /// clamped to at least 1).
    pub fn new(capacity: usize, stripes: usize) -> TileCache {
        let stripes = stripes.max(1);
        let per_stripe_capacity = capacity.max(1).div_ceil(stripes);
        TileCache {
            stripes: (0..stripes)
                .map(|_| {
                    Mutex::new(Stripe {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_stripe_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: &TileKey) -> &Mutex<Stripe> {
        &self.stripes[(key.stable_hash() % self.stripes.len() as u64) as usize]
    }

    /// Looks a tile up, refreshing its recency on hit.
    pub fn get(&self, key: &TileKey) -> Option<Arc<Tile>> {
        let mut stripe = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
        stripe.tick += 1;
        let tick = stripe.tick;
        match stripe.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.tile))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Installs a tile snapshot, evicting least-recently-used entries
    /// past the stripe capacity. A tile with an older version than the
    /// cached one is ignored — this closes the race where a reader loads
    /// a tile from disk while a writer persists and installs a newer
    /// merge of the same tile.
    pub fn insert(&self, key: TileKey, tile: Arc<Tile>) {
        let mut stripe = self.stripe(&key).lock().unwrap_or_else(|e| e.into_inner());
        stripe.tick += 1;
        let tick = stripe.tick;
        if let Some(existing) = stripe.map.get(&key) {
            if existing.tile.version >= tile.version {
                return;
            }
        }
        stripe.map.insert(key, Entry { tile, stamp: tick });
        while stripe.map.len() > self.per_stripe_capacity {
            let oldest = stripe
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty stripe over capacity");
            stripe.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops a key's snapshot, if cached (a failed write may have left
    /// its file ahead of the snapshot).
    pub fn remove(&self, key: &TileKey) {
        let mut stripe = self.stripe(key).lock().unwrap_or_else(|e| e.into_inner());
        stripe.map.remove(key);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(x: u32, y: u32) -> TileKey {
        TileKey {
            time: TimeKey::new(2019, 11).unwrap(),
            tile: TileId::new(4, x, y).unwrap(),
        }
    }

    fn tile_arc(k: &TileKey, version: u64) -> Arc<Tile> {
        let mut t = Tile::new(k.tile, k.time);
        t.version = version;
        Arc::new(t)
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        // One stripe so recency is observable deterministically.
        let cache = TileCache::new(2, 1);
        let (a, b, c) = (key(0, 0), key(1, 0), key(2, 0));
        cache.insert(a, tile_arc(&a, 1));
        cache.insert(b, tile_arc(&b, 1));
        assert!(cache.get(&a).is_some()); // refresh a; b is now LRU
        cache.insert(c, tile_arc(&c, 1)); // evicts b
        assert!(cache.get(&b).is_none());
        assert!(cache.get(&a).is_some());
        assert!(cache.get(&c).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
        assert!(stats.hit_rate() > 0.7);
    }

    #[test]
    fn stale_insert_cannot_replace_newer_version() {
        let cache = TileCache::new(8, 2);
        let k = key(3, 3);
        cache.insert(k, tile_arc(&k, 5));
        cache.insert(k, tile_arc(&k, 4)); // racing stale reader
        assert_eq!(cache.get(&k).unwrap().version, 5);
        cache.insert(k, tile_arc(&k, 6)); // writer's newer merge
        assert_eq!(cache.get(&k).unwrap().version, 6);
    }

    #[test]
    fn striped_access_is_thread_safe_and_exact() {
        let cache = TileCache::new(256, 8);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64u32 {
                        let k = key(t, i % 16);
                        cache.insert(k, tile_arc(&k, (i + 1) as u64));
                        assert!(cache.get(&k).is_some());
                    }
                });
            }
        });
        // Every key's final cached version is the max inserted for it.
        for t in 0..8u32 {
            for y in 0..16u32 {
                let k = key(t, y);
                assert_eq!(cache.get(&k).unwrap().version, 49 + y as u64);
            }
        }
    }
}
