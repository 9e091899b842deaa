//! The plan cache: an LRU of [`PreparedQuery`]s keyed on a query
//! fingerprint, or on the shape of a query text.
//!
//! A plan is a function of the query and the access schema, never of the
//! data (`EBCheck` and `QPlan` take no database), and one server has one
//! immutable access schema — so an entry is never stale. The cache is a
//! key → `Arc<PreparedQuery>` map with LRU eviction and nothing else;
//! what an entry *needs* from the data — that the indices its plan names
//! exist — is the server's invariant (see [`crate::Server`]), and the
//! executor's own "index … not built" error is the one guard behind it.
//! Every movement is counted in [`CacheStats`].

use crate::prepared::PreparedQuery;
use crate::shared::lock_recovered;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache movement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing (a prepare followed).
    pub misses: u64,
    /// Entries evicted by capacity pressure (LRU order).
    pub evictions: u64,
    /// Always zero: no write costs a cached plan anything, so nothing
    /// increments this. The field stays only because the frozen benchmark
    /// harness reads it (`benchmark/src/workloads.rs`, behind
    /// `service.cache.revalidations_per_req`); a `benchmark`-archetype PR
    /// retires the metric and this field together.
    pub revalidations: u64,
}

/// Aligned to a cache line: `last_used` is written on every hit, and the
/// table's control bytes and the neighbouring keys, which every lookup
/// reads, must not share a line with it — nor may how many lines a hit
/// moves between two clients' cores depend on where the allocator put
/// the table.
#[derive(Debug)]
#[repr(align(64))]
struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

/// An LRU cache of prepared queries.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    map: HashMap<String, Entry>,
    stats: CacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` prepared queries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Movement counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks `key` up, bumping recency and the hit/miss counters.
    pub fn get(&mut self, key: &str) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&e.prepared))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly prepared entry, evicting the least-recently-used
    /// entry if the cache is full. Two misses on one key may both compile
    /// and both insert; the second replaces the first (equal plans — same
    /// query, same access schema) in the same slot.
    ///
    /// The LRU victim is found by a scan of every entry, under the shard
    /// lock. That is paid per insert at capacity, and inserts happen once
    /// per compiled template or query *shape* — texts that differ only in
    /// their constants share one entry — never once per request.
    pub fn insert(&mut self, key: String, prepared: Arc<PreparedQuery>) {
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            Entry {
                prepared,
                last_used: self.tick,
            },
        );
    }
}

/// Number of plan-cache shards (a small power of two: enough that
/// concurrent prepares on distinct templates rarely collide, few enough
/// that summing stats stays trivial).
const CACHE_SHARDS: usize = 8;

/// The plan cache split into independently locked shards by key hash, so
/// concurrent prepares on different templates never serialize on a single
/// mutex. Every shard keeps the **full** configured capacity: capacity
/// bounds the per-template working set, not a global memory budget, so
/// dividing it across shards would evict hot templates that merely hash
/// together.
pub(crate) struct CacheShards {
    shards: Vec<Shard>,
}

/// One shard on cache lines of its own: every hit writes its lock word,
/// tick and counters, so two shards must not share a line, and what a
/// hit costs must not depend on where the allocator put the `Vec`.
#[repr(align(64))]
struct Shard(Mutex<PlanCache>);

impl CacheShards {
    pub(crate) fn new(capacity: usize) -> Self {
        CacheShards {
            shards: (0..CACHE_SHARDS)
                .map(|_| Shard(Mutex::new(PlanCache::new(capacity))))
                .collect(),
        }
    }

    /// The shard owning `key`.
    pub(crate) fn shard(&self, key: &str) -> &Mutex<PlanCache> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS].0
    }

    /// Movement counters summed across shards.
    pub(crate) fn stats(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        for s in &self.shards {
            let cs = lock_recovered(&s.0).stats();
            sum.hits += cs.hits;
            sum.misses += cs.misses;
            sum.evictions += cs.evictions;
        }
        sum
    }

    /// Live entries summed across shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recovered(&s.0).len()).sum()
    }

    /// Every shard's lock, for tests that poison them.
    #[cfg(test)]
    pub(crate) fn shard_locks(&self) -> impl Iterator<Item = &Mutex<PlanCache>> {
        self.shards.iter().map(|s| &s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{Catalog, SpcQuery};

    fn prepared(tag: i64) -> Arc<PreparedQuery> {
        let cat = Catalog::from_names(&[("r", &["a"])]).unwrap();
        let q = SpcQuery::builder(cat, "q")
            .atom("r", "r")
            .eq_const(("r", "a"), tag)
            .build()
            .unwrap();
        Arc::new(PreparedQuery::unbounded(q))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), prepared(1));
        c.insert("b".into(), prepared(2));
        assert!(c.get("a").is_some()); // "b" is now LRU
        c.insert("c".into(), prepared(3));
        assert!(c.get("b").is_none(), "b evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn racing_misses_on_one_key_leave_one_entry() {
        // Two prepares miss on the same key, both compile off the lock,
        // both insert: one entry, one LRU slot, nothing evicted.
        let mut c = PlanCache::new(2);
        c.insert("other".into(), prepared(0));
        assert!(c.get("a").is_none());
        assert!(c.get("a").is_none());
        let (first, second) = (prepared(1), prepared(1));
        c.insert("a".into(), first);
        c.insert("a".into(), Arc::clone(&second));
        assert_eq!(c.len(), 2, "`other` and one `a`");
        assert!(Arc::ptr_eq(&c.get("a").unwrap(), &second));
        assert!(
            c.get("other").is_some(),
            "the re-insert took no second slot"
        );
        let s = c.stats();
        assert_eq!((s.misses, s.hits, s.evictions), (2, 2, 0));
    }
}
