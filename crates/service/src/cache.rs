//! The plan cache: an LRU of [`PreparedQuery`]s keyed on
//! query + access-schema fingerprints, or on the shape of a query text.
//!
//! Entries remember a **relation-scoped validation stamp**: the epoch of
//! each relation the prepared query's access schema actually reads (its
//! slice of the database's vector clock), as of the last validation. The
//! server compares those stamps against the current snapshot — writes to
//! relations a plan never reads leave its stamps current, so the lookup is
//! a pure hit with no revalidation work; only when a *read* relation's
//! epoch advanced does the server revalidate (cheaply — an index-existence
//! check) or drop the entry, so a cached plan can never silently execute
//! against indices that a bulk load swept away. Every movement is counted
//! in [`CacheStats`] — the service's observability surface.

use crate::prepared::PreparedQuery;
use bcq_core::prelude::RelId;
use std::collections::HashMap;
use std::sync::Arc;

/// The vector-clock slice a cache entry was last validated against: the
/// epoch of each relation the plan reads, in the prepared query's
/// (sorted) read-set order.
pub type RelStamps = Vec<(RelId, u64)>;

/// [`RelStamps`] as stored in (and handed out by) the cache: shared, so a
/// hit costs a refcount bump instead of a `Vec` clone.
pub type SharedStamps = Arc<[(RelId, u64)]>;

/// Cache movement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (a prepare followed).
    pub misses: u64,
    /// Entries evicted by capacity pressure (LRU order).
    pub evictions: u64,
    /// Entries dropped because epoch revalidation failed.
    pub invalidations: u64,
    /// Entries whose stamps were refreshed after a successful revalidation
    /// (a relation the plan reads had advanced and its indices were
    /// confirmed present).
    pub revalidations: u64,
}

/// `fresh` with every stamp clamped to at least the matching relation's
/// stamp in `current` — validations move forward only, even when prepares
/// racing on older snapshots apply out of order.
fn merge_stamps(current: &[(RelId, u64)], fresh: RelStamps) -> SharedStamps {
    fresh
        .into_iter()
        .map(|(rel, epoch)| {
            let prev = current
                .iter()
                .find(|&&(r, _)| r == rel)
                .map_or(0, |&(_, e)| e);
            (rel, epoch.max(prev))
        })
        .collect()
}

#[derive(Debug)]
struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
    /// Shared so the hot-path lookup hands stamps out by refcount bump,
    /// not by cloning a `Vec` per hit.
    stamps: SharedStamps,
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

    /// Looks `key` up, bumping recency and the hit/miss counters. Returns
    /// the entry and the read-relation stamps it was last validated at
    /// (shared — no per-hit allocation).
    pub fn get(&mut self, key: &str) -> Option<(Arc<PreparedQuery>, SharedStamps)> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits += 1;
                Some((Arc::clone(&e.prepared), Arc::clone(&e.stamps)))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Marks `key` as revalidated at `stamps` (indices confirmed present
    /// after a read relation advanced). Concurrent prepares can race in
    /// with stamps taken from an older snapshot; a stamp never moves
    /// backward (componentwise max), so a losing racer cannot re-stale an
    /// entry a newer validation already confirmed.
    pub fn revalidate(&mut self, key: &str, stamps: RelStamps) {
        if let Some(e) = self.map.get_mut(key) {
            e.stamps = merge_stamps(&e.stamps, stamps);
            self.stats.revalidations += 1;
        }
    }

    /// Drops `key` after a failed revalidation.
    pub fn invalidate(&mut self, key: &str) {
        if self.map.remove(key).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Inserts a freshly prepared entry validated at `stamps`, evicting the
    /// least-recently-used entry if the cache is full. Re-inserting an
    /// existing key keeps the newest validation per relation (see
    /// [`Self::revalidate`] for the race this guards against).
    ///
    /// The LRU victim is found by a scan of every entry, under the shard
    /// lock. That is paid per insert at capacity, and inserts happen once
    /// per compiled template or query *shape* — texts that differ only in
    /// their constants share one entry — never once per request.
    pub fn insert(&mut self, key: String, prepared: Arc<PreparedQuery>, stamps: RelStamps) {
        let stamps = match self.map.get(&key) {
            Some(e) => merge_stamps(&e.stamps, stamps),
            None => stamps.into(),
        };
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
                stamps,
            },
        );
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
        Arc::new(PreparedQuery::unbounded(q, format!("fp{tag}")))
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), prepared(1), vec![]);
        c.insert("b".into(), prepared(2), vec![]);
        assert!(c.get("a").is_some()); // "b" is now LRU
        c.insert("c".into(), prepared(3), vec![]);
        assert!(c.get("b").is_none(), "b evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn revalidate_and_invalidate_are_counted() {
        let mut c = PlanCache::new(4);
        c.insert("a".into(), prepared(1), vec![(RelId(0), 7)]);
        let (_, stamps) = c.get("a").unwrap();
        assert_eq!(&*stamps, &[(RelId(0), 7)]);
        c.revalidate("a", vec![(RelId(0), 9)]);
        let (_, stamps) = c.get("a").unwrap();
        assert_eq!(&*stamps, &[(RelId(0), 9)]);
        c.invalidate("a");
        assert!(c.get("a").is_none());
        let s = c.stats();
        assert_eq!(s.revalidations, 1);
        assert_eq!(s.invalidations, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn revalidation_stamps_never_move_backward() {
        let mut c = PlanCache::new(4);
        c.insert("a".into(), prepared(1), vec![(RelId(0), 5), (RelId(1), 5)]);
        // A racer validating against an older snapshot cannot regress a
        // component another prepare already advanced.
        c.revalidate("a", vec![(RelId(0), 9), (RelId(1), 9)]);
        c.revalidate("a", vec![(RelId(0), 7), (RelId(1), 12)]);
        let (_, stamps) = c.get("a").unwrap();
        assert_eq!(&*stamps, &[(RelId(0), 9), (RelId(1), 12)]);
        // Same rule when a lost prepare re-inserts over a newer entry.
        c.insert("a".into(), prepared(1), vec![(RelId(0), 3), (RelId(1), 3)]);
        let (_, stamps) = c.get("a").unwrap();
        assert_eq!(&*stamps, &[(RelId(0), 9), (RelId(1), 12)]);
    }

    #[test]
    fn reinserting_same_key_does_not_evict_others() {
        let mut c = PlanCache::new(2);
        c.insert("a".into(), prepared(1), vec![]);
        c.insert("b".into(), prepared(2), vec![]);
        c.insert("a".into(), prepared(3), vec![(RelId(0), 1)]); // overwrite, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
    }
}
