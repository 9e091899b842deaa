//! Epoch snapshots: single-writer / multi-reader access to the database.
//!
//! Readers call [`SharedDb::snapshot`] and get an `Arc<Database>` — an
//! immutable view they can execute plans against for as long as they like,
//! off the lock. Writers go through [`SharedDb::write`], which clones the
//! database **shallowly** (a vector of shard `Arc`s — see
//! [`bcq_storage::RelationShard`]) and lets the mutation copy-on-write only
//! the shards it touches, then publishes the new `Arc`. A snapshot is
//! therefore a frozen **vector clock**: its global epoch and every
//! per-relation epoch ([`Database::epoch_of`]) never move underneath the
//! reader, and untouched shards stay pointer-shared between consecutive
//! snapshots.
//!
//! The trade-off of the pre-sharding design — a write that raced
//! outstanding snapshots paid a full database copy — is gone: a single-row
//! write clones one shard (the touched relation's table + indices), however
//! many other relations the database holds. Writers that batch (see
//! `Server::bulk_update`) amortize even that.
//!
//! ## Per-relation write concurrency
//!
//! `write` is the exclusive **commit section**. Each relation also has a
//! write latch ([`SharedDb::lock_rel`]): a row writer latches only the
//! relation it touches. While snapshots are outstanding it prepares the
//! new shard off the commit section (encode, copy-on-write clone, index
//! maintenance — see [`bcq_storage::Database::prepare`]) and enters
//! `write` just long enough to swap one shard pointer; with none
//! outstanding it mutates the uniquely owned shard in place inside
//! `write`, so writers on disjoint relations serialize there. The latch
//! serializes same-relation writers so a prepared shard can never race
//! another writer's commit.

use bcq_core::prelude::RelId;
use bcq_storage::Database;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Instant;

/// A shared, snapshot-on-read / copy-on-write-by-shard database handle.
#[derive(Debug)]
pub struct SharedDb {
    inner: RwLock<Arc<Database>>,
    /// Per-relation write latches (indexed by `RelId`); see the module
    /// docs and [`SharedDb::lock_rel`].
    latches: Box<[Mutex<()>]>,
}

/// A held per-relation write latch plus the contention evidence the
/// telemetry layer records: how long the writer waited and whether it
/// conflicted with another writer on the same relation at all.
#[derive(Debug)]
pub struct RelLatch<'a> {
    _guard: MutexGuard<'a, ()>,
    /// Nanoseconds spent waiting for the latch (0 on the uncontended
    /// fast path).
    pub wait_ns: u64,
    /// Whether another writer held the latch when we asked.
    pub contended: bool,
}

impl SharedDb {
    /// Wraps a database for shared access.
    pub fn new(db: Database) -> Self {
        let latches = (0..db.num_relations()).map(|_| Mutex::new(())).collect();
        SharedDb {
            latches,
            inner: RwLock::new(Arc::new(db)),
        }
    }

    /// Acquires the write latch of one relation, reporting how long the
    /// acquisition waited behind another same-relation writer. Writers on
    /// different relations take different latches and never wait on each
    /// other here. Poison-tolerant like the other locks: the guarded value
    /// is `()`, so a panicked holder left nothing to corrupt.
    pub fn lock_rel(&self, rel: RelId) -> RelLatch<'_> {
        let latch = &self.latches[rel.0];
        match latch.try_lock() {
            Ok(guard) => RelLatch {
                _guard: guard,
                wait_ns: 0,
                contended: false,
            },
            Err(TryLockError::Poisoned(p)) => RelLatch {
                _guard: p.into_inner(),
                wait_ns: 0,
                contended: false,
            },
            Err(TryLockError::WouldBlock) => {
                let start = Instant::now();
                let guard = latch.lock().unwrap_or_else(|e| e.into_inner());
                RelLatch {
                    _guard: guard,
                    wait_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    contended: true,
                }
            }
        }
    }

    /// `true` when snapshots (or clones) of the current state are still
    /// outstanding — i.e. an in-place mutation would have to copy-on-write
    /// the touched shard anyway. The serving tier uses this to pick
    /// between the in-place and the prepare-off-the-lock write paths; the
    /// answer may be stale by the time the write runs, which is benign in
    /// both directions (a clone that wasn't needed, or a copy-on-write
    /// inside the commit section).
    pub fn has_snapshots(&self) -> bool {
        Arc::strong_count(&self.inner.read().unwrap_or_else(|e| e.into_inner())) > 1
    }

    /// An immutable snapshot of the current state. Cheap (`Arc` clone);
    /// the snapshot stays valid — and unchanged, global epoch and vector
    /// clock included — however many writes happen after it is taken.
    ///
    /// Poison-tolerant: the guarded value is an `Arc` swap, never left
    /// half-mutated, so a reader that panicked while holding the lock
    /// cannot have corrupted it — later readers recover the guard instead
    /// of propagating the panic.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Runs `f` against the database with exclusive write access — the
    /// **commit section** of the concurrent write protocol (callers doing
    /// more than installing prepared state must provide their own
    /// exclusion against latched writers; in the serving tier that is the
    /// view-registry write lock). The mutation copy-on-writes only the
    /// shards it touches; every other shard is pointer-shared with
    /// outstanding snapshots. All mutations advance the commit counter and
    /// stamp the touched shards (enforced by [`Database`] itself). Returns
    /// `f`'s result.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        // Poison recovery mirrors [`SharedDb::snapshot`]: storage mutations
        // keep the database structurally valid at every step, so a writer
        // that panicked mid-closure leaves a usable (if partially applied)
        // state behind — serving keeps running rather than poisoning every
        // later read and write.
        let mut guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        // Shallow clone when snapshots are outstanding: O(relations)
        // pointer bumps, never table data.
        f(Arc::make_mut(&mut guard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{Catalog, Value};

    fn db() -> Database {
        Database::new(Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c", "d"])]).unwrap())
    }

    #[test]
    fn snapshots_are_isolated_from_later_writes() {
        let shared = SharedDb::new(db());
        shared.write(|d| d.insert("r", &[Value::int(1), Value::int(2)]).unwrap());
        let snap = shared.snapshot();
        let e = snap.epoch();
        assert_eq!(snap.total_tuples(), 1);

        shared.write(|d| d.insert("r", &[Value::int(3), Value::int(4)]).unwrap());
        // The old snapshot is frozen; the new one sees the write.
        assert_eq!(snap.total_tuples(), 1);
        assert_eq!(snap.epoch(), e);
        assert_eq!(shared.snapshot().total_tuples(), 2);
        assert!(shared.snapshot().epoch() > e);
    }

    #[test]
    fn writes_share_untouched_shards_with_snapshots() {
        let shared = SharedDb::new(db());
        shared.write(|d| {
            d.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
            d.insert("s", &[Value::int(5), Value::int(6)]).unwrap();
        });
        let snap = shared.snapshot();
        shared.write(|d| d.insert("r", &[Value::int(3), Value::int(4)]).unwrap());
        let after = shared.snapshot();
        let (r, s) = (RelId(0), RelId(1));
        assert!(
            Arc::ptr_eq(snap.shard(s), after.shard(s)),
            "untouched shard pointer-shared across the write"
        );
        assert!(!Arc::ptr_eq(snap.shard(r), after.shard(r)));
        assert_eq!(snap.table(r).len(), 1, "snapshot frozen");
        assert_eq!(after.table(r).len(), 2);
    }

    #[test]
    fn rel_latches_are_independent_and_report_contention() {
        let shared = Arc::new(SharedDb::new(db()));
        let (r, s) = (RelId(0), RelId(1));

        // Uncontended: no wait, not flagged.
        let latch = shared.lock_rel(r);
        assert!(!latch.contended);
        assert_eq!(latch.wait_ns, 0);

        // A different relation's latch is free while `r`'s is held.
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let other = shared.lock_rel(s);
                    assert!(!other.contended, "disjoint relations never wait");
                })
                .join()
                .unwrap();
        });

        // A same-relation writer waits and is flagged as contended.
        let (tx, rx) = std::sync::mpsc::channel();
        let shared_ref = &shared;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let waited = shared_ref.lock_rel(r);
                tx.send((waited.contended, waited.wait_ns)).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            drop(latch);
            let (contended, wait_ns) = rx.recv().unwrap();
            assert!(contended);
            assert!(wait_ns > 0);
        });
    }

    #[test]
    fn has_snapshots_tracks_outstanding_readers() {
        let shared = SharedDb::new(db());
        assert!(!shared.has_snapshots());
        let snap = shared.snapshot();
        assert!(shared.has_snapshots());
        drop(snap);
        assert!(!shared.has_snapshots());
    }

    #[test]
    fn concurrent_readers_see_consistent_states() {
        let shared = Arc::new(SharedDb::new(db()));
        let mut handles = Vec::new();
        for t in 0..4 {
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    if t == 0 {
                        shared.write(|d| d.insert("r", &[Value::int(i), Value::int(i)]).unwrap());
                    } else {
                        let snap = shared.snapshot();
                        // A snapshot's tuple count, epoch, and vector clock
                        // never change underneath the reader.
                        let (n, e, vr) =
                            (snap.total_tuples(), snap.epoch(), snap.epoch_of(RelId(0)));
                        std::thread::yield_now();
                        assert_eq!(snap.total_tuples(), n);
                        assert_eq!(snap.epoch(), e);
                        assert_eq!(snap.epoch_of(RelId(0)), vr);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.snapshot().total_tuples(), 50);
    }
}
