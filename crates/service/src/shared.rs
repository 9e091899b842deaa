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
//! A write that races outstanding snapshots clones one shard (the touched
//! relation's table + indices), however many other relations the database
//! holds. `write` is the exclusive **commit section**; each relation also
//! has a write latch ([`SharedDb::lock_rel`]), and a bulk write runs aside
//! on a copy (`SharedDb::write_aside`). The serving tier's lock order over
//! them is in the `server` module docs.

use bcq_core::prelude::RelId;
use bcq_storage::Database;
use bcq_telemetry::{FromDb, MetricsSnapshot};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::Instant;

/// Locks a mutex, recovering from poison, as every lock of the serving
/// tier does: what they guard (the database handle, latches, plan cache,
/// views, bulk gate) changes only by self-consistent steps — storage
/// mutations keep the database valid at each one — so a thread that
/// panicked holding a lock leaves nothing later holders would mis-read,
/// and one panicking request does not brick the server.
pub(crate) fn lock_recovered<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Read-locks an `RwLock`, recovering from poison (same rationale as
/// [`lock_recovered`]).
pub(crate) fn read_recovered<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks an `RwLock`, recovering from poison.
pub(crate) fn write_recovered<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

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
    /// other here.
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
                let guard = lock_recovered(latch);
                RelLatch {
                    _guard: guard,
                    wait_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    contended: true,
                }
            }
        }
    }

    /// `true` when snapshots (or clones) of the current state are still
    /// outstanding, so an in-place mutation would copy-on-write anyway —
    /// how the serving tier picks between its in-place and off-lock write
    /// paths. A stale answer is benign either way (a needless clone, or a
    /// copy-on-write inside the commit section).
    pub fn has_snapshots(&self) -> bool {
        Arc::strong_count(&read_recovered(&self.inner)) > 1
    }

    /// An immutable snapshot of the current state. Cheap (`Arc` clone);
    /// the snapshot stays valid — and unchanged, global epoch and vector
    /// clock included — however many writes happen after it is taken.
    pub fn snapshot(&self) -> Arc<Database> {
        Arc::clone(&read_recovered(&self.inner))
    }

    /// Runs `f` against the database with exclusive write access — the
    /// **commit section** (callers doing more than installing prepared
    /// state exclude latched writers themselves). The mutation
    /// copy-on-writes only the shards it touches; every other shard stays
    /// pointer-shared with outstanding snapshots. Returns `f`'s result.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut guard = write_recovered(&self.inner);
        // Shallow clone when snapshots are outstanding: O(relations)
        // pointer bumps, never table data.
        f(Arc::make_mut(&mut guard))
    }

    /// Runs `f` on a copy of the current state, off the commit section, and
    /// publishes the copy when `f` returns or unwinds (a panicking `f`
    /// publishes what it applied and logged). Snapshots taken meanwhile see
    /// the state before; the copy clones only the shards `f` touches. The
    /// caller excludes every other writer, whose commit would be lost.
    pub(crate) fn write_aside<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut next = self.snapshot();
        let r = panic::catch_unwind(AssertUnwindSafe(|| f(Arc::make_mut(&mut next))));
        // Bound, so the state replaced is freed off the lock.
        let _before = std::mem::replace(&mut *write_recovered(&self.inner), next);
        r.unwrap_or_else(|p| panic::resume_unwind(p))
    }

    /// Fills the rows the current state counts of itself — copy-on-write
    /// amplification, bulk ingest and the storage gauges — in a metrics
    /// snapshot.
    pub(crate) fn sample(&self, snap: &mut MetricsSnapshot) {
        let db = self.snapshot();
        let ingest = db.ingest_stats();
        let (index_keys, index_bytes) = db.index_footprint();
        snap.sample(|m| match m {
            FromDb::cow_shard_clones => db.cow_clones(),
            FromDb::cow_cells_cloned => db.cow_cells_cloned(),
            FromDb::rows => ingest.rows,
            FromDb::chunks => ingest.chunks,
            FromDb::bytes => ingest.cell_bytes,
            FromDb::intern_batch_hits => ingest.intern_batch_hits,
            FromDb::relations => db.num_relations() as u64,
            FromDb::total_tuples => db.total_tuples() as u64,
            FromDb::interner_symbols => db.symbols().len() as u64,
            FromDb::index_keys => index_keys as u64,
            FromDb::index_bytes => index_bytes as u64,
            FromDb::table_bytes => db.table_bytes() as u64,
            FromDb::epoch => db.epoch(),
        });
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
