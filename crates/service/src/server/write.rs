//! The write path: row writes ([`Server::insert`] / [`Server::delete`],
//! one body) and bulk writes ([`Server::bulk_update`]).

use super::{dur_ns, Server};
use crate::shared::{read_recovered, write_recovered};
use bcq_core::prelude::Value;
use bcq_storage::{Database, Prepare, RowOp};
use std::time::Instant;

impl Server {
    /// Inserts one row and returns its id. Every index of the relation is
    /// maintained, so cached plans stay valid; a view reading the
    /// relation re-evaluates on its next read. See `write_row` for the
    /// locks taken and when the write is durable.
    pub fn insert(&self, rel_name: &str, row: &[Value]) -> crate::Result<u32> {
        let rid = self.write_row(RowOp::Insert, rel_name, row)?;
        Ok(rid.expect("an insert always lands"))
    }

    /// Deletes one copy of `row` (tombstone-free swap-remove + posting
    /// fix-up, indices maintained): the epoch advances and a new snapshot
    /// is published — readers holding snapshots taken before the delete
    /// still see the old rows. Returns `false` — with no epoch bump and no
    /// WAL traffic — if no copy of `row` is stored.
    pub fn delete(&self, rel_name: &str, row: &[Value]) -> crate::Result<bool> {
        Ok(self.write_row(RowOp::Delete, rel_name, row)?.is_some())
    }

    /// The one served row write (see the module docs' lock order): gate →
    /// latch → commit → `wal_ack` → metrics. Returns the row id the
    /// storage layer reported (the appended row's for an insert, the
    /// removed copy's pre-swap id for a delete), or `None` when nothing
    /// changed (a delete that found no copy), in which case nothing was
    /// logged or recorded. The latch and the shared bulk gate together
    /// exclude every other writer that could touch this shard between the
    /// off-lock prepare ([`Database::prepare`]) and the commit.
    fn write_row(&self, op: RowOp, rel_name: &str, row: &[Value]) -> crate::Result<Option<u32>> {
        let write_start = Instant::now();
        let rel = self.access.catalog().require_rel(rel_name)?;
        // Shared on the bulk gate: excludes bulk writes/checkpoints, not
        // other row writers.
        let gate = read_recovered(&self.gate);
        let latch = self.shared.lock_rel(rel);
        self.metrics
            .record_lock_wait(latch.wait_ns, latch.contended);
        // `None`: no snapshot is outstanding, the shard is uniquely owned.
        let prepared = if self.shared.has_snapshots() {
            Some(self.shared.snapshot().prepare(op, rel_name, row)?)
        } else {
            None
        };
        let rid = if matches!(prepared, Some(Prepare::Absent)) {
            // The latch is still held, so a concurrent same-relation
            // writer cannot invalidate this verdict.
            None
        } else {
            let hold = Instant::now();
            let rid = self.shared.write(|db| match (prepared, op) {
                (Some(Prepare::Ready(p)), _) => Ok(Some(db.commit_prepared(p))),
                // Nothing to copy, or a row value missed the interner
                // (encoding needs `&mut SymbolTable`): in place under the
                // commit lock.
                (_, RowOp::Insert) => db.insert(rel_name, row).map(Some),
                (_, RowOp::Delete) => db.delete(rel_name, row),
            })?;
            self.metrics.record_commit_hold(dur_ns(hold.elapsed()));
            rid
        };
        drop(latch);
        drop(gate);
        if rid.is_some() {
            // The WAL record was appended inside the commit section (log
            // order = commit order); the fsync that makes it durable is
            // shared with concurrent writers and waited on lock-free.
            self.wal_ack()?;
            self.metrics
                .record_write(op == RowOp::Insert, dur_ns(write_start.elapsed()));
        }
        Ok(rid)
    }

    /// Runs an arbitrary batch mutation (a [`Database::bulk_loader`] load,
    /// row edits, index work), then builds every declared index it left
    /// missing and publishes the result. Returns `f`'s result. Exclusive on
    /// the bulk gate, so no row writer or checkpoint runs meanwhile; `f`
    /// runs on a copy of the state, so reads keep serving the state before
    /// it. Views whose relations it wrote re-evaluate on their next read.
    /// A loader's rows count as ingest where they land (the database's
    /// totals); the index rebuild's time is `index_build_ns`.
    pub fn bulk_update<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let _gate = write_recovered(&self.gate);
        let (r, build_ns) = self.shared.write_aside(|db| {
            let r = f(db);
            let start = Instant::now();
            db.build_indexes(&self.access);
            (r, dur_ns(start.elapsed()))
        });
        if self.metrics.is_enabled() {
            self.metrics.bulk_updates.inc();
            self.metrics.index_build_ns.add(build_ns);
        }
        // Best-effort group-commit wait (the signature has no error
        // slot): a failed fsync is retried by the next `wal_ack` /
        // [`Server::wal_sync`] caller, and a failed append poisoned the
        // log, so every later write, `wal_sync` and checkpoint reports it.
        let _ = self.wal_ack();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixtures::{bind, setup, template};
    use crate::server::AdmissionPolicy;
    use bcq_core::error::CoreError;
    use bcq_core::prelude::RelId;
    use std::sync::Arc;

    #[test]
    fn inserts_are_visible_to_cached_plans_and_bump_the_epoch() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1);
        let e0 = before.stats.epoch;

        // u3's tagging of u0 on p2 exists; u3 just needs to become a friend.
        server
            .insert("friends", &[Value::str("u0"), Value::str("u3")])
            .unwrap();
        let after = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(after.stats.epoch > e0);
        assert!(after.stats.cache_hit, "plan survived the maintained insert");
        assert_eq!(after.rows().unwrap().len(), 2);
        assert!(after.rows().unwrap().contains(&[Value::str("p2")]));
    }

    #[test]
    fn bulk_updates_keep_cached_plans_correct() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        s.query(&q1, &bind("a0", "u0")).unwrap();

        // A bulk write goes around `Server::insert`; the indices are
        // rebuilt inside the write and the cached plan keeps serving.
        server.bulk_update(|db| {
            db.insert(
                "tagging",
                &[Value::str("p3"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        });
        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2, "p1 and now p3");
        assert!(r.stats.cache_hit);
        assert_eq!(server.cache_stats().misses, 1);

        // A bulk loader drops the relation's indices; the rebuild that
        // follows the closure is the build `index_build_ns` is named after.
        let built_before = server.metrics_snapshot().ingest.index_build_ns;
        server.bulk_update(|db| {
            let tagging = db.catalog().require_rel("tagging").unwrap();
            db.bulk_loader(tagging).push_rows(&[
                Value::str("p2"),
                Value::str("u1"),
                Value::str("u0"),
            ]);
        });
        assert!(server.metrics_snapshot().ingest.index_build_ns > built_before);
        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(
            r.rows().unwrap().len(),
            3,
            "and p2, through rebuilt indices"
        );
    }

    #[test]
    fn bulk_load_streams_chunks_and_keeps_queries_correct() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();
        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1);

        // One columnar chunk through the fast path: a matching row plus an
        // unrelated one. Indices rebuild inside the same write.
        let cols: Vec<Vec<Value>> = vec![
            vec![Value::str("p3"), Value::str("p9")],
            vec![Value::str("u1"), Value::str("u1")],
            vec![Value::str("u0"), Value::str("u7")],
        ];
        let stats = server
            .bulk_update(|db| {
                let mut loader = db.bulk_loader(db.catalog().require_rel("tagging")?);
                loader.push_chunk_columns(&cols);
                Ok::<_, CoreError>(loader.stats())
            })
            .unwrap();
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.chunks, 1);

        let r = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2, "p1 and now p3");

        let snap = server.metrics_snapshot();
        assert_eq!(snap.ingest.rows, 2);
        assert_eq!(snap.ingest.chunks, 1);
        assert!(snap.ingest.bytes > 0, "cell bytes counted");
        assert!(snap.writes.bulk_updates >= 1);

        // An unknown relation is a typed error, not a panic.
        assert!(server
            .bulk_update(|db| db.catalog().require_rel("nope"))
            .is_err());
    }

    #[test]
    fn deletes_retract_answers_and_respect_snapshots() {
        let server = setup(AdmissionPolicy::Strict);
        let q1 = template(&server);
        let mut s = server.session();

        let before = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(before.rows().unwrap().len(), 1); // p1
        let e0 = before.stats.epoch;
        let old_snap = server.snapshot();

        // Deleting the tagging that supports p1 retracts it.
        assert!(server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());
        let after = s.query(&q1, &bind("a0", "u0")).unwrap();
        assert!(after.stats.epoch > e0, "delete bumps the epoch");
        assert!(after.stats.cache_hit, "plan survived the maintained delete");
        assert!(after.rows().unwrap().is_empty());

        // A snapshot taken before the delete still sees the old row.
        assert_eq!(old_snap.epoch(), e0);
        assert!(old_snap
            .contains_row(
                old_snap.catalog().require_rel("tagging").unwrap(),
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());

        // Deleting a row that is not stored reports false, bumps nothing.
        let e1 = server.epoch();
        assert!(!server
            .delete(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap());
        assert_eq!(server.epoch(), e1);
    }

    #[test]
    fn single_row_writes_leave_untouched_shards_pointer_equal() {
        let server = setup(AdmissionPolicy::Strict);
        let (albums, friends, tagging) = (RelId(0), RelId(1), RelId(2));

        let before = server.snapshot();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap();
        let after = server.snapshot();
        assert!(
            Arc::ptr_eq(before.shard(albums), after.shard(albums)),
            "insert copied only the friends shard"
        );
        assert!(Arc::ptr_eq(before.shard(tagging), after.shard(tagging)));
        assert!(!Arc::ptr_eq(before.shard(friends), after.shard(friends)));

        let before = after;
        assert!(server
            .delete("friends", &[Value::str("u0"), Value::str("u7")])
            .unwrap());
        let after = server.snapshot();
        assert!(
            Arc::ptr_eq(before.shard(albums), after.shard(albums)),
            "delete copied only the friends shard"
        );
        assert!(Arc::ptr_eq(before.shard(tagging), after.shard(tagging)));
        assert!(!Arc::ptr_eq(before.shard(friends), after.shard(friends)));
        // The held snapshot is frozen; the new state lost the row.
        assert_eq!(before.table(friends).len(), 4);
        assert_eq!(after.table(friends).len(), 3);
    }

    #[test]
    fn disjoint_relation_writers_commit_in_parallel_and_agree() {
        let server = setup(AdmissionPolicy::Strict);
        // Pin a snapshot for the whole run so every write must take the
        // prepared (off-the-commit-lock) path rather than mutating the
        // uniquely owned shard in place.
        let pinned = server.snapshot();
        let base: Vec<usize> = (0..3).map(|i| pinned.table(RelId(i)).len()).collect();

        const PER_THREAD: i64 = 50;
        let mut handles = Vec::new();
        for (t, rel_name) in ["in_album", "friends", "tagging"].iter().enumerate() {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tag = Value::str(format!("w{t}"));
                    let row: Vec<Value> = match *rel_name {
                        "tagging" => vec![Value::int(i), tag.clone(), tag],
                        _ => vec![Value::int(i), tag],
                    };
                    server.insert(rel_name, &row).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }

        // The pinned snapshot never moved; the committed state holds
        // every thread's rows and a consistent vector clock.
        let after = server.snapshot();
        for (i, b) in base.iter().enumerate() {
            assert_eq!(pinned.table(RelId(i)).len(), *b, "snapshot frozen");
            assert_eq!(after.table(RelId(i)).len(), b + PER_THREAD as usize);
            assert!(after.epoch_of(RelId(i)) > 0);
            assert!(after.epoch_of(RelId(i)) <= after.epoch());
        }
        assert_eq!(after.epoch(), pinned.epoch() + 3 * PER_THREAD as u64);
        // Contention telemetry exists even if this 1-core run never
        // actually collided: the histograms are present, not negative.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.writes.inserts, 3 * PER_THREAD as u64);
    }

    #[test]
    fn a_loader_inside_bulk_update_counts_as_ingest() {
        let server = setup(AdmissionPolicy::Strict);
        let ingest = || server.metrics_snapshot().ingest;
        let before = ingest();
        assert_eq!((before.rows, before.chunks, before.bytes), (0, 0, 0));

        // Row edits inside a bulk write are not ingest.
        server.bulk_update(|db| {
            db.insert("friends", &[Value::str("u0"), Value::str("u4")])
                .unwrap();
        });
        assert_eq!(ingest().rows, 0);

        // Two loaders, three chunks, five rows.
        let loads = server.bulk_update(|db| {
            let tagging = db.catalog().require_rel("tagging").unwrap();
            let mut loader = db.bulk_loader(tagging);
            let rows = |t: &str| [Value::str("p7"), Value::str(t), Value::str("u0")];
            loader.push_rows(&rows("u1"));
            loader.push_rows(&[rows("u2"), rows("u3")].concat());
            let first = loader.stats();
            drop(loader);
            let mut loader = db.bulk_loader(db.catalog().require_rel("in_album").unwrap());
            let cols = [
                vec![Value::str("p7"), Value::str("p8")],
                vec![Value::str("a7"), Value::str("a7")],
            ];
            loader.push_chunk_columns(&cols);
            [first, loader.stats()]
        });
        let after = ingest();
        assert_eq!((after.rows, after.chunks), (5, 3));
        assert_eq!(after.bytes, loads[0].cell_bytes + loads[1].cell_bytes);
        assert_eq!(
            after.bytes,
            (3 * 3 + 2 * 2) * 8,
            "one 8-byte cell per value"
        );
        assert_eq!(server.metrics_snapshot().writes.bulk_updates, 2);
    }
}
