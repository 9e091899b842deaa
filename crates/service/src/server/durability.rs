//! Durability wiring: [`Server::open`], the group-commit wait every write
//! ends with, [`Server::wal_sync`] and [`Server::checkpoint`].

use super::{Server, ServerConfig, ServiceError, ViewId};
use crate::shared::write_recovered;
use bcq_core::access::AccessSchema;
use bcq_core::prelude::SpcQuery;
use bcq_durability::{recover, LogStorage, RecoveryReport, SyncPolicy, WalStats, WalWriter};
use bcq_storage::WalSink;
use bcq_telemetry::{FromWal, Hist, MetricsSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Durability knobs for [`Server::open`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// When the WAL writer fsyncs ([`SyncPolicy::Always`] = no acknowledged
    /// write is ever lost; `EveryOps(n)` = group commit, at most the last
    /// `n` writes lost on a crash).
    pub policy: SyncPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            policy: SyncPolicy::EveryOps(64),
        }
    }
}

/// The durable half of an opened server: the attached WAL writer (and
/// through it the log storage), and recovery/checkpoint bookkeeping.
pub(super) struct DurabilityState {
    writer: Arc<WalWriter>,
    /// Records replayed by the recovery that opened this server.
    replayed: u64,
    checkpoints: AtomicU64,
    /// Log bytes since the last cut are the writer's byte counter plus
    /// this: the tail recovery kept at open, then minus the counter's
    /// value at each checkpoint's cut. The record path never touches it.
    retained_offset: AtomicI64,
    /// Bytes of the compacted base the log begins with: the last one a
    /// checkpoint wrote, or the one recovery replayed.
    snapshot_bytes: AtomicU64,
}

impl DurabilityState {
    /// Fills the WAL rows of a metrics snapshot.
    pub(super) fn sample(&self, snap: &mut MetricsSnapshot) {
        let ws = self.writer.stats();
        snap.sample(|m| match m {
            FromWal::records => ws.records,
            FromWal::bytes => ws.bytes,
            FromWal::fsyncs => ws.fsyncs,
            FromWal::group_batches => ws.group_batches,
            FromWal::group_records => ws.group_records,
            FromWal::replayed => self.replayed,
            FromWal::checkpoints => self.checkpoints.load(Ordering::Relaxed),
            FromWal::last_seq => self.writer.last_seq(),
            FromWal::retained_bytes => {
                let retained = ws.bytes as i64 + self.retained_offset.load(Ordering::Relaxed);
                retained.max(0) as u64
            }
            FromWal::snapshot_bytes => self.snapshot_bytes.load(Ordering::Relaxed),
        });
    }
}

impl Server {
    /// Opens a **durable** server over `storage`: recovers the database
    /// by replaying the log (a checkpoint's compacted base and the records
    /// after it, [`bcq_durability::recover()`]), attaches a WAL
    /// writer so every subsequent write — single-row writes, bulk
    /// updates, index builds — is logged before it is acknowledged, and
    /// re-registers `views` (each evaluates against the recovered state on
    /// its first read).
    ///
    /// Returns the server, the [`RecoveryReport`] (the base it replayed,
    /// the records past it, what was discarded), and the ids of the
    /// re-registered views in `views` order.
    ///
    /// On first boot (empty storage) recovery yields the empty database and
    /// the index builds declared by `access` are themselves logged, so the
    /// next `open` replays them. With group commit
    /// ([`SyncPolicy::EveryOps`]) the tail of unsynced writes is flushed by
    /// [`Server::wal_sync`] or [`Server::checkpoint`].
    ///
    /// A failed WAL append or fsync poisons the log. From then on a row
    /// write is refused inside the commit section, before it applies, so no
    /// reader sees it; it, `wal_sync` and `checkpoint` return
    /// [`ServiceError::Durability`]. The write whose own append or fsync
    /// failed has committed (its append runs inside the commit section,
    /// after it applied) and only its ack fails; recovery keeps it only if
    /// its record reached the disk. [`Server::bulk_update`] has no error
    /// slot and still applies.
    pub fn open(
        storage: Arc<dyn LogStorage>,
        access: AccessSchema,
        config: ServerConfig,
        durability: DurabilityConfig,
        views: &[SpcQuery],
    ) -> crate::Result<(Server, RecoveryReport, Vec<ViewId>)> {
        let catalog = Arc::clone(access.catalog());
        let (mut db, report) =
            recover(&*storage, catalog).map_err(|e| ServiceError::Durability(e.to_string()))?;

        // Attach the writer before `Server::new`: its `build_indexes` runs
        // through the WAL-emitting funnel, so an index built fresh here is
        // itself durable (and a replayed one is a silent no-op).
        let writer = Arc::new(WalWriter::new(
            Arc::clone(&storage),
            durability.policy,
            report.last_seq + 1,
        ));
        db.set_wal(Some(Arc::clone(&writer) as Arc<dyn WalSink>));
        let mut server = Server::new(db, access, config);
        server.durability = Some(DurabilityState {
            writer,
            replayed: report.replayed,
            checkpoints: AtomicU64::new(0),
            retained_offset: AtomicI64::new(report.log_bytes as i64),
            snapshot_bytes: AtomicU64::new(report.snapshot_bytes),
        });

        let ids = views
            .iter()
            .map(|q| server.register_view(q))
            .collect::<crate::Result<Vec<_>>>()?;
        // Barrier: recovery realignment and this boot's index builds are
        // durable before the first request is served.
        server.wal_sync()?;
        Ok((server, report, ids))
    }

    /// Flushes the WAL's group-commit tail; fails once a failed append
    /// has poisoned the log. A no-op on a server without durability. Call
    /// before acknowledging a batch under [`SyncPolicy::EveryOps`] /
    /// [`SyncPolicy::Manual`].
    pub fn wal_sync(&self) -> crate::Result<()> {
        self.with_wal(WalWriter::sync)
    }

    /// `f` of the WAL writer, its error a [`ServiceError::Durability`];
    /// `T::default()` on a server without durability.
    pub(super) fn with_wal<T: Default>(
        &self,
        f: impl FnOnce(&WalWriter) -> std::io::Result<T>,
    ) -> crate::Result<T> {
        match &self.durability {
            Some(d) => f(&d.writer).map_err(|e| ServiceError::Durability(e.to_string())),
            None => Ok(T::default()),
        }
    }

    /// The WAL writer's monotonic counters (records, bytes, fsyncs), if
    /// this server was opened with durability.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.writer.stats())
    }

    /// Takes a checkpoint: flushes the WAL and replaces the log, atomically,
    /// with the records of the current state — its interns, one bulk load
    /// per relation, its index records and the vector clock
    /// ([`bcq_durability::checkpoint()`]) — so the storage holds exactly one
    /// copy of the data and recovery after this point replays that base
    /// plus the records written since. Returns the base's length in bytes.
    pub fn checkpoint(&self) -> crate::Result<u64> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| ServiceError::Durability("server opened without durability".into()))?;
        // The base replaces the log, so no record may land past it. Every
        // record is appended under the bulk gate, so exclusive on it the
        // published state is exactly the one the log describes; reads go on.
        let _gate = write_recovered(&self.gate);
        let db = self.shared.snapshot();
        let written = bcq_durability::checkpoint(&d.writer, &db)
            .map_err(|e| ServiceError::Durability(e.to_string()))?;
        d.retained_offset
            .store(-(d.writer.stats().bytes as i64), Ordering::Relaxed);
        d.snapshot_bytes.store(written, Ordering::Relaxed);
        d.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(written)
    }

    /// Waits until every WAL record appended so far is durable per the
    /// sync policy, sharing the fsync with concurrently committing
    /// writers (group commit). Called with **no serving locks held** —
    /// this is what keeps fsync time out of the commit section. Records
    /// the batch size when this thread ends up leading a flush. A no-op
    /// without durability or under [`SyncPolicy::Manual`].
    pub(super) fn wal_ack(&self) -> crate::Result<()> {
        if let Some(batch) = self.with_wal(WalWriter::ack)? {
            self.metrics.record(Hist::group_batch_sizes, batch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::fixtures::{bind, schema, setup, template};
    use crate::server::AdmissionPolicy;
    use bcq_core::prelude::{RelId, Value};

    /// Example 1's Q0 (ground: album a0, user u0) — the view the durable
    /// tests register.
    fn view_query(a: &AccessSchema) -> SpcQuery {
        SpcQuery::builder(Arc::clone(a.catalog()), "Q0")
            .atom("in_album", "ia")
            .atom("friends", "f")
            .atom("tagging", "t")
            .eq_const(("ia", "album_id"), "a0")
            .eq_const(("f", "user_id"), "u0")
            .eq(("ia", "photo_id"), ("t", "photo_id"))
            .eq(("t", "tagger_id"), ("f", "friend_id"))
            .eq_const(("t", "taggee_id"), "u0")
            .project(("ia", "photo_id"))
            .build()
            .unwrap()
    }

    fn open_durable(
        log: &Arc<bcq_durability::MemLog>,
        policy: SyncPolicy,
    ) -> (Arc<Server>, RecoveryReport, ViewId) {
        let (server, report, ids) = Server::open(
            Arc::clone(log) as Arc<dyn LogStorage>,
            schema(),
            ServerConfig {
                policy: AdmissionPolicy::Strict,
                ..ServerConfig::default()
            },
            DurabilityConfig { policy },
            &[view_query(&schema())],
        )
        .unwrap();
        (Arc::new(server), report, ids[0])
    }

    #[test]
    fn durable_server_recovers_rows_views_and_serving_across_restart() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, report, view) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(report.replayed, 0, "first boot: empty storage");
        assert_eq!(report.snapshot_bytes, 0);

        // Example 1's data, written *through* the server so it is logged.
        for (p, al) in [("p1", "a0"), ("p2", "a0"), ("p3", "a0"), ("p4", "a1")] {
            server
                .insert("in_album", &[Value::str(p), Value::str(al)])
                .unwrap();
        }
        for (u, f) in [("u0", "u1"), ("u0", "u2"), ("u9", "u3")] {
            server
                .insert("friends", &[Value::str(u), Value::str(f)])
                .unwrap();
        }
        server
            .insert(
                "tagging",
                &[Value::str("p1"), Value::str("u1"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 1);
        let base = server.checkpoint().unwrap();
        // One copy: the log is the compacted base alone.
        assert_eq!(log.bytes().len() as u64, base, "the log is the base");
        let m = server.metrics_snapshot();
        assert_eq!(m.wal.retained_bytes, 0);
        assert_eq!(m.wal.snapshot_bytes, base);

        // One more write past the checkpoint, then "crash".
        server
            .insert(
                "tagging",
                &[Value::str("p2"), Value::str("u2"), Value::str("u0")],
            )
            .unwrap();
        assert_eq!(server.view_result(view).unwrap().len(), 2);
        let epoch = server.epoch();
        let rows: Vec<Vec<Value>> = {
            let snap = server.snapshot();
            let rel = snap.catalog().require_rel("tagging").unwrap();
            snap.value_rows(rel).collect()
        };
        drop(server);

        let (server2, report2, view2) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(report2.snapshot_bytes, base);
        assert!(report2.replayed > 0, "the post-checkpoint insert replays");
        assert_eq!(server2.epoch(), epoch, "vector clock reproduced");
        {
            let snap = server2.snapshot();
            let rel = snap.catalog().require_rel("tagging").unwrap();
            let recovered: Vec<Vec<Value>> = snap.value_rows(rel).collect();
            assert_eq!(recovered, rows);
        }
        // The re-registered view evaluates against the recovered state.
        assert_eq!(server2.view_result(view2).unwrap().len(), 2);
        let m = server2.metrics_snapshot();
        assert!(m.wal.replayed > 0);
        assert_eq!(m.wal.last_seq, report2.last_seq);
        // The reopened log holds the one post-checkpoint write and the
        // gauges say so.
        assert!(report2.log_bytes > 0);
        assert_eq!(m.wal.retained_bytes, report2.log_bytes);
        assert_eq!(m.wal.snapshot_bytes, report2.snapshot_bytes);

        // And the recovered server serves queries normally.
        let q1 = template(&server2);
        let r = server2.session().query(&q1, &bind("a0", "u0")).unwrap();
        assert_eq!(r.rows().unwrap().len(), 2);
    }

    /// A disk that fills up under a log replacement: no new log grows past
    /// `cap` bytes. Everything else is the wrapped `MemLog`'s.
    #[derive(Debug)]
    struct FullDisk {
        log: Arc<bcq_durability::MemLog>,
        cap: AtomicU64,
    }

    /// A replacement's sink on a [`FullDisk`]: a write past `cap` fails.
    struct Capped<'a> {
        sink: &'a mut dyn std::io::Write,
        room: u64,
    }

    impl std::io::Write for Capped<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 && !buf.is_empty() {
                return Err(std::io::ErrorKind::StorageFull.into());
            }
            let n = self.sink.write(&buf[..buf.len().min(self.room as usize)])?;
            self.room -= n as u64;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.sink.flush()
        }
    }

    impl LogStorage for FullDisk {
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.log.append(bytes)
        }
        fn sync(&self) -> std::io::Result<()> {
            self.log.sync()
        }
        fn read(&self) -> std::io::Result<(Box<dyn bcq_durability::SeekRead + '_>, u64)> {
            self.log.read()
        }
        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.log.truncate(len)
        }
        fn replace(
            &self,
            fill: &mut dyn FnMut(&mut dyn std::io::Write) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            let room = self.cap.load(Ordering::Relaxed);
            self.log
                .replace(&mut |sink| fill(&mut Capped { sink, room }))
        }
    }

    #[test]
    fn a_disk_full_mid_checkpoint_fails_it_and_keeps_the_log() {
        type State = (u64, Vec<Vec<Vec<Value>>>);
        let state = |server: &Server| -> State {
            let snap = server.snapshot();
            let rels = (0..snap.num_relations()).map(|i| snap.value_rows(RelId(i)).collect());
            (snap.epoch(), rels.collect())
        };
        let open = |disk: &Arc<FullDisk>| {
            let storage = Arc::clone(disk) as Arc<dyn LogStorage>;
            let policy = SyncPolicy::Always;
            let config = ServerConfig {
                policy: AdmissionPolicy::Strict,
                ..ServerConfig::default()
            };
            Server::open(storage, schema(), config, DurabilityConfig { policy }, &[])
                .unwrap()
                .0
        };
        // An older checkpoint, then writes the log holds past its base.
        let scenario = || {
            let log = Arc::new(bcq_durability::MemLog::new());
            let disk = Arc::new(FullDisk {
                log,
                cap: AtomicU64::new(u64::MAX),
            });
            let server = open(&disk);
            server
                .insert("friends", &[Value::str("u0"), Value::str("u1")])
                .unwrap();
            server.checkpoint().unwrap();
            for i in 0..50 {
                server
                    .insert(
                        "tagging",
                        &[Value::int(i), Value::str("u1"), Value::str("u0")],
                    )
                    .unwrap();
            }
            (disk, server)
        };
        let base_len = {
            let (_, server) = scenario();
            server.checkpoint().unwrap()
        };
        // Nothing written, inside the first frame header, mid-base, and
        // all but the last byte.
        for cap in [0, 4, base_len / 2, base_len - 1] {
            let (disk, server) = scenario();
            let before = state(&server);
            let log_before = disk.log.bytes();
            disk.cap.store(cap, Ordering::Relaxed);
            assert!(
                matches!(server.checkpoint(), Err(ServiceError::Durability(_))),
                "cap {cap}"
            );
            assert_eq!(disk.log.bytes(), log_before, "cap {cap}: the log is kept");
            drop(server);

            disk.cap.store(u64::MAX, Ordering::Relaxed);
            let reopened = open(&disk);
            assert_eq!(state(&reopened), before, "cap {cap}");
            // With room again, the checkpoint goes through.
            let base = reopened.checkpoint().unwrap();
            assert_eq!(disk.log.bytes().len() as u64, base, "cap {cap}");
        }
    }

    /// A log whose `sync` waits while its gate is shut, so a test can hold
    /// a writer inside its ack's fsync. Everything else is the wrapped
    /// `MemLog`'s.
    #[derive(Debug, Default)]
    struct GatedLog {
        log: bcq_durability::MemLog,
        /// Whether the gate is shut, and how many syncs wait at it.
        gate: std::sync::Mutex<(bool, usize)>,
        moved: std::sync::Condvar,
    }

    impl GatedLog {
        fn set_shut(&self, shut: bool) {
            self.gate.lock().unwrap().0 = shut;
            self.moved.notify_all();
        }

        /// Returns once a sync waits at the gate.
        fn await_sync(&self) {
            let gate = self.gate.lock().unwrap();
            let timeout = std::time::Duration::from_secs(10);
            let (gate, _) = self
                .moved
                .wait_timeout_while(gate, timeout, |(_, waiting)| *waiting == 0)
                .unwrap();
            assert!(gate.1 > 0, "no sync reached the gate");
        }
    }

    impl LogStorage for GatedLog {
        fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
            self.log.append(bytes)
        }
        fn sync(&self) -> std::io::Result<()> {
            let mut gate = self.gate.lock().unwrap();
            gate.1 += 1;
            self.moved.notify_all();
            let mut gate = self.moved.wait_while(gate, |(shut, _)| *shut).unwrap();
            gate.1 -= 1;
            drop(gate);
            self.log.sync()
        }
        fn read(&self) -> std::io::Result<(Box<dyn bcq_durability::SeekRead + '_>, u64)> {
            self.log.read()
        }
        fn truncate(&self, len: u64) -> std::io::Result<()> {
            self.log.truncate(len)
        }
        fn replace(
            &self,
            fill: &mut dyn FnMut(&mut dyn std::io::Write) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            self.log.replace(fill)
        }
    }

    /// Opens the gate when dropped, so a failing test leaves no writer
    /// blocked at it.
    struct OpenOnDrop<'a>(&'a GatedLog);

    impl Drop for OpenOnDrop<'_> {
        fn drop(&mut self) {
            self.0.set_shut(false);
        }
    }

    #[test]
    fn a_writer_in_its_fsync_holds_up_no_commit_and_no_read() {
        let disk = Arc::new(GatedLog::default());
        let (server, _, _) = Server::open(
            Arc::clone(&disk) as Arc<dyn LogStorage>,
            schema(),
            ServerConfig {
                policy: AdmissionPolicy::Strict,
                ..ServerConfig::default()
            },
            DurabilityConfig {
                policy: SyncPolicy::Always,
            },
            &[],
        )
        .unwrap();
        let server = Arc::new(server);
        let friend = |i: i64| [Value::str("u0"), Value::int(i)];
        let tagged = [Value::str("p1"), Value::str("u1"), Value::str("u0")];
        let of_u0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "of_u0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        disk.set_shut(true);
        std::thread::scope(|scope| {
            let _open = OpenOnDrop(&disk);
            let a = scope.spawn(|| server.insert("friends", &friend(1)));
            disk.await_sync();
            // A has committed and waits in its ack's fsync, holding no lock:
            // a writer on another relation and one on A's relation commit,
            // and a reader is served, before the fsync returns.
            let other = scope.spawn(|| server.insert("tagging", &tagged));
            let same = scope.spawn(|| server.insert("friends", &friend(2)));
            let start = std::time::Instant::now();
            loop {
                let snap = server.snapshot();
                let (friends, tagging) = (RelId(1), RelId(2));
                let has = |rel, row: &[Value]| snap.contains_row(rel, row).unwrap();
                if has(friends, &friend(2)) && has(tagging, &tagged) {
                    break;
                }
                assert!(
                    start.elapsed() < std::time::Duration::from_secs(10),
                    "a writer waited behind the held fsync"
                );
                std::thread::yield_now();
            }
            let read = server.session().query(&of_u0, &Default::default());
            assert_eq!(
                read.unwrap().rows().unwrap().len(),
                2,
                "u0's friends 1 and 2"
            );
            assert!(!a.is_finished(), "A is still in its fsync");
            disk.set_shut(false);
            for w in [a, other, same] {
                w.join().unwrap().unwrap();
            }
        });
    }

    #[test]
    fn group_commit_loses_at_most_the_unsynced_tail() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::EveryOps(1000));
        for i in 0..3 {
            server
                .insert("friends", &[Value::str("u0"), Value::int(i)])
                .unwrap();
        }
        server.wal_sync().unwrap();
        server
            .insert("friends", &[Value::str("u0"), Value::int(99)])
            .unwrap();
        let stats = server.wal_stats().unwrap();
        assert!(stats.records > 0);
        log.crash(0); // power cut: the unsynced tail is gone
        drop(server);

        let (server2, _, _) = open_durable(&log, SyncPolicy::EveryOps(1000));
        let snap = server2.snapshot();
        let rel = snap.catalog().require_rel("friends").unwrap();
        let rows: Vec<Vec<Value>> = snap.value_rows(rel).collect();
        assert_eq!(rows.len(), 3, "synced writes survive, the tail is lost");
        assert!(!rows.contains(&vec![Value::str("u0"), Value::int(99)]));
    }

    #[test]
    fn a_failed_wal_append_fails_every_later_write_and_sync() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::Always);
        let row = |i: i64| [Value::str("u0"), Value::int(i)];
        server.insert("friends", &row(0)).unwrap();
        let before = server.snapshot();
        log.fail_after(0);
        // The write whose own append fails: the append runs inside the
        // commit section, after the write applied, so only its ack fails.
        assert!(matches!(
            server.insert("friends", &row(1)),
            Err(ServiceError::Durability(_))
        ));
        assert_eq!(server.epoch(), before.epoch() + 1);
        // Every later write is refused before it commits.
        assert!(matches!(
            server.insert("friends", &row(2)),
            Err(ServiceError::Durability(_))
        ));
        assert!(matches!(
            server.delete("friends", &row(0)),
            Err(ServiceError::Durability(_))
        ));
        assert!(matches!(
            server.wal_sync(),
            Err(ServiceError::Durability(_))
        ));
        assert_eq!(server.epoch(), before.epoch() + 1);
        let friends = server.snapshot().catalog().require_rel("friends").unwrap();
        let stored: Vec<Vec<Value>> = server.snapshot().value_rows(friends).collect();
        assert_eq!(stored, [row(0).to_vec(), row(1).to_vec()]);
        let of_u0 = SpcQuery::builder(Arc::clone(server.access().catalog()), "of_u0")
            .atom("friends", "f")
            .eq_const(("f", "user_id"), "u0")
            .project(("f", "friend_id"))
            .build()
            .unwrap();
        let served = server.session().query(&of_u0, &Default::default()).unwrap();
        assert_eq!(served.rows().unwrap().len(), 2, "rows 0 and 1, not 2");
        assert!(!served.rows().unwrap().contains(&[Value::int(2)]));
        drop(server);

        log.crash(0);
        let (server2, _, _) = open_durable(&log, SyncPolicy::Always);
        let after = server2.snapshot();
        assert_eq!(after.epoch(), before.epoch());
        for rel in 0..after.num_relations() {
            let rel = RelId(rel);
            assert_eq!(after.epoch_of(rel), before.epoch_of(rel));
            assert_eq!(
                after.value_rows(rel).collect::<Vec<_>>(),
                before.value_rows(rel).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn bulk_updates_replay_and_force_view_recompute() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, view) = open_durable(&log, SyncPolicy::Always);
        server
            .insert("in_album", &[Value::str("p1"), Value::str("a0")])
            .unwrap();
        server
            .insert("friends", &[Value::str("u0"), Value::str("u1")])
            .unwrap();
        // Out-of-band bulk load of tagging: logged as a bracketed bulk.
        server.bulk_update(|db| {
            let rel = db.catalog().require_rel("tagging").unwrap();
            let mut l = db.bulk_loader(rel);
            l.push_rows(&[Value::str("p1"), Value::str("u1"), Value::str("u0")]);
            l.push_rows(&[Value::str("p9"), Value::str("u1"), Value::str("u5")]);
        });
        assert_eq!(server.view_result(view).unwrap().len(), 1);
        let epoch = server.epoch();
        drop(server);

        let (server2, report, view2) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(server2.epoch(), epoch);
        assert!(report.replayed > 0);
        // The view evaluates against the final recovered state.
        assert_eq!(server2.view_result(view2).unwrap().len(), 1);
        assert!(server2.metrics_snapshot().writes.view_recomputes >= 1);
    }

    #[test]
    fn checkpoint_without_durability_is_a_loud_error() {
        let server = setup(AdmissionPolicy::Strict);
        assert!(matches!(
            server.checkpoint(),
            Err(ServiceError::Durability(_))
        ));
        assert!(server.wal_stats().is_none());
        server.wal_sync().unwrap(); // no-op, not an error
    }

    #[test]
    fn concurrent_durable_writers_share_group_commits_and_lose_nothing() {
        let log = Arc::new(bcq_durability::MemLog::new());
        let (server, _, _) = open_durable(&log, SyncPolicy::Always);
        const PER_THREAD: i64 = 25;
        let mut handles = Vec::new();
        for (t, rel_name) in ["in_album", "friends", "tagging"].iter().enumerate() {
            let server = Arc::clone(&server);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tag = Value::str(format!("d{t}"));
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
        let stats = server.wal_stats().unwrap();
        assert!(stats.fsyncs >= 1);
        assert!(
            stats.group_records >= 3 * PER_THREAD as u64,
            "every acked commit was covered by some flush: {stats:?}"
        );
        let epoch = server.epoch();
        drop(server);

        // Power cut discarding everything unsynced: `Always` acked each
        // insert only after a covering fsync, so nothing is lost.
        log.crash(0);
        let (server2, _, _) = open_durable(&log, SyncPolicy::Always);
        assert_eq!(server2.epoch(), epoch);
        let snap = server2.snapshot();
        for rel_name in ["in_album", "friends", "tagging"] {
            let rel = snap.catalog().require_rel(rel_name).unwrap();
            assert!(snap.table(rel).len() >= PER_THREAD as usize);
        }
    }
}
