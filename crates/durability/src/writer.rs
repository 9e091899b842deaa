//! The log writer: turns the storage engine's [`WalOp`] stream into
//! framed, sequenced records on the [`LogStorage`] log, with group-commit
//! fsync batching.
//!
//! One `WalWriter` is attached to exactly one writer lineage of a
//! [`bcq_storage::Database`] (via `Database::set_wal`). Every record —
//! row ops, bulk loads, index builds and symbol interning alike — gets
//! the next sequence number and is appended under the same lock, so the
//! log holds its records in sequence order.
//!
//! ## Group commit
//!
//! [`SyncPolicy`] decides when appends are flushed: `Always` fsyncs after
//! every commit-bearing record (strongest durability, slowest writes);
//! `EveryOps(n)` batches `n` commits per fsync — the group-commit mode the
//! serving tier runs with, bounding loss to the last `n` writes while
//! keeping the write path free of per-op fsync stalls; `Manual` leaves
//! flushing entirely to explicit [`WalWriter::sync`] / checkpoint calls.
//!
//! [`WalSink::record`] only appends — it never blocks on an fsync. A
//! record becomes durable at [`WalWriter::ack`], which whoever
//! acknowledges a write calls after it (the serving tier does so after
//! releasing its commit lock), or at an explicit [`WalWriter::sync`].
//! Concurrent writers that ack while a flush is in flight wait for it and
//! share it: one fsync durably covers every record appended before the
//! **leader** started it, so under [`SyncPolicy::Always`] an acknowledged
//! write is always on disk (fsync-before-ack) while the fsync cost
//! amortizes across however many writers raced into the batch.
//!
//! ## Errors
//!
//! `WalSink::record` is infallible by contract, so a failed append is
//! kept instead: the first one **poisons** the writer, and from then on
//! every `ack()` and `sync()` returns an error of its kind and message,
//! under every policy. The record it lost leaves a sequence gap that
//! recovery stops at, so no write after it may be acknowledged durable.
//! A failed fsync poisons it the same way, followers waiting on that
//! flush included: a retried fsync can report success after the kernel
//! dropped the dirty pages it failed to write, so no later flush may
//! vouch for them. The in-memory store keeps serving either way.

use crate::record::encode_frame;
use crate::storage::LogStorage;
use bcq_storage::{WalOp, WalSink};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// When the writer flushes appended records to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync after every commit-bearing record.
    Always,
    /// Group commit: fsync once per `n` commit-bearing records.
    EveryOps(u64),
    /// Never fsync implicitly; only explicit [`WalWriter::sync`] (and
    /// checkpoints) flush.
    Manual,
}

/// Monotonic counters the telemetry layer exposes as WAL gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (op + intern + bulk-row records).
    pub records: u64,
    /// Framed bytes appended to the log.
    pub bytes: u64,
    /// Fsync batches issued by the writer (policy-driven + explicit).
    pub fsyncs: u64,
    /// Flushes led by [`WalWriter::ack`] that covered ≥ 1 new commit.
    pub group_batches: u64,
    /// Commit-bearing records covered by those group flushes.
    pub group_records: u64,
}

#[derive(Debug)]
struct WriterInner {
    next_seq: u64,
    /// Reused frame-encoding buffer: the steady-state record path
    /// performs zero heap allocations of its own.
    scratch: Vec<u8>,
}

/// The flush-coordination state for group commit.
#[derive(Debug, Default)]
struct GroupState {
    /// A leader's fsync is in flight; followers wait on the condvar.
    leading: bool,
}

/// The write-ahead-log writer; implements [`WalSink`] so it can be
/// attached directly to a database.
#[derive(Debug)]
pub struct WalWriter {
    storage: Arc<dyn LogStorage>,
    policy: SyncPolicy,
    inner: Mutex<WriterInner>,
    /// The first failed append's or fsync's kind and message (`io::Error`
    /// is not `Clone`); once set, every `ack` and `sync` fails with it.
    poison: OnceLock<(io::ErrorKind, String)>,
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    /// Highest sequence number whose append to storage has completed.
    appended_seq: AtomicU64,
    /// Highest `appended_seq` value known to be covered by an fsync.
    durable_seq: AtomicU64,
    /// Commit-bearing records appended / covered by an fsync.
    commits: AtomicU64,
    durable_commits: AtomicU64,
    group_batches: AtomicU64,
    group_records: AtomicU64,
    group: Mutex<GroupState>,
    group_cv: Condvar,
}

impl WalWriter {
    /// A writer appending to `storage` from sequence number `start_seq`
    /// (recovery's `last_seq + 1`, or 1 on a fresh log).
    pub fn new(storage: Arc<dyn LogStorage>, policy: SyncPolicy, start_seq: u64) -> WalWriter {
        WalWriter {
            storage,
            policy,
            inner: Mutex::new(WriterInner {
                next_seq: start_seq,
                scratch: Vec::with_capacity(128),
            }),
            poison: OnceLock::new(),
            records: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            appended_seq: AtomicU64::new(start_seq.saturating_sub(1)),
            durable_seq: AtomicU64::new(start_seq.saturating_sub(1)),
            commits: AtomicU64::new(0),
            durable_commits: AtomicU64::new(0),
            group_batches: AtomicU64::new(0),
            group_records: AtomicU64::new(0),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
        }
    }

    /// The storage this writer appends to (checkpoints write here too).
    pub fn storage(&self) -> &Arc<dyn LogStorage> {
        &self.storage
    }

    /// The last sequence number assigned (0 if none since `start_seq`
    /// was 1).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq - 1
    }

    /// Flushes everything appended so far. Fails without flushing once a
    /// failed append or fsync has poisoned the writer (see the module
    /// docs), and poisons it if this fsync fails.
    pub fn sync(&self) -> io::Result<()> {
        self.check_poison()?;
        // Snapshot the watermarks while holding `inner`: no append can
        // race past them, so the fsync below certainly covers them.
        let _inner = self.inner.lock().unwrap();
        let seq = self.appended_seq.load(Ordering::Acquire);
        let commits = self.commits.load(Ordering::Acquire);
        self.storage.sync().map_err(|e| self.poisoned(e))?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.durable_seq.fetch_max(seq, Ordering::AcqRel);
        self.durable_commits.fetch_max(commits, Ordering::AcqRel);
        Ok(())
    }

    /// Poisons the writer with `e` unless it is poisoned already, and
    /// returns the error every later `ack` and `sync` will.
    fn poisoned(&self, e: io::Error) -> io::Error {
        let _ = self.poison.set((e.kind(), e.to_string()));
        self.check_poison()
            .expect_err("the writer was just poisoned")
    }

    /// `Err` with the poisoning call's kind and message once a failed
    /// append or fsync has poisoned the writer.
    pub fn check_poison(&self) -> io::Result<()> {
        match self.poison.get() {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    /// Commit-bearing records appended but not yet covered by an fsync.
    fn pending_commits(&self) -> u64 {
        self.commits
            .load(Ordering::Acquire)
            .saturating_sub(self.durable_commits.load(Ordering::Acquire))
    }

    /// The durability point for one acknowledged write, called after its
    /// record was appended — by the serving tier *after* it released its
    /// commit lock. Applies the policy: `Always` waits until everything
    /// appended so far is fsynced (joining an in-flight flush when one
    /// exists — fsync-before-ack); `EveryOps(n)` flushes only once `n`
    /// commits are pending and never waits behind another leader; `Manual`
    /// does nothing. Returns the number of commits this call's own
    /// flush(es) newly made durable (the group-commit batch size), or
    /// `None` if it didn't lead a flush. Fails under every policy once a
    /// failed append or fsync has poisoned the writer (see the module
    /// docs).
    pub fn ack(&self) -> io::Result<Option<u64>> {
        self.check_poison()?;
        match self.policy {
            SyncPolicy::Manual => Ok(None),
            SyncPolicy::Always => self.sync_through(self.appended_seq.load(Ordering::Acquire)),
            SyncPolicy::EveryOps(n) => {
                if self.pending_commits() < n.max(1) {
                    return Ok(None);
                }
                // Opportunistic: if a flush is already in flight it will
                // cover the pending window; don't stall this ack behind it.
                let st = self.group.lock().unwrap_or_else(|e| e.into_inner());
                if st.leading {
                    return Ok(None);
                }
                drop(st);
                self.sync_through(self.appended_seq.load(Ordering::Acquire))
            }
        }
    }

    /// Blocks until every record with sequence ≤ `seq` is covered by an
    /// fsync, electing one waiting thread as the flush **leader** while
    /// the rest wait for its batch. Returns the total number of commits
    /// this thread's own leaderships newly made durable (`None` if it
    /// only followed).
    fn sync_through(&self, seq: u64) -> io::Result<Option<u64>> {
        let mut led: Option<u64> = None;
        while self.durable_seq.load(Ordering::Acquire) < seq {
            let mut st = self.group.lock().unwrap_or_else(|e| e.into_inner());
            if self.durable_seq.load(Ordering::Acquire) >= seq {
                break;
            }
            if st.leading {
                // Follow: the in-flight fsync (started before we checked
                // `durable_seq`) may or may not cover `seq`; re-check on
                // wakeup — failing if it failed — and lead ourselves if it
                // didn't cover it.
                let _st = self.group_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                self.check_poison()?;
                continue;
            }
            st.leading = true;
            drop(st);
            // Lead: snapshot the append watermarks *before* the fsync so
            // everything at or below them is certainly covered by it
            // (later racing appends just aren't claimed durable yet).
            let target_seq = self.appended_seq.load(Ordering::Acquire);
            let target_commits = self.commits.load(Ordering::Acquire);
            // A failure poisons before the followers wake.
            let res = self.storage.sync().map_err(|e| self.poisoned(e));
            let mut st = self.group.lock().unwrap_or_else(|e| e.into_inner());
            st.leading = false;
            drop(st);
            self.group_cv.notify_all();
            res?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.durable_seq.fetch_max(target_seq, Ordering::AcqRel);
            let prev = self
                .durable_commits
                .fetch_max(target_commits, Ordering::AcqRel);
            let batch = target_commits.saturating_sub(prev);
            if batch > 0 {
                self.group_batches.fetch_add(1, Ordering::Relaxed);
                self.group_records.fetch_add(batch, Ordering::Relaxed);
            }
            led = Some(led.unwrap_or(0) + batch);
        }
        Ok(led)
    }

    /// Counters snapshot for telemetry.
    pub fn stats(&self) -> WalStats {
        WalStats {
            records: self.records.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_batches: self.group_batches.load(Ordering::Relaxed),
            group_records: self.group_records.load(Ordering::Relaxed),
        }
    }
}

impl WalSink for WalWriter {
    fn record(&self, op: WalOp<'_>) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let seq = inner.next_seq;
        inner.next_seq += 1;

        // Frame in place into the reused scratch buffer: the record path
        // itself allocates nothing in steady state.
        encode_frame(seq, &op, &mut inner.scratch);

        if let Err(e) = self.storage.append(&inner.scratch) {
            // Only the first failure is kept (see the module docs).
            let _ = self.poison.set((e.kind(), e.to_string()));
            return;
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(inner.scratch.len() as u64, Ordering::Relaxed);
        // `inner` is still held, so stores stay monotone.
        self.appended_seq.store(seq, Ordering::Release);
        if op.commit().is_some() {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameReader;
    use crate::record::{decode_op, DecodeScratch};
    use crate::storage::{MemLog, SeekRead};
    use bcq_core::prelude::*;
    use bcq_storage::Database;

    fn catalog() -> std::sync::Arc<Catalog> {
        Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap()
    }

    #[test]
    fn records_land_on_the_log_in_dense_seq_order() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Manual, 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
        db.insert("s", &[Value::int(2)]).unwrap();
        assert!(db
            .delete("r", &[Value::str("x"), Value::int(1)])
            .unwrap()
            .is_some());

        // The intern and the three ops, dense and in file order.
        let bytes = log.bytes();
        let mut frames = FrameReader::new(std::io::Cursor::new(&bytes), bytes.len() as u64);
        let mut seqs = Vec::new();
        while let Some(payload) = frames.next_frame().unwrap() {
            seqs.push(decode_op(payload, &mut DecodeScratch::default()).unwrap().0);
        }
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert_eq!(writer.last_seq(), 4);
        let stats = writer.stats();
        assert_eq!(stats.records, 4);
        assert!(stats.bytes > 0);
        assert_eq!(stats.fsyncs, 0, "manual policy never implicit-syncs");
    }

    #[test]
    fn deferred_mode_moves_fsyncs_from_record_to_ack() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Always, 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        for i in 0..3 {
            db.insert("s", &[Value::int(i)]).unwrap();
        }
        // Records appended, nothing flushed: the commit section never
        // paid for an fsync.
        assert_eq!(log.syncs(), 0);
        assert!(log.unsynced_bytes() > 0);
        assert_eq!(writer.pending_commits(), 3);

        // The ack leads one flush covering all three commits.
        assert_eq!(writer.ack().unwrap(), Some(3));
        assert_eq!(log.syncs(), 1);
        assert_eq!(log.unsynced_bytes(), 0);
        assert_eq!(writer.pending_commits(), 0);
        assert_eq!(
            writer.durable_seq.load(Ordering::Acquire),
            writer.last_seq()
        );
        let stats = writer.stats();
        assert_eq!((stats.group_batches, stats.group_records), (1, 3));

        // Already durable: the next ack is free.
        assert_eq!(writer.ack().unwrap(), None);
        assert_eq!(log.syncs(), 1);
    }

    #[test]
    fn deferred_every_ops_flushes_only_at_the_batch_boundary() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::EveryOps(4), 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        for i in 0..10 {
            db.insert("s", &[Value::int(i)]).unwrap();
            writer.ack().unwrap();
        }
        // 10 commits at one flush per 4 pending: two batches, 2 left over.
        assert_eq!(log.syncs(), 2);
        assert_eq!(writer.pending_commits(), 2);
        let stats = writer.stats();
        assert_eq!((stats.group_batches, stats.group_records), (2, 8));
    }

    #[test]
    fn concurrent_acks_share_a_flush() {
        use std::sync::atomic::AtomicU64;

        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Always, 1));
        let db = Mutex::new(Database::new(catalog()));
        db.lock().unwrap().set_wal(Some(writer.clone()));

        let batched = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let writer = &writer;
                let db = &db;
                let batched = &batched;
                s.spawn(move || {
                    for i in 0..50 {
                        db.lock()
                            .unwrap()
                            .insert("s", &[Value::int(t * 1000 + i)])
                            .unwrap();
                        if let Some(batch) = writer.ack().unwrap() {
                            batched.fetch_add(batch, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        // Every commit was acked durable, exactly once, across however
        // many shared flushes the race produced.
        assert_eq!(writer.pending_commits(), 0);
        assert_eq!(log.unsynced_bytes(), 0);
        assert_eq!(batched.load(Ordering::Relaxed), 200);
        let stats = writer.stats();
        assert_eq!(stats.group_records, 200);
        assert!(stats.group_batches <= 200);
        assert_eq!(log.syncs(), stats.fsyncs);
    }

    #[test]
    fn acked_commits_survive_a_crash_that_drops_all_unsynced_bytes() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Always, 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        db.insert("s", &[Value::int(1)]).unwrap();
        writer.ack().unwrap();
        // Unacked tail: appended but never flushed.
        db.insert("s", &[Value::int(2)]).unwrap();
        log.crash(0);

        let (recovered, _report) = crate::recover(log.as_ref(), catalog()).unwrap();
        let rows: Vec<_> = recovered.value_rows(RelId(1)).collect();
        assert_eq!(
            rows,
            vec![vec![Value::int(1)]],
            "acked row survives, unacked tail is gone"
        );
    }

    #[test]
    fn a_failed_append_poisons_every_later_sync_and_ack() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Manual, 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        db.insert("s", &[Value::int(1)]).unwrap();
        log.fail_after(0);
        db.insert("s", &[Value::int(2)]).unwrap();
        // The restart disarms the fault, so storage itself works again;
        // the writer still refuses.
        log.crash(0);
        for _ in 0..2 {
            let e = writer.sync().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::Other);
            assert!(e.to_string().contains("injected failure"), "{e}");
        }
        assert!(writer.ack().is_err(), "a Manual ack is refused too");
        assert_eq!((log.syncs(), writer.stats().fsyncs), (0, 0));
    }

    /// A [`MemLog`] whose next `sync` fails once, then syncs again.
    #[derive(Debug, Default)]
    struct FlakySync {
        log: MemLog,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl LogStorage for FlakySync {
        fn append(&self, bytes: &[u8]) -> io::Result<()> {
            self.log.append(bytes)
        }
        fn sync(&self) -> io::Result<()> {
            if self.fail_next.swap(false, Ordering::SeqCst) {
                return Err(io::Error::other("EIO on fsync"));
            }
            self.log.sync()
        }
        fn read(&self) -> io::Result<(Box<dyn SeekRead + '_>, u64)> {
            self.log.read()
        }
        fn truncate(&self, len: u64) -> io::Result<()> {
            self.log.truncate(len)
        }
        fn replace(
            &self,
            fill: &mut dyn FnMut(&mut dyn std::io::Write) -> io::Result<()>,
        ) -> io::Result<()> {
            self.log.replace(fill)
        }
    }

    #[test]
    fn a_failed_fsync_poisons_every_later_ack_and_sync() {
        for policy in [SyncPolicy::Always, SyncPolicy::EveryOps(1)] {
            let storage = Arc::new(FlakySync::default());
            let writer = Arc::new(WalWriter::new(storage.clone(), policy, 1));
            let mut db = Database::new(catalog());
            db.set_wal(Some(writer.clone()));
            db.insert("s", &[Value::int(1)]).unwrap();
            storage.fail_next.store(true, Ordering::SeqCst);
            let e = writer.ack().unwrap_err();
            assert!(e.to_string().contains("EIO on fsync"), "{policy:?}: {e}");
            // The storage would sync now; the writer does not retry.
            db.insert("s", &[Value::int(2)]).unwrap();
            for _ in 0..2 {
                let e = writer.ack().unwrap_err();
                assert!(e.to_string().contains("EIO on fsync"), "{policy:?}: {e}");
                assert!(writer.sync().is_err(), "{policy:?}");
            }
            assert_eq!(
                storage.log.syncs(),
                0,
                "{policy:?}: no fsync after the failure"
            );
            assert_eq!(writer.stats().fsyncs, 0, "{policy:?}");
        }
    }
}
