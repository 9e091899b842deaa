//! The log writer: turns the storage engine's [`WalOp`] stream into
//! framed, sequenced records on [`LogStorage`] streams, with group-commit
//! fsync batching.
//!
//! One `WalWriter` is attached to exactly one writer lineage of a
//! [`bcq_storage::Database`] (via `Database::set_wal`). Op records go to
//! the touched relation's stream (`rel-<n>`); interning records go to the
//! shared `meta` stream. Every record gets the next global sequence
//! number — the merge key recovery sorts by.
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
//! The policy is applied in one of two modes:
//!
//! * **Inline** (the default): [`WalSink::record`] itself fsyncs when the
//!   policy says so — right for a single-threaded writer attached
//!   directly to a database.
//! * **Deferred** ([`WalWriter::set_deferred`]): `record` only appends —
//!   it never blocks on an fsync — and the *serving tier* calls
//!   [`WalWriter::ack`] after releasing its commit lock. Concurrent
//!   writers that ack while a flush is in flight wait for it and share
//!   it: one fsync durably covers every record appended before the
//!   **leader** started it ([`WalWriter::sync_through`]), so under
//!   [`SyncPolicy::Always`] an acknowledged write is always on disk
//!   (fsync-before-ack) while the fsync cost amortizes across however
//!   many writers raced into the batch.
//!
//! ## Errors
//!
//! `WalSink::record` is infallible by contract, so I/O failures are
//! stashed ([`WalWriter::take_error`]) and surfaced on the next explicit
//! `sync()`; the in-memory store keeps serving either way.

use crate::frame::{crc32, FRAME_HEADER};
use crate::record::encode_op_into;
use crate::storage::LogStorage;
use bcq_storage::{WalOp, WalSink};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The stream interning records are written to.
pub const META_STREAM: &str = "meta";

/// The stream name for one relation's records.
pub fn rel_stream(rel: u32) -> String {
    format!("rel-{rel}")
}

/// Parses a `rel-<n>` stream name back to the relation index.
pub fn parse_rel_stream(stream: &str) -> Option<u32> {
    stream.strip_prefix("rel-")?.parse().ok()
}

/// The log's streams (`meta` and every `rel-<n>`), sorted by name.
pub(crate) fn log_streams(storage: &dyn LogStorage) -> io::Result<Vec<String>> {
    let mut streams: Vec<String> = storage
        .streams()?
        .into_iter()
        .filter(|s| s == META_STREAM || parse_rel_stream(s).is_some())
        .collect();
    streams.sort();
    Ok(streams)
}

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
    /// Framed bytes appended across all streams.
    pub bytes: u64,
    /// Fsync batches issued by the writer (policy-driven + explicit).
    pub fsyncs: u64,
    /// Deferred-mode group flushes that covered ≥ 1 new commit.
    pub group_batches: u64,
    /// Commit-bearing records covered by those group flushes.
    pub group_records: u64,
}

#[derive(Debug)]
struct WriterInner {
    next_seq: u64,
    /// Commit-bearing records appended since the last fsync.
    unsynced_ops: u64,
    /// First I/O failure since the last `take_error`, if any.
    error: Option<io::Error>,
    /// Reused frame-encoding buffer: the steady-state record path
    /// performs zero heap allocations of its own.
    scratch: Vec<u8>,
    /// Lazily built `rel-<n>` stream names, indexed by relation.
    rel_streams: Vec<String>,
}

/// The flush-coordination state for deferred (group-commit) mode.
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
    /// When set, `record` never fsyncs; [`WalWriter::ack`] applies the
    /// policy instead (see the module docs).
    deferred: AtomicBool,
    inner: Mutex<WriterInner>,
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
            deferred: AtomicBool::new(false),
            inner: Mutex::new(WriterInner {
                next_seq: start_seq,
                unsynced_ops: 0,
                error: None,
                scratch: Vec::with_capacity(128),
                rel_streams: Vec::new(),
            }),
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

    /// Switches between inline policy application (`false`, the default)
    /// and deferred group commit driven by [`WalWriter::ack`] (`true`).
    pub fn set_deferred(&self, deferred: bool) {
        self.deferred.store(deferred, Ordering::Release);
    }

    /// Whether deferred group-commit mode is on.
    pub fn is_deferred(&self) -> bool {
        self.deferred.load(Ordering::Acquire)
    }

    /// The storage this writer appends to (checkpoints write here too).
    pub fn storage(&self) -> &Arc<dyn LogStorage> {
        &self.storage
    }

    /// The flush policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The last sequence number assigned (0 if none since `start_seq`
    /// was 1).
    pub fn last_seq(&self) -> u64 {
        self.inner.lock().unwrap().next_seq - 1
    }

    /// Flushes everything appended so far, surfacing any stashed write
    /// error first.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        // Snapshot the watermarks while holding `inner`: no append can
        // race past them, so the fsync below certainly covers them.
        let seq = self.appended_seq.load(Ordering::Acquire);
        let commits = self.commits.load(Ordering::Acquire);
        self.storage.sync()?;
        inner.unsynced_ops = 0;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.durable_seq.fetch_max(seq, Ordering::AcqRel);
        self.durable_commits.fetch_max(commits, Ordering::AcqRel);
        Ok(())
    }

    /// Takes the first I/O error stashed by the infallible record path.
    pub fn take_error(&self) -> Option<io::Error> {
        self.inner.lock().unwrap().error.take()
    }

    /// Commit-bearing records appended but not yet covered by an fsync.
    pub fn pending_commits(&self) -> u64 {
        self.commits
            .load(Ordering::Acquire)
            .saturating_sub(self.durable_commits.load(Ordering::Acquire))
    }

    /// Highest sequence number known durable (covered by an fsync).
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq.load(Ordering::Acquire)
    }

    /// Deferred-mode durability point for one serving-tier write, called
    /// *after* the caller released its commit lock. Applies the policy:
    /// `Always` waits until everything appended so far is fsynced (joining
    /// an in-flight flush when one exists — fsync-before-ack); `EveryOps(n)`
    /// flushes only once `n` commits are pending and never waits behind
    /// another leader; `Manual` does nothing. Returns the number of commits
    /// this call's own flush(es) newly made durable (the group-commit batch
    /// size), or `None` if it didn't lead a flush. No-op outside deferred
    /// mode, where `record` already applied the policy inline.
    pub fn ack(&self) -> io::Result<Option<u64>> {
        if !self.is_deferred() {
            return Ok(None);
        }
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
    pub fn sync_through(&self, seq: u64) -> io::Result<Option<u64>> {
        let mut led: Option<u64> = None;
        while self.durable_seq.load(Ordering::Acquire) < seq {
            let mut st = self.group.lock().unwrap_or_else(|e| e.into_inner());
            if self.durable_seq.load(Ordering::Acquire) >= seq {
                break;
            }
            if st.leading {
                // Follow: the in-flight fsync (started before we checked
                // `durable_seq`) may or may not cover `seq`; re-check on
                // wakeup and lead ourselves if it didn't.
                let _st = self.group_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.leading = true;
            drop(st);
            // Lead: snapshot the append watermarks *before* the fsync so
            // everything at or below them is certainly covered by it
            // (later racing appends just aren't claimed durable yet).
            let target_seq = self.appended_seq.load(Ordering::Acquire);
            let target_commits = self.commits.load(Ordering::Acquire);
            let res = self.storage.sync();
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

        // Frame in place into the reused scratch buffer (placeholder
        // header, payload, then patch len + crc): the record path itself
        // allocates nothing in steady state.
        inner.scratch.clear();
        inner.scratch.extend_from_slice(&[0u8; FRAME_HEADER]);
        encode_op_into(seq, &op, &mut inner.scratch);
        let len = u32::try_from(inner.scratch.len() - FRAME_HEADER).expect("record too large");
        let crc = crc32(&inner.scratch[FRAME_HEADER..]);
        inner.scratch[..4].copy_from_slice(&len.to_le_bytes());
        inner.scratch[4..8].copy_from_slice(&crc.to_le_bytes());

        let stream: &str = match op.rel() {
            None => META_STREAM,
            Some(rel) => {
                while inner.rel_streams.len() <= rel.0 {
                    inner
                        .rel_streams
                        .push(rel_stream(inner.rel_streams.len() as u32));
                }
                &inner.rel_streams[rel.0]
            }
        };
        if let Err(e) = self.storage.append(stream, &inner.scratch) {
            if inner.error.is_none() {
                inner.error = Some(e);
            }
            return;
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add(inner.scratch.len() as u64, Ordering::Relaxed);
        // `inner` is still held, so stores stay monotone.
        self.appended_seq.store(seq, Ordering::Release);
        if op.commit().is_some() {
            self.commits.fetch_add(1, Ordering::Relaxed);
            inner.unsynced_ops += 1;
            if self.is_deferred() {
                // Group-commit mode: the fsync happens in `ack`, off the
                // caller's commit lock.
                return;
            }
            let due = match self.policy {
                SyncPolicy::Always => true,
                SyncPolicy::EveryOps(n) => inner.unsynced_ops >= n.max(1),
                SyncPolicy::Manual => false,
            };
            if due {
                match self.storage.sync() {
                    Ok(()) => {
                        inner.unsynced_ops = 0;
                        self.fsyncs.fetch_add(1, Ordering::Relaxed);
                        self.durable_seq.fetch_max(seq, Ordering::AcqRel);
                        self.durable_commits
                            .fetch_max(self.commits.load(Ordering::Acquire), Ordering::AcqRel);
                    }
                    Err(e) => {
                        if inner.error.is_none() {
                            inner.error = Some(e);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::WalRecord;
    use crate::storage::MemLog;
    use bcq_core::prelude::*;
    use bcq_storage::Database;

    fn catalog() -> std::sync::Arc<Catalog> {
        Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap()
    }

    #[test]
    fn records_land_on_per_relation_streams_with_dense_seqs() {
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

        // meta got the intern; rel streams got their ops; seqs are dense.
        let mut seqs = Vec::new();
        for stream in ["meta", "rel-0", "rel-1"] {
            let bytes = log.read(stream).unwrap();
            let frames = crate::frame::decode_frames(&bytes).unwrap();
            assert!(!frames.frames.is_empty(), "{stream} has records");
            for (_, _, payload) in frames.frames {
                seqs.push(WalRecord::decode(payload).unwrap().seq);
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
        assert_eq!(writer.last_seq(), 4);
        let stats = writer.stats();
        assert_eq!(stats.records, 4);
        assert!(stats.bytes > 0);
        assert_eq!(stats.fsyncs, 0, "manual policy never implicit-syncs");
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::EveryOps(4), 1));
        let mut db = Database::new(catalog());
        db.set_wal(Some(writer.clone()));
        for i in 0..10 {
            db.insert("s", &[Value::int(i)]).unwrap();
        }
        // 10 commits at one fsync per 4: two batches, 2 ops pending.
        assert_eq!(writer.stats().fsyncs, 2);
        assert_eq!(log.syncs(), 2);
        writer.sync().unwrap();
        assert_eq!(writer.stats().fsyncs, 3);

        let always = Arc::new(WalWriter::new(
            Arc::new(MemLog::new()),
            SyncPolicy::Always,
            1,
        ));
        let mut db2 = Database::new(catalog());
        db2.set_wal(Some(always.clone()));
        for i in 0..5 {
            db2.insert("s", &[Value::int(i)]).unwrap();
        }
        assert_eq!(always.stats().fsyncs, 5);
    }

    #[test]
    fn deferred_mode_moves_fsyncs_from_record_to_ack() {
        let log = Arc::new(MemLog::new());
        let writer = Arc::new(WalWriter::new(log.clone(), SyncPolicy::Always, 1));
        writer.set_deferred(true);
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
        assert_eq!(writer.durable_seq(), writer.last_seq());
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
        writer.set_deferred(true);
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
        writer.set_deferred(true);
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
        writer.set_deferred(true);
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
}
