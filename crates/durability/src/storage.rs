//! Where log bytes live: the [`LogStorage`] trait, its in-memory
//! fault-injecting implementation ([`MemLog`]), and the real-directory
//! implementation ([`DirLog`]).
//!
//! The trait is deliberately tiny — one log, appended to, read, cut and
//! replaced whole — so the entire recovery path can be driven against
//! [`MemLog`]'s simulated crashes in unit tests and proptests: no temp
//! dirs, no real fsync, and byte-exact control over what survives.
//!
//! The log is streamed both ways, never held as one buffer by recovery or
//! a checkpoint: [`LogStorage::read`] hands out a seekable reader, and
//! [`LogStorage::replace`] lets a writer fill the new log through a
//! sink, so a checkpoint or a recovery costs a chunk of memory beside the
//! database, not a second copy of it. [`DirLog`] streams through a
//! buffered temp file; [`MemLog`] collects the new log and journals it as
//! one write.
//!
//! ## The `MemLog` crash model
//!
//! `MemLog` keeps a single **journal** of every write (appends and
//! replacements) in arrival order, with a durability watermark advanced
//! by [`LogStorage::sync`]. [`MemLog::crash`] keeps everything below the
//! watermark plus an arbitrary byte-prefix of the unsynced suffix — so a
//! simulated crash can land *mid-record* (torn tail), exactly the state a
//! kernel panic leaves on a real disk; a replacement is a rename, so a
//! crash keeps it whole or not at all. [`MemLog::set_fsync_lies`] makes
//! `sync` claim success without advancing the watermark, modelling drives
//! that acknowledge flushes from volatile cache. [`MemLog::fail_after`]
//! makes every mutating call past a count fail, so a test can stop a
//! multi-step operation (a checkpoint) at any step and then `crash` there.

use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// A log's bytes as [`LogStorage::read`] streams them: a reader that can
/// seek back, so recovery can check a bulk load through to its end and
/// then read it again to apply it.
pub trait SeekRead: Read + Seek {}

impl<T: Read + Seek + ?Sized> SeekRead for T {}

/// Byte-level storage for the write-ahead log.
///
/// The log is one append-only byte sequence, which a checkpoint replaces
/// whole. All methods take `&self`: implementations are internally
/// synchronized, and the single-writer discipline lives above (the WAL
/// writer serializes appends).
pub trait LogStorage: Send + Sync + std::fmt::Debug {
    /// Appends bytes to the log (created on first append).
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable.
    fn sync(&self) -> io::Result<()>;
    /// A reader over the log and its length in bytes (empty if it was
    /// never written).
    fn read(&self) -> io::Result<(Box<dyn SeekRead + '_>, u64)>;
    /// Durably discards log bytes beyond `len` (a no-op on a log never
    /// written): recovery cuts torn and discarded tails with it.
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// Replaces the whole log with the bytes `fill` streams into the sink,
    /// durably: once this returns, the log is the new one, and a crash at
    /// any point keeps either the old log or the new one, whole. If `fill`
    /// fails, so does the replacement, and the old log stays.
    fn replace(&self, fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>) -> io::Result<()>;
}

/// One write in the `MemLog` journal.
#[derive(Debug, Clone)]
enum Entry {
    /// Bytes appended to the log.
    Append(Vec<u8>),
    /// A whole new log ([`LogStorage::replace`]), dropping what was before.
    Replace(Vec<u8>),
}

impl Entry {
    fn bytes(&self) -> &[u8] {
        match self {
            Entry::Append(bytes) | Entry::Replace(bytes) => bytes,
        }
    }
}

#[derive(Debug, Default)]
struct MemInner {
    /// Every write in arrival order; the crash model's source of truth.
    journal: Vec<Entry>,
    /// Journal entries at or below this index are durable.
    durable_entries: usize,
    fsync_lies: bool,
    syncs: u64,
    /// Mutating calls left before every one fails ([`MemLog::fail_after`]).
    fail_after: Option<u64>,
}

impl MemInner {
    /// The entries the log's bytes are made of: from the last replacement
    /// on.
    fn live(&self) -> usize {
        let replaced = self
            .journal
            .iter()
            .rposition(|e| matches!(e, Entry::Replace(_)));
        replaced.unwrap_or(0)
    }

    /// Materializes the current byte content of the log.
    fn log_bytes(&self) -> Vec<u8> {
        self.journal[self.live()..]
            .iter()
            .flat_map(Entry::bytes)
            .copied()
            .collect()
    }

    /// Charges one mutating call against the fault hook.
    fn charge(&mut self) -> io::Result<()> {
        if let Some(left) = self.fail_after.as_mut() {
            if *left == 0 {
                return Err(io::Error::other("MemLog: injected failure (fail_after)"));
            }
            *left -= 1;
        }
        Ok(())
    }
}

/// In-memory [`LogStorage`] with simulated crashes and fsync lies. See
/// the [module docs](self) for the model.
#[derive(Debug, Default)]
pub struct MemLog {
    inner: Mutex<MemInner>,
}

impl MemLog {
    /// An empty volatile log.
    pub fn new() -> Self {
        MemLog::default()
    }

    /// The log's bytes, as [`LogStorage::read`] would stream them.
    pub fn bytes(&self) -> Vec<u8> {
        self.inner.lock().unwrap().log_bytes()
    }

    /// Total bytes written but not yet durable — the crash window.
    /// [`MemLog::crash`] accepts any `keep` in `0..=unsynced_bytes()`.
    pub fn unsynced_bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.journal[inner.durable_entries..]
            .iter()
            .map(|e| e.bytes().len())
            .sum()
    }

    /// Number of `sync` calls observed (including lied-about ones).
    pub fn syncs(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }

    /// Simulates a crash: everything durable survives, plus the first
    /// `keep_unsynced` bytes of the unsynced suffix in write order — which
    /// can cut an append **mid-record**; a replacement survives only
    /// whole, or not at all. Everything written after the cut is gone, as
    /// after a power loss. Disarms [`MemLog::fail_after`]: the restarted
    /// process writes again.
    pub fn crash(&self, keep_unsynced: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.fail_after = None;
        let mut journal: Vec<Entry> = inner.journal[..inner.durable_entries].to_vec();
        let mut budget = keep_unsynced;
        for e in &inner.journal[inner.durable_entries..] {
            let len = e.bytes().len();
            match e {
                _ if len <= budget => {
                    budget -= len;
                    journal.push(e.clone());
                }
                Entry::Append(bytes) if budget > 0 => {
                    journal.push(Entry::Append(bytes[..budget].to_vec()));
                    break;
                }
                _ => break,
            }
        }
        inner.durable_entries = journal.len();
        inner.journal = journal;
    }

    /// Makes `sync` report success without making anything durable — the
    /// lying-drive fault. Crashes then lose writes the caller was told
    /// were safe.
    pub fn set_fsync_lies(&self, lies: bool) {
        self.inner.lock().unwrap().fsync_lies = lies;
    }

    /// Fault hook: the next `n` mutating calls (`append`, `sync`,
    /// `truncate`, and each of a `replace`'s three steps: its temp file's
    /// fsync, its rename, the directory's fsync) succeed and every later
    /// one fails without touching the log — the process died there.
    /// Follow it with [`MemLog::crash`], which disarms the hook.
    pub fn fail_after(&self, n: u64) {
        self.inner.lock().unwrap().fail_after = Some(n);
    }

    /// Locks the log for one mutating call, charged against the fault hook.
    fn mutate(&self) -> io::Result<MutexGuard<'_, MemInner>> {
        let mut inner = self.inner.lock().unwrap();
        inner.charge()?;
        Ok(inner)
    }

    /// Flips one byte at `offset` of the log — in-place corruption for
    /// testing that recovery fails loudly instead of replaying garbage.
    pub fn corrupt_byte(&self, offset: usize) {
        let mut inner = self.inner.lock().unwrap();
        let live = inner.live();
        let mut pos = 0;
        for e in &mut inner.journal[live..] {
            let (Entry::Append(bytes) | Entry::Replace(bytes)) = e;
            if offset < pos + bytes.len() {
                bytes[offset - pos] ^= 0x40;
                return;
            }
            pos += bytes.len();
        }
        panic!("corrupt_byte: offset {offset} beyond the log ({pos} bytes)");
    }
}

impl LogStorage for MemLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.mutate()?.journal.push(Entry::Append(bytes.to_vec()));
        Ok(())
    }

    fn sync(&self) -> io::Result<()> {
        let mut inner = self.mutate()?;
        inner.syncs += 1;
        if !inner.fsync_lies {
            inner.durable_entries = inner.journal.len();
        }
        Ok(())
    }

    fn read(&self) -> io::Result<(Box<dyn SeekRead + '_>, u64)> {
        let bytes = self.bytes();
        let len = bytes.len() as u64;
        Ok((Box::new(io::Cursor::new(bytes)), len))
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let mut inner = self.mutate()?;
        let mut bytes = inner.log_bytes();
        bytes.truncate(len as usize);
        // A truncation finalizes the surviving bytes: the rewritten
        // journal is durable (DirLog's set_len + fsync behaves the same).
        inner.journal = vec![Entry::Replace(bytes)];
        inner.durable_entries = 1;
        Ok(())
    }

    fn replace(&self, fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>) -> io::Result<()> {
        let mut bytes = Vec::new();
        fill(&mut bytes)?;
        // The temp file's fsync, then the rename: a failure at either
        // leaves the old log.
        let mut inner = self.mutate()?;
        inner.charge()?;
        inner.journal.push(Entry::Replace(bytes));
        // The directory's fsync: failing it leaves the rename done but not
        // durable, so a crash keeps the old log or the new one.
        inner.charge()?;
        inner.durable_entries = inner.journal.len();
        Ok(())
    }
}

/// The file holding the log in a [`DirLog`] directory.
const LOG_FILE: &str = "wal.log";

/// The file [`LogStorage::replace`] streams a new log into before renaming
/// it over [`LOG_FILE`].
const REPLACE_FILE: &str = "wal.log.tmp";

/// Bytes a [`DirLog`] buffers a replacement's writes in.
const CHUNK: usize = 64 * 1024;

/// [`LogStorage`] over a real directory: the log is `wal.log`, opened for
/// append. A replacement streams through a buffered temp file, which is
/// fsynced and renamed over the log, and then the directory is fsynced;
/// a fill that fails removes the temp file. Every call that creates or
/// renames a file fsyncs the directory before it returns, so a log it
/// reported written stays so across a power loss. This is what production
/// servers and the kill-recover CI smoke use; the unit-test matrix runs on
/// [`MemLog`].
#[derive(Debug)]
pub struct DirLog {
    dir: PathBuf,
    /// The log's append handle, opened on first use.
    file: Mutex<Option<std::fs::File>>,
}

impl DirLog {
    /// Opens (creating if needed) a log directory, removing a
    /// `wal.log.tmp` a crash left behind: a replacement that never reached
    /// its rename is not the log, only dead bytes.
    ///
    /// Refuses, touching nothing, a directory holding any `*.log` file but
    /// `wal.log`, or a `snap-*.blob`: those are the per-relation streams
    /// and the snapshots of older layouts, and recovering without them
    /// would silently drop logged history.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DirLog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let old = (name.ends_with(".log") && name != LOG_FILE)
                || (name.starts_with("snap-") && name.ends_with(".blob"));
            if old {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: a file of an older layout; this version reads only `{LOG_FILE}`",
                        path.display()
                    ),
                ));
            }
        }
        let log = DirLog {
            dir,
            file: Mutex::new(None),
        };
        match std::fs::remove_file(log.dir.join(REPLACE_FILE)) {
            Ok(()) => log.sync_dir()?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(log)
    }

    /// The directory backing this log.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Makes the directory's entries durable: a file created, renamed or
    /// unlinked is only certain to keep that name after this.
    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(&self.dir)?.sync_all()
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
    }
}

impl LogStorage for DirLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = self.file.lock().unwrap();
        if file.is_none() {
            let path = self.log_path();
            let mut open = std::fs::OpenOptions::new();
            open.append(true);
            *file = Some(match open.clone().create_new(true).open(&path) {
                Ok(f) => {
                    self.sync_dir()?;
                    f
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => open.open(&path)?,
                Err(e) => return Err(e),
            });
        }
        file.as_mut().unwrap().write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        match &*self.file.lock().unwrap() {
            Some(f) => f.sync_all(),
            None => Ok(()),
        }
    }

    fn read(&self) -> io::Result<(Box<dyn SeekRead + '_>, u64)> {
        match std::fs::File::open(self.log_path()) {
            Ok(file) => {
                let len = file.metadata()?.len();
                Ok((Box::new(file), len))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Box::new(io::empty()), 0)),
            Err(e) => Err(e),
        }
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        // Drop the cached append handle: append-mode offsets are managed
        // by the kernel, but a fresh handle keeps the bookkeeping simple.
        *self.file.lock().unwrap() = None;
        let f = match std::fs::OpenOptions::new()
            .write(true)
            .open(self.log_path())
        {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        f.set_len(len)?;
        f.sync_all()
    }

    fn replace(&self, fill: &mut dyn FnMut(&mut dyn Write) -> io::Result<()>) -> io::Result<()> {
        let tmp = self.dir.join(REPLACE_FILE);
        let written = std::fs::File::create(&tmp).and_then(|file| {
            let mut sink = io::BufWriter::with_capacity(CHUNK, file);
            fill(&mut sink)?;
            sink.into_inner()
                .map_err(io::IntoInnerError::into_error)?
                .sync_all()
        });
        if let Err(e) = written {
            // Best effort: a temp file left behind is also removed by the
            // next `open`.
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Appends after this go to the new log.
        *self.file.lock().unwrap() = None;
        std::fs::rename(&tmp, self.log_path())?;
        self.sync_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replaces `log`'s content with `bytes` in one fill.
    fn put(log: &dyn LogStorage, bytes: &[u8]) -> io::Result<()> {
        log.replace(&mut |sink| sink.write_all(bytes))
    }

    /// The log's bytes, read to the end; checks the reported length.
    fn get(log: &dyn LogStorage) -> Vec<u8> {
        let (mut reader, len) = log.read().unwrap();
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, len, "log length");
        bytes
    }

    #[test]
    fn memlog_appends_reads_and_replaces_the_log() {
        let log = MemLog::new();
        assert_eq!(get(&log), b"");
        log.append(b"one").unwrap();
        log.append(b"-more").unwrap();
        assert_eq!(get(&log), b"one-more");
        put(&log, b"two").unwrap();
        log.append(b"-after").unwrap();
        assert_eq!(get(&log), b"two-after");
        assert_eq!(log.bytes(), b"two-after");
        // The reader seeks back.
        let (mut reader, _) = log.read().unwrap();
        let mut head = [0; 3];
        reader.read_exact(&mut head).unwrap();
        reader.seek(io::SeekFrom::Start(1)).unwrap();
        reader.read_exact(&mut head).unwrap();
        assert_eq!(&head, b"wo-");
    }

    #[test]
    fn crash_discards_unsynced_suffix_by_byte() {
        let log = MemLog::new();
        log.append(b"durable").unwrap();
        log.sync().unwrap();
        log.append(b"lost-soon").unwrap();
        log.append(b"also-lost").unwrap();
        assert_eq!(log.unsynced_bytes(), 18);
        // Keep 4 unsynced bytes: a mid-append cut of the first entry.
        log.crash(4);
        assert_eq!(get(&log), b"durablelost");
        assert_eq!(log.unsynced_bytes(), 0, "survivors are durable");
    }

    #[test]
    fn fsync_lies_lose_acknowledged_writes() {
        let log = MemLog::new();
        log.set_fsync_lies(true);
        log.append(b"gone").unwrap();
        log.sync().unwrap(); // claims success
        log.crash(0);
        assert_eq!(get(&log), b"");
        assert_eq!(log.syncs(), 1);
    }

    #[test]
    fn a_replacement_is_durable_and_survives_a_crash_whole() {
        let log = MemLog::new();
        log.append(b"old-unsynced").unwrap();
        put(&log, b"0123456789").unwrap();
        assert_eq!(log.unsynced_bytes(), 0, "durable when it returns");
        log.append(b"tail").unwrap();
        log.crash(2);
        assert_eq!(get(&log), b"0123456789ta");

        // A fill that fails leaves the old log.
        let failed = log.replace(&mut |sink| {
            sink.write_all(b"part")?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(get(&log), b"0123456789ta");
    }

    #[test]
    fn a_crash_inside_a_replacement_keeps_the_old_log_or_the_new_one() {
        // The replacement's steps: the temp file's fsync, the rename, the
        // directory's fsync. A crash before the rename keeps the old log;
        // one after it but before the directory's fsync keeps either.
        for step in 0..=3 {
            for keep in [0, 3, 6] {
                let log = MemLog::new();
                log.append(b"old").unwrap();
                log.sync().unwrap();
                log.fail_after(step);
                let replaced = put(&log, b"newlog");
                assert_eq!(replaced.is_ok(), step == 3, "step {step}");
                log.crash(keep);
                let want: &[u8] = match step {
                    0 | 1 => b"old",
                    2 if keep < 6 => b"old",
                    _ => b"newlog",
                };
                assert_eq!(get(&log), want, "step {step}, keep {keep}");
            }
        }
    }

    #[test]
    fn truncate_cuts_the_log() {
        let log = MemLog::new();
        log.append(b"0123").unwrap();
        put(&log, b"abcd").unwrap();
        log.append(b"4567").unwrap();
        log.truncate(6).unwrap();
        assert_eq!(get(&log), b"abcd45");
        log.truncate(0).unwrap();
        assert_eq!(get(&log), b"");
    }

    #[test]
    fn fail_after_fails_every_later_mutation_until_a_crash() {
        let log = MemLog::new();
        log.fail_after(2);
        log.append(b"one").unwrap();
        log.sync().unwrap();
        assert!(log.append(b"two").is_err());
        assert!(put(&log, b"x").is_err());
        assert!(log.truncate(0).is_err());
        assert_eq!(get(&log), b"one", "a failed call wrote nothing");
        log.crash(0);
        log.append(b"two").unwrap();
        assert_eq!(get(&log), b"onetwo");
    }

    #[test]
    fn corrupt_byte_flips_in_place() {
        let log = MemLog::new();
        log.append(b"xy").unwrap();
        put(&log, b"ab").unwrap();
        log.append(b"cd").unwrap();
        log.corrupt_byte(2);
        let bytes = get(&log);
        assert_eq!(bytes[0], b'a');
        assert_ne!(bytes[2], b'c');
    }

    /// A fresh, empty directory under the system temp dir.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bcq-dirlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dirlog_roundtrips_on_disk() {
        let dir = temp_dir("roundtrip");
        {
            let log = DirLog::open(&dir).unwrap();
            log.truncate(0).unwrap(); // never written: a no-op
            assert_eq!(get(&log), b"");
            log.append(b"hello ").unwrap();
            log.append(b"world").unwrap();
            log.sync().unwrap();
        }
        // A replacement that died before its rename.
        std::fs::write(dir.join(REPLACE_FILE), b"half").unwrap();
        {
            // Reopen: everything persisted, the stale temp file is gone.
            let log = DirLog::open(&dir).unwrap();
            assert!(!dir.join(REPLACE_FILE).exists());
            assert_eq!(get(&log), b"hello world");
            log.truncate(5).unwrap();
            assert_eq!(get(&log), b"hello");
            log.append(b"!").unwrap();
            assert_eq!(get(&log), b"hello!");
            // A replacement drops the cached append handle: the next
            // append lands on the new log.
            put(&log, b"fresh").unwrap();
            log.append(b" start").unwrap();
            log.sync().unwrap();
            assert_eq!(get(&log), b"fresh start");
        }
        let log = DirLog::open(&dir).unwrap();
        assert_eq!(get(&log), b"fresh start");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirlog_fill_that_fails_keeps_the_log_and_leaves_no_temp_file() {
        let dir = temp_dir("failed-fill");
        let log = DirLog::open(&dir).unwrap();
        log.append(b"older").unwrap();
        let err = log
            .replace(&mut |sink| {
                sink.write_all(&[7; 100_000])?;
                Err(io::Error::other("disk full"))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert!(!dir.join(REPLACE_FILE).exists());
        assert_eq!(get(&log), b"older");
        log.append(b"+").unwrap();
        assert_eq!(get(&log), b"older+");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirlog_refuses_a_directory_of_an_older_layout() {
        // Per-relation streams (an interning stream and one per relation)
        // and a snapshot blob beside the log.
        let rel = 0;
        let olds = [
            "meta.log".to_string(),
            format!("rel-{rel}.log"),
            "snap-00000000000000000042.blob".to_string(),
        ];
        for old in olds {
            let dir = temp_dir("old-layout");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&old), b"history").unwrap();
            std::fs::write(dir.join(REPLACE_FILE), b"half").unwrap();
            let err = DirLog::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{old}");
            assert!(err.to_string().contains(&old), "{err}");
            assert_eq!(std::fs::read(dir.join(&old)).unwrap(), b"history");
            assert!(
                dir.join(REPLACE_FILE).exists(),
                "{old}: a refusal removes nothing"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
