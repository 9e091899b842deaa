//! Where log bytes live: the [`LogStorage`] trait, its in-memory
//! fault-injecting implementation ([`MemLog`]), and the real-directory
//! implementation ([`DirLog`]).
//!
//! The trait is deliberately tiny — one append-only log plus whole blobs
//! (snapshots) — so the entire recovery path can be driven against
//! [`MemLog`]'s simulated crashes in unit tests and proptests: no temp
//! dirs, no real fsync, and byte-exact control over what survives.
//!
//! Blobs are streamed both ways, never held as one buffer: a writer fills
//! a [`BlobSink`] ([`LogStorage::write_blob`]) and a reader pulls from the
//! blob's reader ([`LogStorage::read_blob`]), so a checkpoint or a
//! recovery costs a chunk of memory beside the database, not a second
//! copy of it. [`DirLog`] streams through a buffered file; [`MemLog`]
//! collects a blob's bytes and journals them as one write.
//!
//! ## The `MemLog` crash model
//!
//! `MemLog` keeps a single **journal** of every write (log appends and
//! blob writes) in arrival order, with a durability watermark advanced by
//! [`LogStorage::sync`]. [`MemLog::crash`] keeps everything below the
//! watermark plus an arbitrary byte-prefix of the unsynced suffix — so a
//! simulated crash can land *mid-record* (torn tail) or *mid-snapshot*
//! (partial blob), exactly the states a kernel panic leaves on a real
//! disk. [`MemLog::set_fsync_lies`] makes `sync` claim success without
//! advancing the watermark, modelling drives that acknowledge flushes
//! from volatile cache. [`MemLog::fail_after`] makes every mutating call
//! past a count fail, so a test can stop a multi-step operation (a
//! checkpoint) at any step and then `crash` there.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Where [`LogStorage::write_blob`] streams a blob: a byte sink that can
/// seek back, so a writer can patch a header once the bytes behind it are
/// out.
pub trait BlobSink: Write + io::Seek {}

impl<T: Write + io::Seek + ?Sized> BlobSink for T {}

/// A blob's bytes, streamed, and how many there are.
pub type BlobReader<'a> = (Box<dyn Read + 'a>, u64);

/// Byte-level storage for the WAL and snapshot blobs.
///
/// The log is one append-only byte sequence; blobs are whole named byte
/// streams (snapshots), written atomically. All methods take `&self`:
/// implementations are internally synchronized, and the single-writer
/// discipline lives above (the WAL writer serializes appends).
pub trait LogStorage: Send + Sync + std::fmt::Debug {
    /// Appends bytes to the log (created on first append).
    fn append(&self, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything written so far durable (log and blobs).
    fn sync(&self) -> io::Result<()>;
    /// The full contents of the log (empty if it was never written).
    fn read(&self) -> io::Result<Vec<u8>>;
    /// Durably discards log bytes beyond `len` (a no-op on a log never
    /// written): recovery cuts torn and discarded tails with it, and a
    /// checkpoint cuts the log to 0 once its snapshot is durable.
    fn truncate(&self, len: u64) -> io::Result<()>;
    /// Writes a whole blob under `name`, replacing any previous one:
    /// `fill` streams its bytes into the sink. If `fill` fails, so does
    /// the write, and no blob appears under `name`.
    fn write_blob(
        &self,
        name: &str,
        fill: &mut dyn FnMut(&mut dyn BlobSink) -> io::Result<()>,
    ) -> io::Result<()>;
    /// Opens a blob for reading: a reader over its bytes and their count;
    /// `None` if absent.
    fn read_blob(&self, name: &str) -> io::Result<Option<BlobReader<'_>>>;
    /// Every blob name present, in unspecified order.
    fn list_blobs(&self) -> io::Result<Vec<String>>;
    /// Removes a blob (no-op if absent).
    fn delete_blob(&self, name: &str) -> io::Result<()>;
}

/// One write in the `MemLog` journal.
#[derive(Debug, Clone)]
enum Entry {
    Append { bytes: Vec<u8> },
    Blob { name: String, bytes: Vec<u8> },
}

impl Entry {
    fn len(&self) -> usize {
        match self {
            Entry::Append { bytes, .. } | Entry::Blob { bytes, .. } => bytes.len(),
        }
    }

    fn truncated(&self, keep: usize) -> Entry {
        let mut e = self.clone();
        match &mut e {
            Entry::Append { bytes, .. } | Entry::Blob { bytes, .. } => bytes.truncate(keep),
        }
        e
    }
}

#[derive(Debug, Default)]
struct MemInner {
    /// Every write in arrival order; the crash model's source of truth.
    journal: Vec<Entry>,
    /// Journal entries at or below this index are durable.
    durable_entries: usize,
    /// Blob deletions tombstone by name (a deleted blob stops resolving
    /// even if its write entry is still journaled).
    deleted_blobs: Vec<String>,
    fsync_lies: bool,
    syncs: u64,
    /// Mutating calls left before every one fails ([`MemLog::fail_after`]).
    fail_after: Option<u64>,
}

impl MemInner {
    /// Materializes the current byte content of the log.
    fn log_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.journal {
            if let Entry::Append { bytes } = e {
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// The latest (possibly partial) write of one blob, minus tombstones.
    fn blob_bytes(&self, name: &str) -> Option<Vec<u8>> {
        if self.deleted_blobs.iter().any(|n| n == name) {
            return None;
        }
        let mut found = None;
        for e in &self.journal {
            if let Entry::Blob { name: n, bytes } = e {
                if n == name {
                    found = Some(bytes.clone());
                }
            }
        }
        found
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

    /// Total bytes written but not yet durable — the crash window.
    /// [`MemLog::crash`] accepts any `keep` in `0..=unsynced_bytes()`.
    pub fn unsynced_bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.journal[inner.durable_entries..]
            .iter()
            .map(Entry::len)
            .sum()
    }

    /// Number of `sync` calls observed (including lied-about ones).
    pub fn syncs(&self) -> u64 {
        self.inner.lock().unwrap().syncs
    }

    /// Simulates a crash: everything durable survives, plus the first
    /// `keep_unsynced` bytes of the unsynced suffix in write order — which
    /// can cut an append **mid-record** or a snapshot blob **mid-blob**.
    /// Everything written after the cut is gone, as after a power loss.
    /// Disarms [`MemLog::fail_after`]: the restarted process writes again.
    pub fn crash(&self, keep_unsynced: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.fail_after = None;
        let mut journal: Vec<Entry> = inner.journal[..inner.durable_entries].to_vec();
        let mut budget = keep_unsynced;
        for e in &inner.journal[inner.durable_entries..] {
            if budget == 0 {
                break;
            }
            if e.len() <= budget {
                budget -= e.len();
                journal.push(e.clone());
            } else {
                journal.push(e.truncated(budget));
                budget = 0;
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
    /// `truncate`, `write_blob`, `delete_blob`) succeed and every later
    /// one fails without touching the log — the process died there. Follow
    /// it with [`MemLog::crash`], which disarms the hook.
    pub fn fail_after(&self, n: u64) {
        self.inner.lock().unwrap().fail_after = Some(n);
    }

    /// Locks the log for one mutating call, charged against the fault hook.
    fn mutate(&self) -> io::Result<MutexGuard<'_, MemInner>> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(left) = inner.fail_after.as_mut() {
            if *left == 0 {
                return Err(io::Error::other("MemLog: injected failure (fail_after)"));
            }
            *left -= 1;
        }
        Ok(inner)
    }

    /// Flips one byte at `offset` of the log — in-place corruption for
    /// testing that recovery fails loudly instead of replaying garbage.
    pub fn corrupt_byte(&self, offset: usize) {
        let mut inner = self.inner.lock().unwrap();
        let mut pos = 0;
        for e in inner.journal.iter_mut() {
            if let Entry::Append { bytes } = e {
                if offset < pos + bytes.len() {
                    bytes[offset - pos] ^= 0x40;
                    return;
                }
                pos += bytes.len();
            }
        }
        panic!("corrupt_byte: offset {offset} beyond the log ({pos} bytes)");
    }

    /// Truncates the stored bytes of blob `name` to `len` — direct
    /// partial-snapshot injection (equivalent to a crash landing inside
    /// the blob write).
    pub fn truncate_blob(&self, name: &str, len: usize) {
        let mut inner = self.inner.lock().unwrap();
        for e in inner.journal.iter_mut().rev() {
            if let Entry::Blob { name: n, bytes } = e {
                if n == name {
                    bytes.truncate(len);
                    return;
                }
            }
        }
        panic!("truncate_blob: no blob `{name}`");
    }
}

impl LogStorage for MemLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.mutate()?.journal.push(Entry::Append {
            bytes: bytes.to_vec(),
        });
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

    fn read(&self) -> io::Result<Vec<u8>> {
        Ok(self.inner.lock().unwrap().log_bytes())
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        let len = len as usize;
        let mut inner = self.mutate()?;
        let mut pos = 0;
        let mut journal = Vec::with_capacity(inner.journal.len());
        for e in inner.journal.drain(..) {
            if let Entry::Append { bytes } = &e {
                let start = pos;
                pos += bytes.len();
                if start >= len {
                    continue; // wholly beyond the cut
                }
                if pos > len {
                    journal.push(e.truncated(len - start));
                    continue;
                }
            }
            journal.push(e);
        }
        // A truncation finalizes the surviving bytes: treat the rewritten
        // journal as durable (DirLog's set_len + fsync behaves the same).
        inner.durable_entries = journal.len();
        inner.journal = journal;
        Ok(())
    }

    fn write_blob(
        &self,
        name: &str,
        fill: &mut dyn FnMut(&mut dyn BlobSink) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut sink = io::Cursor::new(Vec::new());
        fill(&mut sink)?;
        let mut inner = self.mutate()?;
        inner.deleted_blobs.retain(|n| n != name);
        inner.journal.push(Entry::Blob {
            name: name.to_string(),
            bytes: sink.into_inner(),
        });
        Ok(())
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<BlobReader<'_>>> {
        let bytes = self.inner.lock().unwrap().blob_bytes(name);
        Ok(bytes.map(|b| {
            let len = b.len() as u64;
            (Box::new(io::Cursor::new(b)) as Box<dyn Read>, len)
        }))
    }

    fn list_blobs(&self) -> io::Result<Vec<String>> {
        let inner = self.inner.lock().unwrap();
        let mut names: Vec<String> = Vec::new();
        for e in &inner.journal {
            if let Entry::Blob { name, .. } = e {
                if !names.contains(name) && !inner.deleted_blobs.iter().any(|n| n == name) {
                    names.push(name.clone());
                }
            }
        }
        Ok(names)
    }

    fn delete_blob(&self, name: &str) -> io::Result<()> {
        let mut inner = self.mutate()?;
        let name_owned = name.to_string();
        let is_blob = |e: &Entry| matches!(e, Entry::Blob { name: n, .. } if *n == name_owned);
        // The watermark drops by the durable entries removed, so an
        // unsynced entry after the blob stays unsynced.
        let removed_durable = inner.journal[..inner.durable_entries]
            .iter()
            .filter(|e| is_blob(e))
            .count();
        inner.durable_entries -= removed_durable;
        inner.journal.retain(|e| !is_blob(e));
        if !inner.deleted_blobs.contains(&name_owned) {
            inner.deleted_blobs.push(name_owned);
        }
        Ok(())
    }
}

/// The file holding the log in a [`DirLog`] directory.
const LOG_FILE: &str = "wal.log";

/// [`LogStorage`] over a real directory: the log is `wal.log`, opened for
/// append, and blobs are `<name>.blob` files streamed through a buffered
/// temp file, fsynced, and atomically renamed; a fill that fails removes
/// its temp file. Every call that creates, renames or removes a file
/// fsyncs the directory before it returns, so a name it reported written
/// (or gone) stays so across a power loss — a checkpoint's cut must never
/// outlive its snapshot's name. This is what production servers and the
/// kill-recover CI smoke use; the unit-test matrix runs on [`MemLog`].
#[derive(Debug)]
pub struct DirLog {
    dir: PathBuf,
    /// The log's append handle, opened on first use.
    file: Mutex<Option<std::fs::File>>,
}

impl DirLog {
    /// Opens (creating if needed) a log directory, removing any
    /// `*.blob.tmp` a crash left behind: a blob write that never reached
    /// its rename is not a snapshot, only dead bytes.
    ///
    /// Refuses, touching nothing, a directory holding any `*.log` file but
    /// `wal.log`: those are the per-relation streams of an older layout,
    /// and recovering without them would silently drop logged history.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DirLog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut stale = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".log") && name != LOG_FILE {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: a log stream of an older layout; this version reads only `{LOG_FILE}`",
                        path.display()
                    ),
                ));
            }
            if name.ends_with(".blob.tmp") {
                stale.push(path);
            }
        }
        let log = DirLog {
            dir,
            file: Mutex::new(None),
        };
        for path in &stale {
            std::fs::remove_file(path)?;
        }
        if !stale.is_empty() {
            log.sync_dir()?;
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

    fn blob_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.blob"))
    }
}

impl LogStorage for DirLog {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
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

    fn read(&self) -> io::Result<Vec<u8>> {
        match std::fs::read(self.log_path()) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
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

    fn write_blob(
        &self,
        name: &str,
        fill: &mut dyn FnMut(&mut dyn BlobSink) -> io::Result<()>,
    ) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.blob.tmp"));
        let written = std::fs::File::create(&tmp).and_then(|file| {
            let mut sink = io::BufWriter::new(file);
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
        std::fs::rename(&tmp, self.blob_path(name))?;
        self.sync_dir()
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<BlobReader<'_>>> {
        match std::fs::File::open(self.blob_path(name)) {
            Ok(file) => {
                let len = file.metadata()?.len();
                Ok(Some((Box::new(io::BufReader::new(file)), len)))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn list_blobs(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("blob") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        Ok(names)
    }

    fn delete_blob(&self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.blob_path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `bytes` as blob `name` in one fill.
    fn put(log: &dyn LogStorage, name: &str, bytes: &[u8]) -> io::Result<()> {
        log.write_blob(name, &mut |sink| sink.write_all(bytes))
    }

    /// Blob `name`'s bytes, read to the end; checks the reported length.
    fn get(log: &dyn LogStorage, name: &str) -> Option<Vec<u8>> {
        let (mut reader, len) = log.read_blob(name).unwrap()?;
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, len, "blob `{name}` length");
        Some(bytes)
    }

    #[test]
    fn memlog_appends_and_reads_the_log_beside_a_blob() {
        let log = MemLog::new();
        assert_eq!(log.read().unwrap(), b"");
        log.append(b"one").unwrap();
        put(&log, "b", b"two").unwrap();
        log.append(b"-more").unwrap();
        assert_eq!(log.read().unwrap(), b"one-more");
        assert_eq!(get(&log, "b").unwrap(), b"two");
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
        assert_eq!(log.read().unwrap(), b"durablelost");
        assert_eq!(log.unsynced_bytes(), 0, "survivors are durable");
    }

    #[test]
    fn fsync_lies_lose_acknowledged_writes() {
        let log = MemLog::new();
        log.set_fsync_lies(true);
        log.append(b"gone").unwrap();
        log.sync().unwrap(); // claims success
        log.crash(0);
        assert_eq!(log.read().unwrap(), b"");
        assert_eq!(log.syncs(), 1);
    }

    #[test]
    fn crash_can_leave_partial_blob() {
        let log = MemLog::new();
        put(&log, "snap", b"0123456789").unwrap();
        log.crash(4);
        assert_eq!(get(&log, "snap").unwrap(), b"0123");
        // A synced blob survives whole.
        put(&log, "snap2", b"abcdef").unwrap();
        log.sync().unwrap();
        log.crash(0);
        assert_eq!(get(&log, "snap2").unwrap(), b"abcdef");
    }

    #[test]
    fn blob_overwrite_delete_and_list() {
        let log = MemLog::new();
        put(&log, "x", b"v1").unwrap();
        put(&log, "x", b"v2").unwrap();
        put(&log, "y", b"w").unwrap();
        assert_eq!(get(&log, "x").unwrap(), b"v2");
        let mut blobs = log.list_blobs().unwrap();
        blobs.sort();
        assert_eq!(blobs, vec!["x", "y"]);
        log.delete_blob("x").unwrap();
        assert_eq!(get(&log, "x"), None);
        assert_eq!(log.list_blobs().unwrap(), vec!["y"]);
        log.delete_blob("x").unwrap(); // idempotent

        // A fill that fails journals nothing.
        let failed = log.write_blob("z", &mut |sink| {
            sink.write_all(b"part")?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(log.list_blobs().unwrap(), vec!["y"]);
        assert_eq!(log.unsynced_bytes(), 1, "only `y` is journaled");
    }

    #[test]
    fn deleting_a_durable_blob_keeps_a_later_append_unsynced() {
        let log = MemLog::new();
        log.append(b"a").unwrap();
        log.sync().unwrap();
        put(&log, "x", b"blob").unwrap();
        log.sync().unwrap();
        log.append(b"b").unwrap();
        log.delete_blob("x").unwrap();
        assert_eq!(log.unsynced_bytes(), 1, "`b` was never synced");
        log.crash(0);
        assert_eq!(log.read().unwrap(), b"a");
    }

    #[test]
    fn truncate_cuts_the_log_and_keeps_blobs() {
        let log = MemLog::new();
        log.append(b"0123").unwrap();
        put(&log, "b", b"abcd").unwrap();
        log.append(b"4567").unwrap();
        log.truncate(6).unwrap();
        assert_eq!(log.read().unwrap(), b"012345");
        assert_eq!(get(&log, "b").unwrap(), b"abcd");
        log.truncate(0).unwrap();
        assert_eq!(log.read().unwrap(), b"");
        assert_eq!(get(&log, "b").unwrap(), b"abcd");
    }

    #[test]
    fn fail_after_fails_every_later_mutation_until_a_crash() {
        let log = MemLog::new();
        log.fail_after(2);
        log.append(b"one").unwrap();
        log.sync().unwrap();
        assert!(log.append(b"two").is_err());
        assert!(put(&log, "b", b"x").is_err());
        assert!(log.truncate(0).is_err());
        assert!(log.delete_blob("b").is_err());
        assert_eq!(log.read().unwrap(), b"one", "a failed call wrote nothing");
        log.crash(0);
        log.append(b"two").unwrap();
        assert_eq!(log.read().unwrap(), b"onetwo");
    }

    #[test]
    fn corrupt_byte_flips_in_place() {
        let log = MemLog::new();
        log.append(b"ab").unwrap();
        log.append(b"cd").unwrap();
        log.corrupt_byte(2);
        let bytes = log.read().unwrap();
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
            log.append(b"hello ").unwrap();
            log.append(b"world").unwrap();
            log.sync().unwrap();
            put(&log, "snap-1", b"blobby").unwrap();
        }
        // A blob write that died before its rename.
        std::fs::write(dir.join("snap-2.blob.tmp"), b"half").unwrap();
        {
            // Reopen: everything persisted, the stale temp file is gone.
            let log = DirLog::open(&dir).unwrap();
            assert!(!dir.join("snap-2.blob.tmp").exists());
            assert_eq!(log.read().unwrap(), b"hello world");
            assert_eq!(get(&log, "snap-1").unwrap(), b"blobby");
            assert_eq!(log.list_blobs().unwrap(), vec!["snap-1"]);
            log.truncate(5).unwrap();
            assert_eq!(log.read().unwrap(), b"hello");
            log.append(b"!").unwrap();
            assert_eq!(log.read().unwrap(), b"hello!");
            log.delete_blob("snap-1").unwrap();
            assert_eq!(get(&log, "snap-1"), None);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirlog_blob_fill_that_fails_leaves_no_blob_and_no_temp_file() {
        let dir = temp_dir("failed-fill");
        let log = DirLog::open(&dir).unwrap();
        put(&log, "snap-1", b"older").unwrap();
        let err = log
            .write_blob("snap-2", &mut |sink| {
                sink.write_all(&[7; 100_000])?;
                Err(io::Error::other("disk full"))
            })
            .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert!(!dir.join("snap-2.blob.tmp").exists());
        assert_eq!(log.list_blobs().unwrap(), vec!["snap-1"]);
        assert_eq!(get(&log, "snap-1").unwrap(), b"older");
        // A fill that seeks back to patch its header streams through.
        log.write_blob("snap-3", &mut |sink| {
            sink.write_all(b"----body")?;
            sink.seek(io::SeekFrom::Start(0))?;
            sink.write_all(b"head")
        })
        .unwrap();
        assert_eq!(get(&log, "snap-3").unwrap(), b"headbody");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dirlog_refuses_a_directory_of_per_relation_streams() {
        // The older layout: an interning stream and one stream per relation.
        let rel = 0;
        for old in ["meta.log".to_string(), format!("rel-{rel}.log")] {
            let dir = temp_dir("old-layout");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(&old), b"history").unwrap();
            std::fs::write(dir.join("snap-2.blob.tmp"), b"half").unwrap();
            let err = DirLog::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{old}");
            assert!(err.to_string().contains(&old), "{err}");
            assert_eq!(std::fs::read(dir.join(&old)).unwrap(), b"history");
            assert!(
                dir.join("snap-2.blob.tmp").exists(),
                "{old}: a refusal removes nothing"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
