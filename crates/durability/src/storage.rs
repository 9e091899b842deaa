//! Where log bytes live: the [`LogStorage`] trait, its in-memory
//! fault-injecting implementation ([`MemLog`]), and the real-directory
//! implementation ([`DirLog`]).
//!
//! The trait is deliberately tiny — named append-only byte streams plus
//! whole blobs (snapshots) — so the entire recovery path can be driven
//! against [`MemLog`]'s simulated crashes in unit tests and proptests:
//! no temp dirs, no real fsync, and byte-exact control over what survives.
//!
//! ## The `MemLog` crash model
//!
//! `MemLog` keeps a single **journal** of every write (stream appends and
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

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Byte-level storage for WAL streams and snapshot blobs.
///
/// Streams are append-only named byte sequences; blobs are whole named
/// byte arrays (snapshots), written atomically. All methods take `&self`:
/// implementations are internally synchronized, and the single-writer
/// discipline lives above (the WAL writer serializes appends).
pub trait LogStorage: Send + Sync + std::fmt::Debug {
    /// Appends bytes to the named stream (created on first append).
    fn append(&self, stream: &str, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything written so far durable (streams and blobs).
    fn sync(&self) -> io::Result<()>;
    /// The full contents of a stream (empty if it was never written).
    fn read(&self, stream: &str) -> io::Result<Vec<u8>>;
    /// Every stream that has been written, in unspecified order.
    fn streams(&self) -> io::Result<Vec<String>>;
    /// Durably discards stream bytes beyond `len`: recovery cuts torn and
    /// discarded tails with it, and a checkpoint cuts every stream to 0
    /// once its snapshot is durable.
    fn truncate(&self, stream: &str, len: u64) -> io::Result<()>;
    /// Writes a whole blob under `name`, replacing any previous one.
    fn write_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Reads a blob back; `None` if absent.
    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>>;
    /// Every blob name present, in unspecified order.
    fn list_blobs(&self) -> io::Result<Vec<String>>;
    /// Removes a blob (no-op if absent).
    fn delete_blob(&self, name: &str) -> io::Result<()>;
}

/// One write in the `MemLog` journal.
#[derive(Debug, Clone)]
enum Entry {
    Append { stream: String, bytes: Vec<u8> },
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
    /// Materializes the current byte content of one stream.
    fn stream_bytes(&self, stream: &str) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.journal {
            if let Entry::Append { stream: s, bytes } = e {
                if s == stream {
                    out.extend_from_slice(bytes);
                }
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

    /// Flips one byte at `offset` of `stream` — in-place corruption for
    /// testing that recovery fails loudly instead of replaying garbage.
    pub fn corrupt_byte(&self, stream: &str, offset: usize) {
        let mut inner = self.inner.lock().unwrap();
        let mut pos = 0;
        for e in inner.journal.iter_mut() {
            if let Entry::Append { stream: s, bytes } = e {
                if s == stream {
                    if offset < pos + bytes.len() {
                        bytes[offset - pos] ^= 0x40;
                        return;
                    }
                    pos += bytes.len();
                }
            }
        }
        panic!("corrupt_byte: offset {offset} beyond stream `{stream}` ({pos} bytes)");
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
    fn append(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        self.mutate()?.journal.push(Entry::Append {
            stream: stream.to_string(),
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

    fn read(&self, stream: &str) -> io::Result<Vec<u8>> {
        Ok(self.inner.lock().unwrap().stream_bytes(stream))
    }

    fn streams(&self) -> io::Result<Vec<String>> {
        let inner = self.inner.lock().unwrap();
        let mut names: Vec<String> = Vec::new();
        for e in &inner.journal {
            if let Entry::Append { stream, .. } = e {
                if !names.contains(stream) {
                    names.push(stream.clone());
                }
            }
        }
        Ok(names)
    }

    fn truncate(&self, stream: &str, len: u64) -> io::Result<()> {
        let len = len as usize;
        let mut inner = self.mutate()?;
        let mut pos = 0;
        let mut journal = Vec::with_capacity(inner.journal.len());
        for e in inner.journal.drain(..) {
            if let Entry::Append { stream: s, bytes } = &e {
                if s == stream {
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
            }
            journal.push(e);
        }
        // A truncation finalizes the surviving bytes: treat the rewritten
        // journal as durable (DirLog's set_len + fsync behaves the same).
        inner.durable_entries = journal.len();
        inner.journal = journal;
        Ok(())
    }

    fn write_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.mutate()?;
        inner.deleted_blobs.retain(|n| n != name);
        inner.journal.push(Entry::Blob {
            name: name.to_string(),
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().unwrap().blob_bytes(name))
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
        inner
            .journal
            .retain(|e| !matches!(e, Entry::Blob { name: n, .. } if *n == name_owned));
        inner.durable_entries = inner.durable_entries.min(inner.journal.len());
        if !inner.deleted_blobs.contains(&name_owned) {
            inner.deleted_blobs.push(name_owned);
        }
        Ok(())
    }
}

/// [`LogStorage`] over a real directory: streams are `<name>.log` files
/// opened for append, blobs are `<name>.blob` files written via a temp
/// file and an atomic rename. Every call that creates, renames or removes
/// a file fsyncs the directory before it returns, so a name it reported
/// written (or gone) stays so across a power loss — a checkpoint's cut
/// must never outlive its snapshot's name. This is what production
/// servers and the kill-recover CI smoke use; the unit-test matrix runs
/// on [`MemLog`].
#[derive(Debug)]
pub struct DirLog {
    dir: PathBuf,
    handles: Mutex<HashMap<String, std::fs::File>>,
}

impl DirLog {
    /// Opens (creating if needed) a log directory, removing any
    /// `*.blob.tmp` a crash left behind: a blob write that never reached
    /// its rename is not a snapshot, only dead bytes.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<DirLog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let log = DirLog {
            dir,
            handles: Mutex::new(HashMap::new()),
        };
        let mut removed = false;
        for entry in std::fs::read_dir(&log.dir)? {
            let path = entry?.path();
            if path.to_str().is_some_and(|p| p.ends_with(".blob.tmp")) {
                std::fs::remove_file(&path)?;
                removed = true;
            }
        }
        if removed {
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

    fn stream_path(&self, stream: &str) -> PathBuf {
        self.dir.join(format!("{stream}.log"))
    }

    fn blob_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.blob"))
    }
}

impl LogStorage for DirLog {
    fn append(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        use io::Write;
        let mut handles = self.handles.lock().unwrap();
        if !handles.contains_key(stream) {
            let path = self.stream_path(stream);
            let mut open = std::fs::OpenOptions::new();
            open.append(true);
            let f = match open.clone().create_new(true).open(&path) {
                Ok(f) => {
                    self.sync_dir()?;
                    f
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => open.open(&path)?,
                Err(e) => return Err(e),
            };
            handles.insert(stream.to_string(), f);
        }
        handles.get_mut(stream).unwrap().write_all(bytes)
    }

    fn sync(&self) -> io::Result<()> {
        for f in self.handles.lock().unwrap().values() {
            f.sync_all()?;
        }
        Ok(())
    }

    fn read(&self, stream: &str) -> io::Result<Vec<u8>> {
        match std::fs::read(self.stream_path(stream)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn streams(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("log") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        Ok(names)
    }

    fn truncate(&self, stream: &str, len: u64) -> io::Result<()> {
        // Drop the cached append handle: append-mode offsets are managed
        // by the kernel, but a fresh handle keeps the bookkeeping simple.
        self.handles.lock().unwrap().remove(stream);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.stream_path(stream))?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn write_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{name}.blob.tmp"));
        std::fs::write(&tmp, bytes)?;
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, self.blob_path(name))?;
        self.sync_dir()
    }

    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.blob_path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
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

    #[test]
    fn memlog_appends_and_reads_across_streams() {
        let log = MemLog::new();
        log.append("a", b"one").unwrap();
        log.append("b", b"two").unwrap();
        log.append("a", b"-more").unwrap();
        assert_eq!(log.read("a").unwrap(), b"one-more");
        assert_eq!(log.read("b").unwrap(), b"two");
        assert_eq!(log.read("absent").unwrap(), b"");
        let mut streams = log.streams().unwrap();
        streams.sort();
        assert_eq!(streams, vec!["a", "b"]);
    }

    #[test]
    fn crash_discards_unsynced_suffix_by_byte() {
        let log = MemLog::new();
        log.append("s", b"durable").unwrap();
        log.sync().unwrap();
        log.append("s", b"lost-soon").unwrap();
        log.append("t", b"also-lost").unwrap();
        assert_eq!(log.unsynced_bytes(), 18);
        // Keep 4 unsynced bytes: a mid-append cut of the first entry.
        log.crash(4);
        assert_eq!(log.read("s").unwrap(), b"durablelost");
        assert_eq!(log.read("t").unwrap(), b"");
        assert_eq!(log.unsynced_bytes(), 0, "survivors are durable");
    }

    #[test]
    fn fsync_lies_lose_acknowledged_writes() {
        let log = MemLog::new();
        log.set_fsync_lies(true);
        log.append("s", b"gone").unwrap();
        log.sync().unwrap(); // claims success
        log.crash(0);
        assert_eq!(log.read("s").unwrap(), b"");
        assert_eq!(log.syncs(), 1);
    }

    #[test]
    fn crash_can_leave_partial_blob() {
        let log = MemLog::new();
        log.write_blob("snap", b"0123456789").unwrap();
        log.crash(4);
        assert_eq!(log.read_blob("snap").unwrap().unwrap(), b"0123");
        // A synced blob survives whole.
        log.write_blob("snap2", b"abcdef").unwrap();
        log.sync().unwrap();
        log.crash(0);
        assert_eq!(log.read_blob("snap2").unwrap().unwrap(), b"abcdef");
    }

    #[test]
    fn blob_overwrite_delete_and_list() {
        let log = MemLog::new();
        log.write_blob("x", b"v1").unwrap();
        log.write_blob("x", b"v2").unwrap();
        log.write_blob("y", b"w").unwrap();
        assert_eq!(log.read_blob("x").unwrap().unwrap(), b"v2");
        let mut blobs = log.list_blobs().unwrap();
        blobs.sort();
        assert_eq!(blobs, vec!["x", "y"]);
        log.delete_blob("x").unwrap();
        assert_eq!(log.read_blob("x").unwrap(), None);
        assert_eq!(log.list_blobs().unwrap(), vec!["y"]);
        log.delete_blob("x").unwrap(); // idempotent
    }

    #[test]
    fn truncate_cuts_one_stream_only() {
        let log = MemLog::new();
        log.append("a", b"0123").unwrap();
        log.append("b", b"abcd").unwrap();
        log.append("a", b"4567").unwrap();
        log.truncate("a", 6).unwrap();
        assert_eq!(log.read("a").unwrap(), b"012345");
        assert_eq!(log.read("b").unwrap(), b"abcd");
        log.truncate("a", 0).unwrap();
        assert_eq!(log.read("a").unwrap(), b"");
    }

    #[test]
    fn fail_after_fails_every_later_mutation_until_a_crash() {
        let log = MemLog::new();
        log.fail_after(2);
        log.append("s", b"one").unwrap();
        log.sync().unwrap();
        assert!(log.append("s", b"two").is_err());
        assert!(log.write_blob("b", b"x").is_err());
        assert!(log.truncate("s", 0).is_err());
        assert!(log.delete_blob("b").is_err());
        assert_eq!(
            log.read("s").unwrap(),
            b"one",
            "a failed call wrote nothing"
        );
        log.crash(0);
        log.append("s", b"two").unwrap();
        assert_eq!(log.read("s").unwrap(), b"onetwo");
    }

    #[test]
    fn corrupt_byte_flips_in_place() {
        let log = MemLog::new();
        log.append("s", b"ab").unwrap();
        log.append("s", b"cd").unwrap();
        log.corrupt_byte("s", 2);
        let bytes = log.read("s").unwrap();
        assert_eq!(bytes[0], b'a');
        assert_ne!(bytes[2], b'c');
    }

    #[test]
    fn dirlog_roundtrips_on_disk() {
        let dir = std::env::temp_dir().join(format!("bcq-dirlog-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let log = DirLog::open(&dir).unwrap();
            log.append("rel-0", b"hello ").unwrap();
            log.append("rel-0", b"world").unwrap();
            log.append("meta", b"m").unwrap();
            log.sync().unwrap();
            log.write_blob("snap-1", b"blobby").unwrap();
        }
        // A blob write that died before its rename.
        std::fs::write(dir.join("snap-2.blob.tmp"), b"half").unwrap();
        {
            // Reopen: everything persisted, the stale temp file is gone.
            let log = DirLog::open(&dir).unwrap();
            assert!(!dir.join("snap-2.blob.tmp").exists());
            assert_eq!(log.read("rel-0").unwrap(), b"hello world");
            assert_eq!(log.read("absent").unwrap(), b"");
            let mut streams = log.streams().unwrap();
            streams.sort();
            assert_eq!(streams, vec!["meta", "rel-0"]);
            assert_eq!(log.read_blob("snap-1").unwrap().unwrap(), b"blobby");
            assert_eq!(log.list_blobs().unwrap(), vec!["snap-1"]);
            log.truncate("rel-0", 5).unwrap();
            assert_eq!(log.read("rel-0").unwrap(), b"hello");
            log.append("rel-0", b"!").unwrap();
            assert_eq!(log.read("rel-0").unwrap(), b"hello!");
            log.delete_blob("snap-1").unwrap();
            assert_eq!(log.read_blob("snap-1").unwrap(), None);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
