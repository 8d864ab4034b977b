//! Segmented write-ahead log for the stream registry.
//!
//! A checkpoint alone loses every event since the last snapshot on a
//! crash — unacceptable in the paper's continuous turnstile setting,
//! where coefficients are updated whenever a tuple arrives and the
//! stream cannot be replayed from the source. The WAL closes that gap:
//! every event is appended to an append-only segment file *after* being
//! applied, and recovery replays all records past the newest
//! checkpoint's watermark.
//!
//! # On-disk format
//!
//! The log is a sequence of segments named `wal-<first_seq>.dwal`, where
//! `<first_seq>` is the zero-padded sequence number of the segment's
//! first record (sequence numbers start at 1 and never reset). Each
//! segment opens with a 20-byte header:
//!
//! ```text
//! magic "DCTW" (4) | version u8 | reserved (3) | first_seq u64 le
//! | seal (CRC-32 of the preceding 16 bytes)
//! ```
//!
//! followed by record frames capped at [`MAX_RECORD_LEN`]. Header, seal
//! and frame are the workspace's shared codec (`dctstream_obs::frame`;
//! DESIGN.md §16 "On-disk framing"). A frame's body is a [`WalRecord`]:
//! a one-byte kind, the stream name, and the operation payload (see
//! [`WalRecord::encode`]).
//!
//! # Torn tail vs. interior corruption
//!
//! A torn frame (what a crash mid-write leaves) at the end of the newest
//! segment is a torn tail: it is truncated away — its events were never
//! acknowledged as synced — and recovery proceeds. Any other damage,
//! including a sequence gap between segments, fails replay with
//! [`DctError::Wal`] naming the segment, byte offset, and (when the
//! record's header survives) the stream.
//!
//! # Sync policy and rotation
//!
//! Appends are buffered in memory; [`SyncPolicy`] controls when the
//! buffer is handed to the OS *and* fsynced: `Always` (every append),
//! `EveryN(n)` (every `n` appends), `Manual` (only on explicit
//! [`Wal::sync`] / checkpoint), or `Group` (buffered like `Manual`, with
//! fsyncs driven by a [`crate::GroupDurable`] leader that amortizes one
//! fsync over every record queued behind it). Data past the last sync
//! has no durability guarantee — that is the contract recovery tests
//! enforce.
//!
//! Rotation is tied to checkpoints: [`Wal::note_checkpoint`] records
//! that a manifest now covers every record up to a watermark, starts a
//! fresh segment for subsequent appends, and retires segments wholly
//! covered by the watermark.

use crate::event::{StreamEvent, Tuple};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dctstream_core::{DctError, Result};
use dctstream_obs::frame::{self, FrameError, Reader, Record};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
#[cfg(test)]
use std::time::Duration;

/// Magic tag opening every WAL segment.
pub const SEGMENT_MAGIC: &[u8; 4] = b"DCTW";
/// Current segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Byte length of a segment header.
pub const SEGMENT_HEADER_LEN: usize = 20;
/// Largest accepted record body, bounding a crafted frame's allocation.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// Longest accepted stream name on the wire.
const MAX_WIRE_NAME_LEN: usize = 4096;

/// Most scheduler yields a would-be group-commit leader spends growing
/// its batch while other writers are still enqueueing. Bounds the commit
/// window so a steady append stream cannot starve the fsync.
pub(crate) const GROUP_COMMIT_WINDOW: u32 = 16;

const KIND_INSERT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_WEIGHTED: u8 = 3;
const KIND_REGISTER: u8 = 4;
const KIND_DROP: u8 = 5;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One logged operation: which stream, and what happened to it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// The stream the operation routes to.
    pub stream: String,
    /// The operation itself.
    pub op: WalOp,
}

/// The operation payload of a [`WalRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A turnstile event (insert or delete, weight ±1).
    Event(StreamEvent),
    /// A weighted update that is not expressible as a unit-weight event.
    Weighted(Tuple, f64),
    /// A stream registration; the payload is the framed summary bytes of
    /// the newly registered (typically empty) summary.
    Register(Bytes),
    /// A stream drop: the stream (and all its earlier records) is dead
    /// from this point on. Replay honors drops in order, so a dropped
    /// stream's surviving WAL records stop resurrecting it on reopen;
    /// they retire with their segments at the next checkpoint.
    Drop,
}

impl WalRecord {
    /// A unit-weight insert/delete record.
    pub fn event(stream: impl Into<String>, ev: StreamEvent) -> Self {
        WalRecord {
            stream: stream.into(),
            op: WalOp::Event(ev),
        }
    }

    /// A weighted-update record. Weights of exactly ±1 are canonicalized
    /// to plain insert/delete events so both ingestion paths produce
    /// identical log bytes.
    pub fn weighted(stream: impl Into<String>, tuple: &[i64], w: f64) -> Self {
        let t = Tuple(tuple.to_vec());
        let op = if w == 1.0 {
            WalOp::Event(StreamEvent::Insert(t))
        } else if w == -1.0 {
            WalOp::Event(StreamEvent::Delete(t))
        } else {
            WalOp::Weighted(t, w)
        };
        WalRecord {
            stream: stream.into(),
            op,
        }
    }

    /// A stream-registration record carrying the summary's framed bytes.
    pub fn register(stream: impl Into<String>, summary_bytes: Bytes) -> Self {
        WalRecord {
            stream: stream.into(),
            op: WalOp::Register(summary_bytes),
        }
    }

    /// A stream-drop record: replay unregisters the stream when it
    /// reaches this record, discarding the effect of its earlier records.
    pub fn drop_stream(stream: impl Into<String>) -> Self {
        WalRecord {
            stream: stream.into(),
            op: WalOp::Drop,
        }
    }

    /// Encode the record body (without framing).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.stream.len());
        let kind = match &self.op {
            WalOp::Event(StreamEvent::Insert(_)) => KIND_INSERT,
            WalOp::Event(StreamEvent::Delete(_)) => KIND_DELETE,
            WalOp::Weighted(..) => KIND_WEIGHTED,
            WalOp::Register(_) => KIND_REGISTER,
            WalOp::Drop => KIND_DROP,
        };
        buf.put_u8(kind);
        buf.put_u32_le(self.stream.len() as u32);
        buf.put_slice(self.stream.as_bytes());
        match &self.op {
            WalOp::Event(StreamEvent::Insert(t)) | WalOp::Event(StreamEvent::Delete(t)) => {
                t.encode_into(&mut buf);
            }
            WalOp::Weighted(t, w) => {
                buf.put_f64_le(*w);
                t.encode_into(&mut buf);
            }
            WalOp::Register(payload) => {
                buf.put_u32_le(payload.len() as u32);
                buf.put_slice(payload.as_slice());
            }
            WalOp::Drop => {}
        }
        buf.freeze()
    }

    /// Decode a record body produced by [`Self::encode`]. Returns
    /// `Err(detail)` on any truncation, bound violation, or unknown
    /// kind; the error string names what broke and, when the name field
    /// survives, the stream (`Ok` is total: trailing bytes are an error
    /// too, so a frame's declared length cannot hide garbage).
    pub fn decode(data: &[u8]) -> std::result::Result<WalRecord, (Option<String>, String)> {
        let mut buf = Bytes::from(data);
        if buf.remaining() < 5 {
            return Err((
                None,
                format!("record body truncated to {} bytes", data.len()),
            ));
        }
        let kind = buf.get_u8();
        let name_len = buf.get_u32_le() as usize;
        if name_len > MAX_WIRE_NAME_LEN {
            return Err((None, format!("implausible stream-name length {name_len}")));
        }
        if buf.remaining() < name_len {
            return Err((None, "record body truncated inside stream name".into()));
        }
        let mut name_bytes = vec![0u8; name_len];
        buf.copy_to_slice(&mut name_bytes);
        let stream = String::from_utf8(name_bytes)
            .map_err(|_| (None, "stream name is not valid UTF-8".to_string()))?;
        let ctx = |what: &str| (Some(stream.clone()), what.to_string());
        let op = match kind {
            KIND_INSERT | KIND_DELETE => {
                let t = Tuple::decode_from(&mut buf)
                    .ok_or_else(|| ctx("record body truncated inside tuple"))?;
                WalOp::Event(if kind == KIND_INSERT {
                    StreamEvent::Insert(t)
                } else {
                    StreamEvent::Delete(t)
                })
            }
            KIND_WEIGHTED => {
                if buf.remaining() < 8 {
                    return Err(ctx("record body truncated inside weight"));
                }
                let w = buf.get_f64_le();
                let t = Tuple::decode_from(&mut buf)
                    .ok_or_else(|| ctx("record body truncated inside tuple"))?;
                WalOp::Weighted(t, w)
            }
            KIND_REGISTER => {
                if buf.remaining() < 4 {
                    return Err(ctx("record body truncated before summary payload"));
                }
                let plen = buf.get_u32_le() as usize;
                if buf.remaining() < plen {
                    return Err(ctx("record body truncated inside summary payload"));
                }
                let payload = buf.slice(0..plen);
                buf.advance(plen);
                WalOp::Register(payload)
            }
            KIND_DROP => WalOp::Drop,
            other => return Err((Some(stream), format!("unknown record kind {other}"))),
        };
        if buf.remaining() != 0 {
            return Err((
                Some(stream),
                format!(
                    "{} unexpected trailing bytes in record body",
                    buf.remaining()
                ),
            ));
        }
        Ok(WalRecord { stream, op })
    }

    /// The arity-checked weighted view used during replay: tuple values
    /// and weight, or `None` for registrations and drops.
    pub fn as_update(&self) -> Option<(&[i64], f64)> {
        match &self.op {
            WalOp::Event(ev) => Some((ev.tuple().values(), ev.weight())),
            WalOp::Weighted(t, w) => Some((t.values(), *w)),
            WalOp::Register(_) | WalOp::Drop => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// The byte-level operations the WAL needs from its backing store.
///
/// Production uses [`DirStorage`] (one file per segment under a
/// directory); tests use [`MemStorage`] and [`FailingStorage`] to
/// observe and sabotage every write without touching the filesystem.
pub trait WalStorage {
    /// Append `data` to the named file, creating it if absent.
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Durably sync the named file's contents.
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Read the whole named file.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;
    /// List file names in the store (unordered; callers filter and sort).
    fn list(&self) -> io::Result<Vec<String>>;
    /// Delete the named file.
    fn remove(&mut self, name: &str) -> io::Result<()>;
    /// Truncate the named file to `len` bytes.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;
    /// Replace the named file's contents atomically (all-or-nothing).
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
}

/// Directory-backed [`WalStorage`]: each name is a file under `root`;
/// `write_atomic` goes through a temp file and rename.
#[derive(Debug)]
pub struct DirStorage {
    root: PathBuf,
    handles: HashMap<String, fs::File>,
    /// Set when a file handle was (possibly) freshly created since the
    /// last directory fsync: its directory entry is not durable until
    /// the directory itself is synced.
    dirty_root: bool,
}

impl DirStorage {
    /// Open (creating if needed) `root` as a storage directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirStorage {
            root,
            handles: HashMap::new(),
            dirty_root: false,
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn handle(&mut self, name: &str) -> io::Result<&mut fs::File> {
        use std::collections::hash_map::Entry;
        match self.handles.entry(name.to_string()) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let f = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.root.join(name))?;
                self.dirty_root = true;
                Ok(e.insert(f))
            }
        }
    }

    /// Fsync the directory itself: file creations and renames are only
    /// power-loss durable once their directory entry is synced.
    fn sync_root(&self) -> io::Result<()> {
        #[cfg(unix)]
        fs::File::open(&self.root)?.sync_all()?;
        Ok(())
    }
}

impl WalStorage for DirStorage {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use io::Write;
        self.handle(name)?.write_all(data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.handle(name)?.sync_data()?;
        if self.dirty_root {
            self.sync_root()?;
            self.dirty_root = false;
        }
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.handles.remove(name);
        fs::remove_file(self.path(name))
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.handles.remove(name);
        let f = fs::OpenOptions::new().write(true).open(self.path(name))?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use io::Write;
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.path(name))?;
        self.sync_root()
    }
}

type SharedFiles = Arc<Mutex<BTreeMap<String, Vec<u8>>>>;

/// In-memory [`WalStorage`]. Clones share the same backing map, so a
/// test can keep a handle and inspect (or snapshot) exactly what "disk"
/// holds at any point.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: SharedFiles,
}

impl MemStorage {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Deep copy of the current file map — the bytes a crash at this
    /// instant would leave behind.
    pub fn snapshot(&self) -> BTreeMap<String, Vec<u8>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Replace the whole file map (restore a [`Self::snapshot`]).
    pub fn restore(&self, files: BTreeMap<String, Vec<u8>>) {
        *self.files.lock().unwrap_or_else(|e| e.into_inner()) = files;
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<String, Vec<u8>>) -> R) -> R {
        f(&mut self.files.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl WalStorage for MemStorage {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.with(|m| {
            m.entry(name.to_string())
                .or_default()
                .extend_from_slice(data)
        });
        Ok(())
    }

    fn sync(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.with(|m| {
            m.get(name)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name}")))
        })
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.with(|m| m.keys().cloned().collect()))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.with(|m| {
            m.remove(name)
                .map(|_| ())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name}")))
        })
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.with(|m| match m.get_mut(name) {
            Some(v) => {
                v.truncate(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no file {name}"),
            )),
        })
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.with(|m| m.insert(name.to_string(), data.to_vec()));
        Ok(())
    }
}

#[derive(Debug, Default)]
struct FailState {
    /// Bytes of `append` the store will still accept; `None` = unlimited.
    budget: Option<usize>,
    /// Once a crash fired, every further mutation fails.
    dead: bool,
    /// Mutations that fail with a *transient* error before succeeding.
    transient_failures: usize,
    /// Count of transient errors served (for asserting retries happened).
    transient_served: usize,
}

/// A sabotaging wrapper around [`MemStorage`] for crash-injection tests.
///
/// With a byte budget set, `append` writes only as much of its data as
/// the budget allows, then fails — simulating a crash at an arbitrary
/// byte boundary, exactly like a power cut mid-`write(2)`. After the
/// crash fires the store goes dead (every mutation errors), and the test
/// reads the surviving bytes through a shared [`MemStorage`] clone.
/// `write_atomic` honors its contract: it either fully succeeds (within
/// budget) or fails leaving the previous contents intact.
///
/// Independently, `transient_failures(n)` makes the next `n` mutations
/// fail with [`io::ErrorKind::Interrupted`] before succeeding, to
/// exercise the retry policy.
#[derive(Debug, Clone, Default)]
pub struct FailingStorage {
    inner: MemStorage,
    state: Arc<Mutex<FailState>>,
}

impl FailingStorage {
    /// A store that fails `append` after accepting `budget` more bytes.
    pub fn with_budget(inner: MemStorage, budget: usize) -> Self {
        let s = FailingStorage {
            inner,
            state: Arc::default(),
        };
        s.state().budget = Some(budget);
        s
    }

    /// A store whose next `n` mutations fail transiently, then succeed.
    pub fn with_transient_failures(inner: MemStorage, n: usize) -> Self {
        let s = FailingStorage {
            inner,
            state: Arc::default(),
        };
        s.state().transient_failures = n;
        s
    }

    /// Transient errors served so far.
    pub fn transient_served(&self) -> usize {
        self.state().transient_served
    }

    /// Remaining byte budget, if one was set — lets a harness measure
    /// how many bytes a run consumes before sweeping kill points.
    pub fn budget_remaining(&self) -> Option<usize> {
        self.state().budget
    }

    /// Whether the injected crash has fired.
    pub fn is_dead(&self) -> bool {
        self.state().dead
    }

    /// Bring a crashed store back to life (budget cleared): models the
    /// transient outage ending so repair paths can be exercised.
    pub fn revive(&self) {
        let mut st = self.state();
        st.dead = false;
        st.budget = None;
    }

    /// Install (or clear) a byte budget on a live store, for sweeping
    /// crash points through a later phase of a workload.
    pub fn set_budget(&self, budget: Option<usize>) {
        self.state().budget = budget;
    }

    /// Make the next `n` mutations fail transiently (on top of any
    /// still pending).
    pub fn fail_next(&self, n: usize) {
        self.state().transient_failures += n;
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FailState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn crashed() -> io::Error {
        io::Error::other("injected crash")
    }

    /// Returns `Err` if dead or a transient failure is due.
    fn gate(&self) -> io::Result<()> {
        let mut st = self.state();
        if st.dead {
            return Err(Self::crashed());
        }
        if st.transient_failures > 0 {
            st.transient_failures -= 1;
            st.transient_served += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient failure",
            ));
        }
        Ok(())
    }
}

impl WalStorage for FailingStorage {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        let partial = {
            let mut st = self.state();
            match st.budget {
                Some(b) if b < data.len() => {
                    st.budget = Some(0);
                    st.dead = true;
                    Some(b)
                }
                Some(b) => {
                    st.budget = Some(b - data.len());
                    None
                }
                None => None,
            }
        };
        match partial {
            Some(n) => {
                // Crash mid-write: a prefix lands, the rest is lost.
                self.inner.append(name, &data[..n])?;
                Err(Self::crashed())
            }
            None => self.inner.append(name, data),
        }
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        self.gate()?;
        self.inner.sync(name)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.inner.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.gate()?;
        self.inner.remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        self.gate()?;
        self.inner.truncate(name, len)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.gate()?;
        let enough = {
            let mut st = self.state();
            match st.budget {
                Some(b) if b < data.len() => {
                    st.dead = true;
                    false
                }
                Some(b) => {
                    st.budget = Some(b - data.len());
                    true
                }
                None => true,
            }
        };
        if !enough {
            // All-or-nothing: the old contents survive.
            return Err(Self::crashed());
        }
        self.inner.write_atomic(name, data)
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

// The bounded-retry-with-backoff loop grew up here and in `recovery`;
// it now lives in [`crate::retry`] so segment shipping shares the same
// (single) implementation. Re-exported for API compatibility.
pub use crate::retry::RetryPolicy;

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// When appended records are handed to the OS and fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Sync after every append — maximal durability, minimal throughput.
    Always,
    /// Sync every `n` appends (clamped to ≥ 1).
    EveryN(u64),
    /// Sync only on explicit [`Wal::sync`] (checkpoints always sync).
    Manual,
    /// Group commit: appends are buffered (like `Manual`) and the
    /// group-commit front end, [`crate::GroupDurable`], fsyncs on behalf
    /// of every record queued behind a leader, acknowledging each caller
    /// only after the fsync that covers its record returns. Two
    /// behavioral differences from `Manual` inside the log itself:
    /// rotation fsyncs the outgoing segment when it holds unsynced
    /// bytes (so a later group fsync of the *active* segment never
    /// implicitly acknowledges bytes parked in a rotated-away file), and
    /// nothing is ever acknowledged without an explicit sync, exactly as
    /// under `Manual`.
    Group,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalOptions {
    /// Sync policy for appends.
    pub sync: SyncPolicy,
    /// Rotate to a fresh segment once the active one reaches this size.
    pub segment_max_bytes: u64,
    /// Retry policy for transient storage failures.
    pub retry: RetryPolicy,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::EveryN(256),
            segment_max_bytes: 8 << 20,
            retry: RetryPolicy::default(),
        }
    }
}

/// Where and why replay truncated a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment that was cut.
    pub segment: String,
    /// Byte offset the segment was truncated to.
    pub offset: u64,
    /// Bytes dropped past the cut.
    pub dropped: u64,
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Records past the requested watermark, in sequence order.
    pub records: Vec<(u64, WalRecord)>,
    /// The torn tail that was truncated, if any.
    pub torn_tail: Option<TornTail>,
    /// Segments scanned (including fully-covered ones).
    pub segments_scanned: usize,
}

/// A segmented write-ahead log over a [`WalStorage`].
#[derive(Debug)]
pub struct Wal<S: WalStorage> {
    storage: S,
    opts: WalOptions,
    /// Active segment name; `None` until the first append (or right
    /// after a checkpoint rotation) so empty segments are never created.
    segment: Option<String>,
    /// Total bytes of the active segment, buffered bytes included.
    segment_len: u64,
    /// Sequence number the next appended record receives (first is 1).
    next_seq: u64,
    /// Bytes appended but not yet handed to storage.
    buffer: Vec<u8>,
    /// Appends since the last sync, for `SyncPolicy::EveryN`.
    unsynced: u64,
    /// Set when a storage failure left the log state unknown; every
    /// further append fails with this detail until re-opened.
    wedged: Option<String>,
    /// Retention pins: consumer id → highest sequence that consumer has
    /// acknowledged. [`Self::note_checkpoint`] never retires a segment
    /// holding records past any pin, so a slow follower (or shipper)
    /// keeps its replay window even across checkpoints.
    pins: BTreeMap<String, u64>,
}

/// `wal-<first_seq>.dwal`, zero-padded so lexicographic = numeric order.
pub fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.dwal")
}

pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".dwal")?
        .parse()
        .ok()
}

fn wal_err(
    segment: &str,
    offset: u64,
    stream: Option<String>,
    detail: impl Into<String>,
) -> DctError {
    DctError::Wal {
        segment: segment.to_string(),
        offset,
        stream,
        detail: detail.into(),
    }
}

/// Append a segment header: magic, version, reserved bytes, and the
/// first record's sequence, sealed.
fn put_segment_header(out: &mut Vec<u8>, first_seq: u64) {
    let start = out.len();
    frame::put_header(out, SEGMENT_MAGIC, SEGMENT_VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&first_seq.to_le_bytes());
    frame::seal(out, start);
}

/// What a read-only walk over a store's segments found: replayable
/// records, torn-tail detection (not yet truncated), and the state the
/// active segment would resume from.
struct StorageScan {
    records: Vec<(u64, WalRecord)>,
    torn_tail: Option<TornTail>,
    segments_scanned: usize,
    /// `(name, durable_len_after_truncation, next_seq)` of the newest
    /// segment, `None` when the store is empty.
    tail: Option<(String, u64, u64)>,
}

/// Walk every segment in `storage` without mutating it: validate
/// headers, frames, and cross-segment sequence continuity, collect
/// records past `after`, and note (but do not cut) a torn tail on the
/// newest segment. Any other inconsistency is a [`DctError::Wal`].
fn scan_storage<S: WalStorage>(storage: &S, opts: &WalOptions, after: u64) -> Result<StorageScan> {
    let names = opts
        .retry
        .run(|| storage.list())
        .map_err(|e| wal_err("<directory>", 0, None, format!("listing segments: {e}")))?;
    let mut segments: Vec<(u64, String)> = names
        .into_iter()
        .filter_map(|n| parse_segment_name(&n).map(|seq| (seq, n)))
        .collect();
    segments.sort_unstable();

    let mut records = Vec::new();
    let mut torn_tail = None;
    let mut expected_first: Option<u64> = None;
    let mut tail: Option<(String, u64, u64)> = None;

    for (idx, (first_seq, name)) in segments.iter().enumerate() {
        let is_last = idx == segments.len() - 1;
        let data = opts
            .retry
            .run(|| storage.read(name))
            .map_err(|e| wal_err(name, 0, None, format!("reading segment: {e}")))?;
        let scan = scan_segment(name, *first_seq, &data, is_last)?;
        if let Some(expect) = expected_first {
            if *first_seq != expect {
                return Err(wal_err(
                    name,
                    0,
                    None,
                    format!(
                        "sequence gap between segments: expected first record {expect}, found {first_seq}"
                    ),
                ));
            }
        } else if *first_seq > after + 1 {
            return Err(wal_err(
                name,
                0,
                None,
                format!(
                    "records {} through {} are missing: oldest segment starts at {first_seq} \
                     but the checkpoint covers only up to {after}",
                    after + 1,
                    first_seq - 1
                ),
            ));
        }
        expected_first = Some(first_seq + scan.records.len() as u64);
        if let Some((offset, dropped)) = scan.torn {
            torn_tail = Some(TornTail {
                segment: name.clone(),
                offset,
                dropped,
            });
        }
        let end_len = scan.torn.map_or(data.len() as u64, |(offset, _)| offset);
        tail = Some((name.clone(), end_len, first_seq + scan.records.len() as u64));
        for (seq, rec) in scan.records {
            if seq > after {
                records.push((seq, rec));
            }
        }
    }

    Ok(StorageScan {
        records,
        torn_tail,
        segments_scanned: segments.len(),
        tail,
    })
}

/// Read-only replay of whatever `storage` durably holds, without
/// opening (or mutating) a log over it: validate every segment, collect
/// records past `after`, and *note* — but do not truncate — a torn tail
/// on the newest segment (its partial frame's records are excluded).
///
/// This is the warm follower's incremental replay primitive: a
/// [`crate::ship::Follower`] re-scans its shipped store after each
/// shipping round and applies only the records past what it has already
/// applied, leaving truncation decisions to the shipper (which knows
/// whether a short tail is mid-flight or torn).
pub fn scan_records<S: WalStorage>(
    storage: &S,
    opts: &WalOptions,
    after: u64,
) -> Result<ReplayOutcome> {
    let scan = scan_storage(storage, opts, after)?;
    Ok(ReplayOutcome {
        records: scan.records,
        torn_tail: scan.torn_tail,
        segments_scanned: scan.segments_scanned,
    })
}

impl<S: WalStorage> Wal<S> {
    /// Open a log, replaying whatever the storage holds.
    ///
    /// `after` is the checkpoint watermark: records with sequence ≤
    /// `after` are skipped (their effects are already in the snapshot).
    /// A torn tail on the newest segment is truncated in storage; any
    /// other inconsistency is a [`DctError::Wal`].
    pub fn open(mut storage: S, opts: WalOptions, after: u64) -> Result<(Self, ReplayOutcome)> {
        let scan = scan_storage(&storage, &opts, after)?;
        if let Some(t) = &scan.torn_tail {
            opts.retry
                .run(|| storage.truncate(&t.segment, t.offset))
                .map_err(|e| {
                    wal_err(
                        &t.segment,
                        t.offset,
                        None,
                        format!("truncating torn tail: {e}"),
                    )
                })?;
            dctstream_obs::counter_add!("wal.torn_tail_truncations", 1);
        }
        let (segment, segment_len, next_seq) = match scan.tail {
            // A torn header truncated the newest segment to nothing: the
            // file holds zero bytes, so it must not be the active segment
            // (append only writes a header when starting one). Leaving it
            // inactive makes the next append re-emit the header — same
            // first_seq, hence the same file name — instead of writing
            // frames into a headerless file that the next open would
            // reject as corrupt.
            Some((_, 0, next)) => (None, 0, next),
            Some((name, len, next)) => (Some(name), len, next),
            None => (None, 0, after + 1),
        };
        let wal = Wal {
            storage,
            opts,
            segment,
            segment_len,
            next_seq,
            buffer: Vec::new(),
            unsynced: 0,
            wedged: None,
            pins: BTreeMap::new(),
        };
        let outcome = ReplayOutcome {
            records: scan.records,
            torn_tail: scan.torn_tail,
            segments_scanned: scan.segments_scanned,
        };
        Ok((wal, outcome))
    }

    /// Re-open this log in place from its durable bytes, clearing a
    /// wedge: buffered-but-unflushed records are discarded (they were
    /// never covered by a completed [`Self::sync`], so dropping them is
    /// within the durability contract) and a torn tail on the newest
    /// segment is truncated, exactly as [`Self::open`] would after a
    /// crash. Returns the replay outcome so the caller can rebuild
    /// in-memory state past `after` from what actually survived.
    ///
    /// This is the repair path's foundation: after an append failure the
    /// log can no longer tell which bytes landed; re-reading storage is
    /// the only way to re-establish a trustworthy tail.
    pub fn reopen(&mut self, after: u64) -> Result<ReplayOutcome> {
        // Flush what we still can, so a healthy log loses nothing. A
        // failure here just wedges the log again; the scan below then
        // recovers the durable prefix, which is the point of reopening.
        if self.wedged.is_none() {
            if let Some(name) = self.segment.clone() {
                let _ = self.flush_to_storage(&name);
            }
        }
        let scan = scan_storage(&self.storage, &self.opts, after)?;
        if let Some(t) = &scan.torn_tail {
            self.opts
                .retry
                .run(|| self.storage.truncate(&t.segment, t.offset))
                .map_err(|e| {
                    wal_err(
                        &t.segment,
                        t.offset,
                        None,
                        format!("truncating torn tail: {e}"),
                    )
                })?;
            dctstream_obs::counter_add!("wal.torn_tail_truncations", 1);
        }
        let (segment, segment_len, next_seq) = match scan.tail {
            Some((_, 0, next)) => (None, 0, next),
            Some((name, len, next)) => (Some(name), len, next),
            None => (None, 0, after + 1),
        };
        self.segment = segment;
        self.segment_len = segment_len;
        self.next_seq = next_seq;
        self.buffer.clear();
        self.unsynced = 0;
        self.wedged = None;
        Ok(ReplayOutcome {
            records: scan.records,
            torn_tail: scan.torn_tail,
            segments_scanned: scan.segments_scanned,
        })
    }

    /// Read-only integrity scrub of the durable segments: re-verify the
    /// header and every frame checksum of every segment without applying
    /// (or even decoding beyond stream attribution) any record, and
    /// without truncating anything. Returns the segments checked and one
    /// typed violation per damaged segment. A torn tail on the newest
    /// segment is not a violation — un-synced bytes may legitimately be
    /// mid-write — but damage anywhere else is.
    pub fn verify(&self) -> Result<(usize, Vec<DctError>)> {
        let names = self
            .opts
            .retry
            .run(|| self.storage.list())
            .map_err(|e| wal_err("<directory>", 0, None, format!("listing segments: {e}")))?;
        let mut segments: Vec<(u64, String)> = names
            .into_iter()
            .filter_map(|n| parse_segment_name(&n).map(|seq| (seq, n)))
            .collect();
        segments.sort_unstable();
        let mut violations = Vec::new();
        for (idx, (first_seq, name)) in segments.iter().enumerate() {
            let is_last = idx == segments.len() - 1;
            let data = match self.opts.retry.run(|| self.storage.read(name)) {
                Ok(d) => d,
                Err(e) => {
                    violations.push(wal_err(name, 0, None, format!("reading segment: {e}")));
                    continue;
                }
            };
            if let Err(e) = scan_segment(name, *first_seq, &data, is_last) {
                violations.push(e);
            }
        }
        Ok((segments.len(), violations))
    }

    /// Sequence number of the last appended record (0 before any).
    pub fn watermark(&self) -> u64 {
        self.next_seq - 1
    }

    /// The configured options.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }

    /// Mutable access to the backing storage (the recovery orchestrator
    /// keeps its checkpoint manifest in the same store).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Shared access to the backing storage.
    pub fn storage(&self) -> &S {
        &self.storage
    }

    /// Whether an earlier storage failure wedged the log (every append
    /// is refused until [`Self::reopen`]).
    pub fn is_wedged(&self) -> bool {
        self.wedged.is_some()
    }

    /// Records appended since the last completed [`Self::sync`]. These
    /// are the records a storage failure (or crash) can still lose.
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced
    }

    fn check_wedged(&self) -> Result<()> {
        match &self.wedged {
            Some(detail) => Err(wal_err(
                self.segment.as_deref().unwrap_or("<none>"),
                self.segment_len,
                None,
                format!("log is wedged by an earlier failure: {detail}"),
            )),
            None => Ok(()),
        }
    }

    /// Append one record, returning its sequence number. Depending on
    /// the sync policy the record may only be buffered: durability is
    /// guaranteed strictly for records covered by a completed
    /// [`Self::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let _span = dctstream_obs::span!("wal.append");
        let (seq, frame_len) = self.append_buffered(record)?;
        match self.opts.sync {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            // Group buffers like Manual: the fsync (and the ack) belong
            // to the group-commit leader, never to the appending call.
            SyncPolicy::Manual | SyncPolicy::Group => {}
        }
        dctstream_obs::counter_add!("wal.appends", 1);
        dctstream_obs::counter_add!("wal.append_bytes", frame_len as u64);
        Ok(seq)
    }

    /// Encode and buffer one record without running the sync policy,
    /// returning `(seq, frame_len)`.
    fn append_buffered(&mut self, record: &WalRecord) -> Result<(u64, usize)> {
        self.check_wedged()?;
        let body = record.encode();
        let oversize = |wal: &Self| {
            let detail = format!(
                "record body of {} bytes exceeds limit {MAX_RECORD_LEN}",
                body.len()
            );
            let segment = wal.segment.as_deref().unwrap_or("<none>");
            wal_err(
                segment,
                wal.segment_len,
                Some(record.stream.clone()),
                detail,
            )
        };
        // Refuse before rotating, so an oversize record leaves no trace.
        if body.len() > MAX_RECORD_LEN {
            return Err(oversize(self));
        }
        let frame_len = body.len() + frame::RECORD_OVERHEAD;
        // Rotate when the active segment (with its buffered bytes) would
        // overflow — but never leave a segment empty.
        if let Some(name) = self.segment.clone() {
            if self.segment_len > SEGMENT_HEADER_LEN as u64
                && self.segment_len + frame_len as u64 > self.opts.segment_max_bytes
            {
                if matches!(self.opts.sync, SyncPolicy::Group) && self.unsynced > 0 {
                    // Group invariant: unsynced bytes never leave the
                    // active segment. A group fsync targets whatever
                    // segment is active at flush time and acknowledges
                    // every earlier record — sound only if rotated-away
                    // segments were already durable.
                    self.sync()?;
                } else {
                    self.flush_to_storage(&name)?;
                }
                self.segment = None;
            }
        }
        if self.segment.is_none() {
            let name = segment_name(self.next_seq);
            put_segment_header(&mut self.buffer, self.next_seq);
            self.segment = Some(name);
            self.segment_len = SEGMENT_HEADER_LEN as u64;
        }
        frame::put_record(&mut self.buffer, body.as_slice(), MAX_RECORD_LEN)
            .map_err(|_| oversize(self))?;
        self.segment_len += frame_len as u64;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unsynced += 1;
        Ok((seq, frame_len))
    }

    fn flush_to_storage(&mut self, name: &str) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let already_stored = self.segment_len - self.buffer.len() as u64;
        let buffer = std::mem::take(&mut self.buffer);
        let res = self.opts.retry.run(|| self.storage.append(name, &buffer));
        if let Err(e) = res {
            // The storage may hold any prefix of `buffer`; replay's
            // torn-tail handling recovers it. In-process, the log can no
            // longer tell what landed — refuse further appends.
            let detail = format!("appending {} buffered bytes: {e}", buffer.len());
            self.wedged = Some(detail.clone());
            return Err(wal_err(name, already_stored, None, detail));
        }
        Ok(())
    }

    /// Hand buffered bytes to storage and durably sync the active
    /// segment. After `sync` returns, every appended record is
    /// crash-safe.
    pub fn sync(&mut self) -> Result<()> {
        self.check_wedged()?;
        let Some(name) = self.segment.clone() else {
            return Ok(()); // nothing ever appended
        };
        self.flush_to_storage(&name)?;
        let _span = dctstream_obs::span!("wal.fsync");
        let res = self.opts.retry.run(|| self.storage.sync(&name));
        if let Err(e) = res {
            let detail = format!("syncing segment: {e}");
            self.wedged = Some(detail.clone());
            return Err(wal_err(&name, self.segment_len, None, detail));
        }
        self.unsynced = 0;
        dctstream_obs::counter_add!("wal.fsyncs", 1);
        Ok(())
    }

    /// Hand buffered bytes to storage **without** fsyncing, returning
    /// the active segment's name (`None` when nothing was ever
    /// appended). Group-commit leaders flush under their lock, then
    /// fsync the named segment through a shared storage handle outside
    /// it.
    pub(crate) fn flush_active(&mut self) -> Result<Option<String>> {
        self.check_wedged()?;
        let Some(name) = self.segment.clone() else {
            return Ok(None);
        };
        self.flush_to_storage(&name)?;
        Ok(Some(name))
    }

    /// Wedge the log after a failure that happened outside its own
    /// methods (a group-commit leader's fsync through a shared storage
    /// handle). Every further append fails until [`Self::reopen`].
    pub(crate) fn wedge(&mut self, detail: String) {
        self.wedged = Some(detail);
    }

    /// Note that a group-commit fsync made every record with sequence ≤
    /// `covered` durable; records appended while that fsync was in
    /// flight remain unsynced.
    pub(crate) fn note_synced_through(&mut self, covered: u64) {
        self.unsynced = self.next_seq.saturating_sub(1).saturating_sub(covered);
    }

    /// Pin WAL retention for a consumer: segments holding records with
    /// sequence > `acked_seq` are kept across checkpoints until the pin
    /// is raised past them or [`Self::release_retention`] removes it.
    /// `acked_seq = 0` pins everything. Re-pinning the same `consumer`
    /// replaces its previous position (pins only ever need to advance,
    /// but regression is accepted — the floor just stays conservative).
    pub fn pin_retention(&mut self, consumer: impl Into<String>, acked_seq: u64) {
        self.pins.insert(consumer.into(), acked_seq);
    }

    /// Drop a consumer's retention pin (a detached follower no longer
    /// holds segments hostage).
    pub fn release_retention(&mut self, consumer: &str) -> bool {
        self.pins.remove(consumer).is_some()
    }

    /// The lowest acknowledged sequence across every retention pin
    /// (`None` when nothing is pinned): records past this must be kept.
    pub fn retention_floor(&self) -> Option<u64> {
        self.pins.values().copied().min()
    }

    /// Record that a checkpoint now covers every record with sequence ≤
    /// `watermark`: rotate so the next append starts a fresh segment,
    /// and retire segments wholly covered by the watermark **and** by
    /// every retention pin — a segment holding records a pinned
    /// consumer has not acknowledged survives the checkpoint, so a slow
    /// follower never loses its replay window. Retirement failures are
    /// non-fatal (a stale segment wastes space; replay skips its
    /// records via the watermark).
    ///
    /// Returns the number of segments retired.
    pub fn note_checkpoint(&mut self, watermark: u64) -> Result<usize> {
        self.check_wedged()?;
        if let Some(name) = self.segment.clone() {
            self.flush_to_storage(&name)?;
        }
        self.segment = None;
        self.segment_len = 0;
        // List once; retire every segment whose records all have
        // sequence ≤ the retention horizon, i.e. whose successor starts
        // at or below horizon + 1. The successor of the last segment is
        // next_seq; the horizon is the checkpoint watermark clamped by
        // the lowest retention pin.
        let horizon = match self.retention_floor() {
            Some(floor) => watermark.min(floor),
            None => watermark,
        };
        let names = self
            .opts
            .retry
            .run(|| self.storage.list())
            .map_err(|e| wal_err("<directory>", 0, None, format!("listing segments: {e}")))?;
        let mut segments: Vec<(u64, String)> = names
            .into_iter()
            .filter_map(|n| parse_segment_name(&n).map(|seq| (seq, n)))
            .collect();
        segments.sort_unstable();
        let mut retired = 0;
        for i in 0..segments.len() {
            let successor_first = segments.get(i + 1).map_or(self.next_seq, |(seq, _)| *seq);
            if successor_first <= horizon + 1 {
                let name = segments[i].1.clone();
                if self.opts.retry.run(|| self.storage.remove(&name)).is_ok() {
                    retired += 1;
                }
            }
        }
        dctstream_obs::counter_add!("wal.segments_retired", retired as u64);
        Ok(retired)
    }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

/// Lock a mutex, tolerating poisoning: group-commit state is kept
/// consistent by the protocol itself (wedge-on-failure), so a panicked
/// peer must not convert every later append into a panic.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cloneable [`WalStorage`] sharing one backend behind `Arc<Mutex>`.
///
/// Group commit needs the fsync to happen *outside* the log lock so
/// followers can keep buffering appends while the leader waits on the
/// disk; that requires a storage handle shared between the log (which
/// flushes through it) and the leader (which syncs through a clone).
/// Every operation holds the backend lock for exactly its own duration.
#[derive(Debug)]
pub struct SharedStorage<S> {
    inner: Arc<Mutex<S>>,
}

impl<S> Clone for SharedStorage<S> {
    fn clone(&self) -> Self {
        SharedStorage {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: WalStorage> SharedStorage<S> {
    /// Wrap a backend for shared use.
    pub fn new(inner: S) -> Self {
        SharedStorage {
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// Run `f` with exclusive access to the wrapped backend (tests use
    /// this to reach e.g. [`FailingStorage`] controls through the
    /// wrapper).
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut lock_unpoisoned(&self.inner))
    }
}

impl<S: WalStorage> WalStorage for SharedStorage<S> {
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        lock_unpoisoned(&self.inner).append(name, data)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        lock_unpoisoned(&self.inner).sync(name)
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        lock_unpoisoned(&self.inner).read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        lock_unpoisoned(&self.inner).list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        lock_unpoisoned(&self.inner).remove(name)
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        lock_unpoisoned(&self.inner).truncate(name, len)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        lock_unpoisoned(&self.inner).write_atomic(name, data)
    }
}

struct SegmentScan {
    records: Vec<(u64, WalRecord)>,
    /// `(truncate_to, dropped_bytes)` when the tail was torn.
    torn: Option<(u64, u64)>,
}

/// Parse one segment's bytes. `is_last` enables torn-tail truncation;
/// earlier segments were sealed by a later segment's existence, so any
/// damage in them is corruption.
fn scan_segment(name: &str, first_seq: u64, data: &[u8], is_last: bool) -> Result<SegmentScan> {
    let mut scan = SegmentScan {
        records: Vec::new(),
        torn: None,
    };
    // Header.
    if data.len() < SEGMENT_HEADER_LEN {
        if is_last {
            // A crash during segment creation: nothing was ever synced
            // from this segment, drop it entirely.
            scan.torn = Some((0, data.len() as u64));
            return Ok(scan);
        }
        return Err(wal_err(
            name,
            0,
            None,
            format!("segment header truncated to {} bytes", data.len()),
        ));
    }
    frame::check_header(data, SEGMENT_MAGIC, SEGMENT_VERSION..=SEGMENT_VERSION).map_err(
        |e| match e {
            FrameError::BadVersion(v) => {
                wal_err(name, 4, None, format!("unsupported segment version {v}"))
            }
            _ => wal_err(name, 0, None, "bad segment magic"),
        },
    )?;
    let header = frame::unseal(&data[..SEGMENT_HEADER_LEN])
        .map_err(|_| wal_err(name, 0, None, "segment header checksum mismatch"))?;
    let header_seq = Reader::new(&header[8..])
        .u64()
        .map_err(|_| wal_err(name, 8, None, "segment header truncated"))?;
    if header_seq != first_seq {
        return Err(wal_err(
            name,
            8,
            None,
            format!("segment name says first record {first_seq} but header says {header_seq}"),
        ));
    }

    let mut offset = SEGMENT_HEADER_LEN;
    let mut seq = first_seq;
    loop {
        let at = offset as u64;
        let fail = |stream, detail: String| Err(wal_err(name, at, stream, detail));
        let body = match frame::read_record(&data[offset..], MAX_RECORD_LEN) {
            Record::Body(body) => body,
            Record::End => return Ok(scan),
            // Only a write cut short leaves a frame prefix, and only at
            // the end of the newest segment.
            Record::Torn if is_last => {
                scan.torn = Some((at, (data.len() - offset) as u64));
                return Ok(scan);
            }
            Record::Torn => {
                let left = data.len() - offset;
                return fail(
                    None,
                    format!("frame truncated ({left} bytes) in a sealed segment"),
                );
            }
            // Length fields are written before any body byte, so a torn
            // write cannot corrupt them — this is interior damage.
            Record::LenCrc => return fail(None, "frame length checksum mismatch".into()),
            Record::OverCap(len) => {
                return fail(
                    None,
                    format!("frame declares implausible body length {len}"),
                )
            }
            // The whole frame is present, so it was fully written — a
            // mismatch is corruption, not tearing. Name the stream when
            // the body still decodes far enough to recover it.
            Record::BodyCrc(body) => {
                let stream = WalRecord::decode(body).map(|r| r.stream).ok();
                return fail(stream, format!("record {seq}: body checksum mismatch"));
            }
        };
        let record = WalRecord::decode(body).map_err(|(stream, detail)| {
            wal_err(name, at, stream, format!("record {seq}: {detail}"))
        })?;
        scan.records.push((seq, record));
        seq += 1;
        offset += frame::RECORD_OVERHEAD + body.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stream: &str, v: i64) -> WalRecord {
        WalRecord::event(stream, StreamEvent::Insert(Tuple::unary(v)))
    }

    fn manual_opts() -> WalOptions {
        WalOptions {
            sync: SyncPolicy::Manual,
            retry: RetryPolicy::none(),
            ..WalOptions::default()
        }
    }

    #[test]
    fn record_codec_roundtrips() {
        let records = [
            rec("s", 42),
            WalRecord::event("t", StreamEvent::Delete(Tuple(vec![i64::MIN, i64::MAX]))),
            WalRecord::weighted("u", &[1, 2, 3], 2.5),
            WalRecord::weighted("canon-insert", &[9], 1.0),
            WalRecord::weighted("canon-delete", &[9], -1.0),
            WalRecord::register("v", Bytes::from(vec![1u8, 2, 3])),
            WalRecord::drop_stream("w"),
        ];
        for r in &records {
            let body = r.encode();
            assert_eq!(&WalRecord::decode(body.as_slice()).unwrap(), r);
        }
        // ±1 weights canonicalize to events.
        assert!(matches!(
            WalRecord::weighted("x", &[1], 1.0).op,
            WalOp::Event(StreamEvent::Insert(_))
        ));
        assert!(matches!(
            WalRecord::weighted("x", &[1], -1.0).op,
            WalOp::Event(StreamEvent::Delete(_))
        ));
    }

    #[test]
    fn record_decode_rejects_damage() {
        let body = rec("stream-name", 7).encode().to_vec();
        for n in 0..body.len() {
            assert!(WalRecord::decode(&body[..n]).is_err(), "prefix {n}");
        }
        let mut trailing = body.clone();
        trailing.push(0);
        assert!(WalRecord::decode(&trailing).is_err());
        let mut bad_kind = body.clone();
        bad_kind[0] = 99;
        let (stream, detail) = WalRecord::decode(&bad_kind).unwrap_err();
        assert_eq!(stream.as_deref(), Some("stream-name"));
        assert!(detail.contains("unknown record kind"));
    }

    #[test]
    fn append_replay_roundtrip() {
        let mem = MemStorage::new();
        let (mut wal, out) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        assert_eq!(out.records.len(), 0);
        let mut expect = Vec::new();
        for v in 0..100 {
            let r = rec(if v % 2 == 0 { "a" } else { "b" }, v);
            let seq = wal.append(&r).unwrap();
            assert_eq!(seq, v as u64 + 1);
            expect.push((seq, r));
        }
        wal.sync().unwrap();
        assert_eq!(wal.watermark(), 100);
        let (wal2, out) = Wal::open(mem, manual_opts(), 0).unwrap();
        assert_eq!(out.records, expect);
        assert!(out.torn_tail.is_none());
        assert_eq!(wal2.watermark(), 100);
    }

    #[test]
    fn replay_skips_watermarked_prefix() {
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        for v in 0..10 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let (_, out) = Wal::open(mem, manual_opts(), 7).unwrap();
        let seqs: Vec<u64> = out.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![8, 9, 10]);
    }

    #[test]
    fn rotation_splits_segments_and_replay_chains_them() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200, // tiny: force several segments
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts.clone(), 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let files = mem.snapshot();
        assert!(files.len() > 1, "expected rotation, got {}", files.len());
        let (_, out) = Wal::open(mem, opts, 0).unwrap();
        assert_eq!(out.records.len(), 50);
        assert_eq!(out.segments_scanned, files.len());
        let seqs: Vec<u64> = out.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn note_checkpoint_retires_covered_segments() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts.clone(), 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let wm = wal.watermark();
        let retired = wal.note_checkpoint(wm).unwrap();
        assert!(retired > 0);
        assert!(mem.snapshot().is_empty(), "all segments were covered");
        // Appends after the checkpoint open a fresh segment at seq 51.
        wal.append(&rec("s", 99)).unwrap();
        wal.sync().unwrap();
        assert!(mem.snapshot().contains_key(&segment_name(51)));
        let (_, out) = Wal::open(mem, opts, wm).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].0, 51);
    }

    #[test]
    fn partial_checkpoint_keeps_uncovered_segments() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts.clone(), 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        // Checkpoint covering only the first 10 records: segments holding
        // records ≤ 10 exclusively may go; later ones must stay.
        wal.note_checkpoint(10).unwrap();
        let (_, out) = Wal::open(mem, opts, 10).unwrap();
        let seqs: Vec<u64> = out.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, (11..=50).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        for v in 0..5 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        // Simulate a torn write: append a frame prefix by hand.
        let name = segment_name(1);
        let mut files = mem.snapshot();
        let full_len = files[&name].len();
        files.get_mut(&name).unwrap().extend_from_slice(&[7, 0, 0]);
        mem.restore(files);
        let (wal2, out) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        assert_eq!(out.records.len(), 5);
        let torn = out.torn_tail.expect("tail was torn");
        assert_eq!(torn.segment, name);
        assert_eq!(torn.offset as usize, full_len);
        assert_eq!(torn.dropped, 3);
        // Storage was actually truncated.
        assert_eq!(mem.snapshot()[&name].len(), full_len);
        assert_eq!(wal2.watermark(), 5);
    }

    #[test]
    fn append_after_torn_header_recovery_reopens_cleanly() {
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        for v in 0..3 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        wal.note_checkpoint(wal.watermark()).unwrap();
        // Crash mid-header of the next segment: only 5 of 20 bytes land.
        let name = segment_name(4);
        let mut files = mem.snapshot();
        let mut header = Vec::new();
        put_segment_header(&mut header, 4);
        files.insert(name.clone(), header[..5].to_vec());
        mem.restore(files);
        let (mut wal2, out) = Wal::open(mem.clone(), manual_opts(), 3).unwrap();
        let torn = out.torn_tail.expect("header was torn");
        assert_eq!(torn.offset, 0);
        // The truncated-to-nothing segment must not be left active:
        // post-recovery appends re-emit the header into the same file,
        // and the log stays openable with the records intact.
        wal2.append(&rec("s", 99)).unwrap();
        wal2.sync().unwrap();
        let (_, out) = Wal::open(mem, manual_opts(), 3).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].0, 4);
        assert_eq!(out.records[0].1, rec("s", 99));
    }

    #[test]
    fn interior_corruption_is_a_typed_error() {
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        for v in 0..5 {
            wal.append(&rec("victim", v)).unwrap();
        }
        wal.sync().unwrap();
        let name = segment_name(1);
        let mut files = mem.snapshot();
        // Flip a byte inside the SECOND frame's body (interior, not tail).
        let body_len = rec("victim", 0).encode().len();
        let second_frame_body = SEGMENT_HEADER_LEN + (frame::RECORD_OVERHEAD + body_len) + 8 + 2;
        files.get_mut(&name).unwrap()[second_frame_body] ^= 0xFF;
        mem.restore(files);
        let e = Wal::open(mem, manual_opts(), 0).unwrap_err();
        match e {
            DctError::Wal {
                segment, offset, ..
            } => {
                assert_eq!(segment, name);
                assert_eq!(
                    offset as usize,
                    SEGMENT_HEADER_LEN + frame::RECORD_OVERHEAD + body_len
                );
            }
            other => panic!("expected Wal error, got {other:?}"),
        }
    }

    #[test]
    fn sequence_gap_between_segments_is_an_error() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts.clone(), 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        // Delete a middle segment.
        let mut files = mem.snapshot();
        let middle = files.keys().nth(1).unwrap().clone();
        files.remove(&middle);
        mem.restore(files);
        let e = Wal::open(mem, opts, 0).unwrap_err();
        assert!(e.to_string().contains("sequence gap"), "{e}");
    }

    #[test]
    fn missing_oldest_records_is_an_error() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts.clone(), 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let mut files = mem.snapshot();
        let first = files.keys().next().unwrap().clone();
        files.remove(&first);
        mem.restore(files);
        // Watermark 0: the lost records were not covered by a checkpoint.
        let e = Wal::open(mem, opts, 0).unwrap_err();
        assert!(e.to_string().contains("missing"), "{e}");
    }

    #[test]
    fn sync_policies_control_when_bytes_land() {
        // Manual: nothing reaches storage until sync.
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem.clone(), manual_opts(), 0).unwrap();
        wal.append(&rec("s", 1)).unwrap();
        assert!(mem.snapshot().is_empty());
        wal.sync().unwrap();
        assert_eq!(mem.snapshot().len(), 1);

        // Always: every append lands immediately.
        let mem = MemStorage::new();
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts, 0).unwrap();
        wal.append(&rec("s", 1)).unwrap();
        assert_eq!(mem.snapshot().len(), 1);

        // EveryN(3): lands on the third append.
        let mem = MemStorage::new();
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(3),
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts, 0).unwrap();
        wal.append(&rec("s", 1)).unwrap();
        wal.append(&rec("s", 2)).unwrap();
        assert!(mem.snapshot().is_empty());
        wal.append(&rec("s", 3)).unwrap();
        assert!(!mem.snapshot().is_empty());
    }

    #[test]
    fn reopen_unwedges_and_recovers_the_durable_prefix() {
        let mem = MemStorage::new();
        let failing = FailingStorage::with_budget(mem.clone(), 200);
        let (mut wal, _) = Wal::open(failing, manual_opts(), 0).unwrap();
        let mut last_ok: u64 = 0;
        while wal
            .append(&rec("s", last_ok as i64 + 1))
            .and_then(|_| wal.sync())
            .is_ok()
        {
            last_ok += 1;
        }
        // The log is wedged: appends are refused until reopened.
        assert!(wal.append(&rec("s", 999)).is_err());

        let outcome = wal.reopen(0).unwrap();
        let durable = outcome.records.len() as u64;
        // Everything covered by a completed sync survived; the torn
        // in-flight record may or may not have (storage kept a prefix).
        assert!(durable >= last_ok, "durable {durable} < synced {last_ok}");
        assert_eq!(wal.watermark(), durable);
        // The log accepts appends again, continuing the sequence.
        let seq = wal.append(&rec("s", 1000)).unwrap();
        assert_eq!(seq, durable + 1);
        // FailingStorage is dead after its budget, so flush the buffer
        // elsewhere: reopening against the pristine MemStorage replays
        // the same durable records.
        let (_, replay) = Wal::open(mem, manual_opts(), 0).unwrap();
        assert_eq!(replay.records.len() as u64, durable);
    }

    #[test]
    fn reopen_on_a_healthy_log_keeps_synced_records() {
        let mem = MemStorage::new();
        let (mut wal, _) = Wal::open(mem, manual_opts(), 0).unwrap();
        for v in 0..5 {
            wal.append(&rec("s", v)).unwrap();
        }
        // Buffered but unsynced: reopen flushes before rescanning, so
        // nothing is lost on the happy path.
        let outcome = wal.reopen(0).unwrap();
        assert_eq!(outcome.records.len(), 5);
        assert_eq!(wal.watermark(), 5);
    }

    #[test]
    fn verify_is_clean_on_intact_logs_and_names_damaged_segments() {
        let mem = MemStorage::new();
        let opts = WalOptions {
            segment_max_bytes: 200,
            ..manual_opts()
        };
        let (mut wal, _) = Wal::open(mem.clone(), opts, 0).unwrap();
        for v in 0..50 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let (checked, violations) = wal.verify().unwrap();
        assert!(checked > 1, "want multiple segments, got {checked}");
        assert!(violations.is_empty(), "{violations:?}");

        // Flip one byte in a sealed segment: exactly one violation,
        // naming that segment.
        let files = mem.snapshot();
        let victim = files.keys().next().unwrap().clone();
        let mut damaged = files.clone();
        damaged.get_mut(&victim).unwrap()[30] ^= 0x40;
        mem.restore(damaged);
        let (_, violations) = wal.verify().unwrap();
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].to_string().contains(&victim),
            "{}",
            violations[0]
        );
        // verify() never mutates: the damage is still there.
        let (_, again) = wal.verify().unwrap();
        assert_eq!(again.len(), 1);
        mem.restore(files);
        let (_, clean) = wal.verify().unwrap();
        assert!(clean.is_empty());
    }

    #[test]
    fn transient_failures_are_retried() {
        let mem = MemStorage::new();
        let failing = FailingStorage::with_transient_failures(mem.clone(), 2);
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            retry: RetryPolicy {
                max_retries: 3,
                initial_backoff: Duration::ZERO,
            },
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(failing.clone(), opts, 0).unwrap();
        wal.append(&rec("s", 1)).unwrap();
        assert!(failing.transient_served() >= 2);
        assert_eq!(mem.snapshot().len(), 1);
    }

    #[test]
    fn exhausted_retries_wedge_the_log() {
        let mem = MemStorage::new();
        let failing = FailingStorage::with_transient_failures(mem, 10);
        let opts = WalOptions {
            sync: SyncPolicy::Always,
            retry: RetryPolicy {
                max_retries: 1,
                initial_backoff: Duration::ZERO,
            },
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open(failing, opts, 0).unwrap();
        let e = wal.append(&rec("s", 1)).unwrap_err();
        assert!(matches!(e, DctError::Wal { .. }));
        // Wedged: the next append refuses too, with a typed error.
        let e = wal.append(&rec("s", 2)).unwrap_err();
        assert!(e.to_string().contains("wedged"), "{e}");
    }

    #[test]
    fn dir_storage_end_to_end() {
        let dir = std::env::temp_dir().join(format!("dctstream-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let storage = DirStorage::open(&dir).unwrap();
        let (mut wal, _) = Wal::open(storage, manual_opts(), 0).unwrap();
        for v in 0..20 {
            wal.append(&rec("s", v)).unwrap();
        }
        wal.sync().unwrap();
        let storage = DirStorage::open(&dir).unwrap();
        let (_, out) = Wal::open(storage, manual_opts(), 0).unwrap();
        assert_eq!(out.records.len(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }
}
