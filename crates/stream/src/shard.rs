//! The sharded registry fleet: hash-partitioned durable ingest,
//! coefficient-merge coordination, WAL shipping to warm followers, and
//! crash-attributed degraded reads.
//!
//! ## Why sharding is exact here
//!
//! DCT synopses are *linear*: `merge_from` adds coefficient sums, so a
//! registry split across N independent shards answers any join by
//! merging `C(m+d-1, d)` coefficient floats per stream instead of
//! moving data ([`crate::RegistrySnapshot::merged`]). One shard is
//! bit-identical to today's single registry; N shards agree with it to
//! the f64 addition-reorder bound (≤1e-9 relative), the same property
//! [`crate::ParallelIngest`]'s tree reduction is tested against.
//!
//! ## Anatomy of a shard
//!
//! Each shard pairs a **primary** ([`crate::DurableProcessor`] in
//! `shard-NN/primary-eE/`, its own WAL lineage and checkpoint) with a
//! warm **follower** (`shard-NN/follower-eE/`), connected by a
//! [`crate::SegmentShipper`]. The fleet manifest (`fleet.dctf` in the
//! fleet root, CRC-framed, atomically replaced) stamps every shard with
//! its id, epoch, and directory pair, so an operator — or a later
//! [`ShardedRegistry::open`] — reconstructs the fleet from disk alone.
//!
//! Updates route by FNV-1a hash of the tuple's little-endian bytes
//! (`hash % N`); registrations broadcast to every shard so each holds a
//! same-shaped (same seeds, same layout) partial summary. The primary
//! pins WAL retention at the follower's acked sequence
//! ([`crate::recovery::DurableProcessor::pin_wal_retention`]), so a
//! checkpoint during slow shipping can never strand the follower.
//!
//! ## Failure and promotion
//!
//! [`ShardedRegistry::kill`] drops a primary mid-flight (buffered,
//! never-synced WAL bytes are lost with it — exactly a crash). Queries
//! keep answering: [`ShardedRegistry::capture_merged_at`] substitutes
//! the dead shard's follower state and records its staleness
//! (`records_behind` / `gross_weight_behind` versus the primary's last
//! published watermark) in the merged snapshot
//! ([`crate::RegistrySnapshot::dead_shards`]), so the attribution travels
//! with the capture it describes. A live shard's quarantined stream is
//! attributed inside the merged snapshot itself
//! ([`crate::RegistrySnapshot::attribution`]), because each primary's
//! [`crate::DurableProcessor::capture_snapshot`] already substitutes
//! it. [`ShardedRegistry::promote`] drains the shipped tail, verifies
//! the replay (structural invariants +
//! watermark delta ≥ the published ack position), re-opens the follower
//! directory as the new primary through the ordinary recovery path,
//! checkpoints to start the new epoch at a clean anchor, and attaches a
//! fresh follower — all stamped into the manifest as epoch E+1.
//!
//! ## Publishing merged captures
//!
//! A merged capture locks every shard in turn, so readers do not take
//! one per query: the serve daemon publishes a capture after every
//! `publish_every` ingested rows (and on register, checkpoint and
//! startup), and readers clone it out of a [`crate::SnapshotCell`].
//! Changes no ingest publishes — [`ShardedRegistry::kill`],
//! [`ShardedRegistry::promote`], [`ShardedRegistry::ship_and_replay`]
//! and [`ShardedRegistry::quarantine_stream`] — bump the fleet
//! [`ShardedRegistry::generation`] after they take effect. A capture
//! stamps the generation it read *before* locking any shard, so a
//! published snapshot whose [`crate::RegistrySnapshot::generation`]
//! equals the fleet's has seen every such change, and a reader that
//! finds it behind republishes first.

use crate::health::HealthCause;
use crate::processor::Summary;
use crate::recovery::{DurableProcessor, RecoveryOptions};
use crate::ship::{Follower, SegmentShipper, ShipOptions, ShipReport, ShipWatermark};
use crate::snapshot::{RegistrySnapshot, StreamStats};
use crate::wal::{DirStorage, WalStorage};
use dctstream_core::{DctError, Result};
use dctstream_obs::frame::{self, FrameError, Reader, Truncated};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// File name of the fleet manifest inside the fleet root.
pub const FLEET_MANIFEST_FILE: &str = "fleet.dctf";
/// Magic tag opening the fleet manifest.
pub const FLEET_MAGIC: &[u8; 4] = b"DCTF";
/// Current fleet manifest format version.
pub const FLEET_VERSION: u8 = 1;
/// Smallest shard entry: id, epoch, and two empty directory names.
const SHARD_ENTRY_MIN_LEN: usize = 4 + 8 + 2 + 2;
/// The retention-pin consumer id a shard registers for its follower.
const FOLLOWER_PIN: &str = "follower";

/// Tuning knobs for a [`ShardedRegistry`].
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Per-shard recovery configuration (WAL sync policy, retries,
    /// flush threshold).
    pub recovery: RecoveryOptions,
    /// Segment-shipping configuration (per-round byte budget, retries).
    pub ship: ShipOptions,
}

/// One shard's entry in the fleet manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// Shard id (dense, 0-based).
    pub id: u32,
    /// Promotion epoch (1 at fleet creation; +1 per promotion).
    pub epoch: u64,
    /// Primary directory, relative to the fleet root.
    pub primary_dir: String,
    /// Follower directory, relative to the fleet root.
    pub follower_dir: String,
}

/// The fleet manifest: every shard's id, epoch, and directory pair.
/// Serialized CRC-framed and replaced atomically, like every other
/// durable artifact in the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    /// Per-shard metadata, ordered by shard id.
    pub shards: Vec<ShardMeta>,
}

impl FleetManifest {
    /// Serialize: magic, version, shard count, per-shard fields, sealed
    /// with a CRC-32 of everything preceding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 * self.shards.len() + 16);
        frame::put_header(&mut buf, FLEET_MAGIC, FLEET_VERSION);
        buf.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for s in &self.shards {
            buf.extend_from_slice(&s.id.to_le_bytes());
            buf.extend_from_slice(&s.epoch.to_le_bytes());
            for dir in [&s.primary_dir, &s.follower_dir] {
                let b = dir.as_bytes();
                buf.extend_from_slice(&(b.len() as u16).to_le_bytes());
                buf.extend_from_slice(b);
            }
        }
        frame::seal(&mut buf, 0);
        buf
    }

    /// Parse and CRC-verify a serialized manifest. The seal is checked
    /// before the magic; the shard count is bounded by the bytes that
    /// remain, and bytes past the last entry are rejected.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let err = |d: &str| DctError::Checkpoint(format!("fleet manifest: {d}"));
        if data.len() < 13 {
            return Err(err("truncated"));
        }
        let body = frame::unseal(data).map_err(|_| err("checksum mismatch"))?;
        frame::check_header(body, FLEET_MAGIC, FLEET_VERSION..=FLEET_VERSION).map_err(
            |e| match e {
                FrameError::BadVersion(v) => err(&format!("unsupported version {v}")),
                _ => err("bad magic"),
            },
        )?;
        let mut r = Reader::new(&body[5..]);
        let truncated = |_: Truncated| err("truncated shard entry");
        let count = r.u32().map_err(truncated)? as usize;
        if count > r.remaining() / SHARD_ENTRY_MIN_LEN {
            return Err(err(&format!(
                "{count} shards cannot fit in {} bytes",
                r.remaining()
            )));
        }
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let id = r.u32().map_err(truncated)?;
            let epoch = r.u64().map_err(truncated)?;
            let mut dirs = [String::new(), String::new()];
            for dir in dirs.iter_mut() {
                let len = r.u16().map_err(truncated)?;
                *dir = String::from_utf8(r.take(len as usize).map_err(truncated)?.to_vec())
                    .map_err(|_| err("non-utf8 directory name"))?;
            }
            let [primary_dir, follower_dir] = dirs;
            shards.push(ShardMeta {
                id,
                epoch,
                primary_dir,
                follower_dir,
            });
        }
        if r.remaining() != 0 {
            return Err(err(&format!(
                "{} trailing bytes after the last shard entry",
                r.remaining()
            )));
        }
        Ok(FleetManifest { shards })
    }
}

/// Staleness attribution for one shard answered from its follower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStaleness {
    /// The dead shard whose follower substituted.
    pub shard: usize,
    /// Update records the follower had not replayed when the answer was
    /// captured, versus the primary's last published watermark.
    pub records_behind: u64,
    /// Gross update mass (`Σ|w|`) not yet replayed — turnstile-sound,
    /// so cancelling churn still counts in full.
    pub gross_weight_behind: f64,
}

/// One shard's externally visible state (`fleet-status`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStatus {
    /// Shard id.
    pub id: usize,
    /// Current promotion epoch.
    pub epoch: u64,
    /// Whether the primary is alive.
    pub alive: bool,
    /// Why the primary is down (`None` while alive).
    pub down_cause: Option<String>,
    /// The primary's published watermark sequence.
    pub published_seq: u64,
    /// The follower's applied sequence (its ack position).
    pub follower_applied_seq: u64,
    /// Update records the follower is behind the published watermark.
    pub records_behind: u64,
    /// Gross update mass the follower is behind.
    pub gross_weight_behind: f64,
}

/// What a [`ShardedRegistry::promote`] verified and installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromotionReport {
    /// The promoted shard.
    pub shard: usize,
    /// The shard's new epoch.
    pub epoch: u64,
    /// WAL watermark of the promoted primary — every record at or below
    /// it survived, verified against the follower's replay.
    pub watermark: u64,
    /// The published (acked) watermark at the time of the crash; the
    /// promoted watermark is verified to be ≥ it.
    pub acked_seq: u64,
}

struct ShardSlot {
    id: usize,
    epoch: u64,
    primary: Option<DurableProcessor<DirStorage>>,
    down_cause: Option<String>,
    primary_dir: String,
    follower_dir: String,
    follower: Follower<DirStorage>,
    shipper: SegmentShipper<DirStorage, DirStorage>,
    /// The primary's last published (synced) position; what degraded
    /// answers and promotion verify against.
    published: ShipWatermark,
    /// Cumulative update totals accepted by this primary since the
    /// fleet anchor (creation, open, or promotion).
    lineage: StreamStats,
}

impl ShardSlot {
    fn primary_mut(&mut self) -> Result<&mut DurableProcessor<DirStorage>> {
        let id = self.id;
        match self.primary.as_mut() {
            Some(dp) => Ok(dp),
            None => Err(DctError::StreamQuarantined {
                stream: format!("shard-{id:02}"),
                cause: self
                    .down_cause
                    .clone()
                    .unwrap_or_else(|| "shard primary is down".into()),
            }),
        }
    }

    /// Publish the primary's current durable position. Call only after
    /// a completed sync: published positions are promises to the
    /// coordinator about what a promotion must preserve.
    fn publish(&mut self) {
        if let Some(dp) = &self.primary {
            self.published = ShipWatermark {
                seq: dp.wal_watermark(),
                stats: self.lineage,
            };
        }
    }
}

/// A hash-partitioned fleet of durable registry shards with warm
/// followers and merged answering. See the module docs.
pub struct ShardedRegistry {
    root: PathBuf,
    slots: Vec<Mutex<ShardSlot>>,
    opts: FleetOptions,
    /// Bumped after every change to what a merged capture reads that no
    /// ingest publishes (see the module docs).
    generation: AtomicU64,
}

impl std::fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRegistry")
            .field("root", &self.root)
            .field("shards", &self.slots.len())
            .finish()
    }
}

fn fleet_err(detail: impl Into<String>) -> DctError {
    DctError::Checkpoint(format!("fleet: {}", detail.into()))
}

impl ShardedRegistry {
    /// Create a fresh fleet of `shards` shards under `root` (which must
    /// not already hold a fleet manifest).
    pub fn create(root: impl Into<PathBuf>, shards: usize, opts: FleetOptions) -> Result<Self> {
        let root = root.into();
        if shards == 0 {
            return Err(DctError::InvalidParameter(
                "a fleet needs at least one shard".into(),
            ));
        }
        let mut storage = DirStorage::open(&root)
            .map_err(|e| fleet_err(format!("opening fleet root {}: {e}", root.display())))?;
        if storage.read(FLEET_MANIFEST_FILE).is_ok() {
            return Err(fleet_err(format!(
                "{} already holds a fleet manifest — use open()",
                root.display()
            )));
        }
        let mut metas = Vec::with_capacity(shards);
        let mut slots = Vec::with_capacity(shards);
        for id in 0..shards {
            let meta = ShardMeta {
                id: id as u32,
                epoch: 1,
                primary_dir: format!("shard-{id:02}/primary-e1"),
                follower_dir: format!("shard-{id:02}/follower-e1"),
            };
            let slot = Self::open_slot(&root, &meta, &opts)?;
            metas.push(meta);
            slots.push(Mutex::new(slot));
        }
        let manifest = FleetManifest { shards: metas };
        storage
            .write_atomic(FLEET_MANIFEST_FILE, &manifest.to_bytes())
            .map_err(|e| fleet_err(format!("writing {FLEET_MANIFEST_FILE}: {e}")))?;
        dctstream_obs::gauge_set!("fleet.shards", shards as f64);
        Ok(ShardedRegistry {
            root,
            slots,
            opts,
            generation: AtomicU64::new(0),
        })
    }

    /// Re-open an existing fleet from its manifest. A shard whose
    /// primary fails to open is carried *down* (its cause recorded, its
    /// follower still answering) rather than failing the whole fleet —
    /// that is what [`Self::promote`] is for.
    pub fn open(root: impl Into<PathBuf>, opts: FleetOptions) -> Result<Self> {
        let root = root.into();
        let storage = DirStorage::open(&root)
            .map_err(|e| fleet_err(format!("opening fleet root {}: {e}", root.display())))?;
        let bytes = storage
            .read(FLEET_MANIFEST_FILE)
            .map_err(|e| fleet_err(format!("reading {FLEET_MANIFEST_FILE}: {e}")))?;
        let manifest = FleetManifest::from_bytes(&bytes)?;
        let mut slots = Vec::with_capacity(manifest.shards.len());
        for meta in &manifest.shards {
            slots.push(Mutex::new(Self::open_slot(&root, meta, &opts)?));
        }
        let fleet = ShardedRegistry {
            root,
            slots,
            opts,
            generation: AtomicU64::new(0),
        };
        // Bring followers to parity, then re-anchor both sides of every
        // pair together so staleness accounting starts exact from here.
        for _ in 0..64 {
            let reports = fleet.ship_and_replay()?;
            if reports
                .iter()
                .all(|r| !r.budget_exhausted && r.bytes_shipped == 0)
            {
                break;
            }
        }
        for slot in &fleet.slots {
            let mut s = lock(slot);
            s.follower.rebase_stats();
            s.lineage = StreamStats::default();
            s.publish();
            if s.primary.is_none() {
                // No live primary to publish from: anchor at the
                // follower's replayed position so nothing reads as
                // behind what no one can ship.
                s.published = ShipWatermark {
                    seq: s.follower.applied_seq(),
                    stats: StreamStats::default(),
                };
            }
        }
        dctstream_obs::gauge_set!("fleet.shards", fleet.slots.len() as f64);
        Ok(fleet)
    }

    fn open_slot(root: &Path, meta: &ShardMeta, opts: &FleetOptions) -> Result<ShardSlot> {
        let primary_abs = root.join(&meta.primary_dir);
        let follower_abs = root.join(&meta.follower_dir);
        let (primary, down_cause) =
            match DurableProcessor::open_dir(&primary_abs, opts.recovery.clone()) {
                Ok((dp, _report)) => (Some(dp), None),
                Err(e) => (None, Some(format!("primary failed to open: {e}"))),
            };
        let follower_storage = DirStorage::open(&follower_abs)
            .map_err(|e| fleet_err(format!("opening follower dir: {e}")))?;
        let mut follower = Follower::open(follower_storage, opts.recovery.wal.clone())?;
        follower.replay_new()?;
        let src = DirStorage::open(&primary_abs)
            .map_err(|e| fleet_err(format!("opening shipper source: {e}")))?;
        let dst = DirStorage::open(&follower_abs)
            .map_err(|e| fleet_err(format!("opening shipper destination: {e}")))?;
        let shipper = SegmentShipper::new(src, dst, opts.ship.clone());
        let mut slot = ShardSlot {
            id: meta.id as usize,
            epoch: meta.epoch,
            primary,
            down_cause,
            primary_dir: meta.primary_dir.clone(),
            follower_dir: meta.follower_dir.clone(),
            follower,
            shipper,
            published: ShipWatermark::default(),
            lineage: StreamStats::default(),
        };
        if let Some(dp) = slot.primary.as_mut() {
            dp.pin_wal_retention(FOLLOWER_PIN, slot.follower.applied_seq());
        }
        slot.publish();
        Ok(slot)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The fleet root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The fleet generation: it moves after every kill, promotion,
    /// shipping round and stream quarantine, and never on ingest.
    /// Compare with [`RegistrySnapshot::generation`] to tell whether a
    /// published capture may miss one of them.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Deterministic routing: FNV-1a over the tuple's little-endian
    /// bytes, modulo the shard count.
    pub fn route(&self, tuple: &[i64]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in tuple {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h % self.slots.len() as u64) as usize
    }

    /// Register a stream fleet-wide: every shard gets a same-shaped
    /// copy of the summary (same construction, same seeds), so its
    /// partials merge exactly. Fails if any shard is down — a fleet
    /// must be whole to change its schema.
    pub fn register(&self, name: impl Into<String>, summary: Summary) -> Result<()> {
        let name = name.into();
        for slot in &self.slots {
            let mut s = lock(slot);
            s.primary_mut()?.register(name.clone(), summary.clone())?;
        }
        Ok(())
    }

    /// Route one weighted update to its shard. Returns `(shard, seq)`;
    /// the record is durable once the shard's next sync covers it
    /// ([`Self::publish_all`], [`Self::ingest`] batches, or a
    /// checkpoint). A routed-to shard being down is a typed error —
    /// writes do not fail over, only reads do.
    pub fn process_weighted(&self, stream: &str, tuple: &[i64], w: f64) -> Result<(usize, u64)> {
        let shard = self.route(tuple);
        let mut s = lock(&self.slots[shard]);
        let seq = s.primary_mut()?.process_weighted(stream, tuple, w)?;
        s.lineage.records += 1;
        s.lineage.gross_weight += w.abs();
        Ok((shard, seq))
    }

    /// Ingest a batch: partition rows by routing hash, apply each
    /// shard's partition under its own lock (in parallel across shards
    /// when more than one partition is non-empty), then sync and
    /// publish each touched shard. Returns the rows applied.
    pub fn ingest(&self, stream: &str, rows: &[(Vec<i64>, f64)]) -> Result<u64> {
        let n = self.slots.len();
        let mut parts: Vec<Vec<&(Vec<i64>, f64)>> = vec![Vec::new(); n];
        for row in rows {
            parts[self.route(&row.0)].push(row);
        }
        let apply = |shard: usize, part: &[&(Vec<i64>, f64)]| -> Result<u64> {
            let mut s = lock(&self.slots[shard]);
            {
                let dp = s.primary_mut()?;
                for (tuple, w) in part.iter().map(|r| (&r.0, r.1)) {
                    dp.process_weighted(stream, tuple, w)?;
                }
            }
            for (_, w) in part.iter().map(|r| (&r.0, r.1)) {
                s.lineage.records += 1;
                s.lineage.gross_weight += w.abs();
            }
            s.primary_mut()?.sync()?;
            s.publish();
            Ok(part.len() as u64)
        };
        let busy: Vec<usize> = (0..n).filter(|i| !parts[*i].is_empty()).collect();
        let mut applied = 0u64;
        if busy.len() <= 1 {
            for &i in &busy {
                applied += apply(i, &parts[i])?;
            }
        } else {
            let (apply, parts) = (&apply, &parts);
            let results: Vec<Result<u64>> = std::thread::scope(|scope| {
                let handles: Vec<_> = busy
                    .iter()
                    .map(|&i| scope.spawn(move || apply(i, &parts[i])))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        Err(_) => Err(fleet_err("ingest worker panicked")),
                    })
                    .collect()
            });
            for r in results {
                applied += r?;
            }
        }
        dctstream_obs::counter_add!("fleet.ingested_rows", applied);
        Ok(applied)
    }

    /// Sync every live shard's WAL and publish its durable position.
    pub fn publish_all(&self) -> Result<()> {
        for slot in &self.slots {
            let mut s = lock(slot);
            if s.primary.is_some() {
                s.primary_mut()?.sync()?;
                s.publish();
            }
        }
        Ok(())
    }

    /// Checkpoint every live shard (retention pins keep segments the
    /// follower has not acked). Returns total segments retired.
    pub fn checkpoint_all(&self) -> Result<usize> {
        let mut retired = 0;
        for slot in &self.slots {
            let mut s = lock(slot);
            if s.primary.is_some() {
                retired += s.primary_mut()?.checkpoint()?;
                // The manifest just written covers exactly the lineage
                // counted so far; a follower that later bootstraps from
                // it (first frame still incomplete under a tiny ship
                // budget, or a post-truncation reset) must credit these
                // totals or report itself behind forever.
                let seed = s.lineage;
                s.follower.set_bootstrap_seed(seed);
                s.publish();
            }
        }
        Ok(retired)
    }

    /// Quarantine `stream` on every live shard, recording `cause` (see
    /// [`DurableProcessor::quarantine_stream`]): checkpoints then refuse,
    /// ingest into the stream is refused, and captures answer it from
    /// each shard's last checkpoint. A dead shard is skipped; its
    /// follower never ingests. Stops at the first shard that refuses.
    pub fn quarantine_stream(&self, stream: &str, cause: HealthCause) -> Result<()> {
        let outcome = self
            .slots
            .iter()
            .try_for_each(|slot| match lock(slot).primary.as_mut() {
                Some(dp) => dp.quarantine_stream(stream, cause.clone()).map(drop),
                None => Ok(()),
            });
        self.bump_generation();
        outcome
    }

    /// One bounded shipping round per shard, followed by follower
    /// replay, retention-pin advance, and (for live shards) a publish.
    /// Shards whose primary is down still ship — the shipper reads the
    /// dead primary's directory directly, which is the whole point of
    /// shipping durable bytes rather than live state.
    pub fn ship_and_replay(&self) -> Result<Vec<ShipReport>> {
        let reports = self
            .slots
            .iter()
            .map(|slot| {
                let mut s = lock(slot);
                let report = s.shipper.ship_once()?;
                if report.dst_truncated {
                    s.follower.reset()?;
                } else {
                    s.follower.replay_new()?;
                }
                let acked = s.follower.applied_seq();
                if let Some(dp) = s.primary.as_mut() {
                    dp.pin_wal_retention(FOLLOWER_PIN, acked);
                }
                s.publish();
                Ok(report)
            })
            .collect();
        // Followers may have moved even if a later shard failed.
        self.bump_generation();
        reports
    }

    /// Kill a shard's primary in place: the in-memory registry and any
    /// buffered, never-synced WAL bytes are dropped, exactly as a crash
    /// would lose them. The follower, the shipped store, and the
    /// primary's durable directory survive. Returns the last published
    /// (acked) watermark — the bar a later [`Self::promote`] must meet.
    pub fn kill(&self, shard: usize) -> Result<ShipWatermark> {
        let mut s = self.slot(shard)?;
        if s.primary.take().is_none() {
            return Err(DctError::InvalidParameter(format!(
                "shard {shard} is already down"
            )));
        }
        s.down_cause = Some("killed by fault injection".into());
        self.bump_generation();
        dctstream_obs::counter_add!("fleet.kills", 1);
        Ok(s.published)
    }

    fn slot(&self, shard: usize) -> Result<std::sync::MutexGuard<'_, ShardSlot>> {
        self.slots
            .get(shard)
            .map(lock)
            .ok_or_else(|| DctError::InvalidParameter(format!("no shard {shard}")))
    }

    /// Per-shard status (`fleet-status`, `/v1/fleet`).
    pub fn status(&self) -> Vec<ShardStatus> {
        self.slots
            .iter()
            .map(|slot| {
                let s = lock(slot);
                let (records_behind, gross_weight_behind) = s.follower.behind(&s.published);
                ShardStatus {
                    id: s.id,
                    epoch: s.epoch,
                    alive: s.primary.is_some(),
                    down_cause: s.down_cause.clone(),
                    published_seq: s.published.seq,
                    follower_applied_seq: s.follower.applied_seq(),
                    records_behind,
                    gross_weight_behind,
                }
            })
            .collect()
    }

    /// Capture one merged fleet snapshot at `epoch` (the serve daemon
    /// stamps merged snapshots with its snapshot-cell epochs): live
    /// shards contribute a primary snapshot; dead shards substitute
    /// their follower's replayed state, attributed in the staleness list
    /// that the snapshot carries ([`RegistrySnapshot::dead_shards`]) and
    /// that is also returned beside it. The snapshot is stamped with the
    /// generation read before the first lock. Locks are taken per shard
    /// in id order and released between shards — the merge is a
    /// moment-in-time composite, with any skew bounded by the reported
    /// staleness.
    pub fn capture_merged_at(&self, epoch: u64) -> Result<(RegistrySnapshot, Vec<ShardStaleness>)> {
        let generation = self.generation();
        let mut parts = Vec::with_capacity(self.slots.len());
        let mut degraded = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let mut s = lock(slot);
            match s.primary.as_mut() {
                Some(dp) => parts.push(dp.capture_snapshot(epoch)?),
                None => {
                    let (records_behind, gross_weight_behind) = s.follower.behind(&s.published);
                    degraded.push(ShardStaleness {
                        shard: i,
                        records_behind,
                        gross_weight_behind,
                    });
                    parts.push(s.follower.snapshot(epoch)?);
                }
            }
        }
        let refs: Vec<&RegistrySnapshot> = parts.iter().collect();
        let mut merged = RegistrySnapshot::merged(epoch, &refs)?;
        merged.generation = generation;
        merged.dead_shards = degraded.clone();
        Ok((merged, degraded))
    }

    /// Promote a dead shard's follower to primary: drain the shipped
    /// tail, verify the replay (structural invariants on every summary,
    /// watermark delta against the published ack position), re-open the
    /// follower directory as the new primary through the ordinary
    /// recovery path, checkpoint it to anchor the new epoch, attach a
    /// fresh follower, and stamp epoch+1 into the fleet manifest.
    pub fn promote(&self, shard: usize) -> Result<PromotionReport> {
        let mut s = self.slot(shard)?;
        if s.primary.is_some() {
            return Err(DctError::InvalidParameter(format!(
                "shard {shard} has a live primary; kill it before promoting"
            )));
        }
        // 1. Drain the shipped tail completely.
        for i in 0.. {
            if i >= 100_000 {
                return Err(fleet_err("shipping failed to drain before promotion"));
            }
            let report = s.shipper.ship_once()?;
            if report.dst_truncated {
                s.follower.reset()?;
            } else {
                s.follower.replay_new()?;
            }
            if !report.budget_exhausted && report.bytes_shipped == 0 {
                break;
            }
        }
        // 2. Verify the follower's replayed state before trusting it.
        s.follower.check()?;
        let replayed_seq = s.follower.applied_seq();
        let acked_seq = s.published.seq;
        if replayed_seq < acked_seq {
            return Err(fleet_err(format!(
                "refusing to promote shard {shard}: follower replayed only to sequence \
                 {replayed_seq} but records through {acked_seq} were acknowledged — \
                 promotion would silently lose acked data"
            )));
        }
        // 3. Re-open the shipped store as a primary via the ordinary
        //    recovery path, and cross-check it against the replay.
        let follower_abs = self.root.join(&s.follower_dir);
        let (mut dp, report) =
            DurableProcessor::open_dir(&follower_abs, self.opts.recovery.clone())?;
        if !report.quarantined.is_empty() {
            return Err(fleet_err(format!(
                "refusing to promote shard {shard}: recovery quarantined {:?}",
                report.quarantined
            )));
        }
        if dp.wal_watermark() != replayed_seq {
            return Err(fleet_err(format!(
                "promotion watermark mismatch on shard {shard}: recovery opened at \
                 {} but the follower replayed to {replayed_seq}",
                dp.wal_watermark()
            )));
        }
        if dp.processor().events_processed() != s.follower.processor().events_processed() {
            return Err(fleet_err(format!(
                "promotion state divergence on shard {shard}: recovery absorbed {} events, \
                 the follower replayed {}",
                dp.processor().events_processed(),
                s.follower.processor().events_processed()
            )));
        }
        // 4. Anchor the new epoch: checkpoint so the fresh follower
        //    bootstraps at exactly this watermark, with both sides'
        //    staleness accounting zeroed together.
        dp.checkpoint()?;
        let epoch = s.epoch + 1;
        let new_follower_dir = format!("shard-{shard:02}/follower-e{epoch}");
        let new_primary_dir = s.follower_dir.clone();
        let follower_storage = DirStorage::open(self.root.join(&new_follower_dir))
            .map_err(|e| fleet_err(format!("creating follower dir: {e}")))?;
        let src = DirStorage::open(&follower_abs)
            .map_err(|e| fleet_err(format!("opening shipper source: {e}")))?;
        let dst = DirStorage::open(self.root.join(&new_follower_dir))
            .map_err(|e| fleet_err(format!("opening shipper destination: {e}")))?;
        let mut shipper = SegmentShipper::new(src, dst, self.opts.ship.clone());
        shipper.ship_once()?; // carries the manifest; segments are all retired
        let mut follower = Follower::open(follower_storage, self.opts.recovery.wal.clone())?;
        follower.replay_new()?;
        dp.pin_wal_retention(FOLLOWER_PIN, follower.applied_seq());

        s.primary = Some(dp);
        s.down_cause = None;
        s.epoch = epoch;
        s.primary_dir = new_primary_dir;
        s.follower_dir = new_follower_dir;
        s.follower = follower;
        s.shipper = shipper;
        s.lineage = StreamStats::default();
        s.publish();
        let watermark = s.published.seq;
        let (id, primary_dir, follower_dir) = (s.id, s.primary_dir.clone(), s.follower_dir.clone());
        drop(s);
        self.bump_generation();
        self.rewrite_manifest(id, epoch, primary_dir, follower_dir)?;
        dctstream_obs::counter_add!("fleet.promotions_total", 1);
        Ok(PromotionReport {
            shard,
            epoch,
            watermark,
            acked_seq,
        })
    }

    fn rewrite_manifest(
        &self,
        id: usize,
        epoch: u64,
        primary_dir: String,
        follower_dir: String,
    ) -> Result<()> {
        let mut storage = DirStorage::open(&self.root)
            .map_err(|e| fleet_err(format!("opening fleet root: {e}")))?;
        let bytes = storage
            .read(FLEET_MANIFEST_FILE)
            .map_err(|e| fleet_err(format!("reading {FLEET_MANIFEST_FILE}: {e}")))?;
        let mut manifest = FleetManifest::from_bytes(&bytes)?;
        let entry = manifest
            .shards
            .iter_mut()
            .find(|m| m.id as usize == id)
            .ok_or_else(|| fleet_err(format!("manifest has no shard {id}")))?;
        entry.epoch = epoch;
        entry.primary_dir = primary_dir;
        entry.follower_dir = follower_dir;
        storage
            .write_atomic(FLEET_MANIFEST_FILE, &manifest.to_bytes())
            .map_err(|e| fleet_err(format!("writing {FLEET_MANIFEST_FILE}: {e}")))
    }
}

fn lock(slot: &Mutex<ShardSlot>) -> std::sync::MutexGuard<'_, ShardSlot> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctstream_core::{CosineSynopsis, Domain, Grid};

    fn cosine(n: usize, m: usize) -> Summary {
        Summary::Cosine(CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dctstream-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rows(n: i64, domain: i64, stride: i64, w: f64) -> Vec<(Vec<i64>, f64)> {
        (0..n).map(|v| (vec![(v * stride) % domain], w)).collect()
    }

    /// `l ⋈ r` on a fresh merged capture, with its dead-shard staleness.
    fn estimate(fleet: &ShardedRegistry) -> (f64, Vec<ShardStaleness>) {
        let (snap, dead) = fleet.capture_merged_at(1).unwrap();
        (snap.estimate_cosine_join("l", "r", None).unwrap(), dead)
    }

    /// `l ⋈ r` on a capture of a single registry.
    fn single_estimate(p: &mut crate::StreamProcessor) -> f64 {
        RegistrySnapshot::capture(p, 1)
            .unwrap()
            .estimate_cosine_join("l", "r", None)
            .unwrap()
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let m = FleetManifest {
            shards: vec![
                ShardMeta {
                    id: 0,
                    epoch: 3,
                    primary_dir: "shard-00/primary-e1".into(),
                    follower_dir: "shard-00/follower-e3".into(),
                },
                ShardMeta {
                    id: 1,
                    epoch: 1,
                    primary_dir: "shard-01/primary-e1".into(),
                    follower_dir: "shard-01/follower-e1".into(),
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(FleetManifest::from_bytes(&bytes).unwrap(), m);
        let mut bad = bytes.clone();
        bad[10] ^= 0xff;
        assert!(FleetManifest::from_bytes(&bad).is_err());
        assert!(FleetManifest::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    /// A CRC-valid manifest's header and shard count, then `rest`, sealed.
    fn crafted_manifest(count: u32, rest: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        frame::put_header(&mut buf, FLEET_MAGIC, FLEET_VERSION);
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(rest);
        frame::seal(&mut buf, 0);
        buf
    }

    #[test]
    fn huge_shard_count_is_an_error_not_an_allocation() {
        // Regression: `Vec::with_capacity(u32::MAX)` of 64-byte entries
        // aborted the process before the first entry was read.
        let crafted = crafted_manifest(u32::MAX, &[0u8; 16]);
        let err = FleetManifest::from_bytes(&crafted).unwrap_err();
        assert!(err.to_string().contains("cannot fit"), "{err}");
        // One zero-length-name entry fits 16 bytes exactly.
        let one = FleetManifest::from_bytes(&crafted_manifest(1, &[0u8; 16])).unwrap();
        assert_eq!(one.shards.len(), 1);
    }

    #[test]
    fn trailing_bytes_after_the_last_entry_are_rejected() {
        let err = FleetManifest::from_bytes(&crafted_manifest(1, &[0u8; 17])).unwrap_err();
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
        let err = FleetManifest::from_bytes(&crafted_manifest(0, &[7])).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn one_shard_fleet_is_bit_identical_to_single_registry() {
        let dir = tmp("one");
        let fleet = ShardedRegistry::create(&dir, 1, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        fleet.register("r", cosine(64, 16)).unwrap();
        fleet.ingest("l", &rows(500, 64, 1, 1.0)).unwrap();
        fleet.ingest("r", &rows(500, 64, 7, 2.0)).unwrap();

        let mut single = crate::StreamProcessor::new();
        single.register("l", cosine(64, 16)).unwrap();
        single.register("r", cosine(64, 16)).unwrap();
        for (t, w) in rows(500, 64, 1, 1.0) {
            single.process_weighted("l", &t, w).unwrap();
        }
        for (t, w) in rows(500, 64, 7, 2.0) {
            single.process_weighted("r", &t, w).unwrap();
        }
        let (fleet_est, dead) = estimate(&fleet);
        assert_eq!(fleet_est, single_estimate(&mut single));
        assert!(dead.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn four_shard_fleet_agrees_with_single_registry() {
        let dir = tmp("four");
        let fleet = ShardedRegistry::create(&dir, 4, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        fleet.register("r", cosine(64, 16)).unwrap();
        fleet.ingest("l", &rows(800, 64, 1, 1.0)).unwrap();
        fleet.ingest("r", &rows(800, 64, 11, 1.5)).unwrap();

        let mut single = crate::StreamProcessor::new();
        single.register("l", cosine(64, 16)).unwrap();
        single.register("r", cosine(64, 16)).unwrap();
        for (t, w) in rows(800, 64, 1, 1.0) {
            single.process_weighted("l", &t, w).unwrap();
        }
        for (t, w) in rows(800, 64, 11, 1.5) {
            single.process_weighted("r", &t, w).unwrap();
        }
        let fleet_est = estimate(&fleet).0;
        let single_est = single_estimate(&mut single);
        let rel = (fleet_est - single_est).abs() / single_est.abs().max(1e-12);
        assert!(rel <= 1e-9, "fleet {fleet_est} vs single {single_est}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_degrade_promote_roundtrip() {
        let dir = tmp("kdp");
        let fleet = ShardedRegistry::create(&dir, 4, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        fleet.register("r", cosine(64, 16)).unwrap();
        fleet.ingest("l", &rows(400, 64, 1, 1.0)).unwrap();
        fleet.ingest("r", &rows(400, 64, 5, 1.0)).unwrap();
        // Ship to parity, then kill shard 2.
        while fleet
            .ship_and_replay()
            .unwrap()
            .iter()
            .any(|r| r.budget_exhausted || r.bytes_shipped > 0)
        {}
        let acked = fleet.kill(2).unwrap();
        // Degraded answer: still answers, attributes shard 2, fresh
        // because shipping reached parity before the kill.
        let (est, dead) = estimate(&fleet);
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].shard, 2);
        assert_eq!(dead[0].records_behind, 0);
        // Promote and verify the fleet is whole again.
        let report = fleet.promote(2).unwrap();
        assert_eq!(report.epoch, 2);
        assert!(report.watermark >= acked.seq);
        let (est2, dead) = estimate(&fleet);
        assert!(dead.is_empty());
        assert_eq!(est, est2);
        // And the manifest on disk reflects the new epoch.
        let storage = DirStorage::open(&dir).unwrap();
        let manifest =
            FleetManifest::from_bytes(&storage.read(FLEET_MANIFEST_FILE).unwrap()).unwrap();
        assert_eq!(manifest.shards[2].epoch, 2);
        assert!(manifest.shards[2].primary_dir.contains("follower-e1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_stream_on_a_live_shard_is_attributed_through_the_merge() {
        let dir = tmp("quarantine");
        let fleet = ShardedRegistry::create(&dir, 2, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        fleet.register("r", cosine(64, 16)).unwrap();
        fleet.ingest("l", &rows(200, 64, 1, 1.0)).unwrap();
        fleet.ingest("r", &rows(200, 64, 7, 1.0)).unwrap();
        fleet.checkpoint_all().unwrap();
        fleet.ingest("l", &rows(50, 64, 3, 1.0)).unwrap();
        // Quarantine 'l' on shard 1 only; both primaries stay alive.
        let behind = {
            let mut s = lock(&fleet.slots[1]);
            let dp = s.primary_mut().unwrap();
            dp.quarantine_stream(
                "l",
                crate::HealthCause::WalAppendFailed {
                    detail: "injected".into(),
                },
            )
            .unwrap();
            dp.staleness_since_checkpoint("l")
        };
        assert!(behind.0 > 0, "the post-checkpoint rows must reach shard 1");

        let (snap, dead) = fleet.capture_merged_at(2).unwrap();
        assert!(dead.is_empty(), "no shard is down");
        assert!(snap
            .estimate_cosine_join("l", "r", None)
            .unwrap()
            .is_finite());
        let degraded = snap.attribution(["l", "r"]);
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].stream, "l");
        assert_eq!(
            (degraded[0].records_behind, degraded[0].gross_weight_behind),
            behind
        );
        assert!(snap.attribution(["r"]).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generation_moves_on_topology_changes_and_never_on_ingest() {
        let dir = tmp("generation");
        let fleet = ShardedRegistry::create(&dir, 2, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        let g = fleet.generation();
        fleet.ingest("l", &rows(100, 64, 1, 1.0)).unwrap();
        fleet.process_weighted("l", &[3], 1.0).unwrap();
        assert_eq!(fleet.generation(), g, "ingest must not move the generation");
        assert_eq!(fleet.capture_merged_at(1).unwrap().0.generation(), g);

        let mut last = g;
        let mut moved = |what: &str| {
            let now = fleet.generation();
            assert!(now > last, "{what} must move the generation");
            last = now;
        };
        fleet.ship_and_replay().unwrap();
        moved("ship_and_replay");
        fleet.kill(1).unwrap();
        moved("kill");
        // The dead-shard list travels inside the capture it describes.
        let (snap, dead) = fleet.capture_merged_at(2).unwrap();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].shard, 1);
        assert_eq!(snap.dead_shards(), &dead[..]);
        fleet.promote(1).unwrap();
        moved("promote");
        fleet
            .quarantine_stream(
                "l",
                crate::HealthCause::WalAppendFailed {
                    detail: "injected".into(),
                },
            )
            .unwrap();
        moved("quarantine_stream");
        // A capture is stamped with the generation it read first.
        let (snap, dead) = fleet.capture_merged_at(3).unwrap();
        assert_eq!(snap.generation(), fleet.generation());
        assert!(dead.is_empty() && snap.dead_shards().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let dir = tmp("route");
        let fleet = ShardedRegistry::create(&dir, 4, FleetOptions::default()).unwrap();
        let mut counts = [0usize; 4];
        for v in 0..1000i64 {
            let s = fleet.route(&[v]);
            assert_eq!(s, fleet.route(&[v]));
            counts[s] += 1;
        }
        for c in counts {
            assert!(c > 100, "routing badly skewed: {counts:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
