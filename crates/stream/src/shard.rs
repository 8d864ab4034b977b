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
//! Each shard pairs a **primary** (a [`crate::GroupDurable`] registry in
//! `shard-NN/primary-eE/`, its own WAL lineage and checkpoint) with a
//! warm **follower** (`shard-NN/follower-eE/`), connected by a
//! [`crate::SegmentShipper`]. The fleet manifest (`fleet.dctf` in the
//! fleet root, CRC-framed, atomically replaced) stamps every shard with
//! its id, epoch, and directory pair, so an operator — or a later
//! [`ShardedRegistry::open`] — reconstructs the fleet from disk alone.
//! A **root registry** ([`ShardedRegistry::open_root`]) is the
//! degenerate case the default serve daemon runs: its directory itself
//! is the only shard's primary, with no follower and no manifest.
//!
//! Because the primary is a group-commit registry, a batch
//! [`ShardedRegistry::ingest`] applies a shard's partition under the
//! shard's slot lock and fsyncs with that lock released: concurrent
//! ingests into one shard share its fsync. Rows are checked against the
//! stream's shape ([`Summary::check_tuple`]) before any shard applies
//! any of them, so a bad row never leaves a batch half-applied.
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
use crate::recovery::{GroupDurable, RecoveryOptions, RecoveryReport};
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

/// A shard's warm follower and the shipper feeding it.
struct Replica {
    /// Follower directory, relative to the fleet root.
    dir: String,
    follower: Follower<DirStorage>,
    shipper: SegmentShipper<DirStorage, DirStorage>,
}

impl Replica {
    /// One bounded shipping round, then replay of whatever it moved.
    fn ship_once(&mut self) -> Result<ShipReport> {
        let report = self.shipper.ship_once()?;
        if report.dst_truncated {
            self.follower.reset()?;
        } else {
            self.follower.replay_new()?;
        }
        Ok(report)
    }
}

struct ShardSlot {
    id: usize,
    epoch: u64,
    primary: Option<GroupDurable<DirStorage>>,
    down_cause: Option<String>,
    /// `None` for a root registry ([`ShardedRegistry::open_root`]).
    replica: Option<Replica>,
    /// The primary's last published (synced) position; what degraded
    /// answers and promotion verify against.
    published: ShipWatermark,
    /// Cumulative update totals accepted by this primary since the
    /// fleet anchor (creation, open, or promotion).
    lineage: StreamStats,
}

impl ShardSlot {
    fn primary(&self) -> Result<&GroupDurable<DirStorage>> {
        self.primary
            .as_ref()
            .ok_or_else(|| DctError::StreamQuarantined {
                stream: format!("shard-{:02}", self.id),
                cause: self
                    .down_cause
                    .clone()
                    .unwrap_or_else(|| "shard primary is down".into()),
            })
    }

    fn replica_mut(&mut self) -> Result<&mut Replica> {
        let id = self.id;
        self.replica
            .as_mut()
            .ok_or_else(|| DctError::InvalidParameter(format!("shard {id} has no follower")))
    }

    fn count(&mut self, w: f64) {
        self.lineage.records += 1;
        self.lineage.gross_weight += w.abs();
    }

    /// Sync the primary and publish its durable position. Applies take
    /// the slot lock, so under it the log's watermark and the lineage
    /// describe the same records: published positions are promises to
    /// the coordinator about what a promotion must preserve.
    fn publish(&mut self) -> Result<()> {
        if let Some(gd) = &self.primary {
            gd.sync()?;
            self.published = ShipWatermark {
                seq: gd.wal_watermark(),
                stats: self.lineage,
            };
        }
        Ok(())
    }

    /// One shipping round to the follower, if there is one, then the
    /// retention-pin advance and a publish.
    fn ship_round(&mut self) -> Result<Option<ShipReport>> {
        let Some(replica) = self.replica.as_mut() else {
            return Ok(None);
        };
        let report = replica.ship_once()?;
        let acked = replica.follower.applied_seq();
        if let Some(gd) = &self.primary {
            gd.with(|dp| dp.pin_wal_retention(FOLLOWER_PIN, acked));
        }
        self.publish()?;
        Ok(Some(report))
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
    /// Every shard has a follower: false only for a root registry.
    followers: bool,
}

impl std::fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRegistry")
            .field("root", &self.root)
            .field("shards", &self.slots.len())
            .field("followers", &self.followers)
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
            followers: true,
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
            followers: true,
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
            s.lineage = StreamStats::default();
            s.publish()?;
            let s = &mut *s;
            let Some(replica) = s.replica.as_mut() else {
                continue;
            };
            replica.follower.rebase_stats();
            if s.primary.is_none() {
                // No live primary to publish from: anchor at the
                // follower's replayed position so nothing reads as
                // behind what no one can ship.
                s.published = ShipWatermark {
                    seq: replica.follower.applied_seq(),
                    stats: StreamStats::default(),
                };
            }
        }
        dctstream_obs::gauge_set!("fleet.shards", fleet.slots.len() as f64);
        Ok(fleet)
    }

    /// Open `dir` itself as a one-shard registry with no follower and
    /// no fleet manifest: the on-disk layout of a lone group-commit
    /// registry ([`GroupDurable::open_dir`]), byte for byte. Returns the
    /// shard's own recovery report. Opening does no fsync and writes
    /// nothing beyond what that recovery writes.
    pub fn open_root(
        dir: impl Into<PathBuf>,
        opts: FleetOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let root = dir.into();
        let (gd, report) = GroupDurable::open_dir(&root, opts.recovery.clone())?;
        let mut slot = ShardSlot {
            id: 0,
            epoch: 1,
            primary: Some(gd),
            down_cause: None,
            replica: None,
            published: ShipWatermark::default(),
            lineage: StreamStats::default(),
        };
        slot.publish()?;
        let registry = ShardedRegistry {
            root,
            slots: vec![Mutex::new(slot)],
            opts,
            generation: AtomicU64::new(0),
            followers: false,
        };
        Ok((registry, report))
    }

    fn open_slot(root: &Path, meta: &ShardMeta, opts: &FleetOptions) -> Result<ShardSlot> {
        let primary_abs = root.join(&meta.primary_dir);
        let follower_abs = root.join(&meta.follower_dir);
        let (primary, down_cause) =
            match GroupDurable::open_dir(&primary_abs, opts.recovery.clone()) {
                Ok((gd, _report)) => (Some(gd), None),
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
        if let Some(gd) = &primary {
            let acked = follower.applied_seq();
            gd.with(|dp| dp.pin_wal_retention(FOLLOWER_PIN, acked));
        }
        let mut slot = ShardSlot {
            id: meta.id as usize,
            epoch: meta.epoch,
            primary,
            down_cause,
            replica: Some(Replica {
                dir: meta.follower_dir.clone(),
                follower,
                shipper,
            }),
            published: ShipWatermark::default(),
            lineage: StreamStats::default(),
        };
        slot.publish()?;
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

    /// Whether every shard has a warm follower: true for a fleet
    /// ([`Self::create`], [`Self::open`]), false for a root registry
    /// ([`Self::open_root`]), which cannot ship, kill or promote.
    pub fn has_followers(&self) -> bool {
        self.followers
    }

    /// A handle to `shard`'s live primary. The handle keeps that primary
    /// open even past a [`Self::kill`], so hold it only briefly.
    pub fn primary(&self, shard: usize) -> Result<GroupDurable<DirStorage>> {
        self.slot(shard)?.primary().cloned()
    }

    /// Events absorbed across the fleet: every live primary's, plus the
    /// replayed events of the followers standing in for dead ones.
    pub fn events_processed(&self) -> u64 {
        self.slots
            .iter()
            .map(|slot| {
                let s = lock(slot);
                match (&s.primary, &s.replica) {
                    (Some(gd), _) => gd.events_processed(),
                    (None, Some(r)) => r.follower.processor().events_processed(),
                    (None, None) => 0,
                }
            })
            .sum()
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
    /// partials merge exactly. A root registry returns once the
    /// registration record is durable, as a lone group-commit registry
    /// does; in a fleet each shard's next sync makes it durable, so a
    /// schema change costs no fsync per shard. Fails if any shard is
    /// down — a fleet must be whole to change its schema.
    pub fn register(&self, name: impl Into<String>, summary: Summary) -> Result<()> {
        let name = name.into();
        for slot in &self.slots {
            let gd = lock(slot).primary()?.clone();
            gd.with(|dp| dp.register(name.clone(), summary.clone()))?;
            if !self.followers {
                gd.sync()?;
            }
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
        let seq = s
            .primary()?
            .with(|dp| dp.process_weighted(stream, tuple, w))?;
        s.count(w);
        Ok((shard, seq))
    }

    /// Ingest a batch: check every row against the stream's summary
    /// ([`Summary::check_tuple`]) so a bad row fails the batch before
    /// any shard applies any of it, then partition rows by routing hash
    /// and apply each shard's partition (in parallel across shards when
    /// more than one partition is non-empty). Each touched shard is
    /// synced and its durable position published before this returns.
    /// Returns the rows applied.
    pub fn ingest(&self, stream: &str, rows: &[(Vec<i64>, f64)]) -> Result<u64> {
        self.check_rows(stream, rows)?;
        let n = self.slots.len();
        let mut parts: Vec<Vec<&(Vec<i64>, f64)>> = vec![Vec::new(); n];
        for row in rows {
            parts[self.route(&row.0)].push(row);
        }
        let busy: Vec<usize> = (0..n).filter(|&i| !parts[i].is_empty()).collect();
        let results: Vec<Result<u64>> = if busy.len() <= 1 {
            busy.iter()
                .map(|&i| self.apply(i, stream, &parts[i]))
                .collect()
        } else {
            let parts = &parts;
            std::thread::scope(|scope| {
                let handles: Vec<_> = busy
                    .iter()
                    .map(|&i| scope.spawn(move || self.apply(i, stream, &parts[i])))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|_| Err(fleet_err("ingest worker panicked")))
                    })
                    .collect()
            })
        };
        let applied = results.into_iter().sum::<Result<u64>>()?;
        dctstream_obs::counter_add!("fleet.ingested_rows", applied);
        Ok(applied)
    }

    /// Check `rows` against `stream`'s summary on the first live shard
    /// (every shard holds the same shape). A stream no live shard knows
    /// passes here and fails at apply with the registry's own error.
    fn check_rows(&self, stream: &str, rows: &[(Vec<i64>, f64)]) -> Result<()> {
        let Some(gd) = self
            .slots
            .iter()
            .find_map(|slot| lock(slot).primary.clone())
        else {
            return Ok(());
        };
        gd.with(|dp| match dp.processor().summary(stream) {
            Some(summary) => rows.iter().try_for_each(|(t, _)| summary.check_tuple(t)),
            None => Ok(()),
        })
    }

    /// Apply one shard's partition under its slot lock, then make it
    /// durable with the slot unlocked, so concurrent ingests into the
    /// shard share its group fsync. The position the partition reached
    /// is published afterwards only if the primary that applied it is
    /// still in place: a kill or promotion in between fails the part.
    fn apply(&self, shard: usize, stream: &str, part: &[&(Vec<i64>, f64)]) -> Result<u64> {
        let (gd, epoch, reached) = {
            let mut s = lock(&self.slots[shard]);
            let gd = s.primary()?.clone();
            let mut done = 0;
            let outcome = gd.with(|dp| {
                part.iter().try_fold(0, |_, (tuple, w)| -> Result<u64> {
                    let seq = dp.process_weighted(stream, tuple, *w)?;
                    done += 1;
                    Ok(seq)
                })
            });
            for (_, w) in &part[..done] {
                s.count(*w);
            }
            let reached = ShipWatermark {
                seq: outcome?,
                stats: s.lineage,
            };
            (gd, s.epoch, reached)
        };
        gd.sync()?;
        let mut s = lock(&self.slots[shard]);
        if s.primary.is_none() || s.epoch != epoch {
            return Err(fleet_err(format!(
                "shard {shard}'s primary went down before its part of the batch was \
                 acknowledged"
            )));
        }
        if reached.seq > s.published.seq {
            s.published = reached;
        }
        Ok(part.len() as u64)
    }

    /// Sync every live shard's WAL and publish its durable position.
    pub fn publish_all(&self) -> Result<()> {
        self.slots.iter().try_for_each(|slot| lock(slot).publish())
    }

    /// Checkpoint every live shard (retention pins keep segments the
    /// follower has not acked). Returns total segments retired.
    pub fn checkpoint_all(&self) -> Result<usize> {
        let mut retired = 0;
        for slot in &self.slots {
            let mut s = lock(slot);
            let Some(gd) = s.primary.clone() else {
                continue;
            };
            retired += gd.checkpoint()?;
            // The manifest just written covers exactly the lineage
            // counted so far; a follower that later bootstraps from it
            // (first frame still incomplete under a tiny ship budget, or
            // a post-truncation reset) must credit these totals or
            // report itself behind forever.
            let seed = s.lineage;
            if let Some(replica) = s.replica.as_mut() {
                replica.follower.set_bootstrap_seed(seed);
            }
            s.publish()?;
        }
        Ok(retired)
    }

    /// Quarantine `stream` on every live shard, recording `cause` (see
    /// [`crate::DurableProcessor::quarantine_stream`]): checkpoints then refuse,
    /// ingest into the stream is refused, and captures answer it from
    /// each shard's last checkpoint. A dead shard is skipped; its
    /// follower never ingests. Stops at the first shard that refuses.
    pub fn quarantine_stream(&self, stream: &str, cause: HealthCause) -> Result<()> {
        let outcome = self
            .slots
            .iter()
            .try_for_each(|slot| match &lock(slot).primary {
                Some(gd) => gd
                    .with(|dp| dp.quarantine_stream(stream, cause.clone()))
                    .map(drop),
                None => Ok(()),
            });
        self.bump_generation();
        outcome
    }

    /// One bounded shipping round per shard, followed by follower
    /// replay, retention-pin advance, and (for live shards) a publish.
    /// Shards whose primary is down still ship — the shipper reads the
    /// dead primary's directory directly, which is the whole point of
    /// shipping durable bytes rather than live state. A root registry
    /// has no follower and returns no reports.
    pub fn ship_and_replay(&self) -> Result<Vec<ShipReport>> {
        let reports = self
            .slots
            .iter()
            .filter_map(|slot| lock(slot).ship_round().transpose())
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
    /// A shard without a follower cannot be killed: nothing would
    /// answer for it.
    pub fn kill(&self, shard: usize) -> Result<ShipWatermark> {
        let mut s = self.slot(shard)?;
        s.replica_mut()?;
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

    /// Per-shard status (`fleet-status`, `/v1/fleet`). A shard without
    /// a follower reports its own published position as the follower's.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.slots
            .iter()
            .map(|slot| {
                let s = lock(slot);
                let (follower_applied_seq, (records_behind, gross_weight_behind)) = match &s.replica
                {
                    Some(r) => (r.follower.applied_seq(), r.follower.behind(&s.published)),
                    None => (s.published.seq, (0, 0.0)),
                };
                ShardStatus {
                    id: s.id,
                    epoch: s.epoch,
                    alive: s.primary.is_some(),
                    down_cause: s.down_cause.clone(),
                    published_seq: s.published.seq,
                    follower_applied_seq,
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
    /// staleness. A one-shard capture is that shard's snapshot itself,
    /// with no merge copy.
    pub fn capture_merged_at(&self, epoch: u64) -> Result<(RegistrySnapshot, Vec<ShardStaleness>)> {
        let generation = self.generation();
        let mut parts = Vec::with_capacity(self.slots.len());
        let mut degraded = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            let mut s = lock(slot);
            let s = &mut *s;
            match (&s.primary, s.replica.as_mut()) {
                (Some(gd), _) => parts.push(gd.with(|dp| dp.capture_snapshot(epoch))?),
                (None, Some(replica)) => {
                    let (records_behind, gross_weight_behind) =
                        replica.follower.behind(&s.published);
                    degraded.push(ShardStaleness {
                        shard: i,
                        records_behind,
                        gross_weight_behind,
                    });
                    parts.push(replica.follower.snapshot(epoch)?);
                }
                (None, None) => {
                    return Err(fleet_err(format!("shard {i} is down with no follower")))
                }
            }
        }
        let mut merged = match <[RegistrySnapshot; 1]>::try_from(parts) {
            Ok([one]) => one,
            Err(parts) => RegistrySnapshot::merged(epoch, &parts.iter().collect::<Vec<_>>())?,
        };
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
        let acked_seq = s.published.seq;
        let epoch = s.epoch + 1;
        let replica = s.replica_mut()?;
        // 1. Drain the shipped tail completely.
        for i in 0.. {
            if i >= 100_000 {
                return Err(fleet_err("shipping failed to drain before promotion"));
            }
            let report = replica.ship_once()?;
            if !report.budget_exhausted && report.bytes_shipped == 0 {
                break;
            }
        }
        // 2. Verify the follower's replayed state before trusting it.
        replica.follower.check()?;
        let replayed_seq = replica.follower.applied_seq();
        if replayed_seq < acked_seq {
            return Err(fleet_err(format!(
                "refusing to promote shard {shard}: follower replayed only to sequence \
                 {replayed_seq} but records through {acked_seq} were acknowledged — \
                 promotion would silently lose acked data"
            )));
        }
        // 3. Re-open the shipped store as a primary via the ordinary
        //    recovery path, and cross-check it against the replay.
        let follower_abs = self.root.join(&replica.dir);
        let (gd, report) = GroupDurable::open_dir(&follower_abs, self.opts.recovery.clone())?;
        if !report.quarantined.is_empty() {
            return Err(fleet_err(format!(
                "refusing to promote shard {shard}: recovery quarantined {:?}",
                report.quarantined
            )));
        }
        let (opened_seq, opened_events) =
            gd.with(|dp| (dp.wal_watermark(), dp.processor().events_processed()));
        if opened_seq != replayed_seq {
            return Err(fleet_err(format!(
                "promotion watermark mismatch on shard {shard}: recovery opened at \
                 {opened_seq} but the follower replayed to {replayed_seq}"
            )));
        }
        let replayed_events = replica.follower.processor().events_processed();
        if opened_events != replayed_events {
            return Err(fleet_err(format!(
                "promotion state divergence on shard {shard}: recovery absorbed \
                 {opened_events} events, the follower replayed {replayed_events}"
            )));
        }
        // 4. Anchor the new epoch: checkpoint so the fresh follower
        //    bootstraps at exactly this watermark, with both sides'
        //    staleness accounting zeroed together.
        gd.checkpoint()?;
        let new_follower_dir = format!("shard-{shard:02}/follower-e{epoch}");
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
        let acked = follower.applied_seq();
        gd.with(|dp| dp.pin_wal_retention(FOLLOWER_PIN, acked));

        let old = std::mem::replace(
            replica,
            Replica {
                dir: new_follower_dir.clone(),
                follower,
                shipper,
            },
        );
        s.primary = Some(gd);
        s.down_cause = None;
        s.epoch = epoch;
        s.lineage = StreamStats::default();
        s.publish()?;
        let watermark = s.published.seq;
        drop(s);
        self.bump_generation();
        // The promoted follower's directory is the new primary's.
        self.rewrite_manifest(shard, epoch, old.dir, new_follower_dir)?;
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
        let behind = fleet.primary(1).unwrap().with(|dp| {
            dp.quarantine_stream(
                "l",
                crate::HealthCause::WalAppendFailed {
                    detail: "injected".into(),
                },
            )
            .unwrap();
            dp.staleness_since_checkpoint("l")
        });
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

    /// `(events_processed, wal_watermark)` of every shard's primary.
    fn positions(fleet: &ShardedRegistry) -> Vec<(u64, u64)> {
        (0..fleet.shards())
            .map(|i| {
                let gd = fleet.primary(i).unwrap();
                (gd.events_processed(), gd.wal_watermark())
            })
            .collect()
    }

    #[test]
    fn a_batch_with_an_invalid_row_applies_nothing_on_any_shard() {
        let dir = tmp("invalid");
        let fleet = ShardedRegistry::create(&dir, 2, FleetOptions::default()).unwrap();
        fleet.register("l", cosine(64, 16)).unwrap();
        fleet.ingest("l", &rows(100, 64, 1, 1.0)).unwrap();
        let before = positions(&fleet);
        // Good rows on both shards around one bad row of each kind.
        for bad in [vec![64], vec![1, 2]] {
            let mut batch = rows(40, 64, 3, 1.0);
            batch.insert(20, (bad, 1.0));
            let err = fleet.ingest("l", &batch).unwrap_err();
            assert!(
                matches!(
                    err,
                    DctError::ValueOutOfDomain { .. } | DctError::ArityMismatch { .. }
                ),
                "{err}"
            );
            assert_eq!(
                positions(&fleet),
                before,
                "a shard applied part of the batch"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_root_registry_opens_its_directory_as_the_only_shard() {
        let dir = tmp("root");
        {
            let (gd, _) = crate::GroupDurable::open_dir(&dir, RecoveryOptions::default()).unwrap();
            gd.register("l", cosine(64, 16)).unwrap();
            gd.register("r", cosine(64, 16)).unwrap();
            for (t, w) in rows(300, 64, 1, 1.0) {
                gd.with(|dp| dp.process_weighted("l", &t, w)).unwrap();
            }
            for (t, w) in rows(300, 64, 5, 2.0) {
                gd.with(|dp| dp.process_weighted("r", &t, w)).unwrap();
            }
            gd.sync().unwrap();
        }
        let (root, report) = ShardedRegistry::open_root(&dir, FleetOptions::default()).unwrap();
        assert_eq!(report.replayed, 602);
        assert!(!root.has_followers());
        assert_eq!(root.shards(), 1);
        assert_eq!(root.events_processed(), 600);
        let reference = {
            let mut single = crate::StreamProcessor::new();
            single.register("l", cosine(64, 16)).unwrap();
            single.register("r", cosine(64, 16)).unwrap();
            for (t, w) in rows(300, 64, 1, 1.0) {
                single.process_weighted("l", &t, w).unwrap();
            }
            for (t, w) in rows(300, 64, 5, 2.0) {
                single.process_weighted("r", &t, w).unwrap();
            }
            single_estimate(&mut single)
        };
        assert_eq!(estimate(&root).0.to_bits(), reference.to_bits());
        // No follower: nothing ships, and nothing can be killed.
        assert!(root.ship_and_replay().unwrap().is_empty());
        assert!(root.kill(0).is_err());
        assert!(!dir.join(FLEET_MANIFEST_FILE).exists());
        assert!(!dir.join("shard-00").exists());
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
