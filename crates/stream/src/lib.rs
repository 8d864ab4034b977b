//! # dctstream-stream
//!
//! The data-stream substrate of the `dctstream` workspace:
//!
//! - [`event`] — tuples, turnstile events, and source interleaving.
//! - [`batch`] — the §3.2 batch-update buffer (coalesce events, flush per
//!   distinct value).
//! - [`parallel`] — shard-and-merge parallel ingestion: batches split
//!   across worker threads into thread-local partial synopses, combined
//!   exactly via coefficient-sum linearity.
//! - [`processor`] — the stream registry, event routing, continuous join
//!   queries, and a thread-safe shared handle.
//! - [`query`] — declarative chain-join COUNT queries (§4's query form)
//!   estimated on a registry snapshot.
//! - [`exact`] — exact join/range/band ground truth used as `Act` in the
//!   experiments' relative-error metric.
//! - [`checkpoint`] — durable registry checkpoints: a versioned,
//!   checksummed manifest bundling every stream's summary, written
//!   atomically and restored with graceful validation.
//! - [`wal`] — segmented write-ahead log: every event between checkpoints
//!   is framed, checksummed, and replayable, with torn-tail truncation
//!   and interior-corruption rejection.
//! - [`recovery`] — the crash-recovery orchestrator composing checkpoint
//!   and WAL behind one `open`/`process`/`checkpoint` API, with bounded
//!   retries on transient I/O and per-stream quarantine on replay
//!   failure.
//! - [`health`] — the stream-health supervisor: a per-stream state
//!   machine (`Healthy → Suspect → Quarantined → Repairing`) with typed
//!   transition causes, backing self-healing repair, integrity scrubs,
//!   and degraded snapshot members.
//! - [`snapshot`] — tear-free epoch snapshots of the registry: the one
//!   estimate read path (capture, then estimate on the capture; writers
//!   publish after each batch flush, readers estimate against immutable
//!   copies with reported staleness and degraded-member attribution),
//!   which the serve daemon builds on.
//! - [`retry`] — the shared bounded-retry-with-jittered-backoff policy
//!   used by recovery, the WAL, and segment shipping.
//! - [`ship`] — WAL segment shipping to warm followers: bounded
//!   byte-delta rounds in strict segment order, continuous replay
//!   through the recovery scanner, and staleness tracked against the
//!   primary's published watermark.
//! - [`shard`] — the sharded registry fleet: hash-partitioned ingest
//!   across N durable shards, coefficient-merge coordination for
//!   queries, and follower substitution with attributed staleness when
//!   a shard dies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod checkpoint;
pub mod event;
pub mod exact;
pub mod health;
pub mod parallel;
pub mod processor;
pub mod query;
pub mod recovery;
pub mod retry;
pub mod shard;
pub mod ship;
pub mod snapshot;
pub mod wal;

pub use batch::BatchBuffer;
pub use checkpoint::{read_checkpoint, verify_checkpoint_bytes, write_checkpoint};
pub use event::{interleave, StreamEvent, Tuple};
pub use exact::{exact_chain_join, DenseFreq, SparseFreq2};
pub use health::{HealthCause, HealthRegistry, HealthState, StreamStaleness};
pub use parallel::ParallelIngest;
pub use processor::{shared, ContinuousJoinQuery, SharedProcessor, StreamProcessor, Summary};
pub use query::{ChainJoinQuery, ChainJoinQueryBuilder, QueryLink};
pub use recovery::{
    DurableProcessor, GroupDurable, RecoveryOptions, RecoveryReport, RepairReport, ScrubReport,
};
pub use shard::{FleetOptions, PromotionReport, ShardStaleness, ShardStatus, ShardedRegistry};
pub use ship::{Follower, SegmentShipper, ShipOptions, ShipReport, ShipWatermark};
pub use snapshot::{Progress, RegistrySnapshot, SnapshotCell, SnapshotStaleness, StreamStats};
pub use wal::{
    scan_records, DirStorage, FailingStorage, GroupWal, MemStorage, RetryPolicy, SharedStorage,
    SyncPolicy, Wal, WalOptions, WalRecord, WalStorage,
};
