//! WAL segment shipping and warm-follower replay.
//!
//! A fleet shard's durability story has two sides. The *primary* is a
//! [`crate::DurableProcessor`]: apply-then-log, checkpoint, repair. The
//! *follower* is a warm standby holding a byte-level copy of the
//! primary's store, kept fresh by a [`SegmentShipper`] and replayed
//! continuously by a [`Follower`] so promotion is a verification, not a
//! cold rebuild.
//!
//! ## Shipping protocol
//!
//! [`SegmentShipper::ship_once`] walks the source store's segments in
//! sequence order and appends each one's *byte delta* (source length
//! minus destination length) to the destination, bounded per round by
//! [`ShipOptions::max_bytes_per_round`]. Order is strict: bytes for
//! segment *k+1* are never shipped while segment *k* is still short, so
//! the only incomplete frame the destination can ever hold is at the
//! very end of its newest segment — exactly the torn-tail shape the
//! recovery scanner already tolerates. The checkpoint manifest rides
//! along via an atomic replace whenever the source's copy differs.
//!
//! Every storage touch goes through the shared [`RetryPolicy`]
//! (`retry.attempts_total{op="ship.*"}` counts the retries), and a
//! destination found *longer* than its source — the primary truncated a
//! torn tail after a real power loss — is truncated to match, with the
//! report flagging that the follower must [`Follower::reset`].
//!
//! ## Follower replay
//!
//! [`Follower::replay_new`] re-scans the shipped store read-only
//! ([`crate::wal::scan_records`]) and applies only records past its
//! applied watermark, mirroring the recovery replay loop (register /
//! weighted update / drop). An incomplete tail frame is simply not
//! applied yet — the next shipping round completes it in place.
//!
//! Freshness is tracked against the primary's *published* position: a
//! [`ShipWatermark`] carries the primary's WAL watermark plus its
//! cumulative update totals since the fleet's common anchor, and
//! [`Follower::behind`] reports `(records_behind, gross_weight_behind)`
//! in the same turnstile-sound vocabulary as a degraded snapshot
//! member's [`crate::StreamStaleness`] — cancelling +w/−w churn still
//! counts in full.

use crate::checkpoint::CHECKPOINT_FILE;
use crate::processor::{StreamProcessor, Summary};
use crate::retry::RetryPolicy;
use crate::snapshot::{RegistrySnapshot, StreamStats};
use crate::wal::{scan_records, WalOp, WalOptions, WalStorage};
use dctstream_core::{DctError, Result};
use std::io;

/// A primary's published replication position: its WAL watermark and
/// the cumulative update totals it has accepted since the fleet's
/// common anchor (fleet creation, reopen, or promotion — both sides of
/// a shard pair are always re-anchored together).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShipWatermark {
    /// Sequence number of the last record the primary acknowledged.
    pub seq: u64,
    /// Cumulative update totals (`records`, `Σ|w|`) since the anchor.
    pub stats: StreamStats,
}

/// Tuning knobs for a [`SegmentShipper`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShipOptions {
    /// Budget of segment bytes shipped per [`SegmentShipper::ship_once`]
    /// round (the manifest rides free). Small budgets let fault sweeps
    /// kill a shard at every ship-frame boundary.
    pub max_bytes_per_round: u64,
    /// Retry policy for transient storage failures while shipping.
    pub retry: RetryPolicy,
}

impl Default for ShipOptions {
    fn default() -> Self {
        ShipOptions {
            max_bytes_per_round: 4 << 20,
            retry: RetryPolicy::default(),
        }
    }
}

/// What one [`SegmentShipper::ship_once`] round moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Segments that received bytes this round.
    pub segments_touched: usize,
    /// Segment bytes appended to the destination.
    pub bytes_shipped: u64,
    /// Whether the checkpoint manifest was (re)shipped.
    pub manifest_shipped: bool,
    /// The destination was longer than the source (the primary
    /// truncated a torn tail) and was cut back to match: the follower's
    /// in-memory state may now be ahead of its store and must
    /// [`Follower::reset`].
    pub dst_truncated: bool,
    /// The per-round byte budget ran out with source bytes still
    /// unshipped (ship again to continue draining).
    pub budget_exhausted: bool,
    /// The source's checkpoint manifest failed restore validation and
    /// was NOT shipped: the follower keeps its last good copy. A dead
    /// primary with a rotten manifest must not poison the warm standby
    /// that exists to survive exactly that failure.
    pub manifest_rejected: bool,
}

fn ship_err(detail: impl Into<String>) -> DctError {
    DctError::Checkpoint(format!("segment shipping: {}", detail.into()))
}

/// Streams a primary's WAL segments (and checkpoint manifest) to a
/// follower's store, byte-delta by byte-delta. See the module docs for
/// the protocol.
#[derive(Debug)]
pub struct SegmentShipper<Src: WalStorage, Dst: WalStorage> {
    src: Src,
    dst: Dst,
    opts: ShipOptions,
}

impl<Src: WalStorage, Dst: WalStorage> SegmentShipper<Src, Dst> {
    /// A shipper from `src` (the primary's store) to `dst` (the
    /// follower's store).
    pub fn new(src: Src, dst: Dst, opts: ShipOptions) -> Self {
        SegmentShipper { src, dst, opts }
    }

    /// Shared access to the destination store.
    pub fn dst(&self) -> &Dst {
        &self.dst
    }

    /// Ship one bounded round of segment deltas, strictly in segment
    /// order, plus the checkpoint manifest when it changed. Returns
    /// what moved; call again while `budget_exhausted` to drain.
    pub fn ship_once(&mut self) -> Result<ShipReport> {
        let mut report = ShipReport::default();
        let names = self
            .opts
            .retry
            .run_labeled("ship.list", || self.src.list())
            .map_err(|e| ship_err(format!("listing source segments: {e}")))?;
        let mut segments: Vec<(u64, String)> = names
            .iter()
            .filter_map(|n| crate::wal::parse_segment_name(n).map(|seq| (seq, n.clone())))
            .collect();
        segments.sort_unstable();

        let mut budget = self.opts.max_bytes_per_round;
        for (_, name) in &segments {
            let src_bytes = self
                .opts
                .retry
                .run_labeled("ship.read", || self.src.read(name))
                .map_err(|e| ship_err(format!("reading source segment {name}: {e}")))?;
            let dst_len = match self
                .opts
                .retry
                .run_labeled("ship.read", || self.dst.read(name))
            {
                Ok(b) => b.len() as u64,
                Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
                Err(e) => return Err(ship_err(format!("reading shipped segment {name}: {e}"))),
            };
            let src_len = src_bytes.len() as u64;
            if dst_len > src_len {
                // The primary cut a torn tail the follower had already
                // received. Mirror the cut; the follower must reset.
                self.opts
                    .retry
                    .run_labeled("ship.truncate", || self.dst.truncate(name, src_len))
                    .map_err(|e| ship_err(format!("truncating shipped segment {name}: {e}")))?;
                report.dst_truncated = true;
                continue;
            }
            if dst_len == src_len {
                continue;
            }
            if budget == 0 {
                report.budget_exhausted = true;
                break;
            }
            let take = (src_len - dst_len).min(budget);
            let delta = &src_bytes[dst_len as usize..(dst_len + take) as usize];
            self.opts
                .retry
                .run_labeled("ship.append", || self.dst.append(name, delta))
                .map_err(|e| ship_err(format!("appending to shipped segment {name}: {e}")))?;
            self.opts
                .retry
                .run_labeled("ship.sync", || self.dst.sync(name))
                .map_err(|e| ship_err(format!("syncing shipped segment {name}: {e}")))?;
            budget -= take;
            report.segments_touched += 1;
            report.bytes_shipped += take;
            if take < src_len - dst_len {
                // Strict order: never touch segment k+1 while k is short.
                report.budget_exhausted = true;
                break;
            }
        }

        // The manifest rides along outside the byte budget: it is tiny,
        // replaces atomically, and a fresh follower bootstraps from it.
        if names.iter().any(|n| n == CHECKPOINT_FILE) {
            let src_manifest = self
                .opts
                .retry
                .run_labeled("ship.read", || self.src.read(CHECKPOINT_FILE))
                .map_err(|e| ship_err(format!("reading source manifest: {e}")))?;
            let dst_manifest = match self
                .opts
                .retry
                .run_labeled("ship.read", || self.dst.read(CHECKPOINT_FILE))
            {
                Ok(b) => Some(b),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(ship_err(format!("reading shipped manifest: {e}"))),
            };
            if dst_manifest.as_deref() != Some(src_manifest.as_slice()) {
                // Validate before replacing: a torn or corrupt source
                // manifest (say, the very damage that killed the
                // primary) must never overwrite the follower's last
                // good copy — a pristine follower bootstraps from that
                // file, and poisoning it would take down the standby
                // along with the primary.
                if StreamProcessor::restore_bytes_with_watermark(&src_manifest).is_err() {
                    report.manifest_rejected = true;
                    dctstream_obs::counter_add!("ship.manifests_rejected", 1);
                } else {
                    self.opts
                        .retry
                        .run_labeled("ship.manifest", || {
                            self.dst.write_atomic(CHECKPOINT_FILE, &src_manifest)
                        })
                        .map_err(|e| ship_err(format!("shipping manifest: {e}")))?;
                    report.manifest_shipped = true;
                }
            }
        }

        dctstream_obs::counter_add!("ship.rounds", 1);
        dctstream_obs::counter_add!("ship.bytes_shipped", report.bytes_shipped);
        dctstream_obs::counter_add!("ship.segments_shipped", report.segments_touched as u64);
        Ok(report)
    }
}

/// A warm standby replaying a shipped store continuously. See the
/// module docs.
#[derive(Debug)]
pub struct Follower<S: WalStorage> {
    storage: S,
    opts: WalOptions,
    processor: StreamProcessor,
    /// Sequence of the last applied record.
    applied_seq: u64,
    /// Cumulative update totals applied since the anchor (see
    /// [`ShipWatermark`]); [`Self::rebase_stats`] resets the anchor.
    applied: StreamStats,
    /// Since-anchor totals the shipped checkpoint manifest covers (see
    /// [`Self::set_bootstrap_seed`]). Credited to `applied` whenever a
    /// bootstrap absorbs the manifest instead of replaying records.
    bootstrap_seed: StreamStats,
}

impl<S: WalStorage> Follower<S> {
    /// Open a follower over a shipped store: bootstrap from the shipped
    /// checkpoint manifest when one exists (summaries + watermark),
    /// otherwise start empty at sequence 0. Call
    /// [`Self::replay_new`] to apply whatever the store already holds.
    pub fn open(storage: S, opts: WalOptions) -> Result<Self> {
        let mut follower = Follower {
            storage,
            opts,
            processor: StreamProcessor::new(),
            applied_seq: 0,
            applied: StreamStats::default(),
            bootstrap_seed: StreamStats::default(),
        };
        follower.try_bootstrap()?;
        Ok(follower)
    }

    /// Bootstrap from the shipped manifest if the follower is still
    /// pristine and a manifest is present. Returns whether it did.
    fn try_bootstrap(&mut self) -> Result<bool> {
        if self.applied_seq != 0 || self.processor.streams().next().is_some() {
            return Ok(false);
        }
        let manifest = match self
            .opts
            .retry
            .run_labeled("ship.bootstrap", || self.storage.read(CHECKPOINT_FILE))
        {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(ship_err(format!("reading shipped manifest: {e}"))),
        };
        let (processor, watermark) = StreamProcessor::restore_bytes_with_watermark(&manifest)?;
        self.processor = processor;
        self.applied_seq = watermark;
        // The manifest covers every record up to the watermark, so the
        // staleness ledger must credit those records even though none
        // were replayed one by one. The seed is the publisher's
        // since-anchor totals at the moment the manifest was written.
        self.applied = self.bootstrap_seed;
        Ok(true)
    }

    /// Declare the since-anchor update totals the shipped checkpoint
    /// manifest covers. A bootstrap (fresh open, late first-manifest
    /// arrival, or [`Self::reset`]) adopts the manifest's state without
    /// replaying the records behind it; without this seed the applied
    /// ledger would start at zero and [`Self::behind`] would over-report
    /// by exactly the checkpointed totals forever. Publishers call this
    /// each time they write a checkpoint, with the same totals their
    /// published [`ShipWatermark`] counts from.
    pub fn set_bootstrap_seed(&mut self, seed: StreamStats) {
        self.bootstrap_seed = seed;
    }

    /// Apply every complete record the shipped store holds past the
    /// applied watermark, mirroring the recovery replay loop. An
    /// incomplete tail frame is left for the next round; an interior
    /// inconsistency or a record that fails to apply is a hard typed
    /// error (shipped records already applied cleanly on the primary,
    /// so failure here means the copy — not the data — is damaged).
    ///
    /// Returns the number of records applied this round.
    pub fn replay_new(&mut self) -> Result<u64> {
        // A fresh follower may have been opened before the first
        // manifest arrived; bootstrap late rather than failing the scan
        // over a post-checkpoint store whose early segments are gone.
        self.try_bootstrap()?;
        let outcome = scan_records(&self.storage, &self.opts, self.applied_seq)?;
        let mut applied = 0u64;
        for (seq, record) in outcome.records {
            match &record.op {
                WalOp::Drop => {
                    self.processor.unregister(&record.stream);
                }
                WalOp::Register(payload) => {
                    let summary = Summary::from_bytes(payload.clone())?;
                    self.processor.register(record.stream.clone(), summary)?;
                }
                WalOp::Event(ev) => {
                    let ev = ev.clone();
                    self.processor.process(&record.stream, &ev)?;
                    self.applied.records += 1;
                    self.applied.gross_weight += ev.weight().abs();
                }
                WalOp::Weighted(t, w) => {
                    let (t, w) = (t.clone(), *w);
                    self.processor
                        .process_weighted(&record.stream, t.values(), w)?;
                    self.applied.records += 1;
                    self.applied.gross_weight += w.abs();
                }
            }
            self.applied_seq = seq;
            applied += 1;
        }
        dctstream_obs::counter_add!("ship.replayed_records", applied);
        Ok(applied)
    }

    /// Discard all replayed state and re-replay the store from its
    /// bootstrap point. The recovery path for a shipped-store rewind
    /// (see [`ShipReport::dst_truncated`]).
    pub fn reset(&mut self) -> Result<u64> {
        self.processor = StreamProcessor::new();
        self.applied_seq = 0;
        self.applied = StreamStats::default();
        self.try_bootstrap()?;
        self.replay_new()
    }

    /// Sequence of the last applied record — the follower's ack
    /// position, which the primary pins WAL retention to.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Cumulative update totals applied since the anchor.
    pub fn applied_stats(&self) -> StreamStats {
        self.applied
    }

    /// Re-anchor the staleness accounting: zero the applied totals so
    /// they measure from *now*, matching a primary whose published
    /// totals were zeroed at the same instant (fleet open does both
    /// sides together at parity).
    pub fn rebase_stats(&mut self) {
        self.applied = StreamStats::default();
        // Any manifest already on disk predates the new anchor, so its
        // since-anchor coverage is zero until the next checkpoint
        // refreshes the seed.
        self.bootstrap_seed = StreamStats::default();
    }

    /// `(records_behind, gross_weight_behind)` versus the primary's
    /// published position. Saturating: a follower that applied records
    /// the primary never published against reports zero, not wraparound.
    pub fn behind(&self, published: &ShipWatermark) -> (u64, f64) {
        (
            published.stats.records.saturating_sub(self.applied.records),
            (published.stats.gross_weight - self.applied.gross_weight).max(0.0),
        )
    }

    /// Read access to the replayed registry.
    pub fn processor(&self) -> &StreamProcessor {
        &self.processor
    }

    /// Run every replayed summary's structural invariant audit — the
    /// promotion gate's first half (the second is the watermark delta).
    pub fn check(&self) -> Result<()> {
        for (_, summary) in self.processor.streams() {
            summary.check_invariants()?;
        }
        Ok(())
    }

    /// Capture a tear-free snapshot of the replayed state at `epoch` —
    /// what the coordinator substitutes for a dead primary.
    pub fn snapshot(&mut self, epoch: u64) -> Result<RegistrySnapshot> {
        RegistrySnapshot::capture(&mut self.processor, epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{DurableProcessor, RecoveryOptions};
    use crate::wal::{MemStorage, SyncPolicy};
    use dctstream_core::{CosineSynopsis, Domain, Grid};

    fn cosine(n: usize, m: usize) -> Summary {
        Summary::Cosine(CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap())
    }

    fn opts() -> RecoveryOptions {
        let mut o = RecoveryOptions::default();
        o.wal.sync = SyncPolicy::Always;
        o
    }

    fn small_ship() -> ShipOptions {
        ShipOptions {
            max_bytes_per_round: 64,
            retry: RetryPolicy::none(),
        }
    }

    #[test]
    fn shipped_follower_replays_to_parity() {
        let src = MemStorage::new();
        let dst = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(src.clone(), opts()).unwrap();
        dp.register("s", cosine(32, 8)).unwrap();
        dp.register("t", cosine(32, 8)).unwrap();
        for v in 0..100i64 {
            dp.process_weighted("s", &[v % 32], 1.0).unwrap();
            dp.process_weighted("t", &[(v * 3) % 32], 2.0).unwrap();
        }
        let mut shipper = SegmentShipper::new(src, dst.clone(), ShipOptions::default());
        let report = shipper.ship_once().unwrap();
        assert!(report.bytes_shipped > 0);
        let mut follower = Follower::open(dst, opts().wal).unwrap();
        follower.replay_new().unwrap();
        assert_eq!(follower.applied_seq(), dp.wal_watermark());
        let published = ShipWatermark {
            seq: dp.wal_watermark(),
            stats: dp.processor().total_update_stats(),
        };
        assert_eq!(follower.behind(&published), (0, 0.0));
        follower.check().unwrap();
        // Replayed estimate matches the primary's bit for bit.
        let ours = follower.snapshot(1).unwrap();
        let theirs = dp.capture_snapshot(1).unwrap();
        assert_eq!(
            ours.estimate_cosine_join("s", "t", None).unwrap(),
            theirs.estimate_cosine_join("s", "t", None).unwrap()
        );
    }

    #[test]
    fn bounded_rounds_ship_strictly_in_order_and_drain() {
        let src = MemStorage::new();
        let dst = MemStorage::new();
        let mut o = opts();
        o.wal.segment_max_bytes = 256; // force rotation: many segments
        let (mut dp, _) = DurableProcessor::open_with(src.clone(), o.clone()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        for v in 0..200i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        let mut shipper = SegmentShipper::new(src, dst.clone(), small_ship());
        let mut follower = Follower::open(dst, o.wal.clone()).unwrap();
        let mut rounds = 0;
        loop {
            let report = shipper.ship_once().unwrap();
            // Partial frames are fine mid-drain; replay applies only
            // complete ones and must never error on a short tail.
            follower.replay_new().unwrap();
            rounds += 1;
            assert!(rounds < 10_000, "shipping failed to converge");
            if !report.budget_exhausted && report.bytes_shipped == 0 {
                break;
            }
        }
        assert_eq!(follower.applied_seq(), dp.wal_watermark());
        assert!(rounds > 3, "budget of 64 bytes must take many rounds");
    }

    #[test]
    fn fresh_follower_bootstraps_from_shipped_manifest() {
        let src = MemStorage::new();
        let dst = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(src.clone(), opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        for v in 0..50i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        // Checkpoint retires every segment (no pins): a follower
        // attaching now can only start from the manifest.
        dp.checkpoint().unwrap();
        for v in 0..10i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        let mut shipper = SegmentShipper::new(src, dst.clone(), ShipOptions::default());
        shipper.ship_once().unwrap();
        let mut follower = Follower::open(dst, opts().wal).unwrap();
        follower.replay_new().unwrap();
        assert_eq!(follower.applied_seq(), dp.wal_watermark());
        assert_eq!(
            follower.processor().events_processed(),
            dp.processor().events_processed()
        );
    }

    #[test]
    fn corrupt_source_manifest_is_rejected_not_shipped() {
        let src = MemStorage::new();
        let dst = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(src.clone(), opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        for v in 0..50i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        dp.checkpoint().unwrap();
        let mut shipper = SegmentShipper::new(src.clone(), dst.clone(), ShipOptions::default());
        assert!(shipper.ship_once().unwrap().manifest_shipped);

        // Rot the source manifest — plausibly the very damage that
        // killed the primary — then write a few more records.
        for v in 0..10i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        let mut files = src.snapshot();
        let mut bad = files.get(CHECKPOINT_FILE).unwrap().clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        files.insert(CHECKPOINT_FILE.to_string(), bad);
        src.restore(files);

        let report = shipper.ship_once().unwrap();
        assert!(report.manifest_rejected, "rotten manifest must be refused");
        assert!(!report.manifest_shipped);

        // A pristine follower still bootstraps from the last good copy
        // and replays the shipped tail to full parity.
        let mut follower = Follower::open(dst, opts().wal).unwrap();
        follower.replay_new().unwrap();
        assert_eq!(follower.applied_seq(), dp.wal_watermark());
        follower.check().unwrap();
    }

    #[test]
    fn primary_torn_tail_truncation_resets_the_follower() {
        let src = MemStorage::new();
        let dst = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(src.clone(), opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        for v in 0..20i64 {
            dp.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        let mut shipper = SegmentShipper::new(src.clone(), dst.clone(), ShipOptions::default());
        shipper.ship_once().unwrap();
        let mut follower = Follower::open(dst.clone(), opts().wal).unwrap();
        follower.replay_new().unwrap();
        let applied_before = follower.applied_seq();

        // Simulate a primary power loss that tears its newest segment:
        // chop the last 7 bytes off the source's newest segment, as a
        // truncating recovery open would.
        let mut files = src.snapshot();
        let (name, bytes) = files
            .iter()
            .rfind(|(n, _)| n.starts_with("wal-"))
            .map(|(n, b)| (n.clone(), b.clone()))
            .unwrap();
        files.insert(name, bytes[..bytes.len() - 7].to_vec());
        src.restore(files);

        let report = shipper.ship_once().unwrap();
        assert!(report.dst_truncated);
        follower.reset().unwrap();
        assert!(follower.applied_seq() < applied_before);
        // The next rounds re-converge on the surviving prefix.
        shipper.ship_once().unwrap();
        follower.replay_new().unwrap();
        follower.check().unwrap();
    }
}
