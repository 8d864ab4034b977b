//! Crash-recovery orchestrator: checkpoint + write-ahead log behind one
//! `open` / `process` / `checkpoint` API, supervised by a per-stream
//! health state machine.
//!
//! A [`DurableProcessor`] owns a [`StreamProcessor`] and a [`Wal`] over
//! the same storage. Every mutation is applied to the in-memory registry
//! *first* and then logged, so replay can never re-deliver an event the
//! live run rejected. If logging fails *after* the apply succeeded, the
//! registry holds an update the log does not: the WAL wedges itself and
//! the stream is **quarantined**, so a natural retry of the failed call
//! is rejected with [`DctError::StreamQuarantined`] instead of silently
//! double-applying the update to the synopsis.
//!
//! [`DurableProcessor::open`] composes the recovery protocol:
//!
//! 1. read the newest checkpoint manifest (if any) and restore the
//!    registry plus the manifest's WAL watermark;
//! 2. open the WAL, truncating a torn tail and replaying every record
//!    past the watermark in sequence order;
//! 3. apply the replayed records; a stream whose replay fails is
//!    **quarantined**, a [`crate::wal::WalOp::Drop`] record unregisters
//!    its stream on the spot (see [`DurableProcessor::drop_quarantined`]), and every
//!    other stream stays fully queryable (degraded mode).
//!
//! # Health supervision
//!
//! Each stream's trust level lives in a [`HealthRegistry`]
//! (`Healthy → Suspect → Quarantined → Repairing`, every transition
//! carrying a typed [`HealthCause`]). Three subsystems drive it:
//!
//! - **[`DurableProcessor::repair`]** rebuilds a quarantined stream from the newest
//!   checkpoint plus a WAL replay of the stream's surviving records —
//!   apply-then-log means the rebuild exactly *undoes* the unlogged
//!   update that caused the quarantine, reconciling memory with disk.
//!   Promotion back to `Healthy` happens only after verification
//!   (gap-free replay to the log's watermark, invariant audit of the
//!   rebuilt summary); any failure returns the stream to `Quarantined`
//!   with the rebuilt state discarded — never half-repaired.
//! - **[`DurableProcessor::scrub`]** audits live summaries against their structural
//!   invariants and re-verifies checkpoint + WAL checksums without
//!   replaying. Live damage quarantines the stream; durable-artifact
//!   damage demotes it to `Suspect` (live answers are still good);
//!   suspects that audit clean are promoted back.
//! - **[`DurableProcessor::capture_snapshot`]** keeps answering when a
//!   stream is quarantined: the snapshot holds the stream's last
//!   checkpointed summary and records its staleness, so every estimate
//!   over it carries the attribution instead of failing or, worse,
//!   reading the untrusted live summary.
//!
//! [`DurableProcessor::checkpoint`] closes the loop: it syncs the WAL,
//! writes a manifest stamped with the WAL watermark (atomically), then
//! rotates the log and retires segments the manifest now covers.

use crate::checkpoint::{verify_checkpoint_bytes, CHECKPOINT_FILE};
use crate::event::StreamEvent;
use crate::health::{HealthCause, HealthRegistry, HealthState, StreamStaleness};
use crate::processor::{StreamProcessor, Summary};
use crate::snapshot::RegistrySnapshot;
use crate::wal::{
    lock_unpoisoned, DirStorage, ReplayOutcome, SharedStorage, SyncPolicy, TornTail, Wal, WalOp,
    WalOptions, WalRecord, WalStorage,
};
use dctstream_core::{DctError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

/// Tuning knobs for a [`DurableProcessor`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// WAL configuration (sync policy, segment size, retries).
    pub wal: WalOptions,
    /// Buffered-mode flush threshold for a *fresh* registry (ignored
    /// when a checkpoint exists — the manifest's setting wins).
    pub flush_threshold: Option<usize>,
}

/// What [`DurableProcessor::open`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Events the checkpoint manifest had absorbed (0 without one).
    pub checkpoint_events: u64,
    /// WAL watermark stamped in the manifest (0 without one).
    pub checkpoint_watermark: u64,
    /// WAL records replayed into the registry.
    pub replayed: usize,
    /// WAL segments scanned.
    pub segments_scanned: usize,
    /// The torn tail that was truncated, if any.
    pub torn_tail: Option<TornTail>,
    /// Streams quarantined during replay, with causes.
    pub quarantined: Vec<(String, String)>,
    /// Streams unregistered by replayed drop records: they were dropped
    /// in a previous run ([`DurableProcessor::drop_quarantined`]) and
    /// stay dropped, instead of being resurrected-and-requarantined by
    /// their surviving WAL records.
    pub dropped: Vec<String>,
}

/// What one [`DurableProcessor::repair`] call rebuilt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// The repaired stream.
    pub stream: String,
    /// Checkpoint watermark the rebuild started from (0 = no
    /// checkpoint: the rebuild started from nothing).
    pub from_watermark: u64,
    /// This stream's WAL records applied on top of the baseline.
    pub replayed: u64,
    /// True when no durable trace of the stream existed (not in the
    /// checkpoint, no surviving WAL records): the stream was
    /// unregistered, because durably it never was.
    pub removed: bool,
}

/// What one [`DurableProcessor::scrub`] pass checked and found.
#[derive(Debug)]
pub struct ScrubReport {
    /// Live summaries audited against their structural invariants.
    pub live_streams_checked: usize,
    /// Checkpoint manifest stream records CRC-verified (0 without a
    /// checkpoint).
    pub checkpoint_streams_checked: usize,
    /// WAL segments CRC-verified.
    pub wal_segments_checked: usize,
    /// Every violation found, in audit order (live, checkpoint, WAL).
    /// Violations that could be attributed to a stream name it; damage
    /// to shared metadata is reported unattributed.
    pub violations: Vec<DctError>,
    /// Streams demoted by this pass, with the state they entered
    /// (`Quarantined` for live damage, `Suspect` for artifact damage).
    pub demoted: Vec<(String, HealthState)>,
    /// Previously suspect streams that audited clean and were promoted
    /// back to healthy.
    pub promoted: Vec<String>,
}

impl ScrubReport {
    /// Whether the pass found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A [`StreamProcessor`] whose every event is write-ahead logged, with
/// checkpoint-integrated recovery and per-stream health supervision.
/// See the module docs for the protocol.
#[derive(Debug)]
pub struct DurableProcessor<S: WalStorage> {
    processor: StreamProcessor,
    wal: Wal<S>,
    health: HealthRegistry,
    /// Streams with appended-but-unsynced WAL records. If the log
    /// wedges, these records are lost with the write buffer, so the
    /// streams' durable suffix is unknown and they are quarantined
    /// alongside the stream whose append failed.
    unsynced_streams: BTreeSet<String>,
    /// Per-stream `(update_records, gross_update_mass)` applied since
    /// the last checkpoint. Turnstile weights accumulate as `|w|`, so a
    /// +5 followed by a −3 counts 2 records and 8 gross mass even
    /// though the net weight moved by only 2. Seeded from the replay at
    /// open, cleared by [`Self::checkpoint`], recomputed by repair, and
    /// read by [`Self::capture_snapshot`] to bound how far behind a
    /// checkpoint-substituted member can be.
    since_checkpoint: BTreeMap<String, (u64, f64)>,
    /// Cumulative counters persisted in the checkpoint manifest's
    /// version-3 metrics block, so `stats` totals survive restarts.
    persistent: BTreeMap<String, u64>,
}

impl DurableProcessor<DirStorage> {
    /// Open (or create) a durable registry under `dir` with default
    /// options.
    pub fn open(dir: &Path) -> Result<(Self, RecoveryReport)> {
        Self::open_dir(dir, RecoveryOptions::default())
    }

    /// Open (or create) a durable registry under `dir`.
    pub fn open_dir(dir: &Path, opts: RecoveryOptions) -> Result<(Self, RecoveryReport)> {
        let storage = DirStorage::open(dir).map_err(|e| {
            DctError::Checkpoint(format!("opening recovery directory {}: {e}", dir.display()))
        })?;
        Self::open_with(storage, opts)
    }
}

impl<S: WalStorage> DurableProcessor<S> {
    /// Open a durable registry over any [`WalStorage`] (tests use
    /// [`crate::MemStorage`] / [`crate::FailingStorage`]).
    pub fn open_with(storage: S, opts: RecoveryOptions) -> Result<(Self, RecoveryReport)> {
        // 1. Newest checkpoint, if one exists.
        let manifest = match opts
            .wal
            .retry
            .run_labeled("checkpoint.read", || storage.read(CHECKPOINT_FILE))
        {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => {
                return Err(DctError::Checkpoint(format!(
                    "reading {CHECKPOINT_FILE}: {e}"
                )))
            }
        };
        let (mut processor, watermark, persistent) = match &manifest {
            Some(bytes) => StreamProcessor::restore_bytes_with_meta(bytes)?,
            None => (
                match opts.flush_threshold {
                    Some(t) => StreamProcessor::with_flush_threshold(t),
                    None => StreamProcessor::new(),
                },
                0,
                BTreeMap::new(),
            ),
        };
        let checkpoint_events = processor.events_processed();

        // 2. Open the WAL, replaying past the watermark.
        let (wal, outcome) = Wal::open(storage, opts.wal, watermark)?;
        let ReplayOutcome {
            records,
            torn_tail,
            segments_scanned,
        } = outcome;

        // 3. Apply. A failing stream is quarantined, not fatal; a drop
        // record unregisters its stream (clearing any quarantine — the
        // stream is gone either way, and a later Register may recreate
        // it fresh).
        let mut health = HealthRegistry::new();
        let mut dropped: Vec<String> = Vec::new();
        let mut since_checkpoint: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let replayed = records.len();
        for (seq, record) in records {
            if matches!(record.op, WalOp::Drop) {
                processor.unregister(&record.stream);
                health.forget(&record.stream);
                since_checkpoint.remove(&record.stream);
                if !dropped.contains(&record.stream) {
                    dropped.push(record.stream.clone());
                }
                continue;
            }
            // Every surviving update record is past the checkpoint
            // watermark, so it counts toward the stream's staleness
            // whether or not the apply below succeeds — a quarantined
            // stream's checkpoint substitute is behind by it either way.
            if let Some((_, w)) = record.as_update() {
                let e = since_checkpoint.entry(record.stream.clone()).or_default();
                e.0 += 1;
                e.1 += w.abs();
            }
            if health.is_degraded(&record.stream) {
                continue;
            }
            let applied = match &record.op {
                WalOp::Register(payload) => Summary::from_bytes(payload.clone())
                    .and_then(|summary| processor.register(record.stream.clone(), summary)),
                WalOp::Event(ev) => {
                    let ev = ev.clone();
                    processor.process(&record.stream, &ev)
                }
                WalOp::Weighted(t, w) => {
                    let (t, w) = (t.clone(), *w);
                    processor.process_weighted(&record.stream, t.values(), w)
                }
                WalOp::Drop => unreachable!("handled above"),
            };
            if let Err(e) = applied {
                // invariant: Healthy -> Quarantined is always legal.
                let _ = health.transition(
                    &record.stream,
                    HealthState::Quarantined,
                    HealthCause::ReplayFailed {
                        seq,
                        detail: e.to_string(),
                    },
                );
            }
        }

        dctstream_obs::counter_add!("recovery.replays", 1);
        dctstream_obs::counter_add!("recovery.replayed_records", replayed as u64);
        let mut dp = DurableProcessor {
            processor,
            wal,
            health,
            unsynced_streams: BTreeSet::new(),
            since_checkpoint,
            persistent,
        };
        dp.bump("replays_total", 1);
        let report = RecoveryReport {
            checkpoint_events,
            checkpoint_watermark: watermark,
            replayed,
            segments_scanned,
            torn_tail,
            quarantined: dp.quarantined().into_iter().collect(),
            dropped,
        };
        Ok((dp, report))
    }

    /// Increment a persisted cumulative counter (see
    /// [`Self::persistent_counters`]).
    fn bump(&mut self, key: &str, n: u64) {
        let slot = self.persistent.entry(key.to_string()).or_insert(0);
        *slot = slot.saturating_add(n);
    }

    /// Record a successfully applied update against the stream's
    /// since-checkpoint staleness tracker.
    fn note_applied(&mut self, stream: &str, w: f64) {
        let e = self.since_checkpoint.entry(stream.to_string()).or_default();
        e.0 += 1;
        e.1 += w.abs();
    }

    fn check_stream(&self, name: &str) -> Result<()> {
        if self.health.is_degraded(name) {
            return Err(DctError::StreamQuarantined {
                stream: name.to_string(),
                cause: self
                    .health
                    .cause(name)
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| self.health.state(name).to_string()),
            });
        }
        Ok(())
    }

    /// The mutation is in the registry but not in the log: a retry of
    /// the failed call would apply it twice and silently skew the
    /// synopsis. Quarantine the stream so retries are rejected with a
    /// typed error instead. If the log wedged, the write buffer was
    /// lost with it — streams with appended-but-unsynced records can no
    /// longer trust their durable suffix and are quarantined too.
    fn quarantine_unlogged(&mut self, stream: &str, e: &DctError) {
        // invariant: every non-degraded state may enter Quarantined,
        // and degraded streams never reach this path (check_stream).
        let _ = self.health.transition(
            stream,
            HealthState::Quarantined,
            HealthCause::WalAppendFailed {
                detail: e.to_string(),
            },
        );
        if self.wal.is_wedged() {
            for name in std::mem::take(&mut self.unsynced_streams) {
                if name != stream && !self.health.is_degraded(&name) {
                    let _ = self.health.transition(
                        &name,
                        HealthState::Quarantined,
                        HealthCause::WalAppendFailed {
                            detail: format!(
                                "records were appended but never synced when the log wedged ({e}); \
                                 the stream's durable suffix is unknown"
                            ),
                        },
                    );
                }
            }
        }
    }

    /// Track the sync state after a successful append: once the log has
    /// no unsynced records, no stream can lose an acknowledged append.
    fn note_appended(&mut self, stream: &str) {
        if self.wal.unsynced_records() == 0 {
            self.unsynced_streams.clear();
        } else {
            self.unsynced_streams.insert(stream.to_string());
        }
    }

    /// Register a stream and log the registration, so a recovery without
    /// an intervening checkpoint still knows the stream's summary shape.
    pub fn register(&mut self, name: impl Into<String>, summary: Summary) -> Result<()> {
        let name = name.into();
        self.check_stream(&name)?;
        let payload = summary.to_bytes();
        self.processor.register(name.clone(), summary)?;
        if let Err(e) = self.wal.append(&WalRecord::register(name.clone(), payload)) {
            self.quarantine_unlogged(&name, &e);
            return Err(e);
        }
        self.note_appended(&name);
        self.bump("wal_appends_total", 1);
        Ok(())
    }

    /// Route one event to the named stream and log it.
    pub fn process(&mut self, stream: &str, ev: &StreamEvent) -> Result<u64> {
        self.process_weighted(stream, ev.tuple().values(), ev.weight())
    }

    /// Route a weighted update to the named stream and log it. Returns
    /// the WAL sequence number (durable only once covered by a sync,
    /// per the configured [`crate::SyncPolicy`]).
    pub fn process_weighted(&mut self, stream: &str, tuple: &[i64], w: f64) -> Result<u64> {
        self.check_stream(stream)?;
        self.processor.process_weighted(stream, tuple, w)?;
        // The update is in memory; whatever the log now does, a
        // checkpoint-substituted answer for this stream is one more
        // record (and |w| more gross mass) behind.
        self.note_applied(stream, w);
        match self.wal.append(&WalRecord::weighted(stream, tuple, w)) {
            Ok(seq) => {
                self.note_appended(stream);
                self.bump("events_total", 1);
                self.bump("wal_appends_total", 1);
                Ok(seq)
            }
            Err(e) => {
                self.quarantine_unlogged(stream, &e);
                Err(e)
            }
        }
    }

    /// Durably sync every logged record to storage.
    pub fn sync(&mut self) -> Result<()> {
        match self.wal.sync() {
            Ok(()) => {
                self.unsynced_streams.clear();
                Ok(())
            }
            Err(e) => {
                if self.wal.is_wedged() {
                    for name in std::mem::take(&mut self.unsynced_streams) {
                        if !self.health.is_degraded(&name) {
                            let _ = self.health.transition(
                                &name,
                                HealthState::Quarantined,
                                HealthCause::WalAppendFailed {
                                    detail: format!(
                                        "records were appended but never synced when the log \
                                         wedged ({e}); the stream's durable suffix is unknown"
                                    ),
                                },
                            );
                        }
                    }
                }
                Err(e)
            }
        }
    }

    /// Take a checkpoint: sync the WAL, write the manifest stamped with
    /// the current watermark (atomically), rotate the log, and retire
    /// segments the manifest covers. Returns the number of retired
    /// segments.
    ///
    /// Refused while streams are quarantined or repairing —
    /// checkpointing would launder their suspect state into the
    /// snapshot; [`Self::repair`] or [`Self::drop_quarantined`] them
    /// first.
    pub fn checkpoint(&mut self) -> Result<usize> {
        let degraded = self.health.degraded_streams();
        if !degraded.is_empty() {
            return Err(DctError::Checkpoint(format!(
                "refusing to checkpoint with quarantined streams: {}; \
                 repair() or drop_quarantined() them first",
                degraded.join(", ")
            )));
        }
        self.sync()?;
        let watermark = self.wal.watermark();
        // The persisted totals include this checkpoint, so a restart
        // right after the write restores an accurate count; the bump is
        // committed only once the manifest lands.
        let mut totals = self.persistent.clone();
        let slot = totals.entry("checkpoints_total".to_string()).or_insert(0);
        *slot = slot.saturating_add(1);
        let manifest = self
            .processor
            .checkpoint_bytes_with_meta(watermark, &totals)?;
        let retry = self.wal.options().retry.clone();
        retry
            .run_labeled("checkpoint.write", || {
                self.wal
                    .storage_mut()
                    .write_atomic(CHECKPOINT_FILE, manifest.as_slice())
            })
            .map_err(|e| DctError::Checkpoint(format!("writing {CHECKPOINT_FILE}: {e}")))?;
        self.persistent = totals;
        // The manifest now covers every applied update: nothing is
        // behind it any more.
        self.since_checkpoint.clear();
        dctstream_obs::counter_add!("checkpoint.writes", 1);
        self.wal.note_checkpoint(watermark)
    }

    fn read_manifest(&self) -> Result<Option<Vec<u8>>> {
        match self
            .wal
            .options()
            .retry
            .run(|| self.wal.storage().read(CHECKPOINT_FILE))
        {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(DctError::Checkpoint(format!(
                "reading {CHECKPOINT_FILE}: {e}"
            ))),
        }
    }

    /// Self-heal a quarantined stream: rebuild its summary from the
    /// newest checkpoint plus a WAL replay of the stream's surviving
    /// records past the checkpoint watermark, verify the rebuild, and
    /// promote the stream back to healthy.
    ///
    /// Because every update is applied in memory *before* it is logged,
    /// the quarantine divergence is always "memory is ahead of the log
    /// by the unlogged update(s)" — rebuilding from durable state
    /// exactly undoes them. The caller saw those updates fail with an
    /// error at ingest time and may re-submit them after the repair.
    ///
    /// The repair also re-establishes the log itself: a wedged WAL is
    /// reopened from its durable bytes (torn tail truncated, wedge
    /// cleared), so the repaired stream can log new updates again.
    /// Storage reads along the way retry transient I/O failures per the
    /// configured [`crate::RetryPolicy`].
    ///
    /// Verification before promotion: the surviving log must replay
    /// gap-free to its own watermark, and the rebuilt summary must pass
    /// its invariant audit. Any failure returns the stream to
    /// `Quarantined` (cause [`HealthCause::RepairFailed`]) with the
    /// rebuilt state discarded — the registry is never left
    /// half-repaired.
    pub fn repair(&mut self, stream: &str) -> Result<RepairReport> {
        let state = self.health.state(stream);
        if state != HealthState::Quarantined {
            return Err(DctError::InvalidParameter(format!(
                "stream '{stream}' is {state} — only quarantined streams can be repaired"
            )));
        }
        self.health.transition(
            stream,
            HealthState::Repairing,
            HealthCause::RepairStarted { attempt: 1 },
        )?;
        match self.try_repair(stream) {
            Ok(report) => {
                self.health.transition(
                    stream,
                    HealthState::Healthy,
                    HealthCause::RepairVerified {
                        replayed: report.replayed,
                    },
                )?;
                self.bump("repairs_total", 1);
                Ok(report)
            }
            Err(e) => {
                // invariant: Repairing -> Quarantined is always legal.
                let _ = self.health.transition(
                    stream,
                    HealthState::Quarantined,
                    HealthCause::RepairFailed {
                        detail: e.to_string(),
                    },
                );
                Err(e)
            }
        }
    }

    /// The fallible body of [`Self::repair`]: every step up to the final
    /// commit leaves the registry untouched, so an error anywhere rolls
    /// back to plain `Quarantined`.
    fn try_repair(&mut self, stream: &str) -> Result<RepairReport> {
        // 1. Checkpoint baseline (absence is fine: empty baseline).
        let (mut baseline, from_watermark, checkpoint_events) = match self.read_manifest()? {
            Some(bytes) => {
                let (mut snapshot, w) = StreamProcessor::restore_bytes_with_watermark(&bytes)?;
                let events = snapshot.events_processed();
                (snapshot.unregister(stream), w, events)
            }
            None => (None, 0, 0),
        };

        // 2. Re-establish a trustworthy log tail from durable bytes and
        // collect every surviving record past the checkpoint.
        let outcome = self.wal.reopen(from_watermark)?;

        // Verification (a): the surviving log must be gap-free through
        // its own watermark. scan_storage enforces continuity, so this
        // is a cheap belt-and-braces check on the arithmetic.
        let expected = self.wal.watermark().saturating_sub(from_watermark);
        if outcome.records.len() as u64 != expected {
            return Err(DctError::Wal {
                segment: "<replay>".into(),
                offset: 0,
                stream: Some(stream.to_string()),
                detail: format!(
                    "repair verification failed: {} records survived but the log watermark \
                     implies {expected}",
                    outcome.records.len()
                ),
            });
        }

        // 3. Rebuild the stream's summary on a scratch registry, and
        // count surviving updates across all streams — the global event
        // counter is reconciled to durable truth below.
        let mut scratch = StreamProcessor::new();
        if let Some(s) = baseline.take() {
            scratch.register(stream, s)?;
        }
        let mut replayed = 0u64;
        let mut surviving_updates = 0u64;
        // Durable truth for the repaired stream's staleness tracker:
        // update records surviving past the checkpoint watermark.
        let mut stream_records = 0u64;
        let mut stream_gross = 0.0f64;
        for (seq, record) in &outcome.records {
            if record.as_update().is_some() {
                surviving_updates += 1;
            }
            if record.stream != stream {
                continue;
            }
            if let Some((_, w)) = record.as_update() {
                stream_records += 1;
                stream_gross += w.abs();
            }
            let applied = match &record.op {
                WalOp::Register(payload) => Summary::from_bytes(payload.clone()).and_then(|s| {
                    scratch.unregister(stream);
                    (stream_records, stream_gross) = (0, 0.0);
                    scratch.register(stream, s)
                }),
                WalOp::Drop => {
                    scratch.unregister(stream);
                    (stream_records, stream_gross) = (0, 0.0);
                    Ok(())
                }
                WalOp::Event(ev) => scratch.process(stream, ev),
                WalOp::Weighted(t, w) => scratch.process_weighted(stream, t.values(), *w),
            };
            applied.map_err(|e| DctError::Wal {
                segment: "<replay>".into(),
                offset: 0,
                stream: Some(stream.to_string()),
                detail: format!("repair replay of record {seq} failed: {e}"),
            })?;
            replayed += 1;
        }
        let rebuilt = scratch.unregister(stream);

        // Verification (b): the rebuilt summary must audit clean.
        if let Some(s) = &rebuilt {
            s.check_invariants().map_err(|e| match e {
                DctError::IntegrityViolation {
                    field,
                    artifact,
                    detail,
                    ..
                } => DctError::IntegrityViolation {
                    stream: Some(stream.to_string()),
                    field,
                    artifact,
                    detail: format!("repair verification failed: {detail}"),
                },
                other => other,
            })?;
        }

        // 4. Commit: swap the rebuilt summary in (dropping the stale
        // batch buffer with the old state) and reconcile the event
        // counter with what durably survived.
        self.processor.unregister(stream);
        let removed = match rebuilt {
            Some(s) => {
                self.processor.register(stream, s)?;
                false
            }
            None => true,
        };
        // The rebuilt summary reflects exactly the durable records, so
        // its staleness tracker is recomputed from them too (the
        // unlogged divergence the quarantine flagged is gone).
        if removed {
            self.since_checkpoint.remove(stream);
        } else {
            self.since_checkpoint
                .insert(stream.to_string(), (stream_records, stream_gross));
        }
        self.processor
            .set_events_processed(checkpoint_events + surviving_updates);
        Ok(RepairReport {
            stream: stream.to_string(),
            from_watermark,
            replayed,
            removed,
        })
    }

    /// [`Self::repair`] every quarantined stream, in name order.
    /// Returns one `(stream, outcome)` pair per attempt; a failed
    /// repair leaves that stream quarantined and moves on.
    pub fn repair_all(&mut self) -> Vec<(String, Result<RepairReport>)> {
        self.health
            .streams_in(HealthState::Quarantined)
            .into_iter()
            .map(|name| {
                let outcome = self.repair(&name);
                (name, outcome)
            })
            .collect()
    }

    fn demote_to_suspect(
        &mut self,
        stream: &str,
        field: &str,
        artifact: &str,
        detail: &str,
        demoted: &mut Vec<(String, HealthState)>,
    ) {
        let from = self.health.state(stream);
        if matches!(from, HealthState::Healthy | HealthState::Suspect) {
            let _ = self.health.transition(
                stream,
                HealthState::Suspect,
                HealthCause::IntegrityViolation {
                    field: field.to_string(),
                    artifact: artifact.to_string(),
                    detail: detail.to_string(),
                },
            );
            if from == HealthState::Healthy {
                demoted.push((stream.to_string(), HealthState::Suspect));
            }
        }
    }

    /// Integrity scrub: audit every live summary against its structural
    /// invariants, then re-verify the on-disk checkpoint and WAL
    /// checksums without replaying anything.
    ///
    /// Demotions are as local as attribution allows: live-state damage
    /// quarantines the stream (its answers can no longer be trusted);
    /// artifact damage attributable to one stream demotes only that
    /// stream to `Suspect` (live answers are still good — the *durable
    /// copy* is what's damaged); unattributable artifact damage is
    /// reported without demoting anyone. Suspect streams that audit
    /// clean across the whole pass are promoted back to healthy.
    pub fn scrub(&mut self) -> Result<ScrubReport> {
        let mut violations: Vec<DctError> = Vec::new();
        let mut demoted: Vec<(String, HealthState)> = Vec::new();
        let mut flagged: BTreeSet<String> = BTreeSet::new();

        // 1. Live summaries.
        let mut names: Vec<String> = self
            .processor
            .streams()
            .map(|(n, _)| n.to_string())
            .collect();
        names.sort_unstable();
        let mut live_streams_checked = 0;
        for name in &names {
            if self.health.is_degraded(name) {
                continue; // already untrusted; repair is the exit path
            }
            live_streams_checked += 1;
            let audit = self.processor.flush_stream(name).and_then(|()| {
                self.processor
                    .summary(name)
                    .map_or(Ok(()), Summary::check_invariants)
            });
            if let Err(e) = audit {
                let (field, artifact, detail) = match &e {
                    DctError::IntegrityViolation {
                        field,
                        artifact,
                        detail,
                        ..
                    } => (field.clone(), artifact.clone(), detail.clone()),
                    other => (
                        "live state".to_string(),
                        "summary".to_string(),
                        other.to_string(),
                    ),
                };
                violations.push(DctError::IntegrityViolation {
                    stream: Some(name.clone()),
                    field: field.clone(),
                    artifact: artifact.clone(),
                    detail: detail.clone(),
                });
                flagged.insert(name.clone());
                // invariant: Healthy/Suspect -> Quarantined is legal.
                let _ = self.health.transition(
                    name,
                    HealthState::Quarantined,
                    HealthCause::IntegrityViolation {
                        field,
                        artifact,
                        detail,
                    },
                );
                demoted.push((name.clone(), HealthState::Quarantined));
            }
        }

        // 2. Checkpoint manifest (CRC-only, no deserialization).
        let mut checkpoint_streams_checked = 0;
        match self.read_manifest() {
            Ok(Some(bytes)) => {
                let (checked, ckpt_violations) = verify_checkpoint_bytes(&bytes);
                checkpoint_streams_checked = checked;
                for v in ckpt_violations {
                    if let DctError::IntegrityViolation {
                        stream: Some(n),
                        field,
                        artifact,
                        detail,
                    } = &v
                    {
                        let (n, field, artifact, detail) =
                            (n.clone(), field.clone(), artifact.clone(), detail.clone());
                        self.demote_to_suspect(&n, &field, &artifact, &detail, &mut demoted);
                        flagged.insert(n);
                    }
                    violations.push(v);
                }
            }
            Ok(None) => {}
            Err(e) => violations.push(DctError::IntegrityViolation {
                stream: None,
                field: "read".into(),
                artifact: "checkpoint".into(),
                detail: e.to_string(),
            }),
        }

        // 3. WAL segments (CRC-only, no replay).
        let (wal_segments_checked, wal_violations) = self.wal.verify()?;
        for v in wal_violations {
            if let DctError::Wal {
                stream: Some(n),
                segment,
                detail,
                ..
            } = &v
            {
                let (n, segment, detail) = (n.clone(), segment.clone(), detail.clone());
                self.demote_to_suspect(&n, "record body", &segment, &detail, &mut demoted);
                flagged.insert(n);
            }
            violations.push(v);
        }

        // 4. Promote suspects the whole pass found clean.
        let mut promoted = Vec::new();
        for name in self.health.streams_in(HealthState::Suspect) {
            if !flagged.contains(&name) {
                self.health
                    .transition(&name, HealthState::Healthy, HealthCause::ScrubPassed)?;
                promoted.push(name);
            }
        }

        self.bump("scrubs_total", 1);
        dctstream_obs::counter_add!("health.scrubs", 1);
        dctstream_obs::counter_add!("health.scrub_findings", violations.len() as u64);
        Ok(ScrubReport {
            live_streams_checked,
            checkpoint_streams_checked,
            wal_segments_checked,
            violations,
            demoted,
            promoted,
        })
    }

    /// The per-stream health ledger.
    pub fn health(&self) -> &HealthRegistry {
        &self.health
    }

    /// Administratively quarantine `stream`, recording `cause` — the
    /// entry point the intake front end uses when its reject-rate
    /// threshold trips. The transition is validated by the health state
    /// machine: already-degraded streams refresh their cause (the
    /// `Quarantined → Quarantined` self-loop), while an invalid edge
    /// (e.g. mid-repair) is a typed error that changes nothing. Unlike
    /// WAL-append quarantines this records no unsynced-suffix damage;
    /// the stream's durable state is intact, its *source* is not.
    pub fn quarantine_stream(&mut self, stream: &str, cause: HealthCause) -> Result<HealthState> {
        self.health
            .transition(stream, HealthState::Quarantined, cause)
    }

    /// Quarantined streams and their causes (empty when healthy).
    pub fn quarantined(&self) -> BTreeMap<String, String> {
        self.health
            .report()
            .into_iter()
            .filter(|(_, state, _)| *state == HealthState::Quarantined)
            .map(|(name, _, cause)| (name, cause))
            .collect()
    }

    /// Drop every quarantined stream from the registry, returning their
    /// names. Each drop is logged as a [`WalOp::Drop`] record, so a
    /// later recovery unregisters the stream again instead of replaying
    /// its surviving records back into quarantine; the records then
    /// retire with their segments at the next checkpoint. After this,
    /// [`Self::checkpoint`] is allowed again; the dropped streams'
    /// synopses are gone (one-pass state cannot be rebuilt without the
    /// source stream — use [`Self::repair`] to keep the stream
    /// instead).
    ///
    /// A wedged WAL (the usual companion of a quarantine) is reopened
    /// from its durable bytes first so the drops can be logged. On an
    /// append error the drop stops: streams already processed stay
    /// dropped, the rest remain quarantined (see [`Self::quarantined`]).
    pub fn drop_quarantined(&mut self) -> Result<Vec<String>> {
        let names = self.health.streams_in(HealthState::Quarantined);
        if names.is_empty() {
            return Ok(Vec::new());
        }
        if self.wal.is_wedged() {
            let watermark = match self.read_manifest()? {
                Some(bytes) => StreamProcessor::restore_bytes_with_watermark(&bytes)?.1,
                None => 0,
            };
            self.wal.reopen(watermark)?;
        }
        let mut dropped = Vec::new();
        for name in names {
            self.wal.append(&WalRecord::drop_stream(name.as_str()))?;
            self.processor.unregister(&name);
            self.health.forget(&name);
            self.unsynced_streams.remove(&name);
            self.since_checkpoint.remove(&name);
            dropped.push(name);
        }
        Ok(dropped)
    }

    /// Sequence number of the last logged record.
    pub fn wal_watermark(&self) -> u64 {
        self.wal.watermark()
    }

    /// Pin WAL retention for a consumer (see [`Wal::pin_retention`]):
    /// checkpoints keep every segment holding records past `acked_seq`,
    /// so an attached shipper or follower never loses its replay
    /// window to [`Self::checkpoint`]'s segment retirement.
    pub fn pin_wal_retention(&mut self, consumer: impl Into<String>, acked_seq: u64) {
        self.wal.pin_retention(consumer, acked_seq);
    }

    /// Release a consumer's WAL retention pin (see
    /// [`Wal::release_retention`]).
    pub fn release_wal_retention(&mut self, consumer: &str) -> bool {
        self.wal.release_retention(consumer)
    }

    /// Events absorbed by the registry (checkpointed + replayed + live).
    pub fn events_processed(&self) -> u64 {
        self.processor.events_processed()
    }

    /// Cumulative counters that survive restarts via the checkpoint
    /// manifest's version-3 metrics block: `events_total`,
    /// `wal_appends_total`, `checkpoints_total`, `repairs_total`,
    /// `replays_total`, `scrubs_total`. Counts accumulated since the
    /// last [`Self::checkpoint`] are included but not yet durable.
    pub fn persistent_counters(&self) -> &BTreeMap<String, u64> {
        &self.persistent
    }

    /// Per-stream `(update_records, gross_update_mass)` applied since
    /// the last checkpoint — the staleness a degraded member for that
    /// stream would report (see [`Self::capture_snapshot`]).
    pub fn staleness_since_checkpoint(&self, stream: &str) -> (u64, f64) {
        self.since_checkpoint
            .get(stream)
            .copied()
            .unwrap_or((0, 0.0))
    }

    /// Capture a tear-free [`RegistrySnapshot`] of the registry at
    /// `epoch`: flush every stream's pending buffered events, then
    /// deep-copy the flushed summaries. This is the serve daemon's
    /// publish step.
    ///
    /// A `Quarantined` or `Repairing` stream is captured from its
    /// summary in the last checkpoint instead, with a
    /// [`StreamStaleness`] whose `records_behind` / `gross_weight_behind`
    /// bound how many of *that stream's* update records — and how much
    /// gross turnstile mass `Σ|w|` — the substitute may be missing
    /// (read it back through [`RegistrySnapshot::attribution`]). A
    /// degraded stream no checkpoint holds is withheld: estimates naming
    /// it fail with [`DctError::StreamQuarantined`]. While every stream
    /// is healthy this is one empty-ledger check; the manifest is read
    /// only when something is degraded.
    pub fn capture_snapshot(&mut self, epoch: u64) -> Result<RegistrySnapshot> {
        let mut snap = RegistrySnapshot::capture(&mut self.processor, epoch)?;
        let degraded = self.health.degraded_streams();
        if degraded.is_empty() {
            return Ok(snap);
        }
        // A manifest that cannot be read or decoded withholds the
        // degraded streams; the healthy ones keep answering.
        let checkpoint = self.read_manifest().and_then(|bytes| {
            bytes
                .map(|b| StreamProcessor::restore_bytes_with_watermark(&b))
                .transpose()
        });
        let (mut baseline, checkpoint_watermark) = match checkpoint {
            Ok(Some(found)) => found,
            failed => {
                let cause = match failed {
                    Err(e) => {
                        format!("degraded answer impossible: reading the checkpoint failed: {e}")
                    }
                    _ => {
                        "degraded answer impossible: no checkpoint exists to substitute from".into()
                    }
                };
                for stream in degraded {
                    snap.withhold(stream, cause.clone());
                }
                return Ok(snap);
            }
        };
        for stream in degraded {
            match baseline.unregister(&stream) {
                Some(summary) => {
                    let (records_behind, gross_weight_behind) =
                        self.staleness_since_checkpoint(&stream);
                    let staleness = StreamStaleness {
                        state: self.health.state(&stream),
                        stream,
                        checkpoint_watermark,
                        records_behind,
                        gross_weight_behind,
                    };
                    snap.substitute(staleness, summary);
                }
                None => snap.withhold(
                    stream,
                    "degraded answer impossible: the stream has no summary in the last checkpoint"
                        .into(),
                ),
            }
        }
        Ok(snap)
    }

    /// Read access to the underlying registry.
    pub fn processor(&self) -> &StreamProcessor {
        &self.processor
    }

    /// Mutable access to the underlying registry.
    ///
    /// Mutations made here bypass the WAL — they will not survive a
    /// crash until the next [`Self::checkpoint`]. Intended for
    /// maintenance calls (`set_flush_threshold`, `checkpoint_bytes`).
    pub fn processor_mut(&mut self) -> &mut StreamProcessor {
        &mut self.processor
    }

    /// Test-only access to the WAL (fault-injection tests need to
    /// append raw records).
    #[cfg(test)]
    fn wal_mut(&mut self) -> &mut Wal<S> {
        &mut self.wal
    }
}

// ---------------------------------------------------------------------------
// Group-commit durable processor
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct GdCore<S: WalStorage> {
    dp: DurableProcessor<SharedStorage<S>>,
    /// Highest WAL sequence covered by a completed fsync.
    durable: u64,
    /// A leader's fsync is in flight.
    syncing: bool,
}

#[derive(Debug)]
struct GdShared<S: WalStorage> {
    core: Mutex<GdCore<S>>,
    cv: Condvar,
    /// The leader's private handle for fsyncing outside `core`.
    storage: SharedStorage<S>,
}

/// A [`DurableProcessor`] shared by many writer threads under WAL group
/// commit ([`SyncPolicy::Group`]).
///
/// [`Self::process_weighted`] applies the update and buffers its WAL
/// record under one lock (so sequence order equals apply order), then
/// releases the lock and blocks until a group fsync covers the record —
/// the ack-after-fsync durability of `SyncPolicy::Always`, with one
/// fsync amortized over every record queued behind the leader. The
/// leader election and failure semantics are those of
/// [`crate::wal::GroupWal`]: a flush or fsync failure wedges the log,
/// fails every waiter, and quarantines streams with unsynced records
/// exactly as [`DurableProcessor::sync`] would.
#[derive(Debug)]
pub struct GroupDurable<S: WalStorage> {
    shared: Arc<GdShared<S>>,
}

impl<S: WalStorage> Clone for GroupDurable<S> {
    fn clone(&self) -> Self {
        GroupDurable {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl GroupDurable<DirStorage> {
    /// Open (or create) a group-commit durable registry under `dir`.
    pub fn open_dir(dir: &Path, opts: RecoveryOptions) -> Result<(Self, RecoveryReport)> {
        let storage = DirStorage::open(dir).map_err(|e| {
            DctError::Checkpoint(format!("opening recovery directory {}: {e}", dir.display()))
        })?;
        Self::open_with(storage, opts)
    }
}

impl<S: WalStorage> GroupDurable<S> {
    /// Open a group-commit durable registry over any [`WalStorage`].
    /// The WAL sync policy is forced to [`SyncPolicy::Group`].
    pub fn open_with(storage: S, mut opts: RecoveryOptions) -> Result<(Self, RecoveryReport)> {
        opts.wal.sync = SyncPolicy::Group;
        let (dp, report) = DurableProcessor::open_with(SharedStorage::new(storage), opts)?;
        let storage = dp.wal.storage().clone();
        // Everything replayed at open came off storage, so the log's
        // watermark is durable by construction.
        let durable = dp.wal.watermark();
        let gd = GroupDurable {
            shared: Arc::new(GdShared {
                core: Mutex::new(GdCore {
                    dp,
                    durable,
                    syncing: false,
                }),
                cv: Condvar::new(),
                storage,
            }),
        };
        Ok((gd, report))
    }

    /// Register a stream, blocking until the registration record is
    /// durable.
    pub fn register(&self, name: impl Into<String>, summary: Summary) -> Result<()> {
        let seq = {
            let mut core = lock_unpoisoned(&self.shared.core);
            core.dp.register(name, summary)?;
            core.dp.wal.watermark()
        };
        self.wait_durable(seq)
    }

    /// Route one event to the named stream, blocking until its WAL
    /// record is durable. Returns the record's sequence number.
    pub fn process(&self, stream: &str, ev: &StreamEvent) -> Result<u64> {
        self.process_weighted(stream, ev.tuple().values(), ev.weight())
    }

    /// Route a weighted update to the named stream, blocking until its
    /// WAL record is durable. Returns the record's sequence number.
    pub fn process_weighted(&self, stream: &str, tuple: &[i64], w: f64) -> Result<u64> {
        let seq = {
            let mut core = lock_unpoisoned(&self.shared.core);
            core.dp.process_weighted(stream, tuple, w)?
        };
        self.wait_durable(seq)?;
        Ok(seq)
    }

    /// Make every record appended so far durable.
    pub fn sync(&self) -> Result<()> {
        let wm = lock_unpoisoned(&self.shared.core).dp.wal.watermark();
        self.wait_durable(wm)
    }

    /// Take a checkpoint (see [`DurableProcessor::checkpoint`]). Holds
    /// the registry lock throughout, first waiting out any in-flight
    /// group fsync so it cannot target a segment this call retires.
    pub fn checkpoint(&self) -> Result<usize> {
        let shared = &*self.shared;
        let mut core = lock_unpoisoned(&shared.core);
        while core.syncing {
            core = shared.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
        let retired = core.dp.checkpoint()?;
        // checkpoint() synced the log before writing the manifest.
        core.durable = core.dp.wal.watermark();
        shared.cv.notify_all();
        Ok(retired)
    }

    /// Run `f` with exclusive access to the underlying
    /// [`DurableProcessor`] (estimates, health queries, scrubbing).
    ///
    /// Mutations made here bypass group-commit coordination: records a
    /// direct `dp` call appends are only durable after the next group
    /// fsync or [`Self::sync`], and their callers are not blocked on it.
    pub fn with<R>(&self, f: impl FnOnce(&mut DurableProcessor<SharedStorage<S>>) -> R) -> R {
        f(&mut lock_unpoisoned(&self.shared.core).dp)
    }

    /// Sequence number of the last logged record.
    pub fn wal_watermark(&self) -> u64 {
        lock_unpoisoned(&self.shared.core).dp.wal.watermark()
    }

    /// Highest sequence number covered by a completed fsync.
    pub fn durable_watermark(&self) -> u64 {
        lock_unpoisoned(&self.shared.core).durable
    }

    /// Events absorbed by the registry.
    pub fn events_processed(&self) -> u64 {
        lock_unpoisoned(&self.shared.core).dp.events_processed()
    }

    /// Block until every record with sequence ≤ `seq` is fsynced,
    /// becoming the fsync leader when no fsync is in flight. See
    /// [`crate::wal::GroupWal::wait_durable`] for the protocol.
    fn wait_durable(&self, seq: u64) -> Result<()> {
        let shared = &*self.shared;
        let mut core = lock_unpoisoned(&shared.core);
        loop {
            if core.durable >= seq {
                return Ok(());
            }
            if core.dp.wal.is_wedged() {
                // Route through the processor's own sync path so streams
                // with unsynced records are quarantined exactly as a
                // direct sync failure would.
                return core.dp.sync();
            }
            if core.syncing {
                core = shared.cv.wait(core).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Leader: claim the flag, grow the batch through a bounded
            // commit window, then flush under the lock and fsync outside
            // it. See `GroupWal::wait_durable` for the window rationale.
            core.syncing = true;
            let mut last_wm = core.dp.wal.watermark();
            for _ in 0..crate::wal::GROUP_COMMIT_WINDOW {
                drop(core);
                std::thread::yield_now();
                core = lock_unpoisoned(&shared.core);
                let wm = core.dp.wal.watermark();
                if wm == last_wm {
                    break;
                }
                last_wm = wm;
            }
            let name = match core.dp.wal.flush_active() {
                Ok(Some(name)) => name,
                Ok(None) => {
                    // No active segment: everything appended so far was
                    // flushed and fsynced by a checkpoint rotation.
                    core.syncing = false;
                    core.durable = core.dp.wal.watermark();
                    shared.cv.notify_all();
                    continue;
                }
                Err(e) => {
                    // flush_to_storage wedged the log; fail every waiter
                    // and propagate the quarantine.
                    core.syncing = false;
                    shared.cv.notify_all();
                    let _ = core.dp.sync();
                    return Err(e);
                }
            };
            let covered = core.dp.wal.watermark();
            let retry = core.dp.wal.options().retry.clone();
            drop(core);
            let res = {
                let _span = dctstream_obs::span!("wal.fsync");
                let mut storage = shared.storage.clone();
                retry.run(|| storage.sync(&name))
            };
            core = lock_unpoisoned(&shared.core);
            core.syncing = false;
            match res {
                Ok(()) => {
                    if covered > core.durable {
                        core.durable = covered;
                    }
                    let durable = core.durable;
                    core.dp.wal.note_synced_through(durable);
                    if core.dp.wal.unsynced_records() == 0 {
                        core.dp.unsynced_streams.clear();
                    }
                    dctstream_obs::counter_add!("wal.fsyncs", 1);
                    shared.cv.notify_all();
                }
                Err(e) => {
                    core.dp.wal.wedge(format!("group fsync: {e}"));
                    shared.cv.notify_all();
                    return core.dp.sync();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ChainJoinQuery;
    use crate::wal::{FailingStorage, MemStorage, RetryPolicy, SyncPolicy};
    use dctstream_core::{CosineSynopsis, Domain, Grid};

    fn cosine(n: usize, m: usize) -> Summary {
        Summary::Cosine(CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap())
    }

    /// Capture `dp` and estimate `l ⋈ r` on the capture.
    fn estimate<S: WalStorage>(dp: &mut DurableProcessor<S>, l: &str, r: &str) -> Result<f64> {
        dp.capture_snapshot(1)?.estimate_cosine_join(l, r, None)
    }

    fn manual_opts() -> RecoveryOptions {
        RecoveryOptions {
            wal: WalOptions {
                sync: SyncPolicy::Manual,
                retry: RetryPolicy::none(),
                ..WalOptions::default()
            },
            flush_threshold: None,
        }
    }

    fn always_opts() -> RecoveryOptions {
        RecoveryOptions {
            wal: WalOptions {
                sync: SyncPolicy::Always,
                retry: RetryPolicy::none(),
                ..WalOptions::default()
            },
            flush_threshold: None,
        }
    }

    #[test]
    fn open_ingest_reopen_resumes_exactly() {
        let mem = MemStorage::new();
        let (mut dp, report) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        assert_eq!(report.replayed, 0);
        dp.register("l", cosine(64, 16)).unwrap();
        dp.register("r", cosine(64, 16)).unwrap();
        for v in 0..200i64 {
            dp.process_weighted("l", &[v % 64], 1.0).unwrap();
            dp.process_weighted("r", &[(v * 3) % 64], 1.0).unwrap();
        }
        dp.sync().unwrap();
        let live = estimate(&mut dp, "l", "r").unwrap();

        let (mut dp2, report) = DurableProcessor::open_with(mem, manual_opts()).unwrap();
        assert_eq!(report.replayed, 402); // 2 registrations + 400 events
        assert_eq!(dp2.events_processed(), 400);
        assert_eq!(estimate(&mut dp2, "l", "r").unwrap(), live);
    }

    #[test]
    fn checkpoint_rotates_and_replay_resumes_past_it() {
        let mem = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        dp.register("s", cosine(32, 8)).unwrap();
        for v in 0..50i64 {
            dp.process_weighted("s", &[v % 32], 1.0).unwrap();
        }
        dp.checkpoint().unwrap();
        // Post-checkpoint events only exist in the WAL.
        for v in 0..7i64 {
            dp.process_weighted("s", &[v], 1.0).unwrap();
        }
        dp.sync().unwrap();
        let live = dp.events_processed();

        let (dp2, report) = DurableProcessor::open_with(mem, manual_opts()).unwrap();
        assert_eq!(report.checkpoint_events, 50);
        assert_eq!(report.checkpoint_watermark, 51); // register + 50 events
        assert_eq!(report.replayed, 7);
        assert_eq!(dp2.events_processed(), live);
    }

    #[test]
    fn checkpoint_refused_while_quarantined_then_allowed_after_drop() {
        let mem = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        dp.register("good", cosine(16, 4)).unwrap();
        dp.register("bad", cosine(16, 4)).unwrap();
        dp.process_weighted("good", &[1], 1.0).unwrap();
        dp.process_weighted("bad", &[2], 1.0).unwrap();
        dp.sync().unwrap();

        // Corrupt 'bad' logically: craft a WAL record whose value is out
        // of the synopsis domain, as if the domain had changed between
        // runs. Easiest injection: log a raw out-of-domain update.
        dp.wal_mut()
            .append(&WalRecord::weighted("bad", &[1_000_000], 1.0))
            .unwrap();
        dp.sync().unwrap();

        let (mut dp2, report) = DurableProcessor::open_with(mem, manual_opts()).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].0, "bad");
        assert_eq!(dp2.health().state("bad"), HealthState::Quarantined);

        // Degraded mode: the good stream still works end to end.
        dp2.process_weighted("good", &[3], 1.0).unwrap();
        let e = dp2.process_weighted("bad", &[1], 1.0).unwrap_err();
        assert!(matches!(e, DctError::StreamQuarantined { .. }));
        // 'bad' has no checkpointed summary to stand in for it.
        let e = estimate(&mut dp2, "good", "bad").unwrap_err();
        assert!(matches!(e, DctError::StreamQuarantined { .. }));

        // Checkpoint refused, then allowed once the stream is dropped.
        let e = dp2.checkpoint().unwrap_err();
        assert!(e.to_string().contains("quarantined"), "{e}");
        assert_eq!(dp2.drop_quarantined().unwrap(), vec!["bad".to_string()]);
        dp2.checkpoint().unwrap();
        assert!(dp2.processor().summary("bad").is_none());
        assert!(dp2.processor().summary("good").is_some());
    }

    #[test]
    fn dropped_streams_stay_dropped_across_reopen_without_checkpoint() {
        let mem = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        dp.register("good", cosine(16, 4)).unwrap();
        dp.register("bad", cosine(16, 4)).unwrap();
        dp.process_weighted("good", &[1], 1.0).unwrap();
        dp.wal_mut()
            .append(&WalRecord::weighted("bad", &[1_000_000], 1.0))
            .unwrap();
        dp.sync().unwrap();

        let (mut dp2, report) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(dp2.drop_quarantined().unwrap(), vec!["bad".to_string()]);
        // Deliberately NO checkpoint: the drop only exists in the WAL.
        dp2.sync().unwrap();

        // Reopen: the drop record must keep 'bad' dropped instead of
        // replaying it back into quarantine forever.
        let (dp3, report) = DurableProcessor::open_with(mem, manual_opts()).unwrap();
        assert_eq!(report.dropped, vec!["bad".to_string()]);
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert!(dp3.processor().summary("bad").is_none());
        assert!(dp3.processor().summary("good").is_some());
        assert!(dp3.health().all_healthy());
    }

    #[test]
    fn failed_wal_append_quarantines_the_stream_against_retries() {
        let failing = FailingStorage::with_budget(MemStorage::new(), 4096);
        let (mut dp, _) = DurableProcessor::open_with(failing, always_opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        // Append until the injected crash fires mid-write.
        let mut first_err = None;
        for v in 0..100_000i64 {
            if let Err(e) = dp.process_weighted("s", &[v % 16], 1.0) {
                first_err = Some(e);
                break;
            }
        }
        let first_err = first_err.expect("byte budget must run out");
        assert!(matches!(first_err, DctError::Wal { .. }), "{first_err}");
        // The failed update is in memory but not in the log: a retry must
        // be rejected rather than double-applied.
        let e = dp.process_weighted("s", &[1], 1.0).unwrap_err();
        assert!(matches!(e, DctError::StreamQuarantined { .. }), "{e}");
        assert_eq!(dp.health().state("s"), HealthState::Quarantined);
        // And a checkpoint cannot launder the divergent state.
        let e = dp.checkpoint().unwrap_err();
        assert!(e.to_string().contains("quarantined"), "{e}");
    }

    #[test]
    fn repair_reconciles_memory_with_durable_state() {
        let failing = FailingStorage::with_budget(MemStorage::new(), 2048);
        let (mut dp, _) = DurableProcessor::open_with(failing.clone(), always_opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        let mut applied = 0u64;
        let mut lost: Option<i64> = None;
        for v in 0..100_000i64 {
            match dp.process_weighted("s", &[v % 16], 1.0) {
                Ok(_) => applied += 1,
                Err(_) => {
                    lost = Some(v % 16);
                    break;
                }
            }
        }
        let lost = lost.expect("budget must run out");
        assert_eq!(dp.health().state("s"), HealthState::Quarantined);
        // Memory is ahead of the log by exactly the failed update.
        assert_eq!(dp.events_processed(), applied + 1);

        // The outage ends; self-heal in place.
        failing.revive();
        let report = dp.repair("s").unwrap();
        assert_eq!(report.stream, "s");
        assert_eq!(report.replayed, applied + 1); // register + applied updates
        assert!(!report.removed);
        assert_eq!(dp.health().state("s"), HealthState::Healthy);
        // The unlogged update was rolled back with the rebuild.
        assert_eq!(dp.events_processed(), applied);

        // The caller re-submits the update that failed; the repaired
        // stream accepts it and ends bit-identical to an unfaulted run
        // over the same workload.
        dp.process_weighted("s", &[lost], 1.0).unwrap();
        assert_eq!(dp.events_processed(), applied + 1);

        let (mut unfaulted, _) =
            DurableProcessor::open_with(MemStorage::new(), always_opts()).unwrap();
        unfaulted.register("s", cosine(16, 4)).unwrap();
        for v in 0..=applied as i64 {
            unfaulted.process_weighted("s", &[v % 16], 1.0).unwrap();
        }
        assert_eq!(
            dp.processor().summary("s").unwrap().to_bytes(),
            unfaulted.processor().summary("s").unwrap().to_bytes()
        );
    }

    #[test]
    fn repair_requires_quarantine_and_survives_double_call() {
        let (mut dp, _) = DurableProcessor::open_with(MemStorage::new(), manual_opts()).unwrap();
        dp.register("s", cosine(16, 4)).unwrap();
        let e = dp.repair("s").unwrap_err();
        assert!(e.to_string().contains("only quarantined"), "{e}");
        let e = dp.repair("missing").unwrap_err();
        assert!(e.to_string().contains("only quarantined"), "{e}");
    }

    #[test]
    fn scrub_quarantines_live_damage_and_suspects_artifact_damage() {
        let mem = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(mem.clone(), manual_opts()).unwrap();
        dp.register("a", cosine(16, 4)).unwrap();
        dp.register("b", cosine(16, 4)).unwrap();
        for v in 0..20i64 {
            dp.process_weighted("a", &[v % 16], 1.0).unwrap();
            dp.process_weighted("b", &[(v * 3) % 16], 1.0).unwrap();
        }
        dp.checkpoint().unwrap();
        let clean = dp.scrub().unwrap();
        assert!(clean.is_clean(), "{:?}", clean.violations);
        assert_eq!(clean.live_streams_checked, 2);
        assert_eq!(clean.checkpoint_streams_checked, 2);

        // Damage the checkpoint copy of 'a' (single byte): scrub demotes
        // 'a' to Suspect, 'b' keeps answering, and a re-scrub after the
        // damage is undone promotes 'a' back.
        let files = mem.snapshot();
        let mut damaged = files.clone();
        let manifest = damaged.get_mut(CHECKPOINT_FILE).unwrap();
        // Stream 'a''s record starts with its length-prefixed name
        // (`1u64 LE | 'a'`); a bare `b"a"` search would hit the metric
        // names in the version-3 metrics block first.
        let needle = [1u8, 0, 0, 0, 0, 0, 0, 0, b'a'];
        let pos = manifest
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("stream record in manifest");
        manifest[pos + 8 + 20] ^= 0xFF;
        mem.restore(damaged);
        let report = dp.scrub().unwrap();
        assert!(!report.is_clean());
        assert_eq!(dp.health().state("a"), HealthState::Suspect);
        assert_eq!(dp.health().state("b"), HealthState::Healthy);
        // Suspect streams still answer.
        assert!(estimate(&mut dp, "a", "b").unwrap() > 0.0);
        mem.restore(files);
        let report = dp.scrub().unwrap();
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.promoted, vec!["a".to_string()]);
        assert_eq!(dp.health().state("a"), HealthState::Healthy);
    }

    #[test]
    fn capture_substitutes_checkpoint_summaries_for_degraded_streams() {
        let mem = MemStorage::new();
        let (mut dp, _) = DurableProcessor::open_with(mem, manual_opts()).unwrap();
        dp.register("l", cosine(16, 8)).unwrap();
        dp.register("r", cosine(16, 8)).unwrap();
        for v in 0..40i64 {
            dp.process_weighted("l", &[v % 16], 1.0).unwrap();
            dp.process_weighted("r", &[(v * 3) % 16], 1.0).unwrap();
        }
        dp.checkpoint().unwrap();
        let at_checkpoint = estimate(&mut dp, "l", "r").unwrap();
        let q = ChainJoinQuery::builder().end("l").end("r").build().unwrap();

        // Healthy: the chain answer equals the equi-join, no attribution.
        let snap = dp.capture_snapshot(1).unwrap();
        assert_eq!(q.estimate_at(&snap, None).unwrap(), at_checkpoint);
        assert!(snap.attribution(q.streams()).is_empty());

        // Post-checkpoint turnstile updates on 'r': +5 then −3 is 2
        // records and 8 gross update mass behind, even though the net
        // weight only moved by 2.
        dp.process_weighted("r", &[2], 5.0).unwrap();
        dp.process_weighted("r", &[2], -3.0).unwrap();

        // Quarantine 'r' artificially (live damage via scrub would need
        // field surgery; the health ledger is the contract here).
        dp.health
            .transition(
                "r",
                HealthState::Quarantined,
                HealthCause::WalAppendFailed {
                    detail: "injected".into(),
                },
            )
            .unwrap();
        dp.process_weighted("l", &[3], 1.0).unwrap();

        // A degraded participant is never silent: the answer reads the
        // checkpointed 'r' and carries its attribution.
        let snap = dp.capture_snapshot(2).unwrap();
        let value = q.estimate_at(&snap, None).unwrap();
        assert!(value.is_finite());
        let degraded = snap.attribution(q.streams());
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].stream, "r");
        assert_eq!(degraded[0].state, HealthState::Quarantined);
        // Staleness is per-stream: 'l' updates do not inflate 'r'.
        assert_eq!(degraded[0].records_behind, 2);
        assert_eq!(degraded[0].gross_weight_behind, 8.0);
        // An answer that does not read 'r' carries nothing.
        assert!(snap.attribution(["l"]).is_empty());
    }

    #[test]
    fn degraded_stream_without_a_checkpoint_is_a_typed_refusal() {
        let (mut dp, _) = DurableProcessor::open_with(MemStorage::new(), manual_opts()).unwrap();
        dp.register("l", cosine(16, 8)).unwrap();
        dp.register("r", cosine(16, 8)).unwrap();
        dp.process_weighted("r", &[1], 1.0).unwrap();
        dp.quarantine_stream(
            "r",
            HealthCause::WalAppendFailed {
                detail: "injected".into(),
            },
        )
        .unwrap();
        let q = ChainJoinQuery::builder().end("l").end("r").build().unwrap();
        let snap = dp.capture_snapshot(1).unwrap();
        for e in [
            snap.estimate_cosine_join("l", "r", None).unwrap_err(),
            q.estimate_at(&snap, None).unwrap_err(),
        ] {
            assert!(
                matches!(&e, DctError::StreamQuarantined { stream, cause }
                    if stream == "r" && cause.contains("no checkpoint")),
                "{e}"
            );
        }
        assert!(snap.summary("r").is_none());
        // The healthy stream keeps answering.
        assert!(snap.estimate_cosine_join("l", "l", None).is_ok());
    }

    #[test]
    fn fresh_flush_threshold_applies_only_without_checkpoint() {
        let mem = MemStorage::new();
        let opts = RecoveryOptions {
            flush_threshold: Some(16),
            ..manual_opts()
        };
        let (mut dp, _) = DurableProcessor::open_with(mem.clone(), opts.clone()).unwrap();
        assert_eq!(dp.processor().flush_threshold(), Some(16));
        dp.register("s", cosine(8, 4)).unwrap();
        dp.checkpoint().unwrap();
        // Reopen with a different fresh-threshold: the manifest wins.
        let opts2 = RecoveryOptions {
            flush_threshold: Some(99),
            ..manual_opts()
        };
        let (dp2, _) = DurableProcessor::open_with(mem, opts2).unwrap();
        assert_eq!(dp2.processor().flush_threshold(), Some(16));
    }
}
