//! Tear-free registry snapshots: the only estimate read path.
//!
//! Every estimate is a *capture* followed by an *estimate on the
//! capture*. Flushing batch buffers at read time would force readers
//! onto the registry's **write** lock and serialize them behind ingest
//! (a lock convoy), so the flush happens once, at capture, the same way
//! [`dctstream_obs::MetricsSnapshot`] decouples metric readers from the
//! hot ingest path:
//!
//! - the **write side** keeps mutating the live [`StreamProcessor`]
//!   under its lock, exactly as before;
//! - after each batch flush it **publishes** an immutable
//!   [`RegistrySnapshot`] — a deep copy of every stream's already-flushed
//!   summary, stamped with a monotone **epoch** — into a
//!   [`SnapshotCell`];
//! - **readers** grab the current `Arc<RegistrySnapshot>` (a pointer
//!   swap under a momentary read lock, never the registry lock) and
//!   estimate against it with zero synchronization and zero mutation,
//!   through [`RegistrySnapshot::estimate_cosine_join`] or
//!   [`crate::ChainJoinQuery::estimate_at`].
//!
//! The three captures are [`RegistrySnapshot::capture`] (a bare
//! registry), [`crate::DurableProcessor::capture_snapshot`] (a durable
//! registry with health supervision) and
//! [`crate::ShardedRegistry::capture_merged_at`] (a fleet);
//! [`crate::SharedProcessor::publish`] captures into a [`SnapshotCell`].
//! A fleet capture also carries the dead shards its followers answered
//! for ([`RegistrySnapshot::dead_shards`]) and the fleet generation it
//! was taken at ([`RegistrySnapshot::generation`]), so a published
//! fleet snapshot is read exactly like a single registry's.
//!
//! A **degraded** stream (`Quarantined` or `Repairing`) is a snapshot
//! member like any other, captured from its last checkpointed summary
//! and carrying a [`StreamStaleness`] that says so;
//! [`RegistrySnapshot::attribution`] returns those entries for an
//! answer's participants. A degraded stream with no checkpointed summary
//! is *withheld*: any estimate naming it is a typed
//! [`DctError::StreamQuarantined`].
//!
//! A snapshot is *stale by design*: it reflects the registry as of its
//! publish, not as of the read. The staleness is **reported, not
//! hidden** — each snapshot records the per-stream cumulative update
//! counters at publish time, and [`RegistrySnapshot::staleness_given`]
//! turns the live counters into a [`SnapshotStaleness`]
//! (`records_behind` / `gross_weight_behind`, the same turnstile-sound
//! gross-mass accounting degraded members use: a +5 followed by a −5
//! is 2 records and 10 gross mass behind even though the net weight
//! moved by zero).

use crate::health::StreamStaleness;
use crate::processor::{StreamProcessor, Summary};
use crate::shard::ShardStaleness;
use dctstream_core::{estimate_equi_join, DctError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Per-stream cumulative update totals, captured at publish time and
/// compared against the live registry to quantify snapshot staleness.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Update records routed to the stream (turnstile inserts and
    /// deletes both count one).
    pub records: u64,
    /// Gross update mass `Σ|w|` routed to the stream. Monotone under
    /// turnstile churn, unlike the net weight.
    pub gross_weight: f64,
}

/// How far a snapshot trails the live registry, in the staleness
/// vocabulary of [`crate::health::StreamStaleness`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotStaleness {
    /// The epoch of the snapshot being measured.
    pub epoch: u64,
    /// Update records the live registry has absorbed past the snapshot.
    pub records_behind: u64,
    /// Gross update mass (`Σ|w|`) absorbed past the snapshot. Reported
    /// so cancelling +w/−w churn cannot masquerade as freshness.
    pub gross_weight_behind: f64,
}

impl SnapshotStaleness {
    /// Whether the snapshot was exactly up to date when measured.
    pub fn is_fresh(&self) -> bool {
        self.records_behind == 0
    }
}

/// An immutable, tear-free copy of every registered stream's
/// already-flushed summary, published at one instant under one epoch.
///
/// Estimates against a snapshot never take the registry lock and never
/// mutate anything: the flush-before-read contract moved to the publish
/// step ([`RegistrySnapshot::capture`] drains every batch buffer before
/// copying), and skimmed sketches are `prepare()`d at capture so the
/// read side needs no `&mut` access.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    epoch: u64,
    events: u64,
    summaries: HashMap<String, Summary>,
    stats: HashMap<String, StreamStats>,
    total: StreamStats,
    /// One entry per member captured from a checkpoint substitute
    /// instead of live state (a merged snapshot keeps every part's).
    substituted: Vec<StreamStaleness>,
    /// Degraded streams with no substitute, with the reason; estimates
    /// naming one fail with [`DctError::StreamQuarantined`].
    withheld: Vec<(String, String)>,
    /// Fleet captures: the dead shards whose followers stood in.
    pub(crate) dead_shards: Vec<ShardStaleness>,
    /// Fleet captures: the fleet generation read before the capture.
    pub(crate) generation: u64,
}

/// Skimmed sketches answer only once prepared; snapshots prepare theirs
/// at capture so estimates never need `&mut`.
fn prepared(mut summary: Summary) -> Summary {
    if let Summary::Skimmed(sk) = &mut summary {
        sk.prepare_default();
    }
    summary
}

impl RegistrySnapshot {
    /// An empty snapshot at epoch 0 — what a [`SnapshotCell`] holds
    /// before the first publish.
    pub fn empty() -> Self {
        RegistrySnapshot {
            epoch: 0,
            events: 0,
            summaries: HashMap::new(),
            stats: HashMap::new(),
            total: StreamStats::default(),
            substituted: Vec::new(),
            withheld: Vec::new(),
            dead_shards: Vec::new(),
            generation: 0,
        }
    }

    /// Capture the registry at `epoch`: flush every stream's pending
    /// buffered events into its summary, then deep-copy the flushed
    /// summaries and the cumulative update counters. Skimmed sketches
    /// are prepared in the copy so snapshot estimates need no mutation.
    pub fn capture(processor: &mut StreamProcessor, epoch: u64) -> Result<Self> {
        processor.flush_all()?;
        let mut summaries = HashMap::new();
        let mut stats = HashMap::new();
        for (name, summary) in processor.streams() {
            summaries.insert(name.to_string(), prepared(summary.clone()));
            stats.insert(name.to_string(), processor.update_stats(name));
        }
        Ok(RegistrySnapshot {
            epoch,
            events: processor.events_processed(),
            summaries,
            stats,
            total: processor.total_update_stats(),
            substituted: Vec::new(),
            withheld: Vec::new(),
            dead_shards: Vec::new(),
            generation: 0,
        })
    }

    /// Answer for `staleness.stream` from `summary`, its last
    /// checkpointed state, instead of whatever live state was captured.
    pub(crate) fn substitute(&mut self, staleness: StreamStaleness, summary: Summary) {
        self.summaries
            .insert(staleness.stream.clone(), prepared(summary));
        self.substituted.push(staleness);
    }

    /// Leave `stream` out: it is degraded and nothing can stand in for
    /// it, so estimates naming it fail with `cause`.
    pub(crate) fn withhold(&mut self, stream: String, cause: String) {
        self.summaries.remove(&stream);
        self.withheld.push((stream, cause));
    }

    /// The publish epoch (monotone per cell; 0 = never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events the registry had absorbed when this snapshot was taken.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Captured streams and their summaries (unordered; withheld
    /// streams are absent).
    pub fn streams(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.summaries.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Borrow a captured stream's summary.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.summaries.get(name)
    }

    /// The summary an estimate reads for `name`: a typed
    /// [`DctError::StreamQuarantined`] for a withheld stream, an
    /// `InvalidParameter` for one the snapshot never saw.
    pub(crate) fn member(&self, name: &str) -> Result<&Summary> {
        if let Some((stream, cause)) = self.withheld.iter().find(|(n, _)| n == name) {
            return Err(DctError::StreamQuarantined {
                stream: stream.clone(),
                cause: cause.clone(),
            });
        }
        self.summaries
            .get(name)
            .ok_or_else(|| DctError::InvalidParameter(format!("snapshot has no stream '{name}'")))
    }

    /// The substitution entries among an answer's `participants`: empty
    /// when every participant was read live. Call once per answer: a
    /// non-empty result counts the answer in `query.degraded_answers` and
    /// sets the `staleness.*` gauges to its worst entry.
    pub fn attribution<'a>(
        &self,
        participants: impl IntoIterator<Item = &'a str>,
    ) -> Vec<StreamStaleness> {
        if self.substituted.is_empty() {
            return Vec::new();
        }
        let names: Vec<&str> = participants.into_iter().collect();
        let found: Vec<StreamStaleness> = self
            .substituted
            .iter()
            .filter(|s| names.contains(&s.stream.as_str()))
            .cloned()
            .collect();
        if let Some(worst_records) = found.iter().map(|s| s.records_behind).max() {
            let worst_gross = found
                .iter()
                .map(|s| s.gross_weight_behind)
                .fold(0.0, f64::max);
            dctstream_obs::counter_add!("query.degraded_answers", 1);
            dctstream_obs::gauge_set!("staleness.records_behind", worst_records as f64);
            dctstream_obs::gauge_set!("staleness.gross_weight_behind", worst_gross);
        }
        found
    }

    /// The dead fleet shards whose followers answered for them in this
    /// capture, with their staleness (empty outside a fleet).
    pub fn dead_shards(&self) -> &[ShardStaleness] {
        &self.dead_shards
    }

    /// The fleet generation ([`crate::ShardedRegistry::generation`]) read
    /// before this capture was taken; 0 outside a fleet. A snapshot whose
    /// generation trails the fleet's may miss a kill, promotion,
    /// shipping round or quarantine.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The captured cumulative update totals for one stream.
    pub fn stream_stats(&self, name: &str) -> StreamStats {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// The captured cumulative update totals across all streams.
    pub fn total_stats(&self) -> StreamStats {
        self.total
    }

    /// Estimate the equi-join of two cosine-summarized streams from the
    /// snapshot. Never locks, never mutates. Read
    /// [`Self::attribution`] for `[left, right]` to learn whether either
    /// side answered from a checkpoint substitute.
    pub fn estimate_cosine_join(
        &self,
        left: &str,
        right: &str,
        budget: Option<usize>,
    ) -> Result<f64> {
        let l = self.cosine(left)?;
        let r = self.cosine(right)?;
        let _span = dctstream_obs::span!("query.latency");
        dctstream_obs::counter_add!("query.estimates", 1);
        estimate_equi_join(l, r, budget)
    }

    fn cosine(&self, name: &str) -> Result<&dctstream_core::CosineSynopsis> {
        self.member(name)?.as_cosine().ok_or_else(|| {
            DctError::InvalidParameter(format!(
                "stream '{name}' is not summarized by a cosine synopsis"
            ))
        })
    }

    /// Merge per-shard snapshots into one fleet-wide snapshot at
    /// `epoch`, summing coefficient vectors via the synopses' exact
    /// linear merge — the coordinator's answer path for a sharded
    /// registry, exploiting the same `merge_from` linearity the
    /// parallel-ingest tree reduction is built on.
    ///
    /// With a single part the result is a field-for-field copy (modulo
    /// the stamped epoch), so a one-shard fleet answers bit-identically
    /// to the registry it wraps. Streams missing from some parts merge
    /// from the parts that have them. Sketch-summarized streams are a
    /// typed error: only cosine and multi-dimensional synopses carry an
    /// exact linear merge.
    ///
    /// Every part's substitution and withheld entries carry over, so a
    /// degraded stream on one shard is attributed in the merged answer;
    /// a stream withheld by any part is withheld by the merge, since the
    /// other parts alone would be a silently partial answer.
    pub fn merged(epoch: u64, parts: &[&RegistrySnapshot]) -> Result<RegistrySnapshot> {
        let Some((first, rest)) = parts.split_first() else {
            return Ok(RegistrySnapshot::empty());
        };
        let mut out = (*first).clone();
        out.epoch = epoch;
        for part in rest {
            out.events += part.events;
            out.total.records += part.total.records;
            out.total.gross_weight += part.total.gross_weight;
            for (name, summary) in &part.summaries {
                match out.summaries.get_mut(name) {
                    None => {
                        out.summaries.insert(name.clone(), summary.clone());
                    }
                    Some(dst) => match (dst, summary) {
                        (Summary::Cosine(d), Summary::Cosine(s)) => d.merge_from(s)?,
                        (Summary::Multi(d), Summary::Multi(s)) => d.merge_from(s)?,
                        _ => {
                            return Err(DctError::InvalidParameter(format!(
                                "fleet merge of stream '{name}': only cosine and \
                                 multi-dimensional synopses merge exactly; sketch kinds \
                                 must be queried on a single shard"
                            )))
                        }
                    },
                }
                let entry = out.stats.entry(name.clone()).or_default();
                if let Some(s) = part.stats.get(name) {
                    entry.records += s.records;
                    entry.gross_weight += s.gross_weight;
                }
            }
            out.substituted.extend(part.substituted.iter().cloned());
            out.withheld.extend(part.withheld.iter().cloned());
        }
        for (name, _) in &out.withheld {
            out.summaries.remove(name);
        }
        Ok(out)
    }

    /// How far this snapshot trails a registry whose cumulative update
    /// totals are `live` (see [`StreamProcessor::total_update_stats`]).
    /// Saturating: a snapshot from a different registry lineage reports
    /// zero rather than wrapping.
    pub fn staleness_given(&self, live: StreamStats) -> SnapshotStaleness {
        SnapshotStaleness {
            epoch: self.epoch,
            records_behind: live.records.saturating_sub(self.total.records),
            gross_weight_behind: (live.gross_weight - self.total.gross_weight).max(0.0),
        }
    }
}

/// A published-snapshot mailbox: writers swap in a fresh
/// `Arc<RegistrySnapshot>` at each publish; readers clone the `Arc` out.
///
/// The cell's lock is held only for the pointer copy — nanoseconds —
/// so readers never wait on ingest and ingest never waits on readers;
/// the epoch counter is advanced atomically *before* the capture so
/// concurrent publishers can never reuse an epoch.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<RegistrySnapshot>>,
    epoch: AtomicU64,
    /// Mirror of `current`'s epoch, maintained by [`SnapshotCell::store`],
    /// so epoch-keyed consumers (the serve estimate cache, metrics) can
    /// read the published epoch without touching the snapshot lock.
    published: AtomicU64,
}

impl Default for SnapshotCell {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot.
    pub fn new() -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(RegistrySnapshot::empty())),
            epoch: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// Claim the next publish epoch (strictly increasing, starting at 1).
    pub fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The epoch of the most recently *published* snapshot (0 = none).
    /// Lock-free: reads the mirror stamped by [`SnapshotCell::store`].
    pub fn published_epoch(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Swap in a freshly captured snapshot.
    pub fn store(&self, snap: Arc<RegistrySnapshot>) {
        let mut slot = match self.current.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Publishes may race (two writers flushing concurrently); the
        // newer epoch wins so readers never travel back in time. The
        // mirror is stamped while the write lock is held so it can never
        // disagree with the stored snapshot's epoch.
        if snap.epoch() >= slot.epoch() {
            self.published.store(snap.epoch(), Ordering::Release);
            *slot = snap;
        }
        dctstream_obs::counter_add!("snapshot.publishes", 1);
    }

    /// The current published snapshot. Wait-free in practice: the lock
    /// guards only an `Arc` clone.
    pub fn load(&self) -> Arc<RegistrySnapshot> {
        match self.current.read() {
            Ok(g) => Arc::clone(&g),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }
}

/// Live-progress counters for staleness accounting outside the registry
/// lock: the ingest path bumps them after each applied update, readers
/// fold them into [`RegistrySnapshot::staleness_given`] without touching
/// the registry. Gross weight is an `f64` maintained by CAS on its bit
/// pattern — lock-free, and exact for the additions performed.
#[derive(Debug, Default)]
pub struct Progress {
    records: AtomicU64,
    gross_bits: AtomicU64,
}

impl Progress {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` applied updates carrying `gross` total mass (`Σ|w|`).
    pub fn add(&self, n: u64, gross: f64) {
        self.records.fetch_add(n, Ordering::Relaxed);
        let mut cur = self.gross_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + gross.abs()).to_bits();
            match self.gross_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raise the totals to at least `floor` (never lowers them), e.g. to
    /// count updates a failed batch applied before it failed.
    pub fn raise_to(&self, floor: StreamStats) {
        let now = self.totals();
        self.add(
            floor.records.saturating_sub(now.records),
            (floor.gross_weight - now.gross_weight).max(0.0),
        );
    }

    /// The totals so far.
    pub fn totals(&self) -> StreamStats {
        StreamStats {
            records: self.records.load(Ordering::Relaxed),
            gross_weight: f64::from_bits(self.gross_bits.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctstream_core::{CosineSynopsis, Domain, Grid};

    fn cosine(n: usize, m: usize) -> Summary {
        Summary::Cosine(CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap())
    }

    #[test]
    fn capture_flushes_and_matches_the_core_estimate() {
        // Buffered registry with a threshold nothing auto-flushes.
        let mut p = StreamProcessor::with_flush_threshold(10_000);
        p.register("l", cosine(32, 16)).unwrap();
        p.register("r", cosine(32, 16)).unwrap();
        for v in 0..200i64 {
            p.process_weighted("l", &[v % 32], 1.0).unwrap();
            p.process_weighted("r", &[(v * 5) % 32], 1.0).unwrap();
        }
        let snap = RegistrySnapshot::capture(&mut p, 1).unwrap();
        let via_snapshot = snap.estimate_cosine_join("l", "r", None).unwrap();
        // The capture flushed `p`; the reference reads its summaries.
        let direct = estimate_equi_join(
            p.summary("l").unwrap().as_cosine().unwrap(),
            p.summary("r").unwrap().as_cosine().unwrap(),
            None,
        )
        .unwrap();
        assert_eq!(via_snapshot, direct);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.events(), 400);
    }

    #[test]
    fn snapshot_is_isolated_from_later_ingest() {
        let mut p = StreamProcessor::new();
        p.register("l", cosine(16, 8)).unwrap();
        p.register("r", cosine(16, 8)).unwrap();
        for v in 0..50i64 {
            p.process_weighted("l", &[v % 16], 1.0).unwrap();
            p.process_weighted("r", &[v % 4], 1.0).unwrap();
        }
        let snap = RegistrySnapshot::capture(&mut p, 7).unwrap();
        let before = snap.estimate_cosine_join("l", "r", None).unwrap();
        for v in 0..500i64 {
            p.process_weighted("l", &[v % 16], 3.0).unwrap();
        }
        // The snapshot answer is bit-identical to what it was: later
        // ingest cannot tear or shift it.
        assert_eq!(snap.estimate_cosine_join("l", "r", None).unwrap(), before);
        // And the staleness is reported, not hidden.
        let st = snap.staleness_given(p.total_update_stats());
        assert_eq!(st.records_behind, 500);
        assert!((st.gross_weight_behind - 1500.0).abs() < 1e-9);
        assert!(!st.is_fresh());
    }

    #[test]
    fn cell_epochs_are_monotone_and_racing_publishes_keep_the_newest() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.published_epoch(), 0);
        let e1 = cell.next_epoch();
        let e2 = cell.next_epoch();
        assert!(e2 > e1);
        let mut p = StreamProcessor::new();
        p.register("s", cosine(8, 4)).unwrap();
        // Publish the *newer* epoch first; the older one must not win.
        let newer = Arc::new(RegistrySnapshot::capture(&mut p, e2).unwrap());
        let older = Arc::new(RegistrySnapshot::capture(&mut p, e1).unwrap());
        cell.store(newer);
        cell.store(older);
        assert_eq!(cell.published_epoch(), e2);
    }

    #[test]
    fn progress_is_exact_under_concurrent_adders() {
        let progress = Arc::new(Progress::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = Arc::clone(&progress);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    p.add(1, 0.5);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let t = progress.totals();
        assert_eq!(t.records, 4000);
        assert!((t.gross_weight - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn turnstile_churn_staleness_is_reported_not_hidden() {
        // Regression for the buffered-read staleness contract: after a
        // snapshot is published, +w/−w turnstile churn leaves the net
        // weight (and therefore the summary and its tuple count) exactly
        // where it was — accounting that tracked only net movement would
        // report the snapshot as fresh. The gross-mass counters must
        // report every record and every |w| instead.
        let mut p = StreamProcessor::new();
        p.register("s", cosine(16, 8)).unwrap();
        p.register("t", cosine(16, 8)).unwrap();
        for v in 0..20i64 {
            p.process_weighted("s", &[v % 16], 1.0).unwrap();
            p.process_weighted("t", &[v % 16], 1.0).unwrap();
        }
        let shared = crate::processor::shared(p);
        let snap = shared.publish().unwrap();
        let est_at_publish = snap.estimate_cosine_join("s", "t", None).unwrap();

        // 50 insert/delete pairs of the same tuple at the same weight.
        for _ in 0..50 {
            let mut g = shared.write();
            g.process_weighted("s", &[3], 5.0).unwrap();
            g.process_weighted("s", &[3], -5.0).unwrap();
        }
        // Net effect on the summary: none. The snapshot still answers
        // identically, and so does the live registry.
        assert_eq!(
            snap.estimate_cosine_join("s", "t", None).unwrap(),
            est_at_publish
        );
        // But the staleness contract reports the churn in full: 100
        // records and 500 units of gross update mass behind.
        let st = shared.staleness_of(&snap);
        assert_eq!(st.epoch, snap.epoch());
        assert_eq!(st.records_behind, 100);
        assert!((st.gross_weight_behind - 500.0).abs() < 1e-9, "{st:?}");
        assert!(!st.is_fresh());

        // Republishing clears it.
        let snap2 = shared.publish().unwrap();
        let st2 = shared.staleness_of(&snap2);
        assert!(st2.is_fresh());
        assert_eq!(st2.gross_weight_behind, 0.0);
        assert!(snap2.epoch() > snap.epoch());
    }

    #[test]
    fn merge_keeps_every_parts_substitutions_and_withholdings() {
        let part = |epoch| {
            let mut p = StreamProcessor::new();
            for name in ["x", "y", "z"] {
                p.register(name, cosine(8, 4)).unwrap();
                p.process_weighted(name, &[1], 1.0).unwrap();
            }
            RegistrySnapshot::capture(&mut p, epoch).unwrap()
        };
        let staleness = |stream: &str| StreamStaleness {
            stream: stream.into(),
            state: crate::HealthState::Quarantined,
            checkpoint_watermark: 3,
            records_behind: 1,
            gross_weight_behind: 1.0,
        };
        let mut a = part(1);
        a.substitute(staleness("y"), cosine(8, 4));
        a.withhold("x".into(), "no checkpoint".into());
        let mut b = part(2);
        b.substitute(staleness("y"), cosine(8, 4));
        let m = RegistrySnapshot::merged(3, &[&a, &b]).unwrap();
        // 'x' survives on part b alone, which would be half an answer.
        let e = m.estimate_cosine_join("x", "z", None).unwrap_err();
        assert!(
            matches!(&e, DctError::StreamQuarantined { stream, .. } if stream == "x"),
            "{e}"
        );
        assert!(m.summary("x").is_none());
        assert_eq!(m.attribution(["y", "z"]).len(), 2);
        assert!(m.attribution(["z"]).is_empty());
        assert!(m.estimate_cosine_join("y", "z", None).is_ok());
    }

    #[test]
    fn unknown_and_wrong_kind_streams_are_typed_errors() {
        let mut p = StreamProcessor::new();
        p.register("c", cosine(8, 4)).unwrap();
        let schema = dctstream_sketch::SketchSchema::new(1, 2, 2, 1).unwrap();
        p.register(
            "a",
            Summary::Ams(dctstream_sketch::AmsSketch::new(schema, vec![0]).unwrap()),
        )
        .unwrap();
        let snap = RegistrySnapshot::capture(&mut p, 1).unwrap();
        assert!(snap.estimate_cosine_join("c", "missing", None).is_err());
        assert!(snap.estimate_cosine_join("c", "a", None).is_err());
    }
}
