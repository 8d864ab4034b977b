//! Stream registry and continuous-query execution (paper §1, §5.1).
//!
//! A [`StreamProcessor`] owns one summary per registered stream and routes
//! turnstile events to them, mirroring the experimental setup: "Tuples are
//! read one after another to simulate the arrival of items in the data
//! stream. Cosine coefficients and atomic sketches are updated whenever a
//! tuple arrives." Continuous queries (§1) are expressed as
//! [`ContinuousJoinQuery`] values that sample an estimate every `k` events
//! and keep the resulting time series.

use crate::batch::BatchBuffer;
use crate::event::StreamEvent;
use crate::snapshot::{RegistrySnapshot, SnapshotCell, SnapshotStaleness, StreamStats};
use dctstream_core::{CosineSynopsis, DctError, MultiDimSynopsis, Result, StreamSummary};
use dctstream_sketch::{AmsSketch, FastAmsSketch, SkimmedSketch};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Any of the workspace's summary structures, unified for registry storage.
#[derive(Debug, Clone)]
pub enum Summary {
    /// 1-d cosine synopsis.
    Cosine(CosineSynopsis),
    /// Multi-attribute cosine synopsis.
    Multi(MultiDimSynopsis),
    /// Basic AMS sketch.
    Ams(AmsSketch),
    /// Skimmed sketch.
    Skimmed(SkimmedSketch),
    /// Bucketed fast-AGMS sketch.
    FastAms(FastAmsSketch),
}

impl Summary {
    /// Borrow as a cosine synopsis, if that is what this is.
    pub fn as_cosine(&self) -> Option<&CosineSynopsis> {
        match self {
            Summary::Cosine(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a multi-dimensional synopsis.
    pub fn as_multi(&self) -> Option<&MultiDimSynopsis> {
        match self {
            Summary::Multi(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as an AMS sketch.
    pub fn as_ams(&self) -> Option<&AmsSketch> {
        match self {
            Summary::Ams(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a skimmed sketch.
    pub fn as_skimmed(&self) -> Option<&SkimmedSketch> {
        match self {
            Summary::Skimmed(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a fast-AGMS sketch.
    pub fn as_fast_ams(&self) -> Option<&FastAmsSketch> {
        match self {
            Summary::FastAms(s) => Some(s),
            _ => None,
        }
    }

    /// Check that `tuple` fits this summary without applying it: arity
    /// for every variant, and every value inside its domain for the
    /// cosine kinds (sketches hash any value). The error is the one
    /// [`StreamSummary::update_weighted`] would return for a finite
    /// weight, so callers can validate a whole batch before applying
    /// any of it.
    pub fn check_tuple(&self, tuple: &[i64]) -> Result<()> {
        let expected = self.arity();
        if tuple.len() != expected {
            return Err(DctError::ArityMismatch {
                expected,
                got: tuple.len(),
            });
        }
        let cosine;
        let domains = match self {
            Summary::Cosine(s) => {
                cosine = [s.domain()];
                &cosine[..]
            }
            Summary::Multi(s) => s.domains(),
            _ => &[],
        };
        match tuple.iter().zip(domains).find(|(v, d)| !d.contains(**v)) {
            Some((&value, d)) => Err(DctError::ValueOutOfDomain {
                value,
                domain: (d.lo(), d.hi()),
            }),
            None => Ok(()),
        }
    }

    /// Audit the summary against its variant's structural invariants
    /// (finiteness, scale bounds, layout sanity — see each variant's
    /// `check_invariants`). Returns [`DctError::IntegrityViolation`]
    /// naming the first failing field; the stream-health scrubber attaches
    /// the owning stream name.
    pub fn check_invariants(&self) -> Result<()> {
        match self {
            Summary::Cosine(s) => s.check_invariants(),
            Summary::Multi(s) => s.check_invariants(),
            Summary::Ams(s) => s.check_invariants(),
            Summary::Skimmed(s) => s.check_invariants(),
            Summary::FastAms(s) => s.check_invariants(),
        }
    }
}

impl StreamSummary for Summary {
    fn arity(&self) -> usize {
        match self {
            Summary::Cosine(s) => s.arity(),
            Summary::Multi(s) => StreamSummary::arity(s),
            Summary::Ams(s) => s.arity(),
            Summary::Skimmed(s) => StreamSummary::arity(s),
            Summary::FastAms(s) => StreamSummary::arity(s),
        }
    }

    fn update_weighted(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        match self {
            Summary::Cosine(s) => s.update_weighted(tuple, w),
            Summary::Multi(s) => s.update_weighted(tuple, w),
            Summary::Ams(s) => s.update_weighted(tuple, w),
            Summary::Skimmed(s) => s.update_weighted(tuple, w),
            Summary::FastAms(s) => s.update_weighted(tuple, w),
        }
    }

    fn update_weighted_batch(&mut self, batch: &[(&[i64], f64)]) -> Result<()> {
        match self {
            Summary::Cosine(s) => s.update_weighted_batch(batch),
            Summary::Multi(s) => s.update_weighted_batch(batch),
            Summary::Ams(s) => s.update_weighted_batch(batch),
            Summary::Skimmed(s) => s.update_weighted_batch(batch),
            Summary::FastAms(s) => s.update_weighted_batch(batch),
        }
    }

    fn tuple_count(&self) -> f64 {
        match self {
            Summary::Cosine(s) => s.tuple_count(),
            Summary::Multi(s) => s.tuple_count(),
            Summary::Ams(s) => s.tuple_count(),
            Summary::Skimmed(s) => s.tuple_count(),
            Summary::FastAms(s) => s.tuple_count(),
        }
    }

    fn space(&self) -> usize {
        match self {
            Summary::Cosine(s) => StreamSummary::space(s),
            Summary::Multi(s) => StreamSummary::space(s),
            Summary::Ams(s) => StreamSummary::space(s),
            Summary::Skimmed(s) => StreamSummary::space(s),
            Summary::FastAms(s) => StreamSummary::space(s),
        }
    }
}

/// Registry of named streams and their summaries; the single-threaded
/// event-dispatch engine. Wrap in [`SharedProcessor`] for concurrent use.
///
/// In *buffered* mode ([`Self::with_flush_threshold`]) events collect in a
/// per-stream [`BatchBuffer`] and are applied through the summary's
/// blocked batch kernel whenever a stream's buffer reaches the threshold —
/// the §3.2 batch-update scheme. Estimates read a [`RegistrySnapshot`],
/// whose capture drains every buffer first, so they always see every
/// processed event; [`Self::summary`] and [`Self::streams`] alone read
/// only flushed state.
#[derive(Debug, Default)]
pub struct StreamProcessor {
    streams: HashMap<String, Summary>,
    buffers: HashMap<String, BatchBuffer>,
    flush_threshold: Option<usize>,
    events: u64,
    /// Per-stream cumulative `(records, Σ|w|)` update totals, counted at
    /// intake (buffered or not). Snapshots capture these at publish;
    /// comparing against the live totals quantifies snapshot staleness.
    stats: HashMap<String, StreamStats>,
    total_stats: StreamStats,
}

impl StreamProcessor {
    /// Empty processor applying every event immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty processor in buffered mode: each stream coalesces events in a
    /// [`BatchBuffer`] that auto-flushes after `threshold` raw events.
    pub fn with_flush_threshold(threshold: usize) -> Self {
        StreamProcessor {
            flush_threshold: Some(threshold.max(1)),
            ..Self::default()
        }
    }

    /// Flush every stream's pending buffered events into its summary.
    /// No-op outside buffered mode.
    pub fn flush_all(&mut self) -> Result<()> {
        for (name, summary) in &mut self.streams {
            if let Some(buf) = self.buffers.get_mut(name) {
                buf.flush_into(summary)?;
            }
        }
        Ok(())
    }

    /// Flush one stream's pending buffered events into its summary.
    /// No-op outside buffered mode or for unknown streams (lookup errors
    /// are left to the caller, which has the context to name the stream).
    pub fn flush_stream(&mut self, name: &str) -> Result<()> {
        if let (Some(buf), Some(summary)) = (self.buffers.get_mut(name), self.streams.get_mut(name))
        {
            buf.flush_into(summary)?;
        }
        Ok(())
    }

    /// The buffered-mode flush threshold, if any.
    pub fn flush_threshold(&self) -> Option<usize> {
        self.flush_threshold
    }

    /// Switch modes: flush every pending buffer, then buffer each stream
    /// with `threshold` (`None` applies events immediately). A checkpoint
    /// records the mode in force when it is taken.
    pub fn set_flush_threshold(&mut self, threshold: Option<usize>) -> Result<()> {
        self.flush_all()?;
        let threshold = threshold.map(|t| t.max(1));
        self.buffers = match threshold {
            Some(t) => self
                .streams
                .keys()
                .map(|n| (n.clone(), BatchBuffer::with_flush_threshold(t)))
                .collect(),
            None => HashMap::new(),
        };
        self.flush_threshold = threshold;
        Ok(())
    }

    /// Register a stream. Errors on duplicate names.
    pub fn register(&mut self, name: impl Into<String>, summary: Summary) -> Result<()> {
        let name = name.into();
        if self.streams.contains_key(&name) {
            return Err(DctError::InvalidParameter(format!(
                "stream '{name}' is already registered"
            )));
        }
        if let Some(t) = self.flush_threshold {
            self.buffers
                .insert(name.clone(), BatchBuffer::with_flush_threshold(t));
        }
        self.streams.insert(name, summary);
        Ok(())
    }

    /// Remove a stream, returning its summary. Pending buffered events
    /// for the stream are discarded with it. Recovery uses this to drop
    /// quarantined streams whose WAL replay failed.
    pub fn unregister(&mut self, name: &str) -> Option<Summary> {
        self.buffers.remove(name);
        self.stats.remove(name);
        self.streams.remove(name)
    }

    /// Cumulative `(records, Σ|w|)` update totals routed to one stream
    /// over this processor's lifetime (zero for unknown streams).
    pub fn update_stats(&self, name: &str) -> StreamStats {
        self.stats.get(name).copied().unwrap_or_default()
    }

    /// Cumulative `(records, Σ|w|)` update totals across all streams —
    /// the live side of [`RegistrySnapshot::staleness_given`].
    pub fn total_update_stats(&self) -> StreamStats {
        self.total_stats
    }

    /// Registered streams and their flushed summaries (unordered).
    pub fn streams(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.streams.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Borrow a stream's summary.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.streams.get(name)
    }

    /// Total events processed.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Overwrite the global event counter. Only the repair path uses
    /// this: rebuilding a stream from checkpoint + WAL discards updates
    /// that were applied in memory but never durably logged, and the
    /// counter must shrink with them to stay checkpoint-deterministic.
    pub(crate) fn set_events_processed(&mut self, events: u64) {
        self.events = events;
    }

    /// Reassemble a processor from checkpointed state (the checkpoint
    /// module has already validated every summary payload). Buffers start
    /// empty: a checkpoint is only taken after flushing.
    pub(crate) fn from_restored(
        streams: HashMap<String, Summary>,
        flush_threshold: Option<usize>,
        events: u64,
    ) -> Self {
        let buffers = match flush_threshold {
            Some(t) => streams
                .keys()
                .map(|n| (n.clone(), BatchBuffer::with_flush_threshold(t)))
                .collect(),
            None => HashMap::new(),
        };
        Self {
            streams,
            buffers,
            flush_threshold,
            events,
            // Update totals restart at zero: staleness is a live
            // comparison between a snapshot and the registry that
            // published it, not a durable quantity.
            stats: HashMap::new(),
            total_stats: StreamStats::default(),
        }
    }

    /// Route one event to the named stream's summary.
    pub fn process(&mut self, stream: &str, ev: &StreamEvent) -> Result<()> {
        self.process_weighted(stream, ev.tuple().values(), ev.weight())
    }

    /// Route a weighted update to the named stream's summary (or, in
    /// buffered mode, to its batch buffer — flushing it when full).
    pub fn process_weighted(&mut self, stream: &str, tuple: &[i64], w: f64) -> Result<()> {
        let s = self
            .streams
            .get_mut(stream)
            .ok_or_else(|| DctError::InvalidParameter(format!("unknown stream '{stream}'")))?;
        match self.buffers.get_mut(stream) {
            Some(buf) => {
                buf.push_weighted(tuple, w);
                if buf.should_flush() {
                    let _span = dctstream_obs::span!("ingest.flush");
                    dctstream_obs::counter_add!("ingest.batch_flushes", 1);
                    buf.flush_into(s)?;
                }
            }
            None => s.update_weighted(tuple, w)?,
        }
        self.events += 1;
        let entry = self.stats.entry(stream.to_string()).or_default();
        entry.records += 1;
        entry.gross_weight += w.abs();
        self.total_stats.records += 1;
        self.total_stats.gross_weight += w.abs();
        dctstream_obs::counter_add!("ingest.events", 1);
        Ok(())
    }
}

/// Thread-safe shared processor handle.
///
/// Unlike a bare `Arc<RwLock<_>>`, locking never panics: if another
/// thread panicked while holding the lock, [`Self::read`] and
/// [`Self::write`] recover the guard from the poisoned lock
/// (`PoisonError::into_inner`) instead of propagating the panic across
/// threads. The processor's own methods never panic mid-update, so the
/// recovered state is internally consistent; the poisoning is still
/// recorded and observable via [`Self::was_poisoned`], and callers that
/// must not trust post-panic state can use [`Self::checked_read`] /
/// [`Self::checked_write`], which return a typed error instead.
///
/// # Concurrent estimation
///
/// Estimates read a [`RegistrySnapshot`], never the locked registry: a
/// writer (or a maintenance tick) calls [`Self::publish`] after a batch
/// of ingest, which flushes and captures under the write lock once;
/// readers call [`Self::snapshot`] — which never touches the registry
/// lock — and estimate against the returned snapshot, checking
/// [`RegistrySnapshot::staleness_given`] / [`Self::staleness_of`] when
/// freshness matters.
#[derive(Debug, Clone)]
pub struct SharedProcessor {
    inner: Arc<RwLock<StreamProcessor>>,
    poisoned: Arc<std::sync::atomic::AtomicBool>,
    cell: Arc<SnapshotCell>,
}

impl SharedProcessor {
    /// Wrap a processor for concurrent use.
    pub fn new(processor: StreamProcessor) -> Self {
        SharedProcessor {
            inner: Arc::new(RwLock::new(processor)),
            poisoned: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            cell: Arc::new(SnapshotCell::new()),
        }
    }

    /// Publish a fresh snapshot of the registry: flush every stream's
    /// pending buffered events under the write lock, deep-copy the
    /// flushed summaries, and swap them into the snapshot cell under a
    /// new epoch. Readers holding older snapshots are unaffected; new
    /// [`Self::snapshot`] calls see this one.
    pub fn publish(&self) -> Result<Arc<RegistrySnapshot>> {
        let epoch = self.cell.next_epoch();
        let snap = {
            let mut guard = self.write();
            Arc::new(RegistrySnapshot::capture(&mut guard, epoch)?)
        };
        self.cell.store(Arc::clone(&snap));
        Ok(snap)
    }

    /// The most recently published snapshot (the empty epoch-0 snapshot
    /// before the first [`Self::publish`]). Never takes the registry
    /// lock: readers stay off the ingest path entirely.
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        self.cell.load()
    }

    /// How far `snap` trails the live registry right now. Takes the
    /// registry *read* lock briefly to read the live update totals —
    /// still never the write lock.
    pub fn staleness_of(&self, snap: &RegistrySnapshot) -> SnapshotStaleness {
        let live = self.read().total_update_stats();
        snap.staleness_given(live)
    }

    fn note_poison(&self) {
        self.poisoned
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Lock for shared reading, recovering (and recording) a poisoned
    /// lock instead of panicking.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, StreamProcessor> {
        match self.inner.read() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Lock for exclusive writing, recovering (and recording) a poisoned
    /// lock instead of panicking.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, StreamProcessor> {
        match self.inner.write() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Whether any locking call has ever observed the lock poisoned by a
    /// panicking thread.
    pub fn was_poisoned(&self) -> bool {
        self.poisoned.load(std::sync::atomic::Ordering::SeqCst) || self.inner.is_poisoned()
    }

    /// [`Self::read`] for callers that must not trust post-panic state:
    /// returns a typed error once the lock has been poisoned.
    pub fn checked_read(&self) -> Result<std::sync::RwLockReadGuard<'_, StreamProcessor>> {
        if self.was_poisoned() {
            return Err(poison_error());
        }
        Ok(self.read())
    }

    /// [`Self::write`] with the same typed-error contract as
    /// [`Self::checked_read`].
    pub fn checked_write(&self) -> Result<std::sync::RwLockWriteGuard<'_, StreamProcessor>> {
        if self.was_poisoned() {
            return Err(poison_error());
        }
        Ok(self.write())
    }
}

fn poison_error() -> DctError {
    DctError::InvalidParameter(
        "shared processor lock was poisoned by a panicking thread; \
         use read()/write() to recover the state anyway"
            .into(),
    )
}

/// Create a [`SharedProcessor`].
pub fn shared(processor: StreamProcessor) -> SharedProcessor {
    SharedProcessor::new(processor)
}

/// A continuous equi-join COUNT query over two cosine-summarized streams:
/// issued once, then sampled every `sample_every` processed events
/// (paper §1: continuous queries "are issued once and then run
/// continuously").
#[derive(Debug)]
pub struct ContinuousJoinQuery {
    left: String,
    right: String,
    budget: Option<usize>,
    sample_every: u64,
    next_sample: u64,
    history: Vec<(u64, f64)>,
}

impl ContinuousJoinQuery {
    /// Create a query sampling every `sample_every` events (≥ 1).
    pub fn new(
        left: impl Into<String>,
        right: impl Into<String>,
        budget: Option<usize>,
        sample_every: u64,
    ) -> Self {
        let sample_every = sample_every.max(1);
        Self {
            left: left.into(),
            right: right.into(),
            budget,
            sample_every,
            next_sample: sample_every,
            history: Vec::new(),
        }
    }

    /// Call after events have been processed; samples the estimate if the
    /// processor crossed the next sampling point. Returns the new sample,
    /// if any. Takes the processor mutably because each sample is a
    /// [`RegistrySnapshot::capture`] (stamped with the event count as its
    /// epoch), which drains buffered events into the summaries first.
    pub fn observe(&mut self, processor: &mut StreamProcessor) -> Result<Option<f64>> {
        let events = processor.events_processed();
        if events < self.next_sample {
            return Ok(None);
        }
        let est = RegistrySnapshot::capture(processor, events)?.estimate_cosine_join(
            &self.left,
            &self.right,
            self.budget,
        )?;
        self.history.push((events, est));
        self.next_sample = events + self.sample_every;
        Ok(Some(est))
    }

    /// The sampled `(events_processed, estimate)` series so far.
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tuple;
    use dctstream_core::{Domain, Grid};

    fn cosine(n: usize, m: usize) -> Summary {
        Summary::Cosine(CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap())
    }

    /// `check_tuple` rejects exactly what an update would, with the
    /// same error, and never touches the summary.
    #[test]
    fn check_tuple_matches_the_update_error() {
        let multi = MultiDimSynopsis::new(
            vec![Domain::new(0, 9), Domain::new(-5, 5)],
            Grid::Midpoint,
            4,
        )
        .unwrap();
        let schema = dctstream_sketch::SketchSchema::new(7, 2, 4, 1).unwrap();
        let sketch = AmsSketch::new(schema, vec![0]).unwrap();
        let summaries = [cosine(10, 8), Summary::Multi(multi), Summary::Ams(sketch)];
        let tuples: [&[i64]; 6] = [&[3], &[10], &[-1], &[1, 2], &[9, -5], &[9, 6]];
        for summary in &summaries {
            for tuple in tuples {
                let checked = summary.check_tuple(tuple).map_err(|e| e.to_string());
                let updated = summary
                    .clone()
                    .update_weighted(tuple, 1.0)
                    .map_err(|e| e.to_string());
                assert_eq!(checked, updated, "{tuple:?}");
            }
        }
    }

    #[test]
    fn register_and_route() {
        let mut p = StreamProcessor::new();
        p.register("r1", cosine(100, 16)).unwrap();
        p.register("r2", cosine(100, 16)).unwrap();
        assert!(p.register("r1", cosine(100, 16)).is_err());
        for v in 0..50 {
            p.process("r1", &StreamEvent::Insert(Tuple::unary(v)))
                .unwrap();
            p.process("r2", &StreamEvent::Insert(Tuple::unary(v % 10)))
                .unwrap();
        }
        assert_eq!(p.events_processed(), 100);
        assert!(p
            .process("nope", &StreamEvent::Insert(Tuple::unary(0)))
            .is_err());
        let est = RegistrySnapshot::capture(&mut p, 1)
            .unwrap()
            .estimate_cosine_join("r1", "r2", None)
            .unwrap();
        // Exact join: values 0..9 each appear once in r1 and 5 times in r2.
        assert!((est - 50.0).abs() < 1.0, "est {est}");
    }

    #[test]
    fn estimate_requires_cosine_streams() {
        let mut p = StreamProcessor::new();
        p.register("c", cosine(10, 4)).unwrap();
        let schema = dctstream_sketch::SketchSchema::new(1, 2, 2, 1).unwrap();
        p.register("a", Summary::Ams(AmsSketch::new(schema, vec![0]).unwrap()))
            .unwrap();
        let snap = RegistrySnapshot::capture(&mut p, 1).unwrap();
        assert!(snap.estimate_cosine_join("c", "a", None).is_err());
        assert!(snap.estimate_cosine_join("c", "missing", None).is_err());
    }

    #[test]
    fn summary_enum_delegates() {
        let mut s = cosine(10, 4);
        s.update_weighted(&[3], 2.0).unwrap();
        assert_eq!(s.tuple_count(), 2.0);
        assert_eq!(StreamSummary::space(&s), 4);
        assert_eq!(StreamSummary::arity(&s), 1);
        assert!(s.as_cosine().is_some());
        assert!(s.as_ams().is_none());
        assert!(s.as_multi().is_none());
        assert!(s.as_skimmed().is_none());
        assert!(s.as_fast_ams().is_none());
    }

    #[test]
    fn continuous_query_samples_on_schedule() {
        let mut p = StreamProcessor::new();
        p.register("l", cosine(20, 8)).unwrap();
        p.register("r", cosine(20, 8)).unwrap();
        let mut q = ContinuousJoinQuery::new("l", "r", None, 10);
        for v in 0..30i64 {
            p.process("l", &StreamEvent::Insert(Tuple::unary(v % 20)))
                .unwrap();
            p.process("r", &StreamEvent::Insert(Tuple::unary(v % 5)))
                .unwrap();
            q.observe(&mut p).unwrap();
        }
        // 60 events, sampling every 10 → 6 samples.
        assert_eq!(q.history().len(), 6);
        // Events-processed markers are increasing.
        let marks: Vec<u64> = q.history().iter().map(|(e, _)| *e).collect();
        assert!(marks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn shared_processor_is_thread_safe() {
        let mut p = StreamProcessor::new();
        p.register("l", cosine(64, 16)).unwrap();
        p.register("r", cosine(64, 16)).unwrap();
        let shared = shared(p);
        let mut handles = Vec::new();
        for t in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let name = if t % 2 == 0 { "l" } else { "r" };
                for v in 0..250i64 {
                    h.write()
                        .process_weighted(name, &[(v + t) % 64], 1.0)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!shared.was_poisoned());
        assert_eq!(shared.read().events_processed(), 1000);
        let snap = shared.publish().unwrap();
        assert!(snap.estimate_cosine_join("l", "r", None).unwrap() > 0.0);
    }

    #[test]
    fn readers_progress_while_a_writer_holds_the_ingest_lock() {
        // Regression for the reader/ingest lock convoy: PR 2 routed
        // every estimate through buffer flushes, which need the write
        // lock, so concurrent readers serialized behind ingest. The
        // snapshot path never touches the registry lock — proved here
        // by a writer that *holds the write guard for the entire test*
        // while four reader threads each complete a batch of estimates
        // against the published snapshot. Under the flush-on-read
        // design the readers would block until the writer released
        // (i.e. this test would hang).
        use std::sync::atomic::{AtomicUsize, Ordering};

        let mut p = StreamProcessor::new();
        p.register("l", cosine(64, 16)).unwrap();
        p.register("r", cosine(64, 16)).unwrap();
        for v in 0..200i64 {
            p.process_weighted("l", &[v % 64], 1.0).unwrap();
            p.process_weighted("r", &[v % 8], 1.0).unwrap();
        }
        let shared = shared(p);
        let expected = shared
            .publish()
            .unwrap()
            .estimate_cosine_join("l", "r", None)
            .unwrap();

        let done = Arc::new(AtomicUsize::new(0));
        const READERS: usize = 4;
        const ESTIMATES_EACH: usize = 50;

        // Writer: grab the write guard and ingest under it until every
        // reader reports done.
        let writer = {
            let h = shared.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut guard = h.write();
                let mut v = 0i64;
                let mut ingested = 0u64;
                while done.load(Ordering::SeqCst) < READERS {
                    guard.process_weighted("l", &[v % 64], 1.0).unwrap();
                    v += 1;
                    ingested += 1;
                }
                ingested
            })
        };

        let mut readers = Vec::new();
        for _ in 0..READERS {
            let h = shared.clone();
            let done = Arc::clone(&done);
            readers.push(std::thread::spawn(move || {
                let mut completed = 0usize;
                for _ in 0..ESTIMATES_EACH {
                    let snap = h.snapshot();
                    let est = snap.estimate_cosine_join("l", "r", None).unwrap();
                    // The published snapshot is immutable: every reader
                    // sees the bit-identical answer no matter how much
                    // the writer has ingested meanwhile.
                    assert_eq!(est, expected);
                    completed += 1;
                }
                done.fetch_add(1, Ordering::SeqCst);
                completed
            }));
        }
        for r in readers {
            assert_eq!(r.join().unwrap(), ESTIMATES_EACH);
        }
        let ingested = writer.join().unwrap();
        assert!(ingested > 0, "the writer must have been ingesting");
        assert!(!shared.was_poisoned());
    }

    #[test]
    fn shared_processor_recovers_from_poison() {
        let mut p = StreamProcessor::new();
        p.register("s", cosine(16, 4)).unwrap();
        let shared = shared(p);
        let h = shared.clone();
        // Poison the lock: panic while holding the write guard.
        let t = std::thread::spawn(move || {
            let _guard = h.write();
            panic!("deliberate test panic while holding the lock");
        });
        assert!(t.join().is_err());
        // Strict accessors now surface a typed error...
        assert!(shared.inner.is_poisoned());
        let e = shared.checked_write().unwrap_err();
        assert!(e.to_string().contains("poisoned"), "{e}");
        assert!(shared.checked_read().is_err());
        // ...while the recovering accessors keep working without panicking.
        shared.write().process_weighted("s", &[3], 1.0).unwrap();
        assert_eq!(shared.read().events_processed(), 1);
        assert!(shared.was_poisoned());
    }

    #[test]
    fn buffered_estimates_match_unbuffered() {
        // Regression: estimates used to read summaries without draining
        // pending batch buffers, silently ignoring up to threshold − 1
        // recent events. After identical event sequences — with the
        // buffered threshold deliberately larger than the event count, so
        // nothing auto-flushes — both processors must agree.
        let mut plain = StreamProcessor::new();
        let mut buffered = StreamProcessor::with_flush_threshold(10_000);
        for p in [&mut plain, &mut buffered] {
            p.register("l", cosine(32, 16)).unwrap();
            p.register("r", cosine(32, 16)).unwrap();
        }
        for v in 0..123i64 {
            for p in [&mut plain, &mut buffered] {
                p.process_weighted("l", &[v % 32], 1.0).unwrap();
                p.process_weighted("r", &[(v * 3) % 32], 1.0).unwrap();
            }
        }
        // The reference reads the unbuffered summaries directly.
        let direct = dctstream_core::estimate_equi_join(
            plain.summary("l").unwrap().as_cosine().unwrap(),
            plain.summary("r").unwrap().as_cosine().unwrap(),
            None,
        )
        .unwrap();
        let via_buffer = RegistrySnapshot::capture(&mut buffered, 1)
            .unwrap()
            .estimate_cosine_join("l", "r", None)
            .unwrap();
        assert_eq!(direct, via_buffer);

        // The continuous-query path flushes too.
        let mut q = ContinuousJoinQuery::new("l", "r", None, 1);
        let sample = q.observe(&mut buffered).unwrap().unwrap();
        assert_eq!(sample, direct);
    }

    #[test]
    fn switching_modes_flushes_and_rebuffers_every_stream() {
        let mut p = StreamProcessor::new();
        p.register("s", cosine(16, 4)).unwrap();
        p.set_flush_threshold(Some(usize::MAX)).unwrap();
        assert_eq!(p.flush_threshold(), Some(usize::MAX));
        for v in [3, 3, 5] {
            p.process_weighted("s", &[v], 1.0).unwrap();
        }
        // Buffered: the summary has not seen the events yet.
        assert_eq!(p.summary("s").unwrap().as_cosine().unwrap().count(), 0.0);
        p.set_flush_threshold(None).unwrap();
        assert_eq!(p.flush_threshold(), None);
        assert_eq!(p.summary("s").unwrap().as_cosine().unwrap().count(), 3.0);
        // Unbuffered again: events apply immediately.
        p.process_weighted("s", &[7], 1.0).unwrap();
        assert_eq!(p.summary("s").unwrap().as_cosine().unwrap().count(), 4.0);
    }
}
