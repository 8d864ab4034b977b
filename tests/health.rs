//! Acceptance tests for the stream-health supervisor (ISSUE 4):
//!
//! - **Scrub detects every single-byte flip** of the checkpoint manifest
//!   and of every sealed WAL segment, demoting only the stream the
//!   damage is attributable to, while healthy (and suspect) streams keep
//!   answering queries. Restoring the bytes and re-scrubbing promotes
//!   the demoted streams back to healthy with no residue.
//! - **Degraded-mode answering**: a quarantined stream is captured from
//!   its last checkpointed summary with explicit staleness, and — when
//!   the stream has no post-checkpoint updates — the degraded value
//!   equals the exact estimate once the stream is repaired. A degraded
//!   participant is never silent: an answer over it either carries its
//!   attribution or is a typed `StreamQuarantined`.

use dctstream_core::{CosineSynopsis, DctError, Domain, Grid};
use dctstream_stream::checkpoint::CHECKPOINT_FILE;
use dctstream_stream::{
    ChainJoinQuery, DurableProcessor, FailingStorage, HealthCause, HealthState, MemStorage,
    RecoveryOptions, RetryPolicy, Summary, SyncPolicy, WalOptions, WalStorage,
};

fn cosine() -> Summary {
    Summary::Cosine(CosineSynopsis::new(Domain::of_size(32), Grid::Midpoint, 8).unwrap())
}

fn opts() -> RecoveryOptions {
    RecoveryOptions {
        wal: WalOptions {
            sync: SyncPolicy::Always,
            segment_max_bytes: 160, // tiny: post-checkpoint updates span segments
            retry: RetryPolicy::none(),
        },
        flush_threshold: None,
    }
}

/// `orders ⋈ parts` on a fresh capture of `dp`.
fn orders_join_parts<S: WalStorage>(dp: &mut DurableProcessor<S>) -> dctstream_core::Result<f64> {
    dp.capture_snapshot(1)?
        .estimate_cosine_join("orders", "parts", None)
}

/// Two streams, a checkpoint, then enough post-checkpoint traffic to
/// seal several WAL segments. Returns the processor and its storage.
fn build() -> (DurableProcessor<MemStorage>, MemStorage) {
    let storage = MemStorage::new();
    let (mut dp, _) = DurableProcessor::open_with(storage.clone(), opts()).unwrap();
    dp.register("orders", cosine()).unwrap();
    dp.register("parts", cosine()).unwrap();
    for v in 0..24i64 {
        let stream = if v % 2 == 0 { "orders" } else { "parts" };
        dp.process_weighted(stream, &[v % 32], 1.0).unwrap();
    }
    dp.checkpoint().unwrap();
    for v in 0..12i64 {
        let stream = if v % 3 == 0 { "parts" } else { "orders" };
        dp.process_weighted(stream, &[(v * 5) % 32], 1.0).unwrap();
    }
    dp.sync().unwrap();
    (dp, storage)
}

/// Every demotion a scrub reports must be to `Suspect` (artifact damage
/// never quarantines an intact live summary) and must be named by one of
/// the pass's attributable violations.
fn assert_demotions_attributed(report: &dctstream_stream::ScrubReport, context: &str) {
    for (name, state) in &report.demoted {
        assert_eq!(*state, HealthState::Suspect, "{context}: stream '{name}'");
        let attributed = report.violations.iter().any(|v| {
            matches!(
                v,
                DctError::IntegrityViolation { stream: Some(s), .. } if s == name
            ) || matches!(v, DctError::Wal { stream: Some(s), .. } if s == name)
        });
        assert!(
            attributed,
            "{context}: stream '{name}' demoted without an attributable violation"
        );
    }
}

#[test]
fn scrub_detects_every_checkpoint_byte_flip() {
    let (mut dp, storage) = build();
    let clean = storage.snapshot();
    let manifest = clean
        .get(CHECKPOINT_FILE)
        .expect("checkpoint exists")
        .clone();
    assert!(manifest.len() > 100, "manifest suspiciously small");

    for pos in 0..manifest.len() {
        let mut files = clean.clone();
        files.get_mut(CHECKPOINT_FILE).unwrap()[pos] ^= 0x01;
        storage.restore(files);

        let report = dp.scrub().unwrap();
        assert!(
            !report.violations.is_empty(),
            "flip at manifest byte {pos} went undetected"
        );
        assert_demotions_attributed(&report, &format!("manifest byte {pos}"));
        // The live summaries are untouched: nobody is quarantined, and
        // the query path keeps answering (suspect streams still serve).
        assert!(dp.quarantined().is_empty(), "manifest byte {pos}");
        orders_join_parts(&mut dp)
            .unwrap_or_else(|e| panic!("manifest byte {pos}: query refused: {e}"));

        // Undo the damage: a clean scrub promotes the suspects home.
        storage.restore(clean.clone());
        let after = dp.scrub().unwrap();
        assert!(
            after.violations.is_empty(),
            "manifest byte {pos}: residue after restore: {:?}",
            after.violations
        );
        assert!(
            dp.health().all_healthy(),
            "manifest byte {pos}: health residue after clean scrub"
        );
    }
}

#[test]
fn scrub_detects_every_sealed_wal_segment_byte_flip() {
    let (mut dp, storage) = build();
    let clean = storage.snapshot();
    let mut segments: Vec<String> = clean
        .keys()
        .filter(|n| n.ends_with(".dwal"))
        .cloned()
        .collect();
    segments.sort();
    assert!(
        segments.len() >= 2,
        "workload must seal at least one segment, got {segments:?}"
    );
    // A torn tail on the *newest* segment is legitimate mid-write state,
    // so only sealed (non-last) segments promise detection of every flip.
    let sealed = &segments[..segments.len() - 1];

    let mut sweeps = 0usize;
    for name in sealed {
        for pos in 0..clean[name].len() {
            sweeps += 1;
            let mut files = clean.clone();
            files.get_mut(name).unwrap()[pos] ^= 0x01;
            storage.restore(files);

            let report = dp.scrub().unwrap();
            assert!(
                !report.violations.is_empty(),
                "flip at byte {pos} of {name} went undetected"
            );
            assert_demotions_attributed(&report, &format!("{name} byte {pos}"));
            assert!(dp.quarantined().is_empty(), "{name} byte {pos}");
            orders_join_parts(&mut dp)
                .unwrap_or_else(|e| panic!("{name} byte {pos}: query refused: {e}"));

            storage.restore(clean.clone());
            let after = dp.scrub().unwrap();
            assert!(
                after.violations.is_empty(),
                "{name} byte {pos}: residue after restore"
            );
            assert!(
                dp.health().all_healthy(),
                "{name} byte {pos}: health residue"
            );
        }
    }
    assert!(sweeps > 0);

    // The newest segment makes no detection promise (a flip can mimic a
    // torn tail), but scrubbing it must never panic, never quarantine,
    // and never stop healthy streams from answering.
    let last = segments.last().unwrap();
    for pos in 0..clean[last].len() {
        let mut files = clean.clone();
        files.get_mut(last).unwrap()[pos] ^= 0x01;
        storage.restore(files);
        let _ = dp.scrub().unwrap();
        assert!(dp.quarantined().is_empty(), "{last} byte {pos}");
        orders_join_parts(&mut dp)
            .unwrap_or_else(|e| panic!("{last} byte {pos}: query refused: {e}"));
        storage.restore(clean.clone());
        dp.scrub().unwrap();
        assert!(
            dp.health().all_healthy(),
            "{last} byte {pos}: health residue"
        );
    }
}

#[test]
fn degraded_answer_carries_staleness_and_matches_exact_after_repair() {
    let mem = MemStorage::new();
    let storage = FailingStorage::with_transient_failures(mem, 0);
    let (mut dp, _) = DurableProcessor::open_with(storage.clone(), opts()).unwrap();
    dp.register("a", cosine()).unwrap();
    dp.register("b", cosine()).unwrap();
    for v in 0..30i64 {
        dp.process_weighted("a", &[v % 32], 1.0).unwrap();
        dp.process_weighted("b", &[(v * 3) % 32], 1.0).unwrap();
    }
    dp.checkpoint().unwrap();
    // Post-checkpoint traffic lands only on 'b': the checkpointed copy
    // of 'a' is exactly its repaired state, so the degraded answer must
    // equal the exact one once 'a' is healed.
    for v in 0..10i64 {
        dp.process_weighted("b", &[(v * 7) % 32], -1.0).unwrap();
    }
    dp.sync().unwrap();

    // Quarantine 'a' with an injected append failure (apply-then-log:
    // memory took the update, the log did not).
    storage.fail_next(1);
    let err = dp.process_weighted("a", &[5], 1.0).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(dp.health().state("a"), HealthState::Quarantined);
    assert_eq!(dp.health().state("b"), HealthState::Healthy);

    let q = ChainJoinQuery::builder().end("a").end("b").build().unwrap();

    // A degraded participant is never silent: the answer reads the
    // checkpointed 'a' and carries its staleness.
    let snap = dp.capture_snapshot(1).unwrap();
    let value = q.estimate_at(&snap, None).unwrap();
    let degraded = snap.attribution(q.streams());
    assert_eq!(degraded.len(), 1);
    let staleness = &degraded[0];
    assert_eq!(staleness.stream, "a");
    assert_eq!(staleness.state, HealthState::Quarantined);
    assert!(
        staleness.checkpoint_watermark > 0,
        "checkpoint covers the pre-fault records"
    );
    // Staleness is per-stream: the checkpoint substitute for 'a' misses
    // only the one applied-but-unlogged update that caused the
    // quarantine — the 10 post-checkpoint updates on 'b' do not count.
    assert_eq!(
        staleness.records_behind, 1,
        "only 'a''s own post-checkpoint update counts"
    );
    assert_eq!(staleness.gross_weight_behind, 1.0);
    assert!(value.is_finite());

    // Repair heals 'a' back to its durable truth.
    let report = dp.repair("a").unwrap();
    assert_eq!(report.stream, "a");
    assert!(!report.removed);
    assert_eq!(dp.health().state("a"), HealthState::Healthy);
    assert!(dp.health().all_healthy());

    // The exact estimate now equals the earlier degraded answer bit for
    // bit: the substitute *was* the repaired state.
    let snap = dp.capture_snapshot(2).unwrap();
    let exact = q.estimate_at(&snap, None).unwrap();
    assert_eq!(exact.to_bits(), value.to_bits());
    // And the answer reports fully-live again.
    assert!(snap.attribution(q.streams()).is_empty());
}

/// A degraded stream that no checkpoint holds has nothing to stand in
/// for it: both snapshot estimates refuse with a typed
/// `StreamQuarantined` rather than read its untrusted live summary,
/// while healthy streams keep answering.
#[test]
fn degraded_stream_without_a_checkpointed_summary_is_a_typed_refusal() {
    let (mut dp, _) = DurableProcessor::open_with(MemStorage::new(), opts()).unwrap();
    dp.register("a", cosine()).unwrap();
    dp.register("b", cosine()).unwrap();
    dp.process_weighted("b", &[1], 1.0).unwrap();
    dp.checkpoint().unwrap();
    // 'c' registers after the checkpoint, so the manifest lacks it.
    dp.register("c", cosine()).unwrap();
    dp.process_weighted("c", &[2], 1.0).unwrap();
    dp.quarantine_stream(
        "c",
        HealthCause::WalAppendFailed {
            detail: "injected".into(),
        },
    )
    .unwrap();

    let snap = dp.capture_snapshot(1).unwrap();
    let q = ChainJoinQuery::builder().end("b").end("c").build().unwrap();
    for e in [
        snap.estimate_cosine_join("b", "c", None).unwrap_err(),
        q.estimate_at(&snap, None).unwrap_err(),
    ] {
        assert!(
            matches!(&e, DctError::StreamQuarantined { stream, cause }
                if stream == "c" && cause.contains("no summary in the last checkpoint")),
            "{e}"
        );
    }
    assert!(snap.attribution(["b", "c"]).is_empty());
    assert!(snap.estimate_cosine_join("a", "b", None).is_ok());
}

/// Regression for the staleness-accounting bug: `records_behind` must
/// count WAL update records and `gross_weight_behind` their absolute
/// turnstile mass, not the *net* weight. A +5 insert cancelled down by
/// a −3 delete leaves the substitute 2 records and 8 gross units
/// behind, even though the net count only moved by 2 — and a crash plus
/// replay must reconstruct the same answer from the WAL.
#[test]
fn staleness_counts_records_and_gross_mass_not_net_weight() {
    let mem = MemStorage::new();
    let (mut dp, _) = DurableProcessor::open_with(mem.clone(), opts()).unwrap();
    dp.register("a", cosine()).unwrap();
    dp.register("b", cosine()).unwrap();
    for v in 0..16i64 {
        dp.process_weighted("a", &[v % 32], 1.0).unwrap();
        dp.process_weighted("b", &[(v * 3) % 32], 1.0).unwrap();
    }
    dp.checkpoint().unwrap();

    // Mixed-sign turnstile traffic on 'a': net weight moves by
    // +5 −3 +0.5 −0.5 = 2, gross mass by 9.
    dp.process_weighted("a", &[7], 5.0).unwrap();
    dp.process_weighted("a", &[7], -3.0).unwrap();
    dp.process_weighted("a", &[9], 0.5).unwrap();
    dp.process_weighted("a", &[9], -0.5).unwrap();
    dp.sync().unwrap();
    assert_eq!(dp.staleness_since_checkpoint("a"), (4, 9.0));
    assert_eq!(dp.staleness_since_checkpoint("b"), (0, 0.0));

    // Crash and recover: the replay past the watermark must seed the
    // same per-stream tracker from the surviving WAL records.
    drop(dp);
    let (dp, report) = DurableProcessor::open_with(mem.clone(), opts()).unwrap();
    assert_eq!(report.replayed, 4);
    assert_eq!(dp.staleness_since_checkpoint("a"), (4, 9.0));
    assert_eq!(dp.staleness_since_checkpoint("b"), (0, 0.0));
    drop(dp);

    // Quarantine 'a' with an injected append failure: memory applies a
    // fifth update (+1 at [3]) the log never sees, so the degraded
    // answer is 5 records and 10 gross units behind its substitute.
    let failing = FailingStorage::with_transient_failures(mem, 0);
    let (mut dp, _) = DurableProcessor::open_with(failing.clone(), opts()).unwrap();
    failing.fail_next(1);
    dp.process_weighted("a", &[3], 1.0).unwrap_err();
    assert_eq!(dp.health().state("a"), HealthState::Quarantined);
    assert_eq!(dp.staleness_since_checkpoint("a"), (5, 10.0));

    let q = ChainJoinQuery::builder().end("a").end("b").build().unwrap();
    let degraded = dp.capture_snapshot(1).unwrap().attribution(q.streams());
    assert_eq!(degraded.len(), 1);
    let s = &degraded[0];
    assert_eq!(s.stream, "a");
    assert_eq!(s.records_behind, 5);
    assert_eq!(s.gross_weight_behind, 10.0);
    // The rendered staleness names both units for operators.
    let text = s.to_string();
    assert!(text.contains("5 records"), "{text}");
    assert!(text.contains("10 gross"), "{text}");

    // Repair then checkpoint: the tracker reconciles to durable truth
    // (the unlogged fifth update is undone), then clears entirely.
    dp.repair("a").unwrap();
    assert_eq!(dp.staleness_since_checkpoint("a"), (4, 9.0));
    dp.checkpoint().unwrap();
    assert_eq!(dp.staleness_since_checkpoint("a"), (0, 0.0));
}
