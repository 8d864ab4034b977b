//! Integration tests for the durable checkpoint/recovery subsystem:
//! a full registry holding every `Summary` variant must survive a
//! checkpoint→restore cycle with bit-identical estimates, and every
//! corrupted or truncated manifest must degrade to an error naming the
//! failing stream or field — never a panic.

use dctstream_core::{CosineSynopsis, Domain, Grid, MultiDimSynopsis};
use dctstream_sketch::{
    estimate_fast_join, estimate_join, estimate_skimmed_join, AmsSketch, FastAmsSketch, FastSchema,
    SketchSchema, SkimmedSketch,
};
use dctstream_stream::{
    read_checkpoint, write_checkpoint, RegistrySnapshot, StreamProcessor, Summary,
};

/// `l ⋈ r` on a capture of `p`.
fn join(p: &mut StreamProcessor, l: &str, r: &str) -> f64 {
    RegistrySnapshot::capture(p, 1)
        .unwrap()
        .estimate_cosine_join(l, r, None)
        .unwrap()
}

/// A registry holding every summary variant, fed a deterministic stream.
fn full_registry() -> StreamProcessor {
    let mut p = StreamProcessor::new();
    let d64 = Domain::of_size(64);
    p.register(
        "cos-a",
        Summary::Cosine(CosineSynopsis::new(d64, Grid::Midpoint, 32).unwrap()),
    )
    .unwrap();
    p.register(
        "cos-b",
        Summary::Cosine(CosineSynopsis::new(d64, Grid::Midpoint, 32).unwrap()),
    )
    .unwrap();
    let d8 = Domain::of_size(8);
    p.register(
        "multi",
        Summary::Multi(MultiDimSynopsis::new(vec![d8, d8], Grid::Midpoint, 6).unwrap()),
    )
    .unwrap();
    for name in ["ams-a", "ams-b"] {
        let schema = SketchSchema::new(3, 4, 16, 1).unwrap();
        p.register(name, Summary::Ams(AmsSketch::new(schema, vec![0]).unwrap()))
            .unwrap();
    }
    for name in ["fast-a", "fast-b"] {
        let schema = FastSchema::new(5, 3, vec![32]).unwrap();
        p.register(
            name,
            Summary::FastAms(FastAmsSketch::new(schema, vec![0]).unwrap()),
        )
        .unwrap();
    }
    for name in ["skim-a", "skim-b"] {
        let schema = SketchSchema::new(9, 3, 8, 1).unwrap();
        p.register(
            name,
            Summary::Skimmed(SkimmedSketch::new(schema, vec![0], vec![d64], 16).unwrap()),
        )
        .unwrap();
    }
    for i in 0..200i64 {
        let v = (i * 7) % 64;
        let w = 1.0 + (i % 3) as f64;
        p.process_weighted("cos-a", &[v], 1.0).unwrap();
        p.process_weighted("cos-b", &[(i * 11) % 64], 1.0).unwrap();
        p.process_weighted("multi", &[i % 8, (i * 3) % 8], 1.0)
            .unwrap();
        p.process_weighted("ams-a", &[v], w).unwrap();
        p.process_weighted("ams-b", &[(i * 5) % 64], w).unwrap();
        p.process_weighted("fast-a", &[v], 1.0).unwrap();
        p.process_weighted("fast-b", &[(i * 13) % 64], 1.0).unwrap();
        p.process_weighted("skim-a", &[i % 11], w).unwrap();
        p.process_weighted("skim-b", &[i % 9], w).unwrap();
    }
    p
}

#[test]
fn restore_preserves_estimates_for_every_variant() {
    let mut p = full_registry();
    let bytes = p.checkpoint_bytes().unwrap();
    let mut r = StreamProcessor::restore_bytes(bytes.as_slice()).unwrap();
    assert_eq!(r.events_processed(), p.events_processed());

    // Cosine: registry-level join estimate must be bit-identical.
    assert_eq!(
        join(&mut r, "cos-a", "cos-b"),
        join(&mut p, "cos-a", "cos-b")
    );

    // Multi-dimensional: box-range counts must be bit-identical.
    let orig = p.summary("multi").unwrap().as_multi().unwrap();
    let back = r.summary("multi").unwrap().as_multi().unwrap();
    assert_eq!(
        back.estimate_box_count(&[1, 1], &[5, 6]).unwrap(),
        orig.estimate_box_count(&[1, 1], &[5, 6]).unwrap()
    );

    // AMS: same join estimate from restored sketches.
    let (oa, ob) = (
        p.summary("ams-a").unwrap().as_ams().unwrap(),
        p.summary("ams-b").unwrap().as_ams().unwrap(),
    );
    let (ra, rb) = (
        r.summary("ams-a").unwrap().as_ams().unwrap(),
        r.summary("ams-b").unwrap().as_ams().unwrap(),
    );
    assert_eq!(
        estimate_join(&[ra, rb], None).unwrap(),
        estimate_join(&[oa, ob], None).unwrap()
    );

    // Fast-AGMS.
    let (oa, ob) = (
        p.summary("fast-a").unwrap().as_fast_ams().unwrap(),
        p.summary("fast-b").unwrap().as_fast_ams().unwrap(),
    );
    let (ra, rb) = (
        r.summary("fast-a").unwrap().as_fast_ams().unwrap(),
        r.summary("fast-b").unwrap().as_fast_ams().unwrap(),
    );
    assert_eq!(
        estimate_fast_join(&[ra, rb], None).unwrap(),
        estimate_fast_join(&[oa, ob], None).unwrap()
    );

    // Skimmed: skimming is recomputed after restore, then estimates match.
    let mut oa = p.summary("skim-a").unwrap().as_skimmed().unwrap().clone();
    let mut ob = p.summary("skim-b").unwrap().as_skimmed().unwrap().clone();
    let mut ra = r.summary("skim-a").unwrap().as_skimmed().unwrap().clone();
    let mut rb = r.summary("skim-b").unwrap().as_skimmed().unwrap().clone();
    for s in [&mut oa, &mut ob, &mut ra, &mut rb] {
        s.prepare_default();
    }
    assert_eq!(
        estimate_skimmed_join(&[&ra, &rb], None).unwrap(),
        estimate_skimmed_join(&[&oa, &ob], None).unwrap()
    );
}

#[test]
fn resumed_processing_matches_uninterrupted_run() {
    // Process half the stream, checkpoint, restore, process the other
    // half on both processors: estimates must stay bit-identical, which
    // requires the sketches' hash state to survive the roundtrip.
    let mut p = full_registry();
    let bytes = p.checkpoint_bytes().unwrap();
    let mut r = StreamProcessor::restore_bytes(bytes.as_slice()).unwrap();
    for q in [&mut p, &mut r] {
        for i in 200..400i64 {
            q.process_weighted("cos-a", &[(i * 7) % 64], 1.0).unwrap();
            q.process_weighted("cos-b", &[(i * 11) % 64], 1.0).unwrap();
            q.process_weighted("ams-a", &[i % 64], 2.0).unwrap();
            q.process_weighted("ams-b", &[(i * 5) % 64], 2.0).unwrap();
        }
    }
    assert_eq!(r.events_processed(), p.events_processed());
    assert_eq!(
        join(&mut r, "cos-a", "cos-b"),
        join(&mut p, "cos-a", "cos-b")
    );
    let direct = estimate_join(
        &[
            p.summary("ams-a").unwrap().as_ams().unwrap(),
            p.summary("ams-b").unwrap().as_ams().unwrap(),
        ],
        None,
    )
    .unwrap();
    let resumed = estimate_join(
        &[
            r.summary("ams-a").unwrap().as_ams().unwrap(),
            r.summary("ams-b").unwrap().as_ams().unwrap(),
        ],
        None,
    )
    .unwrap();
    assert_eq!(direct, resumed);
}

#[test]
fn buffered_registry_checkpoints_pending_events() {
    // With a large flush threshold nothing has reached the summaries yet;
    // the checkpoint must still include every processed event.
    let mut buffered = StreamProcessor::with_flush_threshold(1_000_000);
    let mut direct = StreamProcessor::new();
    let d = Domain::of_size(32);
    for p in [&mut buffered, &mut direct] {
        p.register(
            "l",
            Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap()),
        )
        .unwrap();
        p.register(
            "r",
            Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap()),
        )
        .unwrap();
        for i in 0..500i64 {
            p.process_weighted("l", &[i % 32], 1.0).unwrap();
            p.process_weighted("r", &[(i * 3) % 32], 1.0).unwrap();
        }
    }
    let bytes = buffered.checkpoint_bytes().unwrap();
    let mut restored = StreamProcessor::restore_bytes(bytes.as_slice()).unwrap();
    assert_eq!(restored.flush_threshold(), Some(1_000_000));
    assert_eq!(restored.events_processed(), 1000);
    assert_eq!(join(&mut restored, "l", "r"), join(&mut direct, "l", "r"));
}

#[test]
fn file_checkpoint_roundtrip() {
    let dir = std::env::temp_dir().join("dctstream-itest-ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("full.dctr");
    let mut p = full_registry();
    write_checkpoint(&mut p, &path).unwrap();
    let mut r = read_checkpoint(&path).unwrap();
    assert_eq!(
        join(&mut r, "cos-a", "cos-b"),
        join(&mut p, "cos-a", "cos-b")
    );
    std::fs::remove_file(&path).unwrap();
}

/// A small two-stream checkpoint, cheap enough for exhaustive corruption.
fn small_checkpoint() -> Vec<u8> {
    let mut p = StreamProcessor::new();
    let d = Domain::of_size(16);
    p.register(
        "alpha",
        Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
    )
    .unwrap();
    p.register(
        "beta",
        Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
    )
    .unwrap();
    for i in 0..30i64 {
        p.process_weighted("alpha", &[i % 16], 1.0).unwrap();
        p.process_weighted("beta", &[(i * 3) % 16], 1.0).unwrap();
    }
    p.checkpoint_bytes().unwrap().to_vec()
}

#[test]
fn truncation_at_every_length_errs_never_panics() {
    let full = small_checkpoint();
    for cut in 0..full.len() {
        let res = StreamProcessor::restore_bytes(&full[..cut]);
        assert!(res.is_err(), "truncation to {cut} bytes decoded");
    }
}

#[test]
fn bit_flip_at_every_offset_errs_never_panics() {
    // The per-record and whole-file checksums make every single-bit
    // corruption detectable; the error must name a stream or a field.
    let full = small_checkpoint();
    for (offset, bit) in (0..full.len()).flat_map(|o| [(o, 0x01u8), (o, 0x80u8)]) {
        let mut bad = full.clone();
        bad[offset] ^= bit;
        let err = match StreamProcessor::restore_bytes(&bad) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("flip of bit {bit:#04x} at offset {offset} decoded"),
        };
        assert!(
            err.contains("stream") || err.contains("field '") || err.contains("metric"),
            "offset {offset}: error names neither stream, field, nor metric: {err}"
        );
    }
}

#[test]
fn garbage_and_empty_inputs_err() {
    assert!(StreamProcessor::restore_bytes(&[]).is_err());
    assert!(StreamProcessor::restore_bytes(b"DCTS not a manifest").is_err());
    let garbage: Vec<u8> = (0..512u32).map(|i| (i * 37 % 251) as u8).collect();
    assert!(StreamProcessor::restore_bytes(&garbage).is_err());
}

#[test]
fn trailing_garbage_rejected() {
    let mut full = small_checkpoint();
    full.extend_from_slice(b"extra");
    let err = StreamProcessor::restore_bytes(&full).unwrap_err();
    assert!(err.to_string().contains("field '"), "{err}");
}

#[test]
fn read_checkpoint_of_a_directory_is_a_typed_error() {
    let dir = std::env::temp_dir().join("dctstream_ckpt_dir_test");
    std::fs::create_dir_all(&dir).unwrap();
    let err = read_checkpoint(&dir).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, dctstream_core::DctError::Checkpoint(_)),
        "{err:?}"
    );
    assert!(msg.contains("directory"), "{msg}");
}

#[test]
fn read_checkpoint_of_an_empty_file_is_a_typed_error() {
    let path = std::env::temp_dir().join("dctstream_ckpt_empty_test.dctr");
    std::fs::write(&path, b"").unwrap();
    let err = read_checkpoint(&path).unwrap_err();
    let msg = err.to_string();
    assert!(
        matches!(err, dctstream_core::DctError::Checkpoint(_)),
        "{err:?}"
    );
    assert!(msg.contains("empty"), "{msg}");
}

#[test]
fn read_checkpoint_of_a_missing_file_is_an_io_error() {
    let path = std::env::temp_dir().join("dctstream_ckpt_missing_test.dctr");
    let _ = std::fs::remove_file(&path);
    assert!(read_checkpoint(&path).is_err());
}

/// A checkpoint carrying a version-3 metrics block, cheap enough for
/// exhaustive corruption sweeps.
fn checkpoint_with_metrics() -> Vec<u8> {
    let mut p = StreamProcessor::new();
    let d = Domain::of_size(16);
    p.register(
        "alpha",
        Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
    )
    .unwrap();
    for i in 0..20i64 {
        p.process_weighted("alpha", &[i % 16], 1.0).unwrap();
    }
    let metrics = std::collections::BTreeMap::from([
        ("checkpoints_total".to_string(), 3u64),
        ("events_total".to_string(), 20u64),
        ("wal_appends_total".to_string(), 21u64),
    ]);
    p.checkpoint_bytes_with_meta(7, &metrics).unwrap().to_vec()
}

#[test]
fn metrics_block_roundtrips() {
    let bytes = checkpoint_with_metrics();
    let (p, watermark, metrics) = StreamProcessor::restore_bytes_with_meta(&bytes).unwrap();
    assert_eq!(watermark, 7);
    assert_eq!(p.events_processed(), 20);
    assert_eq!(metrics.len(), 3);
    assert_eq!(metrics["checkpoints_total"], 3);
    assert_eq!(metrics["events_total"], 20);
    assert_eq!(metrics["wal_appends_total"], 21);
}

/// A version-2 manifest (no metrics block) must still load, reporting
/// an empty metrics map. Built by downgrading a v3 manifest: set the
/// version byte to 2, excise the metric_count field, re-seal the CRC.
#[test]
fn version2_manifest_loads_with_empty_metrics() {
    let mut p = StreamProcessor::new();
    let d = Domain::of_size(16);
    p.register(
        "alpha",
        Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
    )
    .unwrap();
    for i in 0..20i64 {
        p.process_weighted("alpha", &[i % 16], 1.0).unwrap();
    }
    let v3 = p.checkpoint_bytes_with_watermark(7).unwrap().to_vec();

    let mut v2 = v3.clone();
    v2[4] = 2; // version byte
               // Remove the empty metrics block: the metric_count u64 at bytes
               // 32..40 (after magic+version+reserved+events+threshold+watermark).
    assert_eq!(&v2[32..40], &[0u8; 8], "expected empty metric_count");
    v2.drain(32..40);
    // Re-seal the whole-file CRC.
    let crc_at = v2.len() - 4;
    let crc = dctstream_stream::checkpoint::crc32(&v2[..crc_at]);
    v2[crc_at..].copy_from_slice(&crc.to_le_bytes());

    let (r2, w2, metrics) = StreamProcessor::restore_bytes_with_meta(&v2).unwrap();
    assert_eq!(w2, 7);
    assert!(
        metrics.is_empty(),
        "v2 manifests predate metrics: {metrics:?}"
    );
    let (mut r3, ..) = StreamProcessor::restore_bytes_with_meta(&v3).unwrap();
    let mut r2 = r2;
    assert_eq!(r2.events_processed(), r3.events_processed());
    // Same streams, same estimates: the downgrade only dropped metrics.
    let a2 = r2.summary("alpha").unwrap().as_cosine().unwrap().clone();
    let a3 = r3.summary("alpha").unwrap().as_cosine().unwrap().clone();
    let _ = (&mut r2, &mut r3);
    assert_eq!(a2.count().to_bits(), a3.count().to_bits());
}

#[test]
fn bit_flip_in_metrics_block_errs_never_panics() {
    let full = checkpoint_with_metrics();
    for (offset, bit) in (0..full.len()).flat_map(|o| [(o, 0x01u8), (o, 0x80u8)]) {
        let mut bad = full.clone();
        bad[offset] ^= bit;
        match StreamProcessor::restore_bytes_with_meta(&bad) {
            Err(_) => {}
            Ok(_) => panic!("flip of bit {bit:#04x} at offset {offset} decoded"),
        }
    }
}

#[test]
fn truncation_of_metrics_manifest_errs_never_panics() {
    let full = checkpoint_with_metrics();
    for cut in 0..full.len() {
        assert!(
            StreamProcessor::restore_bytes_with_meta(&full[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
}

/// Cumulative counters survive a restart through the manifest's metrics
/// block: a reopened `DurableProcessor` resumes the totals rather than
/// starting from zero.
#[test]
fn persistent_counters_survive_restart() {
    use dctstream_stream::{DurableProcessor, MemStorage, RecoveryOptions};

    let mem = MemStorage::new();
    let (mut dp, _) = DurableProcessor::open_with(mem.clone(), RecoveryOptions::default()).unwrap();
    let d = Domain::of_size(16);
    dp.register(
        "s",
        Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
    )
    .unwrap();
    for i in 0..10i64 {
        dp.process_weighted("s", &[i % 16], 1.0).unwrap();
    }
    dp.checkpoint().unwrap();
    let before = dp.persistent_counters().clone();
    assert_eq!(before["events_total"], 10);
    assert_eq!(before["wal_appends_total"], 11); // register + 10 updates
    assert_eq!(before["checkpoints_total"], 1);
    assert_eq!(before["replays_total"], 1);
    drop(dp);

    let (mut dp, _) = DurableProcessor::open_with(mem.clone(), RecoveryOptions::default()).unwrap();
    assert_eq!(dp.persistent_counters()["events_total"], 10);
    assert_eq!(dp.persistent_counters()["replays_total"], 2);
    for i in 0..5i64 {
        dp.process_weighted("s", &[i % 16], 1.0).unwrap();
    }
    dp.checkpoint().unwrap();
    assert_eq!(dp.persistent_counters()["events_total"], 15);
    assert_eq!(dp.persistent_counters()["checkpoints_total"], 2);
    drop(dp);

    // Post-checkpoint (undurable) increments restart from the manifest.
    let (dp, _) = DurableProcessor::open_with(mem, RecoveryOptions::default()).unwrap();
    assert_eq!(dp.persistent_counters()["events_total"], 15);
    assert_eq!(dp.persistent_counters()["wal_appends_total"], 16);
    assert_eq!(dp.persistent_counters()["checkpoints_total"], 2);
    assert_eq!(dp.persistent_counters()["replays_total"], 3);
}
