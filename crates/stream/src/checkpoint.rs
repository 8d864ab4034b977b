//! Durable checkpoint/recovery for the stream registry.
//!
//! A synopsis is one-pass state accumulated over an unbounded stream — if
//! the process dies, the stream cannot be replayed, so the registry
//! supports periodic checkpoints with validated recovery.
//!
//! # Manifest format
//!
//! A checkpoint file is a versioned manifest bundling every registered
//! stream's framed summary payload (little-endian throughout):
//!
//! ```text
//! magic "DCTR" (4) | version (1) | reserved (3)
//! events u64 | flush_threshold u64 (0 = unbuffered)
//! wal_watermark u64 (version ≥ 2; sequence of the last WAL record the
//!                    snapshot covers, 0 = no WAL)
//! metric_count u64 (version ≥ 3)
//! per metric, sorted by name (version ≥ 3):
//!   name_len u64 | name utf-8 | value u64
//! stream_count u64
//! per stream, sorted by name:
//!   name_len u64 | name utf-8 | kind u8 | payload_len u64 | payload
//!   | crc32 u32 over (name | kind | payload)
//! seal (CRC-32 of every preceding byte of the file)
//! ```
//!
//! Header, seal and CRC are the workspace's shared codec
//! (`dctstream_obs::frame`; DESIGN.md §16 "On-disk framing").
//!
//! Version 1 manifests (no watermark field) and version 2 manifests (no
//! metrics block) are still read; missing fields are reported as 0 /
//! empty, so a paired WAL replays from the start and cumulative counters
//! restart from zero. The metrics block carries the
//! [`crate::recovery::DurableProcessor`]'s cumulative observability
//! counters (events, WAL appends, checkpoints, repairs, …) so `stats`
//! survives restarts; it sits before the stream records and is covered by
//! the seal.
//!
//! The per-stream CRC localizes corruption ("stream 'x': checksum
//! mismatch"); the seal catches damage to manifest metadata. One walker
//! reads the layout for both [`StreamProcessor::restore_bytes`], which
//! decodes every summary, and [`verify_checkpoint_bytes`], which only
//! collects CRC violations. It bounds every declared length by the bytes
//! that remain, so damaged input yields an `Err` naming the failing
//! stream or field — never a panic.
//!
//! # Atomicity and recovery semantics
//!
//! [`write_checkpoint`] first drains every pending [`crate::BatchBuffer`]
//! (a checkpoint reflects all processed events), then writes the manifest
//! to `<path>.tmp` and atomically renames it over `<path>` — a crash
//! mid-write leaves the previous checkpoint intact. [`read_checkpoint`]
//! rebuilds a [`StreamProcessor`] with the same streams, summaries, event
//! count, and buffering mode; restored sketches rebuild their hash
//! families from the persisted seeds, so resumed updates are
//! bit-identical to an uninterrupted run.

use crate::processor::{StreamProcessor, Summary};
use bytes::Bytes;
use dctstream_core::persist::{
    kind_label, peek_kind, KIND_AMS, KIND_COSINE, KIND_FAST_AMS, KIND_MULTI, KIND_SKIMMED,
};
use dctstream_core::{CosineSynopsis, DctError, MultiDimSynopsis, Result};
use dctstream_obs::frame::{self, FrameError, Reader};
use dctstream_sketch::{AmsSketch, FastAmsSketch, SkimmedSketch};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;

/// Magic tag opening a registry checkpoint manifest.
pub const MANIFEST_MAGIC: &[u8; 4] = b"DCTR";
/// Current manifest format version.
pub const MANIFEST_VERSION: u8 = 3;
/// Oldest manifest version [`StreamProcessor::restore_bytes`] still reads.
pub const MANIFEST_MIN_VERSION: u8 = 1;

/// Manifest file name used by the recovery orchestrator
/// ([`crate::recovery::DurableProcessor`]) inside its storage directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.dctr";

/// Longest accepted stream name, bounding a crafted manifest's parse work.
const MAX_NAME_LEN: usize = 4096;
/// Most streams a manifest may declare.
const MAX_STREAMS: usize = 1 << 20;
/// Most persisted metrics a manifest may declare.
const MAX_METRICS: usize = 1 << 16;

pub use dctstream_obs::frame::crc32;

impl Summary {
    /// Serialize to the variant's framed binary payload.
    pub fn to_bytes(&self) -> Bytes {
        match self {
            Summary::Cosine(s) => s.to_bytes(),
            Summary::Multi(s) => s.to_bytes(),
            Summary::Ams(s) => s.to_bytes(),
            Summary::Skimmed(s) => s.to_bytes(),
            Summary::FastAms(s) => s.to_bytes(),
        }
    }

    /// Deserialize any summary payload, dispatching on the framed kind
    /// byte, with full validation.
    pub fn from_bytes(buf: Bytes) -> Result<Self> {
        match peek_kind(buf.as_slice())? {
            KIND_COSINE => Ok(Summary::Cosine(CosineSynopsis::from_bytes(buf)?)),
            KIND_MULTI => Ok(Summary::Multi(MultiDimSynopsis::from_bytes(buf)?)),
            KIND_AMS => Ok(Summary::Ams(AmsSketch::from_bytes(buf)?)),
            KIND_FAST_AMS => Ok(Summary::FastAms(FastAmsSketch::from_bytes(buf)?)),
            KIND_SKIMMED => Ok(Summary::Skimmed(SkimmedSketch::from_bytes(buf)?)),
            other => Err(DctError::InvalidParameter(format!(
                "unknown summary kind {other}"
            ))),
        }
    }

    /// The framed kind byte this variant serializes as.
    pub fn kind(&self) -> u8 {
        match self {
            Summary::Cosine(_) => KIND_COSINE,
            Summary::Multi(_) => KIND_MULTI,
            Summary::Ams(_) => KIND_AMS,
            Summary::Skimmed(_) => KIND_SKIMMED,
            Summary::FastAms(_) => KIND_FAST_AMS,
        }
    }

    /// Human-readable label of the variant, as shown by the CLI.
    pub fn kind_name(&self) -> &'static str {
        kind_label(self.kind())
    }

    /// Total tuple weight absorbed by the summary.
    pub fn count(&self) -> f64 {
        match self {
            Summary::Cosine(s) => s.count(),
            Summary::Multi(s) => s.count(),
            Summary::Ams(s) => s.count(),
            Summary::Skimmed(s) => s.count(),
            Summary::FastAms(s) => s.count(),
        }
    }
}

impl StreamProcessor {
    /// Serialize the registry to a checkpoint manifest, draining every
    /// pending batch buffer first so the snapshot reflects all processed
    /// events. Streams are written in name order, so identical state
    /// produces identical bytes.
    pub fn checkpoint_bytes(&mut self) -> Result<Bytes> {
        self.checkpoint_bytes_with_watermark(0)
    }

    /// [`Self::checkpoint_bytes`], stamping the manifest with the
    /// write-ahead-log watermark: the sequence number of the last WAL
    /// record this snapshot covers (0 when no WAL is in use). Recovery
    /// replays only records past the watermark.
    pub fn checkpoint_bytes_with_watermark(&mut self, wal_watermark: u64) -> Result<Bytes> {
        self.checkpoint_bytes_with_meta(wal_watermark, &BTreeMap::new())
    }

    /// [`Self::checkpoint_bytes_with_watermark`], additionally persisting
    /// a small map of named cumulative counters (the version-3 metrics
    /// block). The map is written in key order and covered by the
    /// whole-file CRC; version-2 readers reject the manifest, version-3
    /// readers of a version-2 manifest see an empty map.
    pub fn checkpoint_bytes_with_meta(
        &mut self,
        wal_watermark: u64,
        metrics: &BTreeMap<String, u64>,
    ) -> Result<Bytes> {
        if metrics.len() > MAX_METRICS {
            return Err(DctError::Checkpoint(format!(
                "field 'metric_count': {} metrics exceeds the {MAX_METRICS} cap",
                metrics.len()
            )));
        }
        self.flush_all()?;
        let mut streams: Vec<(&str, &Summary)> = self.streams().collect();
        streams.sort_unstable_by_key(|(name, _)| *name);
        let mut buf = Vec::with_capacity(1024);
        frame::put_header(&mut buf, MANIFEST_MAGIC, MANIFEST_VERSION);
        buf.extend_from_slice(&[0u8; 3]);
        for field in [
            self.events_processed(),
            self.flush_threshold().unwrap_or(0) as u64,
            wal_watermark,
            metrics.len() as u64,
        ] {
            buf.extend_from_slice(&field.to_le_bytes());
        }
        for (name, value) in metrics {
            if name.len() > MAX_NAME_LEN {
                return Err(DctError::Checkpoint(format!(
                    "metric name of {} bytes exceeds the {MAX_NAME_LEN} cap",
                    name.len()
                )));
            }
            buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&value.to_le_bytes());
        }
        buf.extend_from_slice(&(streams.len() as u64).to_le_bytes());
        for (name, summary) in streams {
            let payload = summary.to_bytes();
            buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
            buf.extend_from_slice(name.as_bytes());
            buf.push(summary.kind());
            buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            buf.extend_from_slice(payload.as_slice());
            let crc = record_crc(name.as_bytes(), summary.kind(), payload.as_slice());
            buf.extend_from_slice(&crc.to_le_bytes());
        }
        frame::seal(&mut buf, 0);
        Ok(Bytes::from(buf))
    }

    /// Rebuild a processor from [`Self::checkpoint_bytes`] output.
    ///
    /// Validation degrades gracefully: a corrupt per-stream record yields
    /// an error naming that stream; corrupt manifest metadata is caught by
    /// field checks or the whole-file checksum. No input panics.
    pub fn restore_bytes(data: &[u8]) -> Result<Self> {
        Self::restore_bytes_with_watermark(data).map(|(p, _)| p)
    }

    /// [`Self::restore_bytes`], also returning the manifest's WAL
    /// watermark (0 for version-1 manifests, which predate the field).
    pub fn restore_bytes_with_watermark(data: &[u8]) -> Result<(Self, u64)> {
        Self::restore_bytes_with_meta(data).map(|(p, w, _)| (p, w))
    }

    /// [`Self::restore_bytes_with_watermark`], also returning the
    /// persisted metrics block (empty for version-1/2 manifests, which
    /// predate it).
    pub fn restore_bytes_with_meta(data: &[u8]) -> Result<(Self, u64, BTreeMap<String, u64>)> {
        let mut metrics = BTreeMap::new();
        let mut streams: HashMap<String, Summary> = HashMap::new();
        let (events, threshold, watermark) = walk_manifest(
            data,
            |name, value| {
                let name = String::from_utf8(name.to_vec())
                    .map_err(|_| "metric name is not valid UTF-8".to_string())?;
                if metrics.insert(name.clone(), value).is_some() {
                    return Err(format!("duplicate metric name '{name}'"));
                }
                Ok(())
            },
            |rec| {
                let name = std::str::from_utf8(rec.name)
                    .map_err(|_| "stream name is not valid UTF-8".to_string())?;
                if !rec.crc_ok {
                    return Err("checksum mismatch".into());
                }
                let summary =
                    Summary::from_bytes(Bytes::from(rec.payload)).map_err(|e| e.to_string())?;
                if summary.kind() != rec.kind {
                    return Err(format!(
                        "manifest kind '{}' disagrees with payload kind '{}'",
                        kind_label(rec.kind),
                        summary.kind_name()
                    ));
                }
                if streams.insert(name.to_string(), summary).is_some() {
                    return Err("duplicate stream name".into());
                }
                Ok(())
            },
        )
        .map_err(|f| DctError::Checkpoint(format!("field '{}': {}", f.field, f.detail)))?;
        let flush_threshold = match threshold {
            0 => None,
            t => Some(usize::try_from(t).map_err(|_| {
                DctError::Checkpoint(format!("field 'flush_threshold': implausible value {t}"))
            })?),
        };
        Ok((
            StreamProcessor::from_restored(streams, flush_threshold, events),
            watermark,
            metrics,
        ))
    }
}

/// Re-verify a checkpoint manifest's checksums without rebuilding any
/// summary: each per-stream CRC is checked against the raw record bytes
/// (deserialization is skipped entirely), then the whole-file CRC.
///
/// Returns `(streams_checked, violations)`. A violation naming a stream
/// carries it in [`DctError::IntegrityViolation::stream`]; structural
/// damage (truncation, bad lengths, file-checksum mismatch) is reported
/// unattributed, since the stream boundaries themselves can no longer be
/// trusted. Used by the integrity scrubber, which must localize damage
/// to one stream whenever the manifest structure still permits it.
pub fn verify_checkpoint_bytes(data: &[u8]) -> (usize, Vec<DctError>) {
    let mut checked = 0usize;
    let mut violations = Vec::new();
    let walked = walk_manifest(
        data,
        |_, _| Ok(()),
        |rec| {
            checked += 1;
            if !rec.crc_ok {
                // A damaged name still has well-defined record bounds;
                // report it lossily so one flipped name byte does not
                // hide the rest of the manifest.
                let name = String::from_utf8_lossy(rec.name).into_owned();
                violations.push(DctError::IntegrityViolation {
                    detail: format!("stream '{name}': checksum mismatch"),
                    stream: Some(name),
                    field: "record crc".into(),
                    artifact: "checkpoint".into(),
                });
            }
            Ok(())
        },
    );
    if let Err(f) = walked {
        violations.push(DctError::IntegrityViolation {
            stream: None,
            field: f.field.into(),
            artifact: "checkpoint".into(),
            detail: f.detail,
        });
    }
    (checked, violations)
}

/// CRC-32 of a stream record's `name | kind | payload`.
fn record_crc(name: &[u8], kind: u8, payload: &[u8]) -> u32 {
    let mut record = Vec::with_capacity(name.len() + 1 + payload.len());
    record.extend_from_slice(name);
    record.push(kind);
    record.extend_from_slice(payload);
    crc32(&record)
}

/// Where a manifest walk stopped: the field, and what is wrong with it.
struct Fault {
    field: &'static str,
    detail: String,
}

fn fault(field: &'static str, detail: impl Into<String>) -> Fault {
    Fault {
        field,
        detail: detail.into(),
    }
}

/// A fault in record `i` of the `n` in a block.
fn fault_at(field: &'static str, i: usize, n: usize, what: String) -> Fault {
    fault(field, format!("record {i} of {n}: {what}"))
}

/// One stream record as the walker found it, undecoded.
struct StreamRecord<'a> {
    name: &'a [u8],
    kind: u8,
    payload: &'a [u8],
    /// Whether the record's CRC matches `name | kind | payload`.
    crc_ok: bool,
}

/// Walk a manifest in file order: header, fixed fields, the metrics
/// block (each metric handed to `metric`), the stream records (each
/// handed to `stream`), and last the seal; an `Err` from either callback
/// names what is wrong with that record. Returns the fixed fields
/// `(events, flush_threshold, wal_watermark)`. Every declared length is
/// checked against the bytes that remain before it is used, and the
/// first fault ends the walk.
fn walk_manifest<'a>(
    data: &'a [u8],
    mut metric: impl FnMut(&'a [u8], u64) -> std::result::Result<(), String>,
    mut stream: impl FnMut(StreamRecord<'a>) -> std::result::Result<(), String>,
) -> std::result::Result<(u64, u64, u64), Fault> {
    if data.len() < 8 + 24 + 4 {
        return Err(fault(
            "header",
            format!("manifest truncated to {} bytes", data.len()),
        ));
    }
    let version = frame::check_header(
        data,
        MANIFEST_MAGIC,
        MANIFEST_MIN_VERSION..=MANIFEST_VERSION,
    )
    .map_err(|e| match e {
        FrameError::BadVersion(v) => {
            fault("version", format!("unsupported checkpoint version {v}"))
        }
        _ => fault("magic", "not a dctstream checkpoint manifest"),
    })?;
    let fixed_fields = if version >= 2 { 32 } else { 24 };
    let header_short = || {
        fault(
            "header",
            format!(
                "version-{version} manifest truncated to {} bytes",
                data.len()
            ),
        )
    };
    if data.len() < 8 + fixed_fields + frame::SEAL_LEN {
        return Err(header_short());
    }
    let mut r = Reader::new(&data[8..]);
    let events = r.u64().map_err(|_| header_short())?;
    let threshold = r.u64().map_err(|_| header_short())?;
    let watermark = if version >= 2 {
        r.u64().map_err(|_| header_short())?
    } else {
        0
    };
    let count = |r: &mut Reader<'a>, field: &'static str, cap: usize| {
        let n = r.u64().map_err(|_| fault(field, "manifest truncated"))?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= cap)
            .ok_or_else(|| fault(field, format!("implausible value {n}")))
    };
    let name_len = |r: &mut Reader<'a>| {
        let n = r
            .u64()
            .map_err(|_| "truncated before name length".to_string())?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= MAX_NAME_LEN)
            .ok_or_else(|| format!("implausible name length {n}"))
    };
    if version >= 3 {
        let nmetrics = count(&mut r, "metric_count", MAX_METRICS)?;
        for i in 0..nmetrics {
            let record = |what| fault_at("metric records", i, nmetrics, what);
            let len = name_len(&mut r).map_err(record)?;
            let (Ok(name), Ok(value)) = (r.take(len), r.u64()) else {
                return Err(record("truncated inside name or value".into()));
            };
            metric(name, value).map_err(record)?;
        }
    }
    let nstreams = count(&mut r, "stream_count", MAX_STREAMS)?;
    for i in 0..nstreams {
        let record = |what| fault_at("stream records", i, nstreams, what);
        let len = name_len(&mut r).map_err(record)?;
        let (Ok(name), Ok(kind), Ok(payload_len)) = (r.take(len), r.u8(), r.u64()) else {
            return Err(record("truncated inside name or kind".into()));
        };
        let named = |what: String| {
            fault(
                "stream records",
                format!("stream '{}': {what}", String::from_utf8_lossy(name)),
            )
        };
        let remaining = r.remaining();
        let payload = usize::try_from(payload_len)
            .ok()
            .and_then(|n| r.take(n).ok())
            .ok_or_else(|| {
                named(format!(
                    "payload length {payload_len} exceeds remaining {remaining} bytes"
                ))
            })?;
        let stored = r
            .u32()
            .map_err(|_| named("truncated before checksum".into()))?;
        let crc_ok = record_crc(name, kind, payload) == stored;
        stream(StreamRecord {
            name,
            kind,
            payload,
            crc_ok,
        })
        .map_err(named)?;
    }
    if r.remaining() != frame::SEAL_LEN {
        return Err(fault(
            "file checksum",
            format!("expected exactly 4 trailing bytes, found {}", r.remaining()),
        ));
    }
    frame::unseal(data).map_err(|_| fault("file checksum", "mismatch"))?;
    Ok((events, threshold, watermark))
}

fn io_err(path: &Path, op: &str, e: std::io::Error) -> DctError {
    DctError::Checkpoint(format!("{op} {}: {e}", path.display()))
}

/// Checkpoint `processor` to `path` durably: pending buffers are flushed,
/// the manifest is written to `<path>.tmp`, and the temp file is atomically
/// renamed over `path` so a crash mid-write never clobbers the previous
/// checkpoint.
pub fn write_checkpoint(processor: &mut StreamProcessor, path: &Path) -> Result<()> {
    write_checkpoint_with_watermark(processor, path, 0)
}

/// [`write_checkpoint`], stamping the manifest with a WAL watermark (see
/// [`StreamProcessor::checkpoint_bytes_with_watermark`]).
pub fn write_checkpoint_with_watermark(
    processor: &mut StreamProcessor,
    path: &Path,
    wal_watermark: u64,
) -> Result<()> {
    write_checkpoint_with_meta(processor, path, wal_watermark, &BTreeMap::new())
}

/// [`write_checkpoint_with_watermark`], additionally persisting named
/// cumulative counters in the manifest's version-3 metrics block (see
/// [`StreamProcessor::checkpoint_bytes_with_meta`]).
pub fn write_checkpoint_with_meta(
    processor: &mut StreamProcessor,
    path: &Path,
    wal_watermark: u64,
    metrics: &BTreeMap<String, u64>,
) -> Result<()> {
    let bytes = processor.checkpoint_bytes_with_meta(wal_watermark, metrics)?;
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| DctError::Checkpoint(format!("invalid checkpoint path {}", path.display())))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    fs::write(&tmp, bytes.as_slice()).map_err(|e| io_err(&tmp, "writing", e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, "renaming checkpoint into", e))?;
    Ok(())
}

/// Restore a [`StreamProcessor`] from a checkpoint file written by
/// [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<StreamProcessor> {
    read_checkpoint_with_watermark(path).map(|(p, _)| p)
}

/// [`read_checkpoint`], also returning the manifest's WAL watermark.
///
/// Misuse is reported as a typed [`DctError::Checkpoint`] rather than a
/// raw I/O passthrough: pointing at a directory or an empty file names
/// the path and the actual problem.
pub fn read_checkpoint_with_watermark(path: &Path) -> Result<(StreamProcessor, u64)> {
    read_checkpoint_with_meta(path).map(|(p, w, _)| (p, w))
}

/// [`read_checkpoint_with_watermark`], also returning the persisted
/// metrics block (empty for version-1/2 manifests).
pub fn read_checkpoint_with_meta(
    path: &Path,
) -> Result<(StreamProcessor, u64, BTreeMap<String, u64>)> {
    let meta = fs::metadata(path).map_err(|e| io_err(path, "reading", e))?;
    if meta.is_dir() {
        return Err(DctError::Checkpoint(format!(
            "{} is a directory, not a checkpoint manifest",
            path.display()
        )));
    }
    let data = fs::read(path).map_err(|e| io_err(path, "reading", e))?;
    if data.is_empty() {
        return Err(DctError::Checkpoint(format!(
            "{} is empty: not a checkpoint manifest (was the write interrupted?)",
            path.display()
        )));
    }
    StreamProcessor::restore_bytes_with_meta(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctstream_core::{Domain, Grid};

    fn small_processor() -> StreamProcessor {
        let mut p = StreamProcessor::with_flush_threshold(8);
        let d = Domain::of_size(32);
        p.register(
            "left",
            Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
        )
        .unwrap();
        p.register(
            "right",
            Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 8).unwrap()),
        )
        .unwrap();
        for v in 0..20i64 {
            p.process_weighted("left", &[v % 32], 1.0).unwrap();
            p.process_weighted("right", &[(v * 5) % 32], 1.0).unwrap();
        }
        p
    }

    /// `left ⋈ right` on a capture of `p`.
    fn join(p: &mut StreamProcessor) -> f64 {
        crate::RegistrySnapshot::capture(p, 1)
            .unwrap()
            .estimate_cosine_join("left", "right", None)
            .unwrap()
    }

    #[test]
    fn checkpoint_flushes_pending_buffers() {
        let mut p = small_processor();
        // 40 events with threshold 8: some remain unflushed right now.
        let bytes = p.checkpoint_bytes().unwrap();
        let mut back = StreamProcessor::restore_bytes(bytes.as_slice()).unwrap();
        assert_eq!(back.events_processed(), 40);
        assert_eq!(back.flush_threshold(), Some(8));
        // checkpoint_bytes flushed `p`; the reference reads its summaries.
        let direct = dctstream_core::estimate_equi_join(
            p.summary("left").unwrap().as_cosine().unwrap(),
            p.summary("right").unwrap().as_cosine().unwrap(),
            None,
        )
        .unwrap();
        assert_eq!(direct, join(&mut back));
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        let mut a = small_processor();
        let mut b = small_processor();
        assert_eq!(
            a.checkpoint_bytes().unwrap().as_slice(),
            b.checkpoint_bytes().unwrap().as_slice()
        );
    }

    #[test]
    fn file_roundtrip_is_atomic_and_restorable() {
        let dir = std::env::temp_dir().join("dctstream-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.dctr");
        let mut p = small_processor();
        write_checkpoint(&mut p, &path).unwrap();
        // The temp file must not linger.
        assert!(!path.with_file_name("registry.dctr.tmp").exists());
        let mut back = read_checkpoint(&path).unwrap();
        assert_eq!(back.events_processed(), p.events_processed());
        assert_eq!(join(&mut back), join(&mut p));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_stream_record_names_the_stream() {
        let mut p = small_processor();
        let bytes = p.checkpoint_bytes().unwrap().to_vec();
        // Flip a byte inside the first stream's payload (well past the
        // record's name header) and fix nothing else: the per-record CRC
        // must fail and the error must name the stream.
        let name_pos = bytes
            .windows(4)
            .position(|w| w == b"left")
            .expect("name in manifest");
        let mut bad = bytes.clone();
        bad[name_pos + 40] ^= 0xFF;
        let e = StreamProcessor::restore_bytes(&bad).unwrap_err();
        assert!(
            e.to_string().contains("'left'"),
            "error should name the stream: {e}"
        );
    }

    #[test]
    fn metadata_corruption_is_caught_by_file_checksum() {
        let mut p = small_processor();
        let mut bytes = p.checkpoint_bytes().unwrap().to_vec();
        // Flip a bit in the events counter (offset 8..16): stream records
        // still validate, so only the file checksum can catch it.
        bytes[9] ^= 0x01;
        let e = StreamProcessor::restore_bytes(&bytes).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
    }

    #[test]
    fn verify_localizes_damage_to_one_stream() {
        let mut p = small_processor();
        let bytes = p.checkpoint_bytes().unwrap().to_vec();
        let (checked, violations) = verify_checkpoint_bytes(&bytes);
        assert_eq!(checked, 2);
        assert!(violations.is_empty(), "{violations:?}");

        // Payload damage inside 'left': the per-record CRC localizes it
        // (plus the file CRC, which covers everything).
        let name_pos = bytes
            .windows(4)
            .position(|w| w == b"left")
            .expect("name in manifest");
        let mut bad = bytes.clone();
        bad[name_pos + 40] ^= 0xFF;
        let (checked, violations) = verify_checkpoint_bytes(&bad);
        assert_eq!(checked, 2, "both streams still checked");
        let named: Vec<_> = violations
            .iter()
            .filter_map(|v| match v {
                DctError::IntegrityViolation { stream, .. } => stream.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(named, ["left"], "{violations:?}");

        // Metadata damage: unattributed, caught by the file checksum.
        let mut bad = bytes.clone();
        bad[9] ^= 0x01;
        let (_, violations) = verify_checkpoint_bytes(&bad);
        assert!(
            violations.iter().any(|v| matches!(
                v,
                DctError::IntegrityViolation { stream: None, field, .. } if field == "file checksum"
            )),
            "{violations:?}"
        );
    }

    #[test]
    fn unbuffered_processor_roundtrips() {
        let mut p = StreamProcessor::new();
        let d = Domain::of_size(8);
        p.register(
            "s",
            Summary::Cosine(CosineSynopsis::new(d, Grid::Midpoint, 4).unwrap()),
        )
        .unwrap();
        p.process_weighted("s", &[3], 2.0).unwrap();
        let back =
            StreamProcessor::restore_bytes(p.checkpoint_bytes().unwrap().as_slice()).unwrap();
        assert_eq!(back.flush_threshold(), None);
        assert_eq!(back.events_processed(), 1);
        assert!(back.summary("s").is_some());
    }
}
