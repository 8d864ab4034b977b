//! Point-in-time metric snapshots and their binary framing.
//!
//! The wire format is built on the shared [`crate::frame`] codec: a
//! 4-byte magic, a version byte, little-endian length-prefixed fields,
//! and a seal (a CRC-32 over everything before it). The magic and
//! version are checked before the seal.
//!
//! ```text
//! "DCTM" | version u8 (=1) | reserved [3]
//! counter_count u64  | { key | value u64 } ...
//! gauge_count u64    | { key | f64-bits u64 } ...
//! histogram_count u64| { key | count u64 | sum_nanos u64
//!                      | bucket_count u64 | bucket u64 ... } ...
//! crc32 u32          (over everything before it)
//!
//! key := name_len u64 | name bytes
//!      | label_count u64 | { key_len u64 | key | val_len u64 | val } ...
//! ```

use std::fmt;

use crate::frame::{self, FrameError, Reader};

/// Magic bytes opening a serialized [`MetricsSnapshot`].
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DCTM";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// A counter observed at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric name, e.g. `"ingest.events"`.
    pub name: String,
    /// Sorted label pairs (possibly empty).
    pub labels: Vec<(String, String)>,
    /// The counter's value.
    pub value: u64,
}

/// A gauge observed at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Sorted label pairs (possibly empty).
    pub labels: Vec<(String, String)>,
    /// The gauge's value.
    pub value: f64,
}

/// A histogram observed at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Sorted label pairs (possibly empty).
    pub labels: Vec<(String, String)>,
    /// Completed observations at read time (read *before* the buckets,
    /// so `buckets.sum() >= count` always holds).
    pub count: u64,
    /// Total observed nanoseconds.
    pub sum_nanos: u64,
    /// Per-bucket counts: one per [`crate::BUCKET_BOUNDS`] entry plus a
    /// trailing overflow slot.
    pub buckets: Vec<u64>,
}

/// Everything the registry knew at one point in time, in deterministic
/// `(name, labels)` order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Why a serialized snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The version byte is newer than this build understands.
    UnsupportedVersion(u8),
    /// The buffer ended before the structure it promised.
    Truncated(&'static str),
    /// The trailing CRC-32 does not match the content.
    BadCrc {
        /// CRC stored in the buffer.
        stored: u32,
        /// CRC computed over the received content.
        computed: u32,
    },
    /// A name or label was not valid UTF-8.
    BadUtf8(&'static str),
    /// A declared length is implausibly large for the remaining buffer.
    BadLength(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad snapshot magic (want \"DCTM\")"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated(what) => write!(f, "snapshot truncated reading {what}"),
            SnapshotError::BadCrc { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            SnapshotError::BadUtf8(what) => write!(f, "snapshot {what} is not valid UTF-8"),
            SnapshotError::BadLength(what) => {
                write!(f, "snapshot {what} length exceeds remaining buffer")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn u64(c: &mut Reader<'_>, what: &'static str) -> Result<u64, SnapshotError> {
    c.u64().map_err(|_| SnapshotError::Truncated(what))
}

/// A declared length, which can never exceed the bytes that remain:
/// rejected before it can size an allocation.
fn len(c: &mut Reader<'_>, what: &'static str) -> Result<usize, SnapshotError> {
    let n = u64(c, what)?;
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= c.remaining())
        .ok_or(SnapshotError::BadLength(what))
}

fn string(c: &mut Reader<'_>, what: &'static str) -> Result<String, SnapshotError> {
    let n = len(c, what)?;
    let b = c.take(n).map_err(|_| SnapshotError::Truncated(what))?;
    String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::BadUtf8(what))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_key(out: &mut Vec<u8>, name: &str, labels: &[(String, String)]) {
    put_string(out, name);
    out.extend_from_slice(&(labels.len() as u64).to_le_bytes());
    for (k, v) in labels {
        put_string(out, k);
        put_string(out, v);
    }
}

fn read_key(c: &mut Reader<'_>) -> Result<(String, Vec<(String, String)>), SnapshotError> {
    let name = string(c, "metric name")?;
    let label_count = len(c, "label count")?;
    let mut labels = Vec::with_capacity(label_count.min(64));
    for _ in 0..label_count {
        let k = string(c, "label key")?;
        let v = string(c, "label value")?;
        labels.push((k, v));
    }
    Ok((name, labels))
}

impl MetricsSnapshot {
    /// Serialize with the framing documented at module level.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        frame::put_header(&mut out, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        out.extend_from_slice(&[0u8; 3]);
        out.extend_from_slice(&(self.counters.len() as u64).to_le_bytes());
        for c in &self.counters {
            put_key(&mut out, &c.name, &c.labels);
            out.extend_from_slice(&c.value.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u64).to_le_bytes());
        for g in &self.gauges {
            put_key(&mut out, &g.name, &g.labels);
            out.extend_from_slice(&g.value.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.histograms.len() as u64).to_le_bytes());
        for h in &self.histograms {
            put_key(&mut out, &h.name, &h.labels);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum_nanos.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u64).to_le_bytes());
            for b in &h.buckets {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        frame::seal(&mut out, 0);
        out
    }

    /// Decode a buffer produced by [`MetricsSnapshot::to_bytes`],
    /// validating magic, version, structure, and the trailing CRC.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, SnapshotError> {
        if buf.len() < 12 {
            return Err(SnapshotError::Truncated("header"));
        }
        let to_error = |e| match e {
            FrameError::BadVersion(v) => SnapshotError::UnsupportedVersion(v),
            FrameError::BadSeal { stored, computed } => SnapshotError::BadCrc { stored, computed },
            FrameError::BadMagic | FrameError::Short => SnapshotError::BadMagic,
        };
        frame::check_header(buf, &SNAPSHOT_MAGIC, 0..=SNAPSHOT_VERSION).map_err(to_error)?;
        let body = frame::unseal(buf).map_err(to_error)?;
        let mut c = Reader::new(&body[8..]);
        let counter_count = len(&mut c, "counter count")?;
        let mut counters = Vec::with_capacity(counter_count.min(1024));
        for _ in 0..counter_count {
            let (name, labels) = read_key(&mut c)?;
            let value = u64(&mut c, "counter value")?;
            counters.push(CounterSnapshot {
                name,
                labels,
                value,
            });
        }
        let gauge_count = len(&mut c, "gauge count")?;
        let mut gauges = Vec::with_capacity(gauge_count.min(1024));
        for _ in 0..gauge_count {
            let (name, labels) = read_key(&mut c)?;
            let value = f64::from_bits(u64(&mut c, "gauge value")?);
            gauges.push(GaugeSnapshot {
                name,
                labels,
                value,
            });
        }
        let hist_count = len(&mut c, "histogram count")?;
        let mut histograms = Vec::with_capacity(hist_count.min(1024));
        for _ in 0..hist_count {
            let (name, labels) = read_key(&mut c)?;
            let count = u64(&mut c, "histogram count field")?;
            let sum_nanos = u64(&mut c, "histogram sum")?;
            let bucket_count = len(&mut c, "bucket count")?;
            let mut buckets = Vec::with_capacity(bucket_count.min(64));
            for _ in 0..bucket_count {
                buckets.push(u64(&mut c, "bucket value")?);
            }
            histograms.push(HistogramSnapshot {
                name,
                labels,
                count,
                sum_nanos,
                buckets,
            });
        }
        if c.remaining() != 0 {
            return Err(SnapshotError::Truncated("trailing bytes"));
        }
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("a.events").add(42);
        r.counter_with("a.events", &[("kind", "cosine")]).add(7);
        r.gauge("b.level").set(-1.25);
        let h = r.histogram("c.latency");
        h.record(900);
        h.record(5_000_000);
        r.snapshot()
    }

    #[test]
    fn round_trip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = MetricsSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = SNAPSHOT_VERSION + 1;
        // Re-seal the CRC so only the version check can reject it.
        bytes.truncate(bytes.len() - frame::SEAL_LEN);
        frame::seal(&mut bytes, 0);
        assert_eq!(
            MetricsSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
    }

    #[test]
    fn absurd_length_is_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.push(SNAPSHOT_VERSION);
        bytes.extend_from_slice(&[0u8; 3]);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // counter count
        frame::seal(&mut bytes, 0);
        assert_eq!(
            MetricsSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadLength("counter count"))
        );
    }
}
