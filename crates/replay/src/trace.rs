//! The `.dctt` trace format: a flat file of CRC-framed workload records.
//!
//! Layout:
//!
//! ```text
//! magic "DCTT" | version u32 LE
//! repeat:  len u32 LE | crc32(len bytes) u32 LE | body[len] | crc32(body) u32 LE
//! trailer: one frame whose body is `tag 0 | record count u64 LE`
//! ```
//!
//! Frames are the workspace's shared record frame
//! (`dctstream_obs::frame`; DESIGN.md §16), capped at
//! [`MAX_FRAME`] on both sides: the writer refuses a longer body, so it
//! never writes a frame its own reader rejects. Unlike the WAL — whose
//! torn tail is a *normal* crash artifact — a trace file is a complete
//! artifact by construction, so the reader requires the trailer: a torn
//! frame, or truncation exactly at a frame boundary, is a typed
//! [`ReplayError::Corrupt`], never a silent shorter trace and never a
//! panic.
//!
//! A record body is `tag u8 | ts_delta_us varint-free u64 LE | tenant |
//! op payload`; arrival times are stored as deltas from the previous
//! record so a recorded trace is position-independent in time.

use crate::ReplayError;
use dctstream_obs::frame::{self, Reader, Record, Truncated};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DCTT";
const VERSION: u32 = 1;

/// Largest frame body the writer emits and the reader accepts. An
/// ingest row encodes to about 20 bytes while its request text can be
/// as short as 2, so a request under serve's 8 MiB body cap can still
/// encode past this; [`TraceWriter::append`] refuses such a record with
/// [`ReplayError::TooLarge`].
pub const MAX_FRAME: usize = 9 * 1024 * 1024;

/// Bytes the reader pulls from its input at a time.
const READ_CHUNK: u64 = 64 * 1024;

/// Hard cap on string fields inside a record (names are ≤ 64 chars on
/// the wire; the cap only guards the decoder against corrupt lengths).
const MAX_STR: usize = 4096;

/// Hard cap on rows per ingest record (decoder guard).
const MAX_ROWS: usize = 4_000_000;

/// Record tags (0 is the trailer).
const TAG_TRAILER: u8 = 0;
const TAG_REGISTER: u8 = 1;
const TAG_INGEST: u8 = 2;
const TAG_ESTIMATE: u8 = 3;
const TAG_CHAIN: u8 = 4;

/// How a stream is summarized, for a register op.
#[derive(Debug, Clone, PartialEq)]
pub enum RegisterKind {
    /// One-dimensional cosine synopsis over `[lo, hi]` with `m`
    /// coefficients.
    Cosine {
        /// Domain lower bound.
        lo: i64,
        /// Domain upper bound.
        hi: i64,
        /// Coefficient count.
        m: u32,
    },
    /// Multi-dimensional synopsis of `degree` coefficients per
    /// dimension over the given `(lo, hi)` domains.
    Multi {
        /// Per-dimension coefficient count.
        degree: u32,
        /// Per-dimension `(lo, hi)` bounds.
        domains: Vec<(i64, i64)>,
    },
}

/// One link of a chain-join query (unqualified stream names; the
/// record's tenant scopes them at replay time).
#[derive(Debug, Clone, PartialEq)]
pub enum ChainLink {
    /// A chain end (cosine stream).
    End {
        /// Stream name.
        stream: String,
    },
    /// An inner multi-dimensional stream joined on `left`/`right` dims.
    Inner {
        /// Stream name.
        stream: String,
        /// Dimension joined with the previous link.
        left: u32,
        /// Dimension joined with the next link.
        right: u32,
    },
}

/// One workload operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Register a stream.
    Register {
        /// Stream name (unqualified).
        stream: String,
        /// Synopsis shape.
        kind: RegisterKind,
    },
    /// Ingest a batch of weighted rows into a stream.
    Ingest {
        /// Stream name (unqualified).
        stream: String,
        /// `(tuple, weight)` rows.
        rows: Vec<(Vec<i64>, f64)>,
    },
    /// Estimate the equi-join of two cosine streams.
    Estimate {
        /// Left stream (unqualified).
        left: String,
        /// Right stream (unqualified).
        right: String,
        /// Optional coefficient budget.
        budget: Option<u32>,
    },
    /// Estimate a chain join.
    Chain {
        /// Links, ends first and last.
        links: Vec<ChainLink>,
        /// Optional coefficient budget.
        budget: Option<u32>,
    },
}

/// One trace record: who (tenant), when (µs since trace start), what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Arrival time in microseconds since the start of the trace
    /// (monotone nondecreasing; encoded as a delta on disk).
    pub at_us: u64,
    /// Tenant the operation belongs to.
    pub tenant: String,
    /// The operation.
    pub op: TraceOp,
}

// --- encoding helpers ------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// `None` encodes as 0; budgets of 0 are invalid upstream anyway.
fn put_budget(out: &mut Vec<u8>, b: Option<u32>) {
    put_u32(out, b.unwrap_or(0));
}

fn encode_body(rec: &TraceRecord, prev_at_us: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let tag = match &rec.op {
        TraceOp::Register { .. } => TAG_REGISTER,
        TraceOp::Ingest { .. } => TAG_INGEST,
        TraceOp::Estimate { .. } => TAG_ESTIMATE,
        TraceOp::Chain { .. } => TAG_CHAIN,
    };
    out.push(tag);
    put_u64(&mut out, rec.at_us.saturating_sub(prev_at_us));
    put_str(&mut out, &rec.tenant);
    match &rec.op {
        TraceOp::Register { stream, kind } => {
            put_str(&mut out, stream);
            match kind {
                RegisterKind::Cosine { lo, hi, m } => {
                    out.push(1);
                    put_i64(&mut out, *lo);
                    put_i64(&mut out, *hi);
                    put_u32(&mut out, *m);
                }
                RegisterKind::Multi { degree, domains } => {
                    out.push(2);
                    put_u32(&mut out, *degree);
                    put_u32(&mut out, domains.len() as u32);
                    for (lo, hi) in domains {
                        put_i64(&mut out, *lo);
                        put_i64(&mut out, *hi);
                    }
                }
            }
        }
        TraceOp::Ingest { stream, rows } => {
            put_str(&mut out, stream);
            put_u32(&mut out, rows.len() as u32);
            for (tuple, w) in rows {
                put_u32(&mut out, tuple.len() as u32);
                for v in tuple {
                    put_i64(&mut out, *v);
                }
                put_f64(&mut out, *w);
            }
        }
        TraceOp::Estimate {
            left,
            right,
            budget,
        } => {
            put_str(&mut out, left);
            put_str(&mut out, right);
            put_budget(&mut out, *budget);
        }
        TraceOp::Chain { links, budget } => {
            put_budget(&mut out, *budget);
            put_u32(&mut out, links.len() as u32);
            for link in links {
                match link {
                    ChainLink::End { stream } => {
                        out.push(1);
                        put_str(&mut out, stream);
                    }
                    ChainLink::Inner {
                        stream,
                        left,
                        right,
                    } => {
                        out.push(2);
                        put_str(&mut out, stream);
                        put_u32(&mut out, *left);
                        put_u32(&mut out, *right);
                    }
                }
            }
        }
    }
    out
}

// --- decoding helpers ------------------------------------------------------

/// Why a frame body does not decode; the reader adds the frame offset.
struct Malformed(String);

impl From<Truncated> for Malformed {
    fn from(t: Truncated) -> Self {
        Malformed(format!(
            "record body truncated: wanted {} bytes, have {}",
            t.wanted, t.have
        ))
    }
}

fn get_str(c: &mut Reader<'_>) -> Result<String, Malformed> {
    let len = c.u32()? as usize;
    if len > MAX_STR {
        return Err(Malformed(format!(
            "string length {len} exceeds the {MAX_STR} cap"
        )));
    }
    String::from_utf8(c.take(len)?.to_vec()).map_err(|_| Malformed("string is not UTF-8".into()))
}

fn get_budget(c: &mut Reader<'_>) -> Result<Option<u32>, Malformed> {
    let b = c.u32()?;
    Ok((b > 0).then_some(b))
}

/// Decode one frame body into either a record's `(ts_delta, tenant,
/// op)` or the trailer's record count.
enum Decoded {
    Record {
        delta_us: u64,
        rec: (String, TraceOp),
    },
    Trailer {
        count: u64,
    },
}

fn decode_body(body: &[u8]) -> Result<Decoded, Malformed> {
    let mut c = Reader::new(body);
    let tag = c.u8()?;
    let decoded = if tag == TAG_TRAILER {
        Decoded::Trailer { count: c.u64()? }
    } else {
        let delta_us = c.u64()?;
        let tenant = get_str(&mut c)?;
        let op = decode_op(tag, &mut c)?;
        Decoded::Record {
            delta_us,
            rec: (tenant, op),
        }
    };
    if c.remaining() != 0 {
        return Err(Malformed(format!(
            "{} trailing bytes after a complete record",
            c.remaining()
        )));
    }
    Ok(decoded)
}

fn decode_op(tag: u8, c: &mut Reader<'_>) -> Result<TraceOp, Malformed> {
    Ok(match tag {
        TAG_REGISTER => {
            let stream = get_str(c)?;
            let kind = match c.u8()? {
                1 => RegisterKind::Cosine {
                    lo: c.i64()?,
                    hi: c.i64()?,
                    m: c.u32()?,
                },
                2 => {
                    let degree = c.u32()?;
                    let n = c.u32()? as usize;
                    if n > 64 {
                        return Err(Malformed(format!("{n} domains exceeds the 64-dim cap")));
                    }
                    let mut domains = Vec::with_capacity(n);
                    for _ in 0..n {
                        domains.push((c.i64()?, c.i64()?));
                    }
                    RegisterKind::Multi { degree, domains }
                }
                k => return Err(Malformed(format!("unknown register kind tag {k}"))),
            };
            TraceOp::Register { stream, kind }
        }
        TAG_INGEST => {
            let stream = get_str(c)?;
            let n = c.u32()? as usize;
            if n > MAX_ROWS {
                return Err(Malformed(format!(
                    "{n} rows exceeds the {MAX_ROWS}-row cap"
                )));
            }
            let mut rows = Vec::with_capacity(n.min(65_536));
            for _ in 0..n {
                let arity = c.u32()? as usize;
                if arity > 64 {
                    return Err(Malformed(format!("row arity {arity} exceeds the 64 cap")));
                }
                let mut tuple = Vec::with_capacity(arity);
                for _ in 0..arity {
                    tuple.push(c.i64()?);
                }
                rows.push((tuple, c.f64()?));
            }
            TraceOp::Ingest { stream, rows }
        }
        TAG_ESTIMATE => TraceOp::Estimate {
            left: get_str(c)?,
            right: get_str(c)?,
            budget: get_budget(c)?,
        },
        TAG_CHAIN => {
            let budget = get_budget(c)?;
            let n = c.u32()? as usize;
            if n > 256 {
                return Err(Malformed(format!("{n} chain links exceeds the 256 cap")));
            }
            let mut links = Vec::with_capacity(n);
            for _ in 0..n {
                links.push(match c.u8()? {
                    1 => ChainLink::End {
                        stream: get_str(c)?,
                    },
                    2 => ChainLink::Inner {
                        stream: get_str(c)?,
                        left: c.u32()?,
                        right: c.u32()?,
                    },
                    k => return Err(Malformed(format!("unknown chain link tag {k}"))),
                });
            }
            TraceOp::Chain { links, budget }
        }
        k => return Err(Malformed(format!("unknown record tag {k}"))),
    })
}

// --- writer ----------------------------------------------------------------

/// Streaming `.dctt` writer. Records append one frame each;
/// [`TraceWriter::finish`] writes the trailer frame — a trace without
/// it reads back as corrupt, which is what makes truncation detectable.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    /// One encoded frame, reused across appends.
    scratch: Vec<u8>,
    prev_at_us: u64,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace: writes the header immediately.
    pub fn new(mut out: W) -> Result<Self, ReplayError> {
        out.write_all(MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            out,
            scratch: Vec::new(),
            prev_at_us: 0,
            count: 0,
        })
    }

    fn write_frame(&mut self, body: &[u8]) -> Result<(), ReplayError> {
        self.scratch.clear();
        frame::put_record(&mut self.scratch, body, MAX_FRAME).map_err(ReplayError::TooLarge)?;
        self.out.write_all(&self.scratch)?;
        Ok(())
    }

    /// Append one record. A record whose body exceeds [`MAX_FRAME`] is
    /// refused with [`ReplayError::TooLarge`] and nothing is written.
    pub fn append(&mut self, rec: &TraceRecord) -> Result<(), ReplayError> {
        let body = encode_body(rec, self.prev_at_us);
        self.write_frame(&body)?;
        self.prev_at_us = self.prev_at_us.max(rec.at_us);
        self.count += 1;
        Ok(())
    }

    /// Records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn write_trailer(&mut self) -> Result<(), ReplayError> {
        let mut body = vec![TAG_TRAILER];
        put_u64(&mut body, self.count);
        self.write_frame(&body)?;
        self.out.flush()?;
        Ok(())
    }

    /// Write the trailer and flush; returns the record count.
    pub fn finish(mut self) -> Result<u64, ReplayError> {
        self.write_trailer()?;
        Ok(self.count)
    }
}

// --- reader ----------------------------------------------------------------

/// Streaming `.dctt` reader. Every framing violation — bad magic,
/// flipped byte, truncated frame, missing trailer, wrong trailer count
/// — is a typed [`ReplayError::Corrupt`] carrying the file offset.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    inp: R,
    /// Bytes read from `inp`; those before `pos` are consumed.
    buf: Vec<u8>,
    pos: usize,
    /// `inp` has returned end-of-file.
    eof: bool,
    /// File offset of `buf[pos]`.
    offset: u64,
    at_us: u64,
    seen: u64,
    finished: bool,
}

impl<R: Read> TraceReader<R> {
    /// Open a trace: validates the header eagerly.
    pub fn new(inp: R) -> Result<Self, ReplayError> {
        let mut r = TraceReader {
            inp,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            offset: 0,
            at_us: 0,
            seen: 0,
            finished: false,
        };
        while r.buf.len() < 8 && !r.eof {
            r.fill()?;
        }
        let corrupt = |offset: u64, detail: String| ReplayError::Corrupt { offset, detail };
        let mut head = Reader::new(&r.buf);
        let (Ok(magic), Ok(version)) = (head.array::<4>(), head.u32()) else {
            return Err(corrupt(0, "truncated file header".into()));
        };
        frame::check_magic(&magic, MAGIC)
            .map_err(|_| corrupt(0, format!("bad magic {magic:02x?}: not a .dctt trace")))?;
        if version != VERSION {
            return Err(corrupt(
                4,
                format!("unsupported trace version {version} (want {VERSION})"),
            ));
        }
        r.pos = 8;
        r.offset = 8;
        Ok(r)
    }

    /// Drop the consumed bytes and read up to [`READ_CHUNK`] more.
    fn fill(&mut self) -> Result<(), ReplayError> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let n = Read::by_ref(&mut self.inp)
            .take(READ_CHUNK)
            .read_to_end(&mut self.buf)?;
        self.eof = n == 0;
        Ok(())
    }

    /// The next record; `Ok(None)` exactly once, after a valid trailer.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, ReplayError> {
        if self.finished {
            return Ok(None);
        }
        let frame_off = self.offset;
        let corrupt = |detail: String| ReplayError::Corrupt {
            offset: frame_off,
            detail,
        };
        let (decoded, frame_len) = loop {
            match frame::read_record(&self.buf[self.pos..], MAX_FRAME) {
                Record::Body(body) => {
                    let decoded = decode_body(body).map_err(|Malformed(m)| corrupt(m))?;
                    break (decoded, body.len() + frame::RECORD_OVERHEAD);
                }
                Record::End | Record::Torn if !self.eof => self.fill()?,
                Record::End => return Err(corrupt("truncated frame header".into())),
                Record::Torn => return Err(corrupt("truncated frame".into())),
                Record::LenCrc => return Err(corrupt("frame length checksum mismatch".into())),
                Record::OverCap(len) => {
                    return Err(corrupt(format!(
                        "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
                    )))
                }
                Record::BodyCrc(_) => return Err(corrupt("frame body checksum mismatch".into())),
            }
        };
        self.pos += frame_len;
        self.offset += frame_len as u64;
        match decoded {
            Decoded::Trailer { count } => {
                if count != self.seen {
                    return Err(corrupt(format!(
                        "trailer says {count} records, read {}",
                        self.seen
                    )));
                }
                self.finished = true;
                Ok(None)
            }
            Decoded::Record {
                delta_us,
                rec: (tenant, op),
            } => {
                self.at_us += delta_us;
                self.seen += 1;
                Ok(Some(TraceRecord {
                    at_us: self.at_us,
                    tenant,
                    op,
                }))
            }
        }
    }
}

// --- whole-trace convenience ----------------------------------------------

fn write_all<W: Write>(out: W, records: &[TraceRecord]) -> Result<TraceWriter<W>, ReplayError> {
    let mut w = TraceWriter::new(out)?;
    for r in records {
        w.append(r)?;
    }
    w.write_trailer()?;
    Ok(w)
}

fn read_all<R: Read>(inp: R) -> Result<Vec<TraceRecord>, ReplayError> {
    let mut r = TraceReader::new(inp)?;
    let mut out = Vec::new();
    while let Some(rec) = r.next_record()? {
        out.push(rec);
    }
    Ok(out)
}

/// Serialize a whole trace to bytes.
pub fn encode_trace(records: &[TraceRecord]) -> Result<Vec<u8>, ReplayError> {
    Ok(write_all(Vec::new(), records)?.out)
}

/// Parse a whole trace from bytes.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceRecord>, ReplayError> {
    read_all(bytes)
}

/// Write a whole trace to a file, returning the record count.
pub fn write_trace(path: &Path, records: &[TraceRecord]) -> Result<u64, ReplayError> {
    let file = std::fs::File::create(path)?;
    Ok(write_all(BufWriter::new(file), records)?.count)
}

/// Read a whole trace from a file.
pub fn read_trace(path: &Path) -> Result<Vec<TraceRecord>, ReplayError> {
    read_all(BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                at_us: 0,
                tenant: "acme".into(),
                op: TraceOp::Register {
                    stream: "orders".into(),
                    kind: RegisterKind::Cosine {
                        lo: 0,
                        hi: 1023,
                        m: 64,
                    },
                },
            },
            TraceRecord {
                at_us: 0,
                tenant: "acme".into(),
                op: TraceOp::Register {
                    stream: "m0".into(),
                    kind: RegisterKind::Multi {
                        degree: 8,
                        domains: vec![(0, 1023), (0, 255)],
                    },
                },
            },
            TraceRecord {
                at_us: 150,
                tenant: "acme".into(),
                op: TraceOp::Ingest {
                    stream: "orders".into(),
                    rows: vec![(vec![3], 1.0), (vec![7], -2.5)],
                },
            },
            TraceRecord {
                at_us: 900,
                tenant: "beta".into(),
                op: TraceOp::Estimate {
                    left: "orders".into(),
                    right: "users".into(),
                    budget: Some(32),
                },
            },
            TraceRecord {
                at_us: 1200,
                tenant: "acme".into(),
                op: TraceOp::Chain {
                    links: vec![
                        ChainLink::End {
                            stream: "orders".into(),
                        },
                        ChainLink::Inner {
                            stream: "m0".into(),
                            left: 0,
                            right: 1,
                        },
                        ChainLink::End {
                            stream: "users".into(),
                        },
                    ],
                    budget: None,
                },
            },
        ]
    }

    #[test]
    fn round_trips_bytes() {
        let recs = sample();
        let bytes = encode_trace(&recs).unwrap();
        assert_eq!(decode_trace(&bytes).unwrap(), recs);
    }

    #[test]
    fn timestamps_survive_the_delta_encoding() {
        let recs = sample();
        let back = decode_trace(&encode_trace(&recs).unwrap()).unwrap();
        let times: Vec<u64> = back.iter().map(|r| r.at_us).collect();
        assert_eq!(times, vec![0, 0, 150, 900, 1200]);
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let mut bytes = encode_trace(&sample()).unwrap();
        let mut not_ours = bytes.clone();
        not_ours[0] = b'X';
        assert!(matches!(
            decode_trace(&not_ours),
            Err(ReplayError::Corrupt { offset: 0, .. })
        ));
        bytes[4] = 99;
        assert!(decode_trace(&bytes).is_err());
    }

    fn ingest(at_us: u64, rows: usize) -> TraceRecord {
        TraceRecord {
            at_us,
            tenant: "acme".into(),
            op: TraceOp::Ingest {
                stream: "orders".into(),
                rows: vec![(vec![1], 1.0); rows],
            },
        }
    }

    #[test]
    fn writer_refuses_an_over_cap_record_and_writes_nothing() {
        // A unary ingest row encodes to 20 bytes: one row past the cap.
        let huge = ingest(5, MAX_FRAME / 20 + 1);
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.append(&sample()[0]).unwrap();
        let before = w.out.len();
        match w.append(&huge) {
            Err(ReplayError::TooLarge(e)) => assert!(e.len > MAX_FRAME && e.cap == MAX_FRAME),
            other => panic!("over-cap append: {other:?}"),
        }
        assert_eq!(w.out.len(), before, "a refused record wrote bytes");
        assert_eq!(w.count(), 1);
        w.write_trailer().unwrap();
        assert_eq!(decode_trace(&w.out).unwrap(), sample()[..1]);
    }

    #[test]
    fn reader_rejects_a_frame_over_the_cap() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        frame::put_record(&mut bytes, &vec![0u8; MAX_FRAME + 1], usize::MAX).unwrap();
        match decode_trace(&bytes) {
            Err(ReplayError::Corrupt { offset: 8, detail }) => {
                assert!(detail.contains("exceeds the"), "{detail}")
            }
            other => panic!("over-cap frame: {other:?}"),
        }
    }

    #[test]
    fn frames_larger_than_a_read_chunk_stream_through() {
        let recs = vec![ingest(0, 10_000), ingest(7, 3), ingest(9, 10_000)];
        let bytes = encode_trace(&recs).unwrap();
        assert!(bytes.len() > 2 * READ_CHUNK as usize);
        assert_eq!(decode_trace(&bytes).unwrap(), recs);
    }
}
