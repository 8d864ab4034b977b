//! The streaming intake driver and its sinks.
//!
//! [`run`] pulls raw lines off any `BufRead`, decodes → splits →
//! type-checks → normalizes each record under a [`Schema`], records
//! every failure in the [`RejectLedger`] with row/column/cause
//! attribution, and feeds accepted rows to a [`RowSink`]. A configurable
//! reject-rate threshold stops a pathological stream early and marks the
//! report quarantined so the caller can transition the stream through
//! the `HealthRegistry`.
//!
//! Sinks cover every ingest path in the workspace:
//!
//! - [`CosineSink`] / [`MultiSink`] — batch into `ParallelIngest`
//!   flushes against an in-memory synopsis.
//! - [`DurableSink`] — per-row `DurableProcessor::process_weighted`, so
//!   each accepted row is WAL-logged (group commit applies when the
//!   processor is wrapped in `GroupDurable`).
//! - [`FleetSink`] — batch into `ShardedRegistry::ingest`.
//! - [`CountSink`] — accept and discard (the `verify` command).

use crate::csv::{split_fields_into, RawField, SplitError};
use crate::reject::{IntakeReport, RejectCause, RejectLedger};
use crate::schema::{Schema, ValueError};
use dctstream_core::{CosineSynopsis, DctError, MultiDimSynopsis};
use dctstream_stream::wal::WalStorage;
use dctstream_stream::{DurableProcessor, ParallelIngest, ShardedRegistry};
use std::fmt;
use std::io::BufRead;

/// A fatal intake failure (I/O, sink breakage). Row-level problems are
/// never errors — they land in the ledger.
#[derive(Debug)]
pub enum IntakeError {
    /// Reading the input failed.
    Io(std::io::Error),
    /// The sink failed in a way that is not attributable to one row
    /// (WAL append failure, poisoned worker, ...).
    Sink(DctError),
}

impl fmt::Display for IntakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntakeError::Io(e) => write!(f, "intake read failed: {e}"),
            IntakeError::Sink(e) => write!(f, "intake sink failed: {e}"),
        }
    }
}

impl std::error::Error for IntakeError {}

impl From<std::io::Error> for IntakeError {
    fn from(e: std::io::Error) -> Self {
        IntakeError::Io(e)
    }
}

/// How a sink reacts to one accepted row.
#[derive(Debug)]
pub enum SinkError {
    /// The row is individually unacceptable (e.g. outside the target
    /// synopsis's domain, which may be narrower than the schema's);
    /// it becomes a ledger reject and the run continues.
    Reject(RejectCause),
    /// The sink itself broke; the run aborts.
    Fatal(DctError),
}

/// Map a sink-side `DctError` to a per-row reject where the error is
/// row-attributable, or a fatal error otherwise.
fn sink_error(e: DctError, columns: &[usize]) -> SinkError {
    match e {
        DctError::ValueOutOfDomain { value, domain } => SinkError::Reject(
            // Which tuple position overflowed is not reported by the
            // synopsis; attribute to the first target column when the
            // tuple is 1-wide, otherwise leave the column unattributed
            // via the arity-independent cause fields.
            RejectCause::OutOfDomain {
                column: columns.first().copied().unwrap_or(0),
                value,
                lo: domain.0,
                hi: domain.1,
            },
        ),
        DctError::ArityMismatch { expected, got } => {
            SinkError::Reject(RejectCause::WrongArity { expected, got })
        }
        other => SinkError::Fatal(other),
    }
}

/// Destination for accepted rows.
pub trait RowSink {
    /// Feed one accepted row (normalized target values + weight).
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError>;
    /// Flush any buffered rows. Called once, after the last row.
    fn finish(&mut self) -> Result<(), DctError>;
}

/// Options controlling one intake run.
#[derive(Debug, Clone)]
pub struct IntakeOptions {
    /// 0-based indices of the columns to ingest (1 for a cosine
    /// synopsis, n for a multi-dimensional one).
    pub targets: Vec<usize>,
    /// Optional 0-based column holding the row weight (parsed as a
    /// finite `f64`, *not* normalized); rows weigh 1.0 without it.
    pub weight: Option<usize>,
    /// Stop and mark the stream for quarantine when
    /// `rejected / seen` exceeds this, once `threshold_min_rows` rows
    /// have been seen.
    pub reject_threshold: Option<f64>,
    /// Grace period before the threshold is evaluated, so one early bad
    /// row cannot quarantine a stream.
    pub threshold_min_rows: u64,
}

impl Default for IntakeOptions {
    fn default() -> Self {
        Self {
            targets: vec![0],
            weight: None,
            reject_threshold: None,
            threshold_min_rows: 200,
        }
    }
}

/// Per-run scratch state shared by every line of one [`run`] call, so
/// the hot loop reuses its buffers and never allocates per row.
struct RowLoop<'a, S: RowSink> {
    schema: &'a Schema,
    opts: &'a IntakeOptions,
    ledger: &'a mut RejectLedger,
    sink: &'a mut S,
    arity: usize,
    fields: Vec<RawField>,
    normalized: Vec<Option<i64>>,
    values: Vec<i64>,
    row: u64,
    seen: u64,
    accepted: u64,
    quarantined: Option<String>,
    skip_header: bool,
}

impl<S: RowSink> RowLoop<'_, S> {
    /// Process one line already known to be valid UTF-8 (line breaks
    /// stripped by the caller except trailing `\r`). Returns `Ok(false)`
    /// when the reject-rate threshold quarantined the run.
    fn line_str(&mut self, line: &str) -> Result<bool, IntakeError> {
        let line = line.trim_end_matches('\r');
        if self.skip_header {
            self.skip_header = false;
            return Ok(true);
        }
        self.row += 1;
        self.seen += 1;
        let cause = self.check(line)?;
        self.settle(cause, line.as_bytes())
    }

    /// Process one raw line that may not be valid UTF-8.
    fn line_bytes(&mut self, raw: &[u8]) -> Result<bool, IntakeError> {
        let mut raw = raw;
        while raw.last() == Some(&b'\r') {
            raw = &raw[..raw.len() - 1];
        }
        if self.skip_header {
            self.skip_header = false;
            return Ok(true);
        }
        self.row += 1;
        self.seen += 1;
        match std::str::from_utf8(raw) {
            Ok(line) => {
                let cause = self.check(line)?;
                self.settle(cause, raw)
            }
            Err(e) => self.settle(
                Some(RejectCause::Encoding {
                    valid_up_to: e.valid_up_to(),
                }),
                raw,
            ),
        }
    }

    /// Every complete line of a bulk-validated UTF-8 region (`region`
    /// ends with `\n`).
    fn region_str(&mut self, region: &str) -> Result<bool, IntakeError> {
        for line in region[..region.len() - 1].split('\n') {
            if !self.line_str(line)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Every complete line of a region that failed bulk UTF-8
    /// validation — re-checked line by line so the encoding reject lands
    /// on the right row.
    fn region_bytes(&mut self, region: &[u8]) -> Result<bool, IntakeError> {
        for line in region[..region.len() - 1].split(|&b| b == b'\n') {
            if !self.line_bytes(line)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Split → arity → normalize → weight → sink, rejecting at the
    /// first failure with column attribution where one exists.
    fn check(&mut self, line: &str) -> Result<Option<RejectCause>, IntakeError> {
        if line.bytes().all(|b| b.is_ascii_whitespace()) {
            return Ok(Some(RejectCause::BlankLine));
        }
        match split_fields_into(line, self.schema.delimiter, &mut self.fields) {
            Ok(()) => {}
            Err(e @ (SplitError::UnclosedQuote { .. } | SplitError::JunkAfterQuote { .. })) => {
                return Ok(Some(RejectCause::BadQuoting {
                    column: e.column(),
                    detail: e.to_string(),
                }))
            }
        }
        if self.fields.len() != self.arity {
            return Ok(Some(RejectCause::WrongArity {
                expected: self.arity,
                got: self.fields.len(),
            }));
        }
        // Every declared column is validated, not only the ingest
        // targets — damage anywhere in the row rejects it, so the
        // accepted stream is typed end to end.
        self.normalized.clear();
        for (c, col) in self.schema.columns.iter().enumerate() {
            match col.normalize(self.fields[c].as_str(line)) {
                Ok(v) => self.normalized.push(v),
                Err(ValueError::Unparseable { expected }) => {
                    return Ok(Some(RejectCause::BadValue {
                        column: c,
                        expected,
                    }))
                }
                Err(ValueError::OutOfDomain { value, lo, hi }) => {
                    return Ok(Some(RejectCause::OutOfDomain {
                        column: c,
                        value,
                        lo,
                        hi,
                    }))
                }
            }
        }
        self.values.clear();
        for &t in &self.opts.targets {
            match self.normalized[t] {
                Some(v) => self.values.push(v),
                // A text column can never be an ingest target; callers
                // validate this up front, but a row-level reject keeps
                // the invariant even if they don't.
                None => {
                    return Ok(Some(RejectCause::BadValue {
                        column: t,
                        expected: "numeric",
                    }))
                }
            }
        }
        let weight = match self.opts.weight {
            None => 1.0,
            Some(w) => match self.fields[w].as_str(line).trim().parse::<f64>() {
                Ok(v) if v.is_finite() => v,
                _ => {
                    return Ok(Some(RejectCause::BadValue {
                        column: w,
                        expected: "weight",
                    }))
                }
            },
        };
        match self.sink.accept(&self.values, weight) {
            Ok(()) => Ok(None),
            Err(SinkError::Reject(cause)) => Ok(Some(cause)),
            Err(SinkError::Fatal(e)) => Err(IntakeError::Sink(e)),
        }
    }

    /// Book the row's outcome; `Ok(false)` means the threshold tripped.
    fn settle(&mut self, cause: Option<RejectCause>, raw: &[u8]) -> Result<bool, IntakeError> {
        match cause {
            None => {
                self.accepted += 1;
            }
            Some(cause) => {
                self.ledger.record(self.row, cause, raw);
                if let Some(threshold) = self.opts.reject_threshold {
                    let rejected = self.ledger.total();
                    if self.seen >= self.opts.threshold_min_rows
                        && rejected as f64 / self.seen as f64 > threshold
                    {
                        self.quarantined = Some(format!(
                            "reject rate {rejected}/{} exceeded threshold {threshold}",
                            self.seen
                        ));
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Run the intake loop: read `reader` under `schema`, ledger every
/// malformed row, feed accepted rows to `sink`.
///
/// The reader is consumed chunk-at-a-time straight out of its `BufRead`
/// buffer: complete lines are processed in place (one bulk UTF-8
/// validation per chunk, per-line re-checks only when a chunk holds
/// invalid bytes), and only a line straddling two chunks is ever copied.
/// That keeps the per-row cost close to the raw parse loop it replaced.
///
/// The returned report always satisfies
/// `rows_seen == accepted + rejected`; `report.quarantined` is `Some`
/// when the reject-rate threshold stopped the run early.
pub fn run<R: BufRead, S: RowSink>(
    mut reader: R,
    schema: &Schema,
    opts: &IntakeOptions,
    ledger: &mut RejectLedger,
    sink: &mut S,
) -> Result<IntakeReport, IntakeError> {
    let arity = schema.arity();
    for &c in opts.targets.iter().chain(opts.weight.iter()) {
        if c >= arity {
            return Err(IntakeError::Sink(DctError::InvalidParameter(format!(
                "target/weight column {c} outside schema arity {arity}"
            ))));
        }
    }
    let mut state = RowLoop {
        schema,
        opts,
        ledger,
        sink,
        arity,
        fields: Vec::with_capacity(arity),
        normalized: Vec::with_capacity(arity),
        values: Vec::with_capacity(opts.targets.len()),
        row: 0,
        seen: 0,
        accepted: 0,
        quarantined: None,
        skip_header: schema.has_header,
    };
    // A line cut off by a chunk boundary, carried into the next chunk.
    let mut carry: Vec<u8> = Vec::new();

    'chunks: loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(IntakeError::Io(e)),
        };
        if buf.is_empty() {
            // EOF: a final line without a trailing newline.
            if !carry.is_empty() {
                state.line_bytes(&carry)?;
            }
            break;
        }
        let len = buf.len();
        let mut consumed = 0usize;
        if !carry.is_empty() {
            match buf.iter().position(|&b| b == b'\n') {
                None => {
                    carry.extend_from_slice(buf);
                    reader.consume(len);
                    continue;
                }
                Some(p) => {
                    carry.extend_from_slice(&buf[..p]);
                    let go = state.line_bytes(&carry)?;
                    carry.clear();
                    consumed = p + 1;
                    if !go {
                        break 'chunks;
                    }
                }
            }
        }
        // All remaining complete lines in this chunk, ending at the last
        // newline; the tail is carried over.
        let region_end = match buf[consumed..].iter().rposition(|&b| b == b'\n') {
            Some(p) => consumed + p + 1,
            None => consumed,
        };
        if region_end > consumed {
            let region = &buf[consumed..region_end];
            let go = match std::str::from_utf8(region) {
                // '\n' is ASCII, so every line inside a valid region is
                // itself a valid str slice.
                Ok(s) => state.region_str(s)?,
                Err(_) => state.region_bytes(region)?,
            };
            if !go {
                break 'chunks;
            }
        }
        carry.extend_from_slice(&buf[region_end..]);
        reader.consume(len);
    }

    let RowLoop {
        seen,
        accepted,
        quarantined,
        sink,
        ledger,
        ..
    } = state;
    sink.finish().map_err(IntakeError::Sink)?;
    ledger.finish()?;
    // Counters are batched per run rather than bumped per row: one
    // atomic add each keeps the hot loop free of shared-cache traffic
    // (per-cause reject counters stay per-event in the ledger — rejects
    // are the rare path).
    dctstream_obs::counter_add!("intake.rows_total", seen);
    dctstream_obs::counter_add!("intake.rows_accepted_total", accepted);
    Ok(IntakeReport::from_ledger(
        ledger,
        seen,
        accepted,
        quarantined,
    ))
}

/// Rows buffered per `ParallelIngest`/fleet flush. One flush boundary
/// per `FLUSH_EVERY` accepted rows keeps memory bounded on unbounded
/// stdin streams while amortizing the per-flush fan-out cost.
pub const FLUSH_EVERY: usize = 65_536;

/// Batch accepted `(value, weight)` rows into a [`CosineSynopsis`]
/// through [`ParallelIngest`].
pub struct CosineSink<'a> {
    syn: &'a mut CosineSynopsis,
    ingest: ParallelIngest,
    column: usize,
    buf: Vec<(i64, f64)>,
    flush_every: usize,
}

impl<'a> CosineSink<'a> {
    /// Feed `syn` with `threads` ingest workers. `targets` is the run's
    /// [`IntakeOptions::targets`], used only for column attribution of
    /// domain rejects.
    pub fn new(syn: &'a mut CosineSynopsis, threads: usize, targets: &[usize]) -> Self {
        Self {
            syn,
            ingest: ParallelIngest::with_threads(threads.max(1)),
            column: targets.first().copied().unwrap_or(0),
            buf: Vec::new(),
            flush_every: FLUSH_EVERY,
        }
    }

    /// Override the flush boundary (mainly for tests; `usize::MAX`
    /// buffers everything into one flush).
    pub fn with_flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }
}

impl RowSink for CosineSink<'_> {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        let v = values[0];
        let d = self.syn.domain();
        if !d.contains(v) {
            // Pre-check so one out-of-domain row cannot fail a whole
            // buffered flush.
            return Err(SinkError::Reject(RejectCause::OutOfDomain {
                column: self.column,
                value: v,
                lo: d.lo(),
                hi: d.hi(),
            }));
        }
        self.buf.push((v, weight));
        if self.buf.len() >= self.flush_every {
            self.ingest
                .flush_cosine(self.syn, &self.buf)
                .map_err(SinkError::Fatal)?;
            self.buf.clear();
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        if !self.buf.is_empty() {
            self.ingest.flush_cosine(self.syn, &self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Batch accepted tuples into a [`MultiDimSynopsis`] through
/// [`ParallelIngest`].
pub struct MultiSink<'a> {
    syn: &'a mut MultiDimSynopsis,
    ingest: ParallelIngest,
    targets: Vec<usize>,
    buf: Vec<(Vec<i64>, f64)>,
    flush_every: usize,
}

impl<'a> MultiSink<'a> {
    /// Feed `syn` with `threads` ingest workers. `targets` is the run's
    /// [`IntakeOptions::targets`], used only for column attribution of
    /// domain rejects.
    pub fn new(syn: &'a mut MultiDimSynopsis, threads: usize, targets: &[usize]) -> Self {
        Self {
            syn,
            ingest: ParallelIngest::with_threads(threads.max(1)),
            targets: targets.to_vec(),
            buf: Vec::new(),
            flush_every: FLUSH_EVERY,
        }
    }

    /// Override the flush boundary.
    pub fn with_flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }

    fn flush(&mut self) -> Result<(), DctError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let borrowed: Vec<(&[i64], f64)> =
            self.buf.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
        self.ingest.flush_multi(self.syn, &borrowed)?;
        self.buf.clear();
        Ok(())
    }
}

impl RowSink for MultiSink<'_> {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        let domains = self.syn.domains();
        if values.len() != domains.len() {
            return Err(SinkError::Reject(RejectCause::WrongArity {
                expected: domains.len(),
                got: values.len(),
            }));
        }
        for (i, (&v, d)) in values.iter().zip(domains.iter()).enumerate() {
            if !d.contains(v) {
                return Err(SinkError::Reject(RejectCause::OutOfDomain {
                    column: self.targets.get(i).copied().unwrap_or(i),
                    value: v,
                    lo: d.lo(),
                    hi: d.hi(),
                }));
            }
        }
        self.buf.push((values.to_vec(), weight));
        if self.buf.len() >= self.flush_every {
            self.flush().map_err(SinkError::Fatal)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        self.flush()
    }
}

/// Feed a WAL-backed [`DurableProcessor`] one row at a time, so every
/// accepted row is logged before the run reports it accepted.
pub struct DurableSink<'a, S: WalStorage> {
    dp: &'a mut DurableProcessor<S>,
    stream: String,
    targets: Vec<usize>,
}

impl<'a, S: WalStorage> DurableSink<'a, S> {
    /// Feed registered stream `stream` of `dp`. `targets` is used only
    /// for column attribution of domain rejects.
    pub fn new(
        dp: &'a mut DurableProcessor<S>,
        stream: impl Into<String>,
        targets: &[usize],
    ) -> Self {
        Self {
            dp,
            stream: stream.into(),
            targets: targets.to_vec(),
        }
    }
}

impl<S: WalStorage> RowSink for DurableSink<'_, S> {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        self.dp
            .process_weighted(&self.stream, values, weight)
            .map(|_| ())
            .map_err(|e| sink_error(e, &self.targets))
    }

    fn finish(&mut self) -> Result<(), DctError> {
        Ok(())
    }
}

/// Batch accepted rows into [`ShardedRegistry::ingest`] calls.
pub struct FleetSink<'a> {
    fleet: &'a ShardedRegistry,
    stream: String,
    targets: Vec<usize>,
    buf: Vec<(Vec<i64>, f64)>,
    flush_every: usize,
}

impl<'a> FleetSink<'a> {
    /// Feed registered stream `stream` of `fleet`.
    pub fn new(fleet: &'a ShardedRegistry, stream: impl Into<String>, targets: &[usize]) -> Self {
        Self {
            fleet,
            stream: stream.into(),
            targets: targets.to_vec(),
            buf: Vec::new(),
            flush_every: FLUSH_EVERY,
        }
    }

    /// Override the flush boundary.
    pub fn with_flush_every(mut self, n: usize) -> Self {
        self.flush_every = n.max(1);
        self
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.fleet
            .ingest(&self.stream, &self.buf)
            .map_err(|e| sink_error(e, &self.targets))?;
        self.buf.clear();
        Ok(())
    }
}

impl RowSink for FleetSink<'_> {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        self.buf.push((values.to_vec(), weight));
        if self.buf.len() >= self.flush_every {
            self.flush()?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        match self.flush() {
            Ok(()) => Ok(()),
            Err(SinkError::Fatal(e)) => Err(e),
            // A whole-batch reject at finish has no row to attribute;
            // surface it as the underlying parameter error.
            Err(SinkError::Reject(cause)) => Err(DctError::InvalidParameter(format!(
                "final flush rejected: {cause}"
            ))),
        }
    }
}

/// Accept and discard: `verify` mode, where only the report matters.
#[derive(Debug, Default)]
pub struct CountSink;

impl RowSink for CountSink {
    fn accept(&mut self, _values: &[i64], _weight: f64) -> Result<(), SinkError> {
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};
    use dctstream_core::{Domain, Grid};
    use std::io::Cursor;

    fn schema2() -> Schema {
        Schema {
            delimiter: b',',
            has_header: false,
            columns: vec![
                Column {
                    name: "a".into(),
                    ty: ColumnType::Int,
                    domain: Some((0, 100)),
                },
                Column {
                    name: "b".into(),
                    ty: ColumnType::Int,
                    domain: None,
                },
            ],
        }
    }

    fn intake_count(text: &str, schema: &Schema, opts: &IntakeOptions) -> IntakeReport {
        let mut ledger = RejectLedger::new(16);
        let mut sink = CountSink;
        run(
            Cursor::new(text.as_bytes()),
            schema,
            opts,
            &mut ledger,
            &mut sink,
        )
        .unwrap()
    }

    #[test]
    fn accounting_is_exact_and_attributed() {
        let text = "1,2\n\n101,3\nx,4\n5\n\"oops,6\n7,8\n";
        let report = intake_count(text, &schema2(), &IntakeOptions::default());
        assert_eq!(report.rows_seen, 7);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.rejected, 5);
        assert_eq!(report.rows_seen, report.accepted + report.rejected);
        let causes: Vec<&str> = report.sample.iter().map(|r| r.cause.label()).collect();
        assert_eq!(
            causes,
            [
                "blank-line",
                "out-of-domain",
                "bad-value",
                "wrong-arity",
                "bad-quoting"
            ]
        );
        let rows: Vec<u64> = report.sample.iter().map(|r| r.row).collect();
        assert_eq!(rows, [2, 3, 4, 5, 6], "1-based row attribution");
        assert_eq!(report.sample[2].cause.column(), Some(0));
    }

    #[test]
    fn header_is_skipped_and_not_counted() {
        let mut schema = schema2();
        schema.has_header = true;
        let report = intake_count("a,b\n1,2\n", &schema, &IntakeOptions::default());
        assert_eq!(report.rows_seen, 1);
        assert_eq!(report.accepted, 1);
    }

    #[test]
    fn invalid_utf8_is_an_encoding_reject_not_an_error() {
        let mut bytes = b"1,2\n".to_vec();
        bytes.extend_from_slice(&[b'3', 0xff, 0xfe, b',', b'4', b'\n']);
        bytes.extend_from_slice(b"5,6\n");
        let mut ledger = RejectLedger::new(4);
        let mut sink = CountSink;
        let report = run(
            Cursor::new(bytes),
            &schema2(),
            &IntakeOptions::default(),
            &mut ledger,
            &mut sink,
        )
        .unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(report.by_cause, [("encoding".to_string(), 1)]);
        assert!(matches!(
            report.sample[0].cause,
            RejectCause::Encoding { valid_up_to: 1 }
        ));
    }

    #[test]
    fn weight_column_parses_raw_floats() {
        let mut schema = schema2();
        schema.columns[1].ty = ColumnType::Float { scale: 10 };
        let opts = IntakeOptions {
            targets: vec![0],
            weight: Some(1),
            ..IntakeOptions::default()
        };
        let mut ledger = RejectLedger::new(4);
        let mut syn = CosineSynopsis::new(Domain::new(0, 100), Grid::Midpoint, 8).unwrap();
        {
            let mut sink = CosineSink::new(&mut syn, 1, &[0]);
            let report = run(
                Cursor::new(&b"5,2.5\n5,nan\n5,1.5\n"[..]),
                &schema,
                &opts,
                &mut ledger,
                &mut sink,
            )
            .unwrap();
            assert_eq!(report.accepted, 2);
            assert_eq!(report.sample[0].cause.label(), "bad-value");
        }
        assert!((syn.count() - 4.0).abs() < 1e-9, "weights 2.5 + 1.5");
    }

    #[test]
    fn threshold_quarantines_after_grace_period() {
        // 50% bad rows; min_rows 10, threshold 0.2 → stops at row 10.
        let mut text = String::new();
        for i in 0..50 {
            if i % 2 == 0 {
                text.push_str("1,1\n");
            } else {
                text.push_str("bad,1\n");
            }
        }
        let opts = IntakeOptions {
            reject_threshold: Some(0.2),
            threshold_min_rows: 10,
            ..IntakeOptions::default()
        };
        let report = intake_count(&text, &schema2(), &opts);
        assert!(report.quarantined.is_some());
        assert_eq!(report.rows_seen, 10, "stopped at the grace boundary");
        assert_eq!(report.rows_seen, report.accepted + report.rejected);
        // Below the threshold nothing quarantines.
        let lax = IntakeOptions {
            reject_threshold: Some(0.9),
            threshold_min_rows: 10,
            ..IntakeOptions::default()
        };
        assert!(intake_count(&text, &schema2(), &lax).quarantined.is_none());
    }

    #[test]
    fn cosine_sink_matches_direct_update_batch() {
        let text = "1,0\n2,0\n2,0\n3,0\n";
        let mut ledger = RejectLedger::new(4);
        let mut syn = CosineSynopsis::new(Domain::new(0, 10), Grid::Midpoint, 8).unwrap();
        {
            let mut sink = CosineSink::new(&mut syn, 1, &[0]).with_flush_every(usize::MAX);
            run(
                Cursor::new(text.as_bytes()),
                &schema2(),
                &IntakeOptions::default(),
                &mut ledger,
                &mut sink,
            )
            .unwrap();
        }
        let mut direct = CosineSynopsis::new(Domain::new(0, 10), Grid::Midpoint, 8).unwrap();
        direct
            .update_batch(&[(1, 1.0), (2, 1.0), (2, 1.0), (3, 1.0)])
            .unwrap();
        assert_eq!(syn.sums(), direct.sums(), "bit-identical");
    }

    #[test]
    fn synopsis_domain_narrower_than_schema_rejects_rows() {
        // Schema allows 0..=100 but the synopsis only 0..=10.
        let mut ledger = RejectLedger::new(4);
        let mut syn = CosineSynopsis::new(Domain::new(0, 10), Grid::Midpoint, 8).unwrap();
        let report = {
            let mut sink = CosineSink::new(&mut syn, 1, &[0]);
            run(
                Cursor::new(&b"5,0\n50,0\n"[..]),
                &schema2(),
                &IntakeOptions::default(),
                &mut ledger,
                &mut sink,
            )
            .unwrap()
        };
        assert_eq!(report.accepted, 1);
        assert!(matches!(
            report.sample[0].cause,
            RejectCause::OutOfDomain {
                value: 50,
                lo: 0,
                hi: 10,
                ..
            }
        ));
    }

    #[test]
    fn multi_sink_ingests_tuples() {
        let mut schema = schema2();
        schema.columns[1].domain = Some((0, 50));
        let opts = IntakeOptions {
            targets: vec![0, 1],
            ..IntakeOptions::default()
        };
        let mut ledger = RejectLedger::new(4);
        let mut syn = MultiDimSynopsis::new(
            vec![Domain::new(0, 100), Domain::new(0, 50)],
            Grid::Midpoint,
            4,
        )
        .unwrap();
        let report = {
            let mut sink = MultiSink::new(&mut syn, 2, &opts.targets).with_flush_every(2);
            run(
                Cursor::new(&b"1,2\n3,4\n5,6\n"[..]),
                &schema,
                &opts,
                &mut ledger,
                &mut sink,
            )
            .unwrap()
        };
        assert_eq!(report.accepted, 3);
        assert!((syn.count() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sink_domain_rejects_name_the_schema_column() {
        // Three int columns without declared domains: the synopsis
        // domains alone decide, so only the sinks attribute the reject.
        let mut schema = schema2();
        schema.columns[0].domain = None;
        schema.columns.push(schema.columns[1].clone());
        let dir = std::env::temp_dir().join(format!("intake-sink-col-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sidecar = |name: &str, run_it: &dyn Fn(&mut RejectLedger)| {
            let path = dir.join(name);
            let mut ledger = RejectLedger::new(4).with_sidecar(&path).unwrap();
            run_it(&mut ledger);
            std::fs::read_to_string(&path).unwrap()
        };
        let text = b"1,2,3\n1,2,99\n";

        let cosine = sidecar("cosine.rejects", &|ledger| {
            let opts = IntakeOptions {
                targets: vec![2],
                ..IntakeOptions::default()
            };
            let mut syn = CosineSynopsis::new(Domain::new(0, 10), Grid::Midpoint, 4).unwrap();
            let mut sink = CosineSink::new(&mut syn, 1, &opts.targets);
            run(Cursor::new(&text[..]), &schema, &opts, ledger, &mut sink).unwrap();
        });
        assert!(
            cosine.contains("row=2 col=2 cause=out-of-domain"),
            "{cosine}"
        );

        let multi = sidecar("multi.rejects", &|ledger| {
            let opts = IntakeOptions {
                targets: vec![0, 2],
                ..IntakeOptions::default()
            };
            let domains = vec![Domain::new(0, 10), Domain::new(0, 10)];
            let mut syn = MultiDimSynopsis::new(domains, Grid::Midpoint, 4).unwrap();
            let mut sink = MultiSink::new(&mut syn, 1, &opts.targets);
            run(Cursor::new(&text[..]), &schema, &opts, ledger, &mut sink).unwrap();
        });
        assert!(multi.contains("row=2 col=2 cause=out-of-domain"), "{multi}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_target_is_a_typed_error_not_a_panic() {
        let opts = IntakeOptions {
            targets: vec![5],
            ..IntakeOptions::default()
        };
        let mut ledger = RejectLedger::new(4);
        let mut sink = CountSink;
        let err = run(
            Cursor::new(&b"1,2\n"[..]),
            &schema2(),
            &opts,
            &mut ledger,
            &mut sink,
        )
        .unwrap_err();
        assert!(matches!(err, IntakeError::Sink(_)), "{err:?}");
        let weighted = IntakeOptions {
            weight: Some(9),
            ..IntakeOptions::default()
        };
        assert!(run(
            Cursor::new(&b"1,2\n"[..]),
            &schema2(),
            &weighted,
            &mut RejectLedger::new(4),
            &mut CountSink,
        )
        .is_err());
    }

    #[test]
    fn text_target_is_a_reject_not_a_panic() {
        let mut schema = schema2();
        schema.columns[0].ty = ColumnType::Text;
        let report = intake_count("hello,1\n", &schema, &IntakeOptions::default());
        assert_eq!(report.rejected, 1);
        assert_eq!(report.sample[0].cause.label(), "bad-value");
    }
}
