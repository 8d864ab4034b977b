//! The streaming intake driver and its sinks.
//!
//! [`run`] cuts any `BufRead` into line-aligned blocks, decodes →
//! splits → type-checks → normalizes each block's records under a
//! [`Schema`] on [`IntakeOptions::threads`] workers, then applies the
//! outcomes on the calling thread in file order: every failure is
//! recorded in the [`RejectLedger`] with row/column/cause attribution
//! and every accepted row is fed to a [`RowSink`]. A configurable
//! reject-rate threshold stops a pathological stream early and marks the
//! report quarantined so the caller can transition the stream through
//! the `HealthRegistry`.
//!
//! Sinks cover every ingest path in the workspace:
//!
//! - [`CosineSink`] — coalesce net weight per value, then one
//!   `ParallelIngest` flush against an in-memory synopsis.
//! - [`MultiSink`] — batch into `ParallelIngest` flushes against an
//!   in-memory synopsis.
//! - [`DurableSink`] — per-row `DurableProcessor::process_weighted`, so
//!   each accepted row is WAL-logged (group commit applies when the
//!   processor is wrapped in `GroupDurable`).
//! - [`CountSink`] — accept and discard (the `verify` command).

use crate::csv::{split_fields_into, RawField};
use crate::reject::{IntakeReport, RejectCause, RejectLedger};
use crate::schema::{Schema, ValueError};
use dctstream_core::{CosineSynopsis, DctError, MultiDimSynopsis};
use dctstream_stream::parallel::MAX_THREADS;
use dctstream_stream::wal::WalStorage;
use dctstream_stream::{DurableProcessor, ParallelIngest};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::BufRead;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

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
    /// Parse workers (clamped to `1..=MAX_THREADS`). At 1 the calling
    /// thread parses each block itself; above 1 that many scoped
    /// workers parse blocks while the calling thread reads and applies
    /// them. The sink and ledger see the same rows in the same order
    /// either way.
    pub threads: usize,
}

impl Default for IntakeOptions {
    fn default() -> Self {
        Self {
            targets: vec![0],
            weight: None,
            reject_threshold: None,
            threshold_min_rows: 200,
            threads: 1,
        }
    }
}

/// Bytes the calling thread reads into one block before cutting it at
/// its last line break.
const BLOCK_BYTES: usize = 1 << 20;

/// Blocks each worker may have queued or parsed but not yet applied.
/// This bounds the pipeline's memory at about `2 × threads` blocks, even
/// on unbounded stdin input.
const BLOCKS_PER_WORKER: usize = 2;

/// A line-aligned run of input lines and, once parsed, their outcomes.
/// Blocks are recycled, so their buffers keep their capacity.
#[derive(Default)]
struct Block {
    /// Whole lines, each ending in `\n`, except that the input's last
    /// block may end without one.
    bytes: Vec<u8>,
    /// The first line is the header, which is skipped unparsed.
    header: bool,
    parsed: Parsed,
}

/// The outcome of every data row of one [`Block`].
#[derive(Default)]
struct Parsed {
    /// Data rows in the block (the header excluded).
    rows: usize,
    /// Target values of the accepted rows, `targets.len()` per row.
    values: Vec<i64>,
    /// Each accepted row's weight; empty without a weight column.
    weights: Vec<f64>,
    /// Rows the parse rejected: the row's index in the block, the
    /// cause, and the line's span in [`Block::bytes`] (without its line
    /// break and trailing `\r`s), in ascending row order.
    rejects: Vec<(usize, RejectCause, Range<usize>)>,
}

/// The block's lines joined by `\n`: its bytes without the final break.
fn body(bytes: &[u8]) -> &[u8] {
    bytes.strip_suffix(b"\n").unwrap_or(bytes)
}

/// `line` without its trailing carriage returns.
fn trim_cr(line: &[u8]) -> &[u8] {
    let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |p| p + 1);
    &line[..end]
}

/// One parser's scratch state, reused across blocks so the per-row loop
/// never allocates on the common path.
struct Parser<'a> {
    schema: &'a Schema,
    opts: &'a IntakeOptions,
    fields: Vec<RawField>,
    normalized: Vec<Option<i64>>,
}

impl<'a> Parser<'a> {
    fn new(schema: &'a Schema, opts: &'a IntakeOptions) -> Self {
        Self {
            schema,
            opts,
            fields: Vec::with_capacity(schema.arity()),
            normalized: Vec::with_capacity(schema.arity()),
        }
    }

    /// Decode, split, type-check and normalize every data row of
    /// `block` into its [`Parsed`] outcomes. One UTF-8 validation covers
    /// the whole block; only a block holding invalid bytes is
    /// re-checked line by line, so the encoding reject lands on the
    /// right row.
    fn parse(&mut self, block: &mut Block) {
        let out = &mut block.parsed;
        out.rows = 0;
        out.values.clear();
        out.weights.clear();
        out.rejects.clear();
        if block.bytes.is_empty() {
            return;
        }
        let body = body(&block.bytes);
        let mut skip = block.header;
        let mut start = 0usize;
        match std::str::from_utf8(body) {
            // '\n' is ASCII, so every line of a valid block is itself a
            // valid str slice.
            Ok(text) => {
                for line in text.split('\n') {
                    if !skip {
                        let line = line.trim_end_matches('\r');
                        let cause = self.check(line, out);
                        out.push(cause, start..start + line.len());
                    }
                    skip = false;
                    start += line.len() + 1;
                }
            }
            Err(_) => {
                for line in body.split(|&b| b == b'\n') {
                    if !skip {
                        let raw = trim_cr(line);
                        let cause = match std::str::from_utf8(raw) {
                            Ok(line) => self.check(line, out),
                            Err(e) => Some(RejectCause::Encoding {
                                valid_up_to: e.valid_up_to(),
                            }),
                        };
                        out.push(cause, start..start + raw.len());
                    }
                    skip = false;
                    start += line.len() + 1;
                }
            }
        }
    }

    /// Split → arity → normalize → weight, rejecting at the first
    /// failure with column attribution where one exists. An accepted
    /// row's target values and weight are appended to `out`.
    fn check(&mut self, line: &str, out: &mut Parsed) -> Option<RejectCause> {
        if line.bytes().all(|b| b.is_ascii_whitespace()) {
            return Some(RejectCause::BlankLine);
        }
        if let Err(e) = split_fields_into(line, self.schema.delimiter, &mut self.fields) {
            return Some(RejectCause::BadQuoting {
                column: e.column(),
                detail: e.to_string(),
            });
        }
        let arity = self.schema.arity();
        if self.fields.len() != arity {
            return Some(RejectCause::WrongArity {
                expected: arity,
                got: self.fields.len(),
            });
        }
        // Every declared column is validated, not only the ingest
        // targets — damage anywhere in the row rejects it, so the
        // accepted stream is typed end to end.
        self.normalized.clear();
        for (c, col) in self.schema.columns.iter().enumerate() {
            match col.normalize(self.fields[c].as_str(line)) {
                Ok(v) => self.normalized.push(v),
                Err(ValueError::Unparseable { expected }) => {
                    return Some(RejectCause::BadValue {
                        column: c,
                        expected,
                    })
                }
                Err(ValueError::OutOfDomain { value, lo, hi }) => {
                    return Some(RejectCause::OutOfDomain {
                        column: c,
                        value,
                        lo,
                        hi,
                    })
                }
            }
        }
        // A text column can never be an ingest target; callers validate
        // this up front, but a row-level reject keeps the invariant even
        // if they don't.
        let targets = &self.opts.targets;
        if let Some(&t) = targets.iter().find(|&&t| self.normalized[t].is_none()) {
            return Some(RejectCause::BadValue {
                column: t,
                expected: "numeric",
            });
        }
        if let Some(w) = self.opts.weight {
            match self.fields[w].as_str(line).trim().parse::<f64>() {
                Ok(v) if v.is_finite() => out.weights.push(v),
                _ => {
                    return Some(RejectCause::BadValue {
                        column: w,
                        expected: "weight",
                    })
                }
            }
        }
        out.values
            .extend(targets.iter().filter_map(|&t| self.normalized[t]));
        None
    }
}

impl Parsed {
    /// Count one row, recording its reject if it has one.
    fn push(&mut self, cause: Option<RejectCause>, span: Range<usize>) {
        if let Some(cause) = cause {
            self.rejects.push((self.rows, cause, span));
        }
        self.rows += 1;
    }
}

/// Spans of a block's data rows, found on demand for the rare row a
/// sink rejects. Rows must be asked for in ascending order, so one
/// block is scanned at most once.
struct RowSpans<'a> {
    body: &'a [u8],
    row: usize,
    at: usize,
}

impl<'a> RowSpans<'a> {
    fn new(bytes: &'a [u8], header: bool) -> Self {
        let mut spans = Self {
            body: body(bytes),
            row: 0,
            at: 0,
        };
        if header {
            spans.at = spans.line_end() + 1;
        }
        spans
    }

    fn line_end(&self) -> usize {
        let rest = self.body.get(self.at..).unwrap_or_default();
        rest.iter()
            .position(|&b| b == b'\n')
            .map_or(self.body.len(), |p| self.at + p)
    }

    /// Span of data row `row` (without its line break and trailing
    /// `\r`s).
    fn span(&mut self, row: usize) -> Range<usize> {
        while self.row < row {
            self.at = self.line_end() + 1;
            self.row += 1;
        }
        let end = self.line_end();
        self.at..self.at + trim_cr(&self.body[self.at..end]).len()
    }
}

/// The calling thread's half of a run: applies parsed blocks in file
/// order — row numbering, `sink.accept`, ledgering every reject (the
/// sink's included), and the reject-rate threshold.
struct Apply<'a, S: RowSink> {
    opts: &'a IntakeOptions,
    ledger: &'a mut RejectLedger,
    sink: &'a mut S,
    seen: u64,
    accepted: u64,
    quarantined: Option<String>,
}

impl<S: RowSink> Apply<'_, S> {
    /// Apply every row of one parsed block; `Ok(false)` means the
    /// threshold tripped and the run stops here.
    fn block(&mut self, block: &mut Block) -> Result<bool, IntakeError> {
        let Parsed {
            rows,
            values,
            weights,
            rejects,
        } = &mut block.parsed;
        let (bytes, header, k) = (&block.bytes, block.header, self.opts.targets.len());
        let mut spans = None;
        let mut rejects = rejects.drain(..);
        let (mut row, mut next) = (0usize, 0usize);
        // Counted in locals, so the per-row loop keeps them in registers.
        let (mut seen, mut accepted) = (self.seen, self.accepted);
        let go = 'rows: loop {
            // Every row before the next parse reject passed the parse.
            let (until, reject) = match rejects.next() {
                Some((r, cause, span)) => (r, Some((cause, span))),
                None => (*rows, None),
            };
            while row < until {
                let weight = weights.get(next).copied().unwrap_or(1.0);
                let result = self.sink.accept(&values[next * k..(next + 1) * k], weight);
                next += 1;
                row += 1;
                seen += 1;
                match result {
                    Ok(()) => accepted += 1,
                    Err(SinkError::Reject(cause)) => {
                        let spans = spans.get_or_insert_with(|| RowSpans::new(bytes, header));
                        self.seen = seen;
                        if !self.reject(cause, &bytes[spans.span(row - 1)]) {
                            break 'rows Ok(false);
                        }
                    }
                    Err(SinkError::Fatal(e)) => break 'rows Err(IntakeError::Sink(e)),
                }
            }
            let Some((cause, span)) = reject else {
                break Ok(true);
            };
            row += 1;
            seen += 1;
            self.seen = seen;
            if !self.reject(cause, &bytes[span]) {
                break Ok(false);
            }
        };
        (self.seen, self.accepted) = (seen, accepted);
        go
    }

    /// Ledger one reject; `false` when it trips the threshold.
    fn reject(&mut self, cause: RejectCause, raw: &[u8]) -> bool {
        self.ledger.record(self.seen, cause, raw);
        if let Some(threshold) = self.opts.reject_threshold {
            let rejected = self.ledger.total();
            if self.seen >= self.opts.threshold_min_rows
                && rejected as f64 / self.seen as f64 > threshold
            {
                self.quarantined = Some(format!(
                    "reject rate {rejected}/{} exceeded threshold {threshold}",
                    self.seen
                ));
                return false;
            }
        }
        true
    }
}

/// Cuts a `BufRead` into line-aligned blocks of about `block_bytes`.
struct Cutter<R> {
    reader: R,
    block_bytes: usize,
    /// Bytes past the last cut: the start of the next block.
    carry: Vec<u8>,
    /// The input's first line, the header, has yet to be handed out.
    header: bool,
    eof: bool,
    /// A read error held back until the lines read before it are
    /// applied, as a reader of one line at a time would have applied
    /// them.
    error: Option<std::io::Error>,
}

impl<R: BufRead> Cutter<R> {
    fn new(reader: R, block_bytes: usize, header: bool) -> Self {
        Self {
            reader,
            block_bytes: block_bytes.max(1),
            carry: Vec::new(),
            header,
            eof: false,
            error: None,
        }
    }

    /// Refill `block` with the next whole lines; `Ok(false)` at the end
    /// of the input. Reads go straight into the block, `block_bytes` at
    /// a time, and the block is cut after its last line break once it
    /// holds at least `block_bytes`; a longer line grows the block
    /// until it ends.
    fn next(&mut self, block: &mut Block) -> std::io::Result<bool> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let bytes = &mut block.bytes;
        bytes.clear();
        bytes.append(&mut self.carry);
        let mut filled = bytes.len();
        let mut searched = 0;
        while !self.eof {
            if filled >= self.block_bytes {
                if let Some(p) = bytes[searched..filled].iter().rposition(|&b| b == b'\n') {
                    let cut = searched + p + 1;
                    self.carry.extend_from_slice(&bytes[cut..filled]);
                    filled = cut;
                    break;
                }
                searched = filled;
            }
            let want = if filled < self.block_bytes {
                self.block_bytes
            } else {
                filled + self.block_bytes
            };
            if bytes.len() < want {
                bytes.resize(want, 0);
            }
            match self.reader.read(&mut bytes[filled..want]) {
                Ok(0) => self.eof = true,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => match bytes[..filled].iter().rposition(|&b| b == b'\n') {
                    // The torn line after the last break is dropped.
                    Some(p) => {
                        filled = p + 1;
                        self.error = Some(e);
                        break;
                    }
                    None => return Err(e),
                },
            }
        }
        bytes.truncate(filled);
        block.header = std::mem::take(&mut self.header);
        Ok(filled > 0)
    }
}

/// Run the intake loop: read `reader` under `schema`, ledger every
/// malformed row, feed accepted rows to `sink`.
///
/// The calling thread cuts the input into line-aligned blocks of about
/// 1 MiB. Each block is parsed — one bulk UTF-8 validation, then split,
/// type-check and normalize per row — on one of
/// [`IntakeOptions::threads`] workers, or inline at one worker. The
/// calling thread then applies every block's outcomes strictly in file
/// order: row numbers, the header skip, `sink.accept`, every ledger
/// entry and the reject-threshold stop are exactly those of a serial
/// pass, whatever the worker count, so every sink sees the same rows in
/// the same order. At most `2 × threads` blocks are in flight, so memory
/// stays bounded on unbounded input.
///
/// The returned report always satisfies
/// `rows_seen == accepted + rejected`; `report.quarantined` is `Some`
/// when the reject-rate threshold stopped the run early.
pub fn run<R: BufRead, S: RowSink>(
    reader: R,
    schema: &Schema,
    opts: &IntakeOptions,
    ledger: &mut RejectLedger,
    sink: &mut S,
) -> Result<IntakeReport, IntakeError> {
    run_blocks(reader, schema, opts, ledger, sink, BLOCK_BYTES)
}

/// [`run`] with the block size as a parameter, so tests can cut tiny
/// inputs into many blocks.
pub(crate) fn run_blocks<R: BufRead, S: RowSink>(
    reader: R,
    schema: &Schema,
    opts: &IntakeOptions,
    ledger: &mut RejectLedger,
    sink: &mut S,
    block_bytes: usize,
) -> Result<IntakeReport, IntakeError> {
    let arity = schema.arity();
    for &c in opts.targets.iter().chain(opts.weight.iter()) {
        if c >= arity {
            return Err(IntakeError::Sink(DctError::InvalidParameter(format!(
                "target/weight column {c} outside schema arity {arity}"
            ))));
        }
    }
    let mut cutter = Cutter::new(reader, block_bytes, schema.has_header);
    let mut apply = Apply {
        opts,
        ledger,
        sink,
        seen: 0,
        accepted: 0,
        quarantined: None,
    };
    let workers = opts.threads.clamp(1, MAX_THREADS);
    if workers == 1 {
        let mut parser = Parser::new(schema, opts);
        let mut block = Block::default();
        while cutter.next(&mut block)? {
            parser.parse(&mut block);
            if !apply.block(&mut block)? {
                break;
            }
        }
    } else {
        pipeline(&mut cutter, &mut apply, schema, opts, workers)?;
    }

    let Apply {
        seen,
        accepted,
        quarantined,
        sink,
        ledger,
        ..
    } = apply;
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

/// A block to parse and where to send it back.
type Job = (Block, mpsc::SyncSender<Block>);

/// Parse blocks on `workers` scoped threads while the calling thread
/// cuts the input and applies parsed blocks in file order. Blocks go to
/// the workers round-robin; each carries its own reply channel, and the
/// calling thread waits on those replies oldest first.
fn pipeline<R: BufRead, S: RowSink>(
    cutter: &mut Cutter<R>,
    apply: &mut Apply<'_, S>,
    schema: &Schema,
    opts: &IntakeOptions,
    workers: usize,
) -> Result<(), IntakeError> {
    // Set once the calling thread stops applying, so the workers skip
    // the blocks still queued.
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        let mut jobs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            jobs.push(tx);
            s.spawn(move || {
                let mut parser = Parser::new(schema, opts);
                for (mut block, reply) in rx {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    parser.parse(&mut block);
                    // A closed reply channel means the run stopped.
                    let _ = reply.send(block);
                }
            });
        }

        let mut in_flight: VecDeque<mpsc::Receiver<Block>> = VecDeque::new();
        let mut pool: Vec<Block> = Vec::new();
        let (mut sent, mut more, mut read_error) = (0usize, true, None);
        let driven = loop {
            while more && in_flight.len() < workers * BLOCKS_PER_WORKER {
                let mut block = pool.pop().unwrap_or_default();
                match cutter.next(&mut block) {
                    Ok(true) => {
                        let (reply, done) = mpsc::sync_channel(1);
                        // A worker that is gone drops the job, and its
                        // reply channel with it: the wait below sees that.
                        let _ = jobs[sent % workers].send((block, reply));
                        in_flight.push_back(done);
                        sent += 1;
                    }
                    Ok(false) => more = false,
                    Err(e) => {
                        more = false;
                        read_error = Some(e);
                    }
                }
            }
            let Some(done) = in_flight.pop_front() else {
                break read_error.map_or(Ok(()), |e| Err(IntakeError::Io(e)));
            };
            // A closed reply channel means a worker panicked: the scope
            // re-raises that panic once every worker has been joined.
            let Ok(mut block) = done.recv() else {
                break Ok(());
            };
            match apply.block(&mut block) {
                Ok(true) => pool.push(block),
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        stop.store(true, Ordering::Relaxed);
        // Closing the job channels ends every worker's loop.
        drop(jobs);
        driven
    })
}

/// Rows buffered per `ParallelIngest` flush by [`MultiSink`]. One flush
/// boundary per `FLUSH_EVERY` accepted rows keeps memory bounded on
/// unbounded stdin streams while amortizing the per-flush fan-out cost.
/// [`CosineSink`] has no flush boundary: its memory is bounded by the
/// number of distinct values instead.
pub const FLUSH_EVERY: usize = 65_536;

/// Largest domain for which [`CosineSink`] keeps its net weights in a
/// dense `Vec<f64>` indexed by [`dctstream_core::Domain::index_of`]:
/// 8 MiB at the cap, and only the pages of values that occur are ever
/// touched. Wider domains key a `HashMap` by value instead.
const DENSE_DOMAIN_MAX: usize = 1 << 20;

/// Net weight per domain value, accumulated in arrival order.
enum Nets {
    Dense(Vec<f64>),
    Sparse(HashMap<i64, f64>),
}

/// Coalesce accepted `(value, weight)` rows into one net weight per
/// value over the whole input, then apply them to a [`CosineSynopsis`]
/// in one [`ParallelIngest::flush_cosine`] call at [`RowSink::finish`]:
/// the paper's §3.2 batch update, one basis evaluation per *distinct*
/// value. Memory is O(distinct values), not O(rows).
///
/// The flushed batch drops zero nets and is sorted ascending by value,
/// as a buffered [`dctstream_stream::StreamProcessor`] flushes it, so
/// with one worker the result is bit-identical to a buffered registry
/// fed the same rows.
pub struct CosineSink<'a> {
    syn: &'a mut CosineSynopsis,
    threads: usize,
    column: usize,
    nets: Nets,
}

impl<'a> CosineSink<'a> {
    /// Feed `syn` with `threads` ingest workers. `targets` is the run's
    /// [`IntakeOptions::targets`], used only for column attribution of
    /// domain rejects.
    pub fn new(syn: &'a mut CosineSynopsis, threads: usize, targets: &[usize]) -> Self {
        let nets = match syn.domain().try_size() {
            Some(n) if n <= DENSE_DOMAIN_MAX => Nets::Dense(vec![0.0; n]),
            _ => Nets::Sparse(HashMap::new()),
        };
        Self {
            syn,
            threads: threads.max(1),
            column: targets.first().copied().unwrap_or(0),
            nets,
        }
    }
}

impl RowSink for CosineSink<'_> {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        let v = values[0];
        let d = self.syn.domain();
        // Checked per row, so one out-of-domain value is a ledger reject
        // rather than a failed flush.
        let Some(i) = d.index_of(v) else {
            return Err(SinkError::Reject(RejectCause::OutOfDomain {
                column: self.column,
                value: v,
                lo: d.lo(),
                hi: d.hi(),
            }));
        };
        match &mut self.nets {
            Nets::Dense(nets) => nets[i] += weight,
            Nets::Sparse(nets) => *nets.entry(v).or_insert(0.0) += weight,
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        let lo = self.syn.domain().lo();
        let batch: Vec<(i64, f64)> = match &mut self.nets {
            // Index order is ascending value order.
            Nets::Dense(nets) => nets
                .iter_mut()
                .enumerate()
                .filter(|(_, w)| **w != 0.0)
                .map(|(i, w)| (lo + i as i64, std::mem::take(w)))
                .collect(),
            Nets::Sparse(nets) => {
                let mut batch: Vec<(i64, f64)> = nets.drain().filter(|&(_, w)| w != 0.0).collect();
                batch.sort_unstable_by_key(|&(v, _)| v);
                batch
            }
        };
        ParallelIngest::with_threads(self.threads).flush_cosine(self.syn, &batch)
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
        // Checked before the row is logged: a buffered registry would
        // validate values only at its flush.
        let checked = self
            .dp
            .processor()
            .summary(&self.stream)
            .map_or(Ok(()), |summary| summary.check_tuple(values));
        checked
            .and_then(|()| self.dp.process_weighted(&self.stream, values, weight))
            .map(|_| ())
            .map_err(|e| sink_error(e, &self.targets))
    }

    fn finish(&mut self) -> Result<(), DctError> {
        Ok(())
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
        // The sink applies the coalesced batch: one net weight per value,
        // ascending.
        let text = "2,0\n1,0\n2,0\n3,0\n";
        let mut ledger = RejectLedger::new(4);
        let mut syn = CosineSynopsis::new(Domain::new(0, 10), Grid::Midpoint, 8).unwrap();
        {
            let mut sink = CosineSink::new(&mut syn, 1, &[0]);
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
            .update_batch(&[(1, 1.0), (2, 2.0), (3, 1.0)])
            .unwrap();
        assert_eq!(syn.to_bytes(), direct.to_bytes(), "bit-identical");
    }

    #[test]
    fn sparse_nets_match_the_coalesced_batch() {
        // A domain past DENSE_DOMAIN_MAX keys nets by value; the flush is
        // the same ascending, zero-free batch the dense path builds.
        let text = "2000000,1\n-5,2\n7,1\n2000000,0.5\n7,-1\n-5,1\n";
        let mut schema = schema2();
        schema.columns[0].domain = None;
        schema.columns[1].ty = ColumnType::Text;
        let opts = IntakeOptions {
            weight: Some(1),
            ..IntakeOptions::default()
        };
        let d = Domain::new(-5, 1 << 21);
        let mut syn = CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap();
        let mut sink = CosineSink::new(&mut syn, 1, &[0]);
        assert!(matches!(sink.nets, Nets::Sparse(_)));
        let mut ledger = RejectLedger::new(4);
        run(Cursor::new(text), &schema, &opts, &mut ledger, &mut sink).unwrap();
        let mut direct = CosineSynopsis::new(d, Grid::Midpoint, 16).unwrap();
        direct.update_batch(&[(-5, 3.0), (2_000_000, 1.5)]).unwrap();
        assert_eq!(syn.to_bytes(), direct.to_bytes(), "bit-identical");
    }

    #[test]
    fn coalesced_sink_matches_per_row_updates_at_m_4096() {
        // Zipf-like repeats over a 65,536-value domain with turnstile
        // weights, at the benchmark's m = 4096.
        let d = Domain::new(0, 65_535);
        let rows: Vec<(i64, f64)> = (0..20_000u64)
            .map(|i| {
                let v = ((i * i * 7_919) % 65_536) as i64 % (1 + (i % 4_096) as i64);
                (v, if i % 5 == 0 { -1.0 } else { 1.5 })
            })
            .collect();
        let text: String = rows.iter().map(|(v, w)| format!("{v},{w}\n")).collect();
        let mut schema = schema2();
        schema.columns[0].domain = None;
        schema.columns[1].ty = ColumnType::Text;
        let opts = IntakeOptions {
            weight: Some(1),
            ..IntakeOptions::default()
        };
        let mut coalesced = CosineSynopsis::new(d, Grid::Midpoint, 4_096).unwrap();
        let mut sink = CosineSink::new(&mut coalesced, 2, &[0]);
        let mut ledger = RejectLedger::new(4);
        let report = run(Cursor::new(text), &schema, &opts, &mut ledger, &mut sink).unwrap();
        assert_eq!(report.accepted, rows.len() as u64);

        let mut per_row = CosineSynopsis::new(d, Grid::Midpoint, 4_096).unwrap();
        for &(v, w) in &rows {
            per_row.update(v, w).unwrap();
        }
        let gross: f64 = rows.iter().map(|(_, w)| w.abs()).sum();
        let tol = 1e-9 * gross;
        assert!((coalesced.count() - per_row.count()).abs() <= tol);
        for (k, (a, b)) in coalesced.sums().iter().zip(per_row.sums()).enumerate() {
            assert!((a - b).abs() <= tol, "k={k}: {a} vs {b} (tol {tol})");
        }
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

    /// Records every accepted row, and rejects values above `max` the
    /// way a synopsis narrower than the schema does.
    #[derive(Default)]
    struct RecordingSink {
        rows: Vec<(Vec<i64>, f64)>,
        max: Option<i64>,
    }

    impl RowSink for RecordingSink {
        fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
            if let Some(max) = self.max.filter(|&m| values[0] > m) {
                return Err(SinkError::Reject(RejectCause::OutOfDomain {
                    column: 0,
                    value: values[0],
                    lo: 0,
                    hi: max,
                }));
            }
            self.rows.push((values.to_vec(), weight));
            Ok(())
        }

        fn finish(&mut self) -> Result<(), DctError> {
            Ok(())
        }
    }

    /// Everything one run produced: the report, the sidecar bytes, and
    /// the rows the sink accepted, in order.
    type Outcome = (IntakeReport, Vec<u8>, Vec<(Vec<i64>, f64)>);

    fn outcome(
        input: impl BufRead,
        schema: &Schema,
        opts: &IntakeOptions,
        block_bytes: usize,
    ) -> Result<Outcome, IntakeError> {
        let dir = std::env::temp_dir().join(format!("intake-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "{:?}-{block_bytes}-{}.rejects",
            std::thread::current().id(),
            opts.threads
        ));
        let mut ledger = RejectLedger::new(usize::MAX).with_sidecar(&path).unwrap();
        let mut sink = RecordingSink {
            max: Some(50),
            ..RecordingSink::default()
        };
        let report = run_blocks(input, schema, opts, &mut ledger, &mut sink, block_bytes);
        let sidecar = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        report.map(|r| (r, sidecar, sink.rows))
    }

    /// A schema for [`messy_input`]: an int key, a float weight column
    /// and a text column.
    fn messy_schema(header: bool) -> Schema {
        Schema {
            delimiter: b',',
            has_header: header,
            columns: vec![
                Column {
                    name: "k".into(),
                    ty: ColumnType::Int,
                    domain: Some((0, 99)),
                },
                Column {
                    name: "w".into(),
                    ty: ColumnType::Float { scale: 10 },
                    domain: None,
                },
                Column {
                    name: "t".into(),
                    ty: ColumnType::Text,
                    domain: None,
                },
            ],
        }
    }

    /// CRLF and bare `\r` line ends, quoted fields with delimiters and
    /// doubled quotes, invalid UTF-8, blank and whitespace lines, a line
    /// longer than every tiny block, bad values, sink rejects (keys over
    /// 50) — and no trailing newline.
    fn messy_input() -> Vec<u8> {
        let mut bytes = b"k,w,t\r\n".to_vec();
        for i in 0..60u32 {
            let line = match i % 10 {
                0 => format!("{},1.5,\"a,b\"\r\n", i),
                1 => format!("{},2,\"say \"\"hi\"\"\"\n", 99 - i),
                2 => "\n".to_string(),
                3 => format!("{},0.5,{}\n", i, "x".repeat(90)),
                4 => format!("{},nan,t\n", i),
                5 => format!("{},1,\"open\n", i),
                6 => format!(" {} ,2.5,t\r\r\n", i + 1),
                7 => format!("{},3\n", i),
                8 => "   \t\n".to_string(),
                _ => format!("{},-1,t\n", i * 3),
            };
            bytes.extend_from_slice(line.as_bytes());
            if i == 33 {
                bytes.extend_from_slice(&[b'4', 0xff, b',', b'1', b',', 0xc3, b'\r', b'\n']);
            }
        }
        bytes.extend_from_slice(b"7,2,tail");
        bytes
    }

    const BLOCK_SIZES: [usize; 5] = [1, 3, 7, 64, BLOCK_BYTES];

    #[test]
    fn every_worker_count_and_block_size_applies_rows_in_file_order() {
        let cases: [(&[u8], bool); 5] = [
            (&messy_input(), true),
            (&messy_input(), false),
            (b"", true),
            (b"", false),
            (b"1,1,x\n\n", false),
        ];
        for (input, header) in cases {
            let schema = messy_schema(header);
            let opts = IntakeOptions {
                weight: Some(1),
                ..IntakeOptions::default()
            };
            let serial = outcome(Cursor::new(input), &schema, &opts, BLOCK_BYTES).unwrap();
            if !input.is_empty() {
                assert!(
                    serial.0.rejected > 0 && serial.0.accepted > 0,
                    "{:?}",
                    serial.0
                );
            }
            for block_bytes in BLOCK_SIZES {
                for threads in [1, 2, 4] {
                    let opts = IntakeOptions {
                        threads,
                        ..opts.clone()
                    };
                    let got = outcome(Cursor::new(input), &schema, &opts, block_bytes).unwrap();
                    assert!(
                        got == serial,
                        "threads {threads}, blocks of {block_bytes}: {:?} vs {:?}",
                        got.0,
                        serial.0
                    );
                }
            }
        }
    }

    #[test]
    fn the_threshold_stops_at_the_same_row_at_every_worker_count() {
        let schema = messy_schema(true);
        let opts = IntakeOptions {
            weight: Some(1),
            reject_threshold: Some(0.3),
            threshold_min_rows: 20,
            ..IntakeOptions::default()
        };
        let serial = outcome(Cursor::new(messy_input()), &schema, &opts, BLOCK_BYTES).unwrap();
        assert!(serial.0.quarantined.is_some(), "{:?}", serial.0);
        assert!(serial.0.rows_seen < 61, "stopped early: {:?}", serial.0);
        for block_bytes in BLOCK_SIZES {
            for threads in [1, 2, 4] {
                let opts = IntakeOptions {
                    threads,
                    ..opts.clone()
                };
                let got = outcome(Cursor::new(messy_input()), &schema, &opts, block_bytes).unwrap();
                assert!(got == serial, "threads {threads}, blocks of {block_bytes}");
            }
        }
    }

    /// Serves `data` in reads of at most `chunk` bytes, then fails.
    struct FailingReader {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
    }

    impl std::io::Read for FailingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.data.len() {
                return Err(std::io::Error::other("device gone"));
            }
            let n = buf.len().min(self.chunk).min(self.data.len() - self.at);
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_error_comes_after_every_whole_line_before_it() {
        let schema = messy_schema(true);
        let data = messy_input();
        // The lines a reader of one line at a time would apply first.
        let whole = data.iter().rposition(|&b| b == b'\n').unwrap() + 1;
        let serial = outcome(
            Cursor::new(&data[..whole]),
            &schema,
            &IntakeOptions::default(),
            7,
        )
        .unwrap();
        for block_bytes in BLOCK_SIZES {
            for threads in [1, 2, 4] {
                let opts = IntakeOptions {
                    threads,
                    ..IntakeOptions::default()
                };
                let mut ledger = RejectLedger::new(usize::MAX);
                let mut sink = RecordingSink {
                    max: Some(50),
                    ..RecordingSink::default()
                };
                let reader = std::io::BufReader::with_capacity(
                    5,
                    FailingReader {
                        data: data.clone(),
                        at: 0,
                        chunk: 11,
                    },
                );
                let err = run_blocks(reader, &schema, &opts, &mut ledger, &mut sink, block_bytes)
                    .unwrap_err();
                assert!(matches!(err, IntakeError::Io(_)), "{err:?}");
                assert_eq!(
                    sink.rows, serial.2,
                    "threads {threads}, blocks {block_bytes}"
                );
                assert_eq!(ledger.total(), serial.0.rejected);
            }
        }
    }
}
