//! The rejects ledger: attributed, counted, never silent.
//!
//! Every malformed row an intake run sees is recorded here with its
//! 1-based data row number, the column it failed in (when one is
//! attributable), and a typed cause. The ledger keeps exact per-cause
//! counts, a capped sample of full [`Reject`] records for the report,
//! and optionally appends one greppable line per reject to a sidecar
//! file (`--rejects FILE`). Each reject also bumps the
//! `intake.rows_rejected_total{cause}` obs counter.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Why a row was rejected. Causes carry enough structure to reproduce
/// the judgement: which column, what was expected, which bound was
/// violated.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectCause {
    /// The physical line was empty or whitespace-only.
    BlankLine,
    /// The line was not valid UTF-8.
    Encoding {
        /// Byte offset of the first invalid sequence within the line.
        valid_up_to: usize,
    },
    /// A quoted field was unterminated or had junk after its closing
    /// quote.
    BadQuoting {
        /// 0-based column of the quoting error.
        column: usize,
        /// Human-readable detail from the splitter.
        detail: String,
    },
    /// The row had the wrong number of fields.
    WrongArity {
        /// Columns the schema defines.
        expected: usize,
        /// Fields the row actually had.
        got: usize,
    },
    /// A field did not parse under its column's declared type.
    BadValue {
        /// 0-based column of the offending field.
        column: usize,
        /// The type that was expected (`int`, `float`, `bool`, `weight`).
        expected: &'static str,
    },
    /// A field parsed but its normalized value fell outside the
    /// column's declared domain (or the target synopsis's domain).
    OutOfDomain {
        /// 0-based column of the offending field.
        column: usize,
        /// The normalized value.
        value: i64,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl RejectCause {
    /// Stable label used as the `cause` dimension of the
    /// `intake.rows_rejected_total` counter and in sidecar lines.
    pub fn label(&self) -> &'static str {
        match self {
            RejectCause::BlankLine => "blank-line",
            RejectCause::Encoding { .. } => "encoding",
            RejectCause::BadQuoting { .. } => "bad-quoting",
            RejectCause::WrongArity { .. } => "wrong-arity",
            RejectCause::BadValue { .. } => "bad-value",
            RejectCause::OutOfDomain { .. } => "out-of-domain",
        }
    }

    /// The 0-based column this cause attributes, when one exists.
    pub fn column(&self) -> Option<usize> {
        match self {
            RejectCause::BadQuoting { column, .. }
            | RejectCause::BadValue { column, .. }
            | RejectCause::OutOfDomain { column, .. } => Some(*column),
            _ => None,
        }
    }
}

impl fmt::Display for RejectCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectCause::BlankLine => f.write_str("blank line"),
            RejectCause::Encoding { valid_up_to } => {
                write!(f, "invalid UTF-8 after byte {valid_up_to}")
            }
            RejectCause::BadQuoting { column, detail } => {
                write!(f, "bad quoting in column {column}: {detail}")
            }
            RejectCause::WrongArity { expected, got } => {
                write!(f, "wrong arity: expected {expected} fields, got {got}")
            }
            RejectCause::BadValue { column, expected } => {
                write!(f, "column {column} does not parse as {expected}")
            }
            RejectCause::OutOfDomain {
                column,
                value,
                lo,
                hi,
            } => write!(
                f,
                "column {column} value {value} outside domain [{lo}, {hi}]"
            ),
        }
    }
}

/// One rejected row, fully attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// 1-based data row number (the header, when present, is row 0 and
    /// is never rejected — a malformed header is a schema mismatch).
    pub row: u64,
    /// Why the row was rejected.
    pub cause: RejectCause,
    /// A capped, lossy excerpt of the raw line for the report.
    pub snippet: String,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {}: {} | {:?}", self.row, self.cause, self.snippet)
    }
}

const SNIPPET_BYTES: usize = 80;

/// Render a capped, single-line excerpt of a raw (possibly non-UTF-8)
/// line for reports and sidecar files.
pub fn snippet(raw: &[u8]) -> String {
    let shown = &raw[..raw.len().min(SNIPPET_BYTES)];
    let mut s: String = String::from_utf8_lossy(shown)
        .chars()
        .map(|c| if c.is_control() { '·' } else { c })
        .collect();
    if raw.len() > SNIPPET_BYTES {
        s.push('…');
    }
    s
}

/// The ledger accumulating rejects during one intake run.
pub struct RejectLedger {
    counts: BTreeMap<&'static str, u64>,
    /// `intake.rows_rejected_total{cause}` handles, looked up once per
    /// cause: a `counter_add!` call site caches one handle, which would
    /// count every cause under the first one seen.
    counters: BTreeMap<&'static str, dctstream_obs::Counter>,
    sample: Vec<Reject>,
    sample_cap: usize,
    sidecar: Option<BufWriter<std::fs::File>>,
    total: u64,
}

impl fmt::Debug for RejectLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RejectLedger")
            .field("total", &self.total)
            .field("counts", &self.counts)
            .field("sidecar", &self.sidecar.is_some())
            .finish()
    }
}

impl RejectLedger {
    /// A ledger keeping at most `sample_cap` full reject records (exact
    /// counts are always kept).
    pub fn new(sample_cap: usize) -> Self {
        Self {
            counts: BTreeMap::new(),
            counters: BTreeMap::new(),
            sample: Vec::new(),
            sample_cap,
            sidecar: None,
            total: 0,
        }
    }

    /// Attach a sidecar file; every reject is appended as one line:
    /// `row=N col=C cause=LABEL detail="..." snippet="..."`.
    pub fn with_sidecar(mut self, path: &Path) -> io::Result<Self> {
        self.sidecar = Some(BufWriter::new(std::fs::File::create(path)?));
        Ok(self)
    }

    /// Record one reject. Never fails the run: sidecar write errors are
    /// deferred to [`RejectLedger::finish`].
    pub fn record(&mut self, row: u64, cause: RejectCause, raw: &[u8]) {
        let label = cause.label();
        if dctstream_obs::enabled() {
            self.counters
                .entry(label)
                .or_insert_with(|| {
                    dctstream_obs::global()
                        .counter_with("intake.rows_rejected_total", &[("cause", label)])
                })
                .add(1);
        }
        *self.counts.entry(label).or_insert(0) += 1;
        self.total += 1;
        let snip = snippet(raw);
        if let Some(w) = self.sidecar.as_mut() {
            let col = cause
                .column()
                .map_or_else(|| "-".to_string(), |c| c.to_string());
            // Best-effort: a full disk surfaces in finish(), not mid-run.
            let _ = writeln!(
                w,
                "row={row} col={col} cause={} detail={:?} snippet={snip:?}",
                cause.label(),
                cause.to_string(),
            );
        }
        if self.sample.len() < self.sample_cap {
            self.sample.push(Reject {
                row,
                cause,
                snippet: snip,
            });
        }
    }

    /// Total rejects recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact per-cause counts, label-sorted.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// The capped sample of full reject records.
    pub fn sample(&self) -> &[Reject] {
        &self.sample
    }

    /// Flush and close the sidecar (if any); returns the first deferred
    /// write error.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(mut w) = self.sidecar.take() {
            w.flush()?;
        }
        Ok(())
    }
}

/// The outcome of one intake run: exact accounting plus the reject
/// sample, rendered as a `verify`-style report.
#[derive(Debug, Clone, PartialEq)]
pub struct IntakeReport {
    /// Data rows seen (header excluded).
    pub rows_seen: u64,
    /// Rows accepted and fed to the sink.
    pub accepted: u64,
    /// Rows rejected (`rows_seen == accepted + rejected` always holds —
    /// when the reject-rate threshold stops a run early, unread input is
    /// simply not counted as seen).
    pub rejected: u64,
    /// Exact per-cause reject counts, label-sorted.
    pub by_cause: Vec<(String, u64)>,
    /// Capped sample of attributed rejects.
    pub sample: Vec<Reject>,
    /// `Some(reason)` when the reject-rate threshold was crossed and the
    /// run stopped early; the stream should be quarantined.
    pub quarantined: Option<String>,
}

impl IntakeReport {
    /// Assemble a report from a finished ledger.
    pub fn from_ledger(
        ledger: &RejectLedger,
        rows_seen: u64,
        accepted: u64,
        quarantined: Option<String>,
    ) -> Self {
        IntakeReport {
            rows_seen,
            accepted,
            rejected: ledger.total(),
            by_cause: ledger
                .counts()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            sample: ledger.sample().to_vec(),
            quarantined,
        }
    }

    /// Whether every row was accepted.
    pub fn is_clean(&self) -> bool {
        self.rejected == 0 && self.quarantined.is_none()
    }

    /// Render the `verify`-style human report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rows seen      {}\nrows accepted  {}\nrows rejected  {}\n",
            self.rows_seen, self.accepted, self.rejected
        ));
        if !self.by_cause.is_empty() {
            out.push_str("rejects by cause:\n");
            for (cause, n) in &self.by_cause {
                out.push_str(&format!("  {cause:<14} {n}\n"));
            }
        }
        if !self.sample.is_empty() {
            out.push_str(&format!(
                "first {} reject{}:\n",
                self.sample.len(),
                if self.sample.len() == 1 { "" } else { "s" }
            ));
            for r in &self.sample {
                out.push_str(&format!("  {r}\n"));
            }
        }
        if let Some(reason) = &self.quarantined {
            out.push_str(&format!("QUARANTINED: {reason}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_exactly_and_caps_the_sample() {
        let mut ledger = RejectLedger::new(2);
        for row in 1..=5u64 {
            ledger.record(
                row,
                RejectCause::WrongArity {
                    expected: 2,
                    got: 3,
                },
                b"a,b,c",
            );
        }
        ledger.record(
            6,
            RejectCause::BadValue {
                column: 1,
                expected: "int",
            },
            b"1,zebra",
        );
        assert_eq!(ledger.total(), 6);
        assert_eq!(ledger.counts()["wrong-arity"], 5, "counts stay exact");
        assert_eq!(ledger.counts()["bad-value"], 1);
        assert_eq!(ledger.sample().len(), 2, "sample is capped");
        assert_eq!(ledger.sample()[0].row, 1);
    }

    #[test]
    fn sidecar_lines_are_greppable_and_attributed() {
        let dir = std::env::temp_dir().join(format!("intake-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rejects.log");
        let mut ledger = RejectLedger::new(4).with_sidecar(&path).unwrap();
        ledger.record(
            3,
            RejectCause::OutOfDomain {
                column: 0,
                value: 999,
                lo: 1,
                hi: 100,
            },
            b"999,x",
        );
        ledger.record(7, RejectCause::BlankLine, b"");
        ledger.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("row=3 col=0 cause=out-of-domain"), "{text}");
        assert!(text.contains("row=7 col=- cause=blank-line"), "{text}");
        assert!(text.contains("999"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snippets_are_capped_and_control_free() {
        let long = vec![b'x'; 200];
        let s = snippet(&long);
        assert!(s.chars().count() <= SNIPPET_BYTES + 1);
        assert!(s.ends_with('…'));
        assert_eq!(snippet(b"a\tb\x07c"), "a·b·c", "controls replaced");
        assert_eq!(snippet(&[0xff, 0xfe, b'o', b'k']), "\u{fffd}\u{fffd}ok");
    }

    #[test]
    fn report_renders_accounting_and_quarantine() {
        let mut ledger = RejectLedger::new(8);
        ledger.record(
            2,
            RejectCause::Encoding { valid_up_to: 4 },
            &[b'a', b'b', 0xff],
        );
        let report = IntakeReport::from_ledger(&ledger, 10, 9, Some("reject rate 0.5".into()));
        assert!(!report.is_clean());
        let text = report.render();
        assert!(text.contains("rows seen      10"), "{text}");
        assert!(text.contains("encoding"), "{text}");
        assert!(text.contains("QUARANTINED: reject rate 0.5"), "{text}");
        let clean = IntakeReport::from_ledger(&RejectLedger::new(0), 5, 5, None);
        assert!(clean.is_clean());
    }
}
