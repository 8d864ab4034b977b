//! # dctstream-intake
//!
//! The typed, schema-aware streaming front end of the `dctstream`
//! workspace. Every ingest path used to assume clean numeric CSV, so a
//! single bad row in a million-row file was a hard error (or worse, a
//! silent skip). This crate makes malformed input a *first-class,
//! attributed* outcome:
//!
//! - [`schema`] — typed column definitions (`int`, `float:SCALE`, `bool`,
//!   `text`) with optional per-column domains, serialized to a
//!   line-oriented `.schema` file.
//! - [`probe`](mod@probe) — schema inference by sampled probing: read the first N
//!   rows (or the whole file), narrow each column's type, record observed
//!   domains, and auto-detect a header row.
//! - [`csv`] — delimiter/quoting-aware field splitting (RFC-4180-style
//!   double quotes, single-line records) that reports *which column* a
//!   quoting error occurred in.
//! - [`reject`] — the rejects ledger: every malformed row is recorded
//!   with row-number/column/cause attribution, counted per cause in the
//!   `intake.rows_rejected_total{cause}` obs counter, optionally appended
//!   to a `--rejects` sidecar file, and summarized in an
//!   [`IntakeReport`] — never a panic, never a
//!   silent skip.
//! - [`run`](mod@run) — the streaming driver: decode bytes → split fields → check
//!   arity → normalize values → feed a [`RowSink`]
//!   (`ParallelIngest`-batched synopses, or the group-commit WAL via
//!   `DurableProcessor`), with a
//!   configurable reject-rate threshold that quarantines the stream
//!   through the existing `HealthRegistry` when crossed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csv;
pub mod probe;
pub mod reject;
pub mod run;
pub mod schema;

pub use csv::{parse_delimiter, split_fields, split_fields_into, RawField, SplitError};
pub use probe::{probe, ProbeOptions, ProbeReport};
pub use reject::{IntakeReport, Reject, RejectCause, RejectLedger};
pub use run::{
    run, CosineSink, CountSink, DurableSink, IntakeError, IntakeOptions, MultiSink, RowSink,
    SinkError,
};
pub use schema::{Column, ColumnType, Schema, SchemaError, ValueError};
