//! # dctstream-replay
//!
//! Workload recording and replay for the serve daemon — the standing
//! load-test fixture:
//!
//! - [`trace`] — the `.dctt` format: CRC-framed register / ingest /
//!   estimate / chain records with tenant, payload, and
//!   arrival-timestamp deltas.
//! - [`gen`] — deterministic trace synthesis from a seed: Zipf-skewed
//!   tenant popularity (via `dctstream_datagen`), a configurable op
//!   mix, and exponential-ish arrival gaps.
//! - [`proxy`] — `dctstream record`: a recording proxy that forwards
//!   live traffic to an upstream daemon and appends every recognized
//!   operation to a trace.
//! - [`driver`] — `dctstream replay`: a closed/open-loop driver that
//!   plays a trace against a daemon over N connections at a time
//!   speedup, emitting per-route latency histograms (p50/p95/p99),
//!   throughput, error counts (429/503 attributed per tenant), and
//!   staleness distributions as JSON.
//!
//! Replay is deterministic by construction: operations are partitioned
//! across connections by their anchor stream's hash, so every stream's
//! update order is preserved no matter how many connections replay the
//! trace — the final registry state, and therefore every final
//! estimate, is bit-identical across runs and across `--connections`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod driver;
pub mod gen;
pub mod proxy;
pub mod trace;

pub use client::Client;
pub use driver::{replay, ReplayOptions, ReplayReport};
pub use gen::{synthesize, OpMix, SynthesisConfig};
pub use proxy::RecordingProxy;
pub use trace::{
    decode_trace, encode_trace, read_trace, write_trace, ChainLink, RegisterKind, TraceOp,
    TraceReader, TraceRecord, TraceWriter,
};

/// Everything that can go wrong recording or replaying a trace.
#[derive(Debug)]
pub enum ReplayError {
    /// An I/O failure on the trace file or a socket.
    Io(std::io::Error),
    /// The trace file is corrupt at `offset` (bad framing, checksum
    /// mismatch, truncation, malformed record).
    Corrupt {
        /// Byte offset of the offending frame or field.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A record too large for one trace frame; the writer refused it
    /// and wrote nothing.
    TooLarge(dctstream_obs::frame::OverCap),
    /// The server answered something the driver cannot interpret.
    Protocol(String),
    /// Bad configuration (speedup, connections, op mix, …).
    Config(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "trace I/O: {e}"),
            ReplayError::Corrupt { offset, detail } => {
                write!(f, "corrupt trace at byte {offset}: {detail}")
            }
            ReplayError::TooLarge(e) => {
                write!(f, "frame of {} bytes over the {}-byte cap", e.len, e.cap)
            }
            ReplayError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ReplayError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}
