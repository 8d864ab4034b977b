//! # dctstream-cli
//!
//! The `dctstream` command-line tool: build cosine synopses from CSV
//! streams, persist them in the `dctstream-core::persist` wire format,
//! merge shards, and answer join / self-join / range estimates — the
//! whole paper pipeline without writing Rust.
//!
//! ```text
//! dctstream build  --input r1.csv --column 0 --domain 0:99999 -m 512 --out r1.dcts
//! dctstream build2 --input r2.csv --columns 0,1 --domains 0:99,0:45 --degree 24 --out r2.dcts
//! dctstream info   r1.dcts
//! dctstream join   r1.dcts r3.dcts [--budget 256]
//! dctstream chain  r1.dcts r2.dcts r3.dcts [--budget 256]
//! dctstream range  r1.dcts --from 10 --to 500
//! dctstream selfjoin r1.dcts
//! dctstream merge  shard1.dcts shard2.dcts … --out merged.dcts
//! dctstream checkpoint orders=r1.dcts parts=r2.dcts --out registry.dctr
//! dctstream restore registry.dctr [--extract dir/]
//! dctstream build  --input r1.csv --column 0 --domain 0:99999 -m 512 --out r1.dcts --wal-dir wal/
//! dctstream wal-replay wal/ [--checkpoint]
//! dctstream health wal/
//! dctstream scrub  wal/
//! dctstream repair wal/ [STREAM]... [--checkpoint]
//! ```
//!
//! The command layer is a library (`run` + `Command`), so every code path
//! is unit-testable without spawning processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use bytes::Bytes;
use dctstream_core::persist::{peek_kind, KIND_COSINE};
use dctstream_core::{
    estimate_band_join, estimate_chain_join, estimate_equi_join, ChainLink, CosineSynopsis,
    DctError, Domain, Grid, MultiDimSynopsis,
};
use dctstream_intake::{
    probe as intake_probe, run as intake_run, Column, ColumnType, CosineSink, CountSink,
    DurableSink, IntakeError, IntakeOptions, IntakeReport, MultiSink, ProbeOptions, RejectLedger,
    RowSink, Schema,
};
use dctstream_stream::{
    read_checkpoint, write_checkpoint, DurableProcessor, FleetOptions, HealthCause, ParallelIngest,
    ShardedRegistry, StreamProcessor, Summary,
};
use std::fmt::Write as _;
use std::fs;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// CLI errors: either a usage problem or an underlying estimation /
/// IO failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is the message shown to the user.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Core-library failure.
    Dct(DctError),
    /// Command output did not match the expected shape.
    Parse(String),
    /// The intake reject-rate threshold tripped: the stream was
    /// quarantined and no synopsis was written. The string is the full
    /// rejects report.
    Quarantined(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Dct(e) => write!(f, "{e}"),
            CliError::Parse(m) => write!(f, "output parse error: {m}"),
            CliError::Quarantined(m) => write!(f, "intake quarantined the stream:\n{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<DctError> for CliError {
    fn from(e: DctError) -> Self {
        CliError::Dct(e)
    }
}

impl From<IntakeError> for CliError {
    fn from(e: IntakeError) -> Self {
        match e {
            IntakeError::Io(e) => CliError::Io(e),
            IntakeError::Sink(e) => CliError::Dct(e),
        }
    }
}

/// Result alias for CLI operations.
pub type CliResult<T> = std::result::Result<T, CliError>;

/// Write one line to stdout, reporting failure instead of panicking.
///
/// Every stdout write in the binary funnels through here so that a
/// downstream reader closing early (`dctstream stats | head -1`) is an
/// ordinary [`std::io::ErrorKind::BrokenPipe`] the caller maps to a
/// clean exit — not a `println!` panic.
pub fn emit_line(line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    out.write_all(line.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()
}

/// Optional typed-intake settings shared by `build` and `build2`, which
/// read CSV only through the typed intake layer: malformed rows become
/// ledger rejects instead of hard errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntakeFlags {
    /// `.schema` file to read the input under. Without one, the schema
    /// is implied by the input's first line: its field count is the
    /// arity, the target columns are `int`, and the rest are `text`.
    pub schema: Option<PathBuf>,
    /// Append every reject as one attributed line to this sidecar file.
    pub rejects: Option<PathBuf>,
    /// Delimiter override (single char, or tab/comma/semicolon/pipe).
    pub delimiter: Option<String>,
    /// Quarantine the stream when `rejected/seen` exceeds this.
    pub reject_threshold: Option<f64>,
}

/// A parsed command, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Build a 1-d synopsis from one CSV column.
    Build {
        /// CSV input path.
        input: PathBuf,
        /// Zero-based column index.
        column: usize,
        /// Attribute domain.
        domain: (i64, i64),
        /// Coefficients to keep.
        m: usize,
        /// Output synopsis path.
        out: PathBuf,
        /// Skip the first line.
        skip_header: bool,
        /// Worker threads for parsing the input and for the one
        /// coalesced flush (1 = serial).
        threads: usize,
        /// Route every tuple through a write-ahead-logged registry in
        /// this directory (crash-durable ingestion).
        wal_dir: Option<PathBuf>,
        /// Typed-intake settings (`--schema` et al.).
        intake: IntakeFlags,
    },
    /// Build a 2-d synopsis from two CSV columns.
    Build2 {
        /// CSV input path.
        input: PathBuf,
        /// Zero-based column indexes.
        columns: (usize, usize),
        /// Per-column domains.
        domains: ((i64, i64), (i64, i64)),
        /// Triangular degree.
        degree: usize,
        /// Output synopsis path.
        out: PathBuf,
        /// Skip the first line.
        skip_header: bool,
        /// Typed-intake settings (`--schema` et al.).
        intake: IntakeFlags,
    },
    /// Infer a `.schema` file from sampled rows of a CSV input.
    Probe {
        /// CSV input path (`-` reads stdin).
        input: PathBuf,
        /// Delimiter spec (default `,`).
        delimiter: Option<String>,
        /// Rows to sample (0 scans the whole input).
        sample_rows: usize,
        /// Force header presence (`--header` / `--no-header`); `None`
        /// auto-detects.
        header: Option<bool>,
        /// Write the schema here instead of printing it.
        out: Option<PathBuf>,
    },
    /// Check a CSV input against a schema, reporting every reject with
    /// row/column/cause attribution without ingesting anything.
    Verify {
        /// CSV input path (`-` reads stdin).
        input: PathBuf,
        /// `.schema` file to verify against.
        schema: PathBuf,
        /// Append attributed reject lines to this sidecar file.
        rejects: Option<PathBuf>,
        /// Delimiter override.
        delimiter: Option<String>,
        /// Stop early when `rejected/seen` exceeds this.
        reject_threshold: Option<f64>,
    },
    /// Describe a synopsis file.
    Info {
        /// Synopsis path.
        path: PathBuf,
    },
    /// Estimate an equi-join of two 1-d synopses.
    Join {
        /// Left synopsis.
        left: PathBuf,
        /// Right synopsis.
        right: PathBuf,
        /// Optional per-relation coefficient cap.
        budget: Option<usize>,
    },
    /// Estimate a chain join: 1-d, 2-d…, 1-d synopses.
    Chain {
        /// Synopsis paths in chain order.
        paths: Vec<PathBuf>,
        /// Optional per-relation coefficient cap.
        budget: Option<usize>,
    },
    /// Estimate a range count on a 1-d synopsis.
    Range {
        /// Synopsis path.
        path: PathBuf,
        /// Inclusive lower bound.
        from: i64,
        /// Inclusive upper bound.
        to: i64,
    },
    /// Self-join (second frequency moment) of a 1-d synopsis.
    SelfJoin {
        /// Synopsis path.
        path: PathBuf,
    },
    /// Band (non-equi) join `|a − b| ≤ width` of two 1-d synopses.
    Band {
        /// Left synopsis.
        left: PathBuf,
        /// Right synopsis.
        right: PathBuf,
        /// Band width.
        width: i64,
    },
    /// Box-range count on a 2-d synopsis.
    Box {
        /// Synopsis path.
        path: PathBuf,
        /// Inclusive lower corner `a,b`.
        lo: (i64, i64),
        /// Inclusive upper corner `a,b`.
        hi: (i64, i64),
    },
    /// Merge shard synopses (same domain/grid/m) into one.
    Merge {
        /// Input shard paths.
        inputs: Vec<PathBuf>,
        /// Output synopsis path.
        out: PathBuf,
        /// Merge worker threads (1 = serial pairwise merge).
        threads: usize,
    },
    /// Bundle summary files into a durable registry checkpoint.
    Checkpoint {
        /// `(stream name, summary file)` pairs to register.
        streams: Vec<(String, PathBuf)>,
        /// Standalone checkpoint manifest output path.
        out: Option<PathBuf>,
        /// Register the streams into a write-ahead-logged registry in
        /// this directory and checkpoint it there instead.
        wal_dir: Option<PathBuf>,
    },
    /// Validate a registry checkpoint and report (or extract) its streams.
    Restore {
        /// Checkpoint manifest path.
        path: PathBuf,
        /// Directory to write each stream's summary payload into.
        extract: Option<PathBuf>,
    },
    /// Recover a write-ahead-logged registry directory and report what
    /// the checkpoint + WAL replay reconstructed.
    WalReplay {
        /// Registry directory (checkpoint manifest + WAL segments).
        dir: PathBuf,
        /// Write a fresh checkpoint after replay, retiring covered
        /// WAL segments.
        checkpoint: bool,
    },
    /// Report the per-stream health of a write-ahead-logged registry.
    Health {
        /// Registry directory.
        dir: PathBuf,
    },
    /// Integrity-scrub a registry: audit live summaries and re-verify
    /// checkpoint + WAL checksums, demoting damaged streams.
    Scrub {
        /// Registry directory.
        dir: PathBuf,
    },
    /// Repair quarantined streams from the checkpoint + WAL.
    Repair {
        /// Registry directory.
        dir: PathBuf,
        /// Streams to repair (empty = every quarantined stream).
        streams: Vec<String>,
        /// Write a checkpoint after repairing, persisting the healed
        /// state and retiring covered WAL segments.
        checkpoint: bool,
    },
    /// Report the process-wide observability metrics, optionally merged
    /// with the cumulative counters persisted in a registry directory's
    /// checkpoint manifest.
    Stats {
        /// Registry directory whose manifest counters to merge in (as
        /// `registry.*`), if any.
        dir: Option<PathBuf>,
        /// Output format.
        format: StatsFormat,
    },
    /// Run the multi-tenant estimation daemon over a durable registry
    /// directory until a termination signal or `POST /v1/shutdown`.
    Serve {
        /// Registry directory (created/recovered via the WAL layer).
        dir: PathBuf,
        /// Listen address, e.g. `127.0.0.1:7171` (`:0` for ephemeral).
        listen: String,
        /// Worker threads serving connections.
        workers: usize,
        /// Pending-connection queue depth (admission control).
        queue_depth: usize,
        /// Applied updates between snapshot publishes.
        publish_every: u64,
        /// Shard count for fleet mode (`0` = single registry).
        shards: usize,
        /// Estimate-cache capacity (`0` disables).
        estimate_cache: usize,
        /// Per-tenant in-flight quota (`0` = auto).
        tenant_quota: usize,
        /// Fair per-tenant admission (round-robin requeue + quotas).
        fair: bool,
    },
    /// Record a `.dctt` workload trace: synthesize one from a seed, or
    /// proxy live traffic to an upstream daemon and capture it.
    Record {
        /// Trace file to write.
        out: PathBuf,
        /// Proxy mode: local port to listen on (0 = ephemeral).
        listen: Option<u16>,
        /// Proxy mode: upstream daemon address.
        upstream: Option<String>,
        /// Synthesis knobs (ignored in proxy mode).
        cfg: dctstream_replay::SynthesisConfig,
    },
    /// Replay a recorded `.dctt` trace against a daemon and report
    /// per-route latency, throughput, and staleness.
    Replay {
        /// Trace file to replay.
        trace: PathBuf,
        /// Registry directory to self-host a scratch daemon over
        /// (mutually exclusive with `addr`).
        dir: Option<PathBuf>,
        /// Address of an already-running daemon.
        addr: Option<String>,
        /// Shard count for the self-hosted daemon (`0` = single).
        shards: usize,
        /// Concurrent replay connections.
        connections: usize,
        /// Open-loop time scale (recorded gaps divided by it).
        speedup: f64,
        /// Replay back-to-back, ignoring recorded arrival times.
        closed: bool,
        /// Emit the report as JSON instead of a table.
        json: bool,
    },
    /// Create a sharded registry fleet (per-shard WAL lineage + warm
    /// follower) under a directory.
    FleetInit {
        /// Fleet root directory.
        dir: PathBuf,
        /// Number of shards.
        shards: usize,
    },
    /// Report per-shard fleet status: epoch, liveness, published
    /// watermark, and follower staleness.
    FleetStatus {
        /// Fleet root directory.
        dir: PathBuf,
    },
    /// Run bounded WAL-segment shipping rounds until every follower is
    /// at parity with its primary.
    FleetShip {
        /// Fleet root directory.
        dir: PathBuf,
    },
    /// Promote a shard's follower to primary (only when the primary
    /// cannot be recovered), stamping a new epoch into the manifest.
    FleetPromote {
        /// Fleet root directory.
        dir: PathBuf,
        /// Shard to promote.
        shard: usize,
    },
    /// Re-render the metrics table on an interval, tailing recent spans.
    Watch {
        /// Registry directory whose manifest counters to merge in, if
        /// any.
        dir: Option<PathBuf>,
        /// Milliseconds between frames.
        interval_ms: u64,
        /// Frames to render before exiting (None = until interrupted).
        iterations: Option<u64>,
    },
}

/// How `stats` renders the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable table (the default).
    Table,
    /// Hand-rolled JSON document.
    Json,
    /// Prometheus text exposition format.
    Prom,
}

/// The usage text.
pub fn usage() -> &'static str {
    "usage: dctstream <command> [options]\n\
     commands:\n\
       build    --input F --column I --domain LO:HI -m M --out F [--skip-header] [--threads N]\n\
                [--wal-dir DIR] [--schema F] [--rejects F] [--delimiter D] [--reject-threshold R]\n\
       build2   --input F --columns I,J --domains LO:HI,LO:HI --degree D --out F [--skip-header]\n\
                [--schema F] [--rejects F] [--delimiter D] [--reject-threshold R]\n\
       probe    INPUT [--delimiter D] [--sample-rows N|--full-scan] [--header|--no-header] [--out F]\n\
       verify   INPUT --schema F [--rejects F] [--delimiter D] [--reject-threshold R]\n\
       info     <synopsis>\n\
       join     <left> <right> [--budget N]\n\
       chain    <end> <mid>... <end> [--budget N]\n\
       range    <synopsis> --from LO --to HI\n\
       selfjoin <synopsis>\n\
       band     <left> <right> --width W\n\
       box      <synopsis2d> --lo A,B --hi A,B\n\
       merge    <shard>... --out F [--threads N]\n\
       checkpoint NAME=FILE... [--out F] [--wal-dir DIR]\n\
       restore  <checkpoint> [--extract DIR]\n\
       wal-replay <dir> [--checkpoint]\n\
       health   <dir>\n\
       scrub    <dir>\n\
       repair   <dir> [STREAM]... [--checkpoint]\n\
       stats    [DIR] [--json|--prom]\n\
       watch    [DIR] [--interval MS] [--iterations N]\n\
       serve    DIR [--listen ADDR] [--workers N] [--queue N] [--publish-every N] [--shards N]\n\
                [--cache N] [--tenant-quota N] [--no-fair]\n\
       record   --out F [--seed S] [--ops N] [--tenants N] [--streams N] [--zipf Z]\n\
                [--mix I:E:C] [--rows N] [--domain N] [--m N] [--degree N] [--gap-us N]\n\
       record   --out F --listen PORT --upstream ADDR\n\
       replay   TRACE (DIR [--shards N] | --addr ADDR) [--connections N] [--speedup X]\n\
                [--closed] [--json]\n\
       fleet-init    DIR --shards N\n\
       fleet-status  DIR\n\
       fleet-ship    DIR\n\
       fleet-promote DIR --shard I\n\
     build coalesces accepted rows into one net weight per value and\n\
     applies them in one flush; --threads N parses the input on N workers\n\
     (rows still reach the synopsis, WAL and --rejects in file order) and\n\
     splits that flush (and merge's combining) across N shard-and-merge\n\
     worker threads (exact up to floating-point rounding; N=1 is the\n\
     serial path)\n\
     probe infers a typed .schema (int/float/bool/text columns, observed\n\
     domains, header detection) from the first N rows; verify checks a\n\
     file against a schema and reports every reject with row/column/cause\n\
     attribution; build*/probe/verify read stdin when INPUT is '-'\n\
     build* read CSV through the typed intake layer: malformed rows\n\
     (wrong arity, bad values, out-of-domain, bad quoting/encoding, blank\n\
     lines) land in the rejects ledger (--rejects writes one line per\n\
     reject) instead of failing the build; --reject-threshold R\n\
     quarantines the stream and aborts when rejected/seen exceeds R;\n\
     without --schema the input's first line implies one (its field\n\
     count on --delimiter is the arity, target columns are int, the rest\n\
     text); unknown flags and stray arguments are usage errors\n\
     checkpoint bundles summary files into one checksummed manifest;\n\
     restore validates it and reports (or --extract's) every stream\n\
     --wal-dir DIR (build, checkpoint) write-ahead logs every event into\n\
     DIR so a crash mid-ingest loses nothing past the last synced record\n\
     (build --wal-dir writes the same bytes as the plain serial build,\n\
     at any --threads);\n\
     wal-replay recovers DIR and reports (or --checkpoint's) the result;\n\
     health reports each stream's supervisor state, scrub audits live\n\
     summaries and durable checksums (demoting damaged streams), repair\n\
     rebuilds quarantined streams from checkpoint + WAL and re-verifies\n\
     them before promoting back to healthy\n\
     stats prints this process's ingest/estimate/WAL/health metrics as a\n\
     table (--json / --prom for machine formats); given a registry DIR it\n\
     also merges the cumulative registry.* counters persisted in the\n\
     checkpoint manifest; watch re-renders the table every --interval MS\n\
     (default 1000) and tails recent spans\n\
     serve recovers DIR and answers HTTP queries on --listen (default\n\
     127.0.0.1:7171) while ingest keeps running: writers append through\n\
     the group-commit WAL, readers estimate against epoch-stamped\n\
     snapshots (staleness reported per answer); SIGTERM/SIGINT drain,\n\
     checkpoint, and exit; --shards N serves a sharded fleet instead\n\
     (hash-routed ingest, merged answers with degraded attribution);\n\
     --cache N caps the epoch-keyed estimate cache (0 disables it),\n\
     --tenant-quota N caps each tenant's in-flight requests (0 = auto),\n\
     --no-fair disables per-tenant fair admission (quotas + round-robin)\n\
     record synthesizes a seeded Zipf-skewed workload trace (.dctt), or\n\
     with --listen/--upstream proxies live traffic to a daemon and\n\
     captures every accepted operation until SIGTERM/SIGINT\n\
     replay drives a trace against a daemon (self-hosted over DIR, or\n\
     --addr for a running one) over --connections keep-alive conns,\n\
     open-loop at --speedup X or --closed back-to-back, and reports\n\
     per-route p50/p95/p99 latency, throughput, per-tenant 429/503\n\
     attribution, and staleness (--json for machines); replay order is\n\
     partitioned by stream so final estimates are bit-identical across\n\
     runs and connection counts\n\
     fleet-init creates an N-shard fleet (per-shard WAL lineage plus a\n\
     warm follower fed by segment shipping); fleet-status reports each\n\
     shard's epoch, liveness, and follower staleness; fleet-ship drains\n\
     shipping to parity; fleet-promote replays a dead shard's shipped\n\
     tail, verifies it, and installs the follower as the new primary"
}

/// Flags that take no value; every other `--name` (or `-name`) consumes
/// the next argument.
const SWITCHES: &[&str] = &[
    "skip-header",
    "header",
    "no-header",
    "full-scan",
    "checkpoint",
    "json",
    "prom",
    "no-fair",
    "closed",
];

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Split `A<sep>B` and parse both halves.
fn pair<T: std::str::FromStr>(s: &str, sep: char) -> Option<(T, T)> {
    let (a, b) = s.split_once(sep)?;
    Some((a.trim().parse().ok()?, b.trim().parse().ok()?))
}

fn parse_domain(s: &str) -> CliResult<(i64, i64)> {
    match pair(s, ':') {
        Some((lo, hi)) if lo <= hi => Ok((lo, hi)),
        Some((lo, hi)) => Err(usage_err(format!("empty domain {lo}:{hi}"))),
        None => Err(usage_err(format!("domain '{s}' must be LO:HI"))),
    }
}

/// One subcommand's arguments. Each flag, switch and positional is
/// removed as the subcommand reads it; [`Flags::done`] then rejects
/// whatever is left, so a misspelled flag or a stray argument is a usage
/// error rather than silently ignored.
struct Flags {
    cmd: String,
    named: Vec<(String, String)>,
    switches: Vec<String>,
    positional: std::collections::VecDeque<String>,
}

impl Flags {
    fn new(cmd: &str, args: &[String]) -> CliResult<Flags> {
        let mut f = Flags {
            cmd: cmd.to_string(),
            named: Vec::new(),
            switches: Vec::new(),
            positional: Default::default(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            // `-m` and `--m` are one flag; a bare `-` is a positional
            // (stdin).
            let name = a.strip_prefix("--").or_else(|| a.strip_prefix('-'));
            match name.filter(|n| !n.is_empty()) {
                None => f.positional.push_back(a.clone()),
                Some(n) if SWITCHES.contains(&n) => f.switches.push(n.to_string()),
                Some(n) => {
                    let v = it
                        .next()
                        .ok_or_else(|| usage_err(format!("--{n} needs a value")))?;
                    f.named.push((n.to_string(), v.clone()));
                }
            }
        }
        Ok(f)
    }

    /// Optional `--name`, parsed; the last occurrence wins.
    fn opt<T: std::str::FromStr>(&mut self, name: &str) -> CliResult<Option<T>> {
        let mut last = None;
        self.named.retain(|(n, v)| {
            let hit = n == name;
            if hit {
                last = Some(v.clone());
            }
            !hit
        });
        last.map(|v| {
            v.parse()
                .map_err(|_| usage_err(format!("bad value '{v}' for --{name}")))
        })
        .transpose()
    }

    /// Required `--name`, parsed.
    fn req<T: std::str::FromStr>(&mut self, name: &str) -> CliResult<T> {
        self.opt(name)?
            .ok_or_else(|| usage_err(format!("missing --{name}")))
    }

    /// Optional `--name` whose parsed value must satisfy `ok`.
    fn checked<T: std::str::FromStr>(
        &mut self,
        name: &str,
        ok: impl Fn(&T) -> bool,
        want: &str,
    ) -> CliResult<Option<T>> {
        match self.opt(name)? {
            Some(v) if !ok(&v) => Err(usage_err(format!("--{name} must be {want}"))),
            v => Ok(v),
        }
    }

    /// Optional `--name` that must be at least 1.
    fn count<T: std::str::FromStr + PartialOrd + From<u8>>(
        &mut self,
        name: &str,
    ) -> CliResult<Option<T>> {
        self.checked(name, |n| *n >= T::from(1), "at least 1")
    }

    /// Optional `--name` in `[0, 1]`.
    fn ratio(&mut self, name: &str) -> CliResult<Option<f64>> {
        self.checked(name, |t| (0.0..=1.0).contains(t), "in [0, 1]")
    }

    /// Required `--name` of the form `A<sep>B`.
    fn req_pair<T: std::str::FromStr>(&mut self, name: &str, sep: char) -> CliResult<(T, T)> {
        let v: String = self.req(name)?;
        pair(&v, sep).ok_or_else(|| usage_err(format!("bad value '{v}' for --{name}")))
    }

    /// Whether switch `--name` was given.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.switches.len();
        self.switches.retain(|s| s != name);
        self.switches.len() != before
    }

    /// The next positional argument, described by `what` when missing.
    fn arg<T: From<String>>(&mut self, what: &str) -> CliResult<T> {
        match self.positional.pop_front() {
            Some(a) => Ok(a.into()),
            None => Err(usage_err(format!("{} needs {what}", self.cmd))),
        }
    }

    /// The next positional argument, if any.
    fn opt_arg<T: From<String>>(&mut self) -> Option<T> {
        self.positional.pop_front().map(T::from)
    }

    /// Every remaining positional argument; at least `min` of them.
    fn rest<T: From<String>>(&mut self, min: usize, what: &str) -> CliResult<Vec<T>> {
        if self.positional.len() < min {
            return Err(usage_err(format!("{} needs {what}", self.cmd)));
        }
        Ok(self.positional.drain(..).map(T::from).collect())
    }

    /// The shared typed-intake flags of `build` and `build2`.
    fn intake(&mut self) -> CliResult<IntakeFlags> {
        Ok(IntakeFlags {
            schema: self.opt("schema")?,
            rejects: self.opt("rejects")?,
            delimiter: self.opt("delimiter")?,
            reject_threshold: self.ratio("reject-threshold")?,
        })
    }

    /// Fail on the first flag, switch or positional nobody consumed.
    fn done(self) -> CliResult<()> {
        let cmd = &self.cmd;
        if let Some(n) = self.named.first().map(|(n, _)| n).or(self.switches.first()) {
            return Err(usage_err(format!("unknown flag --{n} for {cmd}")));
        }
        match self.positional.front() {
            Some(p) => Err(usage_err(format!("unexpected argument '{p}' for {cmd}"))),
            None => Ok(()),
        }
    }
}

/// Parse a command line (without the program name).
pub fn parse(args: &[String]) -> CliResult<Command> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| usage_err("no command given"))?;
    let mut f = Flags::new(cmd, rest)?;
    let command = match cmd.as_str() {
        "build" => {
            let threads = f.count("threads")?.unwrap_or(1);
            let wal_dir = f.opt("wal-dir")?;
            Command::Build {
                input: f.req("input")?,
                column: f.req("column")?,
                domain: parse_domain(&f.req::<String>("domain")?)?,
                m: f.req("m")?,
                out: f.req("out")?,
                skip_header: f.switch("skip-header"),
                threads,
                wal_dir,
                intake: f.intake()?,
            }
        }
        "build2" => {
            let (d0, d1) = f.req_pair::<String>("domains", ',')?;
            Command::Build2 {
                input: f.req("input")?,
                columns: f.req_pair("columns", ',')?,
                domains: (parse_domain(&d0)?, parse_domain(&d1)?),
                degree: f.req("degree")?,
                out: f.req("out")?,
                skip_header: f.switch("skip-header"),
                intake: f.intake()?,
            }
        }
        "probe" => {
            let header = match (f.switch("header"), f.switch("no-header")) {
                (true, true) => {
                    return Err(usage_err("--header and --no-header are mutually exclusive"))
                }
                (true, false) => Some(true),
                (false, true) => Some(false),
                (false, false) => None,
            };
            let sample_rows = match (f.opt("sample-rows")?, f.switch("full-scan")) {
                (Some(_), true) => {
                    return Err(usage_err(
                        "--sample-rows and --full-scan are mutually exclusive",
                    ))
                }
                (Some(n), false) => n,
                (None, true) => 0,
                (None, false) => 2000,
            };
            Command::Probe {
                input: f.arg("an input path ('-' for stdin)")?,
                delimiter: f.opt("delimiter")?,
                sample_rows,
                header,
                out: f.opt("out")?,
            }
        }
        "verify" => Command::Verify {
            input: f.arg("an input path ('-' for stdin)")?,
            schema: f.req("schema")?,
            rejects: f.opt("rejects")?,
            delimiter: f.opt("delimiter")?,
            reject_threshold: f.ratio("reject-threshold")?,
        },
        "info" => Command::Info {
            path: f.arg("a synopsis path")?,
        },
        "join" => Command::Join {
            left: f.arg("two synopsis paths")?,
            right: f.arg("two synopsis paths")?,
            budget: f.opt("budget")?,
        },
        "chain" => Command::Chain {
            paths: f.rest(2, "at least two synopsis paths")?,
            budget: f.opt("budget")?,
        },
        "range" => Command::Range {
            path: f.arg("a synopsis path")?,
            from: f.req("from")?,
            to: f.req("to")?,
        },
        "selfjoin" => Command::SelfJoin {
            path: f.arg("a synopsis path")?,
        },
        "band" => Command::Band {
            left: f.arg("two synopsis paths")?,
            right: f.arg("two synopsis paths")?,
            width: f.req("width")?,
        },
        "box" => Command::Box {
            path: f.arg("a synopsis path")?,
            lo: f.req_pair("lo", ',')?,
            hi: f.req_pair("hi", ',')?,
        },
        "merge" => Command::Merge {
            inputs: f.rest(1, "at least one shard")?,
            out: f.req("out")?,
            threads: f.count("threads")?.unwrap_or(1),
        },
        "checkpoint" => {
            let out = f.opt("out")?;
            let wal_dir = f.opt("wal-dir")?;
            if out.is_none() && wal_dir.is_none() {
                return Err(usage_err(
                    "checkpoint needs --out FILE, --wal-dir DIR, or both",
                ));
            }
            let mut streams = Vec::new();
            for p in f.rest::<String>(1, "at least one NAME=FILE pair")? {
                match p.split_once('=') {
                    Some((name, path)) if !name.is_empty() => {
                        streams.push((name.to_string(), PathBuf::from(path)))
                    }
                    _ => return Err(usage_err(format!("'{p}' must be NAME=FILE"))),
                }
            }
            Command::Checkpoint {
                streams,
                out,
                wal_dir,
            }
        }
        "restore" => Command::Restore {
            path: f.arg("a checkpoint path")?,
            extract: f.opt("extract")?,
        },
        "wal-replay" => Command::WalReplay {
            dir: f.arg("a registry directory")?,
            checkpoint: f.switch("checkpoint"),
        },
        "health" => Command::Health {
            dir: f.arg("a registry directory")?,
        },
        "scrub" => Command::Scrub {
            dir: f.arg("a registry directory")?,
        },
        "repair" => Command::Repair {
            dir: f.arg("a registry directory")?,
            streams: f.rest(0, "stream names")?,
            checkpoint: f.switch("checkpoint"),
        },
        "stats" => Command::Stats {
            format: match (f.switch("json"), f.switch("prom")) {
                (true, true) => return Err(usage_err("--json and --prom are exclusive")),
                (true, false) => StatsFormat::Json,
                (false, true) => StatsFormat::Prom,
                (false, false) => StatsFormat::Table,
            },
            dir: f.opt_arg(),
        },
        "watch" => Command::Watch {
            dir: f.opt_arg(),
            interval_ms: f.opt("interval")?.unwrap_or(1000),
            iterations: f.opt("iterations")?,
        },
        "serve" => Command::Serve {
            dir: f.arg("a registry directory")?,
            listen: f.opt("listen")?.unwrap_or_else(|| "127.0.0.1:7171".into()),
            workers: f.count("workers")?.unwrap_or(4),
            queue_depth: f.count("queue")?.unwrap_or(64),
            publish_every: f.count("publish-every")?.unwrap_or(1024),
            shards: f.count("shards")?.unwrap_or(0),
            estimate_cache: f.opt("cache")?.unwrap_or(1024),
            tenant_quota: f.opt("tenant-quota")?.unwrap_or(0),
            fair: !f.switch("no-fair"),
        },
        "record" => {
            let out = f.req("out")?;
            let listen: Option<u16> = f.opt("listen")?;
            let upstream: Option<String> = f.opt("upstream")?;
            if listen.is_some() != upstream.is_some() {
                return Err(usage_err("proxy mode needs both --listen and --upstream"));
            }
            let d = dctstream_replay::SynthesisConfig::default();
            let mix = match f.opt::<String>("mix")? {
                None => d.mix,
                Some(v) => {
                    let parts: Result<Vec<u32>, _> = v.split(':').map(str::parse).collect();
                    match parts.as_deref() {
                        Ok(&[ingest, estimate, chain]) => dctstream_replay::OpMix {
                            ingest,
                            estimate,
                            chain,
                        },
                        _ => {
                            return Err(usage_err(format!(
                                "bad --mix '{v}': want INGEST:ESTIMATE:CHAIN"
                            )))
                        }
                    }
                }
            };
            let cfg = dctstream_replay::SynthesisConfig {
                seed: f.opt("seed")?.unwrap_or(d.seed),
                ops: f.opt("ops")?.unwrap_or(d.ops),
                tenants: f.count("tenants")?.unwrap_or(d.tenants),
                streams_per_tenant: f.count("streams")?.unwrap_or(d.streams_per_tenant),
                zipf_z: f.opt("zipf")?.unwrap_or(d.zipf_z),
                mix,
                rows_per_ingest: f.count("rows")?.unwrap_or(d.rows_per_ingest),
                domain: f.opt("domain")?.unwrap_or(d.domain),
                coefficients: f.opt("m")?.unwrap_or(d.coefficients),
                degree: f.opt("degree")?.unwrap_or(d.degree),
                mean_gap_us: f.opt("gap-us")?.unwrap_or(d.mean_gap_us),
                ..d
            };
            Command::Record {
                out,
                listen,
                upstream,
                cfg,
            }
        }
        "replay" => {
            let trace = f.arg("a trace file")?;
            let dir: Option<PathBuf> = f.opt_arg();
            let addr: Option<String> = f.opt("addr")?;
            let shards = f.count("shards")?.unwrap_or(0);
            if dir.is_some() == addr.is_some() {
                return Err(usage_err(
                    "replay needs either a registry directory or --addr, not both",
                ));
            }
            if shards > 0 && dir.is_none() {
                return Err(usage_err(
                    "--shards only applies to the self-hosted daemon (give a directory)",
                ));
            }
            Command::Replay {
                trace,
                dir,
                addr,
                shards,
                connections: f.count("connections")?.unwrap_or(1),
                speedup: f
                    .checked("speedup", |x: &f64| x.is_finite() && *x > 0.0, "positive")?
                    .unwrap_or(1.0),
                closed: f.switch("closed"),
                json: f.switch("json"),
            }
        }
        "fleet-init" => Command::FleetInit {
            dir: f.arg("a fleet directory")?,
            shards: f
                .count("shards")?
                .ok_or_else(|| usage_err("missing --shards"))?,
        },
        "fleet-status" => Command::FleetStatus {
            dir: f.arg("a fleet directory")?,
        },
        "fleet-ship" => Command::FleetShip {
            dir: f.arg("a fleet directory")?,
        },
        "fleet-promote" => Command::FleetPromote {
            dir: f.arg("a fleet directory")?,
            shard: f.req("shard")?,
        },
        other => return Err(usage_err(format!("unknown command '{other}'"))),
    };
    f.done()?;
    Ok(command)
}

/// Resolve `HOST:PORT` to a socket address (first resolution wins).
fn resolve_addr(addr: &str) -> CliResult<std::net::SocketAddr> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| CliError::Usage(format!("cannot resolve address '{addr}'")))
}

/// Fold a replay-layer failure into the CLI error taxonomy.
fn replay_err(e: dctstream_replay::ReplayError) -> CliError {
    match e {
        dctstream_replay::ReplayError::Io(e) => CliError::Io(e),
        dctstream_replay::ReplayError::Config(msg) => CliError::Usage(msg),
        other => CliError::Parse(other.to_string()),
    }
}

/// A decoded synopsis file of either kind.
pub enum AnySynopsis {
    /// 1-d synopsis.
    Cosine(CosineSynopsis),
    /// Multi-d synopsis.
    Multi(MultiDimSynopsis),
}

/// Load and decode a synopsis file, dispatching on its kind byte so a
/// damaged file reports its own decoder's error.
pub fn load_synopsis(path: &Path) -> CliResult<AnySynopsis> {
    let raw = Bytes::from(fs::read(path)?);
    if peek_kind(raw.as_slice())? == KIND_COSINE {
        Ok(AnySynopsis::Cosine(CosineSynopsis::from_bytes(raw)?))
    } else {
        Ok(AnySynopsis::Multi(MultiDimSynopsis::from_bytes(raw)?))
    }
}

fn load_cosine(path: &Path) -> CliResult<CosineSynopsis> {
    match load_synopsis(path)? {
        AnySynopsis::Cosine(s) => Ok(s),
        AnySynopsis::Multi(_) => Err(CliError::Usage(format!(
            "{} holds a multi-dimensional synopsis where a 1-d one is required",
            path.display()
        ))),
    }
}

/// Stream name used when `build --wal-dir` registers its synopsis: the
/// output file's stem, so `--out orders.dcts` logs under `orders`.
fn wal_stream_name(out: &Path) -> CliResult<String> {
    out.file_stem()
        .and_then(|s| s.to_str())
        .map(str::to_string)
        .ok_or_else(|| {
            CliError::Usage(format!(
                "cannot derive a stream name from output path '{}'",
                out.display()
            ))
        })
}

/// Open a CSV input for streaming reads; `-` reads stdin.
fn open_input(path: &Path) -> CliResult<Box<dyn BufRead>> {
    if path == Path::new("-") {
        Ok(Box::new(std::io::stdin().lock()))
    } else {
        Ok(Box::new(std::io::BufReader::new(fs::File::open(path)?)))
    }
}

/// A `--delimiter` spec, defaulting to comma.
fn delimiter_or_comma(spec: Option<&str>) -> CliResult<u8> {
    spec.map_or(Ok(b','), |s| {
        dctstream_intake::parse_delimiter(s).map_err(CliError::Usage)
    })
}

/// Load a `.schema` file, applying the `--delimiter` override and
/// forcing the header flag on when `--skip-header` was passed.
fn load_schema_file(path: &Path, delimiter: Option<&str>, skip_header: bool) -> CliResult<Schema> {
    let text = fs::read_to_string(path)?;
    let mut schema =
        Schema::parse(&text).map_err(|e| CliError::Usage(format!("{}: {e}", path.display())))?;
    if let Some(spec) = delimiter {
        schema.delimiter = dctstream_intake::parse_delimiter(spec).map_err(CliError::Usage)?;
    }
    if skip_header {
        schema.has_header = true;
    }
    Ok(schema)
}

/// A rejects ledger keeping the first 10 attributed rejects for the
/// report, with an optional `--rejects` sidecar.
fn make_ledger(rejects: Option<&Path>) -> CliResult<RejectLedger> {
    let ledger = RejectLedger::new(10);
    match rejects {
        Some(p) => Ok(ledger.with_sidecar(p)?),
        None => Ok(ledger),
    }
}

/// A `build`/`build2` input opened for typed intake.
struct TypedInput {
    reader: Box<dyn BufRead>,
    schema: Schema,
    opts: IntakeOptions,
    ledger: RejectLedger,
}

impl TypedInput {
    /// Open `input` under the `--schema` file or, without one, under the
    /// schema its first line implies: that line's field count is the
    /// arity, the `targets` are `int` and every other column is `text`.
    /// An empty input implies just the columns the targets need.
    fn open(
        input: &Path,
        intake: &IntakeFlags,
        skip_header: bool,
        targets: Vec<usize>,
    ) -> CliResult<TypedInput> {
        let mut reader = open_input(input)?;
        let schema = match &intake.schema {
            Some(path) => load_schema_file(path, intake.delimiter.as_deref(), skip_header)?,
            None => {
                let delimiter = delimiter_or_comma(intake.delimiter.as_deref())?;
                let mut first = Vec::new();
                reader.read_until(b'\n', &mut first)?;
                let line = String::from_utf8_lossy(&first);
                let line = line.trim_end_matches(['\n', '\r']);
                let arity = if first.is_empty() {
                    targets.iter().max().map_or(1, |t| t + 1)
                } else {
                    // A first line with broken quoting still has a field
                    // count: the raw one.
                    dctstream_intake::split_fields(line, delimiter).map_or_else(
                        |_| line.bytes().filter(|&b| b == delimiter).count() + 1,
                        |fields| fields.len(),
                    )
                };
                let columns = (0..arity)
                    .map(|i| Column {
                        name: format!("c{i}"),
                        ty: if targets.contains(&i) {
                            ColumnType::Int
                        } else {
                            ColumnType::Text
                        },
                        domain: None,
                    })
                    .collect();
                reader = Box::new(std::io::Read::chain(std::io::Cursor::new(first), reader));
                Schema {
                    delimiter,
                    has_header: skip_header,
                    columns,
                }
            }
        };
        if let Some(t) = targets.iter().find(|&&t| t >= schema.arity()) {
            return Err(CliError::Usage(format!(
                "column {t} out of range for the {}-column input",
                schema.arity()
            )));
        }
        Ok(TypedInput {
            reader,
            schema,
            opts: IntakeOptions {
                targets,
                reject_threshold: intake.reject_threshold,
                ..IntakeOptions::default()
            },
            ledger: make_ledger(intake.rejects.as_deref())?,
        })
    }

    /// Stream every row into `sink`, ledgering the rejects.
    fn run(mut self, sink: &mut impl RowSink) -> CliResult<IntakeReport> {
        Ok(intake_run(
            self.reader,
            &self.schema,
            &self.opts,
            &mut self.ledger,
            sink,
        )?)
    }
}

/// Execute a command, returning the text to print.
pub fn run(cmd: Command) -> CliResult<String> {
    match cmd {
        Command::Build {
            input,
            column,
            domain,
            m,
            out,
            skip_header,
            threads,
            wal_dir,
            intake,
        } => {
            let mut syn = CosineSynopsis::new(Domain::new(domain.0, domain.1), Grid::Midpoint, m)?;
            let coefficients = syn.coefficient_count();
            let mut typed = TypedInput::open(&input, &intake, skip_header, vec![column])?;
            typed.opts.threads = threads;
            let (report, wal_note) = match wal_dir {
                None => {
                    let report = typed.run(&mut CosineSink::new(&mut syn, threads, &[column]))?;
                    if report.quarantined.is_some() {
                        return Err(CliError::Quarantined(report.render()));
                    }
                    fs::write(&out, syn.to_bytes())?;
                    (report, String::new())
                }
                Some(dir) => {
                    // Crash-durable ingestion: every accepted row is
                    // write-ahead logged into `dir`, then the registry is
                    // checkpointed so the covered WAL segments can retire.
                    // A crash mid-build is recovered with `wal-replay`.
                    let name = wal_stream_name(&out)?;
                    let (mut dp, _) = DurableProcessor::open(&dir)?;
                    if dp.processor().summary(&name).is_some() {
                        // A prior build (possibly one that crashed mid-way)
                        // already logged rows for this stream; re-ingesting
                        // the CSV from the start would double-count them.
                        return Err(CliError::Usage(format!(
                            "stream '{name}' already has logged state in {}; \
                             re-running build would double-count every row already \
                             ingested. Run `wal-replay {}` to recover it, or point \
                             --wal-dir at a fresh directory",
                            dir.display(),
                            dir.display()
                        )));
                    }
                    dp.register(name.clone(), Summary::Cosine(syn))?;
                    // Every row is logged as it arrives, but the registry
                    // coalesces them and applies them once, at the
                    // checkpoint: the same batch, in the same order, that
                    // the plain build's `CosineSink` flushes.
                    let mode = dp.processor().flush_threshold();
                    dp.processor_mut().set_flush_threshold(Some(usize::MAX))?;
                    let report = typed.run(&mut DurableSink::new(&mut dp, &*name, &[column]))?;
                    if report.quarantined.is_some() {
                        dp.quarantine_stream(
                            &name,
                            HealthCause::RejectRateExceeded {
                                rejected: report.rejected,
                                seen: report.rows_seen,
                                threshold: intake.reject_threshold.unwrap_or(1.0),
                            },
                        )?;
                        return Err(CliError::Quarantined(format!(
                            "stream '{name}' (WAL at {}):\n{}",
                            dir.display(),
                            report.render()
                        )));
                    }
                    // Restore the registry's own mode, so the manifest
                    // does not hand a buffered registry to a later
                    // `serve` or `wal-replay`.
                    dp.processor_mut().set_flush_threshold(mode)?;
                    dp.checkpoint()?;
                    let s = dp
                        .processor()
                        .summary(&name)
                        .and_then(Summary::as_cosine)
                        .ok_or_else(|| {
                            CliError::Usage(format!(
                                "stream '{name}' in {} is not a 1-d cosine synopsis",
                                dir.display()
                            ))
                        })?;
                    fs::write(&out, s.to_bytes())?;
                    let note = format!(
                        " (WAL at {}, watermark {})",
                        dir.display(),
                        dp.wal_watermark()
                    );
                    (report, note)
                }
            };
            Ok(format!(
                "built 1-d synopsis: {} tuples ({} rejected), {coefficients} coefficients -> {}{wal_note}\n{}",
                report.accepted,
                report.rejected,
                out.display(),
                report.render().trim_end()
            ))
        }
        Command::Build2 {
            input,
            columns,
            domains,
            degree,
            out,
            skip_header,
            intake,
        } => {
            let mut syn = MultiDimSynopsis::new(
                vec![
                    Domain::new(domains.0 .0, domains.0 .1),
                    Domain::new(domains.1 .0, domains.1 .1),
                ],
                Grid::Midpoint,
                degree,
            )?;
            let targets = vec![columns.0, columns.1];
            let report = TypedInput::open(&input, &intake, skip_header, targets.clone())?
                .run(&mut MultiSink::new(&mut syn, 1, &targets))?;
            if report.quarantined.is_some() {
                return Err(CliError::Quarantined(report.render()));
            }
            fs::write(&out, syn.to_bytes())?;
            Ok(format!(
                "built 2-d synopsis: {} tuples ({} rejected), degree {}, {} coefficients -> {}\n{}",
                report.accepted,
                report.rejected,
                syn.degree(),
                syn.coefficient_count(),
                out.display(),
                report.render().trim_end()
            ))
        }
        Command::Probe {
            input,
            delimiter,
            sample_rows,
            header,
            out,
        } => {
            let opts = ProbeOptions {
                delimiter: delimiter_or_comma(delimiter.as_deref())?,
                sample_rows,
                header,
                ..ProbeOptions::default()
            };
            let (schema, report) = intake_probe(open_input(&input)?, &opts)?;
            match out {
                Some(path) => {
                    fs::write(&path, schema.render())?;
                    Ok(format!(
                        "probed {} rows ({} skipped): {} columns -> {}",
                        report.rows_sampled,
                        report.rows_skipped,
                        schema.arity(),
                        path.display()
                    ))
                }
                // To stdout: the report rides along as a comment, so the
                // output is itself a loadable .schema file.
                None => Ok(format!(
                    "# probed {} rows ({} skipped)\n{}",
                    report.rows_sampled,
                    report.rows_skipped,
                    schema.render().trim_end()
                )),
            }
        }
        Command::Verify {
            input,
            schema,
            rejects,
            delimiter,
            reject_threshold,
        } => {
            let schema = load_schema_file(&schema, delimiter.as_deref(), false)?;
            let targets: Vec<usize> = schema
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ty != dctstream_intake::ColumnType::Text)
                .map(|(i, _)| i)
                .collect();
            let opts = IntakeOptions {
                targets,
                reject_threshold,
                ..IntakeOptions::default()
            };
            let mut ledger = make_ledger(rejects.as_deref())?;
            let mut sink = CountSink;
            let report = intake_run(open_input(&input)?, &schema, &opts, &mut ledger, &mut sink)?;
            Ok(report.render().trim_end().to_string())
        }
        Command::Info { path } => {
            // invariant: fmt::Write to a String cannot fail, so the
            // writeln! unwraps in this block are infallible.
            let mut out = String::new();
            match load_synopsis(&path)? {
                AnySynopsis::Cosine(s) => {
                    writeln!(out, "kind        : 1-d cosine synopsis").unwrap();
                    writeln!(
                        out,
                        "domain      : [{}, {}] ({} values)",
                        s.domain().lo(),
                        s.domain().hi(),
                        s.domain().size()
                    )
                    .unwrap();
                    writeln!(out, "grid        : {:?}", s.grid()).unwrap();
                    writeln!(out, "coefficients: {}", s.coefficient_count()).unwrap();
                    writeln!(out, "tuples      : {}", s.count()).unwrap();
                }
                AnySynopsis::Multi(s) => {
                    writeln!(out, "kind        : {}-d cosine synopsis", s.arity()).unwrap();
                    for (i, d) in s.domains().iter().enumerate() {
                        writeln!(out, "domain[{i}]   : [{}, {}]", d.lo(), d.hi()).unwrap();
                    }
                    writeln!(out, "grid        : {:?}", s.grid()).unwrap();
                    writeln!(out, "degree      : {}", s.degree()).unwrap();
                    writeln!(out, "coefficients: {}", s.coefficient_count()).unwrap();
                    writeln!(out, "tuples      : {}", s.count()).unwrap();
                }
            }
            Ok(out)
        }
        Command::Join {
            left,
            right,
            budget,
        } => {
            let a = load_cosine(&left)?;
            let b = load_cosine(&right)?;
            let est = estimate_equi_join(&a, &b, budget)?;
            Ok(format!("estimated join size: {est:.1}"))
        }
        Command::Chain { paths, budget } => {
            let loaded: Vec<AnySynopsis> = paths
                .iter()
                .map(|p| load_synopsis(p))
                .collect::<CliResult<_>>()?;
            let mut links = Vec::with_capacity(loaded.len());
            for (i, s) in loaded.iter().enumerate() {
                let is_end = i == 0 || i == loaded.len() - 1;
                match (is_end, s) {
                    (true, AnySynopsis::Cosine(c)) => links.push(ChainLink::End(c)),
                    (false, AnySynopsis::Multi(m)) => links.push(ChainLink::Inner {
                        synopsis: m,
                        left: 0,
                        right: 1,
                    }),
                    (true, AnySynopsis::Multi(_)) => {
                        return Err(CliError::Usage(format!(
                            "{}: chain ends must be 1-d synopses",
                            paths[i].display()
                        )))
                    }
                    (false, AnySynopsis::Cosine(_)) => {
                        return Err(CliError::Usage(format!(
                            "{}: inner chain relations must be 2-d synopses",
                            paths[i].display()
                        )))
                    }
                }
            }
            let est = estimate_chain_join(&links, budget)?;
            Ok(format!("estimated chain join size: {est:.1}"))
        }
        Command::Range { path, from, to } => {
            let s = load_cosine(&path)?;
            let est = s.estimate_range_count(from, to)?;
            let sel = est / s.count();
            Ok(format!(
                "estimated tuples in [{from}, {to}]: {est:.1} (selectivity {:.4})",
                sel
            ))
        }
        Command::SelfJoin { path } => {
            let s = load_cosine(&path)?;
            Ok(format!(
                "estimated self-join size: {:.1}",
                s.self_join(None)
            ))
        }
        Command::Band { left, right, width } => {
            let a = load_cosine(&left)?;
            let b = load_cosine(&right)?;
            let est = estimate_band_join(&a, &b, width)?;
            Ok(format!(
                "estimated band-join size (width {width}): {est:.1}"
            ))
        }
        Command::Box { path, lo, hi } => {
            let s = match load_synopsis(&path)? {
                AnySynopsis::Multi(s) => s,
                AnySynopsis::Cosine(_) => {
                    return Err(CliError::Usage(format!(
                        "{} holds a 1-d synopsis; box needs a 2-d one",
                        path.display()
                    )))
                }
            };
            let est = s.estimate_box_count(&[lo.0, lo.1], &[hi.0, hi.1])?;
            Ok(format!(
                "estimated tuples in box [{},{}]x[{},{}]: {est:.1}",
                lo.0, hi.0, lo.1, hi.1
            ))
        }
        Command::Merge {
            inputs,
            out,
            threads,
        } => {
            let acc = if threads > 1 {
                let parts = inputs
                    .iter()
                    .map(|p| load_cosine(p))
                    .collect::<CliResult<Vec<_>>>()?;
                ParallelIngest::with_threads(threads).merge_cosine(parts)?
            } else {
                let mut iter = inputs.iter();
                // invariant: parse() rejects `merge` with no inputs.
                let first = iter.next().expect("validated non-empty");
                let mut acc = load_cosine(first)?;
                for p in iter {
                    let shard = load_cosine(p)?;
                    acc.merge_from(&shard)?;
                }
                acc
            };
            fs::write(&out, acc.to_bytes())?;
            Ok(format!(
                "merged {} shard(s): {} tuples -> {}",
                inputs.len(),
                acc.count(),
                out.display()
            ))
        }
        Command::Checkpoint {
            streams,
            out,
            wal_dir,
        } => {
            let mut summaries = Vec::with_capacity(streams.len());
            for (name, path) in &streams {
                let raw = Bytes::from(fs::read(path)?);
                let summary = Summary::from_bytes(raw)
                    .map_err(|e| CliError::Usage(format!("{}: {e}", path.display())))?;
                summaries.push((name.clone(), summary));
            }
            let mut msg = String::new();
            if let Some(dir) = &wal_dir {
                // Registrations are write-ahead logged, so even a crash
                // before the manifest lands loses nothing.
                let (mut dp, _) = DurableProcessor::open(dir)?;
                for (name, summary) in &summaries {
                    dp.register(name.clone(), summary.clone())?;
                }
                dp.checkpoint()?;
                writeln!(
                    msg,
                    "checkpointed {} stream(s) -> WAL registry at {} (watermark {})",
                    streams.len(),
                    dir.display(),
                    dp.wal_watermark()
                )
                // invariant: fmt::Write to a String cannot fail.
                .expect("write to String");
            }
            if let Some(out) = &out {
                let mut p = StreamProcessor::new();
                for (name, summary) in summaries {
                    p.register(name, summary)?;
                }
                write_checkpoint(&mut p, out)?;
                writeln!(
                    msg,
                    "checkpointed {} stream(s) -> {}",
                    streams.len(),
                    out.display()
                )
                // invariant: fmt::Write to a String cannot fail.
                .expect("write to String");
            }
            Ok(msg)
        }
        Command::Restore { path, extract } => {
            // invariant: fmt::Write to a String cannot fail, so the
            // writeln! unwraps in this block are infallible.
            let p = read_checkpoint(&path)?;
            let mut streams: Vec<(&str, &Summary)> = p.streams().collect();
            streams.sort_unstable_by_key(|(name, _)| *name);
            let mut out = String::new();
            writeln!(
                out,
                "checkpoint: {} stream(s), {} event(s) processed",
                streams.len(),
                p.events_processed()
            )
            .unwrap();
            for (name, s) in &streams {
                writeln!(
                    out,
                    "  {name}: {}, {:.0} tuple(s)",
                    s.kind_name(),
                    s.count()
                )
                .unwrap();
            }
            if let Some(dir) = extract {
                for (name, _) in &streams {
                    if name.contains(['/', '\\']) {
                        return Err(CliError::Usage(format!(
                            "stream name '{name}' contains a path separator; refusing to extract"
                        )));
                    }
                }
                fs::create_dir_all(&dir)?;
                for (name, s) in &streams {
                    fs::write(dir.join(format!("{name}.dcts")), s.to_bytes().as_slice())?;
                }
                writeln!(
                    out,
                    "extracted {} payload(s) to {}",
                    streams.len(),
                    dir.display()
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::WalReplay { dir, checkpoint } => {
            // invariant: fmt::Write to a String cannot fail, so the
            // writeln! unwraps in this block are infallible.
            let (mut dp, report) = DurableProcessor::open(&dir)?;
            let mut out = String::new();
            writeln!(
                out,
                "recovered {}: checkpoint had {} event(s) (watermark {}), \
                 replayed {} WAL record(s) from {} segment(s)",
                dir.display(),
                report.checkpoint_events,
                report.checkpoint_watermark,
                report.replayed,
                report.segments_scanned
            )
            .unwrap();
            if let Some(tail) = &report.torn_tail {
                writeln!(
                    out,
                    "torn tail truncated: {} byte(s) at {} offset {} \
                     (an unsynced write was cut mid-record)",
                    tail.dropped, tail.segment, tail.offset
                )
                .unwrap();
            }
            for (name, cause) in &report.quarantined {
                writeln!(out, "quarantined {name}: {cause}").unwrap();
            }
            let mut streams: Vec<(&str, &Summary)> = dp.processor().streams().collect();
            streams.sort_unstable_by_key(|(name, _)| *name);
            for (name, s) in &streams {
                writeln!(
                    out,
                    "  {name}: {}, {:.0} tuple(s)",
                    s.kind_name(),
                    s.count()
                )
                .unwrap();
            }
            if checkpoint {
                let retired = dp.checkpoint()?;
                writeln!(
                    out,
                    "checkpointed at watermark {} ({} WAL segment(s) retired)",
                    dp.wal_watermark(),
                    retired
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::Health { dir } => {
            // invariant: fmt::Write to a String cannot fail, so the
            // writeln! unwraps in this block are infallible.
            let (dp, _) = DurableProcessor::open(&dir)?;
            let mut out = String::new();
            let mut names: Vec<&str> = dp.processor().streams().map(|(n, _)| n).collect();
            names.sort_unstable();
            writeln!(
                out,
                "{}: {} stream(s), watermark {}",
                dir.display(),
                names.len(),
                dp.wal_watermark()
            )
            .unwrap();
            for name in &names {
                let state = dp.health().state(name);
                match dp.health().cause(name) {
                    Some(cause) => writeln!(out, "  {name}: {state} ({cause})").unwrap(),
                    None => writeln!(out, "  {name}: {state}").unwrap(),
                }
            }
            // Streams the ledger tracks but the registry no longer
            // holds (e.g. a registration that failed to replay).
            for (name, state, cause) in dp.health().report() {
                if !names.contains(&name.as_str()) {
                    writeln!(out, "  {name}: {state} ({cause}) [no live summary]").unwrap();
                }
            }
            if dp.health().all_healthy() {
                writeln!(out, "all healthy").unwrap();
            }
            Ok(out)
        }
        Command::Scrub { dir } => {
            // invariant: writeln! to a String is infallible.
            let (mut dp, _) = DurableProcessor::open(&dir)?;
            let report = dp.scrub()?;
            let mut out = String::new();
            writeln!(
                out,
                "scrubbed {}: {} live stream(s), {} checkpoint record(s), {} WAL segment(s)",
                dir.display(),
                report.live_streams_checked,
                report.checkpoint_streams_checked,
                report.wal_segments_checked
            )
            .unwrap();
            for v in &report.violations {
                writeln!(out, "violation: {v}").unwrap();
            }
            for (name, state) in &report.demoted {
                writeln!(out, "demoted {name} -> {state}").unwrap();
            }
            for name in &report.promoted {
                writeln!(out, "promoted {name} -> healthy").unwrap();
            }
            if report.is_clean() {
                writeln!(out, "clean").unwrap();
            }
            Ok(out)
        }
        Command::Repair {
            dir,
            streams,
            checkpoint,
        } => {
            // invariant: writeln! to a String is infallible.
            let (mut dp, _) = DurableProcessor::open(&dir)?;
            let outcomes: Vec<_> = if streams.is_empty() {
                dp.repair_all()
            } else {
                streams.iter().map(|n| (n.clone(), dp.repair(n))).collect()
            };
            let mut out = String::new();
            if outcomes.is_empty() {
                writeln!(out, "nothing to repair: no stream is quarantined").unwrap();
            }
            for (name, res) in &outcomes {
                match res {
                    Ok(r) if r.removed => writeln!(
                        out,
                        "repaired {name}: absent from durable state, unregistered"
                    )
                    .unwrap(),
                    Ok(r) => writeln!(
                        out,
                        "repaired {name}: {} WAL record(s) replayed past watermark {}",
                        r.replayed, r.from_watermark
                    )
                    .unwrap(),
                    Err(e) => writeln!(out, "repair of {name} failed: {e}").unwrap(),
                }
            }
            if checkpoint {
                let retired = dp.checkpoint()?;
                writeln!(
                    out,
                    "checkpointed at watermark {} ({} WAL segment(s) retired)",
                    dp.wal_watermark(),
                    retired
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::Stats { dir, format } => {
            let snap = stats_snapshot(dir.as_deref())?;
            Ok(match format {
                StatsFormat::Table => dctstream_obs::render_table(&snap),
                StatsFormat::Json => dctstream_obs::render_json(&snap),
                StatsFormat::Prom => dctstream_obs::render_prometheus(&snap),
            })
        }
        Command::Serve {
            dir,
            listen,
            workers,
            queue_depth,
            publish_every,
            shards,
            estimate_cache,
            tenant_quota,
            fair,
        } => {
            dctstream_serve::install_signal_handlers();
            let opts = dctstream_serve::ServeOptions {
                workers,
                queue_depth,
                publish_every,
                shards,
                estimate_cache,
                tenant_quota,
                fair_admission: fair,
                ..Default::default()
            };
            let (server, report) = dctstream_serve::Server::start(&dir, &listen, opts)?;
            // The banner must stream immediately (clients need the bound
            // address before the daemon exits), so it bypasses the
            // return-value path.
            let banner = format!(
                "serving {} on http://{} (epoch {}, {} event(s) replayed)",
                dir.display(),
                server.local_addr(),
                server.published_epoch(),
                report.replayed
            );
            if let Err(e) = emit_line(&banner) {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    return Err(CliError::Io(e));
                }
            }
            while !dctstream_serve::termination_requested() && !server.is_stopping() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let report = server.shutdown(true);
            let mut out = String::new();
            writeln!(
                out,
                "shutting down: {} event(s) absorbed, epoch {}",
                report.events, report.epoch
            )
            .unwrap();
            match report.checkpoint {
                Some(Ok(retired)) => {
                    write!(out, "checkpointed ({retired} WAL segment(s) retired)").unwrap()
                }
                Some(Err(e)) => write!(out, "checkpoint failed: {e}").unwrap(),
                None => write!(out, "checkpoint skipped").unwrap(),
            }
            Ok(out)
        }
        Command::Record {
            out,
            listen,
            upstream,
            cfg,
        } => match (listen, upstream) {
            (Some(port), Some(upstream)) => {
                dctstream_serve::install_signal_handlers();
                let up: std::net::SocketAddr = resolve_addr(&upstream)?;
                let proxy =
                    dctstream_replay::RecordingProxy::start(port, up, &out).map_err(replay_err)?;
                let banner = format!(
                    "recording http://{} -> http://{up} into {}",
                    proxy.addr(),
                    out.display()
                );
                if let Err(e) = emit_line(&banner) {
                    if e.kind() != std::io::ErrorKind::BrokenPipe {
                        return Err(CliError::Io(e));
                    }
                }
                while !dctstream_serve::termination_requested() {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                let count = proxy.shutdown().map_err(replay_err)?;
                Ok(format!(
                    "recorded {count} operation(s) into {}",
                    out.display()
                ))
            }
            _ => {
                let trace = dctstream_replay::synthesize(&cfg).map_err(replay_err)?;
                dctstream_replay::write_trace(&out, &trace).map_err(replay_err)?;
                Ok(format!(
                    "synthesized {} record(s) (seed {}, {} tenant(s), mix {}:{}:{}) into {}",
                    trace.len(),
                    cfg.seed,
                    cfg.tenants,
                    cfg.mix.ingest,
                    cfg.mix.estimate,
                    cfg.mix.chain,
                    out.display()
                ))
            }
        },
        Command::Replay {
            trace,
            dir,
            addr,
            shards,
            connections,
            speedup,
            closed,
            json,
        } => {
            let records = dctstream_replay::read_trace(&trace).map_err(replay_err)?;
            let opts = dctstream_replay::ReplayOptions {
                connections,
                speedup,
                closed_loop: closed,
                ..Default::default()
            };
            // Self-host a scratch daemon over the directory, or drive an
            // already-running one.
            let (target, server) = match (&dir, &addr) {
                (Some(dir), None) => {
                    let serve_opts = dctstream_serve::ServeOptions {
                        shards,
                        ..Default::default()
                    };
                    let (server, _) =
                        dctstream_serve::Server::start(dir, "127.0.0.1:0", serve_opts)?;
                    (server.local_addr(), Some(server))
                }
                (None, Some(addr)) => (resolve_addr(addr)?, None),
                _ => unreachable!("parse enforces exactly one of dir/addr"),
            };
            let report = dctstream_replay::replay(target, &records, &opts);
            if let Some(server) = server {
                server.shutdown(false);
            }
            let report = report.map_err(replay_err)?;
            Ok(if json {
                report.to_json()
            } else {
                report.to_table()
            })
        }
        Command::FleetInit { dir, shards } => {
            let fleet = ShardedRegistry::create(&dir, shards, FleetOptions::default())?;
            Ok(format!(
                "initialized {}-shard fleet under {} (per-shard WAL lineage, warm followers)",
                fleet.shards(),
                dir.display()
            ))
        }
        Command::FleetStatus { dir } => {
            let fleet = ShardedRegistry::open(&dir, FleetOptions::default())?;
            let mut out = String::new();
            for s in fleet.status() {
                writeln!(
                    out,
                    "shard {:02}  epoch {}  {}  published_seq {}  follower_seq {}  \
                     behind {} record(s) ({:.1} gross weight){}",
                    s.id,
                    s.epoch,
                    if s.alive { "alive" } else { "DOWN " },
                    s.published_seq,
                    s.follower_applied_seq,
                    s.records_behind,
                    s.gross_weight_behind,
                    match &s.down_cause {
                        Some(c) => format!("  [{c}]"),
                        None => String::new(),
                    }
                )
                .unwrap();
            }
            Ok(out)
        }
        Command::FleetShip { dir } => {
            let fleet = ShardedRegistry::open(&dir, FleetOptions::default())?;
            let (mut rounds, mut bytes) = (0u64, 0u64);
            loop {
                let reports = fleet.ship_and_replay()?;
                rounds += 1;
                let round_bytes: u64 = reports.iter().map(|r| r.bytes_shipped).sum();
                bytes += round_bytes;
                if round_bytes == 0 && reports.iter().all(|r| !r.budget_exhausted) {
                    break;
                }
            }
            Ok(format!(
                "shipped {bytes} byte(s) in {rounds} round(s); all followers at parity"
            ))
        }
        Command::FleetPromote { dir, shard } => {
            let fleet = ShardedRegistry::open(&dir, FleetOptions::default())?;
            let alive = fleet.status().iter().any(|s| s.id == shard && s.alive);
            if alive {
                return Err(CliError::Usage(format!(
                    "shard {shard} has a recoverable primary; promotion is for shards \
                     whose primary cannot be opened"
                )));
            }
            let report = fleet.promote(shard)?;
            Ok(format!(
                "promoted shard {} to epoch {}: follower replayed to watermark {} \
                 (acked records through {} all survived)",
                report.shard, report.epoch, report.watermark, report.acked_seq
            ))
        }
        Command::Watch {
            dir,
            interval_ms,
            iterations,
        } => {
            // Tail spans for the duration of the watch; frames after the
            // first can then show what ran in between.
            dctstream_obs::set_tailing(true);
            let frames = iterations.unwrap_or(u64::MAX);
            let mut last = String::new();
            for frame in 0..frames {
                let snap = stats_snapshot(dir.as_deref())?;
                last = render_watch_frame(&snap, frame);
                // All but the final frame stream to stdout; the last one
                // is the command's return value, so in-process callers
                // (and tests) see a complete frame.
                if frame + 1 < frames {
                    match emit_line(&last) {
                        Ok(()) => {}
                        // Downstream reader is gone: stop streaming
                        // frames, but it is not an error.
                        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => break,
                        Err(e) => {
                            dctstream_obs::set_tailing(false);
                            return Err(CliError::Io(e));
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
            }
            dctstream_obs::set_tailing(false);
            Ok(last)
        }
    }
}

/// Snapshot the process-global metrics registry; with a registry
/// directory, merge in the cumulative counters persisted in its
/// checkpoint manifest under the `registry.` prefix.
fn stats_snapshot(dir: Option<&Path>) -> CliResult<dctstream_obs::MetricsSnapshot> {
    let mut snap = dctstream_obs::global().snapshot();
    if let Some(dir) = dir {
        let path = dir.join(dctstream_stream::checkpoint::CHECKPOINT_FILE);
        let (_, _, metrics) = dctstream_stream::checkpoint::read_checkpoint_with_meta(&path)?;
        for (name, value) in metrics {
            // Manifest keys already carry the `_total` convention; strip it
            // so the Prometheus renderer (which re-appends `_total` to
            // every counter) does not emit a doubled suffix.
            let name = name.strip_suffix("_total").unwrap_or(&name);
            snap.counters.push(dctstream_obs::CounterSnapshot {
                name: format!("registry.{name}"),
                labels: Vec::new(),
                value,
            });
        }
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    }
    Ok(snap)
}

/// One `watch` frame: header, metrics table, recent span tail.
fn render_watch_frame(snap: &dctstream_obs::MetricsSnapshot, frame: u64) -> String {
    // invariant: writeln! to a String is infallible.
    let mut out = String::new();
    writeln!(out, "--- watch frame {frame} ---").unwrap();
    out.push_str(&dctstream_obs::render_table(snap));
    let spans = dctstream_obs::recent_spans(10);
    if !spans.is_empty() {
        writeln!(out, "recent spans (newest last):").unwrap();
        for s in spans {
            writeln!(out, "  {:<28} {}", s.name, human_nanos_cli(s.nanos)).unwrap();
        }
    }
    out
}

/// Render a nanosecond duration for the watch span tail.
fn human_nanos_cli(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.2}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

/// Parse the last whitespace-separated token of a command's output as a
/// number — the convention every estimate-printing command follows.
/// Errors (rather than panicking) on unexpected output, quoting it.
pub fn trailing_number(output: &str) -> CliResult<f64> {
    let token = output
        .split_whitespace()
        .last()
        .ok_or_else(|| CliError::Parse(format!("empty output '{output}'")))?;
    token.parse().map_err(|_| {
        CliError::Parse(format!(
            "expected a trailing number, found '{token}' in output '{output}'"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dctstream_cli_tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_build_command() {
        let cmd = parse(&args(
            "build --input in.csv --column 2 --domain 0:99 -m 32 --out s.dcts --skip-header",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                input: "in.csv".into(),
                column: 2,
                domain: (0, 99),
                m: 32,
                out: "s.dcts".into(),
                skip_header: true,
                threads: 1,
                wal_dir: None,
                intake: IntakeFlags::default(),
            }
        );
        let cmd = parse(&args(
            "build --input in.csv --column 0 --domain 0:9 -m 4 --out s.dcts --wal-dir w",
        ))
        .unwrap();
        assert!(
            matches!(&cmd, Command::Build { wal_dir: Some(d), .. } if d == &PathBuf::from("w")),
            "{cmd:?}"
        );
        // Rows reach the WAL in file order at any worker count.
        let cmd = parse(&args(
            "build --input in.csv --column 0 --domain 0:9 -m 4 --out s.dcts \
             --wal-dir w --threads 4",
        ))
        .unwrap();
        assert!(
            matches!(&cmd, Command::Build { wal_dir: Some(d), threads: 4, .. } if d == &PathBuf::from("w")),
            "{cmd:?}"
        );
    }

    #[test]
    fn parse_errors_are_usage_errors() {
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args("frobnicate")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(
                "build --input a --column x --domain 0:9 -m 4 --out b"
            )),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args(
                "build --input a --column 0 --domain 9:0 -m 4 --out b"
            )),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("join only_one.dcts")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn build_info_join_roundtrip() {
        let csv_a = tmp("a.csv");
        let csv_b = tmp("b.csv");
        fs::write(&csv_a, "val\n1\n2\n2\n3\n").unwrap();
        fs::write(&csv_b, "2\n2\n2\n5\n").unwrap();
        let syn_a = tmp("a.dcts");
        let syn_b = tmp("b.dcts");
        run(Command::Build {
            input: csv_a,
            column: 0,
            domain: (0, 9),
            m: 10,
            out: syn_a.clone(),
            skip_header: true,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        run(Command::Build {
            input: csv_b,
            column: 0,
            domain: (0, 9),
            m: 10,
            out: syn_b.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let info = run(Command::Info {
            path: syn_a.clone(),
        })
        .unwrap();
        assert!(info.contains("1-d cosine synopsis"));
        assert!(info.contains("tuples      : 4"));
        // Exact join: value 2 appears 2× in A and 3× in B -> 6.
        let out = run(Command::Join {
            left: syn_a.clone(),
            right: syn_b,
            budget: None,
        })
        .unwrap();
        assert!(out.contains("6.0"), "{out}");
        // Self-join of A: 1 + 4 + 1 = 6.
        let out = run(Command::SelfJoin {
            path: syn_a.clone(),
        })
        .unwrap();
        assert!(out.contains("6.0"), "{out}");
        // Range [2,3] of A: 3 tuples.
        let out = run(Command::Range {
            path: syn_a,
            from: 2,
            to: 3,
        })
        .unwrap();
        assert!(out.contains("3.0"), "{out}");
    }

    #[test]
    fn build2_and_chain() {
        let csv = tmp("pairs.csv");
        // (a, b) pairs over domains [0,4]x[0,4].
        fs::write(&csv, "0,1\n0,1\n1,2\n2,3\n").unwrap();
        let mid = tmp("mid.dcts");
        run(Command::Build2 {
            input: csv.clone(),
            columns: (0, 1),
            domains: ((0, 4), (0, 4)),
            degree: 5,
            out: mid.clone(),
            skip_header: false,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let info = run(Command::Info { path: mid.clone() }).unwrap();
        assert!(info.contains("2-d cosine synopsis"));
        // Ends: uniform over [0,4].
        let end_csv = tmp("end.csv");
        fs::write(&end_csv, "0\n1\n2\n3\n4\n").unwrap();
        let end = tmp("end.dcts");
        run(Command::Build {
            input: end_csv,
            column: 0,
            domain: (0, 4),
            m: 5,
            out: end.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let out = run(Command::Chain {
            paths: vec![end.clone(), mid.clone(), end.clone()],
            budget: None,
        })
        .unwrap();
        // Exact: every mid tuple contributes 1·f·1 -> total 4.
        assert!(out.contains("4.0"), "{out}");
        // A 1-d synopsis in the middle is a usage error.
        let err = run(Command::Chain {
            paths: vec![end.clone(), end.clone(), end],
            budget: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn merge_shards() {
        let c1 = tmp("s1.csv");
        let c2 = tmp("s2.csv");
        fs::write(&c1, "1\n2\n").unwrap();
        fs::write(&c2, "2\n3\n").unwrap();
        let (p1, p2, merged) = (tmp("s1.dcts"), tmp("s2.dcts"), tmp("m.dcts"));
        for (c, p) in [(&c1, &p1), (&c2, &p2)] {
            run(Command::Build {
                input: c.clone(),
                column: 0,
                domain: (0, 7),
                m: 8,
                out: p.clone(),
                skip_header: false,
                threads: 1,
                wal_dir: None,
                intake: IntakeFlags::default(),
            })
            .unwrap();
        }
        let out = run(Command::Merge {
            inputs: vec![p1, p2],
            out: merged.clone(),
            threads: 1,
        })
        .unwrap();
        assert!(out.contains("4 tuples"), "{out}");
        // Self-join of the merged stream {1, 2, 2, 3}: 1 + 4 + 1 = 6.
        let out = run(Command::SelfJoin { path: merged }).unwrap();
        assert!(out.contains("6.0"), "{out}");
    }

    #[test]
    fn band_and_box_commands() {
        let csv = tmp("band.csv");
        fs::write(&csv, "1\n2\n2\n3\n").unwrap();
        let syn = tmp("band.dcts");
        run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 7),
            m: 8,
            out: syn.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        // Band width 1 self-join of {1,2,2,3}: per tuple a, count of b
        // with |a-b| <= 1: a=1 -> 3, each a=2 -> 4 (x2), a=3 -> 3; total 14.
        let out = run(Command::Band {
            left: syn.clone(),
            right: syn.clone(),
            width: 1,
        })
        .unwrap();
        assert!(out.contains("14.0"), "{out}");
        // Box on a 2-d synopsis.
        let csv2 = tmp("box.csv");
        fs::write(&csv2, "0,0\n1,1\n2,2\n3,3\n").unwrap();
        let syn2 = tmp("box.dcts");
        run(Command::Build2 {
            input: csv2,
            columns: (0, 1),
            domains: ((0, 3), (0, 3)),
            degree: 4,
            out: syn2.clone(),
            skip_header: false,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let out = run(Command::Box {
            path: syn2.clone(),
            lo: (0, 0),
            hi: (1, 1),
        })
        .unwrap();
        // Degree-4 triangular truncation of a diagonal is approximate;
        // exact count is 2.
        let est = trailing_number(&out).unwrap();
        assert!((est - 2.0).abs() < 0.5, "{out}");
        // box on a 1-d synopsis is a usage error.
        assert!(matches!(
            run(Command::Box {
                path: syn,
                lo: (0, 0),
                hi: (1, 1)
            }),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_band_and_box() {
        let cmd = parse(&args("band a.dcts b.dcts --width 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Band {
                left: "a.dcts".into(),
                right: "b.dcts".into(),
                width: 3
            }
        );
        let cmd = parse(&args("box s.dcts --lo 1,2 --hi 3,4")).unwrap();
        assert_eq!(
            cmd,
            Command::Box {
                path: "s.dcts".into(),
                lo: (1, 2),
                hi: (3, 4)
            }
        );
        assert!(parse(&args("box s.dcts --lo 1 --hi 3,4")).is_err());
    }

    #[test]
    fn bad_csv_reports_line() {
        let csv = tmp("bad.csv");
        fs::write(&csv, "1\nnot_a_number\n").unwrap();
        let out = run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 4,
            out: tmp("bad.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        // A bad value is an attributed reject, not a failed build.
        assert!(out.contains("1 tuples (1 rejected)"), "{out}");
        assert!(
            out.contains("row 2: column 0 does not parse as int"),
            "{out}"
        );
    }

    #[test]
    fn trailing_number_errors_quote_the_output() {
        assert_eq!(trailing_number("estimate: 4.5").unwrap(), 4.5);
        let err = trailing_number("no numbers here").unwrap_err();
        assert!(matches!(err, CliError::Parse(_)));
        assert!(err.to_string().contains("no numbers here"), "{err}");
        assert!(matches!(trailing_number("  "), Err(CliError::Parse(_))));
    }

    #[test]
    fn parse_checkpoint_and_restore() {
        let cmd = parse(&args("checkpoint a=a.dcts b=b.dcts --out reg.dctr")).unwrap();
        assert_eq!(
            cmd,
            Command::Checkpoint {
                streams: vec![("a".into(), "a.dcts".into()), ("b".into(), "b.dcts".into())],
                out: Some("reg.dctr".into()),
                wal_dir: None,
            }
        );
        let cmd = parse(&args("checkpoint a=a.dcts --wal-dir w")).unwrap();
        assert_eq!(
            cmd,
            Command::Checkpoint {
                streams: vec![("a".into(), "a.dcts".into())],
                out: None,
                wal_dir: Some("w".into()),
            }
        );
        let cmd = parse(&args("wal-replay w --checkpoint")).unwrap();
        assert_eq!(
            cmd,
            Command::WalReplay {
                dir: "w".into(),
                checkpoint: true,
            }
        );
        // A destination is required: --out, --wal-dir, or both.
        assert!(matches!(
            parse(&args("checkpoint a=a.dcts")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("wal-replay")),
            Err(CliError::Usage(_))
        ));
        let cmd = parse(&args("restore reg.dctr --extract dir")).unwrap();
        assert_eq!(
            cmd,
            Command::Restore {
                path: "reg.dctr".into(),
                extract: Some("dir".into()),
            }
        );
        // Pairs must be NAME=FILE and at least one is required.
        assert!(matches!(
            parse(&args("checkpoint plain.dcts --out r")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("checkpoint --out r")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("checkpoint =x.dcts --out r")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn checkpoint_restore_roundtrip_and_corruption() {
        let csv = tmp("ckpt.csv");
        fs::write(&csv, "1\n2\n2\n3\n").unwrap();
        let (a, b) = (tmp("ckpt_a.dcts"), tmp("ckpt_b.dcts"));
        for p in [&a, &b] {
            run(Command::Build {
                input: csv.clone(),
                column: 0,
                domain: (0, 7),
                m: 8,
                out: p.clone(),
                skip_header: false,
                threads: 1,
                wal_dir: None,
                intake: IntakeFlags::default(),
            })
            .unwrap();
        }
        let reg = tmp("ckpt.dctr");
        let out = run(Command::Checkpoint {
            streams: vec![("orders".into(), a.clone()), ("parts".into(), b)],
            out: Some(reg.clone()),
            wal_dir: None,
        })
        .unwrap();
        assert!(out.contains("2 stream(s)"), "{out}");

        let dir = tmp("ckpt_extract");
        let out = run(Command::Restore {
            path: reg.clone(),
            extract: Some(dir.clone()),
        })
        .unwrap();
        assert!(out.contains("orders: cosine, 4 tuple(s)"), "{out}");
        assert!(out.contains("parts:"), "{out}");
        // The extracted payload is bit-identical to the original file.
        assert_eq!(
            fs::read(dir.join("orders.dcts")).unwrap(),
            fs::read(&a).unwrap()
        );

        // A corrupted checkpoint degrades to a named error, not a panic.
        let mut raw = fs::read(&reg).unwrap();
        let pos = raw
            .windows(6)
            .position(|w| w == b"orders")
            .expect("name in manifest");
        raw[pos + 20] ^= 0xFF;
        let bad = tmp("ckpt_bad.dctr");
        fs::write(&bad, raw).unwrap();
        let err = run(Command::Restore {
            path: bad,
            extract: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("'orders'"), "{err}");
    }

    #[test]
    fn info_rejects_garbage_files() {
        let p = tmp("garbage.dcts");
        fs::write(&p, b"definitely not a synopsis").unwrap();
        assert!(run(Command::Info { path: p }).is_err());
    }

    #[test]
    fn parse_threads_flag() {
        let cmd = parse(&args(
            "build --input in.csv --column 0 --domain 0:9 -m 4 --out s.dcts --threads 4",
        ))
        .unwrap();
        assert!(matches!(cmd, Command::Build { threads: 4, .. }));
        let cmd = parse(&args("merge a.dcts b.dcts --out m.dcts --threads 2")).unwrap();
        assert!(matches!(cmd, Command::Merge { threads: 2, .. }));
        // Zero workers is a usage error.
        assert!(matches!(
            parse(&args(
                "build --input in.csv --column 0 --domain 0:9 -m 4 --out s.dcts --threads 0"
            )),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn threaded_build_and_merge_match_serial() {
        let csv = tmp("threaded.csv");
        let rows: String = (0..2_000).map(|i| format!("{}\n", i % 50)).collect();
        fs::write(&csv, rows).unwrap();

        let serial_out = tmp("threaded_serial.dcts");
        run(Command::Build {
            input: csv.clone(),
            column: 0,
            domain: (0, 49),
            m: 32,
            out: serial_out.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let par_out = tmp("threaded_par.dcts");
        run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 49),
            m: 32,
            out: par_out.clone(),
            skip_header: false,
            threads: 3,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        let serial = load_cosine(&serial_out).unwrap();
        let par = load_cosine(&par_out).unwrap();
        assert_eq!(serial.count(), par.count());
        for (a, b) in serial.sums().iter().zip(par.sums()) {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "serial {a} vs threaded {b}"
            );
        }

        // Threaded merge of the two (identical) synopses doubles the count.
        let merged = tmp("threaded_merged.dcts");
        let out = run(Command::Merge {
            inputs: vec![serial_out, par_out],
            out: merged.clone(),
            threads: 2,
        })
        .unwrap();
        assert!(out.contains("4000 tuples"), "{out}");
    }

    #[test]
    fn build_with_wal_dir_and_replay() {
        let csv = tmp("wal_build.csv");
        fs::write(&csv, "1\n2\n2\n3\n5\n").unwrap();
        let wal = tmp("wal_build_dir");
        let _ = fs::remove_dir_all(&wal);
        let syn_path = tmp("wal_build.dcts");

        // The durable build writes the same synopsis the plain build does.
        let out = run(Command::Build {
            input: csv.clone(),
            column: 0,
            domain: (0, 9),
            m: 8,
            out: syn_path.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: Some(wal.clone()),
            intake: IntakeFlags::default(),
        })
        .unwrap();
        assert!(out.contains("5 tuples"), "{out}");
        assert!(out.contains("watermark"), "{out}");
        let plain_path = tmp("wal_build_plain.dcts");
        run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 8,
            out: plain_path.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        assert_eq!(fs::read(&syn_path).unwrap(), fs::read(&plain_path).unwrap());

        // wal-replay reopens the registry and reports the stream; the
        // build checkpointed, so nothing needs replaying.
        let out = run(Command::WalReplay {
            dir: wal.clone(),
            checkpoint: false,
        })
        .unwrap();
        assert!(out.contains("wal_build: cosine, 5 tuple(s)"), "{out}");
        assert!(out.contains("replayed 0 WAL record(s)"), "{out}");

        // checkpoint --wal-dir registers summary files durably too.
        let wal2 = tmp("wal_ckpt_dir");
        let _ = fs::remove_dir_all(&wal2);
        let out = run(Command::Checkpoint {
            streams: vec![("orders".into(), syn_path)],
            out: None,
            wal_dir: Some(wal2.clone()),
        })
        .unwrap();
        assert!(out.contains("WAL registry"), "{out}");
        let out = run(Command::WalReplay {
            dir: wal2,
            checkpoint: true,
        })
        .unwrap();
        assert!(out.contains("orders: cosine, 5 tuple(s)"), "{out}");
        assert!(out.contains("checkpointed at watermark"), "{out}");
    }

    #[test]
    fn durable_build_matches_plain_and_leaves_an_unbuffered_registry() {
        // Duplicate-heavy: 20k rows over 97 values.
        let csv = tmp("wal_dupes.csv");
        let rows: String = (0..20_000u64)
            .map(|i| format!("{}\n", (i * i) % 97 + i % 3))
            .collect();
        fs::write(&csv, rows).unwrap();
        let wal = tmp("wal_dupes_dir");
        let _ = fs::remove_dir_all(&wal);
        let (plain, durable) = (tmp("wal_dupes_plain.dcts"), tmp("wal_dupes.dcts"));
        let build = format!(
            "build --input {} --column 0 --domain 0:127 -m 64",
            csv.display()
        );
        cli(&format!("{build} --threads 1 --out {}", plain.display())).unwrap();
        let out = cli(&format!(
            "{build} --wal-dir {} --out {}",
            wal.display(),
            durable.display()
        ))
        .unwrap();
        assert!(out.contains("20000 tuples"), "{out}");
        assert_eq!(fs::read(&plain).unwrap(), fs::read(&durable).unwrap());

        // The build buffered its rows, but the manifest it checkpointed
        // records an unbuffered registry.
        let (dp, report) = DurableProcessor::open(&wal).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(dp.processor().flush_threshold(), None);
    }

    #[test]
    fn durable_build_with_threads_matches_the_serial_durable_build() {
        // About 2.4 MB, so the input spans several parse blocks, with a
        // bad value or an out-of-domain key every 997th row.
        let csv = tmp("wal_threads.csv");
        let rows: String = (0..100_000u64)
            .map(|i| match i % 997 {
                5 => format!("x{i},padding-padding-pad\n"),
                9 => format!("{},padding-padding-pad\n", 200 + i % 7),
                _ => format!("{},padding-padding-pad\n", (i * i) % 97 + i % 3),
            })
            .collect();
        fs::write(&csv, rows).unwrap();
        let build = format!(
            "build --input {} --column 0 --domain 0:127 -m 64",
            csv.display()
        );
        let (out, rejects) = (tmp("wal_threads.dcts"), tmp("wal_threads.rejects"));
        let mut runs = Vec::new();
        for threads in [1, 2] {
            let wal = tmp(&format!("wal_threads_dir{threads}"));
            let _ = fs::remove_dir_all(&wal);
            let report = cli(&format!(
                "{build} --wal-dir {} --threads {threads} --rejects {} --out {}",
                wal.display(),
                rejects.display(),
                out.display()
            ))
            .unwrap();
            let report = report.replace(&wal.display().to_string(), "WAL");
            runs.push((fs::read(&out).unwrap(), fs::read(&rejects).unwrap(), report));
        }
        assert!(runs[0].2.contains("(202 rejected)"), "{}", runs[0].2);
        assert!(runs[0].0 == runs[1].0, "synopsis bytes differ");
        assert!(runs[0].1 == runs[1].1, "rejects ledgers differ");
        assert_eq!(runs[0].2, runs[1].2);
    }

    #[test]
    fn durable_build_rejects_out_of_domain_rows_before_logging_them() {
        let csv = tmp("wal_ood.csv");
        fs::write(&csv, "1\n12\n3\n").unwrap();
        let wal = tmp("wal_ood_dir");
        let _ = fs::remove_dir_all(&wal);
        let out = cli(&format!(
            "build --input {} --column 0 --domain 0:9 -m 4 --wal-dir {} --out {}",
            csv.display(),
            wal.display(),
            tmp("wal_ood.dcts").display()
        ))
        .unwrap();
        assert!(out.contains("2 tuples (1 rejected)"), "{out}");
        assert!(out.contains("out-of-domain"), "{out}");
    }

    #[test]
    fn info_reports_the_cosine_decoder_error() {
        let mut s = CosineSynopsis::new(Domain::new(0, 9), Grid::Midpoint, 4).unwrap();
        s.insert(3).unwrap();
        let mut bytes = s.to_bytes().to_vec();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&f64::NAN.to_le_bytes());
        let path = tmp("nan_sum.dcts");
        fs::write(&path, bytes).unwrap();
        let e = run(Command::Info { path }).unwrap_err().to_string();
        assert!(e.contains("non-finite float"), "{e}");
        assert!(!e.contains("kind mismatch"), "{e}");
    }

    #[test]
    fn build_refuses_reingesting_into_an_existing_wal_stream() {
        let csv = tmp("wal_rebuild.csv");
        fs::write(&csv, "1\n2\n3\n").unwrap();
        let wal = tmp("wal_rebuild_dir");
        let _ = fs::remove_dir_all(&wal);
        let build = Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 8,
            out: tmp("wal_rebuild.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: Some(wal),
            intake: IntakeFlags::default(),
        };
        run(build.clone()).unwrap();
        // Re-running the same build would replay the logged rows AND
        // re-ingest the CSV, double-counting every tuple: refuse.
        let e = run(build).unwrap_err();
        assert!(e.to_string().contains("already has logged state"), "{e}");
    }

    #[test]
    fn parse_health_scrub_repair_commands() {
        assert_eq!(
            parse(&args("health wal/")).unwrap(),
            Command::Health { dir: "wal/".into() }
        );
        assert_eq!(
            parse(&args("scrub wal/")).unwrap(),
            Command::Scrub { dir: "wal/".into() }
        );
        assert_eq!(
            parse(&args("repair wal/")).unwrap(),
            Command::Repair {
                dir: "wal/".into(),
                streams: vec![],
                checkpoint: false,
            }
        );
        assert_eq!(
            parse(&args("repair wal/ orders parts --checkpoint")).unwrap(),
            Command::Repair {
                dir: "wal/".into(),
                streams: vec!["orders".into(), "parts".into()],
                checkpoint: true,
            }
        );
        assert!(parse(&args("health")).is_err());
        assert!(parse(&args("scrub a b")).is_err());
    }

    #[test]
    fn health_scrub_and_repair_on_a_healthy_directory() {
        let csv = tmp("health_ok.csv");
        fs::write(
            &csv, "1
2
3
4
",
        )
        .unwrap();
        let wal = tmp("health_ok_dir");
        let _ = fs::remove_dir_all(&wal);
        run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 8,
            out: tmp("health_ok.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: Some(wal.clone()),
            intake: IntakeFlags::default(),
        })
        .unwrap();

        let out = run(Command::Health { dir: wal.clone() }).unwrap();
        assert!(out.contains("health_ok: healthy"), "{out}");
        assert!(out.contains("all healthy"), "{out}");

        let out = run(Command::Scrub { dir: wal.clone() }).unwrap();
        assert!(out.contains("1 live stream(s)"), "{out}");
        assert!(out.contains("clean"), "{out}");

        let out = run(Command::Repair {
            dir: wal,
            streams: vec![],
            checkpoint: false,
        })
        .unwrap();
        assert!(out.contains("nothing to repair"), "{out}");
    }

    #[test]
    fn repair_heals_a_stream_quarantined_by_a_duplicate_register_record() {
        use dctstream_stream::{DirStorage, Wal, WalOptions, WalRecord};

        let csv = tmp("health_dup.csv");
        fs::write(
            &csv,
            "1
2
3
4
5
",
        )
        .unwrap();
        let wal = tmp("health_dup_dir");
        let _ = fs::remove_dir_all(&wal);
        run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 8,
            out: tmp("health_dup.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: Some(wal.clone()),
            intake: IntakeFlags::default(),
        })
        .unwrap();

        // Corrupt the log logically: append a second Register record for
        // the same stream. Plain reopen-replay treats a duplicate
        // registration as damage and quarantines the stream; repair's
        // scratch replay handles it idempotently and heals.
        let (payload, watermark) = {
            let (dp, _) = DurableProcessor::open(&wal).unwrap();
            (
                dp.processor().summary("health_dup").unwrap().to_bytes(),
                dp.wal_watermark(),
            )
        };
        {
            let storage = DirStorage::open(&wal).unwrap();
            // Seed sequencing past the checkpoint watermark so the bad
            // record lands where reopen-replay will actually read it.
            let (mut raw, _) = Wal::open(storage, WalOptions::default(), watermark).unwrap();
            raw.append(&WalRecord::register("health_dup", payload))
                .unwrap();
            raw.sync().unwrap();
        }

        let out = run(Command::Health { dir: wal.clone() }).unwrap();
        assert!(out.contains("health_dup: quarantined"), "{out}");
        assert!(out.contains("already registered"), "{out}");

        // repair --checkpoint heals the stream and retires the damaged
        // segments so the next open replays past the bad record.
        let out = run(Command::Repair {
            dir: wal.clone(),
            streams: vec![],
            checkpoint: true,
        })
        .unwrap();
        assert!(out.contains("repaired health_dup"), "{out}");
        assert!(out.contains("checkpointed at watermark"), "{out}");

        let out = run(Command::Health { dir: wal.clone() }).unwrap();
        assert!(out.contains("health_dup: healthy"), "{out}");
        assert!(out.contains("all healthy"), "{out}");
        let out = run(Command::Scrub { dir: wal }).unwrap();
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn parse_stats_and_watch_commands() {
        assert_eq!(
            parse(&args("stats")).unwrap(),
            Command::Stats {
                dir: None,
                format: StatsFormat::Table
            }
        );
        assert_eq!(
            parse(&args("stats wal/ --prom")).unwrap(),
            Command::Stats {
                dir: Some("wal/".into()),
                format: StatsFormat::Prom
            }
        );
        assert_eq!(
            parse(&args("stats --json")).unwrap(),
            Command::Stats {
                dir: None,
                format: StatsFormat::Json
            }
        );
        assert!(matches!(
            parse(&args("stats --json --prom")),
            Err(CliError::Usage(_))
        ));
        assert_eq!(
            parse(&args("watch wal/ --interval 250 --iterations 3")).unwrap(),
            Command::Watch {
                dir: Some("wal/".into()),
                interval_ms: 250,
                iterations: Some(3)
            }
        );
        assert_eq!(
            parse(&args("watch")).unwrap(),
            Command::Watch {
                dir: None,
                interval_ms: 1000,
                iterations: None
            }
        );
        assert!(matches!(
            parse(&args("watch --interval x")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_serve_command() {
        assert_eq!(
            parse(&args("serve wal/")).unwrap(),
            Command::Serve {
                dir: "wal/".into(),
                listen: "127.0.0.1:7171".into(),
                workers: 4,
                queue_depth: 64,
                publish_every: 1024,
                shards: 0,
                estimate_cache: 1024,
                tenant_quota: 0,
                fair: true,
            }
        );
        assert_eq!(
            parse(&args(
                "serve reg --listen 0.0.0.0:9000 --workers 8 --queue 16 --publish-every 1 \
                 --shards 4 --cache 0 --tenant-quota 2 --no-fair"
            ))
            .unwrap(),
            Command::Serve {
                dir: "reg".into(),
                listen: "0.0.0.0:9000".into(),
                workers: 8,
                queue_depth: 16,
                publish_every: 1,
                shards: 4,
                estimate_cache: 0,
                tenant_quota: 2,
                fair: false,
            }
        );
        assert!(matches!(parse(&args("serve")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&args("serve a b")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&args("serve wal/ --workers 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("serve wal/ --shards 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_record_command() {
        let mut cfg = dctstream_replay::SynthesisConfig::default();
        assert_eq!(
            parse(&args("record --out t.dctt")).unwrap(),
            Command::Record {
                out: "t.dctt".into(),
                listen: None,
                upstream: None,
                cfg: cfg.clone(),
            }
        );
        cfg.seed = 7;
        cfg.ops = 50;
        cfg.tenants = 2;
        cfg.mix = dctstream_replay::OpMix {
            ingest: 1,
            estimate: 1,
            chain: 0,
        };
        assert_eq!(
            parse(&args(
                "record --out t.dctt --seed 7 --ops 50 --tenants 2 --mix 1:1:0"
            ))
            .unwrap(),
            Command::Record {
                out: "t.dctt".into(),
                listen: None,
                upstream: None,
                cfg,
            }
        );
        assert_eq!(
            parse(&args(
                "record --out t.dctt --listen 0 --upstream 127.0.0.1:7171"
            ))
            .unwrap(),
            Command::Record {
                out: "t.dctt".into(),
                listen: Some(0),
                upstream: Some("127.0.0.1:7171".into()),
                cfg: dctstream_replay::SynthesisConfig::default(),
            }
        );
        // Proxy mode needs both halves; synthesis rejects junk knobs.
        assert!(matches!(
            parse(&args("record --out t.dctt --listen 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("record --out t.dctt --mix 1:2")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(parse(&args("record")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parse_replay_command() {
        assert_eq!(
            parse(&args(
                "replay t.dctt reg/ --shards 2 --connections 4 --speedup 10 --json"
            ))
            .unwrap(),
            Command::Replay {
                trace: "t.dctt".into(),
                dir: Some("reg/".into()),
                addr: None,
                shards: 2,
                connections: 4,
                speedup: 10.0,
                closed: false,
                json: true,
            }
        );
        assert_eq!(
            parse(&args("replay t.dctt --addr 127.0.0.1:7171 --closed")).unwrap(),
            Command::Replay {
                trace: "t.dctt".into(),
                dir: None,
                addr: Some("127.0.0.1:7171".into()),
                shards: 0,
                connections: 1,
                speedup: 1.0,
                closed: true,
                json: false,
            }
        );
        // Exactly one target; shards only make sense self-hosted.
        assert!(matches!(
            parse(&args("replay t.dctt")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("replay t.dctt reg/ --addr 127.0.0.1:1")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("replay t.dctt --addr 127.0.0.1:1 --shards 2")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("replay t.dctt reg/ --speedup 0")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_fleet_commands() {
        assert_eq!(
            parse(&args("fleet-init fleet/ --shards 4")).unwrap(),
            Command::FleetInit {
                dir: "fleet/".into(),
                shards: 4
            }
        );
        assert_eq!(
            parse(&args("fleet-status fleet/")).unwrap(),
            Command::FleetStatus {
                dir: "fleet/".into()
            }
        );
        assert_eq!(
            parse(&args("fleet-ship fleet/")).unwrap(),
            Command::FleetShip {
                dir: "fleet/".into()
            }
        );
        assert_eq!(
            parse(&args("fleet-promote fleet/ --shard 2")).unwrap(),
            Command::FleetPromote {
                dir: "fleet/".into(),
                shard: 2
            }
        );
        assert!(matches!(
            parse(&args("fleet-init fleet/ --shards 0")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("fleet-status a b")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("fleet-promote fleet/")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_init_status_ship_roundtrip() {
        let dir = tmp("fleet_cli_dir");
        let _ = fs::remove_dir_all(&dir);
        let out = run(Command::FleetInit {
            dir: dir.clone(),
            shards: 2,
        })
        .unwrap();
        assert!(out.contains("2-shard fleet"), "{out}");
        let out = run(Command::FleetStatus { dir: dir.clone() }).unwrap();
        assert!(out.contains("shard 00"), "{out}");
        assert!(out.contains("shard 01"), "{out}");
        assert!(out.contains("alive"), "{out}");
        let out = run(Command::FleetShip { dir: dir.clone() }).unwrap();
        assert!(out.contains("parity"), "{out}");
        // Promoting a shard with a recoverable primary must refuse.
        assert!(matches!(
            run(Command::FleetPromote {
                dir: dir.clone(),
                shard: 0
            }),
            Err(CliError::Usage(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Drive a full build + query + scrub session in-process, then check
    /// that `stats --prom` emits valid Prometheus exposition covering
    /// the ingest, estimate, WAL, and health subsystems, merged with the
    /// registry's persisted counters.
    #[test]
    fn stats_prom_covers_ingest_estimate_wal_and_health() {
        let csv = tmp("stats_session.csv");
        fs::write(&csv, "1\n2\n3\n4\n5\n6\n7\n8\n").unwrap();
        let wal = tmp("stats_session_dir");
        let _ = fs::remove_dir_all(&wal);
        let (a, b) = (tmp("stats_a.dcts"), tmp("stats_b.dcts"));
        for out in [&a, &b] {
            run(Command::Build {
                input: csv.clone(),
                column: 0,
                domain: (0, 9),
                m: 8,
                out: out.clone(),
                skip_header: false,
                threads: 1,
                wal_dir: if *out == a { Some(wal.clone()) } else { None },
                intake: IntakeFlags::default(),
            })
            .unwrap();
        }
        run(Command::Join {
            left: a,
            right: b,
            budget: None,
        })
        .unwrap();
        run(Command::Scrub { dir: wal.clone() }).unwrap();

        let prom = run(Command::Stats {
            dir: Some(wal),
            format: StatsFormat::Prom,
        })
        .unwrap();

        // Every subsystem the session exercised is present.
        for needle in [
            "dctstream_ingest_events_total",
            "dctstream_synopsis_updates_total",
            "dctstream_estimate_latency_bucket",
            "dctstream_estimate_latency_count",
            "dctstream_wal_appends_total",
            "dctstream_wal_fsync_count",
            "dctstream_health_scrubs_total",
            "dctstream_registry_events_total",
            "dctstream_registry_checkpoints_total",
        ] {
            assert!(prom.contains(needle), "missing {needle} in:\n{prom}");
        }
        // Valid exposition shape: every line is a comment or
        // `name[{labels}] value`, names carry the namespace prefix.
        for line in prom.lines().filter(|l| !l.is_empty()) {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                    "bad comment line: {line}"
                );
                continue;
            }
            assert!(line.starts_with("dctstream_"), "unprefixed line: {line}");
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable sample value in: {line}"
            );
        }
    }

    #[test]
    fn watch_renders_frames_with_metrics_table() {
        // Record something so the table is non-empty even when this test
        // runs first in the process.
        dctstream_obs::counter_add!("ingest.events", 0);
        let out = run(Command::Watch {
            dir: None,
            interval_ms: 1,
            iterations: Some(2),
        })
        .unwrap();
        assert!(out.contains("watch frame 1"), "{out}");
        assert!(out.contains("COUNTER"), "{out}");
        assert!(out.contains("ingest.events"), "{out}");
    }

    #[test]
    fn stats_json_is_well_formed_enough_to_name_sections() {
        let out = run(Command::Stats {
            dir: None,
            format: StatsFormat::Json,
        })
        .unwrap();
        for key in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
    }

    #[test]
    fn parse_probe_and_verify_commands() {
        let cmd = parse(&args(
            "probe in.csv --delimiter tab --sample-rows 50 --header --out s.schema",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Probe {
                input: "in.csv".into(),
                delimiter: Some("tab".into()),
                sample_rows: 50,
                header: Some(true),
                out: Some("s.schema".into()),
            }
        );
        let cmd = parse(&args("probe in.csv --full-scan --no-header")).unwrap();
        assert!(
            matches!(
                &cmd,
                Command::Probe {
                    sample_rows: 0,
                    header: Some(false),
                    ..
                }
            ),
            "{cmd:?}"
        );
        assert!(matches!(
            parse(&args("probe in.csv --full-scan --sample-rows 5")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("probe in.csv --header --no-header")),
            Err(CliError::Usage(_))
        ));

        let cmd = parse(&args(
            "verify in.csv --schema s.schema --rejects r.log --reject-threshold 0.25",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Verify {
                input: "in.csv".into(),
                schema: "s.schema".into(),
                rejects: Some("r.log".into()),
                delimiter: None,
                reject_threshold: Some(0.25),
            }
        );
        // --schema is mandatory for verify, and the threshold must be a
        // probability.
        assert!(matches!(
            parse(&args("verify in.csv")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&args("verify in.csv --schema s --reject-threshold 1.5")),
            Err(CliError::Usage(_))
        ));
        // Intake flags on build no longer need --schema.
        let cmd = parse(&args(
            "build --input a --column 0 --domain 0:9 -m 4 --out b --rejects r \
             --delimiter ; --reject-threshold 0.5",
        ))
        .unwrap();
        assert!(
            matches!(&cmd, Command::Build { intake, .. } if intake.schema.is_none()
                && intake.delimiter.as_deref() == Some(";")
                && intake.reject_threshold == Some(0.5)),
            "{cmd:?}"
        );
    }

    #[test]
    fn probe_then_build_via_schema_roundtrip() {
        let csv = tmp("probe_rt.csv");
        fs::write(&csv, "id,val\n1,3\n2,4\n3,4\n4,9\n").unwrap();
        let schema_path = tmp("probe_rt.schema");
        let out = run(Command::Probe {
            input: csv.clone(),
            delimiter: None,
            sample_rows: 2000,
            header: None,
            out: Some(schema_path.clone()),
        })
        .unwrap();
        assert!(out.contains("probed 4 rows"), "{out}");
        let text = fs::read_to_string(&schema_path).unwrap();
        assert!(text.starts_with("dctstream-schema v1"), "{text}");

        // The probed schema drives verify (clean file -> clean report)...
        let report = run(Command::Verify {
            input: csv.clone(),
            schema: schema_path.clone(),
            rejects: None,
            delimiter: None,
            reject_threshold: None,
        })
        .unwrap();
        assert!(report.contains("rows seen      4"), "{report}");
        assert!(report.contains("rows rejected  0"), "{report}");

        // ...and a build, giving the same bytes as the implicit schema.
        let via_schema = tmp("probe_rt_schema.dcts");
        run(Command::Build {
            input: csv.clone(),
            column: 1,
            domain: (0, 9),
            m: 8,
            out: via_schema.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags {
                schema: Some(schema_path),
                ..IntakeFlags::default()
            },
        })
        .unwrap();
        let implicit = tmp("probe_rt_implicit.dcts");
        run(Command::Build {
            input: csv,
            column: 1,
            domain: (0, 9),
            m: 8,
            out: implicit.clone(),
            skip_header: true,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        assert_eq!(
            fs::read(&via_schema).unwrap(),
            fs::read(&implicit).unwrap(),
            "the probed schema must build the same bytes as the implicit one"
        );
    }

    #[test]
    fn dirty_build_attributes_rejects_and_writes_sidecar() {
        let csv = tmp("dirty.csv");
        // Rows: ok, blank, wrong arity, non-numeric, out-of-domain, ok.
        fs::write(&csv, "1,10\n\n2,20,extra\n3,soup\n4,99\n5,30\n").unwrap();
        let schema_path = tmp("dirty.schema");
        fs::write(
            &schema_path,
            "dctstream-schema v1\ndelimiter comma\nheader false\n\
             column 0 id int 0:9\ncolumn 1 val int 0:40\n",
        )
        .unwrap();
        let rejects = tmp("dirty.rejects");
        let out_syn = tmp("dirty.dcts");
        let out = run(Command::Build {
            input: csv.clone(),
            column: 1,
            domain: (0, 40),
            m: 8,
            out: out_syn.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags {
                schema: Some(schema_path),
                rejects: Some(rejects.clone()),
                ..IntakeFlags::default()
            },
        })
        .unwrap();
        assert!(out.contains("2 tuples"), "{out}");
        assert!(out.contains("4 rejected"), "{out}");
        for cause in ["blank-line", "wrong-arity", "bad-value", "out-of-domain"] {
            assert!(out.contains(cause), "missing {cause} in:\n{out}");
        }
        let sidecar = fs::read_to_string(&rejects).unwrap();
        assert_eq!(sidecar.lines().count(), 4, "{sidecar}");
        assert!(sidecar.contains("row=2 "), "{sidecar}");
        assert!(sidecar.contains("cause=out-of-domain"), "{sidecar}");

        // The accepted rows alone define the synopsis: bit-identical to
        // building from the clean subset.
        let clean_csv = tmp("dirty_clean.csv");
        fs::write(&clean_csv, "1,10\n5,30\n").unwrap();
        let clean_syn = tmp("dirty_clean.dcts");
        run(Command::Build {
            input: clean_csv,
            column: 1,
            domain: (0, 40),
            m: 8,
            out: clean_syn.clone(),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags::default(),
        })
        .unwrap();
        assert_eq!(fs::read(&out_syn).unwrap(), fs::read(&clean_syn).unwrap());
    }

    #[test]
    fn reject_threshold_quarantines_the_build() {
        let csv = tmp("quarantine.csv");
        let mut text = String::new();
        for i in 0..300 {
            if i % 2 == 0 {
                text.push_str("oops\n");
            } else {
                text.push_str(&format!("{}\n", i % 10));
            }
        }
        fs::write(&csv, &text).unwrap();
        let schema_path = tmp("quarantine.schema");
        fs::write(
            &schema_path,
            "dctstream-schema v1\ndelimiter comma\nheader false\ncolumn 0 v int 0:9\n",
        )
        .unwrap();
        let err = run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 4,
            out: tmp("quarantine.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: None,
            intake: IntakeFlags {
                schema: Some(schema_path),
                reject_threshold: Some(0.1),
                ..IntakeFlags::default()
            },
        })
        .unwrap_err();
        match err {
            CliError::Quarantined(msg) => {
                assert!(msg.contains("QUARANTINED"), "{msg}");
                assert!(msg.contains("threshold"), "{msg}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn wal_build_via_schema_quarantines_stream_on_threshold() {
        let csv = tmp("wal_quarantine.csv");
        let mut text = String::new();
        for i in 0..300 {
            if i % 2 == 0 {
                text.push_str("bogus\n");
            } else {
                text.push_str(&format!("{}\n", i % 10));
            }
        }
        fs::write(&csv, &text).unwrap();
        let schema_path = tmp("wal_quarantine.schema");
        fs::write(
            &schema_path,
            "dctstream-schema v1\ndelimiter comma\nheader false\ncolumn 0 v int 0:9\n",
        )
        .unwrap();
        let wal = tmp("wal_quarantine_dir");
        let _ = fs::remove_dir_all(&wal);
        let err = run(Command::Build {
            input: csv,
            column: 0,
            domain: (0, 9),
            m: 4,
            out: wal.join("q.dcts"),
            skip_header: false,
            threads: 1,
            wal_dir: Some(wal.clone()),
            intake: IntakeFlags {
                schema: Some(schema_path),
                reject_threshold: Some(0.1),
                ..IntakeFlags::default()
            },
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Quarantined(_)), "{err:?}");
        // The quarantine left no checkpoint behind: the stream's WAL
        // records exist but no synopsis file was written.
        assert!(!wal.join("q.dcts").exists());
    }

    #[test]
    fn build_via_schema_reads_stdin_dash_schema_errors_are_usage() {
        // A missing schema file is a usage error, not an I/O panic.
        let err = run(Command::Verify {
            input: tmp("nonexistent.csv"),
            schema: tmp("nonexistent.schema"),
            rejects: None,
            delimiter: None,
            reject_threshold: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        // A malformed schema file is reported as usage with the line.
        let bad = tmp("bad.schema");
        fs::write(&bad, "dctstream-schema v1\ncolumn 0 v frobnicated\n").unwrap();
        let err = run(Command::Verify {
            input: bad.clone(),
            schema: bad,
            rejects: None,
            delimiter: None,
            reject_threshold: None,
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    /// Parse and run one command line.
    fn cli(line: &str) -> CliResult<String> {
        run(parse(&args(line))?)
    }

    fn usage_message(line: &str) -> String {
        match parse(&args(line)) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error for '{line}', got {other:?}"),
        }
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_usage_errors() {
        let build = "build --input a.csv --column 0 --domain 0:9 -m 4 --out b.dcts";
        for (extra, named) in [
            ("--threds 4", "--threds"),
            ("extra", "'extra'"),
            ("--schem f.schema", "--schem"),
            ("--json", "--json"),
        ] {
            let msg = usage_message(&format!("{build} {extra}"));
            assert!(msg.contains(named), "{extra}: {msg}");
        }
        let msg = usage_message("serve wal/ --cahce 0");
        assert!(msg.contains("--cahce"), "{msg}");
        let msg = usage_message("replay t.dctt reg/ --conections 2");
        assert!(msg.contains("--conections"), "{msg}");
        let msg = usage_message("replay t.dctt reg/ extra");
        assert!(msg.contains("'extra'"), "{msg}");
        let msg = usage_message("info a.dcts b.dcts");
        assert!(msg.contains("'b.dcts'"), "{msg}");
        // `-m` and `--m` are the same flag, and a bare `-` is stdin.
        assert!(matches!(
            parse(&args("build --input - --column 0 --domain 0:9 --m 4 --out b")),
            Ok(Command::Build { m: 4, ref input, .. }) if input == Path::new("-")
        ));
        assert!(matches!(
            parse(&args("probe -")),
            Ok(Command::Probe { ref input, .. }) if input == Path::new("-")
        ));
    }

    /// A headered file with a text column, a blank line and a
    /// non-numeric target value.
    const MIXED: &str = "id,name,val\n1,ann,3\n2,bo,4\n\n3,cy,oops\n4,di,4\n5,ed,9\n";

    #[test]
    fn implicit_schema_build_matches_the_schema_build() {
        let csv = tmp("implicit.csv");
        fs::write(&csv, MIXED).unwrap();
        let schema = tmp("implicit.schema");
        fs::write(
            &schema,
            "dctstream-schema v1\ndelimiter comma\nheader true\n\
             column 0 id int\ncolumn 1 name text\ncolumn 2 val int\n",
        )
        .unwrap();
        let (c, s) = (csv.display(), schema.display());
        for threads in [1, 2] {
            let (implicit, typed) = (tmp("implicit_a.dcts"), tmp("implicit_b.dcts"));
            let out = cli(&format!(
                "build --input {c} --column 2 --domain 0:9 -m 8 --threads {threads} \
                 --skip-header --out {}",
                implicit.display()
            ))
            .unwrap();
            assert!(out.contains("4 tuples (2 rejected)"), "{out}");
            assert!(
                out.contains("blank-line") && out.contains("bad-value"),
                "{out}"
            );
            cli(&format!(
                "build --input {c} --column 2 --domain 0:9 -m 8 --threads {threads} \
                 --schema {s} --out {}",
                typed.display()
            ))
            .unwrap();
            assert_eq!(fs::read(&implicit).unwrap(), fs::read(&typed).unwrap());
        }
        let (implicit, typed) = (tmp("implicit2_a.dcts"), tmp("implicit2_b.dcts"));
        let build2 = format!("build2 --input {c} --columns 0,2 --domains 0:9,0:9 --degree 4");
        let out = cli(&format!(
            "{build2} --skip-header --out {}",
            implicit.display()
        ))
        .unwrap();
        assert!(out.contains("4 tuples (2 rejected)"), "{out}");
        cli(&format!("{build2} --schema {s} --out {}", typed.display())).unwrap();
        assert_eq!(fs::read(&implicit).unwrap(), fs::read(&typed).unwrap());
    }

    #[test]
    fn intake_flags_work_without_a_schema() {
        let csv = tmp("implicit_flags.csv");
        fs::write(&csv, "1;x;3\n2;y;12\n3;z;4\n").unwrap();
        let rejects = tmp("implicit_flags.rejects");
        let _ = fs::remove_file(&rejects);
        // The out-of-domain value sits in column 2 and is named as such.
        let out = cli(&format!(
            "build2 --input {} --columns 0,2 --domains 0:9,0:9 --degree 4 --delimiter ; \
             --rejects {} --out {}",
            csv.display(),
            rejects.display(),
            tmp("implicit_flags.dcts").display()
        ))
        .unwrap();
        assert!(out.contains("2 tuples (1 rejected)"), "{out}");
        let sidecar = fs::read_to_string(&rejects).unwrap();
        assert!(
            sidecar.contains("row=2 col=2 cause=out-of-domain"),
            "{sidecar}"
        );

        let bad: String = (0..300).map(|i| format!("{}\n", i % 20)).collect();
        let noisy = tmp("implicit_noisy.csv");
        fs::write(&noisy, bad).unwrap();
        let err = cli(&format!(
            "build --input {} --column 0 --domain 0:9 -m 4 --reject-threshold 0.1 --out {}",
            noisy.display(),
            tmp("implicit_noisy.dcts").display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Quarantined(_)), "{err:?}");
    }

    #[test]
    fn empty_input_writes_an_empty_synopsis() {
        let csv = tmp("implicit_empty.csv");
        fs::write(&csv, "").unwrap();
        let syn = tmp("implicit_empty.dcts");
        let out = cli(&format!(
            "build --input {} --column 3 --domain 0:9 -m 4 --out {}",
            csv.display(),
            syn.display()
        ))
        .unwrap();
        assert!(out.contains("0 tuples (0 rejected)"), "{out}");
        assert_eq!(load_cosine(&syn).unwrap().count(), 0.0);
    }

    #[test]
    fn column_past_the_first_line_is_a_usage_error() {
        // A quoted delimiter does not split a field; broken quoting
        // falls back to the raw count.
        for first in ["1,2", "\"a,b\",c", "\"a,b"] {
            let csv = tmp("implicit_narrow.csv");
            fs::write(&csv, format!("{first}\n3,4\n")).unwrap();
            let err = cli(&format!(
                "build --input {} --column 2 --domain 0:9 -m 4 --out {}",
                csv.display(),
                tmp("implicit_narrow.dcts").display()
            ))
            .unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("column 2 out of range for the 2-column")),
                "{first}: {err:?}"
            );
        }
    }
}
