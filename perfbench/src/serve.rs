//! The three serve workloads.
//!
//! The end-to-end run drives a `dctstream serve` child over loopback
//! HTTP. The traced run then replays the same generated ops in-process
//! through the public calls the daemon's handlers make —
//! `http::read_request`, `GroupDurable::with(process_weighted)`,
//! `capture_snapshot` every `publish_every` rows, `GroupDurable::sync`,
//! `RegistrySnapshot::estimate_cosine_join` / `ChainJoinQuery::estimate_at`,
//! or `ShardedRegistry::ingest` / `capture_merged_at` for the fleet —
//! timing each call from here, so no span inside the program is needed.

use crate::daemon::{delta, dir_bytes, scrape, Daemon};
use crate::inputs::{mean_rel_err, serve_inputs, ExactState, ServeInputs, ServeParams};
use crate::metrics::Report;
use crate::sender::{drive, render, Outcome, Pacing, Route, TIMEOUT};
use crate::stats::{median, tail_percentile, Fnv};
use crate::{check_repeat, fresh_dir, Ctx};
use dctstream_core::{CosineSynopsis, DctError, Domain, Grid, MultiDimSynopsis};
use dctstream_replay::{ChainLink, Client, RegisterKind, TraceOp, TraceRecord};
use dctstream_serve::{http::read_request, parse_row, ServeOptions};
use dctstream_stream::{
    ChainJoinQuery, DirStorage, FleetOptions, GroupDurable, RecoveryOptions, RegistrySnapshot,
    ShardedRegistry, SnapshotCell, Summary,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The routes a measured trace exercises.
const MEASURED_ROUTES: [Route; 3] = [Route::Ingest, Route::Estimate, Route::Chain];

fn fail_unless_ok(o: &Outcome, what: &str) -> Result<(), String> {
    match o.failed() {
        0 => Ok(()),
        n => Err(format!("{what}: {n} of {} requests failed", o.attempted())),
    }
}

/// Run one serve workload: set-up, measured phase, final answers, and
/// with `ctx.trace` the traced in-process replay.
pub fn run(p: &ServeParams, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = serve_inputs(p, ctx.seed, ctx.seconds);
    report.stamp("trace_ops", inputs.measured.len().to_string());

    // Set-up, timed SETUP_REPS times on fresh registries: daemon start,
    // register preamble, preload. The last daemon serves the run.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        if let Some((d, dir)) = live.take() {
            Daemon::stop(d)?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.work.join(format!("registry-{rep}"));
        fresh_dir(&dir)?;
        let t = Instant::now();
        let d = Daemon::start(&ctx.dctstream, &dir, p.shards, &ctx.serve_args)?;
        fail_unless_ok(
            &drive(d.addr(), &inputs.registers, 1, Pacing::Closed),
            "register preamble",
        )?;
        fail_unless_ok(
            &drive(d.addr(), &inputs.preload, p.connections, Pacing::Closed),
            "preload",
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((d, dir));
    }
    let (daemon, dir) = live.expect("at least one set-up ran");
    let addr = daemon.addr();

    let before = scrape(addr)?;
    let bytes_before = dir_bytes(&dir);
    let pacing = if p.open_loop {
        Pacing::Open
    } else {
        Pacing::Closed
    };
    let run = drive(addr, &inputs.measured, p.connections, pacing);
    let after = scrape(addr)?;
    let bytes_after = dir_bytes(&dir);
    let rss = daemon.peak_rss_mb();

    // Final answers, after a checkpoint forces a publish of everything.
    let publish = Client::connect(addr, TIMEOUT)
        .and_then(|mut c| c.request("POST", "/v1/checkpoint", ""))
        .map_err(|e| format!("forcing a publish: {e}"))?;
    report.check(
        "forced publish",
        publish.status == 200,
        format!("POST /v1/checkpoint answered {}", publish.status),
    );
    let finals = drive(addr, &inputs.finals, 1, Pacing::Closed);
    daemon.stop()?;

    // Output checks.
    let n = inputs.measured.len();
    report.check(
        "replayed op count equals trace length",
        run.answers.len() == n && run.transport_failures == 0,
        format!(
            "{} answered, {} unanswered, trace {n}",
            run.answers.len(),
            run.transport_failures
        ),
    );
    let texts: Vec<&str> = finals
        .answers
        .iter()
        .filter_map(|a| a.estimate.as_deref())
        .collect();
    report.check(
        "every final query answered",
        texts.len() == inputs.finals.len(),
        format!("{} of {}", texts.len(), inputs.finals.len()),
    );
    let digest = texts
        .iter()
        .fold(Fnv::default(), |h, t| h.bytes(t.as_bytes()).bytes(b"\n"))
        .hex();
    report.stamp("final_digest", digest.clone());
    check_repeat(ctx, report, &digest);

    // End-to-end metrics.
    let exact = ExactState::from_ops(inputs.all_ops());
    let pairs: Vec<(f64, f64)> = inputs
        .finals
        .iter()
        .zip(&texts)
        .filter_map(|(q, t)| Some((t.parse().ok()?, exact.answer(q))))
        .collect();
    let (err, err_n) = mean_rel_err(&pairs);
    let ok = run.answers.iter().filter(|a| a.ok()).count();
    let acked: u64 = run.answers.iter().map(|a| a.accepted).sum();
    let ingests = run.latencies(Route::Ingest).len();
    report.attempted = run.attempted();
    report.failed = run.failed();
    report.set(
        "setup_s",
        median(&setup_s).unwrap_or(f64::NAN),
        Some(SETUP_REPS),
    );
    report.set("ops_per_s", ok as f64 / run.wall_s, Some(ok));
    report.set("rows_per_s", acked as f64 / run.wall_s, Some(ingests));
    for (route, name) in [
        (Route::Ingest, "ingest_p50_ms"),
        (Route::Estimate, "estimate_p50_ms"),
        (Route::Chain, "chain_p50_ms"),
    ] {
        let lat = run.latencies(route);
        report.set(name, median(&lat).unwrap_or(f64::NAN), Some(lat.len()));
        match tail_percentile(&lat, 0.99) {
            Some(v) => report.note(format!("{}_p99_ms {v} ms (n={})", route.name(), lat.len())),
            None => report.note(format!(
                "{}_p99_ms not reported: {} samples, a p99 needs 1000",
                route.name(),
                lat.len()
            )),
        }
    }
    let attempted = run.attempted().max(1);
    report.set(
        "ok_ratio",
        (attempted - run.failed()) as f64 / attempted as f64,
        Some(attempted as usize),
    );
    report.set("est_rel_err", err, Some(err_n));
    report.set("peak_rss_mb", rss.unwrap_or(f64::NAN), None);
    report.set(
        "log_bytes_per_row",
        bytes_after.saturating_sub(bytes_before) as f64 / acked.max(1) as f64,
        Some(acked as usize),
    );
    let behind: Vec<f64> = run
        .answers
        .iter()
        .filter_map(|a| a.records_behind.map(|b| b as f64))
        .collect();
    report.note(format!(
        "stale_records_p50 {} records (n={})",
        median(&behind).unwrap_or(0.0),
        behind.len()
    ));
    let (s429, s503) = run.answers.iter().fold((0, 0), |(a, b), x| {
        (
            a + u64::from(x.status == 429),
            b + u64::from(x.status == 503),
        )
    });
    report.note(format!("answers_429 {s429} answers_503 {s503}"));

    if !ctx.trace {
        return Ok(());
    }

    // Per-layer metrics read off the daemon's own counters.
    let d = |name: &str| delta(&before, &after, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = d("dctstream_serve_cache_hits_total");
    let misses = d("dctstream_serve_cache_misses_total");
    report.set(
        "stream.wal.fsyncs_per_ingest",
        ratio(d("dctstream_wal_fsyncs_total"), ingests as f64),
        Some(ingests),
    );
    report.set(
        "stream.wal.append_bytes_per_row",
        ratio(d("dctstream_wal_append_bytes_total"), acked as f64),
        Some(acked as usize),
    );
    report.set(
        "serve.cache.hit_ratio",
        ratio(hits, hits + misses),
        Some((hits + misses) as usize),
    );
    report.note(format!(
        "serve.cache.hit_ratio base: {hits} hits + {misses} misses"
    ));
    let requests = d("dctstream_serve_requests_total");
    report.set(
        "serve.requeues_per_request",
        ratio(d("dctstream_serve_requeues_total"), requests),
        Some(requests as usize),
    );
    report.set(
        "serve.admission.rejected_ratio",
        ratio(
            d("dctstream_serve_rejected_total"),
            d("dctstream_serve_accepted_total"),
        ),
        None,
    );
    let lateness = tail_percentile(&run.lateness_ms, 0.99);
    report.set(
        "replay.lateness_p99_ms",
        lateness.unwrap_or(0.0),
        Some(run.lateness_ms.len()),
    );
    if p.open_loop && lateness.is_none() {
        report.note("replay.lateness_p99_ms: too few open-loop sends for a p99; reads 0");
    }

    // Per-layer metrics timed in-process over the same inputs.
    let traced = traced_replay(p, &inputs, &ctx.work.join("traced"))?;
    report.check(
        "traced run answers bit-identically",
        traced.digest == digest,
        format!("http {digest} traced {}", traced.digest),
    );
    let p50 = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let n_of = |xs: &[f64]| Some(xs.len());
    report.set(
        "serve.http.read_request.p50_us",
        p50(&traced.read_request_us),
        n_of(&traced.read_request_us),
    );
    report.set(
        "stream.recovery.process_weighted.p50_us",
        p50(&traced.process_weighted_us),
        n_of(&traced.process_weighted_us),
    );
    report.set(
        "stream.recovery.process_weighted.count",
        traced.process_weighted_us.len() as f64,
        None,
    );
    report.set(
        "stream.recovery.sync.p50_us",
        p50(&traced.sync_us),
        n_of(&traced.sync_us),
    );
    let sync_p99 = tail_percentile(&traced.sync_us, 0.99);
    report.set(
        "stream.recovery.sync.p99_us",
        sync_p99.unwrap_or(0.0),
        n_of(&traced.sync_us),
    );
    if sync_p99.is_none() && !traced.sync_us.is_empty() {
        report.note(format!(
            "stream.recovery.sync.p99_us: {} syncs, a p99 needs 1000; reads 0",
            traced.sync_us.len()
        ));
    }
    report.set(
        "stream.snapshot.capture.p50_us",
        p50(&traced.capture_us),
        n_of(&traced.capture_us),
    );
    report.set(
        "stream.snapshot.capture.count",
        traced.capture_us.len() as f64,
        None,
    );
    report.set(
        "stream.snapshot.estimate.p50_us",
        p50(&traced.estimate_us),
        n_of(&traced.estimate_us),
    );
    report.set(
        "stream.query.estimate_at.p50_us",
        p50(&traced.estimate_at_us),
        n_of(&traced.estimate_at_us),
    );
    report.set(
        "stream.shard.ingest.p50_us",
        p50(&traced.shard_ingest_us),
        n_of(&traced.shard_ingest_us),
    );
    report.set(
        "stream.shard.capture_merged.p50_us",
        p50(&traced.capture_merged_us),
        n_of(&traced.capture_merged_us),
    );
    let skew = match traced.shard_rows.iter().max() {
        Some(&max) if max > 0 => {
            let mean =
                traced.shard_rows.iter().sum::<u64>() as f64 / traced.shard_rows.len() as f64;
            max as f64 / mean
        }
        _ => 0.0,
    };
    report.set("stream.shard.partition_skew", skew, None);
    for route in MEASURED_ROUTES {
        let name = match route {
            Route::Ingest => "serve.unattributed_ms.ingest",
            Route::Estimate => "serve.unattributed_ms.estimate",
            _ => "serve.unattributed_ms.chain",
        };
        let e2e = median(&run.latencies(route)).unwrap_or(0.0);
        let layers = traced.route_layers.get(&route);
        let attributed: f64 = layers
            .map(|l| l.values().map(|v| p50(v)).sum())
            .unwrap_or(0.0);
        let parts: Vec<String> = layers
            .map(|l| {
                l.iter()
                    .map(|(k, v)| format!("{k} {:.4}", p50(v)))
                    .collect()
            })
            .unwrap_or_default();
        report.set(name, e2e - attributed, None);
        report.note(format!(
            "{name}: end-to-end p50 {e2e:.4} ms = layers [{}] + unattributed {:.4} ms",
            parts.join(", "),
            e2e - attributed
        ));
        report.check(
            format!("{name} is non-negative"),
            e2e - attributed >= 0.0,
            format!("{:.4} ms", e2e - attributed),
        );
    }
    for def in &crate::metrics::PER_LAYER {
        if def.name.starts_with("core.") || def.name.starts_with("intake.") {
            report.set(def.name, 0.0, None);
        }
    }
    Ok(())
}

/// What the traced in-process replay timed. Times in microseconds,
/// except the per-route layer breakdown (milliseconds).
#[derive(Debug, Default)]
struct Traced {
    digest: String,
    read_request_us: Vec<f64>,
    process_weighted_us: Vec<f64>,
    sync_us: Vec<f64>,
    capture_us: Vec<f64>,
    estimate_us: Vec<f64>,
    estimate_at_us: Vec<f64>,
    shard_ingest_us: Vec<f64>,
    capture_merged_us: Vec<f64>,
    shard_rows: Vec<u64>,
    /// Per route, per layer: that layer's time in each request, 0 where
    /// the request skipped it.
    route_layers: BTreeMap<Route, BTreeMap<&'static str, Vec<f64>>>,
}

impl Traced {
    fn layer(&mut self, route: Route, name: &'static str, d: Duration) {
        self.route_layers
            .entry(route)
            .or_default()
            .entry(name)
            .or_default()
            .push(d.as_secs_f64() * 1e3);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn dct(e: DctError) -> String {
    e.to_string()
}

/// The daemon's write side, as `Server::start` builds it.
enum Backend {
    Single(GroupDurable<DirStorage>),
    Fleet(ShardedRegistry),
}

struct Replayer {
    backend: Backend,
    cell: SnapshotCell,
    since_publish: u64,
    publish_every: u64,
}

impl Replayer {
    /// Capture and publish a fresh snapshot, as `publish_now` does.
    fn publish(&self) -> Result<Duration, String> {
        let epoch = self.cell.next_epoch();
        let t = Instant::now();
        let snap = match &self.backend {
            Backend::Single(gd) => gd.with(|dp| dp.capture_snapshot(epoch)),
            Backend::Fleet(f) => f.capture_merged_at(epoch).map(|(s, _)| s),
        }
        .map_err(dct)?;
        let took = t.elapsed();
        self.cell.store(Arc::new(snap));
        Ok(took)
    }

    /// The snapshot a read answers from: the published one, or for a
    /// fleet a fresh merged capture (timed).
    fn read_snapshot(&self) -> Result<(Arc<RegistrySnapshot>, Option<Duration>), String> {
        match &self.backend {
            Backend::Single(_) => Ok((self.cell.load(), None)),
            Backend::Fleet(f) => {
                let epoch = self.cell.next_epoch();
                let t = Instant::now();
                let (snap, _) = f.capture_merged_at(epoch).map_err(dct)?;
                Ok((Arc::new(snap), Some(t.elapsed())))
            }
        }
    }

    /// Apply one op through the handler's calls; time them into `t`
    /// when given. Returns the estimate of a read.
    fn apply(
        &mut self,
        rec: &TraceRecord,
        mut t: Option<&mut Traced>,
    ) -> Result<Option<f64>, String> {
        let wire = render(rec).wire_bytes();
        let start = Instant::now();
        let req = read_request(&mut wire.as_slice())
            .map_err(|e| e.to_string())?
            .ok_or("rendered request parsed as empty")?;
        let read = start.elapsed();
        let route = render(rec).route;
        if let Some(t) = t.as_deref_mut() {
            if route != Route::Register {
                t.read_request_us.push(us(read));
                t.layer(route, "read_request", read);
            }
        }
        let key = |s: &str| format!("{}/{s}", rec.tenant);
        match &rec.op {
            TraceOp::Register { stream, kind } => {
                let summary = match kind {
                    RegisterKind::Cosine { lo, hi, m } => Summary::Cosine(
                        CosineSynopsis::new(Domain::new(*lo, *hi), Grid::Midpoint, *m as usize)
                            .map_err(dct)?,
                    ),
                    RegisterKind::Multi { degree, domains } => Summary::Multi(
                        MultiDimSynopsis::new(
                            domains
                                .iter()
                                .map(|&(lo, hi)| Domain::new(lo, hi))
                                .collect(),
                            Grid::Midpoint,
                            *degree as usize,
                        )
                        .map_err(dct)?,
                    ),
                };
                match &self.backend {
                    Backend::Single(gd) => gd.register(key(stream), summary),
                    Backend::Fleet(f) => f.register(key(stream), summary),
                }
                .map_err(dct)?;
                self.publish()?;
                Ok(None)
            }
            TraceOp::Ingest { stream, .. } => {
                let body = String::from_utf8(req.body).map_err(|e| e.to_string())?;
                let rows = body.lines().map(parse_row).collect::<Result<Vec<_>, _>>()?;
                let key = key(stream);
                self.since_publish += rows.len() as u64;
                let due = self.since_publish >= self.publish_every;
                if due {
                    self.since_publish = 0;
                }
                match &self.backend {
                    Backend::Single(gd) => {
                        let epoch = due.then(|| self.cell.next_epoch());
                        let mut pw = Duration::ZERO;
                        let mut capture = Duration::ZERO;
                        let mut pw_each = Vec::new();
                        let snap = gd
                            .with(|dp| -> Result<Option<RegistrySnapshot>, DctError> {
                                for (tuple, w) in &rows {
                                    let s = Instant::now();
                                    dp.process_weighted(&key, tuple, *w)?;
                                    let el = s.elapsed();
                                    pw += el;
                                    pw_each.push(us(el));
                                }
                                let Some(epoch) = epoch else { return Ok(None) };
                                let s = Instant::now();
                                let snap = dp.capture_snapshot(epoch)?;
                                capture = s.elapsed();
                                Ok(Some(snap))
                            })
                            .map_err(dct)?;
                        let s = Instant::now();
                        gd.sync().map_err(dct)?;
                        let sync = s.elapsed();
                        if let Some(snap) = snap {
                            self.cell.store(Arc::new(snap));
                        }
                        if let Some(t) = t {
                            t.process_weighted_us.extend(pw_each);
                            t.sync_us.push(us(sync));
                            if due {
                                t.capture_us.push(us(capture));
                            }
                            t.layer(route, "process_weighted", pw);
                            t.layer(route, "capture_snapshot", capture);
                            t.layer(route, "sync", sync);
                        }
                    }
                    Backend::Fleet(f) => {
                        let s = Instant::now();
                        f.ingest(&key, &rows).map_err(dct)?;
                        let ingest = s.elapsed();
                        let capture = if due { self.publish()? } else { Duration::ZERO };
                        if let Some(t) = t {
                            t.shard_rows.resize(f.shards(), 0);
                            for (tuple, _) in &rows {
                                t.shard_rows[f.route(tuple)] += 1;
                            }
                            t.shard_ingest_us.push(us(ingest));
                            if due {
                                t.capture_merged_us.push(us(capture));
                            }
                            t.layer(route, "shard.ingest", ingest);
                            t.layer(route, "capture_merged", capture);
                        }
                    }
                }
                Ok(None)
            }
            TraceOp::Estimate {
                left,
                right,
                budget,
            } => {
                let (snap, capture) = self.read_snapshot()?;
                let s = Instant::now();
                let est = snap
                    .estimate_cosine_join(&key(left), &key(right), budget.map(|b| b as usize))
                    .map_err(dct)?;
                let took = s.elapsed();
                if let Some(t) = t {
                    if let Some(c) = capture {
                        t.capture_merged_us.push(us(c));
                        t.layer(route, "capture_merged", c);
                    }
                    t.estimate_us.push(us(took));
                    t.layer(route, "estimate_cosine_join", took);
                }
                Ok(Some(est))
            }
            TraceOp::Chain { links, budget } => {
                let mut builder = ChainJoinQuery::builder();
                for link in links {
                    builder = match link {
                        ChainLink::End { stream } => builder.end(key(stream)),
                        ChainLink::Inner {
                            stream,
                            left,
                            right,
                        } => builder.inner(key(stream), *left as usize, *right as usize),
                    };
                }
                let query = builder.build().map_err(dct)?;
                let (snap, capture) = self.read_snapshot()?;
                let s = Instant::now();
                let est = query
                    .estimate_at(&snap, budget.map(|b| b as usize))
                    .map_err(dct)?;
                let took = s.elapsed();
                if let Some(t) = t {
                    if let Some(c) = capture {
                        t.capture_merged_us.push(us(c));
                        t.layer(route, "capture_merged", c);
                    }
                    t.estimate_at_us.push(us(took));
                    t.layer(route, "estimate_at", took);
                }
                Ok(Some(est))
            }
        }
    }
}

/// Replay set-up and measured ops in trace order (which keeps every
/// stream's order, so the final state matches the HTTP run's), timing
/// the measured ones; then answer the final queries after a checkpoint.
fn traced_replay(
    p: &ServeParams,
    inputs: &ServeInputs,
    dir: &std::path::Path,
) -> Result<Traced, String> {
    fresh_dir(dir)?;
    let defaults = ServeOptions::default();
    let recovery = RecoveryOptions {
        flush_threshold: defaults.flush_threshold,
        ..RecoveryOptions::default()
    };
    let backend = if p.shards == 0 {
        Backend::Single(GroupDurable::open_dir(dir, recovery).map_err(dct)?.0)
    } else {
        let opts = FleetOptions {
            recovery,
            ..FleetOptions::default()
        };
        Backend::Fleet(ShardedRegistry::create(dir, p.shards, opts).map_err(dct)?)
    };
    let mut r = Replayer {
        backend,
        cell: SnapshotCell::new(),
        since_publish: 0,
        publish_every: defaults.publish_every.max(1),
    };
    r.publish()?;
    let mut traced = Traced::default();
    let setup = inputs.registers.len() + inputs.preload.len();
    for (i, rec) in inputs.all_ops().enumerate() {
        r.apply(rec, (i >= setup).then_some(&mut traced))?;
    }
    match &r.backend {
        Backend::Single(gd) => gd.checkpoint(),
        Backend::Fleet(f) => f.checkpoint_all(),
    }
    .map_err(dct)?;
    r.publish()?;
    let mut digest = Fnv::default();
    for rec in &inputs.finals {
        let est = r
            .apply(rec, None)?
            .ok_or("a final query returned no estimate")?;
        digest = digest.bytes(est.to_string().as_bytes()).bytes(b"\n");
    }
    traced.digest = digest.hex();
    Ok(traced)
}
