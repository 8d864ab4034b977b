//! `batch-build`: the paper's offline use, run as the CLI runs it.
//!
//! Set-up generates two seeded Zipf CSVs with labeled dirty rows and
//! times `probe` on both. The measured phase repeats whole pipelines —
//! `build --schema --rejects` on each file, then `join` and `chain` —
//! until `--seconds` have passed. The traced run feeds the same files
//! through `intake::run` into a timing sink that forwards to
//! `CosineSynopsis::update_batch`.

use crate::daemon::{children_peak_rss_mb, run_command, CommandRun};
use crate::inputs::{batch_file, BatchParams};
use crate::metrics::{Report, PER_LAYER};
use crate::stats::{median, Fnv};
use crate::{check_repeat, Ctx};
use dctstream_core::{estimate_equi_join, CosineSynopsis, DctError, Domain, Grid};
use dctstream_intake::{
    run as intake_run, IntakeOptions, RejectCause, RejectLedger, RowSink, Schema, SinkError,
};
use std::collections::BTreeSet;
use std::fs;
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// Probes timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// `join` and `chain` runs after each `build`: each is about a
/// millisecond of process start and synopsis load, so one sample per
/// build is noise.
const ANSWER_REPS: usize = 20;

/// The intake counts a `build` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    seen: u64,
    accepted: u64,
    rejected: u64,
}

fn parse_counts(out: &str) -> Option<Counts> {
    let field = |label: &str| -> Option<u64> {
        out.lines()
            .find_map(|l| l.strip_prefix(label))?
            .trim()
            .parse()
            .ok()
    };
    Some(Counts {
        seen: field("rows seen")?,
        accepted: field("rows accepted")?,
        rejected: field("rows rejected")?,
    })
}

/// The number after the last `:` of a one-line answer.
fn trailing_number(out: &str) -> Option<f64> {
    out.trim().rsplit(':').next()?.trim().parse().ok()
}

/// Data-row numbers listed in a rejects ledger (`row=N …` lines).
fn ledger_rows(path: &Path) -> BTreeSet<u64> {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            l.strip_prefix("row=")?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .collect()
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// Run `batch-build`.
pub fn run(p: &BatchParams, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let file = |name: &str| ctx.work.join(name);
    let csv = [file("r1.csv"), file("r2.csv")];
    let schema = [file("r1.schema"), file("r2.schema")];
    let syn = [file("r1.syn"), file("r2.syn")];
    let rej = [file("r1.rejects"), file("r2.rejects")];

    let mut expected = Vec::new();
    let mut freqs = Vec::new();
    for (i, path) in csv.iter().enumerate() {
        let f = batch_file(p, ctx.seed, i);
        fs::write(path, &f.bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        expected.push((f.rows, f.rejected_rows));
        freqs.push(f.accepted_keys);
    }
    let exact = freqs[0].equi_join(&freqs[1]);
    drop(freqs);

    // Set-up: probe both files, SETUP_REPS times.
    let bin = &ctx.dctstream;
    let sample = p.clean_head.to_string();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for i in 0..2 {
            let r = run_command(
                bin,
                &[
                    "probe",
                    path_str(&csv[i]),
                    "--sample-rows",
                    &sample,
                    "--out",
                    path_str(&schema[i]),
                ],
            )?;
            if !r.ok {
                return Err(format!("probe {} failed", csv[i].display()));
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    // Measured: whole pipelines until --seconds have passed.
    let domain = format!("0:{}", p.domain - 1);
    let m = p.m.to_string();
    let threads = p.build_threads.to_string();
    let (mut build_ms, mut join_ms, mut chain_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut accepted, mut attempted, mut failed) = (0u64, 0u64, 0u64);
    let mut answers: Vec<(String, String)> = Vec::new();
    let mut counts: Vec<Option<Counts>> = vec![None; 2];
    let mut ledger_ok = true;
    let start = Instant::now();
    let mut tally = |r: &CommandRun| {
        attempted += 1;
        failed += u64::from(!r.ok);
    };
    loop {
        for i in 0..2 {
            let r = run_command(
                bin,
                &[
                    "build",
                    "--input",
                    path_str(&csv[i]),
                    "--schema",
                    path_str(&schema[i]),
                    "--column",
                    "0",
                    "--domain",
                    &domain,
                    "-m",
                    &m,
                    "--out",
                    path_str(&syn[i]),
                    "--rejects",
                    path_str(&rej[i]),
                    "--threads",
                    &threads,
                ],
            )?;
            tally(&r);
            let c = parse_counts(&r.stdout);
            if let Some(c) = c {
                accepted += c.accepted;
            }
            build_ms.push(r.ms);
            if counts[i].is_none() {
                counts[i] = c;
                ledger_ok &= ledger_rows(&rej[i]) == expected[i].1;
            }
            // Answer after every build once both synopses exist: process
            // start-up cost drifts on a scale of a second, so many short
            // bursts spread over the run give a steadier median than a
            // few long ones.
            if counts.iter().all(Option::is_some) {
                for _ in 0..ANSWER_REPS {
                    let j = run_command(bin, &["join", path_str(&syn[0]), path_str(&syn[1])])?;
                    tally(&j);
                    join_ms.push(j.ms);
                    let c = run_command(bin, &["chain", path_str(&syn[0]), path_str(&syn[1])])?;
                    tally(&c);
                    chain_ms.push(c.ms);
                    answers.push((j.stdout.trim().to_string(), c.stdout.trim().to_string()));
                }
            }
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Output checks.
    for i in 0..2 {
        let (rows, rejected) = (expected[i].0, &expected[i].1);
        report.check(
            format!("file {} accepted + rejected == seen", i + 1),
            counts[i].is_some_and(|c| c.accepted + c.rejected == c.seen && c.seen == rows),
            format!("{:?} of {rows} rows", counts[i]),
        );
        report.check(
            format!("file {} rejects match the dirty-row manifest", i + 1),
            counts[i].is_some_and(|c| c.rejected == rejected.len() as u64),
            format!("{} labeled dirty rows", rejected.len()),
        );
    }
    report.check(
        "rejects ledger rows equal the manifest rows",
        ledger_ok,
        "row numbers of every ledger line vs the injected rows",
    );
    let first = answers.first().cloned().unwrap_or_default();
    report.check(
        "every join and chain answers the same",
        answers.iter().all(|a| *a == first),
        format!("{} answer pairs", answers.len()),
    );
    let digest = Fnv::default()
        .bytes(first.0.as_bytes())
        .bytes(b"\n")
        .bytes(first.1.as_bytes())
        .hex();
    report.stamp("final_digest", digest.clone());
    check_repeat(ctx, report, &digest);

    // End-to-end metrics.
    let ests = [trailing_number(&first.0), trailing_number(&first.1)];
    let errs: Vec<f64> = ests
        .iter()
        .flatten()
        .map(|e| (e - exact).abs() / exact)
        .collect();
    let build_s: f64 = build_ms.iter().sum::<f64>() / 1e3;
    let out_bytes: u64 = syn
        .iter()
        .chain(&rej)
        .map(|f| fs::metadata(f).map_or(0, |m| m.len()))
        .sum();
    let rows_per_pipeline: u64 = expected.iter().map(|e| e.0).sum();
    report.attempted = attempted;
    report.failed = failed;
    report.set(
        "setup_s",
        median(&setup_s).unwrap_or(f64::NAN),
        Some(SETUP_REPS),
    );
    report.set(
        "ops_per_s",
        (attempted - failed) as f64 / wall,
        Some(attempted as usize),
    );
    report.set(
        "rows_per_s",
        accepted as f64 / build_s,
        Some(build_ms.len()),
    );
    report.set(
        "ingest_p50_ms",
        median(&build_ms).unwrap_or(f64::NAN),
        Some(build_ms.len()),
    );
    report.set(
        "estimate_p50_ms",
        median(&join_ms).unwrap_or(f64::NAN),
        Some(join_ms.len()),
    );
    report.set(
        "chain_p50_ms",
        median(&chain_ms).unwrap_or(f64::NAN),
        Some(chain_ms.len()),
    );
    report.set(
        "ok_ratio",
        (attempted - failed) as f64 / attempted.max(1) as f64,
        Some(attempted as usize),
    );
    report.set(
        "est_rel_err",
        if errs.len() == 2 {
            errs.iter().sum::<f64>() / 2.0
        } else {
            f64::NAN
        },
        Some(errs.len()),
    );
    report.set(
        "peak_rss_mb",
        children_peak_rss_mb().unwrap_or(f64::NAN),
        None,
    );
    report.set(
        "log_bytes_per_row",
        out_bytes as f64 / rows_per_pipeline as f64,
        Some(rows_per_pipeline as usize),
    );
    report.note(format!(
        "exact join {exact}, answers {:?} / {:?}",
        first.0, first.1
    ));

    if !ctx.trace {
        return Ok(());
    }

    // Traced: the same files through intake::run into a timing sink.
    let mut synopses = Vec::new();
    let (mut seen, mut rejected, mut items) = (0u64, 0u64, 0u64);
    let (mut busy, mut intake_wall) = (Duration::ZERO, Duration::ZERO);
    for i in 0..2 {
        let text = fs::read_to_string(&schema[i]).map_err(|e| e.to_string())?;
        let schema = Schema::parse(&text).map_err(|e| e.to_string())?;
        let opts = IntakeOptions {
            targets: vec![0],
            ..IntakeOptions::default()
        };
        let mut sink = TimedSink {
            syn: CosineSynopsis::new(Domain::new(0, p.domain - 1), Grid::Midpoint, p.m)
                .map_err(|e| e.to_string())?,
            buf: Vec::new(),
            busy: Duration::ZERO,
            items: 0,
        };
        let input = fs::File::open(&csv[i]).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let rep = intake_run(
            BufReader::new(input),
            &schema,
            &opts,
            &mut RejectLedger::new(10),
            &mut sink,
        )
        .map_err(|e| e.to_string())?;
        intake_wall += t.elapsed();
        report.check(
            format!("traced file {} counts match the CLI", i + 1),
            counts[i]
                == Some(Counts {
                    seen: rep.rows_seen,
                    accepted: rep.accepted,
                    rejected: rep.rejected,
                }),
            format!("traced {}/{}/{}", rep.rows_seen, rep.accepted, rep.rejected),
        );
        seen += rep.rows_seen;
        rejected += rep.rejected;
        items += sink.items;
        busy += sink.busy;
        synopses.push(sink.syn);
    }
    // `build --threads N` merges per-thread partials, which may round
    // differently from one serial pass; the CLI prints one decimal.
    let traced = estimate_equi_join(&synopses[0], &synopses[1], None).map_err(|e| e.to_string())?;
    let cli = ests[0].unwrap_or(f64::NAN);
    report.check(
        "traced join agrees with the CLI",
        (traced - cli).abs() <= 0.05 + 1e-9 * traced.abs(),
        format!("traced {traced:.1} cli {cli:.1}"),
    );
    report.set(
        "core.synopsis.update_batch.items_per_s",
        items as f64 / busy.as_secs_f64(),
        Some(items as usize),
    );
    report.set(
        "core.synopsis.update_batch.busy_s",
        busy.as_secs_f64(),
        None,
    );
    report.set(
        "intake.run.rows_per_s",
        seen as f64 / intake_wall.as_secs_f64(),
        Some(seen as usize),
    );
    report.set(
        "intake.reject_ratio",
        rejected as f64 / seen.max(1) as f64,
        Some(seen as usize),
    );
    for def in &PER_LAYER {
        if !def.name.starts_with("core.") && !def.name.starts_with("intake.") {
            report.set(def.name, 0.0, None);
        }
    }
    Ok(())
}

/// Intake sink timing `CosineSynopsis::update_batch` over flushes of
/// `dctstream_intake::run::FLUSH_EVERY` rows, as `CosineSink` batches.
struct TimedSink {
    syn: CosineSynopsis,
    buf: Vec<(i64, f64)>,
    busy: Duration,
    items: u64,
}

impl TimedSink {
    fn flush(&mut self) -> Result<(), DctError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let t = Instant::now();
        self.syn.update_batch(&self.buf)?;
        self.busy += t.elapsed();
        self.items += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }
}

impl RowSink for TimedSink {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        let v = values[0];
        let d = self.syn.domain();
        if !d.contains(v) {
            return Err(SinkError::Reject(RejectCause::OutOfDomain {
                column: 0,
                value: v,
                lo: d.lo(),
                hi: d.hi(),
            }));
        }
        self.buf.push((v, weight));
        if self.buf.len() >= dctstream_intake::run::FLUSH_EVERY {
            self.flush().map_err(SinkError::Fatal)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        self.flush()
    }
}
