//! # perfbench
//!
//! The repository benchmark: four named workloads that measure
//! `dctstream` from outside, the way it is run — the `serve` daemon as a
//! child process driven over loopback HTTP, and the `probe` / `build` /
//! `join` commands as child processes — plus a traced run that times the
//! public calls those binaries make, layer by layer. See `README.md` in
//! this directory for the workloads, the metrics, and the predictions
//! tying each layer to the end-to-end numbers.

#![warn(missing_docs)]

pub mod batch;
pub mod daemon;
pub mod inputs;
pub mod metrics;
pub mod sender;
pub mod serve;
pub mod stats;

use inputs::{Workload, BATCH};
use metrics::Report;
use std::fs;
use std::path::{Path, PathBuf};

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// The `dctstream` binary under test.
    pub dctstream: PathBuf,
    /// Extra `serve` flags (the sensitivity legs pass `--cache 0`).
    pub serve_args: Vec<String>,
    /// Scratch directory of this run, wiped before and after.
    pub work: PathBuf,
    /// Where final-answer digests persist between runs.
    pub digests: PathBuf,
}

/// Remove and re-create `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// The commit the checkout was taken from, read from `.git` when the
/// checkout has one.
fn git_rev() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git in the checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    fs::read_to_string(Path::new(".git").join(r))
        .map(|s| s.trim().to_string())
        .ok()
        .or_else(|| {
            fs::read_to_string(".git/packed-refs")
                .ok()?
                .lines()
                .find(|l| l.ends_with(r))?
                .split_whitespace()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// Compare this run's final-answer digest with the first run's for the
/// same workload, seed, length and kernel (recorded on that first run).
pub fn check_repeat(ctx: &Ctx, report: &mut Report, digest: &str) {
    let kernel: String = dctstream_core::basis::kernel_name()
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect();
    let path = ctx.digests.join(format!(
        "{}-seed{}-{}s-{kernel}",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds
    ));
    match fs::read_to_string(&path) {
        Ok(first) => report.check(
            "final-answer digest repeats across runs",
            first.trim() == digest,
            format!("first run {} this run {digest}", first.trim()),
        ),
        Err(_) => {
            let _ = fs::create_dir_all(&ctx.digests);
            let _ = fs::write(&path, digest);
            report.check(
                "final-answer digest repeats across runs",
                true,
                format!("first run of this seed; recorded {digest}"),
            );
        }
    }
}

/// Run one workload and return its report (not yet printed).
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.stamp("workload", ctx.workload.name());
    report.stamp("seed", ctx.seed.to_string());
    report.stamp("seconds", ctx.seconds.to_string());
    report.stamp("cores", cores.to_string());
    report.stamp("kernel", dctstream_core::basis::kernel_name());
    report.stamp("git_rev", git_rev());
    report.stamp("params", ctx.workload.params());
    if !ctx.serve_args.is_empty() {
        report.stamp("serve_args", ctx.serve_args.join(" "));
    }
    fresh_dir(&ctx.work)?;
    let result = match ctx.workload.serve() {
        Some(p) => serve::run(&p, ctx, &mut report),
        None => batch::run(&BATCH, ctx, &mut report),
    };
    let _ = fs::remove_dir_all(&ctx.work);
    result.map(|()| report)
}
