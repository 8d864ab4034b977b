//! Sensitivity legs: a known slowdown, switched on only through the
//! program's existing switches, on the workload the prediction table
//! names, and on a control workload that bypasses the slowed layer,
//! which must stay within bounds.
//!
//! - `DCT_FORCE_SCALAR=1` pins the portable Chebyshev kernel and must
//!   push `batch-build`'s `rows_per_s` past its bound.
//! - `serve --cache 0` must read `serve.cache.hit_ratio` 0 on
//!   `serve-query`. It does not move `estimate_p50_ms` past its bound:
//!   the traced run puts the estimate itself at about 1 µs of a ~95 µs
//!   request, so a hit saves at most that share. The leg prints the
//!   medians instead of asserting the table's prediction.
//!
//! Each leg is a few minutes of full benchmark runs, so the tests are
//! ignored by default. Build `dctstream` first (`python3
//! perfbench/run.py` does, into `.bench_build`), then from the
//! repository root:
//!
//! ```text
//! CARGO_TARGET_DIR=.bench_build cargo test --release \
//!     --manifest-path perfbench/Cargo.toml -- --ignored --test-threads=1
//! ```

use perfbench::metrics::END_TO_END;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const SEEDS: [u64; 3] = [101, 102, 103];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn dctstream() -> PathBuf {
    std::env::var_os("PERFBENCH_DCTSTREAM")
        .map(PathBuf::from)
        .unwrap_or_else(|| root().join(".bench_build/release/dctstream"))
}

/// Metrics of one run, from its last output line.
fn run_once(
    workload: &str,
    seed: u64,
    trace: bool,
    serve_args: &[&str],
    env: &[(&str, &str)],
) -> BTreeMap<String, f64> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(root()).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "10",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.arg("--dctstream").arg(dctstream());
    for a in serve_args {
        cmd.args(["--serve-arg", a]);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    // Flat enough to read without a JSON parser: "name":{"value":V,…
    last.split("\":{\"value\":")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').next().expect("a metric name").to_string();
            let value = w[1]
                .split(',')
                .next()
                .expect("a value")
                .parse()
                .expect("a number");
            (name, value)
        })
        .collect()
}

/// Median over `SEEDS` of each end-to-end metric.
fn medians(workload: &str, serve_args: &[&str], env: &[(&str, &str)]) -> BTreeMap<String, f64> {
    let runs: Vec<_> = SEEDS
        .iter()
        .map(|&s| run_once(workload, s, false, serve_args, env))
        .collect();
    END_TO_END
        .iter()
        .map(|d| {
            let mut v: Vec<f64> = runs.iter().map(|r| r[d.name]).collect();
            v.sort_by(f64::total_cmp);
            (d.name.to_string(), v[v.len() / 2])
        })
        .collect()
}

/// End-to-end metrics of `slowed` that are worse than `base` by more
/// than their bound.
fn past_bound(base: &BTreeMap<String, f64>, slowed: &BTreeMap<String, f64>) -> Vec<String> {
    END_TO_END
        .iter()
        .filter(|d| d.name != "setup_s")
        .filter(|d| {
            let (b, s) = (base[d.name], slowed[d.name]);
            let bound = d.bound.expect("end-to-end bound");
            match d.better {
                "lower" => s > b * (1.0 + bound),
                _ => s < b * (1.0 - bound),
            }
        })
        .map(|d| format!("{} {} -> {}", d.name, base[d.name], slowed[d.name]))
        .collect()
}

#[test]
#[ignore = "minutes of benchmark runs; see the module docs"]
fn cache_off_zeroes_serve_query_hits_and_spares_serve_ingest() {
    let cache_off = ["--cache", "0"];
    let (on, off) = (
        medians("serve-query", &[], &[]),
        medians("serve-query", &cache_off, &[]),
    );
    eprintln!(
        "serve-query estimate_p50_ms {} -> {} with --cache 0; past bound: {:?}",
        on["estimate_p50_ms"],
        off["estimate_p50_ms"],
        past_bound(&on, &off)
    );
    let hits =
        |args: &[&str]| run_once("serve-query", SEEDS[0], true, args, &[])["serve.cache.hit_ratio"];
    assert!(
        hits(&[]) > 0.0,
        "the cache never hit with the default flags"
    );
    assert_eq!(hits(&cache_off), 0.0);
    let control = past_bound(
        &medians("serve-ingest", &[], &[]),
        &medians("serve-ingest", &cache_off, &[]),
    );
    assert!(control.is_empty(), "serve-ingest moved: {control:?}");
}

#[test]
#[ignore = "minutes of benchmark runs; see the module docs"]
fn forced_scalar_kernel_moves_batch_build_and_spares_serve_ingest() {
    let scalar = [("DCT_FORCE_SCALAR", "1")];
    let moved = past_bound(
        &medians("batch-build", &[], &[]),
        &medians("batch-build", &[], &scalar),
    );
    eprintln!("batch-build with DCT_FORCE_SCALAR=1, past bound: {moved:?}");
    assert!(
        moved.iter().any(|m| m.starts_with("rows_per_s")),
        "rows_per_s did not move past its bound: {moved:?}"
    );
    let control = past_bound(
        &medians("serve-ingest", &[], &[]),
        &medians("serve-ingest", &[], &scalar),
    );
    assert!(control.is_empty(), "serve-ingest moved: {control:?}");
}
