//! Timing harness for the typed intake front end (ISSUE 9).
//!
//! Compares `run()` — decode, split, type-check, normalize, sink — with
//! a raw hand-rolled CSV build loop over the same clean input, then
//! sweeps every corruption class over a dirty copy to demonstrate that
//! malformed input costs attribution work, never a panic.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dctstream-bench --bin bench_intake [-- --json] [-- --check]
//! ```
//!
//! Always prints a human-readable table; with `--json` it also writes
//! `BENCH_intake.json` into the current directory. With `--check` it
//! exits non-zero if typed intake on clean input falls below 0.80x the
//! raw parse loop, or if any dirty-sweep leg panics or mis-accounts a
//! row — the CI guard for the intake robustness contract.

use dctstream_core::{CosineSynopsis, Domain, Grid};
use dctstream_datagen::dirty::{inject, CorruptionClass};
use dctstream_intake::{run, Column, ColumnType, CosineSink, IntakeOptions, RejectLedger, Schema};
use std::io::Cursor;
use std::time::Instant;

/// Rows in the generated CSV per measured iteration.
const ROWS: usize = 200_000;
/// Synopsis size for the sink (kept small — this measures parsing).
const COEFFS: usize = 64;
/// Timed repetitions per configuration; the median is reported.
const REPS: usize = 5;
/// Round-robin rounds for the clean raw-vs-intake comparison. The
/// `--check` gate rides on this ratio, so the two paths are timed
/// interleaved (every path once per round, medians per path): CPU clock
/// drift over the run then shifts both rows together instead of
/// skewing whichever was measured during a slow stretch.
const CLEAN_ROUNDS: usize = 15;
/// Fraction of rows corrupted in the dirty sweep.
const DIRTY_FRACTION: f64 = 0.01;

struct Row {
    name: String,
    median_secs: f64,
    items_per_sec: f64,
    speedup_vs_raw: f64,
}

fn median_secs<F: FnMut()>(mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn clean_csv(rows: usize) -> String {
    let mut out = String::with_capacity(rows * 10);
    for i in 0..rows {
        out.push_str(&format!(
            "{},{}\n",
            (i * 7_919) % 1_000,
            (i * 104_729) % 500
        ));
    }
    out
}

fn schema2() -> Schema {
    Schema {
        delimiter: b',',
        has_header: false,
        columns: vec![
            Column {
                name: "a".into(),
                ty: ColumnType::Int,
                domain: Some((0, 999)),
            },
            Column {
                name: "b".into(),
                ty: ColumnType::Int,
                domain: Some((0, 499)),
            },
        ],
    }
}

fn fresh() -> CosineSynopsis {
    CosineSynopsis::new(Domain::new(0, 999), Grid::Midpoint, COEFFS).unwrap()
}

/// The baseline: the `build` loop as it stood before typed intake
/// existed — decode the whole file (`read_to_string` validated UTF-8),
/// skip blank lines, split out the target column, parse it, per-row
/// insert. No schema, no attribution; one malformed row aborts the
/// whole build.
fn raw_build(bytes: &[u8]) -> CosineSynopsis {
    let csv = std::str::from_utf8(bytes).unwrap();
    let mut syn = fresh();
    for line in csv.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let v: i64 = line
            .split(',')
            .next()
            .expect("column 0")
            .trim()
            .parse()
            .expect("bad integer");
        syn.update(v, 1.0).unwrap();
    }
    syn
}

fn intake_build(bytes: &[u8], schema: &Schema) -> (CosineSynopsis, u64, u64, u64) {
    let mut syn = fresh();
    let mut ledger = RejectLedger::new(16);
    let report = {
        let mut sink = CosineSink::new(&mut syn, 1, &[0]);
        run(
            Cursor::new(bytes),
            schema,
            &IntakeOptions::default(),
            &mut ledger,
            &mut sink,
        )
        .expect("intake must not fail fatally")
    };
    (syn, report.rows_seen, report.accepted, report.rejected)
}

fn finish_rows(mut rows: Vec<Row>, items: usize) -> Vec<Row> {
    let raw = rows[0].median_secs;
    for r in &mut rows {
        r.items_per_sec = items as f64 / r.median_secs;
        r.speedup_vs_raw = raw / r.median_secs;
    }
    rows
}

fn print_table(title: &str, rows: &[Row]) {
    println!("\n{title}");
    println!(
        "  {:<22} {:>12} {:>16} {:>10}",
        "path", "median", "rows/sec", "vs raw"
    );
    for r in rows {
        println!(
            "  {:<22} {:>9.1} ms {:>16.0} {:>9.2}x",
            r.name,
            r.median_secs * 1e3,
            r.items_per_sec,
            r.speedup_vs_raw
        );
    }
}

fn rows_to_json(section: &str, items: u64, rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  \"{section}\": {{\n    \"items_per_iteration\": {items},\n    \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"median_secs\": {:.6}, \"items_per_sec\": {:.1}, \"speedup_vs_raw\": {:.3}}}{}\n",
            r.name,
            r.median_secs,
            r.items_per_sec,
            r.speedup_vs_raw,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  }");
    out
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let check = std::env::args().any(|a| a == "--check");

    println!("dctstream typed-intake speed and fault summary");
    println!("  rows per iteration: {ROWS}, reps: {REPS} (median)");

    let csv = clean_csv(ROWS);
    let schema = schema2();

    // Clean-input throughput: raw loop vs typed intake, timed
    // round-robin so machine noise hits both paths alike.
    let time_raw = || {
        let t = Instant::now();
        std::hint::black_box(raw_build(csv.as_bytes()).count());
        t.elapsed().as_secs_f64()
    };
    let time_intake = || {
        let t = Instant::now();
        std::hint::black_box(intake_build(csv.as_bytes(), &schema).0.count());
        t.elapsed().as_secs_f64()
    };
    time_raw();
    time_intake();
    let (mut raw_times, mut intake_times) = (Vec::new(), Vec::new());
    for _ in 0..CLEAN_ROUNDS {
        raw_times.push(time_raw());
        intake_times.push(time_intake());
    }
    let median_of = |times: &mut Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times[times.len() / 2]
    };
    let clean_rows = finish_rows(
        vec![
            Row {
                name: "raw".into(),
                median_secs: median_of(&mut raw_times),
                items_per_sec: 0.0,
                speedup_vs_raw: 1.0,
            },
            Row {
                name: "intake".into(),
                median_secs: median_of(&mut intake_times),
                items_per_sec: 0.0,
                speedup_vs_raw: 1.0,
            },
        ],
        ROWS,
    );
    print_table("clean input (raw parse loop vs typed intake)", &clean_rows);

    // Dirty sweep: every corruption class, exact accounting enforced.
    // `raw_build` would panic on any of these files; intake attributes.
    let mut dirty_rows = Vec::new();
    let mut accounting_ok = true;
    for class in CorruptionClass::ALL {
        let dirty = inject(&csv, DIRTY_FRACTION, 11, &[class]);
        let (_, seen, accepted, rejected) = intake_build(&dirty.bytes, &schema);
        if seen != accepted + rejected || seen != ROWS as u64 {
            eprintln!(
                "ACCOUNTING BROKEN for {class:?}: seen {seen}, accepted {accepted}, rejected {rejected}"
            );
            accounting_ok = false;
        }
        if !class.still_valid() && rejected as usize != dirty.corrupted.len() {
            eprintln!(
                "ATTRIBUTION BROKEN for {class:?}: {} corrupted, {rejected} rejected",
                dirty.corrupted.len()
            );
            accounting_ok = false;
        }
        dirty_rows.push(Row {
            name: format!("dirty/{}", class.label()),
            median_secs: median_secs(|| {
                std::hint::black_box(intake_build(&dirty.bytes, &schema).1);
            }),
            items_per_sec: 0.0,
            speedup_vs_raw: 1.0,
        });
    }
    // Ratios for the dirty table are vs clean intake, the honest
    // comparison: raw can't read these files at all.
    let mut dirty_rows = {
        let clean_intake = clean_rows[1].median_secs;
        for r in &mut dirty_rows {
            r.items_per_sec = ROWS as f64 / r.median_secs;
            r.speedup_vs_raw = clean_intake / r.median_secs;
        }
        dirty_rows
    };
    dirty_rows.insert(
        0,
        Row {
            name: "clean-intake".into(),
            median_secs: clean_rows[1].median_secs,
            items_per_sec: clean_rows[1].items_per_sec,
            speedup_vs_raw: 1.0,
        },
    );
    print_table(
        "dirty sweep, 1% corrupted (ratio vs clean intake)",
        &dirty_rows,
    );

    if json {
        let body = format!(
            "{{\n{},\n{}\n}}\n",
            rows_to_json("intake_clean", ROWS as u64, &clean_rows),
            rows_to_json("intake_dirty", ROWS as u64, &dirty_rows),
        );
        std::fs::write("BENCH_intake.json", &body).expect("write BENCH_intake.json");
        println!("\nwrote BENCH_intake.json");
    }

    if check {
        let mut failed = !accounting_ok;
        // Typed validation reads every byte the raw loop reads plus
        // UTF-8 checking, quote-aware splitting, and domain checks on
        // both columns; 0.80x is the floor that keeps intake from ever
        // becoming the reason to bypass validation.
        let intake_ratio = clean_rows[1].speedup_vs_raw;
        if intake_ratio < 0.80 {
            eprintln!(
                "CHECK FAILED: typed intake is {intake_ratio:.3}x raw on clean input (floor 0.80x)"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "\ncheck passed: intake {intake_ratio:.2}x raw on clean input; all dirty legs attributed exactly, zero panics"
        );
    }
}
