//! The malformed-input fault harness: corrupt a generated CSV at every
//! corruption class and assert the intake contract end to end —
//!
//! - no panic, ever, on any corruption;
//! - exact accounting: `rows_seen == accepted + rejected`;
//! - every corrupted row lands in the rejects ledger with row/cause
//!   attribution matching the injector's ground truth;
//! - the accepted rows' synopsis is bit-identical to ingesting the
//!   clean subset alone.
//!
//! Row count scales with the build: small in debug (`cargo test -q`
//! runs unoptimized), larger in release, and `INTAKE_SWEEP_ROWS` (CI
//! sets 1,000,000) overrides both.

use dctstream_datagen::dirty::{inject, CorruptionClass};
use dctstream_datagen::ZipfSampler;
use dctstream_intake::{
    probe, run, Column, ColumnType, CosineSink, IntakeOptions, IntakeReport, ProbeOptions,
    RejectCause, RejectLedger, RowSink, Schema, SinkError,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Cursor, Read};

use dctstream::{CosineSynopsis, DctError, Domain, Grid};

fn sweep_rows() -> usize {
    std::env::var("INTAKE_SWEEP_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        })
}

/// A deterministic two-column file: values cover both domains densely
/// with co-prime strides so every row is distinct from its neighbors.
fn clean_csv(rows: usize) -> String {
    let mut out = String::with_capacity(rows * 8);
    for i in 0..rows {
        out.push_str(&format!("{},{}\n", (i * 7) % 1000, (i * 13) % 500));
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

/// Intake `bytes` under the two-column schema into a fresh synopsis,
/// with `threads` parse and flush workers, keeping *every* reject in the in-memory sample for attribution
/// checks. Panics only if intake itself fails fatally — which the
/// harness treats as a test failure.
fn intake_cosine(bytes: &[u8], threads: usize) -> (CosineSynopsis, IntakeReport) {
    let schema = schema2();
    let mut ledger = RejectLedger::new(usize::MAX);
    let mut syn = CosineSynopsis::new(Domain::new(0, 999), Grid::Midpoint, 32).unwrap();
    let report = {
        let mut sink = CosineSink::new(&mut syn, threads, &[0]);
        let opts = IntakeOptions {
            threads,
            ..IntakeOptions::default()
        };
        run(Cursor::new(bytes), &schema, &opts, &mut ledger, &mut sink)
            .expect("intake must not fail fatally on malformed rows")
    };
    (syn, report)
}

/// The ledger cause each corruption class must be attributed to.
fn expected_cause(class: CorruptionClass) -> &'static str {
    match class {
        CorruptionClass::BlankLine => "blank-line",
        CorruptionClass::WrongArity | CorruptionClass::Truncated => "wrong-arity",
        CorruptionClass::NonNumeric => "bad-value",
        CorruptionClass::OutOfDomain => "out-of-domain",
        CorruptionClass::BadUtf8 => "encoding",
        CorruptionClass::QuotedField => unreachable!("quoted fields are accepted"),
    }
}

/// The clean subset: every line of `clean` whose 0-based index the
/// injector did not corrupt.
fn clean_subset(clean: &str, corrupted: &[(u64, CorruptionClass)]) -> String {
    let dirty_rows: std::collections::HashSet<u64> = corrupted.iter().map(|&(r, _)| r).collect();
    clean
        .lines()
        .enumerate()
        .filter(|(i, _)| !dirty_rows.contains(&(*i as u64)))
        .map(|(_, l)| format!("{l}\n"))
        .collect()
}

#[test]
fn every_corruption_class_is_attributed_and_accepted_rows_are_bit_identical() {
    let rows = sweep_rows();
    let clean = clean_csv(rows);
    for class in CorruptionClass::ALL {
        let dirty = inject(
            &clean,
            0.01,
            0xC0FFEE ^ class.label().len() as u64,
            &[class],
        );
        let (syn, report) = intake_cosine(&dirty.bytes, 2);

        // Exact accounting, no silent skips.
        assert_eq!(
            report.rows_seen,
            report.accepted + report.rejected,
            "{class:?}"
        );
        assert_eq!(report.rows_seen, rows as u64, "{class:?}");

        if class.still_valid() {
            // Benign corruption (valid quoting): everything accepted,
            // and the values are unchanged.
            assert_eq!(report.rejected, 0, "{class:?}: {:?}", report.by_cause);
            let (clean_syn, _) = intake_cosine(clean.as_bytes(), 2);
            assert_eq!(
                syn.to_bytes(),
                clean_syn.to_bytes(),
                "quoted fields must not change the synopsis"
            );
            continue;
        }

        // Every corrupted row — and only those — is in the ledger, with
        // 1-based row attribution and the class's cause.
        assert_eq!(report.rejected as usize, dirty.corrupted.len(), "{class:?}");
        let ledgered: HashMap<u64, &str> = report
            .sample
            .iter()
            .map(|r| (r.row, r.cause.label()))
            .collect();
        assert_eq!(ledgered.len(), dirty.corrupted.len(), "{class:?}");
        for &(row0, c) in &dirty.corrupted {
            let cause = ledgered
                .get(&(row0 + 1))
                .unwrap_or_else(|| panic!("{class:?}: row {} not in ledger", row0 + 1));
            assert_eq!(*cause, expected_cause(c), "{class:?} row {}", row0 + 1);
        }

        // The acceptance gate: accepted rows alone shape the synopsis,
        // bit-identically to ingesting the clean subset by itself.
        let subset = clean_subset(&clean, &dirty.corrupted);
        let (subset_syn, subset_report) = intake_cosine(subset.as_bytes(), 2);
        assert_eq!(subset_report.rejected, 0, "{class:?}: subset must be clean");
        assert_eq!(subset_report.accepted, report.accepted, "{class:?}");
        assert_eq!(
            syn.to_bytes(),
            subset_syn.to_bytes(),
            "{class:?}: accepted rows must be bit-identical to the clean subset"
        );
    }
}

#[test]
fn random_bit_flips_never_panic_and_accounting_holds() {
    let rows = sweep_rows() / 4;
    let clean = clean_csv(rows);
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..4 {
        let mut bytes = clean.as_bytes().to_vec();
        // Flip one bit in ~0.1% of bytes — enough to hit digits,
        // delimiters, and newlines alike.
        let flips = (bytes.len() / 1000).max(8);
        for _ in 0..flips {
            let at = rng.random_range(0..bytes.len());
            let bit = rng.random_range(0..8u32);
            bytes[at] ^= 1 << bit;
        }
        let (_, report) = intake_cosine(&bytes, 1);
        assert_eq!(
            report.rows_seen,
            report.accepted + report.rejected,
            "round {round}"
        );
        // Flipping newlines merges/splits lines, so the row count may
        // drift — but never silently: every surviving line is either
        // accepted or attributed.
        assert!(report.rows_seen > 0, "round {round}");
    }
}

#[test]
fn truncated_files_account_for_every_surviving_row() {
    let rows = (sweep_rows() / 10).max(100);
    let clean = clean_csv(rows);
    let bytes = clean.as_bytes();
    for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 3] {
        let (_, report) = intake_cosine(&bytes[..cut], 1);
        assert_eq!(report.rows_seen, report.accepted + report.rejected);
        // At most the final torn row can reject.
        assert!(report.rejected <= 1, "cut at {cut}: {:?}", report.by_cause);
    }
}

#[test]
fn shuffled_rows_all_land_with_equal_mass() {
    let rows = (sweep_rows() / 10).max(100);
    let clean = clean_csv(rows);
    let mut lines: Vec<&str> = clean.lines().collect();
    // Deterministic shuffle (Fisher–Yates).
    let mut rng = StdRng::seed_from_u64(99);
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.random_range(0..i + 1));
    }
    let shuffled: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let (shuffled_syn, report) = intake_cosine(shuffled.as_bytes(), 1);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.accepted, rows as u64);
    let (clean_syn, _) = intake_cosine(clean.as_bytes(), 1);
    // Same multiset of rows: identical mass; coefficient sums agree to
    // float-summation reordering.
    assert_eq!(shuffled_syn.count().to_bits(), clean_syn.count().to_bits());
    for (a, b) in shuffled_syn.sums().iter().zip(clean_syn.sums()) {
        assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
    }
}

/// A header and 20,000 Zipf-keyed rows (key, a two-decimal price, a
/// flag), 2% corrupted across every corruption class.
fn dirty_zipf_csv() -> Vec<u8> {
    let zipf = ZipfSampler::new(5_000, 1.1);
    let mut rng = StdRng::seed_from_u64(27);
    let mut clean = String::new();
    for _ in 0..20_000 {
        let key = zipf.sample(&mut rng);
        let cents: u32 = rng.random_range(0..100_000);
        let flag = if rng.random_range(0..2u8) == 0 {
            "yes"
        } else {
            "no"
        };
        clean.push_str(&format!(
            "{key},{}.{:02},{flag}\n",
            cents / 100,
            cents % 100
        ));
    }
    let mut bytes = b"key,price,flag\n".to_vec();
    bytes.extend(inject(&clean, 0.02, 11, &CorruptionClass::ALL).bytes);
    bytes
}

/// The `.schema` text and (sampled, skipped) report `probe` must give
/// on [`dirty_zipf_csv`] at each `--sample-rows`.
const PINNED_ZIPF: [(usize, u64, u64, &str); 3] = [
    (
        2000,
        2000,
        24,
        "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 key int 0:999999999\n\
         column 1 price float:100 41:99961\ncolumn 2 flag bool 0:1\n",
    ),
    (
        200,
        200,
        3,
        "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 key int 0:4829\n\
         column 1 price float:100 178:99929\ncolumn 2 flag bool 0:1\n",
    ),
    (
        0,
        19761,
        239,
        "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 key int 0:999999999\n\
         column 1 price float:100 0:99999999900\ncolumn 2 flag bool 0:1\n",
    ),
];

#[test]
fn probed_schema_of_a_dirty_zipf_file_is_pinned() {
    let bytes = dirty_zipf_csv();
    for (sample_rows, sampled, skipped, expected) in PINNED_ZIPF {
        let opts = ProbeOptions {
            sample_rows,
            ..ProbeOptions::default()
        };
        let (schema, report) = probe(Cursor::new(&bytes), &opts).unwrap();
        assert_eq!(schema.render(), expected, "--sample-rows {sample_rows}");
        assert_eq!(
            (report.rows_sampled, report.rows_skipped),
            (sampled, skipped)
        );
    }
}

/// Records every accepted row, and rejects keys over 990 the way a
/// synopsis narrower than the schema does.
#[derive(Default)]
struct RecordingSink(Vec<(i64, f64)>);

impl RowSink for RecordingSink {
    fn accept(&mut self, values: &[i64], weight: f64) -> Result<(), SinkError> {
        if values[0] > 990 {
            return Err(SinkError::Reject(RejectCause::OutOfDomain {
                column: 0,
                value: values[0],
                lo: 0,
                hi: 990,
            }));
        }
        self.0.push((values[0], weight));
        Ok(())
    }

    fn finish(&mut self) -> Result<(), DctError> {
        Ok(())
    }
}

/// Serves its bytes in short, uneven reads, as a pipe on stdin does.
struct Pipe {
    data: Vec<u8>,
    at: usize,
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let step = 1 + (self.at * 7 + 13) % 4093;
        let n = buf.len().min(step).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..n + self.at]);
        self.at += n;
        Ok(n)
    }
}

/// A header, then every corruption class over a few MB (several parse
/// blocks), CRLF on every third line, a late burst of bad rows, and no
/// trailing newline.
fn ordering_input() -> Vec<u8> {
    let rows = if cfg!(debug_assertions) {
        300_000
    } else {
        800_000
    };
    let dirty = inject(&clean_csv(rows), 0.01, 0x5EED, &CorruptionClass::ALL);
    let mut bytes = b"a,b\r\n".to_vec();
    for (i, line) in dirty.bytes.split(|&b| b == b'\n').enumerate() {
        if i == rows * 7 / 10 {
            bytes.extend(b"x,y\n".repeat(rows / 20));
        }
        bytes.extend_from_slice(line);
        bytes.extend_from_slice(if i % 3 == 0 { b"\r\n" } else { b"\n" });
    }
    while bytes.last().is_some_and(|b| b.is_ascii_whitespace()) {
        bytes.pop();
    }
    bytes
}

/// One run's report, rejects sidecar and accepted rows, in order.
fn ordered_outcome(
    input: impl BufRead,
    opts: &IntakeOptions,
    sidecar: &std::path::Path,
) -> (IntakeReport, Vec<u8>, Vec<(i64, f64)>) {
    let mut schema = schema2();
    schema.has_header = true;
    let mut ledger = RejectLedger::new(usize::MAX).with_sidecar(sidecar).unwrap();
    let mut sink = RecordingSink::default();
    let report = run(input, &schema, opts, &mut ledger, &mut sink).unwrap();
    (report, std::fs::read(sidecar).unwrap(), sink.0)
}

#[test]
fn rows_reach_the_sink_and_ledger_in_file_order_at_every_worker_count() {
    let bytes = ordering_input();
    assert!(
        bytes.len() > 2 << 20,
        "several blocks: {} bytes",
        bytes.len()
    );
    let dir = std::env::temp_dir().join(format!("intake-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sidecar = dir.join("rejects");
    // Without a threshold every row is seen; with one the run stops in
    // the late burst.
    for threshold in [None, Some(0.03)] {
        let opts = IntakeOptions {
            reject_threshold: threshold,
            ..IntakeOptions::default()
        };
        let serial = ordered_outcome(Cursor::new(&bytes), &opts, &sidecar);
        assert_eq!(serial.0.quarantined.is_some(), threshold.is_some());
        assert!(
            serial.0.rows_seen > 200_000,
            "stops late: {}",
            serial.0.rows_seen
        );
        assert!(serial.0.by_cause.len() >= 5, "{:?}", serial.0.by_cause);
        for threads in [1, 2, 4] {
            let opts = IntakeOptions {
                threads,
                ..opts.clone()
            };
            let file = ordered_outcome(Cursor::new(&bytes), &opts, &sidecar);
            let pipe = Pipe {
                data: bytes.clone(),
                at: 0,
            };
            let stdin = ordered_outcome(BufReader::new(pipe), &opts, &sidecar);
            for (name, got) in [("file", file), ("stdin", stdin)] {
                assert_eq!(got.0, serial.0, "{name}, {threads} workers");
                assert!(
                    got.1 == serial.1,
                    "{name}, {threads} workers: ledgers differ"
                );
                assert!(
                    got.2 == serial.2,
                    "{name}, {threads} workers: sink rows differ"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
