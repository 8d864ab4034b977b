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
use dctstream_intake::{
    run, Column, ColumnType, CosineSink, IntakeOptions, IntakeReport, RejectLedger, Schema,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::Cursor;

use dctstream::{CosineSynopsis, Domain, Grid};

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
/// keeping *every* reject in the in-memory sample for attribution
/// checks. Panics only if intake itself fails fatally — which the
/// harness treats as a test failure.
fn intake_cosine(bytes: &[u8], threads: usize) -> (CosineSynopsis, IntakeReport) {
    let schema = schema2();
    let mut ledger = RejectLedger::new(usize::MAX);
    let mut syn = CosineSynopsis::new(Domain::new(0, 999), Grid::Midpoint, 32).unwrap();
    let report = {
        let mut sink = CosineSink::new(&mut syn, threads, &[0]);
        run(
            Cursor::new(bytes),
            &schema,
            &IntakeOptions::default(),
            &mut ledger,
            &mut sink,
        )
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
