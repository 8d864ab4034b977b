//! Schema inference by sampled probing.
//!
//! Reads the first `sample_rows` records (0 = full scan), narrows each
//! column's type through `int → float → bool → text`, records the
//! observed normalized min/max as the column domain, and auto-detects a
//! header row (overridable). Rows that fail to split cleanly are skipped
//! and counted — probing infers, it does not judge; `verify` does.
//!
//! Type narrowing is *dominant-type*, not unanimous: a column keeps a
//! candidate type as long as the fraction of sampled values that fail it
//! stays within [`ProbeOptions::type_tolerance`]. Without the tolerance,
//! probing a dirty file would demote every corrupted column to `text`
//! and the intake pass downstream would then have no typed contract left
//! to enforce — the handful of malformed values must surface as
//! *attributed rejects*, not silently widen the schema.

use crate::csv::split_fields_into;
use crate::schema::{fast_i64, parse_bool, scale_float, Column, ColumnType, Schema};
use std::io::BufRead;

/// Options controlling a probe pass.
#[derive(Debug, Clone)]
pub struct ProbeOptions {
    /// Field delimiter.
    pub delimiter: u8,
    /// Records to sample (0 = scan the whole input).
    pub sample_rows: usize,
    /// Force header presence; `None` auto-detects by comparing the first
    /// two records.
    pub header: Option<bool>,
    /// Largest fraction of sampled values allowed to fail a candidate
    /// type before the column is demoted to the next wider type. The
    /// failing values are exactly what intake later rejects with
    /// `bad-value` attribution, so tolerating them here is what keeps a
    /// probed schema useful on dirty input. `0.0` restores unanimous
    /// narrowing.
    pub type_tolerance: f64,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        Self {
            delimiter: b',',
            sample_rows: 2000,
            header: None,
            type_tolerance: 0.05,
        }
    }
}

/// What the probe saw while inferring.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Records that contributed to inference.
    pub rows_sampled: u64,
    /// Records skipped (bad quoting, bad encoding, blank, or arity
    /// disagreement with the first record).
    pub rows_skipped: u64,
}

/// Float scales a column may resolve to: `10^0 ..= 10^MAX_FRAC_DIGITS`.
/// Beyond 10^6 a file almost certainly carries measurement noise, not
/// fixed-point data.
const MAX_FRAC_DIGITS: u32 = 6;

/// The smallest and largest normalized value seen under one candidate
/// type.
#[derive(Clone, Copy)]
struct MinMax {
    lo: i64,
    hi: i64,
}

impl MinMax {
    const EMPTY: MinMax = MinMax {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    fn add(&mut self, v: i64) {
        self.lo = self.lo.min(v);
        self.hi = self.hi.max(v);
    }

    fn domain(self) -> Option<(i64, i64)> {
        (self.lo <= self.hi).then_some((self.lo, self.hi))
    }
}

/// Per-column evidence folded in one record at a time. Failures are
/// counted, not fatal: the dominant type wins as long as outliers stay
/// within [`ProbeOptions::type_tolerance`]. The observed range is kept
/// under every candidate type — one per float scale, since a value may
/// fit an `i64` at one scale and overflow at the next — so the domain is
/// known whichever type wins, without keeping the values.
struct Evidence {
    seen: u64,
    int_fail: u64,
    float_fail: u64,
    bool_fail: u64,
    max_frac_digits: u32,
    int: MinMax,
    float: [MinMax; MAX_FRAC_DIGITS as usize + 1],
    boolean: MinMax,
}

impl Evidence {
    fn new() -> Self {
        Self {
            seen: 0,
            int_fail: 0,
            float_fail: 0,
            bool_fail: 0,
            max_frac_digits: 0,
            int: MinMax::EMPTY,
            float: [MinMax::EMPTY; MAX_FRAC_DIGITS as usize + 1],
            boolean: MinMax::EMPTY,
        }
    }

    /// Parse `raw` once per candidate type, as `Column::normalize`
    /// would under each.
    fn observe(&mut self, raw: &str) {
        let t = raw.trim();
        self.seen += 1;
        let int = fast_i64(t.as_bytes());
        match int {
            Some(v) => self.int.add(v),
            None => self.int_fail += 1,
        }
        // An integer token reads as the same (correctly rounded) f64
        // either way, so it is not parsed twice.
        match int.map(|v| v as f64).or_else(|| t.parse::<f64>().ok()) {
            Some(v) if v.is_finite() => {
                if let Some(frac) = frac_digits(t) {
                    self.max_frac_digits = self.max_frac_digits.max(frac);
                }
                let mut scale = 1;
                for range in &mut self.float {
                    if let Some(s) = scale_float(v, scale) {
                        range.add(s);
                    }
                    scale *= 10;
                }
            }
            _ => self.float_fail += 1,
        }
        match parse_bool(t) {
            Some(v) => self.boolean.add(v),
            None => self.bool_fail += 1,
        }
    }

    /// The column the evidence supports: its narrowest tolerated type,
    /// with the observed range under that type as its domain.
    fn resolve(&self, name: String, tolerance: f64) -> Column {
        // `floor` keeps tiny samples strict: at 5% tolerance a column
        // needs 20+ sampled values before a single outlier is forgiven.
        let allowed = (tolerance * self.seen as f64).floor() as u64;
        let (ty, domain) = if self.int_fail <= allowed {
            (ColumnType::Int, self.int.domain())
        } else if self.float_fail <= allowed {
            let digits = self.max_frac_digits.min(MAX_FRAC_DIGITS);
            (
                ColumnType::Float {
                    scale: 10u32.pow(digits),
                },
                self.float[digits as usize].domain(),
            )
        } else if self.bool_fail <= allowed {
            (ColumnType::Bool, self.boolean.domain())
        } else {
            (ColumnType::Text, None)
        };
        Column { name, ty, domain }
    }
}

/// Count decimal digits after the '.' in a numeric token (None when the
/// token has no fractional part, e.g. integers or exponent forms).
fn frac_digits(t: &str) -> Option<u32> {
    let mantissa = t.split(['e', 'E']).next().unwrap_or(t);
    let (_, frac) = mantissa.split_once('.')?;
    Some(frac.chars().filter(|c| c.is_ascii_digit()).count() as u32)
}

fn numericish(raw: &str) -> bool {
    let t = raw.trim();
    t.parse::<f64>().is_ok() || parse_bool(t).is_some()
}

fn sanitize_name(raw: &str, index: usize) -> String {
    let cleaned: String = raw
        .trim()
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    // Purely numeric "names" are almost certainly data mistaken for a
    // header; fall back to a synthetic name (which also keeps
    // `Schema::column_index`'s numeric-index fallback unambiguous).
    if cleaned.is_empty() || cleaned.chars().all(|c| c == '_') || cleaned.parse::<f64>().is_ok() {
        format!("c{index}")
    } else {
        cleaned
    }
}

/// Infer a [`Schema`] from sampled records.
///
/// One pass, in memory independent of the sample size: each record is
/// split into one reused scratch vector and folded into per-column
/// evidence as it arrives. Only the first record is kept whole, until
/// the end settles whether it is a header.
///
/// Errors only when the input holds no usable record at all; individual
/// malformed rows are skipped and counted in the [`ProbeReport`].
pub fn probe<R: BufRead>(
    mut reader: R,
    opts: &ProbeOptions,
) -> std::io::Result<(Schema, ProbeReport)> {
    let mut raw = Vec::new();
    let mut fields = Vec::new();
    let mut first: Vec<String> = Vec::new();
    let mut evidence: Vec<Evidence> = Vec::new();
    // "Names over numbers": the first record has a non-numeric field
    // where the second has a numeric one.
    let mut looks_like_header = false;
    let mut records = 0usize;
    let mut skipped = 0u64;
    let limit = if opts.sample_rows == 0 {
        usize::MAX
    } else {
        // +1 so a header row does not eat into the sample.
        opts.sample_rows.saturating_add(1)
    };
    while records < limit {
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        while raw.last() == Some(&b'\n') || raw.last() == Some(&b'\r') {
            raw.pop();
        }
        if raw.iter().all(|b| b.is_ascii_whitespace()) {
            if !raw.is_empty() || records > 0 {
                skipped += 1;
            }
            continue;
        }
        let Ok(line) = std::str::from_utf8(&raw) else {
            skipped += 1;
            continue;
        };
        if split_fields_into(line, opts.delimiter, &mut fields).is_err() {
            skipped += 1;
            continue;
        }
        if records == 0 {
            first = fields.iter().map(|f| f.as_str(line).to_string()).collect();
            evidence = first.iter().map(|_| Evidence::new()).collect();
        } else {
            if fields.len() != first.len() {
                skipped += 1;
                continue;
            }
            if records == 1 {
                looks_like_header = first
                    .iter()
                    .zip(&fields)
                    .any(|(h, v)| !numericish(h) && numericish(v.as_str(line)));
            }
            for (ev, field) in evidence.iter_mut().zip(&fields) {
                ev.observe(field.as_str(line));
            }
        }
        records += 1;
    }
    if records == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no usable records to probe",
        ));
    }
    let has_header = opts.header.unwrap_or(looks_like_header);
    if has_header && records == 1 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "only a header record to probe",
        ));
    }
    if !has_header {
        for (ev, value) in evidence.iter_mut().zip(&first) {
            ev.observe(value);
        }
    }
    let tolerance = opts.type_tolerance.clamp(0.0, 1.0);
    let columns: Vec<Column> = evidence
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let name = if has_header {
                sanitize_name(&first[i], i)
            } else {
                format!("c{i}")
            };
            ev.resolve(name, tolerance)
        })
        .collect();
    Ok((
        Schema {
            delimiter: opts.delimiter,
            has_header,
            columns,
        },
        ProbeReport {
            rows_sampled: (records - usize::from(has_header)) as u64,
            rows_skipped: skipped,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run(text: &str, opts: &ProbeOptions) -> (Schema, ProbeReport) {
        probe(Cursor::new(text.as_bytes()), opts).unwrap()
    }

    #[test]
    fn infers_types_domains_and_header() {
        let text = "id,price,active,note\n1,9.25,true,alpha\n4,0.5,false,beta\n2,12.00,yes,gamma\n";
        let (schema, report) = run(text, &ProbeOptions::default());
        assert!(schema.has_header);
        assert_eq!(report.rows_sampled, 3);
        assert_eq!(report.rows_skipped, 0);
        let names: Vec<&str> = schema.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "price", "active", "note"]);
        assert_eq!(schema.columns[0].ty, ColumnType::Int);
        assert_eq!(schema.columns[0].domain, Some((1, 4)));
        assert_eq!(schema.columns[1].ty, ColumnType::Float { scale: 100 });
        assert_eq!(schema.columns[1].domain, Some((50, 1200)));
        assert_eq!(schema.columns[2].ty, ColumnType::Bool);
        assert_eq!(schema.columns[2].domain, Some((0, 1)));
        assert_eq!(schema.columns[3].ty, ColumnType::Text);
        assert_eq!(schema.columns[3].domain, None);
    }

    #[test]
    fn headerless_numeric_files_get_synthetic_names() {
        let (schema, _) = run("5,6\n7,8\n", &ProbeOptions::default());
        assert!(!schema.has_header);
        assert_eq!(schema.columns[0].name, "c0");
        assert_eq!(schema.columns[0].ty, ColumnType::Int);
        assert_eq!(schema.columns[1].domain, Some((6, 8)));
    }

    #[test]
    fn header_override_beats_the_heuristic() {
        let opts = ProbeOptions {
            header: Some(true),
            ..ProbeOptions::default()
        };
        let (schema, report) = run("10,20\n1,2\n3,4\n", &opts);
        assert!(schema.has_header);
        assert_eq!(report.rows_sampled, 2, "first record consumed as header");
        assert_eq!(
            schema.columns[0].name, "c0",
            "numeric header sanitized away"
        );
    }

    #[test]
    fn malformed_rows_are_skipped_not_fatal() {
        let mut text = String::from("1,2\n\n\"unclosed,3\nbad,arity,here\n9,10\n");
        text.push_str(std::str::from_utf8(b"4,").unwrap());
        text.push_str("5\n");
        let (schema, report) = run(&text, &ProbeOptions::default());
        assert_eq!(schema.columns.len(), 2);
        assert_eq!(report.rows_sampled, 3);
        assert_eq!(report.rows_skipped, 3, "blank + quote + arity");
        assert_eq!(schema.columns[0].domain, Some((1, 9)));
    }

    #[test]
    fn sampling_caps_the_scan() {
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("{i}\n"));
        }
        let opts = ProbeOptions {
            sample_rows: 10,
            ..ProbeOptions::default()
        };
        let (schema, report) = run(&text, &opts);
        assert!(report.rows_sampled <= 11);
        let (_, hi) = schema.columns[0].domain.unwrap();
        assert!(hi < 99, "domain reflects only the sample");
        let full = ProbeOptions {
            sample_rows: 0,
            ..ProbeOptions::default()
        };
        let (schema, report) = run(&text, &full);
        assert_eq!(report.rows_sampled, 100);
        assert_eq!(schema.columns[0].domain, Some((0, 99)));
    }

    #[test]
    fn dominant_type_survives_a_few_dirty_values() {
        // 97 clean ints + 3 junk values: the column must stay Int under
        // the default 5% tolerance so intake can reject the junk with
        // attribution instead of the schema going untyped.
        let mut text = String::new();
        for i in 0..100 {
            if i % 37 == 5 {
                text.push_str("n/a\n");
            } else {
                text.push_str(&format!("{i}\n"));
            }
        }
        let (schema, report) = run(&text, &ProbeOptions::default());
        assert_eq!(report.rows_sampled, 100);
        assert_eq!(schema.columns[0].ty, ColumnType::Int);
        assert_eq!(
            schema.columns[0].domain,
            Some((0, 99)),
            "junk values must not contribute to the domain"
        );
        // Zero tolerance restores unanimous narrowing.
        let strict = ProbeOptions {
            type_tolerance: 0.0,
            ..ProbeOptions::default()
        };
        let (schema, _) = run(&text, &strict);
        assert_eq!(schema.columns[0].ty, ColumnType::Text);
    }

    #[test]
    fn small_samples_stay_strict() {
        // 3 rows, one junk: floor(0.05 * 3) = 0 outliers forgiven, so
        // the column demotes exactly as it did before tolerance existed.
        let (schema, _) = run("1\nn/a\n3\n", &ProbeOptions::default());
        assert_eq!(schema.columns[0].ty, ColumnType::Text);
    }

    #[test]
    fn probe_of_empty_input_is_a_typed_error() {
        assert!(probe(Cursor::new(&b""[..]), &ProbeOptions::default()).is_err());
        assert!(probe(Cursor::new(&b"\n\n"[..]), &ProbeOptions::default()).is_err());
    }

    #[test]
    fn inferred_schema_round_trips_through_text() {
        let text = "a b!,price\n1,2.5\n3,4.25\n";
        let (schema, _) = run(text, &ProbeOptions::default());
        assert_eq!(schema.columns[0].name, "a_b_");
        let reparsed = Schema::parse(&schema.render()).unwrap();
        assert_eq!(reparsed, schema);
    }

    /// Every probe input of this module, plus overflow, exponent, sign
    /// and bool-case edges, with the options each is probed under.
    fn pinned_cases() -> Vec<(String, ProbeOptions)> {
        let default = ProbeOptions::default;
        let counting: String = (0..100).map(|i| format!("{i}\n")).collect();
        let dominant: String = (0..100)
            .map(|i| {
                if i % 37 == 5 {
                    "n/a\n".to_string()
                } else {
                    format!("{i}\n")
                }
            })
            .collect();
        vec![
            (
                "id,price,active,note\n1,9.25,true,alpha\n4,0.5,false,beta\n2,12.00,yes,gamma\n"
                    .into(),
                default(),
            ),
            ("5,6\n7,8\n".into(), default()),
            (
                "10,20\n1,2\n3,4\n".into(),
                ProbeOptions {
                    header: Some(true),
                    ..default()
                },
            ),
            (
                "1,2\n\n\"unclosed,3\nbad,arity,here\n9,10\n4,5\n".into(),
                default(),
            ),
            (
                counting.clone(),
                ProbeOptions {
                    sample_rows: 10,
                    ..default()
                },
            ),
            (
                counting,
                ProbeOptions {
                    sample_rows: 0,
                    ..default()
                },
            ),
            (dominant.clone(), default()),
            (
                dominant,
                ProbeOptions {
                    type_tolerance: 0.0,
                    ..default()
                },
            ),
            ("1\nn/a\n3\n".into(), default()),
            ("a b!,price\n1,2.5\n3,4.25\n".into(), default()),
            (
                "v,w,b,s\n1.5,9223372036854775807,YES,-0\n9.2e18,-9223372036854775808,n,+5\n\
                 -3.25,7,T,inf\n1e13,0.0000001,0,NaN\n0.1234567,8,No,x\n"
                    .into(),
                default(),
            ),
            (
                "\n\n  \r\nh1;h2\r\n1;2\r\n;\r\n\"q;1\";3\r\n\"a\"\"b\";4\r\n".into(),
                ProbeOptions {
                    delimiter: b';',
                    ..default()
                },
            ),
            (
                "x\n1\n".into(),
                ProbeOptions {
                    header: Some(false),
                    ..default()
                },
            ),
        ]
    }

    /// The (sampled, skipped) report and `.schema` text each of
    /// [`pinned_cases`] must give.
    const PINNED: [(u64, u64, &str); 13] = [
        (
            3,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 id int 1:4\ncolumn 1 price float:100 50:1200\ncolumn 2 active bool 0:1\ncolumn 3 note text\n",
        ),
        (
            2,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 int 5:7\ncolumn 1 c1 int 6:8\n",
        ),
        (
            2,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 c0 int 1:3\ncolumn 1 c1 int 2:4\n",
        ),
        (
            3,
            3,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 int 1:9\ncolumn 1 c1 int 2:10\n",
        ),
        (
            11,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 int 0:10\n",
        ),
        (
            100,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 int 0:99\n",
        ),
        (
            100,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 int 0:99\n",
        ),
        (
            100,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 text\n",
        ),
        (
            3,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 text\n",
        ),
        (
            2,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 a_b_ int 1:3\ncolumn 1 price float:100 250:425\n",
        ),
        (
            5,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader true\ncolumn 0 v float:1000000 -3250000:1500000\ncolumn 1 w float:1000000 0:8000000\ncolumn 2 b bool 0:1\ncolumn 3 s text\n",
        ),
        (
            4,
            1,
            "dctstream-schema v1\ndelimiter ;\nheader true\ncolumn 0 h1 text\ncolumn 1 h2 text\n",
        ),
        (
            2,
            0,
            "dctstream-schema v1\ndelimiter ,\nheader false\ncolumn 0 c0 text\n",
        ),
    ];

    #[test]
    fn rendered_schemas_are_pinned() {
        for ((text, opts), (sampled, skipped, schema)) in pinned_cases().iter().zip(PINNED) {
            let (got, report) = run(text, opts);
            assert_eq!(got.render(), schema, "{text:?}");
            assert_eq!(
                (report.rows_sampled, report.rows_skipped),
                (sampled, skipped)
            );
        }
    }
}
