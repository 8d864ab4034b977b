//! Typed column definitions and the `.schema` file format.
//!
//! A schema names each column, assigns it one of four types, and
//! optionally bounds its *normalized* value domain:
//!
//! - `int` — a base-10 `i64`.
//! - `float` / `float:SCALE` — a finite `f64`, normalized to `i64` by
//!   `round(value * SCALE)` (so `float:100` keeps two decimal places
//!   losslessly). `float` alone means `SCALE = 1`.
//! - `bool` — `true/false`, `t/f`, `yes/no`, `y/n`, `1/0`
//!   (case-insensitive), normalized to `1`/`0`.
//! - `text` — any UTF-8 string; carried through `verify` but not
//!   ingestable into a numeric synopsis.
//!
//! # File format
//!
//! Line-oriented, `#` comments, written by `dctstream probe`:
//!
//! ```text
//! dctstream-schema v1
//! delimiter ,
//! header true
//! column 0 user_id int 1:99999
//! column 1 price float:100 0:1250000
//! column 2 active bool 0:1
//! column 3 note text
//! ```
//!
//! Domains are inclusive `lo:hi` bounds in *normalized* space; a column
//! without a domain accepts any representable value.

use crate::csv::{parse_delimiter, render_delimiter};
use std::fmt;

/// The type of one column, controlling parsing and normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Base-10 `i64`.
    Int,
    /// Finite `f64`, normalized to `round(value * scale)` as `i64`.
    Float {
        /// Multiplier applied before rounding (power of ten ≥ 1).
        scale: u32,
    },
    /// Boolean token, normalized to `0`/`1`.
    Bool,
    /// Free-form UTF-8 text (not ingestable into a synopsis).
    Text,
}

impl ColumnType {
    /// The type name used in `.schema` files and reject reports.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float { .. } => "float",
            ColumnType::Bool => "bool",
            ColumnType::Text => "text",
        }
    }
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Float { scale } if *scale != 1 => write!(f, "float:{scale}"),
            other => f.write_str(other.name()),
        }
    }
}

/// Why a single field failed to normalize under its column's type.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueError {
    /// The raw token does not parse as the column's type (empty fields
    /// land here too).
    Unparseable {
        /// The column's declared type name.
        expected: &'static str,
    },
    /// The normalized value falls outside the column's declared domain.
    OutOfDomain {
        /// The normalized value.
        value: i64,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

/// Base-10 `i64` parse specialized for the intake hot loop: optional
/// sign, digits only, checked overflow. Semantically identical to
/// `str::parse::<i64>` (which accepts exactly the same grammar) but
/// without the `Result`/radix generality, which measures ~2x faster on
/// the short fields CSV is made of.
pub(crate) fn fast_i64(bytes: &[u8]) -> Option<i64> {
    let (neg, digits) = match bytes.first()? {
        b'-' => (true, &bytes[1..]),
        b'+' => (false, &bytes[1..]),
        _ => (false, bytes),
    };
    if digits.is_empty() {
        return None;
    }
    // Accumulate negated: i64::MIN has no positive counterpart.
    let mut acc: i64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(i64::from(d))?;
    }
    if neg {
        Some(acc)
    } else {
        acc.checked_neg()
    }
}

/// A `bool` token (`true/false`, `t/f`, `yes/no`, `y/n`, `1/0`, any
/// ASCII case) as `1`/`0`, without allocating.
pub(crate) fn parse_bool(t: &str) -> Option<i64> {
    const TOKENS: [(&str, i64); 10] = [
        ("true", 1),
        ("t", 1),
        ("yes", 1),
        ("y", 1),
        ("1", 1),
        ("false", 0),
        ("f", 0),
        ("no", 0),
        ("n", 0),
        ("0", 0),
    ];
    TOKENS
        .iter()
        .find(|(token, _)| token.eq_ignore_ascii_case(t))
        .map(|&(_, v)| v)
}

/// A finite float normalized as `float:scale` normalizes it:
/// `round(v * scale)`, or `None` when that does not fit an `i64`.
pub(crate) fn scale_float(v: f64, scale: u32) -> Option<i64> {
    if !v.is_finite() {
        return None;
    }
    let scaled = (v * f64::from(scale)).round();
    if scaled < i64::MIN as f64 || scaled > i64::MAX as f64 {
        return None;
    }
    Some(scaled as i64)
}

/// One column of a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name (header-derived or `c<index>`); never contains
    /// whitespace.
    pub name: String,
    /// Parsing/normalization type.
    pub ty: ColumnType,
    /// Optional inclusive `[lo, hi]` bound on the normalized value.
    pub domain: Option<(i64, i64)>,
}

impl Column {
    /// Parse and normalize one raw field under this column's type,
    /// returning the normalized `i64` (`None` for `text` columns, which
    /// always accept).
    pub fn normalize(&self, raw: &str) -> Result<Option<i64>, ValueError> {
        let trimmed = raw.trim();
        let value = match self.ty {
            ColumnType::Text => return Ok(None),
            ColumnType::Int => {
                fast_i64(trimmed.as_bytes()).ok_or(ValueError::Unparseable { expected: "int" })?
            }
            ColumnType::Float { scale } => trimmed
                .parse()
                .ok()
                .and_then(|v| scale_float(v, scale))
                .ok_or(ValueError::Unparseable { expected: "float" })?,
            ColumnType::Bool => {
                parse_bool(trimmed).ok_or(ValueError::Unparseable { expected: "bool" })?
            }
        };
        if let Some((lo, hi)) = self.domain {
            if value < lo || value > hi {
                return Err(ValueError::OutOfDomain { value, lo, hi });
            }
        }
        Ok(Some(value))
    }
}

/// A parse/validation error in a `.schema` file, with 1-based line
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// 1-based line the error occurred on (0 = whole-file problem).
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "schema: {}", self.detail)
        } else {
            write!(f, "schema line {}: {}", self.line, self.detail)
        }
    }
}

impl std::error::Error for SchemaError {}

fn err(line: usize, detail: impl Into<String>) -> SchemaError {
    SchemaError {
        line,
        detail: detail.into(),
    }
}

/// A full intake schema: delimiter, header flag, and typed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Field delimiter byte.
    pub delimiter: u8,
    /// Whether the first line of data files is a header to skip.
    pub has_header: bool,
    /// Typed columns, in file order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Expected arity (number of columns).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column named `name` (exact match), or a parsed
    /// numeric index if `name` is a number in range.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        if let Some(i) = self.columns.iter().position(|c| c.name == name) {
            return Some(i);
        }
        name.parse::<usize>()
            .ok()
            .filter(|&i| i < self.columns.len())
    }

    /// Serialize to the `.schema` text format (round-trips through
    /// [`Schema::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::from("dctstream-schema v1\n");
        out.push_str(&format!("delimiter {}\n", render_delimiter(self.delimiter)));
        out.push_str(&format!("header {}\n", self.has_header));
        for (i, col) in self.columns.iter().enumerate() {
            out.push_str(&format!("column {i} {} {}", col.name, col.ty));
            if let Some((lo, hi)) = col.domain {
                out.push_str(&format!(" {lo}:{hi}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the `.schema` text format.
    pub fn parse(text: &str) -> Result<Self, SchemaError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let (_, magic) = lines.next().ok_or_else(|| err(0, "empty schema file"))?;
        if magic != "dctstream-schema v1" {
            return Err(err(1, "missing 'dctstream-schema v1' magic line"));
        }
        let mut delimiter = b',';
        let mut has_header = false;
        let mut columns: Vec<Column> = Vec::new();
        for (lineno, line) in lines {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("delimiter") => {
                    let spec = parts
                        .next()
                        .ok_or_else(|| err(lineno, "delimiter needs a value"))?;
                    delimiter = parse_delimiter(spec).map_err(|e| err(lineno, e))?;
                }
                Some("header") => {
                    has_header = match parts.next() {
                        Some("true") => true,
                        Some("false") => false,
                        _ => return Err(err(lineno, "header must be true or false")),
                    };
                }
                Some("column") => {
                    let idx: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(lineno, "column needs a numeric index"))?;
                    if idx != columns.len() {
                        return Err(err(
                            lineno,
                            format!(
                                "column index {idx} out of order (expected {})",
                                columns.len()
                            ),
                        ));
                    }
                    let name = parts
                        .next()
                        .ok_or_else(|| err(lineno, "column needs a name"))?
                        .to_string();
                    let ty_spec = parts
                        .next()
                        .ok_or_else(|| err(lineno, "column needs a type"))?;
                    let ty = parse_type(ty_spec).map_err(|e| err(lineno, e))?;
                    let domain = match parts.next() {
                        None => None,
                        Some(spec) => Some(parse_domain(spec).map_err(|e| err(lineno, e))?),
                    };
                    if let Some(extra) = parts.next() {
                        return Err(err(lineno, format!("unexpected token '{extra}'")));
                    }
                    columns.push(Column { name, ty, domain });
                }
                Some(other) => {
                    return Err(err(lineno, format!("unrecognized directive '{other}'")));
                }
                None => unreachable!("empty lines are skipped"),
            }
        }
        if columns.is_empty() {
            return Err(err(0, "schema defines no columns"));
        }
        Ok(Schema {
            delimiter,
            has_header,
            columns,
        })
    }
}

fn parse_type(spec: &str) -> Result<ColumnType, String> {
    match spec {
        "int" => Ok(ColumnType::Int),
        "bool" => Ok(ColumnType::Bool),
        "text" => Ok(ColumnType::Text),
        "float" => Ok(ColumnType::Float { scale: 1 }),
        s => match s.strip_prefix("float:") {
            Some(scale) => {
                let scale: u32 = scale
                    .parse()
                    .map_err(|_| format!("bad float scale '{scale}'"))?;
                if scale == 0 {
                    return Err("float scale must be >= 1".to_string());
                }
                Ok(ColumnType::Float { scale })
            }
            None => Err(format!("unrecognized column type '{s}'")),
        },
    }
}

fn parse_domain(spec: &str) -> Result<(i64, i64), String> {
    // `lo:hi` where both bounds may be negative; split on the last ':'
    // that is not a leading minus boundary — i64 text never contains ':'
    // so a simple split_once from the correct side works: lo cannot
    // contain ':', so split at the first ':' after position 0.
    let (lo, hi) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad domain '{spec}' (expected lo:hi)"))?;
    let lo: i64 = lo
        .parse()
        .map_err(|_| format!("bad domain lower bound '{lo}'"))?;
    let hi: i64 = hi
        .parse()
        .map_err(|_| format!("bad domain upper bound '{hi}'"))?;
    if lo > hi {
        return Err(format!("empty domain {lo}:{hi}"));
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(ty: ColumnType, domain: Option<(i64, i64)>) -> Column {
        Column {
            name: "c".into(),
            ty,
            domain,
        }
    }

    #[test]
    fn int_normalization_and_domain() {
        let c = col(ColumnType::Int, Some((1, 99)));
        assert_eq!(c.normalize("42").unwrap(), Some(42));
        assert_eq!(c.normalize(" 7 ").unwrap(), Some(7), "whitespace trimmed");
        assert_eq!(
            c.normalize("100").unwrap_err(),
            ValueError::OutOfDomain {
                value: 100,
                lo: 1,
                hi: 99
            }
        );
        assert_eq!(
            c.normalize("4.5").unwrap_err(),
            ValueError::Unparseable { expected: "int" },
            "typed columns do not coerce"
        );
        assert!(c.normalize("").is_err(), "empty field is unparseable");
    }

    #[test]
    fn float_scale_normalizes_losslessly() {
        let c = col(ColumnType::Float { scale: 100 }, None);
        assert_eq!(c.normalize("12.34").unwrap(), Some(1234));
        assert_eq!(c.normalize("-0.5").unwrap(), Some(-50));
        assert_eq!(c.normalize("3").unwrap(), Some(300));
        assert!(c.normalize("nan").is_err(), "non-finite rejected");
        assert!(c.normalize("inf").is_err());
        assert!(c.normalize("1e300").is_err(), "overflow rejected");
    }

    #[test]
    fn bool_tokens_normalize_to_unit() {
        let c = col(ColumnType::Bool, Some((0, 1)));
        for t in ["true", "T", "YES", "y", "1"] {
            assert_eq!(c.normalize(t).unwrap(), Some(1), "{t}");
        }
        for t in ["false", "F", "no", "N", "0"] {
            assert_eq!(c.normalize(t).unwrap(), Some(0), "{t}");
        }
        assert!(c.normalize("maybe").is_err());
    }

    #[test]
    fn text_columns_accept_anything() {
        let c = col(ColumnType::Text, None);
        assert_eq!(c.normalize("whatever, really").unwrap(), None);
        assert_eq!(c.normalize("").unwrap(), None);
    }

    fn sample_schema() -> Schema {
        Schema {
            delimiter: b'|',
            has_header: true,
            columns: vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Int,
                    domain: Some((1, 500)),
                },
                Column {
                    name: "price".into(),
                    ty: ColumnType::Float { scale: 100 },
                    domain: Some((-1000, 125000)),
                },
                Column {
                    name: "active".into(),
                    ty: ColumnType::Bool,
                    domain: Some((0, 1)),
                },
                Column {
                    name: "note".into(),
                    ty: ColumnType::Text,
                    domain: None,
                },
            ],
        }
    }

    #[test]
    fn schema_text_round_trips() {
        let schema = sample_schema();
        let text = schema.render();
        let parsed = Schema::parse(&text).unwrap();
        assert_eq!(parsed, schema);
    }

    #[test]
    fn schema_parse_rejects_malformed_files() {
        assert!(Schema::parse("").is_err(), "empty");
        assert!(Schema::parse("not-a-schema\n").is_err(), "bad magic");
        let base = "dctstream-schema v1\n";
        assert!(Schema::parse(base).is_err(), "no columns");
        for bad in [
            "column 1 a int\n",           // out-of-order index
            "column 0 a quaternion\n",    // unknown type
            "column 0 a int 9:1\n",       // empty domain
            "column 0 a int 1:2 extra\n", // trailing junk
            "header maybe\n",
            "delimiter toolong\n",
            "frobnicate on\n",
        ] {
            let text = format!("{base}{bad}");
            assert!(Schema::parse(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            "dctstream-schema v1\n# a comment\n\ndelimiter tab\nheader false\ncolumn 0 v int\n";
        let s = Schema::parse(text).unwrap();
        assert_eq!(s.delimiter, b'\t');
        assert!(!s.has_header);
        assert_eq!(s.columns.len(), 1);
        assert_eq!(s.columns[0].domain, None);
    }

    #[test]
    fn column_lookup_by_name_or_index() {
        let s = sample_schema();
        assert_eq!(s.column_index("price"), Some(1));
        assert_eq!(s.column_index("2"), Some(2));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.column_index("9"), None);
    }

    #[test]
    fn fast_i64_agrees_with_std_parse() {
        let cases = [
            "0",
            "7",
            "-7",
            "+42",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
            "",
            "-",
            "+",
            "1.5",
            "n/a",
            "1e3",
            " 1",
            "0x10",
            "007",
            "-000",
        ];
        for s in cases {
            assert_eq!(fast_i64(s.as_bytes()), s.parse::<i64>().ok(), "input {s:?}");
        }
    }
}
