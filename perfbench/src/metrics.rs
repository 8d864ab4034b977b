//! The metric catalog (the names `BENCHMARK.json` lists) and the report
//! every run prints: stamps, output checks, every metric with its unit
//! and sample count, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Each is defined on every workload (see `perfbench/README.md`), and
/// none can be zero: an answered-share stands in for an error share.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("rows_per_s", "1/s", "higher", 0.25),
    e2e("ingest_p50_ms", "ms", "lower", 0.25),
    e2e("estimate_p50_ms", "ms", "lower", 0.25),
    e2e("chain_p50_ms", "ms", "lower", 0.25),
    e2e("ok_ratio", "ratio", "higher", 0.01),
    e2e("est_rel_err", "ratio", "lower", 0.1),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("log_bytes_per_row", "B/row", "lower", 0.05),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload never calls reads 0 there.
pub const PER_LAYER: [MetricDef; 25] = [
    layer("core.synopsis.update_batch.items_per_s", "1/s", "higher"),
    layer("core.synopsis.update_batch.busy_s", "s", "lower"),
    layer("intake.run.rows_per_s", "1/s", "higher"),
    layer("intake.reject_ratio", "ratio", "lower"),
    layer("stream.recovery.process_weighted.p50_us", "us", "lower"),
    layer("stream.recovery.process_weighted.count", "count", "lower"),
    layer("stream.recovery.sync.p50_us", "us", "lower"),
    layer("stream.recovery.sync.p99_us", "us", "lower"),
    layer("stream.wal.fsyncs_per_ingest", "ratio", "lower"),
    layer("stream.wal.append_bytes_per_row", "B/row", "lower"),
    layer("stream.snapshot.capture.p50_us", "us", "lower"),
    layer("stream.snapshot.capture.count", "count", "lower"),
    layer("stream.snapshot.estimate.p50_us", "us", "lower"),
    layer("stream.query.estimate_at.p50_us", "us", "lower"),
    layer("serve.cache.hit_ratio", "ratio", "higher"),
    layer("stream.shard.ingest.p50_us", "us", "lower"),
    layer("stream.shard.capture_merged.p50_us", "us", "lower"),
    layer("stream.shard.partition_skew", "ratio", "lower"),
    layer("serve.http.read_request.p50_us", "us", "lower"),
    layer("serve.requeues_per_request", "ratio", "lower"),
    layer("serve.admission.rejected_ratio", "ratio", "lower"),
    layer("serve.unattributed_ms.ingest", "ms", "lower"),
    layer("serve.unattributed_ms.estimate", "ms", "lower"),
    layer("serve.unattributed_ms.chain", "ms", "lower"),
    layer("replay.lateness_p99_ms", "ms", "lower"),
];

/// Whether `s` is a valid metric or workload name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The compared values.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
    stamps: Vec<(String, String)>,
    notes: Vec<String>,
    checks: Vec<Check>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (transport failure, non-2xx answer, or a
    /// command exiting non-zero).
    pub failed: u64,
}

impl Report {
    /// Record a metric's value and the sample count behind it.
    pub fn set(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        self.values.insert(name, (value, samples));
    }

    /// Stamp the result with a `key=value` fact about the run.
    pub fn stamp(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.stamps.push((key.into(), value.into()));
    }

    /// A line printed with the result that is not a gated metric.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check so far held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Print the report: stamps, notes, checks and metrics as text, then
    /// the result object as the last line. `trace` selects the per-layer
    /// metric set. A metric of the set that was never measured, or that
    /// is not finite, fails the run. Returns whether every check held.
    pub fn print(&mut self, trace: bool) -> bool {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        for def in defs {
            match self.values.get(def.name) {
                Some((v, _)) if v.is_finite() => {}
                Some((v, _)) => self.check(format!("metric {}", def.name), false, format!("{v}")),
                None => self.check(format!("metric {}", def.name), false, "not measured"),
            }
        }
        let mut out = String::new();
        for (k, v) in &self.stamps {
            let _ = writeln!(out, "stamp {k}={v}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "info {n}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        let mut json = String::new();
        for def in defs {
            let Some(&(v, n)) = self.values.get(def.name) else {
                continue;
            };
            let samples = n.map(|n| format!(" (n={n})")).unwrap_or_default();
            let _ = writeln!(out, "metric {} {v} {}{samples}", def.name, def.unit);
            if v.is_finite() {
                if !json.is_empty() {
                    json.push(',');
                }
                let _ = write!(
                    json,
                    "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                    def.name, def.unit
                );
            }
        }
        let correct = self.correct();
        let _ = writeln!(
            out,
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        print!("{out}");
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(def.name.len() <= 64, "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(matches!(def.better, "lower" | "higher"));
        }
        for def in &END_TO_END {
            let b = def.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up time carries the largest bound"
        );
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut r = Report::default();
        r.set("setup_s", 1.0, Some(3));
        assert!(!r.print(false));
    }
}
