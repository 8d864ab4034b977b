//! # dctstream-obs
//!
//! Dependency-free observability substrate for the `dctstream` workspace.
//!
//! The design goal is a hot path that costs **one relaxed `fetch_add`**
//! when metrics are enabled and **one branch on a static** when they are
//! disabled:
//!
//! - [`Counter`], [`Gauge`], and [`Histogram`] are thin `Arc`-backed
//!   handles over relaxed atomics. Registration (name + label interning)
//!   happens once per call site; after that no lock is touched.
//! - [`MetricsRegistry`] interns metrics by `(name, labels)`. Production
//!   code uses the process-global registry via [`global`] (usually through
//!   the [`counter_add!`], [`gauge_set!`], and [`span!`] macros, which
//!   cache the handle in a per-call-site `OnceLock`); tests can build
//!   private registries so concurrent tests never share state.
//! - [`span!`] opens a [`SpanGuard`] that records its elapsed wall time
//!   into a latency histogram on drop, and — only when span tailing has
//!   been switched on with [`set_tailing`] — appends a [`SpanEvent`] to a
//!   bounded in-memory ring for `watch`-style live views.
//! - [`MetricsSnapshot`] is a consistent-enough point-in-time copy (each
//!   atomic is read individually; histograms are read count-first so the
//!   bucket total can never be *less* than the count — see
//!   [`Histogram::record`] for the ordering argument) that serializes via
//!   the workspace's shared [`frame`] codec (magic, version, sealed with
//!   a CRC-32), and renders to Prometheus text exposition, JSON, or a
//!   human table.
//!
//! This crate deliberately has **zero dependencies** (not even the
//! workspace's own `dctstream-core`, which depends on *it*). Being the
//! lowest crate, it also hosts [`frame`], the one on-disk framing codec
//! every durable format in the workspace is built on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod frame;
pub mod metric;
pub mod registry;
pub mod render;
pub mod snapshot;
pub mod span;

pub use metric::{Counter, Gauge, Histogram, BUCKET_BOUNDS};
pub use registry::{global, MetricsRegistry};
pub use render::{render_json, render_prometheus, render_table};
pub use snapshot::{
    CounterSnapshot, GaugeSnapshot, HistogramSnapshot, MetricsSnapshot, SnapshotError,
};
pub use span::{recent_spans, set_tailing, tailing, SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide instrumentation switch. `true` by default; flipped by
/// [`set_enabled`] (e.g. by `bench_obs` to measure the disabled path).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is enabled. This is the branch the disabled
/// path reduces to: a single relaxed load of a static `AtomicBool`.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable instrumentation. Disabling does not clear
/// already-recorded values; it only stops new recordings made through the
/// gated macros ([`counter_add!`], [`gauge_set!`], [`span!`]). Direct
/// handle methods ([`Counter::add`] etc.) are *not* gated, so tests that
/// exercise handles against private registries are immune to this switch.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Add `$n` to the named counter in the global registry, resolving and
/// caching the handle on first use at this call site. No-op (one static
/// branch) when instrumentation is disabled.
///
/// ```
/// dctstream_obs::counter_add!("doc.example.events", 3);
/// ```
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Counter> =
                ::std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| $crate::global().counter($name))
                .add($n);
        }
    };
    ($name:expr, $labels:expr, $n:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Counter> =
                ::std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| $crate::global().counter_with($name, $labels))
                .add($n);
        }
    };
}

/// Set the named gauge in the global registry to `$v` (an `f64`),
/// resolving and caching the handle on first use at this call site.
/// No-op (one static branch) when instrumentation is disabled.
///
/// ```
/// dctstream_obs::gauge_set!("doc.example.level", 0.5);
/// ```
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Gauge> =
                ::std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| $crate::global().gauge($name))
                .set($v);
        }
    };
    ($name:expr, $labels:expr, $v:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Gauge> =
                ::std::sync::OnceLock::new();
            __OBS_HANDLE
                .get_or_init(|| $crate::global().gauge_with($name, $labels))
                .set($v);
        }
    };
}

/// Open a scoped span recording into the named latency histogram of the
/// global registry. Returns `Option<SpanGuard>` — bind it (`let _span =
/// span!("wal.append");`) so the guard lives to the end of the scope; it
/// records the elapsed wall time on drop. `None` (one static branch) when
/// instrumentation is disabled.
///
/// ```
/// let _span = dctstream_obs::span!("doc.example.work");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Histogram> =
                ::std::sync::OnceLock::new();
            Some($crate::SpanGuard::start(
                $name,
                __OBS_HANDLE
                    .get_or_init(|| $crate::global().histogram($name))
                    .clone(),
            ))
        } else {
            None
        }
    };
    ($name:expr, $labels:expr) => {
        if $crate::enabled() {
            static __OBS_HANDLE: ::std::sync::OnceLock<$crate::Histogram> =
                ::std::sync::OnceLock::new();
            Some($crate::SpanGuard::start(
                $name,
                __OBS_HANDLE
                    .get_or_init(|| $crate::global().histogram_with($name, $labels))
                    .clone(),
            ))
        } else {
            None
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macros_record_into_the_global_registry() {
        counter_add!("obs.test.macro_counter", 2);
        counter_add!("obs.test.macro_counter", 3);
        gauge_set!("obs.test.macro_gauge", 1.5);
        {
            let _span = span!("obs.test.macro_span");
        }
        let snap = global().snapshot();
        let c = snap
            .counters
            .iter()
            .find(|c| c.name == "obs.test.macro_counter")
            .expect("counter registered");
        assert!(c.value >= 5);
        let g = snap
            .gauges
            .iter()
            .find(|g| g.name == "obs.test.macro_gauge")
            .expect("gauge registered");
        assert_eq!(g.value, 1.5);
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "obs.test.macro_span")
            .expect("histogram registered");
        assert!(h.count >= 1);
    }

    #[test]
    fn labelled_macros_intern_separately() {
        counter_add!("obs.test.labelled", &[("kind", "a")], 1);
        counter_add!("obs.test.labelled2", &[("kind", "b")], 4);
        let snap = global().snapshot();
        let a = snap
            .counters
            .iter()
            .find(|c| c.name == "obs.test.labelled")
            .unwrap();
        assert_eq!(a.labels, vec![("kind".to_string(), "a".to_string())]);
        let b = snap
            .counters
            .iter()
            .find(|c| c.name == "obs.test.labelled2")
            .unwrap();
        assert_eq!(b.labels, vec![("kind".to_string(), "b".to_string())]);
        assert!(b.value >= 4);
    }
}
