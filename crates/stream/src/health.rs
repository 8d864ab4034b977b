//! Stream-health supervision: a per-stream state machine tracking each
//! registered stream's trustworthiness, with typed causes on every
//! transition.
//!
//! # State machine
//!
//! ```text
//!            ┌──────────── scrub passed ────────────┐
//!            ▼                                      │
//!        Healthy ──── artifact damage ────────► Suspect
//!            │                                      │
//!            │ WAL append / replay failed           │ live-state damage
//!            ▼                                      ▼
//!        Quarantined ◄──────────────────────────────┘
//!            │   ▲
//!  repair()  │   │ repair failed / crash verification failed
//!            ▼   │
//!        Repairing ─────── verified ──────────► Healthy
//! ```
//!
//! The exact transition relation lives in [`HealthState::can_transition`];
//! [`HealthRegistry::transition`] enforces it — an invalid transition is a
//! typed error and leaves the recorded state unchanged, so no caller
//! interleaving (fault, scrub, repair, crash) can drive a stream into an
//! unreachable state.
//!
//! Two properties the query path relies on:
//!
//! - **`Repairing` is never answerable as healthy.** Both `Quarantined`
//!   and `Repairing` count as [degraded](HealthState::is_degraded); the
//!   live summary of a repairing stream is mid-rebuild and must not serve
//!   estimates.
//! - **No half-repaired promotion.** `Repairing → Healthy` is only taken
//!   after post-repair verification; any failure falls back to
//!   `Quarantined` with the rebuilt state discarded.
//!
//! A degraded stream is captured into a [`crate::RegistrySnapshot`] from
//! its last checkpointed summary, and the snapshot records a
//! [`StreamStaleness`] for it, so callers can see *how stale* the
//! substituted data is instead of receiving a hard error.

use dctstream_core::{DctError, Result};
use std::collections::BTreeMap;
use std::fmt;

/// Trust level of one registered stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Live state and durable artifacts are believed intact.
    Healthy,
    /// Durable artifacts show damage but the live summary still audits
    /// clean — queries keep answering while the operator investigates.
    Suspect,
    /// The live summary can no longer be trusted (failed WAL append,
    /// replay failure, or live-state integrity violation). Snapshots
    /// answer for it from its last checkpointed summary, with attribution,
    /// until it is repaired or dropped.
    Quarantined,
    /// A [`crate::recovery::DurableProcessor::repair`] is rebuilding the
    /// stream from checkpoint + WAL. Treated exactly like `Quarantined`
    /// by the query path: mid-rebuild state is never observable.
    Repairing,
}

impl HealthState {
    /// Whether the state machine permits moving from `self` to `to`.
    ///
    /// Self-loops are allowed for `Suspect` and `Quarantined` (a repeat
    /// scrub or a failed repair refreshes the cause without changing the
    /// state); every other pair not drawn in the module diagram is
    /// invalid.
    pub fn can_transition(self, to: HealthState) -> bool {
        use HealthState::*;
        matches!(
            (self, to),
            (Healthy, Suspect)
                | (Healthy, Quarantined)
                | (Suspect, Suspect)
                | (Suspect, Healthy)
                | (Suspect, Quarantined)
                | (Quarantined, Quarantined)
                | (Quarantined, Repairing)
                | (Repairing, Healthy)
                | (Repairing, Quarantined)
        )
    }

    /// Whether queries must not serve this stream's live summary.
    /// `Repairing` is degraded by design: rebuild-in-progress state is
    /// never answerable as healthy.
    pub fn is_degraded(self) -> bool {
        matches!(self, HealthState::Quarantined | HealthState::Repairing)
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
            HealthState::Repairing => "repairing",
        };
        f.write_str(s)
    }
}

/// Why a stream moved into its current state. Every transition through
/// [`HealthRegistry::transition`] records one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthCause {
    /// Logging an already-applied update to the WAL failed: memory and
    /// disk have diverged by exactly the unlogged update.
    WalAppendFailed {
        /// The underlying append/flush error.
        detail: String,
    },
    /// A WAL record could not be applied during recovery replay.
    ReplayFailed {
        /// Sequence number of the failing record.
        seq: u64,
        /// The apply error.
        detail: String,
    },
    /// An integrity scrub found a violation.
    IntegrityViolation {
        /// The failing field (e.g. `sums[3]`, `heavy.len`).
        field: String,
        /// Which artifact was damaged: `summary`, `checkpoint`, or a WAL
        /// segment name.
        artifact: String,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A repair attempt began.
    RepairStarted {
        /// 1-based attempt number within this `repair()` call.
        attempt: u32,
    },
    /// A repair attempt failed; the stream returns to quarantine with
    /// the rebuilt state discarded.
    RepairFailed {
        /// Why the rebuild or its verification failed.
        detail: String,
    },
    /// A repair completed and passed post-repair verification.
    RepairVerified {
        /// WAL records replayed on top of the checkpoint baseline.
        replayed: u64,
    },
    /// A full scrub pass found no violation for this stream.
    ScrubPassed,
    /// The typed intake front end saw too many malformed rows while
    /// feeding this stream: the source itself can no longer be trusted
    /// (wrong file, wrong schema, or upstream corruption), so the
    /// stream is taken out of service rather than ingesting a skewed
    /// accepted subset.
    RejectRateExceeded {
        /// Rows rejected when the threshold tripped.
        rejected: u64,
        /// Rows seen when the threshold tripped.
        seen: u64,
        /// The configured reject-rate threshold in `[0, 1]`.
        threshold: f64,
    },
}

impl fmt::Display for HealthCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthCause::WalAppendFailed { detail } => {
                write!(f, "WAL append failed: {detail}")
            }
            HealthCause::ReplayFailed { seq, detail } => {
                write!(f, "replay of WAL record {seq} failed: {detail}")
            }
            HealthCause::IntegrityViolation {
                field,
                artifact,
                detail,
            } => write!(
                f,
                "integrity violation in field '{field}' of {artifact}: {detail}"
            ),
            HealthCause::RepairStarted { attempt } => {
                write!(f, "repair attempt {attempt} started")
            }
            HealthCause::RepairFailed { detail } => write!(f, "repair failed: {detail}"),
            HealthCause::RepairVerified { replayed } => {
                write!(f, "repair verified ({replayed} WAL records replayed)")
            }
            HealthCause::ScrubPassed => f.write_str("scrub passed"),
            HealthCause::RejectRateExceeded {
                rejected,
                seen,
                threshold,
            } => write!(
                f,
                "intake reject rate {rejected}/{seen} exceeded threshold {threshold}"
            ),
        }
    }
}

#[derive(Debug, Clone)]
struct HealthRecord {
    state: HealthState,
    cause: HealthCause,
}

/// Per-stream health ledger. Streams absent from the ledger are
/// implicitly [`HealthState::Healthy`]; a record is only materialized on
/// the first non-trivial transition.
#[derive(Debug, Clone, Default)]
pub struct HealthRegistry {
    records: BTreeMap<String, HealthRecord>,
}

impl HealthRegistry {
    /// An empty ledger (every stream healthy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state of `stream` (`Healthy` if never transitioned).
    pub fn state(&self, stream: &str) -> HealthState {
        self.records
            .get(stream)
            .map_or(HealthState::Healthy, |r| r.state)
    }

    /// The cause recorded with the stream's latest transition, if any.
    pub fn cause(&self, stream: &str) -> Option<&HealthCause> {
        self.records.get(stream).map(|r| &r.cause)
    }

    /// Whether queries must not serve `stream`'s live summary.
    pub fn is_degraded(&self, stream: &str) -> bool {
        self.state(stream).is_degraded()
    }

    /// Move `stream` to `to`, recording `cause`. Returns the previous
    /// state. An invalid transition is a typed error and leaves the
    /// recorded state (and cause) unchanged.
    pub fn transition(
        &mut self,
        stream: &str,
        to: HealthState,
        cause: HealthCause,
    ) -> Result<HealthState> {
        let from = self.state(stream);
        if !from.can_transition(to) {
            return Err(DctError::InvalidParameter(format!(
                "stream '{stream}': invalid health transition {from} -> {to} (cause: {cause})"
            )));
        }
        match to {
            HealthState::Quarantined => {
                dctstream_obs::counter_add!("health.quarantines", 1)
            }
            HealthState::Healthy if from == HealthState::Repairing => {
                dctstream_obs::counter_add!("health.repairs", 1)
            }
            _ => {}
        }
        if to == HealthState::Healthy {
            // Healthy streams carry no record; dropping it also restores
            // the implicit default for streams we have never seen.
            self.records.remove(stream);
        } else {
            self.records
                .insert(stream.to_string(), HealthRecord { state: to, cause });
        }
        Ok(from)
    }

    /// Remove `stream` from the ledger entirely (used when the stream is
    /// dropped from the registry).
    pub fn forget(&mut self, stream: &str) {
        self.records.remove(stream);
    }

    /// All streams currently in a non-healthy state, name-sorted, with
    /// their state and latest cause rendered as text.
    pub fn report(&self) -> Vec<(String, HealthState, String)> {
        self.records
            .iter()
            .map(|(name, r)| (name.clone(), r.state, r.cause.to_string()))
            .collect()
    }

    /// Streams currently in `state`, name-sorted.
    pub fn streams_in(&self, state: HealthState) -> Vec<String> {
        self.records
            .iter()
            .filter(|(_, r)| r.state == state)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Whether any stream is non-healthy.
    pub fn all_healthy(&self) -> bool {
        self.records.is_empty()
    }

    /// Streams whose live summary must not be read (`Quarantined` or
    /// `Repairing`), name-sorted. Empty, without allocating, whenever
    /// every stream is healthy.
    pub fn degraded_streams(&self) -> Vec<String> {
        self.records
            .iter()
            .filter(|(_, r)| r.state.is_degraded())
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// How stale a degraded stream's substituted answer is: the stream's
/// live summary was unusable, so the estimate used its last checkpointed
/// summary instead.
///
/// Staleness is reported on two axes because they diverge on turnstile
/// streams: `records_behind` counts the *update records* the substitute
/// is missing, while `gross_weight_behind` sums their absolute weights
/// `Σ|w|`. A `+5` followed by a `-3` is 2 records behind but 8 units of
/// gross update mass behind (net weight, 2, would understate how much
/// the distribution may have moved — deletions move mass too).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStaleness {
    /// The degraded stream.
    pub stream: String,
    /// Its health state at answer time (`Quarantined` or `Repairing`).
    pub state: HealthState,
    /// WAL watermark the substituted checkpoint covers (0 = empty
    /// baseline: the stream had never been checkpointed).
    pub checkpoint_watermark: u64,
    /// Upper bound on this stream's update records the substitute is
    /// missing (applied since the checkpoint, including any applied
    /// update whose WAL append failed).
    pub records_behind: u64,
    /// Upper bound on the gross update mass `Σ|w|` of those records —
    /// the turnstile-correct measure of how much the stream has moved
    /// since the checkpoint.
    pub gross_weight_behind: f64,
}

impl fmt::Display for StreamStaleness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stream '{}' ({}): answered from checkpoint at watermark {} \
             (≤{} records, ≤{} gross update mass behind)",
            self.stream,
            self.state,
            self.checkpoint_watermark,
            self.records_behind,
            self.gross_weight_behind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use HealthState::*;

    fn cause() -> HealthCause {
        HealthCause::ScrubPassed
    }

    #[test]
    fn transition_relation_matches_the_diagram() {
        let all = [Healthy, Suspect, Quarantined, Repairing];
        let allowed = [
            (Healthy, Suspect),
            (Healthy, Quarantined),
            (Suspect, Suspect),
            (Suspect, Healthy),
            (Suspect, Quarantined),
            (Quarantined, Quarantined),
            (Quarantined, Repairing),
            (Repairing, Healthy),
            (Repairing, Quarantined),
        ];
        for from in all {
            for to in all {
                assert_eq!(
                    from.can_transition(to),
                    allowed.contains(&(from, to)),
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn quarantine_cannot_skip_repair() {
        // The two transitions that would let damaged state leak back into
        // the query path without verification.
        assert!(!Quarantined.can_transition(Healthy));
        assert!(!Quarantined.can_transition(Suspect));
        // And repair cannot be entered from anywhere but quarantine.
        assert!(!Healthy.can_transition(Repairing));
        assert!(!Suspect.can_transition(Repairing));
    }

    #[test]
    fn registry_defaults_to_healthy_and_enforces_validity() {
        let mut reg = HealthRegistry::new();
        assert_eq!(reg.state("s"), Healthy);
        assert!(reg.cause("s").is_none());
        assert!(!reg.is_degraded("s"));

        // Healthy -> Repairing is invalid; state must be unchanged.
        let err = reg
            .transition("s", Repairing, HealthCause::RepairStarted { attempt: 1 })
            .unwrap_err();
        assert!(err.to_string().contains("healthy -> repairing"), "{err}");
        assert_eq!(reg.state("s"), Healthy);

        let prev = reg
            .transition(
                "s",
                Quarantined,
                HealthCause::WalAppendFailed {
                    detail: "disk gone".into(),
                },
            )
            .unwrap();
        assert_eq!(prev, Healthy);
        assert_eq!(reg.state("s"), Quarantined);
        assert!(reg.is_degraded("s"));
        assert!(reg.cause("s").unwrap().to_string().contains("disk gone"));

        // Quarantined -> Healthy must go through Repairing.
        assert!(reg.transition("s", Healthy, cause()).is_err());
        assert_eq!(reg.state("s"), Quarantined);

        reg.transition("s", Repairing, HealthCause::RepairStarted { attempt: 1 })
            .unwrap();
        assert!(reg.is_degraded("s"));
        reg.transition("s", Healthy, HealthCause::RepairVerified { replayed: 4 })
            .unwrap();
        assert_eq!(reg.state("s"), Healthy);
        assert!(reg.cause("s").is_none());
        assert!(reg.all_healthy());
    }

    #[test]
    fn suspect_round_trips_through_scrub() {
        let mut reg = HealthRegistry::new();
        reg.transition(
            "s",
            Suspect,
            HealthCause::IntegrityViolation {
                field: "record crc".into(),
                artifact: "checkpoint".into(),
                detail: "checksum mismatch".into(),
            },
        )
        .unwrap();
        assert!(!reg.is_degraded("s"), "suspect streams still answer");
        // Re-scrub with damage still present: self-loop refreshes cause.
        reg.transition(
            "s",
            Suspect,
            HealthCause::IntegrityViolation {
                field: "record crc".into(),
                artifact: "checkpoint".into(),
                detail: "still damaged".into(),
            },
        )
        .unwrap();
        assert!(reg
            .cause("s")
            .unwrap()
            .to_string()
            .contains("still damaged"));
        reg.transition("s", Healthy, HealthCause::ScrubPassed)
            .unwrap();
        assert!(reg.all_healthy());
    }

    #[test]
    fn report_and_queries_are_name_sorted() {
        let mut reg = HealthRegistry::new();
        for name in ["zeta", "alpha", "mid"] {
            reg.transition(
                name,
                Quarantined,
                HealthCause::WalAppendFailed { detail: "x".into() },
            )
            .unwrap();
        }
        let names: Vec<String> = reg.report().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(reg.streams_in(Quarantined), ["alpha", "mid", "zeta"]);
        assert!(reg.streams_in(Suspect).is_empty());
        reg.forget("mid");
        assert_eq!(reg.streams_in(Quarantined), ["alpha", "zeta"]);
    }

    #[test]
    fn staleness_renders_usefully() {
        let s = StreamStaleness {
            stream: "orders".into(),
            state: Quarantined,
            checkpoint_watermark: 12,
            records_behind: 7,
            gross_weight_behind: 9.5,
        };
        let text = s.to_string();
        assert!(text.contains("orders") && text.contains("12") && text.contains("7"));
        assert!(text.contains("9.5"), "{text}");
    }

    #[test]
    fn degraded_streams_lists_quarantined_and_repairing_only() {
        let mut reg = HealthRegistry::new();
        assert!(reg.degraded_streams().is_empty());
        reg.transition("s", Suspect, cause()).unwrap();
        reg.transition("q", Quarantined, cause()).unwrap();
        reg.transition("r", Quarantined, cause()).unwrap();
        reg.transition("r", Repairing, HealthCause::RepairStarted { attempt: 1 })
            .unwrap();
        assert_eq!(reg.degraded_streams(), ["q", "r"]);
    }
}
