//! The one-dimensional cosine-series synopsis (paper §3.2).
//!
//! A [`CosineSynopsis`] maintains the first `m` cosine coefficients of the
//! (relative) frequency function of one stream attribute, under insertions
//! and deletions.
//!
//! # Representation
//!
//! The paper stores the *averaged* coefficients
//! `α_k = (1/N) Σ_i φ_k(t_i)` and updates them with the running-average
//! recurrences Eqs. (3.4)/(3.5). We store the equivalent *unnormalized sums*
//! `S_k = Σ_i φ_k(t_i)` together with the tuple count `N`, so that an
//! insert/delete is a pure fused multiply-add per coefficient (no division),
//! and `α_k = S_k / N` on demand. The two schemes produce identical
//! coefficients — a property test pins this down — but the sum form is both
//! faster and numerically steadier under long update sequences, and it makes
//! join estimation independent of `N` bookkeeping:
//! `Est = N₁N₂/n Σ α_k β_k = (1/n) Σ S_k T_k` (Eq. (4.4)).

use crate::basis::{accumulate_phi, accumulate_phi_block, fill_phi};
use crate::domain::{Domain, Grid};
use crate::error::{DctError, Result};

/// The size of `domain`, or an error naming it when it is wider than
/// `usize::MAX` (only the full `i64` range is).
pub(crate) fn domain_size(domain: &Domain) -> Result<usize> {
    domain.try_size().ok_or_else(|| {
        DctError::InvalidParameter(format!(
            "domain [{}, {}] has more values than a synopsis can index",
            domain.lo(),
            domain.hi()
        ))
    })
}

/// Reject NaN/infinite update weights before they poison every
/// coefficient sum irrecoverably.
pub(crate) fn check_weight(w: f64) -> Result<()> {
    if w.is_finite() {
        Ok(())
    } else {
        Err(DctError::InvalidParameter(format!(
            "update weight must be finite, got {w}"
        )))
    }
}

/// Incrementally maintained truncated cosine series of a single attribute's
/// frequency distribution.
///
/// ```
/// use dctstream_core::{CosineSynopsis, Domain, Grid};
///
/// let domain = Domain::new(0, 99);
/// let mut syn = CosineSynopsis::new(domain, Grid::Midpoint, 16).unwrap();
/// for v in [3, 3, 7, 41, 99] {
///     syn.insert(v).unwrap();
/// }
/// assert_eq!(syn.count(), 5.0);
/// // The DC coefficient of a relative frequency function is always 1.
/// assert!((syn.coefficient(0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CosineSynopsis {
    domain: Domain,
    grid: Grid,
    /// Unnormalized coefficient sums `S_k = Σ_i φ_k(x_i)`.
    sums: Vec<f64>,
    /// Signed tuple count `N` (deletions may be processed before their
    /// inserts in a turnstile stream, so this may transiently be anything).
    count: f64,
    /// Gross update mass `Σ|w|` over every update ever applied. Monotone
    /// non-decreasing, and the sound scale bound for a turnstile stream:
    /// each update moves a coefficient by at most `√2·|w|`, so
    /// `|S_k| ≤ √2·gross` always — whereas the net count `N` can pass
    /// through zero while the coefficients legitimately do not.
    gross: f64,
}

impl CosineSynopsis {
    /// Create a synopsis over `domain` keeping `m` coefficients.
    ///
    /// `m` is clamped to the domain size `n`: coefficients with `k ≥ n` are
    /// redundant on an `n`-point grid and would spend space for nothing.
    /// Returns an error when `m == 0` or when `n` does not fit a `usize`
    /// (the full `i64` range).
    pub fn new(domain: Domain, grid: Grid, m: usize) -> Result<Self> {
        if m == 0 {
            return Err(DctError::InvalidParameter(
                "coefficient count m must be at least 1".into(),
            ));
        }
        let m = m.min(domain_size(&domain)?);
        dctstream_obs::gauge_set!("synopsis.coefficients", &[("kind", "cosine")], m as f64);
        Ok(Self {
            domain,
            grid,
            sums: vec![0.0; m],
            count: 0.0,
            gross: 0.0,
        })
    }

    /// The attribute domain.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The normalization grid.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Number of coefficients kept (`m`), i.e. the synopsis space in the
    /// units used by the paper's experiments.
    #[inline]
    pub fn coefficient_count(&self) -> usize {
        self.sums.len()
    }

    /// Signed number of tuples currently summarized (`N`).
    #[inline]
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Gross update mass `Σ|w|` absorbed over the synopsis lifetime
    /// (monotone; bounds every `|S_k|` by `√2 · gross`).
    #[inline]
    pub fn gross(&self) -> f64 {
        self.gross
    }

    /// Whether no tuples are summarized.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0.0
    }

    /// Unnormalized coefficient sums `S_k = N·α_k`.
    #[inline]
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// The averaged coefficient `α_k = S_k / N` of Eq. (3.2).
    ///
    /// Panics if `k` is out of range; returns 0 for an empty synopsis.
    #[inline]
    pub fn coefficient(&self, k: usize) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.sums[k] / self.count
        }
    }

    /// All averaged coefficients `α_0 … α_{m−1}`.
    pub fn coefficients(&self) -> Vec<f64> {
        (0..self.sums.len()).map(|k| self.coefficient(k)).collect()
    }

    /// Audit the synopsis against its structural invariants.
    ///
    /// A well-formed cosine synopsis summarizes a nonnegative frequency
    /// distribution, which pins three facts checkable without the data:
    ///
    /// 1. every coefficient sum `S_k` and the count `N` are finite;
    /// 2. `S_0 = N` exactly up to accumulation rounding, because
    ///    `φ_0 ≡ 1` (the `α_0`-consistency check);
    /// 3. `|S_k| ≤ √2·N` up to rounding, because `|φ_k| ≤ √2` and the
    ///    summarized frequencies are nonnegative (the `|α_k| ≤ √2` scale
    ///    bound of §3).
    ///
    /// Returns [`DctError::IntegrityViolation`] naming the first failing
    /// field; the caller (e.g. the stream-health scrubber) attaches the
    /// owning stream name.
    pub fn check_invariants(&self) -> Result<()> {
        let violation = |field: String, detail: String| DctError::IntegrityViolation {
            stream: None,
            field,
            artifact: "summary".into(),
            detail,
        };
        if !self.count.is_finite() {
            return Err(violation(
                "count".into(),
                format!("tuple count {} is not finite", self.count),
            ));
        }
        for (k, &s) in self.sums.iter().enumerate() {
            if !s.is_finite() {
                return Err(violation(
                    format!("sums[{k}]"),
                    format!("coefficient sum {s} is not finite"),
                ));
            }
        }
        if !self.gross.is_finite() || self.gross < 0.0 {
            return Err(violation(
                "gross".into(),
                format!(
                    "gross update mass {} is not a finite non-negative value",
                    self.gross
                ),
            ));
        }
        // Rounding slack: each accumulated term contributes O(eps·√2·|w|)
        // worst-case error, so scale tolerance with the gross mass.
        let tol = 1e-9 * self.gross.max(1.0);
        if (self.sums[0] - self.count).abs() > tol {
            return Err(violation(
                "sums[0]".into(),
                format!(
                    "S_0 = {} disagrees with tuple count N = {} (phi_0 = 1 requires S_0 = N)",
                    self.sums[0], self.count
                ),
            ));
        }
        // The net count can never exceed the gross mass it was built from.
        if self.count.abs() > self.gross + tol {
            return Err(violation(
                "count".into(),
                format!(
                    "|N| = {} exceeds the gross update mass {} that produced it",
                    self.count.abs(),
                    self.gross
                ),
            ));
        }
        // Every update moves a coefficient by at most √2·|w|, so the
        // gross mass bounds every coefficient — valid even for turnstile
        // streams whose net count passes through zero.
        let bound = std::f64::consts::SQRT_2 * self.gross + tol;
        for (k, &s) in self.sums.iter().enumerate().skip(1) {
            if s.abs() > bound {
                return Err(violation(
                    format!("sums[{k}]"),
                    format!(
                        "|S_{k}| = {} exceeds the sqrt(2)*gross = {bound} scale bound",
                        s.abs()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Record the arrival of a tuple with attribute value `v` (Eq. (3.4)).
    pub fn insert(&mut self, v: i64) -> Result<()> {
        self.update(v, 1.0)
    }

    /// Record the deletion of a tuple with attribute value `v` (Eq. (3.5)).
    pub fn delete(&mut self, v: i64) -> Result<()> {
        self.update(v, -1.0)
    }

    /// Apply a weighted update: `w` tuples with value `v` arrive at once.
    ///
    /// This is the batch-update scheme of §3.2 ("store the frequencies of
    /// the newly arrived attribute values in a buffer and then update the
    /// coefficients all at once"): the cost is one basis evaluation per
    /// *distinct* value regardless of its multiplicity. Negative `w`
    /// expresses batched deletions.
    pub fn update(&mut self, v: i64, w: f64) -> Result<()> {
        check_weight(w)?;
        let x = self
            .domain
            .normalize(v, self.grid)
            .ok_or(DctError::ValueOutOfDomain {
                value: v,
                domain: self.domain.bounds(),
            })?;
        accumulate_phi(x, w, &mut self.sums);
        self.count += w;
        self.gross += w.abs();
        dctstream_obs::counter_add!("synopsis.updates", &[("kind", "cosine")], 1);
        Ok(())
    }

    /// Insert a batch of raw values.
    ///
    /// Runs through the blocked kernel
    /// ([`accumulate_phi_block`]): one pass over the coefficient array per
    /// 8 values instead of one per value. Validates the whole batch before
    /// touching any state, so a failed call leaves the synopsis unchanged.
    pub fn insert_many<I: IntoIterator<Item = i64>>(&mut self, values: I) -> Result<()> {
        let values = values.into_iter();
        let mut xs = Vec::with_capacity(values.size_hint().0);
        for v in values {
            xs.push(self.normalize_checked(v)?);
        }
        let ws = vec![1.0; xs.len()];
        let _span = dctstream_obs::span!("synopsis.update_batch", &[("kind", "cosine")]);
        accumulate_phi_block(&xs, &ws, &mut self.sums);
        self.count += xs.len() as f64;
        self.gross += xs.len() as f64;
        dctstream_obs::counter_add!("synopsis.updates", &[("kind", "cosine")], xs.len() as u64);
        Ok(())
    }

    /// An empty synopsis with this one's domain, grid, and coefficient
    /// count — the shard template for parallel shard-and-merge ingestion:
    /// workers accumulate into `empty_like()` partials that
    /// [`Self::merge_from`] later combines exactly (coefficient sums are
    /// linear in the data).
    pub fn empty_like(&self) -> Self {
        Self::new(self.domain, self.grid, self.sums.len())
            .expect("parameters were validated when self was built")
    }

    /// Apply a batch of weighted updates at once (the batched form of
    /// [`Self::update`], routed through the blocked kernel).
    ///
    /// Equivalent to `for (v, w) in batch { self.update(v, w)? }` up to
    /// floating-point rounding ≤ ~1e-12 relative (property-tested), at
    /// roughly an eighth of the coefficient-array traffic. Validates every
    /// value and weight *before* applying anything: on error the synopsis
    /// is untouched, unlike the sequential loop which would stop half-way.
    pub fn update_batch(&mut self, batch: &[(i64, f64)]) -> Result<()> {
        let mut xs = Vec::with_capacity(batch.len());
        let mut ws = Vec::with_capacity(batch.len());
        let mut sum_w = 0.0;
        let mut sum_abs = 0.0;
        for &(v, w) in batch {
            check_weight(w)?;
            xs.push(self.normalize_checked(v)?);
            ws.push(w);
            sum_w += w;
            sum_abs += w.abs();
        }
        let _span = dctstream_obs::span!("synopsis.update_batch", &[("kind", "cosine")]);
        accumulate_phi_block(&xs, &ws, &mut self.sums);
        self.count += sum_w;
        self.gross += sum_abs;
        dctstream_obs::counter_add!(
            "synopsis.updates",
            &[("kind", "cosine")],
            batch.len() as u64
        );
        Ok(())
    }

    /// Normalize `v` onto the grid, mapping out-of-domain values to the
    /// standard error.
    #[inline]
    fn normalize_checked(&self, v: i64) -> Result<f64> {
        self.domain
            .normalize(v, self.grid)
            .ok_or(DctError::ValueOutOfDomain {
                value: v,
                domain: self.domain.bounds(),
            })
    }

    /// Insert an already-normalized value `x ∈ [0, 1]` (continuous
    /// attributes, as in the paper's §3.2 running example).
    pub fn insert_normalized(&mut self, x: f64) -> Result<()> {
        self.update_normalized(x, 1.0)
    }

    /// Weighted update of an already-normalized value `x ∈ [0, 1]`.
    pub fn update_normalized(&mut self, x: f64, w: f64) -> Result<()> {
        check_weight(w)?;
        if !(0.0..=1.0).contains(&x) {
            return Err(DctError::InvalidParameter(format!(
                "normalized value {x} outside [0, 1]"
            )));
        }
        accumulate_phi(x, w, &mut self.sums);
        self.count += w;
        self.gross += w.abs();
        Ok(())
    }

    /// Build a synopsis in one pass from a frequency table indexed by the
    /// domain's zero-based value index (`freqs[i]` = multiplicity of the
    /// `i`-th domain value). Equivalent to the corresponding sequence of
    /// inserts — verified by tests — but `O(n·m)` instead of `O(N·m)`.
    pub fn from_frequencies(domain: Domain, grid: Grid, m: usize, freqs: &[u64]) -> Result<Self> {
        if freqs.len() != domain.size() {
            return Err(DctError::InvalidParameter(format!(
                "frequency table length {} != domain size {}",
                freqs.len(),
                domain.size()
            )));
        }
        let mut syn = Self::new(domain, grid, m)?;
        let n = domain.size();
        let mut xs = Vec::new();
        let mut ws = Vec::new();
        for (i, &f) in freqs.iter().enumerate() {
            if f == 0 {
                continue;
            }
            xs.push(grid.position(i, n));
            ws.push(f as f64);
            syn.count += f as f64;
            syn.gross += f as f64;
        }
        accumulate_phi_block(&xs, &ws, &mut syn.sums);
        Ok(syn)
    }

    /// Estimated *relative* frequency of raw value `v`:
    /// `f̂(x_v) = (1/n) Σ_k α_k φ_k(x_v)`.
    ///
    /// May be slightly negative due to truncation; callers that need a count
    /// should clamp (see [`Self::estimated_count`]).
    pub fn frequency_at(&self, v: i64) -> Result<f64> {
        let x = self
            .domain
            .normalize(v, self.grid)
            .ok_or(DctError::ValueOutOfDomain {
                value: v,
                domain: self.domain.bounds(),
            })?;
        if self.count == 0.0 {
            return Err(DctError::EmptySynopsis);
        }
        let n = self.domain.size() as f64;
        let mut buf = vec![0.0; self.sums.len()];
        fill_phi(x, &mut buf);
        let s: f64 = self.sums.iter().zip(&buf).map(|(sk, pk)| sk * pk).sum();
        Ok(s / (self.count * n))
    }

    /// Estimated number of tuples with value `v` (point-query estimate,
    /// clamped at zero).
    pub fn estimated_count(&self, v: i64) -> Result<f64> {
        Ok((self.frequency_at(v)? * self.count).max(0.0))
    }

    /// Self-join size estimate `N²/n Σ_k α_k²` (= `(1/n) Σ_k S_k²`),
    /// optionally restricted to the first `budget` coefficients.
    pub fn self_join(&self, budget: Option<usize>) -> f64 {
        let m = budget.unwrap_or(self.sums.len()).min(self.sums.len());
        self.sums[..m].iter().map(|s| s * s).sum::<f64>() / self.domain.size() as f64
    }

    /// Merge another synopsis of the *same* domain, grid and coefficient
    /// count into this one (union of the two summarized streams).
    ///
    /// Coefficient sums are linear in the data, so merging is exact — handy
    /// for distributed stream ingestion.
    pub fn merge_from(&mut self, other: &CosineSynopsis) -> Result<()> {
        if self.domain != other.domain {
            return Err(DctError::DomainMismatch {
                left: self.domain.bounds(),
                right: other.domain.bounds(),
            });
        }
        if self.grid != other.grid {
            return Err(DctError::GridMismatch);
        }
        if self.sums.len() != other.sums.len() {
            return Err(DctError::InvalidParameter(format!(
                "coefficient counts differ: {} vs {}",
                self.sums.len(),
                other.sums.len()
            )));
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.count += other.count;
        self.gross += other.gross;
        Ok(())
    }

    /// Reconstruct the full estimated relative-frequency vector over the
    /// domain (mostly for diagnostics and tests).
    pub fn reconstruct(&self) -> Result<Vec<f64>> {
        if self.count == 0.0 {
            return Err(DctError::EmptySynopsis);
        }
        let n = self.domain.size();
        let mut out = Vec::with_capacity(n);
        let mut buf = vec![0.0; self.sums.len()];
        for i in 0..n {
            let x = self.grid.position(i, n);
            fill_phi(x, &mut buf);
            let s: f64 = self.sums.iter().zip(&buf).map(|(a, b)| a * b).sum();
            out.push(s / (self.count * n as f64));
        }
        Ok(out)
    }

    /// Overwrite internal state from raw coefficient sums — crate-internal
    /// helper for marginal extraction from multi-dimensional synopses.
    pub(crate) fn load_raw(&mut self, sums: Vec<f64>, count: f64, gross: f64) {
        debug_assert_eq!(sums.len(), self.sums.len());
        self.sums = sums;
        self.count = count;
        self.gross = gross;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syn(n: usize, m: usize) -> CosineSynopsis {
        CosineSynopsis::new(Domain::of_size(n), Grid::Midpoint, m).unwrap()
    }

    #[test]
    fn overwide_domains_are_errors_and_wide_ones_stay_finite() {
        let full = Domain::new(i64::MIN, i64::MAX);
        let err = CosineSynopsis::new(full, Grid::Midpoint, 8).unwrap_err();
        assert!(matches!(err, DctError::InvalidParameter(_)), "{err:?}");
        let err = crate::MultiDimSynopsis::new(vec![Domain::of_size(4), full], Grid::Midpoint, 3)
            .unwrap_err();
        assert!(matches!(err, DctError::InvalidParameter(_)), "{err:?}");

        // 2^63 values: the widest domain whose `2 * n` used to wrap.
        let mut s = CosineSynopsis::new(Domain::new(0, i64::MAX), Grid::Midpoint, 8).unwrap();
        s.update_batch(&[(0, 1.0), (7, 2.0), (i64::MAX, 1.0)])
            .unwrap();
        assert!(s.sums().iter().all(|x| x.is_finite()), "{:?}", s.sums());
        s.check_invariants().unwrap();
    }

    #[test]
    fn invariant_audit_accepts_live_synopses_and_names_damaged_fields() {
        let mut s = syn(16, 6);
        s.check_invariants().unwrap();
        for v in 0..16 {
            s.insert(v).unwrap();
        }
        s.check_invariants().unwrap();

        // A non-finite coefficient is caught and named.
        let mut bad = s.clone();
        bad.sums[3] = f64::NAN;
        match bad.check_invariants().unwrap_err() {
            DctError::IntegrityViolation {
                field, artifact, ..
            } => {
                assert_eq!(field, "sums[3]");
                assert_eq!(artifact, "summary");
            }
            other => panic!("unexpected error: {other:?}"),
        }

        // S_0 drifting away from N is caught.
        let mut bad = s.clone();
        bad.sums[0] += 1.0;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums[0]"
        ));

        // A coefficient past the sqrt(2)*N scale bound is caught.
        let mut bad = s.clone();
        bad.sums[2] = 100.0 * bad.count;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums[2]"
        ));
    }

    #[test]
    fn zero_coefficients_rejected() {
        assert!(CosineSynopsis::new(Domain::of_size(4), Grid::Midpoint, 0).is_err());
    }

    #[test]
    fn m_is_clamped_to_domain_size() {
        let s = syn(8, 100);
        assert_eq!(s.coefficient_count(), 8);
    }

    #[test]
    fn dc_coefficient_is_one() {
        let mut s = syn(50, 10);
        for v in [0, 1, 2, 49, 25, 25] {
            s.insert(v).unwrap();
        }
        assert!((s.coefficient(0) - 1.0).abs() < 1e-12);
        assert_eq!(s.count(), 6.0);
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut s = syn(10, 4);
        let err = s.insert(10).unwrap_err();
        assert!(matches!(err, DctError::ValueOutOfDomain { value: 10, .. }));
        assert_eq!(s.count(), 0.0);
    }

    #[test]
    fn insert_then_delete_restores_state() {
        let mut s = syn(32, 16);
        for v in [1, 5, 9, 30] {
            s.insert(v).unwrap();
        }
        let before = s.sums().to_vec();
        s.insert(17).unwrap();
        s.delete(17).unwrap();
        for (a, b) in s.sums().iter().zip(&before) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(s.count(), 4.0);
    }

    #[test]
    fn weighted_update_equals_repeated_inserts() {
        let mut a = syn(20, 8);
        let mut b = syn(20, 8);
        a.update(7, 5.0).unwrap();
        for _ in 0..5 {
            b.insert(7).unwrap();
        }
        for (x, y) in a.sums().iter().zip(b.sums()) {
            assert!((x - y).abs() < 1e-9);
        }
        assert_eq!(a.count(), b.count());
    }

    /// The stored-sums scheme equals the paper's running-average updates
    /// (Eq. (3.4)): α_k^{new} = N/(N+1) α_k + 1/(N+1) φ_k(x).
    #[test]
    fn matches_running_average_recurrence() {
        let n = 64;
        let m = 12;
        let d = Domain::of_size(n);
        let values = [3i64, 60, 60, 12, 33, 7, 41, 0, 63, 2];
        let mut s = syn(n, m);
        let mut avg = vec![0.0f64; m];
        let mut count = 0.0f64;
        for &v in &values {
            s.insert(v).unwrap();
            let x = d.normalize(v, Grid::Midpoint).unwrap();
            let mut buf = vec![0.0; m];
            fill_phi(x, &mut buf);
            for (a, p) in avg.iter_mut().zip(&buf) {
                *a = count / (count + 1.0) * *a + p / (count + 1.0);
            }
            count += 1.0;
        }
        for (k, &a) in avg.iter().enumerate() {
            assert!(
                (s.coefficient(k) - a).abs() < 1e-10,
                "k={k}: {} vs {}",
                s.coefficient(k),
                a
            );
        }
    }

    #[test]
    fn from_frequencies_equals_streaming_inserts() {
        let n = 16;
        let freqs: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 1) % 11).collect();
        let d = Domain::of_size(n);
        let batch = CosineSynopsis::from_frequencies(d, Grid::Midpoint, n, &freqs).unwrap();
        let mut streamed = syn(n, n);
        for (i, &f) in freqs.iter().enumerate() {
            for _ in 0..f {
                streamed.insert(i as i64).unwrap();
            }
        }
        assert_eq!(batch.count(), streamed.count());
        for (a, b) in batch.sums().iter().zip(streamed.sums()) {
            assert!((a - b).abs() < 1e-7);
        }
    }

    #[test]
    fn from_frequencies_validates_length() {
        let d = Domain::of_size(4);
        assert!(CosineSynopsis::from_frequencies(d, Grid::Midpoint, 4, &[1, 2]).is_err());
    }

    /// With all n coefficients on the midpoint grid the reconstruction is
    /// exact (discrete orthogonality).
    #[test]
    fn full_reconstruction_is_exact() {
        let n = 24;
        let freqs: Vec<u64> = (0..n as u64).map(|i| (i * i) % 13).collect();
        let total: u64 = freqs.iter().sum();
        let s = CosineSynopsis::from_frequencies(Domain::of_size(n), Grid::Midpoint, n, &freqs)
            .unwrap();
        let rec = s.reconstruct().unwrap();
        for (i, (&f, r)) in freqs.iter().zip(&rec).enumerate() {
            let exact = f as f64 / total as f64;
            assert!(
                (r - exact).abs() < 1e-9,
                "value {i}: reconstructed {r}, exact {exact}"
            );
        }
    }

    #[test]
    fn estimated_count_tracks_point_frequency() {
        let n = 100;
        let mut freqs = vec![0u64; n];
        freqs[10] = 500;
        freqs[11] = 300;
        freqs[90] = 200;
        let s = CosineSynopsis::from_frequencies(Domain::of_size(n), Grid::Midpoint, n, &freqs)
            .unwrap();
        assert!((s.estimated_count(10).unwrap() - 500.0).abs() < 1e-6);
        assert!((s.estimated_count(50).unwrap() - 0.0).abs() < 1e-6);
    }

    #[test]
    fn self_join_exact_with_full_coefficients() {
        let n = 32;
        let freqs: Vec<u64> = (0..n as u64).map(|i| i % 5).collect();
        let exact: u64 = freqs.iter().map(|f| f * f).sum();
        let s = CosineSynopsis::from_frequencies(Domain::of_size(n), Grid::Midpoint, n, &freqs)
            .unwrap();
        assert!((s.self_join(None) - exact as f64).abs() < 1e-6);
    }

    /// Paper §4.3.1 best case: a uniform distribution needs only the DC
    /// coefficient for an exact self-join estimate.
    #[test]
    fn uniform_distribution_needs_one_coefficient() {
        let n = 64;
        let freqs = vec![10u64; n];
        let s = CosineSynopsis::from_frequencies(Domain::of_size(n), Grid::Midpoint, n, &freqs)
            .unwrap();
        // All non-DC coefficients vanish (Eq. 4.10).
        for k in 1..n {
            assert!(
                s.coefficient(k).abs() < 1e-9,
                "α_{k} = {}",
                s.coefficient(k)
            );
        }
        let exact = (10.0 * 10.0) * n as f64;
        assert!((s.self_join(Some(1)) - exact).abs() < 1e-6);
    }

    #[test]
    fn merge_equals_union() {
        let n = 16;
        let mut a = syn(n, 8);
        let mut b = syn(n, 8);
        a.insert_many([1, 2, 3]).unwrap();
        b.insert_many([3, 4, 5, 5]).unwrap();
        let mut merged = a.clone();
        merged.merge_from(&b).unwrap();
        let mut union = syn(n, 8);
        union.insert_many([1, 2, 3, 3, 4, 5, 5]).unwrap();
        assert_eq!(merged.count(), union.count());
        for (x, y) in merged.sums().iter().zip(union.sums()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_rejects_mismatches() {
        let a = syn(16, 8);
        let mut b = syn(16, 8);
        let c = CosineSynopsis::new(Domain::of_size(32), Grid::Midpoint, 8).unwrap();
        assert!(b.merge_from(&c).is_err());
        let e = CosineSynopsis::new(Domain::of_size(16), Grid::Endpoint, 8).unwrap();
        assert!(b.merge_from(&e).is_err());
        let f = syn(16, 4);
        assert!(b.merge_from(&f).is_err());
        assert!(b.merge_from(&a).is_ok());
    }

    #[test]
    fn normalized_inserts_validate_range() {
        let mut s = syn(10, 4);
        assert!(s.insert_normalized(0.5).is_ok());
        assert!(s.insert_normalized(1.5).is_err());
        assert!(s.insert_normalized(-0.1).is_err());
    }

    /// The paper's §3.2 worked example: stream {0.33, 0.32, 0.12, 0.66,
    /// 0.90, 0.80} gives a₁ ≈ −0.063, a₂ ≈ 0.0951.
    #[test]
    fn paper_worked_example() {
        let mut s = syn(1000, 3); // domain irrelevant for normalized inserts
        for x in [0.33, 0.32, 0.12, 0.66, 0.90, 0.80] {
            s.insert_normalized(x).unwrap();
        }
        assert!((s.coefficient(0) - 1.0).abs() < 1e-12);
        assert!(
            (s.coefficient(1) - (-0.063)).abs() < 5e-4,
            "a1 = {}",
            s.coefficient(1)
        );
        assert!(
            (s.coefficient(2) - 0.0951).abs() < 5e-4,
            "a2 = {}",
            s.coefficient(2)
        );
    }

    #[test]
    fn non_finite_weights_rejected() {
        let mut s = syn(10, 4);
        assert!(s.update(3, f64::NAN).is_err());
        assert!(s.update(3, f64::INFINITY).is_err());
        assert!(s.update_normalized(0.5, f64::NEG_INFINITY).is_err());
        assert_eq!(s.count(), 0.0);
        for v in s.sums() {
            assert_eq!(*v, 0.0);
        }
    }

    #[test]
    fn empty_synopsis_estimates_error() {
        let s = syn(10, 4);
        assert!(matches!(s.frequency_at(3), Err(DctError::EmptySynopsis)));
        assert!(matches!(s.reconstruct(), Err(DctError::EmptySynopsis)));
    }
}
