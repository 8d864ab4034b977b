//! Multi-dimensional cosine synopses (paper §3.2, Eq. (3.3)) with
//! triangular coefficient truncation.
//!
//! A `d`-attribute relation is summarized by the coefficients
//! `a_{k₁…k_d} = (1/N) Σ_i Π_j φ_{k_j}(t_{ij})` for all index tuples with
//! `k₁ + … + k_d ≤ m − 1` (triangular sampling). As in the 1-d case we store
//! the unnormalized sums `S_{k₁…k_d} = N · a_{k₁…k_d}` in a flat vector
//! aligned with the canonical graded-lex enumeration of
//! [`crate::triangular::TriangularIndex`].

use crate::basis::fill_phi;
use crate::domain::{Domain, Grid};
use crate::error::{DctError, Result};
use crate::synopsis::{domain_size, CosineSynopsis};
use crate::triangular::TriangularIndex;

/// Incrementally maintained triangular-truncated cosine series of a
/// multi-attribute frequency distribution.
///
/// ```
/// use dctstream_core::{Domain, Grid, MultiDimSynopsis};
///
/// let domains = vec![Domain::new(0, 1023), Domain::new(0, 1023)];
/// let mut syn = MultiDimSynopsis::new(domains, Grid::Midpoint, 20).unwrap();
/// syn.insert(&[17, 512]).unwrap();
/// syn.insert(&[17, 513]).unwrap();
/// assert_eq!(syn.count(), 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiDimSynopsis {
    domains: Vec<Domain>,
    grid: Grid,
    index: TriangularIndex,
    /// Flat coefficient sums aligned with `index`.
    sums: Vec<f64>,
    count: f64,
    /// Gross update mass `Σ|w|` (monotone; see
    /// [`crate::CosineSynopsis`]'s field of the same name).
    gross: f64,
    /// Scratch: per-dimension basis vectors, `d × m` values.
    phi_buf: Vec<f64>,
}

impl MultiDimSynopsis {
    /// Create a synopsis of degree `m` over the given per-attribute domains.
    ///
    /// Stores `C(m + d − 1, d)` coefficients. `m` is clamped to the largest
    /// per-dimension domain size (higher frequencies are redundant).
    pub fn new(domains: Vec<Domain>, grid: Grid, m: usize) -> Result<Self> {
        if domains.is_empty() {
            return Err(DctError::InvalidParameter(
                "at least one attribute domain is required".into(),
            ));
        }
        let mut max_n = 0;
        for d in &domains {
            max_n = max_n.max(domain_size(d)?);
        }
        let m = m.min(max_n);
        let index = TriangularIndex::new(m, domains.len())?;
        let len = index.len();
        let d = domains.len();
        Ok(Self {
            domains,
            grid,
            index,
            sums: vec![0.0; len],
            count: 0.0,
            gross: 0.0,
            phi_buf: vec![0.0; d * m],
        })
    }

    /// Per-attribute domains.
    #[inline]
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Normalization grid.
    #[inline]
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Arity `d`.
    #[inline]
    pub fn arity(&self) -> usize {
        self.domains.len()
    }

    /// Degree bound `m`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.index.degree()
    }

    /// Number of coefficients stored (the synopsis space in paper units).
    #[inline]
    pub fn coefficient_count(&self) -> usize {
        self.sums.len()
    }

    /// Signed tuple count `N`.
    #[inline]
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Gross update mass `Σ|w|` absorbed over the synopsis lifetime
    /// (monotone; bounds every coefficient by `(√2)^d · gross`).
    #[inline]
    pub fn gross(&self) -> f64 {
        self.gross
    }

    /// Unnormalized coefficient sums in graded-lex order.
    #[inline]
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// The index enumeration the sums are aligned with.
    #[inline]
    pub fn indices(&self) -> &TriangularIndex {
        &self.index
    }

    /// Averaged coefficient at `rank` (graded-lex order), `a = S / N`.
    #[inline]
    pub fn coefficient(&self, rank: usize) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.sums[rank] / self.count
        }
    }

    /// Audit the synopsis against its structural invariants.
    ///
    /// Checks, in order: the flat sum vector is exactly as long as the
    /// triangular enumeration says it must be (`C(m+d−1, d)` entries —
    /// the triangular-index sanity check); the count and every sum are
    /// finite; the rank-0 sum equals `N` (every `φ_0 ≡ 1`, so
    /// `S_{0…0} = N`); and every sum respects the `(√2)^d·N` scale bound
    /// implied by `|φ_k| ≤ √2` per dimension over a nonnegative frequency
    /// distribution. Returns [`DctError::IntegrityViolation`] naming the
    /// first failing field.
    pub fn check_invariants(&self) -> Result<()> {
        let violation = |field: String, detail: String| DctError::IntegrityViolation {
            stream: None,
            field,
            artifact: "summary".into(),
            detail,
        };
        if self.sums.len() != self.index.len() {
            return Err(violation(
                "sums.len".into(),
                format!(
                    "{} coefficient sums stored but triangular index (m = {}, d = {}) \
                     enumerates {}",
                    self.sums.len(),
                    self.index.degree(),
                    self.index.arity(),
                    self.index.len()
                ),
            ));
        }
        if !self.count.is_finite() {
            return Err(violation(
                "count".into(),
                format!("tuple count {} is not finite", self.count),
            ));
        }
        for (rank, &s) in self.sums.iter().enumerate() {
            if !s.is_finite() {
                return Err(violation(
                    format!("sums[{rank}]"),
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
        let tol = 1e-9 * self.gross.max(1.0);
        if (self.sums[0] - self.count).abs() > tol {
            return Err(violation(
                "sums[0]".into(),
                format!(
                    "rank-0 sum {} disagrees with tuple count N = {} \
                     (all phi_0 = 1 requires S_0...0 = N)",
                    self.sums[0], self.count
                ),
            ));
        }
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
        // Each update moves a coefficient by at most (√2)^d · |w|, so the
        // gross mass bounds every coefficient even when the net count
        // passes through zero (turnstile streams).
        let bound = std::f64::consts::SQRT_2.powi(self.arity() as i32) * self.gross + tol;
        for (rank, &s) in self.sums.iter().enumerate().skip(1) {
            if s.abs() > bound {
                return Err(violation(
                    format!("sums[{rank}]"),
                    format!(
                        "|S| = {} exceeds the sqrt(2)^d * gross = {bound} scale bound",
                        s.abs()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Record the arrival of `tuple` (Eq. (3.4) generalized).
    pub fn insert(&mut self, tuple: &[i64]) -> Result<()> {
        self.update(tuple, 1.0)
    }

    /// Record the deletion of `tuple` (Eq. (3.5) generalized).
    pub fn delete(&mut self, tuple: &[i64]) -> Result<()> {
        self.update(tuple, -1.0)
    }

    /// Apply a weighted update (`w` copies of `tuple` at once; negative `w`
    /// deletes). Cost: `d` basis evaluations plus one fused multiply-add per
    /// stored coefficient.
    pub fn update(&mut self, tuple: &[i64], w: f64) -> Result<()> {
        crate::synopsis::check_weight(w)?;
        let d = self.domains.len();
        if tuple.len() != d {
            return Err(DctError::ArityMismatch {
                expected: d,
                got: tuple.len(),
            });
        }
        let m = self.index.degree();
        // Fill per-dimension basis vectors φ_k(x_j), k = 0..m.
        for (j, (&v, dom)) in tuple.iter().zip(&self.domains).enumerate() {
            let x = dom
                .normalize(v, self.grid)
                .ok_or(DctError::ValueOutOfDomain {
                    value: v,
                    domain: dom.bounds(),
                })?;
            fill_phi(x, &mut self.phi_buf[j * m..(j + 1) * m]);
        }
        // Accumulate Π_j φ_{k_j}(x_j) for every stored index tuple.
        for (rank, idx) in self.index.iter() {
            let mut prod = w;
            for (j, &k) in idx.iter().enumerate() {
                prod *= self.phi_buf[j * m + k as usize];
            }
            self.sums[rank] += prod;
        }
        self.count += w;
        self.gross += w.abs();
        dctstream_obs::counter_add!("synopsis.updates", &[("kind", "multi")], 1);
        Ok(())
    }

    /// An empty synopsis with this one's domains, grid, and degree — the
    /// shard template for parallel shard-and-merge ingestion (see
    /// [`Self::merge_from`]).
    pub fn empty_like(&self) -> Self {
        Self::new(self.domains.clone(), self.grid, self.index.degree())
            .expect("parameters were validated when self was built")
    }

    /// Apply a batch of weighted tuple updates.
    ///
    /// Validates every tuple and weight before applying anything, so a
    /// failed call leaves the synopsis unchanged — matching the atomic
    /// batch semantics of [`crate::CosineSynopsis::update_batch`].
    pub fn update_batch(&mut self, batch: &[(&[i64], f64)]) -> Result<()> {
        let d = self.domains.len();
        for &(tuple, w) in batch {
            crate::synopsis::check_weight(w)?;
            if tuple.len() != d {
                return Err(DctError::ArityMismatch {
                    expected: d,
                    got: tuple.len(),
                });
            }
            for (&v, dom) in tuple.iter().zip(&self.domains) {
                if dom.normalize(v, self.grid).is_none() {
                    return Err(DctError::ValueOutOfDomain {
                        value: v,
                        domain: dom.bounds(),
                    });
                }
            }
        }
        for &(tuple, w) in batch {
            self.update(tuple, w)
                .expect("batch was validated before applying");
        }
        Ok(())
    }

    /// Build from a sparse frequency table `(tuple, multiplicity)`.
    /// Equivalent to streaming inserts but `O(nnz)` basis work.
    pub fn from_sparse_frequencies<'a, I>(
        domains: Vec<Domain>,
        grid: Grid,
        m: usize,
        entries: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a [i64], u64)>,
    {
        let mut syn = Self::new(domains, grid, m)?;
        for (tuple, f) in entries {
            if f > 0 {
                syn.update(tuple, f as f64)?;
            }
        }
        Ok(syn)
    }

    /// Merge another synopsis of identical shape (domains, grid, degree)
    /// into this one — the union of the two summarized streams.
    /// Coefficient sums are linear in the data, so merging is exact
    /// (distributed ingestion of one logical stream).
    pub fn merge_from(&mut self, other: &MultiDimSynopsis) -> Result<()> {
        if self.domains != other.domains {
            return Err(DctError::InvalidParameter(
                "cannot merge synopses over different attribute domains".into(),
            ));
        }
        if self.grid != other.grid {
            return Err(DctError::GridMismatch);
        }
        if self.index.degree() != other.index.degree() {
            return Err(DctError::InvalidParameter(format!(
                "degrees differ: {} vs {}",
                self.index.degree(),
                other.index.degree()
            )));
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.count += other.count;
        self.gross += other.gross;
        Ok(())
    }

    /// Extract the 1-d marginal synopsis of attribute `dim`.
    ///
    /// Since `φ_0 ≡ 1`, the marginal's coefficients are exactly the stored
    /// coefficients whose index is zero in every other dimension — no
    /// information is lost by marginalizing a synopsis instead of the data.
    pub fn marginal(&self, dim: usize) -> Result<CosineSynopsis> {
        if dim >= self.domains.len() {
            return Err(DctError::InvalidParameter(format!(
                "dimension {dim} out of range for arity {}",
                self.domains.len()
            )));
        }
        let m = self.index.degree();
        let mut out = CosineSynopsis::new(self.domains[dim], self.grid, m)?;
        let mut sums = vec![0.0; out.coefficient_count()];
        for (rank, idx) in self.index.iter() {
            let only_dim = idx.iter().enumerate().all(|(j, &k)| j == dim || k == 0);
            if only_dim {
                let k = idx[dim] as usize;
                if k < sums.len() {
                    sums[k] = self.sums[rank];
                }
            }
        }
        out.load_raw(sums, self.count, self.gross);
        Ok(out)
    }

    /// Overwrite internal state from raw coefficient sums — crate-internal
    /// helper for deserialization.
    pub(crate) fn load_raw(&mut self, sums: Vec<f64>, count: f64, gross: f64) {
        debug_assert_eq!(sums.len(), self.sums.len());
        self.sums = sums;
        self.count = count;
        self.gross = gross;
    }

    /// Estimated relative frequency at a raw tuple:
    /// `f̂ = (1/Π n_j) Σ S_idx Π φ / N`.
    pub fn frequency_at(&self, tuple: &[i64]) -> Result<f64> {
        let d = self.domains.len();
        if tuple.len() != d {
            return Err(DctError::ArityMismatch {
                expected: d,
                got: tuple.len(),
            });
        }
        if self.count == 0.0 {
            return Err(DctError::EmptySynopsis);
        }
        let m = self.index.degree();
        let mut phi_buf = vec![0.0; d * m];
        for (j, (&v, dom)) in tuple.iter().zip(&self.domains).enumerate() {
            let x = dom
                .normalize(v, self.grid)
                .ok_or(DctError::ValueOutOfDomain {
                    value: v,
                    domain: dom.bounds(),
                })?;
            fill_phi(x, &mut phi_buf[j * m..(j + 1) * m]);
        }
        let mut acc = 0.0;
        for (rank, idx) in self.index.iter() {
            let mut prod = self.sums[rank];
            for (j, &k) in idx.iter().enumerate() {
                prod *= phi_buf[j * m + k as usize];
            }
            acc += prod;
        }
        let vol: f64 = self.domains.iter().map(|d| d.size() as f64).product();
        Ok(acc / (self.count * vol))
    }

    /// Estimated number of tuples equal to `tuple` (clamped at zero).
    pub fn estimated_count(&self, tuple: &[i64]) -> Result<f64> {
        Ok((self.frequency_at(tuple)? * self.count).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom(n: usize) -> Domain {
        Domain::of_size(n)
    }

    #[test]
    fn invariant_audit_accepts_live_state_and_flags_damage() {
        let mut s = MultiDimSynopsis::new(vec![dom(8), dom(8)], Grid::Midpoint, 4).unwrap();
        s.check_invariants().unwrap();
        for v in 0..8 {
            s.insert(&[v, 7 - v]).unwrap();
        }
        s.check_invariants().unwrap();

        let mut bad = s.clone();
        bad.sums[5] = f64::INFINITY;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums[5]"
        ));

        let mut bad = s.clone();
        bad.sums[0] -= 2.0;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums[0]"
        ));

        let mut bad = s.clone();
        bad.sums.push(0.0);
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums.len"
        ));

        let mut bad = s;
        bad.sums[4] = 1e6;
        assert!(matches!(
            bad.check_invariants(),
            Err(DctError::IntegrityViolation { field, .. }) if field == "sums[4]"
        ));
    }

    #[test]
    fn arity_and_count_validation() {
        assert!(MultiDimSynopsis::new(vec![], Grid::Midpoint, 4).is_err());
        let mut s = MultiDimSynopsis::new(vec![dom(8), dom(8)], Grid::Midpoint, 4).unwrap();
        assert_eq!(s.coefficient_count(), 10); // C(5,2)
        assert!(matches!(
            s.insert(&[1, 2, 3]),
            Err(DctError::ArityMismatch {
                expected: 2,
                got: 3
            })
        ));
        assert!(matches!(
            s.insert(&[1, 8]),
            Err(DctError::ValueOutOfDomain { value: 8, .. })
        ));
    }

    #[test]
    fn dc_coefficient_is_one() {
        let mut s = MultiDimSynopsis::new(vec![dom(16), dom(16)], Grid::Midpoint, 5).unwrap();
        for t in [[0, 0], [3, 9], [15, 15], [3, 9]] {
            s.insert(&t).unwrap();
        }
        assert!((s.coefficient(0) - 1.0).abs() < 1e-12);
        assert_eq!(s.count(), 4.0);
    }

    #[test]
    fn insert_delete_roundtrip() {
        let mut s =
            MultiDimSynopsis::new(vec![dom(10), dom(10), dom(10)], Grid::Midpoint, 4).unwrap();
        s.insert(&[1, 2, 3]).unwrap();
        let before = s.sums().to_vec();
        s.insert(&[9, 0, 4]).unwrap();
        s.delete(&[9, 0, 4]).unwrap();
        for (a, b) in s.sums().iter().zip(&before) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    /// The d-dim coefficient with index (k, 0, …, 0) equals the 1-d
    /// coefficient of the first attribute — the marginalization identity.
    #[test]
    fn marginal_matches_direct_one_dim_synopsis() {
        let m = 6;
        let mut md = MultiDimSynopsis::new(vec![dom(12), dom(20)], Grid::Midpoint, m).unwrap();
        let mut direct0 = CosineSynopsis::new(dom(12), Grid::Midpoint, m).unwrap();
        let mut direct1 = CosineSynopsis::new(dom(20), Grid::Midpoint, m).unwrap();
        let tuples = [[0i64, 0], [5, 19], [11, 7], [5, 7], [3, 3]];
        for t in &tuples {
            md.insert(t).unwrap();
            direct0.insert(t[0]).unwrap();
            direct1.insert(t[1]).unwrap();
        }
        let m0 = md.marginal(0).unwrap();
        let m1 = md.marginal(1).unwrap();
        for k in 0..m {
            assert!((m0.coefficient(k) - direct0.coefficient(k)).abs() < 1e-10);
            assert!((m1.coefficient(k) - direct1.coefficient(k)).abs() < 1e-10);
        }
        assert_eq!(m0.count(), 5.0);
        assert!(md.marginal(2).is_err());
    }

    /// Full-degree 2-d synopsis reconstructs the joint frequency exactly on
    /// the midpoint grid... only if the full hypercube of coefficients were
    /// kept. With triangular truncation at m = n the reconstruction is still
    /// exact for *separable* (product) distributions along each axis slice
    /// it can represent; here we verify exactness for a small full-degree
    /// case where total degree ≤ m−1 covers the whole hypercube (m = 2n−1).
    #[test]
    fn full_degree_reconstruction_small() {
        let n = 4;
        let domains = vec![dom(n), dom(n)];
        // m = 2n−1 clamps to n (max domain size)... so build a case where
        // the distribution's spectrum lives inside the triangle: a uniform
        // marginal in dim 1.
        let mut s = MultiDimSynopsis::new(domains, Grid::Midpoint, n).unwrap();
        let mut exact = std::collections::HashMap::new();
        // f(a, b) = g(a) uniform in b: spectrum nonzero only at (k, 0).
        for a in 0..n as i64 {
            for b in 0..n as i64 {
                let w = (a + 1) as u64;
                s.update(&[a, b], w as f64).unwrap();
                *exact.entry((a, b)).or_insert(0u64) += w;
            }
        }
        let total: u64 = exact.values().sum();
        for ((a, b), f) in exact {
            let est = s.frequency_at(&[a, b]).unwrap();
            let truth = f as f64 / total as f64;
            assert!(
                (est - truth).abs() < 1e-9,
                "({a},{b}): est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn sparse_construction_equals_streaming() {
        let domains = vec![dom(8), dom(8)];
        let entries: Vec<(Vec<i64>, u64)> = vec![(vec![0, 1], 3), (vec![7, 7], 2), (vec![4, 2], 5)];
        let sparse = MultiDimSynopsis::from_sparse_frequencies(
            domains.clone(),
            Grid::Midpoint,
            5,
            entries.iter().map(|(t, f)| (t.as_slice(), *f)),
        )
        .unwrap();
        let mut streamed = MultiDimSynopsis::new(domains, Grid::Midpoint, 5).unwrap();
        for (t, f) in &entries {
            for _ in 0..*f {
                streamed.insert(t).unwrap();
            }
        }
        assert_eq!(sparse.count(), streamed.count());
        for (a, b) in sparse.sums().iter().zip(streamed.sums()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn estimated_count_clamps_negative() {
        let mut s = MultiDimSynopsis::new(vec![dom(32), dom(32)], Grid::Midpoint, 3).unwrap();
        s.update(&[0, 0], 100.0).unwrap();
        // Some far-away cell may reconstruct slightly negative with 6 coeffs.
        let c = s.estimated_count(&[31, 31]).unwrap();
        assert!(c >= 0.0);
    }

    #[test]
    fn merge_equals_union() {
        let domains = vec![dom(8), dom(8)];
        let mut a = MultiDimSynopsis::new(domains.clone(), Grid::Midpoint, 4).unwrap();
        let mut b = MultiDimSynopsis::new(domains.clone(), Grid::Midpoint, 4).unwrap();
        let mut union = MultiDimSynopsis::new(domains, Grid::Midpoint, 4).unwrap();
        for t in [[0i64, 1], [3, 3]] {
            a.insert(&t).unwrap();
            union.insert(&t).unwrap();
        }
        for t in [[7i64, 7], [3, 3], [2, 6]] {
            b.insert(&t).unwrap();
            union.insert(&t).unwrap();
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.count(), union.count());
        for (x, y) in a.sums().iter().zip(union.sums()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_rejects_mismatched_shapes() {
        let mut a = MultiDimSynopsis::new(vec![dom(8), dom(8)], Grid::Midpoint, 4).unwrap();
        let b = MultiDimSynopsis::new(vec![dom(8), dom(16)], Grid::Midpoint, 4).unwrap();
        assert!(a.merge_from(&b).is_err());
        let c = MultiDimSynopsis::new(vec![dom(8), dom(8)], Grid::Endpoint, 4).unwrap();
        assert!(a.merge_from(&c).is_err());
        let e = MultiDimSynopsis::new(vec![dom(8), dom(8)], Grid::Midpoint, 3).unwrap();
        assert!(a.merge_from(&e).is_err());
    }

    #[test]
    fn non_finite_weights_rejected() {
        let mut s = MultiDimSynopsis::new(vec![dom(4), dom(4)], Grid::Midpoint, 3).unwrap();
        assert!(s.update(&[1, 1], f64::NAN).is_err());
        assert_eq!(s.count(), 0.0);
    }

    #[test]
    fn empty_synopsis_frequency_errors() {
        let s = MultiDimSynopsis::new(vec![dom(4), dom(4)], Grid::Midpoint, 3).unwrap();
        assert!(matches!(
            s.frequency_at(&[0, 0]),
            Err(DctError::EmptySynopsis)
        ));
    }
}
