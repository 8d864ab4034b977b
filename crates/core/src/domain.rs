//! Attribute domains and normalization (paper §3.1 and §4.1).
//!
//! Attributes are discrete (categorical attributes are assumed to have been
//! mapped to distinct integers, §3.1). A [`Domain`] is an inclusive integer
//! interval `[lo, hi]`; its `n = hi - lo + 1` values are normalized onto a
//! grid of points inside `[0, 1]` before cosine basis functions are
//! evaluated.
//!
//! # Grids
//!
//! The paper's Eq. (3.1) normalizes with endpoints
//! (`x = (v - min) / (max - min)`), but its own analysis (Eq. (4.10)) places
//! the `i`-th domain value at the DCT-II midpoint `(2i - 1) / (2n)`. Discrete
//! orthogonality of the cosine basis — and therefore the *exactness* of the
//! Parseval join identity Eq. (4.3) when all `n` coefficients are kept — only
//! holds on the midpoint grid, so [`Grid::Midpoint`] is the default.
//! [`Grid::Endpoint`] implements Eq. (3.1) verbatim for comparison (see the
//! `ablation-grid` experiment).

/// How the `i`-th value of an `n`-value domain is mapped into `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Grid {
    /// DCT-II midpoints `x_i = (2i + 1) / (2n)` (zero-based `i`).
    ///
    /// The cosine basis is exactly orthogonal on these points, which makes
    /// the full-coefficient join estimate exact (Eq. (4.3)).
    #[default]
    Midpoint,
    /// Paper Eq. (3.1): `x_i = i / (n - 1)` (zero-based `i`).
    ///
    /// A single-value domain maps to `x = 0`.
    Endpoint,
}

impl Grid {
    /// Normalized position of zero-based index `i` within an `n`-value domain.
    ///
    /// Computed in `f64`, so no `n` overflows: `2 * n` in `usize` wraps to
    /// zero at `n = 2^63`. Every term is exact below `2^52` values, so the
    /// result there equals the integer formula bit for bit.
    #[inline]
    pub fn position(self, i: usize, n: usize) -> f64 {
        debug_assert!(i < n);
        match self {
            Grid::Midpoint => (2.0 * i as f64 + 1.0) / (2.0 * n as f64),
            Grid::Endpoint => {
                if n <= 1 {
                    0.0
                } else {
                    i as f64 / (n - 1) as f64
                }
            }
        }
    }
}

/// An inclusive integer attribute domain `[lo, hi]`.
///
/// Join compatibility (paper §4.1) requires both join attributes to share a
/// domain; [`Domain::merge`] produces the combined domain
/// `[min(l_A, l_B), max(r_A, r_B)]`, with frequencies of values outside an
/// attribute's original domain implicitly zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Domain {
    lo: i64,
    hi: i64,
}

impl Domain {
    /// Create the domain `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty domain [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// Domain `[0, n - 1]` of `n` values. Panics if `n == 0`.
    pub fn of_size(n: usize) -> Self {
        assert!(n > 0, "domain must contain at least one value");
        Self::new(0, n as i64 - 1)
    }

    /// Inclusive lower bound.
    #[inline]
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Inclusive upper bound.
    #[inline]
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Number of values in the domain (`n` in the paper).
    ///
    /// Panics if the width does not fit a `usize` (only possible for the
    /// near-full `i64` range); use [`Domain::try_size`] when the bounds come
    /// from untrusted input.
    #[inline]
    pub fn size(&self) -> usize {
        self.try_size()
            .unwrap_or_else(|| panic!("domain [{}, {}] wider than usize::MAX", self.lo, self.hi))
    }

    /// Number of values in the domain, or `None` if `hi - lo + 1` does not
    /// fit a `usize`.
    ///
    /// The naive `(hi - lo + 1) as usize` wraps for ranges wider than
    /// `i64::MAX`; the width is computed in `i128` so that every inclusive
    /// `[lo, hi]` interval — including the full `i64` range — is handled
    /// exactly.
    #[inline]
    pub fn try_size(&self) -> Option<usize> {
        let width = self.hi as i128 - self.lo as i128 + 1;
        usize::try_from(width).ok()
    }

    /// Whether `v` lies inside the domain.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Zero-based index of `v`, or `None` if out of domain.
    #[inline]
    pub fn index_of(&self, v: i64) -> Option<usize> {
        // `v - lo` overflows i64 for very wide domains; go through i128.
        self.contains(v)
            .then(|| (v as i128 - self.lo as i128) as usize)
    }

    /// Raw value at zero-based index `i`. Panics if `i >= size()`.
    #[inline]
    pub fn value_at(&self, i: usize) -> i64 {
        assert!(i < self.size());
        self.lo + i as i64
    }

    /// Normalized position of `v` on `grid`, or `None` if out of domain.
    #[inline]
    pub fn normalize(&self, v: i64, grid: Grid) -> Option<f64> {
        self.index_of(v).map(|i| grid.position(i, self.size()))
    }

    /// Merged domain for a join attribute pair (paper §4.1).
    pub fn merge(&self, other: &Domain) -> Domain {
        Domain::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Bounds as a tuple, for error reporting.
    pub(crate) fn bounds(&self) -> (i64, i64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_and_indexing() {
        let d = Domain::new(-5, 4);
        assert_eq!(d.size(), 10);
        assert_eq!(d.index_of(-5), Some(0));
        assert_eq!(d.index_of(4), Some(9));
        assert_eq!(d.index_of(5), None);
        assert_eq!(d.index_of(-6), None);
        assert_eq!(d.value_at(0), -5);
        assert_eq!(d.value_at(9), 4);
    }

    #[test]
    fn of_size_starts_at_zero() {
        let d = Domain::of_size(100);
        assert_eq!((d.lo(), d.hi()), (0, 99));
        assert_eq!(d.size(), 100);
    }

    #[test]
    #[should_panic]
    fn empty_domain_panics() {
        let _ = Domain::new(3, 2);
    }

    #[test]
    fn try_size_handles_overwide_domains() {
        // The full i64 range holds 2^64 values — one more than usize::MAX
        // on 64-bit targets. The old `(hi - lo + 1) as usize` wrapped here.
        let full = Domain::new(i64::MIN, i64::MAX);
        assert_eq!(full.try_size(), None);
        // One short of the full range is exactly usize::MAX values.
        let almost = Domain::new(i64::MIN, i64::MAX - 1);
        assert_eq!(almost.try_size(), Some(usize::MAX));
        assert_eq!(almost.size(), usize::MAX);
        // Narrow domains are unchanged.
        assert_eq!(Domain::new(-5, 4).try_size(), Some(10));
    }

    #[test]
    #[should_panic(expected = "wider than usize::MAX")]
    fn size_panics_instead_of_wrapping() {
        let _ = Domain::new(i64::MIN, i64::MAX).size();
    }

    #[test]
    fn index_of_is_overflow_safe_on_wide_domains() {
        let d = Domain::new(i64::MIN, i64::MAX - 1);
        assert_eq!(d.index_of(i64::MIN), Some(0));
        assert_eq!(d.index_of(i64::MIN + 7), Some(7));
        assert_eq!(d.index_of(i64::MAX - 1), Some(usize::MAX - 1));
    }

    #[test]
    fn midpoint_position_matches_the_integer_formula_and_never_overflows() {
        // Bit-identical to `(2i + 1) as f64 / (2n) as f64` wherever that
        // formula is exact, the whole range below 2^52 values.
        for n in [1usize, 2, 3, 5, 1000, 65_536, (1 << 40) + 7, (1 << 52) - 1] {
            for i in [0, 1, n / 3, n / 2, n - 1] {
                if i < n {
                    let old = (2 * i + 1) as f64 / (2 * n) as f64;
                    assert_eq!(Grid::Midpoint.position(i, n).to_bits(), old.to_bits());
                }
            }
        }
        // At n = 2^63 the old `2 * n` wrapped to zero (position = inf).
        let n = 1usize << 63;
        for i in [0, 1, n / 2, n - 1] {
            let x = Grid::Midpoint.position(i, n);
            assert!((0.0..=1.0).contains(&x), "position({i}, 2^63) = {x}");
        }
        let x = Grid::Midpoint.position(usize::MAX - 1, usize::MAX);
        assert!((0.0..=1.0).contains(&x), "{x}");
    }

    #[test]
    fn midpoint_grid_positions() {
        let d = Domain::of_size(5);
        // Paper's example (§3.1 / Eq. 4.10): value i of n maps to (2i+1)/(2n).
        let xs: Vec<f64> = (0..5)
            .map(|v| d.normalize(v, Grid::Midpoint).unwrap())
            .collect();
        let expect = [0.1, 0.3, 0.5, 0.7, 0.9];
        for (x, e) in xs.iter().zip(expect) {
            assert!((x - e).abs() < 1e-12);
        }
    }

    #[test]
    fn endpoint_grid_positions() {
        let d = Domain::of_size(5);
        // Paper §3.1: {0,1,2,3,4} -> {0, 1/4, 2/4, 3/4, 1}.
        let xs: Vec<f64> = (0..5)
            .map(|v| d.normalize(v, Grid::Endpoint).unwrap())
            .collect();
        let expect = [0.0, 0.25, 0.5, 0.75, 1.0];
        for (x, e) in xs.iter().zip(expect) {
            assert!((x - e).abs() < 1e-12);
        }
    }

    #[test]
    fn endpoint_singleton_domain() {
        let d = Domain::of_size(1);
        assert_eq!(d.normalize(0, Grid::Endpoint), Some(0.0));
        assert_eq!(d.normalize(0, Grid::Midpoint), Some(0.5));
    }

    #[test]
    fn merge_covers_both() {
        let a = Domain::new(10, 20);
        let b = Domain::new(0, 15);
        let m = a.merge(&b);
        assert_eq!((m.lo(), m.hi()), (0, 20));
        // Merge is commutative.
        assert_eq!(b.merge(&a), m);
        // Merge with self is identity.
        assert_eq!(a.merge(&a), a);
    }

    #[test]
    fn normalized_positions_are_in_unit_interval() {
        let d = Domain::new(-100, 100);
        for v in [-100, -1, 0, 1, 100] {
            for grid in [Grid::Midpoint, Grid::Endpoint] {
                let x = d.normalize(v, grid).unwrap();
                assert!((0.0..=1.0).contains(&x), "x = {x}");
            }
        }
    }
}
