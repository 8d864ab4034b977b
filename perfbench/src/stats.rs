//! Medians, tail percentiles and answer digests shared by every workload.

/// Fewest samples that must lie beyond a reported tail percentile: a
/// "p99" read off a few hundred samples is one or two samples, not a
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `None`
/// when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `p`-quantile of `xs` by nearest rank, or `None` unless at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it (so a p99 needs 1000
/// samples).
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 1.0) {
        return None;
    }
    let n = xs.len();
    // Rounded before flooring so 100 × 0.1 counts as 10, not 9.99….
    let beyond = ((1.0 - p) * n as f64 * 1e9).round() / 1e9;
    if (beyond.floor() as usize) < TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * n as f64 * 1e9).round() / 1e9).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// FNV-1a: the digest of final answers, and the anchor-stream hash that
/// pins every stream's operations to one connection (the hash
/// `dctstream replay` partitions by).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `data` into the hash.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs, 0.99),
            None,
            "999 samples: 9 beyond p99"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 0.9), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&xs, 1.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fnv_starts_at_the_offset_basis() {
        assert_eq!(Fnv::default().value(), 0xcbf2_9ce4_8422_2325);
        assert_ne!(
            Fnv::default().bytes(b"t0/s0").value(),
            Fnv::default().bytes(b"t0/s1").value()
        );
    }
}
