//! Small shared statistics helpers for product summaries.

/// Nearest-rank percentile of an ascending-sorted slice: the value at
/// rank `⌈p·n⌉` (1-based), i.e. the smallest element ≥ at least `p·n`
/// of the data. `p` is a fraction in `(0, 1]`.
///
/// This is the classical nearest-rank definition; the naive
/// `(n as f64 * p) as usize` index it replaces returned the *maximum*
/// for every length divisible by `1/(1-p)` (e.g. p95 of 20 sorted values
/// picked index 19).
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 1]` — callers summarise
/// non-empty products.
pub fn percentile_nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty slice");
    assert!(p > 0.0 && p <= 1.0, "percentile fraction out of (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The one summary-statistics contract every per-product `stats()`
/// shares: `(mean, median, p95)` over the given values.
///
/// - **mean** — arithmetic mean.
/// - **median** — the upper-median `v[n/2]` of the ascending
///   [`f64::total_cmp`] sort (for even `n` this is the higher of the two
///   central values, *not* their midpoint — chosen so the median is
///   always an observed sample).
/// - **p95** — the nearest-rank 95th percentile,
///   [`percentile_nearest_rank`] at `p = 0.95`.
///
/// An empty slice summarises to `(0.0, 0.0, 0.0)`. The input need not be
/// sorted; a copy is sorted internally, so the fold is independent of
/// input order. [`crate::freeboard::FreeboardProduct::stats`] and
/// `seaice_products::ProductSet::thickness_stats` both delegate here —
/// if you change this contract, change it for every product at once.
pub fn summary_stats(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    (mean, v[v.len() / 2], percentile_nearest_rank(&v, 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regression the helper exists for: 20 elements, p95 must be
    /// the 19th value (rank ⌈0.95·20⌉ = 19), not the maximum.
    #[test]
    fn p95_of_twenty_elements_is_the_nineteenth_not_the_max() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 0.95), 19.0);
        // The replaced expression hit the max:
        assert_eq!(v[(v.len() as f64 * 0.95) as usize], 20.0);
    }

    /// Cross-check: `summary_stats` agrees with a by-hand fold of the
    /// documented contract, regardless of input order.
    #[test]
    fn summary_stats_matches_hand_fold_and_ignores_order() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        let expected = (10.5, 11.0, 19.0); // mean, upper-median, rank-19 p95
        assert_eq!(summary_stats(&v), expected);
        v.reverse();
        assert_eq!(summary_stats(&v), expected);
        assert_eq!(summary_stats(&[]), (0.0, 0.0, 0.0));
        assert_eq!(summary_stats(&[2.5]), (2.5, 2.5, 2.5));
    }

    #[test]
    fn nearest_rank_edges() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 1.0), 7.0);
        assert_eq!(percentile_nearest_rank(&v, 1e-9), 1.0);
        assert_eq!(percentile_nearest_rank(&v, 0.5), 4.0);
        assert_eq!(percentile_nearest_rank(&[2.5], 0.95), 2.5);
        // ⌈0.95·7⌉ = 7 → the maximum, legitimately.
        assert_eq!(percentile_nearest_rank(&v, 0.95), 7.0);
    }
}
