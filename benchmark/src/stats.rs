//! Order statistics over timing samples: the percentile picker, the
//! "at least ten samples beyond" tail rule, and the spread measures the
//! `--repeat` table and the README use.

/// Samples that must lie beyond a percentile before it is reported as
/// a tail: with fewer, the value is set by one or two slow items.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p <= 100`) of `sorted` by the
/// nearest-rank rule: the smallest sample with at least `p` percent of
/// the samples at or below it. `sorted` must be ascending and
/// non-empty.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest-rank position of percentile `p` among `n >= 1`
/// samples. The small slack keeps `p * n / 100` products that are whole
/// in exact arithmetic (75 % of 40) from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`
/// in a sample of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest whole percentile of a sample of `n` that still has at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the
/// median does not. Used to choose (and to test) the fixed
/// per-workload tail percentiles.
#[must_use]
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (50..100)
        .rev()
        .find(|&p| beyond(n, f64::from(p)) >= MIN_BEYOND)
}

/// Sorts a copy of `values` ascending (NaN-free input).
#[must_use]
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The median (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest pairwise relative deviation of `values`:
/// `(max − min) / min`, 0 for fewer than two values.
#[must_use]
pub fn max_pairwise_deviation(values: &[f64]) -> f64 {
    let v = sorted(values);
    match (v.first(), v.last()) {
        (Some(&lo), Some(&hi)) if v.len() > 1 && lo != 0.0 => (hi - lo) / lo.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 75.0), 8.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.1), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p76 only 9.
        assert_eq!(beyond(40, 75.0), 10);
        assert_eq!(beyond(40, 76.0), 9);
        assert_eq!(highest_tail_percentile(40), Some(75));
        // 1000 samples reach p99; 19 samples have no reportable tail.
        assert_eq!(highest_tail_percentile(1000), Some(99));
        assert_eq!(highest_tail_percentile(200), Some(95));
        assert_eq!(highest_tail_percentile(19), None);
        assert_eq!(highest_tail_percentile(20), Some(50));
    }

    #[test]
    fn deviation_is_relative_to_the_smallest_run() {
        assert_eq!(max_pairwise_deviation(&[1.0, 1.1, 1.05]), (1.1 - 1.0) / 1.0);
        assert_eq!(max_pairwise_deviation(&[2.0]), 0.0);
        assert_eq!(max_pairwise_deviation(&[3.0, 3.0]), 0.0);
    }
}
