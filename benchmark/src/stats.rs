//! Order statistics the benchmark reports: median, quartiles, and the
//! highest percentile that still has ten samples beyond it.

/// Sorted copy of `xs` (NaN-free input assumed: every caller passes
/// measured times or counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Value at 1-based fractional rank `pos` of a sorted slice, linearly
/// interpolated and clamped to the ends.
fn at_rank(v: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(1.0, v.len() as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
}

/// `(q1, median, q3)` by the exclusive method — the cut points Python's
/// `statistics.quantiles(xs, n=4)` returns, so the spread this program
/// prints is the spread the driver computes. A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let v = sorted(xs);
    let m = (v.len() + 1) as f64;
    (
        at_rank(&v, m * 0.25),
        at_rank(&v, m * 0.5),
        at_rank(&v, m * 0.75),
    )
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile in 0..100, value)`; `None` with ten samples or fewer.
pub fn top_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n <= 10 {
        return None;
    }
    let v = sorted(xs);
    // Ten samples lie strictly above index n - 11.
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// The `p`-th percentile (nearest rank), or `None` unless at least ten
/// samples lie beyond it — a tail figure backed by fewer is not reported.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let rank = (((p / 100.0) * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    (v.len() >= rank + 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs, 99.5), None, "only five samples beyond");
        assert_eq!(percentile(&xs[..500], 99.0), None);
        assert_eq!(percentile(&xs[..10], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // Two samples clamp to the ends, as Python does.
        assert_eq!(quartiles(&[2.0, 4.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = top_percentile(&xs).expect("1000 samples");
        assert_eq!(v, 990.0);
        assert!((p - 99.0).abs() < 1e-9);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        // Eleven samples: only the minimum qualifies.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(top_percentile(&xs).map(|(_, v)| v), Some(1.0));
    }
}
