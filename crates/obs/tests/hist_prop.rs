//! Property tests for the log2 histogram: the quantile error bound,
//! merge/concatenation equivalence on arbitrary sample sets, and both
//! storage forms (bucket-index log, pages) against a dense model.

use l25gc_obs::hist::{Log2Histogram, DEFAULT_BITS};
use proptest::prelude::*;

/// Exact nearest-rank quantile over a sorted copy.
fn exact_quantile(samples: &[u64], q: f64) -> u64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    v[rank.min(v.len()) - 1]
}

proptest! {
    /// `exact <= est <= exact + (exact >> bits)` for every quantile, on
    /// arbitrary samples spanning the full u64 range.
    #[test]
    fn quantile_error_is_bounded(
        samples in proptest::collection::vec(any::<u64>(), 1..400),
        q in 0.0f64..1.0,
    ) {
        let mut h = Log2Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let exact = exact_quantile(&samples, q);
        let est = h.quantile(q);
        prop_assert!(est >= exact, "q={} est={} exact={}", q, est, exact);
        prop_assert!(
            est - exact <= exact >> DEFAULT_BITS,
            "q={} est={} exact={}", q, est, exact
        );
    }

    /// Merging two histograms equals recording the concatenated stream.
    #[test]
    fn merge_is_concatenation(
        xs in proptest::collection::vec(any::<u64>(), 0..200),
        ys in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        prop_assert_eq!(a, both);
    }
}

/// The dense histogram, defined sample by sample: each sample stands for
/// its bucket's upper bound (`v` itself below `2^DEFAULT_BITS`, else `v`
/// with its bits below the top `DEFAULT_BITS + 1` set).
#[derive(Default)]
struct Model {
    highs: Vec<u64>,
    sum: u128,
    max: u64,
}

impl Model {
    fn record(&mut self, v: u64) {
        let high = if v < 1 << DEFAULT_BITS {
            v
        } else {
            let shift = 63 - v.leading_zeros() - DEFAULT_BITS;
            v | ((1 << shift) - 1)
        };
        // Kept sorted: a binary search finds the slot.
        let at = self.highs.partition_point(|&h| h <= high);
        self.highs.insert(at, high);
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    fn quantile(&self, q: f64) -> u64 {
        let n = self.highs.len();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as usize).max(1);
        self.highs[rank.min(n) - 1].min(self.max)
    }

    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (k, &high) in self.highs.iter().enumerate() {
            match out.last_mut() {
                Some(last) if last.0 == high => last.1 = k as u64 + 1,
                _ => out.push((high, k as u64 + 1)),
            }
        }
        out
    }
}

/// Every read of `h` is the model's.
fn assert_reads_match(h: &Log2Histogram, m: &Model) -> Result<(), TestCaseError> {
    let n = m.highs.len() as u64;
    prop_assert_eq!(h.count(), n);
    prop_assert_eq!(h.sum(), m.sum);
    prop_assert_eq!(h.max(), m.max);
    let mean = if n == 0 { 0.0 } else { m.sum as f64 / n as f64 };
    prop_assert_eq!(h.mean().to_bits(), mean.to_bits());
    for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        prop_assert_eq!(h.quantile(q), m.quantile(q), "q={}", q);
    }
    prop_assert_eq!(h.cumulative_buckets(), m.cumulative_buckets());
    Ok(())
}

/// A stream whose non-zero samples number fewer than, about as many as,
/// or more than the 512 a histogram keeps as a bucket-index log before
/// folding it into pages; about one sample in five is 0.
fn stream() -> impl Strategy<Value = Vec<u64>> {
    let sample = prop_oneof![
        Just(0u64),
        1u64..32,
        1u64..5_000_000,
        1u64..5_000_000,
        any::<u64>(),
    ];
    prop_oneof![
        proptest::collection::vec(sample.clone(), 0..40),
        proptest::collection::vec(sample.clone(), 200..400),
        proptest::collection::vec(sample.clone(), 600..680),
        proptest::collection::vec(sample, 700..1200),
    ]
}

proptest! {
    /// Log and page forms read exactly as the dense model across the
    /// fold, and merging any two forms, in either order, equals one
    /// recording of both streams — in record order, reversed, or sorted.
    #[test]
    fn log_form_is_the_dense_model(xs in stream(), ys in stream()) {
        let (mut a, mut b, mut model) = (Log2Histogram::new(), Log2Histogram::new(), Model::default());
        for &v in &xs {
            a.record(v);
            model.record(v);
        }
        assert_reads_match(&a, &model)?;
        for &v in &ys {
            b.record(v);
            model.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_reads_match(&ab, &model)?;
        assert_reads_match(&ba, &model)?;

        let all: Vec<u64> = xs.iter().chain(&ys).copied().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        for order in [all.clone(), all.iter().rev().copied().collect(), sorted] {
            let mut flat = Log2Histogram::new();
            for v in order {
                flat.record(v);
            }
            assert_reads_match(&flat, &model)?;
            prop_assert_eq!(&flat, &ab);
            prop_assert_eq!(&flat, &ba);
        }
    }
}
