//! Deterministic random numbers for simulations.
//!
//! Wraps [`rand::rngs::SmallRng`] behind a small, purpose-built API so that
//! the rest of the workspace never depends on `rand` traits directly and
//! simulation code stays trivially reproducible from a single `u64` seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded random number generator for simulation use.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates a generator from a seed. Identical seeds yield identical
    /// streams on every platform.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; useful to give each
    /// component its own stream so adding draws in one component does not
    /// perturb another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniform `u64` in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Uniform `u64` over the full range.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Exponentially distributed `f64` with the given mean (> 0).
    ///
    /// Used for Poisson inter-arrival jitter in workload generators.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    #[cfg(test)]
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if empty.
    #[cfg(test)]
    pub(crate) fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.index(items.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SimRng::new(1);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_roughly_holds() {
        let mut r = SimRng::new(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_decorrelates_streams() {
        let mut parent = SimRng::new(5);
        let mut child = parent.fork();
        // Not a statistical test; just ensure the streams differ.
        let a: Vec<u64> = (0..10).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| child.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SimRng::new(6);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }
}
