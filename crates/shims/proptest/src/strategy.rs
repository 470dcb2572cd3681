//! The [`Strategy`] trait, combinators, and implementations for ranges,
//! tuples, vectors, string patterns, and `any::<T>()`.

use std::sync::Arc;

use crate::rng::TestRng;
use crate::string::gen_string;

/// A recipe for generating values of `Self::Value`.
///
/// Unlike upstream proptest there is no value tree and no shrinking;
/// `gen_value` draws one concrete value from the internal RNG.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> BoxedStrategy<O>
    where
        Self: Sized + 'static,
        O: 'static,
        F: Fn(Self::Value) -> O + 'static,
    {
        let inner = self;
        BoxedStrategy::new(move |rng| f(inner.gen_value(rng)))
    }

    /// Generates a value, then generates from the strategy `f` derives
    /// from it (dependent generation).
    fn prop_flat_map<S, F>(self, f: F) -> BoxedStrategy<S::Value>
    where
        Self: Sized + 'static,
        S: Strategy + 'static,
        S::Value: 'static,
        F: Fn(Self::Value) -> S + 'static,
    {
        let inner = self;
        BoxedStrategy::new(move |rng| f(inner.gen_value(rng)).gen_value(rng))
    }

    /// Builds recursive structures: `self` is the leaf strategy and `f`
    /// wraps an inner strategy into one more level of nesting. `depth`
    /// bounds the nesting; the `_desired_size`/`_expected_branch` hints
    /// from upstream are accepted and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        f: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let base = self.boxed();
        let mut current = base.clone();
        for _ in 0..depth {
            let recursed = f(current).boxed();
            let leaf = base.clone();
            // Half leaves, half deeper nesting, so generated trees have
            // both shallow and deep shapes at every level.
            current = BoxedStrategy::new(move |rng: &mut TestRng| {
                if rng.chance(0.5) {
                    leaf.gen_value(rng)
                } else {
                    recursed.gen_value(rng)
                }
            });
        }
        current
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        let inner = self;
        BoxedStrategy::new(move |rng| inner.gen_value(rng))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T> {
    gen: Arc<dyn Fn(&mut TestRng) -> T>,
}

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            gen: Arc::clone(&self.gen),
        }
    }
}

impl<T> BoxedStrategy<T> {
    /// Wraps a generation closure.
    pub(crate) fn new(f: impl Fn(&mut TestRng) -> T + 'static) -> BoxedStrategy<T> {
        BoxedStrategy { gen: Arc::new(f) }
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

/// A strategy that always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The canonical strategy producing any value of `A`.
pub fn any<A: Arbitrary + 'static>() -> BoxedStrategy<A> {
    BoxedStrategy::new(A::arbitrary)
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.unit_f64()
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> [T; N] {
        core::array::from_fn(|_| T::arbitrary(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.in_range_u128(self.start as u128, self.end as u128 - 1) as $t
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn gen_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                rng.in_range_u128(lo as u128, hi as u128) as $t
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn gen_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end || v < self.start {
            self.start
        } else {
            v
        }
    }
}

/// String strategies from a regex-like pattern (see [`crate::string`]).
impl Strategy for &'static str {
    type Value = String;
    fn gen_value(&self, rng: &mut TestRng) -> String {
        gen_string(self, rng)
    }
}

/// A vector of strategies generates element-wise.
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.gen_value(rng)).collect()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Uniform choice among type-erased strategies (`prop_oneof!` backend).
pub fn one_of<T: 'static>(strategies: Vec<BoxedStrategy<T>>) -> BoxedStrategy<T> {
    assert!(!strategies.is_empty(), "prop_oneof! of zero strategies");
    BoxedStrategy::new(move |rng| {
        let i = rng.below(strategies.len());
        strategies[i].gen_value(rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_maps() {
        let mut rng = TestRng::new(1);
        let s = (0u32..10).prop_map(|v| v * 2);
        for _ in 0..100 {
            let v = s.gen_value(&mut rng);
            assert!(v < 20 && v % 2 == 0);
        }
    }

    #[test]
    fn flat_map_dependent_lengths() {
        let mut rng = TestRng::new(2);
        let s = (1usize..5).prop_flat_map(|n| (0..n).map(|_| 0u8..10).collect::<Vec<_>>());
        for _ in 0..50 {
            let v = s.gen_value(&mut rng);
            assert!(!v.is_empty() && v.len() < 5);
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn recursive_terminates() {
        #[derive(Debug)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let leaf = (0u8..10).prop_map(Tree::Leaf);
        let s = leaf.prop_recursive(3, 16, 4, |inner| {
            crate::collection::vec(inner, 0..4).prop_map(Tree::Node)
        });
        let mut rng = TestRng::new(3);
        for _ in 0..100 {
            let _ = s.gen_value(&mut rng);
        }
    }

    #[test]
    fn one_of_hits_all_branches() {
        let s = one_of(vec![
            Just(1u8).boxed(),
            Just(2u8).boxed(),
            Just(3u8).boxed(),
        ]);
        let mut rng = TestRng::new(4);
        let mut seen = [false; 4];
        for _ in 0..100 {
            seen[s.gen_value(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }
}
