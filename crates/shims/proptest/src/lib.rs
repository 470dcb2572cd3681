//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the API surface its property tests use: the [`proptest!`] macro,
//! `prop_assert*`, strategies for ranges / `any::<T>()` / regex-like
//! string patterns / tuples / collections, and the combinators
//! `prop_map`, `prop_flat_map`, `prop_recursive`, `prop_oneof!`.
//!
//! Differences from upstream, by design:
//! - **No shrinking.** A failing case reports the generated inputs via
//!   `Debug`-free formatting in the assertion message only.
//! - **Fixed deterministic seeding** derived from the test's module path
//!   and name, so failures are reproducible run-to-run.
//! - String "regex" strategies support the subset actually used here:
//!   a single character class (or `\PC`) followed by `{m}`/`{m,n}`.
//! - `PROPTEST_CASES`, when set, overrides every property's case count,
//!   including one pinned with `ProptestConfig::with_cases` (upstream
//!   overrides only the default), so one variable deepens any suite.

pub mod collection;
pub mod option;
pub mod prelude;
#[doc(hidden)]
pub mod rng;
pub mod strategy;
mod string;
pub mod test_runner;

/// Declares property tests. Each function runs `config.cases` times with
/// freshly generated inputs; `prop_assert*` failures abort the run with
/// the case number.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $crate::test_runner::ProptestConfig::from_env($cfg);
                let __seed = $crate::test_runner::seed_from_name(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut __rng = $crate::rng::TestRng::new(__seed);
                for __case in 0..__config.cases {
                    $(
                        let $arg = $crate::strategy::Strategy::gen_value(
                            &($strat),
                            &mut __rng,
                        );
                    )+
                    let __result: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        { $body }
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = __result {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __config.cases,
                            e,
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking directly) so the runner can attribute it.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            l,
            r
        );
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Chooses uniformly among several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::one_of(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
