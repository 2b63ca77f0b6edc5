//! Vendored, dependency-free subset of the `proptest` 1.x API.
//!
//! The build environment is fully offline, so the crates-io `proptest`
//! cannot be fetched. This shim implements the surface the workspace's
//! property tests use: the [`proptest!`] macro, the [`Strategy`] trait
//! with `prop_map`/`prop_flat_map`, range/tuple/`Just` strategies,
//! [`collection::vec`], [`sample::subsequence`], [`option::of`],
//! [`prop_oneof!`], and the `prop_assert*`/`prop_assume!` macros.
//!
//! Differences from upstream: no shrinking (failures report the original
//! case), no persisted failure seeds (streams are deterministic per test
//! name), and a default of 64 cases per test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::Rng;

/// Test-runner types used by the generated test bodies.
pub mod test_runner {
    pub use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    /// Why a generated test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case violated a `prop_assume!` and is skipped.
        Reject(String),
        /// A `prop_assert*!` failed.
        Fail(String),
    }

    /// Per-test configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-test generator (FNV-1a of the test name).
    pub fn rng_for(test_name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h)
    }
}

use test_runner::TestRng;

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value and samples it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);

/// A size specification for collection strategies (`0..n` or `0..=n`).
#[derive(Debug, Clone)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

impl SizeRange {
    fn sample(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.lo..=self.hi_inclusive)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy for `Vec`s with element strategy `element` and a length
    /// drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling strategies over existing collections.
pub mod sample {
    use super::{SizeRange, Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing an order-preserving random subsequence of
    /// `values` whose length falls in `size`.
    pub fn subsequence<T: Clone>(values: Vec<T>, size: impl Into<SizeRange>) -> Subsequence<T> {
        Subsequence {
            values,
            size: size.into(),
        }
    }

    /// See [`subsequence`].
    pub struct Subsequence<T> {
        values: Vec<T>,
        size: SizeRange,
    }

    impl<T: Clone> Strategy for Subsequence<T> {
        type Value = Vec<T>;
        fn generate(&self, rng: &mut TestRng) -> Vec<T> {
            let want = self.size.sample(rng).min(self.values.len());
            // Floyd-style distinct index sampling, then order-preserving
            // selection.
            let mut picked = vec![false; self.values.len()];
            let mut chosen = 0usize;
            while chosen < want {
                let i = rng.gen_range(0..self.values.len());
                if !picked[i] {
                    picked[i] = true;
                    chosen += 1;
                }
            }
            self.values
                .iter()
                .zip(&picked)
                .filter(|(_, &p)| p)
                .map(|(v, _)| v.clone())
                .collect()
        }
    }
}

/// Strategies over `Option`.
pub mod option {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy producing `None` about a quarter of the time and
    /// `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.25) {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// Uniformly picks one of several boxed strategies (built by
/// [`prop_oneof!`]).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// A union over `arms`.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.arms.len());
        self.arms[i].generate(rng)
    }
}

/// Everything a property-test module needs.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
}

/// Uniformly picks one of the listed strategies each case. All arms must
/// generate the same `Value` type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {} at {}:{}",
                format!($($fmt)+), file!(), line!()
            )));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?} == {:?}` at {}:{}",
                left, right, file!(), line!()
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?} == {:?}`: {} at {}:{}",
                left, right, format!($($fmt)+), file!(), line!()
            )));
        }
    }};
}

/// Fails the current case if the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: `{:?} != {:?}` at {}:{}",
                left,
                right,
                file!(),
                line!()
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_owned(),
            ));
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$attr:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$attr])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            $(let $arg = $crate::Strategy::boxed($strat);)+
            #[allow(unused_parens)]
            let __strategies = ($(&$arg),+);
            for __case in 0..__config.cases {
                #[allow(unused_parens)]
                let ($($arg),+) = {
                    #[allow(unused_parens)]
                    let ($($arg),+) = &__strategies;
                    ($($crate::Strategy::generate(*$arg, &mut __rng)),+)
                };
                #[allow(clippy::redundant_closure_call)]
                let __outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| { $body Ok(()) })();
                match __outcome {
                    Ok(()) => {}
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest '{}' case {}: {}", stringify!($name), __case, msg);
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn evens(max: usize) -> impl Strategy<Value = usize> {
        (0..max / 2).prop_map(|x| 2 * x)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3usize..9, y in -2.0f64..2.0) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
        }

        #[test]
        fn maps_apply(x in evens(100)) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn flat_maps_nest(pair in (2usize..6).prop_flat_map(|n| (Just(n), 0..n))) {
            let (n, k) = pair;
            prop_assert!(k < n, "k={} n={}", k, n);
        }

        #[test]
        fn oneof_unions(v in prop_oneof![Just(1usize), Just(2), 10usize..12]) {
            prop_assert!(v == 1 || v == 2 || v == 10 || v == 11);
        }

        #[test]
        fn vec_and_subsequence_sizes(
            xs in crate::collection::vec(0usize..5, 0..8),
            sub in crate::sample::subsequence((0..10usize).collect::<Vec<_>>(), 0..=10),
        ) {
            prop_assert!(xs.len() < 8);
            prop_assert!(sub.len() <= 10);
            // order-preserving
            for w in sub.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        #[test]
        fn option_of_mixes(o in crate::option::of(1usize..4)) {
            if let Some(v) = o {
                prop_assert!((1..4).contains(&v));
            }
        }

        #[test]
        fn assume_rejects_without_failing(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_respected(_x in 0usize..5) {
            // Runs without panicking; case count is observed via coverage
            // of the loop (nothing to assert beyond termination).
        }
    }

    #[test]
    fn deterministic_rng_per_test_name() {
        use rand::RngCore;
        let mut a = crate::test_runner::rng_for("mod::a");
        let mut b = crate::test_runner::rng_for("mod::a");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_runner::rng_for("mod::c");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
