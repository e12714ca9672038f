//! Offline shim for the subset of the [`proptest` 1.x](https://docs.rs/proptest)
//! API this workspace uses.
//!
//! The build sandbox has no crates.io access, so the workspace vendors a
//! minimal, dependency-free property-testing harness with the same
//! surface syntax:
//!
//! - the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! - range, tuple, [`collection::vec`](prop::collection::vec) and
//!   [`collection::btree_set`](prop::collection::btree_set) strategies,
//! - [`any::<T>()`](prelude::any), [`Strategy::prop_map`],
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! inputs via `Debug` where available, but is not minimized), no failure
//! persistence (`proptest-regressions` files are ignored), and the
//! default case count is 64 (override per-test with `proptest_config`
//! or globally with the `PROPTEST_CASES` env var).

use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// The RNG handed to strategies by the [`proptest!`] runner.
pub type TestRng = SmallRng;

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Cases actually run: the env var `PROPTEST_CASES` overrides the
    /// configured count when set.
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.cases)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of one type.
///
/// This shim's strategies are plain samplers: `Value` is the generated
/// type and [`sample`](Strategy::sample) draws one instance.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Keeps only values for which `f` returns `true` (bounded retries).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: &'static str,
        f: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter { inner: self, f, whence }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter {:?} rejected 1000 consecutive samples", self.whence);
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical whole-domain strategy ([`prelude::any`]).
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    type Strategy: Strategy<Value = Self>;
    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Whole-domain strategy for primitives (via `rand`'s `Standard`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardStrategy<T>(std::marker::PhantomData<T>);

impl<T: rand::Standard> Strategy for StandardStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.random()
    }
}

macro_rules! impl_arbitrary_prim {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = StandardStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                StandardStrategy(std::marker::PhantomData)
            }
        }
    )*};
}
impl_arbitrary_prim!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f32, f64);

macro_rules! impl_arbitrary_tuple {
    ($($name:ident),+) => {
        impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
            type Strategy = ($($name::Strategy,)+);
            fn arbitrary() -> Self::Strategy {
                ($($name::arbitrary(),)+)
            }
        }
    };
}
impl_arbitrary_tuple!(A, B);
impl_arbitrary_tuple!(A, B, C);
impl_arbitrary_tuple!(A, B, C, D);

/// Strategy combinators namespace (`prop::` in user code).
pub mod prop {
    /// Collection strategies (`prop::collection::*`).
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;
        use std::collections::BTreeSet;
        use std::ops::Range;

        /// Size specification for collection strategies.
        #[derive(Debug, Clone)]
        pub struct SizeRange(Range<usize>);

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                SizeRange(r)
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange(n..n + 1)
            }
        }

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }

        /// Strategy produced by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = rng.random_range(self.size.0.clone());
                (0..n).map(|_| self.element.sample(rng)).collect()
            }
        }

        /// Strategy for `BTreeSet<S::Value>` with `size` *distinct*
        /// elements (bounded retries; settles for fewer if the element
        /// domain is too small).
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy { element, size: size.into() }
        }

        /// Strategy produced by [`btree_set`].
        #[derive(Debug, Clone)]
        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;
            fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let n = rng.random_range(self.size.0.clone());
                let mut out = BTreeSet::new();
                let mut attempts = 0usize;
                while out.len() < n && attempts < n * 100 + 100 {
                    out.insert(self.element.sample(rng));
                    attempts += 1;
                }
                out
            }
        }
    }
}

/// The common import surface (`use proptest::prelude::*`).
pub mod prelude {
    pub use super::prop;
    pub use super::{Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// The canonical whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }
}

/// Outcome of one generated case: `Err` carries the formatted assertion
/// failure from a `prop_assert*!`.
pub type TestCaseResult = Result<(), String>;

#[doc(hidden)]
pub mod runner {
    use super::{ProptestConfig, TestRng};
    use rand::SeedableRng;

    /// Deterministic per-test seed (FNV-1a over the test path).
    pub fn seed_for(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Runs `case` for every generated case, panicking on the first
    /// failure with the case index (there is no shrinking).
    pub fn run(
        name: &str,
        config: &ProptestConfig,
        mut case: impl FnMut(&mut TestRng) -> super::TestCaseResult,
    ) {
        let cases = config.effective_cases();
        let mut rng = TestRng::seed_from_u64(seed_for(name));
        for i in 0..cases {
            if let Err(msg) = case(&mut rng) {
                panic!("proptest case {i}/{cases} of `{name}` failed:\n{msg}");
            }
        }
    }
}

/// Property-based test harness macro; see the crate docs for the
/// supported subset.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            #[allow(unused_parens)]
            let strategy = ($($strat),+);
            $crate::runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                |rng| {
                    #[allow(unused_parens)]
                    let ($($arg),+) = $crate::Strategy::sample(&strategy, rng);
                    $body
                    Ok(())
                },
            );
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// `assert!` variant that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// `assert_eq!` variant that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// `assert_ne!` variant that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, $($fmt)*);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_sample_within_domain() {
        use rand::SeedableRng;
        let mut rng = crate::TestRng::seed_from_u64(1);
        let s = prop::collection::vec((0u32..10, any::<u8>()), 3..7);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&(a, _)| a < 10));
        }
        let set = prop::collection::btree_set(0u64..1_000_000, 5..6);
        let got = set.sample(&mut rng);
        assert_eq!(got.len(), 5);
    }

    proptest! {
        #[test]
        fn macro_generates_runnable_tests(x in 0u32..100, y in 0u32..100) {
            prop_assert!(x < 100);
            prop_assert_eq!(x + y, y + x);
            prop_assert_ne!(x, x + 1);
        }

        #[test]
        fn tuple_and_map_strategies(p in (0i32..8, 0i32..8).prop_map(|(a, b)| a * 8 + b)) {
            prop_assert!((0..64).contains(&p));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3 })]
        #[test]
        fn config_cases_accepted(v in prop::collection::vec(0u8..255, 0..4)) {
            prop_assert!(v.len() < 4);
        }
    }
}
