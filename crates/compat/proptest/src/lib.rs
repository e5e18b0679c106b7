//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest 1.x this workspace's property tests
//! use: the [`proptest!`] macro (with `#![proptest_config]`), the
//! [`prop_assert!`]/[`prop_assert_eq!`]/[`prop_assume!`] macros,
//! [`Strategy`] for numeric ranges, tuples, [`any`] and
//! `prop::collection::vec`, and [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, by design:
//!
//! * inputs are sampled uniformly from the strategy (no edge-case
//!   biasing) from a **deterministic** per-test seed, so failures are
//!   reproducible run-to-run;
//! * there is no shrinking — a failing case reports the exact inputs
//!   that failed instead of a minimized counterexample;
//! * rejections (`prop_assume!`) retry with fresh inputs, up to 10× the
//!   configured case count.

#![deny(missing_docs)]

use std::ops::Range;

/// Outcome of one generated test case.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's inputs violated a `prop_assume!` precondition; the
    /// runner retries with fresh inputs.
    Reject(String),
    /// A `prop_assert!` failed; the runner panics with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Builds a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Runner configuration (only `cases` is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Deterministic generator handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct GenRng {
    state: u64,
}

impl GenRng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        // Modulo bias is ≤ bound/2^64 — irrelevant for test generation.
        self.next_u64() % bound
    }
}

/// A value generator. Mirror of `proptest::strategy::Strategy`, reduced
/// to plain uniform generation (no value tree / shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut GenRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut GenRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut GenRng) -> $t {
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                assert!(span > 0, "empty integer range strategy");
                self.start.wrapping_add(rng.next_below(span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u64, u32, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut GenRng) -> $t {
                let span = (self.end as i64 - self.start as i64) as u64;
                assert!(span > 0, "empty integer range strategy");
                (self.start as i64 + rng.next_below(span) as i64) as $t
            }
        }
    )*};
}

signed_range_strategy!(i64, i32);

macro_rules! tuple_strategy {
    ($($s:ident/$v:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut GenRng) -> Self::Value {
                let ($($v,)+) = self;
                ($($v.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / a, B / b);
tuple_strategy!(A / a, B / b, C / c);
tuple_strategy!(A / a, B / b, C / c, D / d);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / g);

/// Types with a canonical whole-domain strategy (mirror of
/// `proptest::arbitrary::Arbitrary`, reduced to what the tests use).
pub trait Arbitrary: Sized {
    /// The whole-domain strategy for this type.
    fn arbitrary() -> ArbitraryStrategy<Self>;
}

/// Strategy returned by [`any`].
pub struct ArbitraryStrategy<T> {
    gen_fn: fn(&mut GenRng) -> T,
}

impl<T> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut GenRng) -> T {
        (self.gen_fn)(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary() -> ArbitraryStrategy<bool> {
        ArbitraryStrategy {
            gen_fn: |rng| rng.next_u64() & 1 == 1,
        }
    }
}

impl Arbitrary for u8 {
    fn arbitrary() -> ArbitraryStrategy<u8> {
        ArbitraryStrategy {
            gen_fn: |rng| rng.next_u64() as u8,
        }
    }
}

impl Arbitrary for u64 {
    fn arbitrary() -> ArbitraryStrategy<u64> {
        ArbitraryStrategy {
            gen_fn: GenRng::next_u64,
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary() -> ArbitraryStrategy<f64> {
        // Finite values spanning a wide magnitude range.
        ArbitraryStrategy {
            gen_fn: |rng| {
                let mag = rng.next_f64() * 600.0 - 300.0;
                let sign = if rng.next_u64() & 1 == 1 { 1.0 } else { -1.0 };
                sign * mag.exp2().min(f64::MAX)
            },
        }
    }
}

/// Whole-domain strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{GenRng, Strategy};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// Vector of values from `elem`, with length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut GenRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.next_below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy,
        TestCaseError,
    };

    /// The `prop::` namespace (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Executes the generated cases for one `proptest!` test function.
/// Public so the macro expansion can reach it; not part of the stable
/// mirror API.
pub fn run_proptest<F>(config: &ProptestConfig, test_name: &str, mut case: F)
where
    F: FnMut(&mut GenRng) -> (String, Result<(), TestCaseError>),
{
    // Deterministic per-test seed: FNV-1a over the test name.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x100_0000_01b3);
    }
    let mut rng = GenRng::new(seed);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(10).max(1000);
    while passed < config.cases {
        let (inputs, outcome) = case(&mut rng);
        match outcome {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "{test_name}: too many prop_assume! rejections ({rejected}) \
                     for {} target cases",
                    config.cases
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed after {passed} passing case(s)\n\
                     inputs: {inputs}\n{msg}"
                );
            }
        }
    }
}

/// Property-test harness macro; mirror of `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_proptest(&config, stringify!($name), |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}  ",)+),
                        $(&$arg),+
                    );
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    (inputs, outcome)
                });
            }
        )*
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking directly) so the runner can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Discards the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn range_strategies_respect_bounds() {
        let mut rng = crate::GenRng::new(1);
        for _ in 0..1000 {
            let x = crate::Strategy::generate(&(1.5f64..2.5), &mut rng);
            assert!((1.5..2.5).contains(&x));
            let n = crate::Strategy::generate(&(10u64..20), &mut rng);
            assert!((10..20).contains(&n));
            let i = crate::Strategy::generate(&(-5i32..7), &mut rng);
            assert!((-5..7).contains(&i));
        }
    }

    #[test]
    fn vec_and_tuple_strategies_compose() {
        let mut rng = crate::GenRng::new(2);
        let strat = prop::collection::vec((0u64..5, any::<bool>()), 1..10);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&strat, &mut rng);
            assert!((1..10).contains(&v.len()));
            assert!(v.iter().all(|&(n, _)| n < 5));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut rng = crate::GenRng::new(7);
            (0..32).map(|_| rng.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = crate::GenRng::new(7);
            (0..32).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(x in 0.0f64..1.0, n in 1u64..100) {
            prop_assume!(n > 1);
            prop_assert!(x < 1.0);
            prop_assert_eq!(n, n);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics_with_inputs() {
        crate::run_proptest(&ProptestConfig::with_cases(8), "always_fails", |rng| {
            let x = crate::Strategy::generate(&(0.0f64..1.0), rng);
            (
                format!("x = {x:?}"),
                Err(TestCaseError::Fail("nope".into())),
            )
        });
    }
}
