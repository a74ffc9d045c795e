//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace uses:
//! the [`Strategy`] trait with `prop_map`/`boxed`, [`Just`], unions
//! (`prop_oneof!`), `any::<T>()` over a small [`Arbitrary`] universe
//! (including `prop::sample::Index`), `collection::vec`, range and
//! tuple and string-pattern strategies, plus the `proptest!`,
//! `prop_assert!`, `prop_assert_eq!`, and `prop_assume!` macros.
//!
//! Differences from upstream, by design:
//! * no shrinking — a failing case panics with its case index and its
//!   generated inputs as drawn, each formatted with `{:?}` before the
//!   body runs (a body may move them), so values need `Debug`, as
//!   upstream requires;
//! * deterministic generation — each test's RNG is seeded from a hash of
//!   the test name, so runs are reproducible without a persistence file;
//! * string "regex" strategies only honor the length part of the
//!   pattern (`*` or `{lo,hi}`) and draw printable characters, which is
//!   exactly what the fuzz tests here need.

use std::fmt;
use std::ops::Range;

pub mod test_runner {
    use std::fmt;

    /// Deterministic splitmix64 RNG used to drive generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed deterministically from a test name (FNV-1a hash).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h | 1 }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; 0 when `bound == 0`.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }

        /// Uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the case out; it does not count as a failure.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
                TestCaseError::Fail(m) => write!(f, "failed: {m}"),
            }
        }
    }

    /// Per-test configuration. Only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub use test_runner::{Config as ProptestConfig, TestCaseError, TestRng};

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Type-erase this strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Uniform choice among type-erased alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

impl<T> fmt::Debug for Union<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} arms)", self.arms.len())
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).saturating_sub(self.start as u64);
                assert!(span > 0, "empty range strategy {}..{}", self.start, self.end);
                self.start + rng.below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(0) as u64;
                assert!(span > 0, "empty range strategy {}..{}", self.start, self.end);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

signed_range_strategy!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// String "regex" pattern strategy. Only the length suffix is honored
/// (`*` → 0..64, `{lo,hi}` → lo..=hi); characters are drawn from a
/// printable set with a few multi-byte code points mixed in.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const EXTRA: &[char] = &['é', 'λ', '中', '\u{2028}'];
        let (lo, hi) = parse_len_bounds(self);
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        let mut s = String::with_capacity(len);
        for _ in 0..len {
            // Mostly printable ASCII, occasionally multi-byte.
            if rng.below(16) == 0 {
                s.push(EXTRA[rng.below(EXTRA.len() as u64) as usize]);
            } else {
                s.push((0x20 + rng.below(0x5f) as u8) as char);
            }
        }
        s
    }
}

/// Extract `(lo, hi)` length bounds from the tail of a pattern like
/// `\PC*` or `\PC{0,40}`.
fn parse_len_bounds(pattern: &str) -> (usize, usize) {
    if let Some(open) = pattern.rfind('{') {
        if let Some(close) = pattern.rfind('}') {
            if close > open {
                let inner = &pattern[open + 1..close];
                let mut parts = inner.splitn(2, ',');
                let lo = parts.next().and_then(|s| s.trim().parse().ok());
                let hi = parts.next().and_then(|s| s.trim().parse().ok());
                if let (Some(lo), Some(hi)) = (lo, hi) {
                    return (lo, hi);
                }
            }
        }
    }
    (0, 64)
}

pub mod arbitrary {
    use super::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.unit_f64()
        }
    }

    /// Strategy produced by [`any`].
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub use arbitrary::{any, Arbitrary};

pub mod sample {
    use super::arbitrary::Arbitrary;
    use super::TestRng;

    /// An index into a runtime-sized collection, as in
    /// `proptest::sample::Index`.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Map onto `0..len`. Panics when `len == 0`, like upstream.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start).max(1);
            let n = self.len.start + rng.below(span as u64) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::test_runner::{TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy, Union,
    };

    /// Mirror of upstream's `prelude::prop` namespace module.
    pub mod prop {
        pub use crate::{collection, sample};
    }
}

/// Defines deterministic property tests. Each `fn name(arg in strategy, ...)`
/// item becomes a `fn name()` that generates `cases` inputs and runs the
/// body on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let mut __rejected: u32 = 0;
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let __inputs: ::std::vec::Vec<::std::string::String> =
                    vec![$(format!("{} = {:?}", stringify!($arg), &$arg)),*];
                let __outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match __outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        __rejected += 1;
                        assert!(
                            __rejected < __cfg.cases * 8,
                            "too many prop_assume! rejections in {}",
                            stringify!($name)
                        );
                    }
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest {} failed at case {}: {}\n  inputs: {}",
                            stringify!($name), __case, __msg, __inputs.join(", ")
                        );
                    }
                }
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), __l, __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __l, __r
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Filter out the current case without failing the test.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u64, u64)> {
        (0u64..10, 5u64..6).prop_map(|(a, b)| (a, b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -4i64..4, z in 0.5f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..4).contains(&y));
            prop_assert!((0.5..2.0).contains(&z));
        }

        #[test]
        fn tuples_and_maps_compose(p in arb_pair()) {
            prop_assert!(p.0 < 10);
            prop_assert_eq!(p.1, 5);
        }

        #[test]
        fn oneof_covers_arms(v in prop_oneof![Just(1u8), Just(2u8), Just(3u8)]) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn vec_lengths_in_range(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn index_in_bounds(ix in any::<prop::sample::Index>()) {
            prop_assert!(ix.index(7) < 7);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn string_patterns_bounded(s in "\\PC{0,40}") {
            prop_assert!(s.chars().count() <= 40);
        }
    }

    #[test]
    fn determinism_same_name_same_stream() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "inputs: x = 7, label = \"seven\"")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 7u64..8, label in Just(String::from("seven"))) {
                // The body moves an input; the report still carries it.
                let owned = label;
                prop_assert!(x > 100, "{owned}");
            }
        }
        inner();
    }
}
