//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses: the `proptest!` macro, range/tuple/`Just`/`any`/`prop_oneof!`
//! strategies, `proptest::collection::vec`, and the `prop_assert*` macros.
//!
//! Unlike real proptest there is **no shrinking**: each test runs
//! `ProptestConfig::cases` random cases from a generator seeded
//! deterministically from the test's module path, so failures reproduce
//! exactly on rerun. The first failing case panics with the sampled
//! inputs via the `prop_assert*` message.

use std::ops::{Range, RangeInclusive};

use rand::rngs::SmallRng;
use rand::{Rng, SampleRange, SeedableRng};

/// Run-configuration subset: number of random cases per property.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
    /// Accepted for API compatibility; this shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256 cases; 64 keeps the heavy
        // simulation properties affordable in debug builds while still
        // sweeping the input space.
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

/// The deterministic per-test generator handed to strategies.
pub struct TestRng(SmallRng);

impl TestRng {
    /// Seed from a stable string (the test's `module_path!()::name`).
    pub fn for_test(name: &str) -> TestRng {
        // FNV-1a, so the seed depends only on the test name.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng(SmallRng::seed_from_u64(h))
    }

    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        self.0.gen_range(range)
    }

    pub fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.0.next_u64()
    }
}

/// A value generator (the sampling core of proptest's `Strategy`).
pub trait Strategy {
    type Value;
    fn sample_one(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample_one(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample_one(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample_one(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample_one(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample_one(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for `any::<T>()`.
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample_one(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// One boxed `prop_oneof!` arm: a sampler closing over its strategy.
pub type OneOfArm<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Uniform choice between boxed strategy arms (built by `prop_oneof!`).
pub struct OneOf<T> {
    arms: Vec<OneOfArm<T>>,
}

impl<T> OneOf<T> {
    pub fn new(arms: Vec<OneOfArm<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { arms }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample_one(&self, rng: &mut TestRng) -> T {
        let i = rng.gen_range(0..self.arms.len());
        (self.arms[i])(rng)
    }
}

/// Box one `prop_oneof!` arm. A plain function (rather than an `as _`
/// cast inside the macro) so the arms' value types unify through the
/// `Vec` element type — `prop_oneof![Just(32usize), Just(64)]` must
/// infer `64: usize`, not let it fall back to `i32`.
pub fn one_of_arm<S: Strategy + 'static>(s: S) -> OneOfArm<S::Value> {
    Box::new(move |rng| s.sample_one(rng))
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length. Mirrors real
    /// proptest's `SizeRange` so integer-literal ranges passed to [`vec()`]
    /// infer `usize` (a plain `Strategy<Value = usize>` bound would not
    /// drive literal inference).
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "collection::vec: empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "collection::vec: empty size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    /// `proptest::collection::vec(element, size)`.
    pub struct VecStrategy<E> {
        element: E,
        size: SizeRange,
    }

    pub fn vec<E: Strategy>(element: E, size: impl Into<SizeRange>) -> VecStrategy<E> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<E: Strategy> Strategy for VecStrategy<E> {
        type Value = Vec<E::Value>;
        fn sample_one(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.gen_range(self.size.min..=self.size.max);
            (0..n).map(|_| self.element.sample_one(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Any,
        Arbitrary, Just, ProptestConfig, Strategy, TestRng,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!{ config ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!{ config ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    (config ($cfg:expr);
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let _ = __case;
                $(let $pat = $crate::Strategy::sample_one(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_cases!{ config ($cfg); $($rest)* }
    };
    (config ($cfg:expr);) => {};
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::OneOf::new(vec![$($crate::one_of_arm($arm)),+])
    };
}

/// Reject the current case when its precondition fails. The shim runs
/// each property body inside the cases loop, so rejection is simply
/// `continue` — the case is skipped, not retried (no resampling budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("proptest assertion failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!("proptest assertion failed: {}: {}", stringify!($cond), format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            panic!("proptest assertion failed: {:?} != {:?}", __a, __b);
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a != __b {
            panic!(
                "proptest assertion failed: {:?} != {:?}: {}",
                __a, __b, format!($($fmt)+)
            );
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            panic!("proptest assertion failed: {:?} == {:?}", __a, __b);
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        if __a == __b {
            panic!(
                "proptest assertion failed: {:?} == {:?}: {}",
                __a, __b, format!($($fmt)+)
            );
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_sample_in_bounds(x in 0u32..10, y in -1.5f64..=1.5) {
            prop_assert!(x < 10);
            prop_assert!((-1.5..=1.5).contains(&y), "y = {}", y);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]
        #[test]
        fn config_header_is_honored(v in crate::collection::vec((0usize..4, 0.0f64..1.0), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (i, f) in v {
                prop_assert!(i < 4 && (0.0..1.0).contains(&f));
            }
        }
    }

    proptest! {
        #[test]
        fn oneof_and_any(choice in prop_oneof![Just(1u8), Just(3), Just(5)], b in any::<bool>()) {
            prop_assert!(choice % 2 == 1);
            prop_assert!(u8::from(b) <= 1);
        }
    }

    #[test]
    fn same_name_means_same_stream() {
        let mut a = TestRng::for_test("x::y");
        let mut b = TestRng::for_test("x::y");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
