//! Offline stand-in for `proptest`.
//!
//! Provides the strategy combinators and macros this workspace's property
//! tests use — `proptest!`, `prop_assert!`, `prop_oneof!`, ranges, `Just`,
//! `any`, `collection::vec`, `option::of`, `prop_map` — sampled by a
//! deterministic SplitMix64 generator. No shrinking: a failing case reports
//! its inputs via the case seed instead. Semantics match real proptest
//! closely enough that swapping the real crate back is a Cargo.toml change.

// Vendored offline stand-in: lint cleanliness is not meaningful here.
#![allow(clippy::all)]
pub mod strategy {
    use super::test_runner::TestRng;

    /// A source of random values of one type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;
        /// Sample one value.
        fn gen_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform sampled values.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Keep only values satisfying `f` (resamples, bounded retries).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            reason: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                f,
                reason,
            }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A boxed, type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Box a strategy, erasing its concrete type (drives inference in
    /// `prop_oneof!` better than an `as` cast).
    pub fn boxed_strategy<T, S: Strategy<Value = T> + 'static>(s: S) -> BoxedStrategy<T> {
        Box::new(s)
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            (**self).gen_value(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S::Value {
            (**self).gen_value(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn gen_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `prop_map` combinator.
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn gen_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.gen_value(rng))
        }
    }

    /// `prop_filter` combinator.
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
        pub(crate) reason: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn gen_value(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.gen_value(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter exhausted retries: {}", self.reason);
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Build from boxed alternatives (at least one).
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            let i = (rng.next_u64() % self.options.len() as u64) as usize;
            self.options[i].gen_value(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    (self.start as i128 + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = hi - lo + 1;
                    (lo + (rng.next_u64() as i128).rem_euclid(span)) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn gen_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = rng.next_f64() as $t;
                    self.start + u * (self.end - self.start)
                }
            }
        )*};
    }
    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($(($($n:tt $s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn gen_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.gen_value(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy!((0 A) (0 A, 1 B) (0 A, 1 B, 2 C) (0 A, 1 B, 2 C, 3 D) (0 A, 1 B, 2 C, 3 D, 4 E) (0 A, 1 B, 2 C, 3 D, 4 E, 5 F));
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Sample an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite, sign-symmetric, wide dynamic range.
            ((rng.next_f64() - 0.5) * 2e9) as f32
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.next_f64() - 0.5) * 2e18
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn gen_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// Strategy producing any value of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact count or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for vectors of `element` with length in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vector strategy (mirrors `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo + 1) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Strategy for `Option<T>` (~10% `None`, mirrors proptest's default).
    pub struct OptionStrategy<S>(S);

    /// `Option` strategy (mirrors `proptest::option::of`).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn gen_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() % 10 == 0 {
                None
            } else {
                Some(self.0.gen_value(rng))
            }
        }
    }
}

pub mod test_runner {
    /// Deterministic SplitMix64 generator driving all strategies.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeded generator (same seed ⇒ same case).
        pub fn new(seed: u64) -> Self {
            TestRng {
                state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Runner configuration (`#![proptest_config(...)]`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases each property runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
    /// `prop::` path alias used by some proptest idioms.
    pub mod prop {
        pub use crate::{collection, option};
    }
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }` runs
/// `cases` times with deterministically sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                for case in 0..cfg.cases as u64 {
                    let mut rng = $crate::test_runner::TestRng::new(
                        case ^ 0xd6e8_feb8_6659_fd93u64.wrapping_mul(case + 1),
                    );
                    #[allow(unused_parens, unused_mut)]
                    let ( $($pat),+ ) = (
                        $( $crate::strategy::Strategy::gen_value(&($strat), &mut rng) ),+
                    );
                    let result: ::std::result::Result<(), ::std::string::String> =
                        (|| { $body; ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(message) = result {
                        panic!("proptest `{}` failed at case {}: {}", stringify!($name), case, message);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Assert inside `proptest!`, reporting the failing case instead of panicking
/// mid-sample.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} ({}:{})", stringify!($cond), file!(), line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} — {} ({}:{})",
                stringify!($cond), format!($($fmt)+), file!(), line!()
            ));
        }
    };
}

/// Equality assertion inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(left == right) {
                    return ::std::result::Result::Err(format!(
                        "assertion failed: {} == {} (left: {:?}, right: {:?}) ({}:{})",
                        stringify!($a), stringify!($b), left, right, file!(), line!()
                    ));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (left, right) => {
                if !(left == right) {
                    return ::std::result::Result::Err(format!(
                        "assertion failed: {} == {} (left: {:?}, right: {:?}) — {} ({}:{})",
                        stringify!($a), stringify!($b), left, right, format!($($fmt)+), file!(), line!()
                    ));
                }
            }
        }
    };
}

/// Inequality assertion inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (left, right) => {
                if left == right {
                    return ::std::result::Result::Err(format!(
                        "assertion failed: {} != {} (both: {:?}) ({}:{})",
                        stringify!($a),
                        stringify!($b),
                        left,
                        file!(),
                        line!()
                    ));
                }
            }
        }
    };
}

/// Skip the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed_strategy($s)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -2.0f64..2.0, z in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y), "y = {y}");
            prop_assert!((1..=4).contains(&z));
        }

        #[test]
        fn combinators_compose(v in crate::collection::vec(0u64..100, 1..8),
                               choice in prop_oneof![Just(1u32), Just(2)],
                               mapped in (0u32..5).prop_map(|x| x * 10)) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(v.iter().all(|&e| e < 100));
            prop_assert!(choice == 1 || choice == 2);
            prop_assert_eq!(mapped % 10, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn config_is_respected(seed in any::<u64>()) {
            let _ = seed;
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(42);
        let mut b = TestRng::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
