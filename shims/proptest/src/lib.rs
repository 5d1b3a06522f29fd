//! Offline stand-in for the subset of `proptest` the property tests use.
//!
//! Implements the `proptest!` macro, integer-range and `any::<T>()`
//! strategies, `prop::collection::vec`, `prop::sample::Index`, tuple
//! strategies, and the `prop_assert*` macros. Unlike upstream proptest
//! there is no shrinking: a failing case panics with the generated
//! inputs' values left to the assertion message. Case generation is
//! deterministic per (test name, case index), so failures reproduce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-test configuration, consumed by `#![proptest_config(..)]`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// The deterministic generator driving each property case.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from the test name and case index, so each
    /// case — and each rerun of it — sees the same stream.
    pub fn for_case(test_name: &str, case: u32) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        let wide = (u128::from(self.next_u64()) << 64) | u128::from(self.next_u64());
        wide % bound
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Something that can generate values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                    (*self.start() as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// String-pattern strategy: upstream proptest treats a `&str` as a
    /// regex. This shim supports the one shape the workspace uses —
    /// `.{n,m}`, i.e. `n..=m` arbitrary characters.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = self
                .strip_prefix(".{")
                .and_then(|rest| rest.strip_suffix('}'))
                .and_then(|bounds| bounds.split_once(','))
                .and_then(|(lo, hi)| Some((lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?)))
                .unwrap_or_else(|| panic!("unsupported string pattern {self:?} (shim handles '.{{n,m}}')"));
            let len = lo + (rng.next_u64() as usize) % (hi - lo + 1);
            (0..len).map(|_| arbitrary_char(rng)).collect()
        }
    }

    fn arbitrary_char(rng: &mut TestRng) -> char {
        // Bias toward ASCII but cover the BMP and astral planes, so
        // modified-UTF-8 surrogate-pair paths get exercised.
        match rng.next_u64() % 4 {
            0 | 1 => char::from(32 + (rng.next_u64() % 95) as u8),
            2 => loop {
                #[allow(clippy::cast_possible_truncation)]
                if let Some(c) = char::from_u32((rng.next_u64() % 0xFFFF) as u32) {
                    return c;
                }
            },
            _ => loop {
                #[allow(clippy::cast_possible_truncation)]
                if let Some(c) = char::from_u32(0x1_0000 + (rng.next_u64() % 0xF_FFFF) as u32) {
                    return c;
                }
            },
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident / $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A / 0);
        (A / 0, B / 1);
        (A / 0, B / 1, C / 2);
        (A / 0, B / 1, C / 2, D / 3);
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
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

/// The strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> strategy::Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy producing any value of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// The `prop::` strategy namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::TestRng;
        use std::ops::Range;

        /// A length range for generated collections.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi_exclusive: usize,
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> SizeRange {
                SizeRange {
                    lo: r.start,
                    hi_exclusive: r.end,
                }
            }
        }

        /// The strategy returned by [`vec()`].
        #[derive(Clone, Copy, Debug)]
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        /// Generates `Vec`s of `element` values with a length in `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                assert!(self.size.lo < self.size.hi_exclusive, "empty size range");
                let span = (self.size.hi_exclusive - self.size.lo) as u64;
                let len = self.size.lo + (rng.next_u64() % span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling helpers.
    pub mod sample {
        use crate::{Arbitrary, TestRng};

        /// An index into a collection whose length is not yet known: call
        /// [`Index::index`] with the length to resolve it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct Index(usize);

        impl Index {
            /// Resolves against a collection of `len` items (`len > 0`).
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on empty collection");
                self.0 % len
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Index {
                Index(rng.next_u64() as usize)
            }
        }
    }
}

/// The usual single-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Arbitrary, ProptestConfig, TestRng};
}

/// Defines property tests: each `fn name(arg in strategy, ..) { .. }`
/// becomes a `#[test]` running `config.cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut prop_rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut prop_rng);)+
                $body
            }
        }
    )*};
}

/// Skips the current generated case when `cond` fails. Expands to a
/// `continue` of the per-case loop `proptest!` generates, so it is only
/// valid at the top level of a property body (which is how the
/// workspace uses it).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !$cond {
            continue;
        }
    };
}

/// `assert!` under a name the property tests expect.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `assert_eq!` under a name the property tests expect.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `assert_ne!` under a name the property tests expect.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        fn ranges_respect_bounds(v in 3u8..17, w in -4i64..=4) {
            prop_assert!((3..17).contains(&v));
            prop_assert!((-4..=4).contains(&w));
        }

        fn vecs_respect_size(data in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&data.len()));
        }

        fn tuples_and_indices(pair in (any::<prop::sample::Index>(), 1usize..40)) {
            let (idx, len) = pair;
            prop_assert!(idx.index(len) < len);
        }
    }

    #[test]
    fn cases_are_reproducible() {
        let mut a = TestRng::for_case("t", 3);
        let mut b = TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
