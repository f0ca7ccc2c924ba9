//! A minimal, dependency-free stand-in for the `proptest` crate.
//!
//! This workspace must build without registry access, so the property
//! tests link against this shim instead of crates.io `proptest`. It
//! implements the subset of the API the tests use — `proptest!`,
//! `prop_assert*!`, `prop_oneof!`, `any::<T>()`, ranges, tuples,
//! `Just`, `prop_map`, `collection::vec`, and `option::of` — with
//! random (not shrinking) case generation driven by a deterministic
//! per-test seed, so failures reproduce exactly.
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — a failing case reports its seed and case index
//!   instead of a minimized input;
//! * `Strategy::generate` draws a value directly rather than building a
//!   `ValueTree`;
//! * the case count defaults to 96 and follows `PROPTEST_CASES`.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod runner;
pub mod strategy;

pub mod prelude {
    //! The usual glob-import surface: `use proptest::prelude::*;`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// becomes a normal test running [`runner::run`] over generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __strategies = ($(&$strat,)*);
                $crate::runner::run(stringify!($name), |__rng| {
                    let ($($arg,)*) = {
                        let ($($arg,)*) = __strategies;
                        ($($crate::strategy::Strategy::generate($arg, __rng),)*)
                    };
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                });
            }
        )*
    };
}

/// Like `assert!` but aborts only the current case with a rich message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// Case-aborting equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a == *b) {
            return Err(format!(
                "assertion failed: {:?} == {:?}: {}", a, b, format!($($fmt)*)
            ));
        }
    }};
}

/// Case-aborting inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(*a != *b) {
            return Err(format!(
                "assertion failed: {:?} != {:?}: {}", a, b, format!($($fmt)*)
            ));
        }
    }};
}

/// Uniform choice among heterogeneous strategies with a common value
/// type (unweighted form only).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u32> {
        (0u32..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 5u32..10, y in -3i32..4, f in 0.25f64..0.75) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((-3..4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn combinators_compose(
            v in crate::collection::vec((any::<bool>(), 0u8..4), 1..20),
            o in crate::option::of(1u16..9),
            e in arb_even(),
            pick in prop_oneof![Just(1u64), Just(2u64), 10u64..20],
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            if let Some(x) = o {
                prop_assert!((1..9).contains(&x));
            }
            prop_assert_eq!(e % 2, 0);
            prop_assert_ne!(pick, 0);
            prop_assert!(pick == 1 || pick == 2 || (10..20).contains(&pick));
        }
    }

    #[test]
    fn same_name_reproduces() {
        let mut a = crate::runner::TestRng::for_test("t", 3);
        let mut b = crate::runner::TestRng::for_test("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
