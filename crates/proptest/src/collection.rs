//! Collection strategies (`vec`).

use crate::runner::TestRng;
use crate::strategy::Strategy;

/// A length distribution for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<std::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: std::ops::RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64;
        let n = self.size.lo + rng.below(span) as usize;
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// `Vec`s of `elem`-generated values with a length drawn from `size`.
pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        elem,
        size: size.into(),
    }
}
