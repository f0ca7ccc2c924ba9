//! `InlineVec`: a `SmallVec`-style growable vector that stores up to
//! `N` elements inline (no heap allocation) and spills to a `Vec` only
//! beyond that.
//!
//! Built in-tree because this workspace compiles with no registry
//! access, and written in safe Rust: the inline buffer is a plain
//! `[T; N]` (hence the `T: Default` bound for vacant slots) and the
//! spill is an ordinary `Vec<T>`. The invariant is simple — elements
//! live *either* entirely in the inline buffer (`len <= N`, spill
//! empty) *or* entirely in the spill (`len > N`).
//!
//! The hot users are `hack-tcp`'s `TcpSegment::options` (at most four
//! options on any real segment) and the ROHC compressor's output
//! segments (≤ 12 bytes unless SACK blocks pile up) — both previously
//! a guaranteed heap allocation per packet.

#![forbid(unsafe_code)]

pub mod pool;

pub use pool::BufPool;

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable vector with inline storage for the first `N` elements.
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    spill: Vec<T>,
    len: usize,
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec {
            buf: std::array::from_fn(|_| T::default()),
            spill: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True while elements still fit in the inline buffer.
    pub fn is_inline(&self) -> bool {
        self.len <= N
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.buf[..self.len]
        } else {
            &self.spill
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.len <= N {
            &mut self.buf[..self.len]
        } else {
            &mut self.spill
        }
    }

    /// Remove all elements (keeps the spill's capacity, like `Vec`).
    pub fn clear(&mut self) {
        self.spill.clear();
        self.len = 0;
    }
}

impl<T: Default + Clone, const N: usize> InlineVec<T, N> {
    /// Append an element, spilling to the heap on the `N+1`-th.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.buf[self.len] = value;
        } else {
            if self.len == N {
                // First overflow: migrate the inline elements.
                self.spill.reserve(N + 1);
                for slot in &mut self.buf {
                    self.spill.push(std::mem::take(slot));
                }
            }
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Remove and return the last element, if any.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.spill.is_empty() {
            Some(std::mem::take(&mut self.buf[self.len]))
        } else {
            let v = self.spill.pop();
            // Migrate back inline once we fit again, keeping the
            // either/or invariant.
            if self.len <= N {
                for (i, x) in self.spill.drain(..).enumerate() {
                    self.buf[i] = x;
                }
            }
            v
        }
    }

    /// Shorten to `new_len` elements (no-op when already shorter).
    pub fn truncate(&mut self, new_len: usize) {
        while self.len > new_len {
            self.pop();
        }
    }

    /// Append every element of `slice` (clones).
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        if self.len + slice.len() <= N {
            // Fast path: everything stays inline.
            self.buf[self.len..self.len + slice.len()].clone_from_slice(slice);
            self.len += slice.len();
        } else {
            for x in slice {
                self.push(x.clone());
            }
        }
    }
}

impl<T, const N: usize> AsRef<[T]> for InlineVec<T, N> {
    fn as_ref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default + Clone, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() > N {
            let len = v.len();
            InlineVec {
                buf: std::array::from_fn(|_| T::default()),
                spill: v,
                len,
            }
        } else {
            let mut out = Self::new();
            for x in v {
                out.push(x);
            }
            out
        }
    }
}

impl<T: Default + Clone, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        for x in iter {
            out.push(x);
        }
        out
    }
}

impl<T: Default + Clone, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Clone + Default, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        self.as_slice().iter().cloned().collect()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owned iteration: drains inline elements by value.
pub struct IntoIter<T, const N: usize> {
    vec: InlineVec<T, N>,
    front: usize,
}

impl<T: Default + Clone, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.front >= self.vec.len() {
            return None;
        }
        let v = std::mem::take(&mut self.vec.as_mut_slice()[self.front]);
        self.front += 1;
        Some(v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.vec.len() - self.front;
        (n, Some(n))
    }
}

impl<T: Default + Clone, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter {
            vec: self,
            front: 0,
        }
    }
}

/// `inline_vec![a, b, c]` — literal constructor, mirroring `vec!`.
#[macro_export]
macro_rules! inline_vec {
    () => { $crate::InlineVec::new() };
    ($($x:expr),+ $(,)?) => {{
        let mut v = $crate::InlineVec::new();
        $(v.push($x);)+
        v
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<u32, 4>;

    #[test]
    fn push_stays_inline_then_spills() {
        let mut v = V::new();
        for i in 0..4 {
            v.push(i);
            assert!(v.is_inline());
        }
        v.push(4);
        assert!(!v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_migrates_back_inline() {
        let mut v: V = (0..6).collect();
        assert!(!v.is_inline());
        assert_eq!(v.pop(), Some(5));
        assert_eq!(v.pop(), Some(4));
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn from_vec_round_trips() {
        for n in 0..10u32 {
            let src: Vec<u32> = (0..n).collect();
            let iv: V = src.clone().into();
            assert_eq!(iv.as_slice(), src.as_slice());
            assert_eq!(iv, src);
        }
    }

    #[test]
    fn owned_iteration_yields_all() {
        let v: V = (0..7).collect();
        let out: Vec<u32> = v.into_iter().collect();
        assert_eq!(out, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn macro_and_eq() {
        let v: V = inline_vec![1, 2, 3];
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(v[..], [1, 2, 3]);
        let w: V = inline_vec![1, 2, 3];
        assert_eq!(v, w);
    }

    #[test]
    fn clear_and_truncate() {
        let mut v: V = (0..6).collect();
        v.truncate(5);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
        v.truncate(2);
        assert!(v.is_inline());
        assert_eq!(v.as_slice(), &[0, 1]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[u32]);
    }

    #[test]
    fn debug_formats_like_slice() {
        let v: V = inline_vec![9, 8];
        assert_eq!(format!("{v:?}"), "[9, 8]");
    }
}
