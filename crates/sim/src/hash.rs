//! A cheap deterministic hasher for the simulator's own lookup tables.
//!
//! `std`'s default SipHash defends against attacker-chosen keys; the
//! keys here (timer kinds, station pairs, client addresses, datagram
//! idents) are generated by the simulator itself, and a per-event
//! lookup pays for that defence tens of nanoseconds at a time. This is
//! the multiply-rotate scheme rustc uses for its own tables: one
//! multiply per word written.
//!
//! Nothing may depend on the iteration order of a [`FastMap`] (none of
//! the simulator's maps is ever iterated for output), and it must not
//! be used for keys that arrive from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed bits (the 64-bit FxHash constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate word hasher. Not collision-resistant; see the module
/// docs for where it may be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes buckets with the low ones.
        self.0.rotate_left(26)
    }
}

/// [`std::hash::BuildHasher`] for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn h<T: Hash>(v: T) -> u64 {
        FastBuildHasher::default().hash_one(v)
    }

    #[test]
    fn small_dense_keys_spread_over_low_bits() {
        // 256 consecutive ids into 256 buckets: a usable table needs
        // most buckets hit, not one chain.
        let mut buckets = [0u32; 256];
        for i in 0u32..256 {
            buckets[(h(i) & 0xff) as usize] += 1;
        }
        let used = buckets.iter().filter(|&&n| n > 0).count();
        assert!(used > 128, "only {used} of 256 buckets used");
    }

    #[test]
    fn tuple_fields_both_matter() {
        assert_ne!(h((1u32, 2u32)), h((2u32, 1u32)));
        assert_ne!(h((0u32, 1u32)), h((0u32, 2u32)));
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(h([1u8, 2, 3].as_slice()), h(vec![1u8, 2, 3].as_slice()));
        assert_ne!(h([1u8, 2, 3].as_slice()), h([1u8, 2, 4].as_slice()));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<(u32, u32), u64> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 7), u64::from(i));
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i ^ 7)), Some(&u64::from(i)));
        }
        assert_eq!(m.len(), 1000);
    }
}
