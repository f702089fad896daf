//! A fast, deterministic hasher for in-process maps.
//!
//! `std`'s default `SipHash` resists hash flooding, which maps keyed by the
//! program's own integers and hash-consed terms do not need, and it costs
//! tens of nanoseconds per small key. [`FxHasher`] is the add-multiply
//! hash `rustc` uses for the same kind of map: one multiply per word, and
//! no per-process random seed, so a map's layout is the same on every run.
//! Nothing may depend on its iteration order all the same — it is not
//! sorted, and callers that emit a map's contents sort them first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of `rustc`'s `FxHasher` (an odd constant with good bit
/// dispersion).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Add-multiply hasher for small fixed-size keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's entropy sits in its high bits, while hash tables pick
    /// buckets from the low ones; rotating brings the high bits down (keys
    /// that are multiples of 4, like byte addresses, would otherwise share
    /// their low bucket bits).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` on [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` on [`FxHasher`].
pub type FastSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashing_is_deterministic_across_builders() {
        assert_eq!(hash_of((7u64, 9u32)), hash_of((7u64, 9u32)));
        assert_ne!(hash_of((7u64, 9u32)), hash_of((9u64, 7u32)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut a = FxHasher::default();
        a.write(b"0123456789");
        let mut b = FxHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn word_aligned_keys_spread_over_low_bits() {
        // Byte addresses of 32-bit words: the low bucket bits must still vary.
        let low: FastSet<u64> = (0..64u64).map(|w| hash_of(4 * w) & 63).collect();
        assert!(low.len() > 32, "only {} of 64 low-bit patterns", low.len());
    }

    #[test]
    fn maps_work_as_maps() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(4 * 321)), Some(&321));
    }
}
