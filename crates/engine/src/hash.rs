//! The read path's name hasher: an unkeyed FxHash-style multiply-rotate
//! over 8-byte words, in place of std's keyed SipHash-1-3.
//!
//! An estimate hashes its (table, column) names twice: once to choose
//! the catalog stripe and once in the stripe's own map; at SipHash cost
//! that would be a visible share of a ~250 ns read. An unkeyed hash is
//! safe here because every map it keys is filled only by trusted
//! registration ([`StatsCatalog::register`](crate::StatsCatalog::register),
//! [`StatsCatalog::install`](crate::StatsCatalog::install), the
//! service's `register_table`), never by wire input: a client-chosen
//! name can only probe existing entries, so it cannot flood a map with
//! colliding keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the FxHash constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash-style word hasher. Deterministic across threads, runs and
/// builds; not collision-resistant against chosen keys (see the module
/// docs for why that is acceptable).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        // Whole words, then a 4-, 2- and 1-byte tail: a shorter input
        // makes a different sequence of rounds, so "ab" and "ab\0" differ.
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            self.add(u64::from(u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes"))));
            bytes = &bytes[2..];
        }
        if let Some(&byte) = bytes.first() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn fixed_key_and_length_sensitive() {
        assert_eq!(hash_of("orders"), hash_of("orders"), "unkeyed: same input, same hash");
        // Tails hash in length-dependent rounds, and `str` hashing
        // appends a terminator, so neither a trailing zero nor a split
        // collides.
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of(("ab", "c")), hash_of(("a", "bc")));
        assert_ne!(hash_of("amount"), hash_of("amounts"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("column_{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert!((0..100u32).all(|i| m[&format!("column_{i}")] == i));
    }
}
