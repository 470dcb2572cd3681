//! A multiplicative (Fx-style) hasher for tables keyed by values the
//! simulation assigns itself — TEIDs, UE IPs, SEIDs, rule ids, counter
//! names.
//!
//! Std's `RandomState` (SipHash-1-3 with a per-process key) exists to stop
//! an adversary from choosing keys that collide. None of these keys is
//! chosen by a packet or a peer: the core's allocators hand them out, so
//! an unkeyed hash opens no flooding surface, and a multiply per word
//! replaces SipHash's rounds. Iteration order over a `RandomState` map is
//! already unspecified, so no output can have depended on it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// One word per step: add, then multiply by an odd constant (the
/// constant and the final rotation are rustc-hash 2's).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Shifted in byte by byte: a `copy_from_slice` into a zeroed
            // word compiles to a `memcpy` call that costs more than SipHash.
            let mut word = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                word |= u64::from(b) << (8 * i);
            }
            self.add(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
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

    /// A product's entropy sits in its high bits; the table indexes
    /// buckets by the low bits, so rotate the high ones down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    /// Max bucket load over the mean, hashing `keys` into `2^bits`
    /// buckets by `bucket(hash)`.
    fn worst_over_mean(keys: &[u64], bits: u32, bucket: impl Fn(u64) -> usize) -> f64 {
        let mut load = vec![0u32; 1 << bits];
        for &h in keys {
            load[bucket(h)] += 1;
        }
        let mean = keys.len() as f64 / load.len() as f64;
        f64::from(*load.iter().max().expect("buckets")) / mean
    }

    #[test]
    fn allocator_keys_spread_over_tag_and_bucket_bits() {
        // 2^16 sequential TEIDs and UE IPs, as the allocators hand them
        // out. A swiss table probes by the low bits and filters by the
        // top seven; both must spread.
        for (name, key) in [
            ("teid", (|i| 0x1000 + i) as fn(u32) -> u32),
            ("ue ip", |i| 0x0a3c_0000 | i),
        ] {
            let hashes: Vec<u64> = (0..1u32 << 16).map(|i| hash_of(key(i))).collect();
            for bits in [7, 12, 16] {
                let low = worst_over_mean(&hashes, bits, |h| (h & ((1 << bits) - 1)) as usize);
                assert!(
                    low <= 4.0,
                    "{name}: low {bits} bits, worst bucket {low}x mean"
                );
            }
            let tag = worst_over_mean(&hashes, 7, |h| (h >> 57) as usize);
            assert!(tag <= 4.0, "{name}: top 7 bits, worst tag {tag}x mean");
        }
    }

    #[test]
    fn strings_hash_every_byte() {
        assert_ne!(hash_of("ul_forwarded"), hash_of("dl_forwarded"));
        assert_ne!(hash_of("drop_no_pdr"), hash_of("drop_no_pdq"));
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_eq!(hash_of("ul_forwarded"), hash_of("ul_forwarded"));
    }

    #[test]
    fn fast_map_is_a_hash_map() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(0x1000, "a");
        m.insert(0x1001, "b");
        assert_eq!(m.get(&0x1000), Some(&"a"));
        assert_eq!(m.remove(&0x1001), Some("b"));
        assert_eq!(m.len(), 1);
    }
}
