//! A deterministic integer hasher for the simulator's own keys.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Multiply-rotate hasher for keys the simulator itself issues: chunk
/// handles and stripe ids are allocator counters, object keys come from a
/// trace the workload generator produced. Nobody crafts them to collide,
/// so SipHash's flooding resistance buys nothing on the per-chunk path,
/// and unlike `RandomState` the hash of a key is the same in every
/// process. Keep the default hasher for keys that arrive from outside.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

/// Odd multiplier close to 2⁶⁴/φ: consecutive keys land far apart.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    /// Generic fallback for keys that are not a `u64`: eight bytes per
    /// step, the tail zero-padded (slices and strings hash their length or
    /// a terminator themselves).
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    /// The product's high bits are its best mixed; the table takes its
    /// bucket from the low bits and its control byte from the top seven,
    /// so rotate the high half down and keep good bits at both ends.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    /// Asserts every one of `buckets` holds within 2× of its even share.
    fn assert_spread(hashes: &[u64], buckets: usize, bucket_of: impl Fn(u64) -> usize, what: &str) {
        let mut counts = vec![0usize; buckets];
        for &h in hashes {
            counts[bucket_of(h)] += 1;
        }
        let even = hashes.len() as f64 / buckets as f64;
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(
            min >= even / 2.0 && max <= even * 2.0,
            "{what}: {min}..{max} around {even}"
        );
    }

    #[test]
    fn sequential_and_strided_counters_spread_over_both_ends() {
        // What one device of a 5-wide array sees of the handle counter.
        let sequential: Vec<u64> = (0..1u64 << 16).map(|i| hash_of(&i)).collect();
        let strided: Vec<u64> = (0..1u64 << 16).map(|i| hash_of(&(i * 5 + 3))).collect();
        for (hashes, name) in [(&sequential, "sequential"), (&strided, "stride 5")] {
            assert_spread(hashes, 1 << 10, |h| (h & 0x3FF) as usize, name);
            assert_spread(hashes, 1 << 7, |h| (h >> 57) as usize, name);
        }
    }

    #[test]
    fn object_keys_differing_only_in_oid_do_not_collide() {
        // `ObjectKey`'s shape: two `u64` newtypes hashed field by field.
        #[derive(Hash)]
        struct Pid(u64);
        #[derive(Hash)]
        struct Oid(u64);
        #[derive(Hash)]
        struct Key(Pid, Oid);
        let hashes: HashSet<u64> = (0..100_000u64)
            .map(|i| hash_of(&Key(Pid(0x1_0000), Oid(0x2_0000 + i))))
            .collect();
        assert_eq!(hashes.len(), 100_000);
        let keys: Vec<u64> = hashes.into_iter().collect();
        assert_spread(&keys, 1 << 10, |h| (h & 0x3FF) as usize, "object keys");
    }
}
