//! A compact Bloom filter.
//!
//! HiFIND's phase-3 heuristics (paper §3.4) need to know whether a flooding
//! victim was ever an *active service* (emitted a SYN/ACK) without keeping
//! per-service state — a per-key table would reintroduce exactly the DoS
//! surface sketches remove. A Bloom filter gives one-sided error: an
//! actually-active service is never reported inactive, so the filter can
//! only *keep* (never wrongly drop) true flooding alerts.

use hifind_flow::rng::SplitMix64;
use serde::{Deserialize, Serialize};

/// A fixed-size Bloom filter over packed `u64` keys.
///
/// # Example
///
/// ```
/// use hifind_hashing::BloomFilter;
///
/// let mut bloom = BloomFilter::new(1 << 16, 4, 7);
/// bloom.insert(42);
/// assert!(bloom.contains(42));
/// assert!(!bloom.contains(43)); // (with high probability)
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    seeds: Vec<u64>,
    inserted: u64,
}

impl BloomFilter {
    /// Creates a filter with `bit_count` bits (power of two) and `hashes`
    /// hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `bit_count` is not a power of two or `hashes == 0`.
    pub fn new(bit_count: usize, hashes: usize, seed: u64) -> Self {
        assert!(
            bit_count.is_power_of_two() && bit_count >= 64,
            "bit count must be a power of two >= 64"
        );
        assert!(hashes > 0, "need at least one hash function");
        let mut rng = SplitMix64::new(seed);
        BloomFilter {
            bits: vec![0; bit_count / 64],
            mask: bit_count as u64 - 1,
            seeds: (0..hashes).map(|_| rng.next_u64() | 1).collect(),
            inserted: 0,
        }
    }

    /// Inserts a key.
    #[inline]
    pub fn insert(&mut self, key: u64) {
        for &s in &self.seeds {
            let bit = key.wrapping_mul(s).rotate_left(31) & self.mask;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Tests membership (no false negatives; false positives possible).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.seeds.iter().all(|&s| {
            let bit = key.wrapping_mul(s).rotate_left(31) & self.mask;
            self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Number of insert operations performed (not distinct keys).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Fraction of bits set — a saturation indicator.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / (self.bits.len() * 64) as f64
    }

    /// Merges another filter into this one (bitwise OR). Both filters must
    /// share size, hash count and seed so their bit positions agree.
    ///
    /// # Panics
    ///
    /// Panics if the filters are not structurally identical.
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!(self.bits.len(), other.bits.len(), "bloom sizes differ");
        assert_eq!(self.seeds, other.seeds, "bloom seeds differ");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        self.inserted = self.inserted.wrapping_add(other.inserted);
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }

    /// The raw bit words (64 bits each), for wire codecs.
    pub fn bit_words(&self) -> &[u64] {
        &self.bits
    }

    /// The per-hash-function seeds, for wire codecs.
    pub fn hash_seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Rebuilds a filter from its serialized parts (the decode half of a
    /// wire codec, so it validates instead of panicking).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated structural constraint:
    /// the word count must be a power of two (≥ 1 word = 64 bits) and at
    /// least one hash seed is required.
    pub fn from_parts(bits: Vec<u64>, seeds: Vec<u64>, inserted: u64) -> Result<Self, String> {
        if bits.is_empty() || !bits.len().is_power_of_two() {
            return Err(format!(
                "bloom word count {} is not a power of two >= 1",
                bits.len()
            ));
        }
        if seeds.is_empty() {
            return Err("bloom filter needs at least one hash seed".into());
        }
        let mask = (bits.len() as u64) * 64 - 1;
        Ok(BloomFilter {
            bits,
            mask,
            seeds,
            inserted,
        })
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(1 << 16, 4, 1);
        for k in 0..1000u64 {
            b.insert(k * 7919);
        }
        for k in 0..1000u64 {
            assert!(b.contains(k * 7919));
        }
    }

    #[test]
    fn low_false_positive_rate_when_sized_right() {
        let mut b = BloomFilter::new(1 << 16, 4, 2);
        for k in 0..2000u64 {
            b.insert(k);
        }
        let fps = (1_000_000..1_010_000u64).filter(|&k| b.contains(k)).count();
        assert!(fps < 200, "false positive count {fps} too high");
    }

    #[test]
    fn clear_resets() {
        let mut b = BloomFilter::new(1 << 10, 3, 3);
        b.insert(5);
        b.clear();
        assert!(!b.contains(5));
        assert_eq!(b.inserted(), 0);
        assert_eq!(b.fill_ratio(), 0.0);
    }

    #[test]
    fn fill_ratio_grows() {
        let mut b = BloomFilter::new(1 << 10, 3, 4);
        let before = b.fill_ratio();
        for k in 0..100u64 {
            b.insert(k);
        }
        assert!(b.fill_ratio() > before);
        assert_eq!(b.memory_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_size() {
        let _ = BloomFilter::new(1000, 3, 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut b = BloomFilter::new(1 << 10, 3, 9);
        for k in 0..50u64 {
            b.insert(k * 31);
        }
        let back = BloomFilter::from_parts(
            b.bit_words().to_vec(),
            b.hash_seeds().to_vec(),
            b.inserted(),
        )
        .unwrap();
        assert_eq!(back, b);
        for k in 0..50u64 {
            assert!(back.contains(k * 31));
        }
    }

    #[test]
    fn from_parts_validates_structure() {
        assert!(BloomFilter::from_parts(vec![], vec![1], 0).is_err());
        assert!(BloomFilter::from_parts(vec![0; 3], vec![1], 0).is_err());
        assert!(BloomFilter::from_parts(vec![0; 4], vec![], 0).is_err());
    }
}
