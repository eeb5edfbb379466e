//! The original k-ary sketch (Krishnamurthy et al., IMC'03).

use crate::grid::CounterGrid;
use crate::simd::UPDATE_CHUNK;
use crate::{median_i64, unbiased_median, SketchError};
use hifind_flow::rng::SplitMix64;
use hifind_hashing::{BucketHasher, PairwiseHasher};
use serde::{Deserialize, Serialize};

/// Configuration for a [`KarySketch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KaryConfig {
    /// Number of independent hash stages (`H`, paper default 6).
    pub stages: usize,
    /// Buckets per stage (`m`, a power of two; paper default 2^14 for the
    /// "original sketch").
    pub buckets: usize,
    /// Master seed for the stage hash functions.
    pub seed: u64,
}

impl KaryConfig {
    /// The paper's "OS" configuration: 6 stages × 2^14 buckets.
    pub fn paper_os(seed: u64) -> Self {
        KaryConfig {
            stages: 6,
            buckets: 1 << 14,
            seed,
        }
    }

    fn validate(&self) -> Result<(), SketchError> {
        if self.stages == 0 {
            return Err(SketchError::BadConfig("stages must be positive".into()));
        }
        if !self.buckets.is_power_of_two() || self.buckets < 2 {
            return Err(SketchError::BadConfig(format!(
                "buckets {} must be a power of two >= 2",
                self.buckets
            )));
        }
        Ok(())
    }
}

/// The hash family of a k-ary sketch: its configuration and one pairwise
/// hash per stage. It holds no counters; UPDATE and every read take the
/// grid they work on — a sketch's own, a recorder's, a COMBINE sum or a
/// forecast-error grid — so each is defined once for all of them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KaryHash {
    config: KaryConfig,
    hashers: Vec<PairwiseHasher>,
}

impl KaryHash {
    /// Derives the stage hashes from the configuration's seed.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::BadConfig`] for zero stages or a non-power-of-
    /// two bucket count.
    pub fn new(config: KaryConfig) -> Result<Self, SketchError> {
        config.validate()?;
        let mut rng = SplitMix64::new(config.seed);
        let hashers = (0..config.stages)
            .map(|i| PairwiseHasher::new(&mut rng.fork(i as u64), config.buckets))
            .collect();
        Ok(KaryHash { config, hashers })
    }

    /// The configuration the hashes were derived from.
    pub fn config(&self) -> &KaryConfig {
        &self.config
    }

    /// UPDATE into `grid`: adds `delta` to the key's bucket in every stage.
    ///
    /// The per-key primitive and the scalar reference for
    /// [`KaryHash::update_batch_premixed`], which is what the record plane
    /// calls.
    #[inline]
    pub fn update(&self, grid: &mut CounterGrid, key: u64, delta: i64) {
        let premixed = PairwiseHasher::premix(key);
        for (stage, h) in self.hashers.iter().enumerate() {
            grid.add(stage, h.bucket_premixed(premixed), delta);
        }
    }

    /// Batched UPDATE into `grid`: applies `deltas[i]` under key premix
    /// `premixed[i]` for the whole batch, bit-identical to calling
    /// [`KaryHash::update`] once per element (on the key `premixed[i]` was
    /// mixed from) in order.
    ///
    /// The batch is processed stage-major in [`UPDATE_CHUNK`]-packet runs.
    /// Each run makes two passes: first the [`crate::simd`] kernel finishes
    /// the chunk's bucket indices for *every* stage and issues prefetch
    /// hints for all of them ([`crate::simd::SketchKernel::prefetch_buckets`]),
    /// then the scatter walks the stages applying the saturating adds — so
    /// on a sketch whose working set dwarfs L2 the misses of all stages
    /// stream in concurrently while the remaining indices are still being
    /// hashed, instead of each stage paying its latency on demand.
    /// Reordering packet × stage iteration is safe because every counter
    /// belongs to exactly one stage and within a stage packets are applied
    /// in order, so each cell sees the same saturating-add sequence as the
    /// serial path.
    pub fn update_batch_premixed(&self, grid: &mut CounterGrid, premixed: &[u64], deltas: &[i64]) {
        debug_assert_eq!(premixed.len(), deltas.len());
        let n = premixed.len().min(deltas.len());
        let kernel = crate::simd::kernel();
        let stages = self.hashers.len();
        let mut idx = vec![0u64; stages * UPDATE_CHUNK];
        let mut start = 0;
        while start < n {
            let end = (start + UPDATE_CHUNK).min(n);
            let pre = &premixed[start..end];
            let del = &deltas[start..end];
            for (stage, h) in self.hashers.iter().enumerate() {
                let (a, b, shift) = h.coefficients();
                let buf = &mut idx[stage * UPDATE_CHUNK..][..pre.len()];
                kernel.buckets_premixed(pre, a, b, shift, buf);
                kernel.prefetch_buckets(grid.stage(stage), buf);
            }
            for stage in 0..stages {
                let row = grid.stage_mut(stage);
                for (&bucket, &d) in idx[stage * UPDATE_CHUNK..][..pre.len()].iter().zip(del) {
                    let cell = &mut row[bucket as usize];
                    *cell = cell.saturating_add(d);
                }
            }
            start = end;
        }
    }

    /// ESTIMATE: the median over stages of the per-stage unbiased estimator
    /// `(v_bucket − total/m) / (1 − 1/m)`, read from `grid`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the grid shape differs from the
    /// configuration's.
    pub fn estimate(&self, grid: &CounterGrid, key: u64) -> i64 {
        self.estimate_with_sums(grid, key, &self.stage_sums(grid))
    }

    /// The per-stage sums of `grid`, for amortizing many
    /// [`KaryHash::estimate_with_sums`] calls against the same grid
    /// (inference estimates every candidate key; the sums are identical for
    /// all of them and cost a full grid walk each time otherwise).
    pub fn stage_sums(&self, grid: &CounterGrid) -> Vec<i64> {
        (0..grid.stages()).map(|s| grid.stage_sum(s)).collect()
    }

    /// [`KaryHash::estimate`] with the per-stage sums precomputed by
    /// [`KaryHash::stage_sums`]; bit-identical to `estimate`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the grid shape or `sums` length differs
    /// from the configuration.
    pub fn estimate_with_sums(&self, grid: &CounterGrid, key: u64, sums: &[i64]) -> i64 {
        debug_assert_eq!(grid.stages(), self.config.stages);
        debug_assert_eq!(grid.buckets(), self.config.buckets);
        debug_assert_eq!(sums.len(), self.config.stages);
        let cells = self.hashers.iter().enumerate().zip(sums);
        unbiased_median(
            cells.map(|((stage, h), &sum)| (grid.get(stage, h.bucket(key)), sum)),
            self.config.buckets,
        )
    }

    /// The raw median of the key's bucket values in `grid`, without bias
    /// correction.
    pub fn raw_estimate(&self, grid: &CounterGrid, key: u64) -> i64 {
        let mut values: Vec<i64> = self
            .hashers
            .iter()
            .enumerate()
            .map(|(stage, h)| grid.get(stage, h.bucket(key)))
            .collect();
        median_i64(&mut values)
    }

    /// Bytes held by the stage hashes.
    pub fn memory_bytes(&self) -> usize {
        self.hashers.len() * std::mem::size_of::<PairwiseHasher>()
    }
}

/// The k-ary sketch: a [`KaryHash`] and the counter grid it records into.
///
/// Supports the paper's `UPDATE(S, y, v)`; `ESTIMATE(S, y)` is
/// [`KaryHash::estimate`] over [`KarySketch::grid`], and `COMBINE` is the
/// sum of the sketches' grids ([`CounterGrid::add_assign_many`]). It is
/// *not* reversible — `INFERENCE` requires [`crate::ReversibleSketch`].
///
/// # Example
///
/// ```
/// use hifind_sketch::{KaryConfig, KarySketch};
///
/// let mut s = KarySketch::new(KaryConfig { stages: 4, buckets: 1024, seed: 3 }).unwrap();
/// s.update(42, 100);
/// for k in 0..500 { s.update(k, 1); }
/// let est = s.hash().estimate(s.grid(), 42);
/// assert!((est - 101).abs() <= 5, "estimate {est} should be close to 101");
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KarySketch {
    hash: KaryHash,
    grid: CounterGrid,
}

impl KarySketch {
    /// Creates an empty sketch.
    ///
    /// # Errors
    ///
    /// As [`KaryHash::new`].
    pub fn new(config: KaryConfig) -> Result<Self, SketchError> {
        Ok(KarySketch {
            hash: KaryHash::new(config)?,
            grid: CounterGrid::new(config.stages, config.buckets),
        })
    }

    /// The hash family every read of this sketch's grid goes through.
    pub fn hash(&self) -> &KaryHash {
        &self.hash
    }

    /// UPDATE ([`KaryHash::update`]) into this sketch's grid.
    #[inline]
    pub fn update(&mut self, key: u64, delta: i64) {
        self.hash.update(&mut self.grid, key, delta);
    }

    /// Batched UPDATE ([`KaryHash::update_batch_premixed`]) into this
    /// sketch's grid.
    pub fn update_batch_premixed(&mut self, premixed: &[u64], deltas: &[i64]) {
        self.hash
            .update_batch_premixed(&mut self.grid, premixed, deltas);
    }

    /// Borrows the counter grid.
    pub fn grid(&self) -> &CounterGrid {
        &self.grid
    }

    /// Moves the counters out ([`CounterGrid::take`]), leaving the sketch
    /// zeroed with its hash functions intact.
    pub fn take_counters(&mut self) -> CounterGrid {
        self.grid.take()
    }

    /// Memory accounting for Table 9.
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes() + self.hash.memory_bytes()
    }

    /// Number of counter memory accesses per update (one per stage).
    ///
    /// This counts *counter* accesses only, which is what the paper's
    /// per-packet budget measures. Sharing hash work across sketches (the
    /// recorder's per-packet hash plan, fed through
    /// [`KaryHash::update_batch_premixed`]) removes redundant ALU work but
    /// touches exactly the same counters, so this figure is identical on
    /// both update paths.
    pub fn accesses_per_update(&self) -> usize {
        self.hash.config.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KarySketch {
        KarySketch::new(KaryConfig {
            stages: 5,
            buckets: 1 << 10,
            seed: 11,
        })
        .unwrap()
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(KarySketch::new(KaryConfig {
            stages: 0,
            buckets: 16,
            seed: 0
        })
        .is_err());
        assert!(KarySketch::new(KaryConfig {
            stages: 2,
            buckets: 100,
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn single_key_estimate_exact_without_noise() {
        let mut s = small();
        s.update(99, 1234);
        // total == bucket value, so the unbiased estimator has a tiny
        // correction; the estimate must be within 2 of the truth.
        assert!((s.hash().estimate(s.grid(), 99) - 1234).abs() <= 2);
        assert_eq!(s.hash().raw_estimate(s.grid(), 99), 1234);
    }

    #[test]
    fn estimate_under_noise() {
        let mut s = small();
        s.update(7777, 1000);
        let mut rng = SplitMix64::new(5);
        for _ in 0..5000 {
            s.update(rng.next_u64(), 1);
        }
        let est = s.hash().estimate(s.grid(), 7777);
        assert!((est - 1000).abs() < 100, "estimate {est} too far from 1000");
    }

    #[test]
    fn negative_updates_supported() {
        let mut s = small();
        s.update(1, 50);
        s.update(1, -50);
        assert_eq!(s.hash().raw_estimate(s.grid(), 1), 0);
        assert_eq!(s.grid().stage_sum(0), 0);
    }

    #[test]
    fn absent_key_estimates_near_zero() {
        let mut s = small();
        let mut rng = SplitMix64::new(6);
        for _ in 0..2000 {
            s.update(rng.next_u64(), 1);
        }
        let est = s.hash().estimate(s.grid(), 0xDEAD_BEEF_0000_0001);
        assert!(est.abs() < 50, "phantom estimate {est}");
    }

    #[test]
    fn combine_equals_merged_updates() {
        let mut a = small();
        let mut b = small();
        let mut merged = small();
        let mut rng = SplitMix64::new(7);
        let mut keys = Vec::new();
        for i in 0..1000 {
            let k = rng.next_u64();
            let v = (rng.below(20) as i64) - 5;
            if i % 2 == 0 {
                a.update(k, v);
            } else {
                b.update(k, v);
            }
            merged.update(k, v);
            keys.push(k);
        }
        let mut sum = a.grid().clone();
        sum.add_assign_many(&[b.grid()]).unwrap();
        assert_eq!(&sum, merged.grid());
        assert_eq!(
            a.grid().stage_sum(0) + b.grid().stage_sum(0),
            merged.grid().stage_sum(0)
        );
        for &k in keys.iter().take(100) {
            assert_eq!(
                merged.hash().estimate(&sum, k),
                merged.hash().estimate(merged.grid(), k)
            );
        }
    }

    #[test]
    fn take_counters_resets_state() {
        let mut s = small();
        s.update(1, 5);
        let expected = s.grid().clone();
        assert_eq!(s.take_counters(), expected);
        assert_eq!(s.grid().stage_sum(0), 0);
        assert!(s.grid().is_zero());
        // The hash functions survive: the next interval records as before.
        s.update(1, 5);
        assert_eq!(s.grid(), &expected);
    }

    #[test]
    fn premixed_update_matches_plain_update() {
        // One premixed key per call: a batch of one, as the recorder
        // scatters an interval's first plans.
        let mut plain = small();
        let mut premixed = small();
        let mut rng = SplitMix64::new(17);
        for _ in 0..2000 {
            let k = rng.next_u64();
            let v = (rng.below(9) as i64) - 4;
            plain.update(k, v);
            premixed.update_batch_premixed(&[PairwiseHasher::premix(k)], &[v]);
        }
        assert_eq!(premixed.grid(), plain.grid());
        assert_eq!(premixed.grid().stage_sum(0), plain.grid().stage_sum(0));
    }

    #[test]
    fn batched_update_matches_serial_update() {
        // Batch lengths around the chunk size (and a batch of one), mixed-
        // sign deltas, and a saturating cell: the batched path must be
        // bit-identical to per-key `update` on one shared sketch.
        let mut serial = small();
        let mut batched = small();
        let mut rng = SplitMix64::new(23);
        for len in [0, 1, 63, 64, 65, 257] {
            let mut premixed = Vec::new();
            let mut deltas = Vec::new();
            for i in 0..len {
                let k = rng.next_u64();
                let d = if i == 5 {
                    i64::MAX
                } else {
                    (rng.below(9) as i64) - 4
                };
                serial.update(k, d);
                premixed.push(PairwiseHasher::premix(k));
                deltas.push(d);
            }
            batched.update_batch_premixed(&premixed, &deltas);
            assert_eq!(batched.grid(), serial.grid(), "batch of {len}");
            assert_eq!(
                batched.grid().stage_sum(0),
                serial.grid().stage_sum(0),
                "batch of {len}"
            );
        }
    }

    #[test]
    fn estimate_with_precomputed_sums_matches_estimate() {
        let mut s = small();
        let mut rng = SplitMix64::new(29);
        for _ in 0..3000 {
            s.update(rng.next_u64(), 1);
        }
        let sums = s.hash().stage_sums(s.grid());
        for key in [0u64, 7777, u64::MAX, 42] {
            assert_eq!(
                s.hash().estimate_with_sums(s.grid(), key, &sums),
                s.hash().estimate(s.grid(), key)
            );
        }
    }

    #[test]
    fn accesses_per_update_is_stage_count() {
        assert_eq!(small().accesses_per_update(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = small();
        s.update(123, 7);
        let json = serde_json::to_string(&s).unwrap();
        let back: KarySketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.hash().raw_estimate(back.grid(), 123), 7);
    }
}
