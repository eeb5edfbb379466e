//! The original k-ary sketch (Krishnamurthy et al., IMC'03).

use crate::grid::CounterGrid;
use crate::simd::UPDATE_CHUNK;
use crate::{median_i64, SketchError};
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

    /// The paper's verification-sketch configuration: 6 stages × 2^14
    /// buckets (used to cross-check keys recovered by inference).
    pub fn paper_verification(seed: u64) -> Self {
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

/// The k-ary sketch: `H` independent hash stages over `m` counters each.
///
/// Supports the paper's `UPDATE(S, y, v)`, `ESTIMATE(S, y)` and
/// `COMBINE(c₁,S₁,…,cₖ,Sₖ)` functions (Table 2). It is *not* reversible —
/// `INFERENCE` requires [`crate::ReversibleSketch`].
///
/// # Example
///
/// ```
/// use hifind_sketch::{KaryConfig, KarySketch};
///
/// let mut s = KarySketch::new(KaryConfig { stages: 4, buckets: 1024, seed: 3 }).unwrap();
/// s.update(42, 100);
/// for k in 0..500 { s.update(k, 1); }
/// let est = s.estimate(42);
/// assert!((est - 101).abs() <= 5, "estimate {est} should be close to 101");
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KarySketch {
    config: KaryConfig,
    hashers: Vec<PairwiseHasher>,
    grid: CounterGrid,
    /// Total update mass (Σ v over all updates); equals each stage's sum.
    total: i64,
}

impl KarySketch {
    /// Creates an empty sketch.
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
        Ok(KarySketch {
            config,
            hashers,
            grid: CounterGrid::new(config.stages, config.buckets),
            total: 0,
        })
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> &KaryConfig {
        &self.config
    }

    /// UPDATE: adds `delta` to the key's bucket in every stage.
    ///
    /// The per-key primitive and the scalar reference for
    /// [`KarySketch::update_batch_premixed`], which is what the record
    /// plane calls.
    #[inline]
    pub fn update(&mut self, key: u64, delta: i64) {
        let premixed = PairwiseHasher::premix(key);
        for (stage, h) in self.hashers.iter().enumerate() {
            self.grid.add(stage, h.bucket_premixed(premixed), delta);
        }
        self.total = self.total.saturating_add(delta);
    }

    /// Batched UPDATE: applies `deltas[i]` under key premix `premixed[i]`
    /// for the whole batch, bit-identical to calling [`KarySketch::update`]
    /// once per element (on the key `premixed[i]` was mixed from) in order.
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
    pub fn update_batch_premixed(&mut self, premixed: &[u64], deltas: &[i64]) {
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
                kernel.prefetch_buckets(self.grid.stage(stage), buf);
            }
            for stage in 0..stages {
                let row = self.grid.stage_mut(stage);
                for (&bucket, &d) in idx[stage * UPDATE_CHUNK..][..pre.len()].iter().zip(del) {
                    let cell = &mut row[bucket as usize];
                    *cell = cell.saturating_add(d);
                }
            }
            for &d in del {
                self.total = self.total.saturating_add(d);
            }
            start = end;
        }
    }

    /// ESTIMATE: the median over stages of the per-stage unbiased estimator
    /// `(v_bucket − total/m) / (1 − 1/m)`.
    pub fn estimate(&self, key: u64) -> i64 {
        self.estimate_grid(&self.grid, key)
    }

    /// ESTIMATE against an external grid (e.g. a forecast-error grid) using
    /// this sketch's hash functions.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the grid shape differs from this sketch's.
    pub fn estimate_grid(&self, grid: &CounterGrid, key: u64) -> i64 {
        self.estimate_grid_with_sums(grid, key, &self.stage_sums(grid))
    }

    /// The per-stage sums of `grid`, for amortizing many
    /// [`KarySketch::estimate_grid_with_sums`] calls against the same grid
    /// (inference estimates every candidate key; the sums are identical for
    /// all of them and cost a full grid walk each time otherwise).
    pub fn stage_sums(&self, grid: &CounterGrid) -> Vec<i64> {
        (0..grid.stages()).map(|s| grid.stage_sum(s)).collect()
    }

    /// [`KarySketch::estimate_grid`] with the per-stage sums precomputed by
    /// [`KarySketch::stage_sums`]; bit-identical to `estimate_grid`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the grid shape or `sums` length differs
    /// from this sketch's configuration.
    pub fn estimate_grid_with_sums(&self, grid: &CounterGrid, key: u64, sums: &[i64]) -> i64 {
        debug_assert_eq!(grid.stages(), self.config.stages);
        debug_assert_eq!(grid.buckets(), self.config.buckets);
        debug_assert_eq!(sums.len(), self.config.stages);
        let m = self.config.buckets as f64;
        let mut estimates: Vec<i64> = Vec::with_capacity(self.config.stages);
        for ((stage, h), &stage_sum) in self.hashers.iter().enumerate().zip(sums) {
            let v = grid.get(stage, h.bucket(key)) as f64;
            let sum = stage_sum as f64;
            let unbiased = (v - sum / m) / (1.0 - 1.0 / m);
            estimates.push(unbiased.round() as i64);
        }
        median_i64(&mut estimates)
    }

    /// The raw median of the key's bucket values, without bias correction.
    pub fn raw_estimate(&self, key: u64) -> i64 {
        let mut values: Vec<i64> = self
            .hashers
            .iter()
            .enumerate()
            .map(|(stage, h)| self.grid.get(stage, h.bucket(key)))
            .collect();
        median_i64(&mut values)
    }

    /// COMBINE: the linear combination `Σ cᵢ·Sᵢ`.
    ///
    /// # Errors
    ///
    /// All sketches must share the same configuration (including seed);
    /// otherwise [`SketchError::CombineMismatch`]. An empty list yields
    /// [`SketchError::CombineEmpty`].
    pub fn combine(terms: &[(f64, &KarySketch)]) -> Result<KarySketch, SketchError> {
        let (_, first) = terms.first().ok_or(SketchError::CombineEmpty)?;
        for (_, s) in terms {
            if s.config != first.config {
                return Err(SketchError::CombineMismatch);
            }
        }
        let grids: Vec<(f64, &CounterGrid)> = terms.iter().map(|(c, s)| (*c, &s.grid)).collect();
        let grid = CounterGrid::linear_combination(&grids)?;
        let total = terms
            .iter()
            .map(|(c, s)| c * s.total as f64)
            .sum::<f64>()
            .round() as i64;
        Ok(KarySketch {
            config: first.config,
            hashers: first.hashers.clone(),
            grid,
            total,
        })
    }

    /// Borrows the counter grid.
    pub fn grid(&self) -> &CounterGrid {
        &self.grid
    }

    /// Total update mass.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Moves the counters out ([`CounterGrid::take`]), leaving the sketch
    /// zeroed with its hash functions intact.
    pub fn take_counters(&mut self) -> CounterGrid {
        self.total = 0;
        self.grid.take()
    }

    /// Memory accounting for Table 9.
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes() + self.hashers.len() * std::mem::size_of::<PairwiseHasher>()
    }

    /// Number of counter memory accesses per update (one per stage).
    ///
    /// This counts *counter* accesses only, which is what the paper's
    /// per-packet budget measures. Sharing hash work across sketches (the
    /// recorder's per-packet hash plan, fed through
    /// [`KarySketch::update_batch_premixed`]) removes redundant ALU work but
    /// touches exactly the same counters, so this figure is identical on
    /// both update paths.
    pub fn accesses_per_update(&self) -> usize {
        self.config.stages
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
        assert!((s.estimate(99) - 1234).abs() <= 2);
        assert_eq!(s.raw_estimate(99), 1234);
    }

    #[test]
    fn estimate_under_noise() {
        let mut s = small();
        s.update(7777, 1000);
        let mut rng = SplitMix64::new(5);
        for _ in 0..5000 {
            s.update(rng.next_u64(), 1);
        }
        let est = s.estimate(7777);
        assert!((est - 1000).abs() < 100, "estimate {est} too far from 1000");
    }

    #[test]
    fn negative_updates_supported() {
        let mut s = small();
        s.update(1, 50);
        s.update(1, -50);
        assert_eq!(s.raw_estimate(1), 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn absent_key_estimates_near_zero() {
        let mut s = small();
        let mut rng = SplitMix64::new(6);
        for _ in 0..2000 {
            s.update(rng.next_u64(), 1);
        }
        let est = s.estimate(0xDEAD_BEEF_0000_0001);
        assert!(est.abs() < 50, "phantom estimate {est}");
    }

    #[test]
    fn combine_equals_merged_updates() {
        let mut a = small();
        let mut b = small();
        let mut merged = small();
        let mut rng = SplitMix64::new(7);
        for i in 0..1000 {
            let k = rng.next_u64();
            let v = (rng.below(20) as i64) - 5;
            if i % 2 == 0 {
                a.update(k, v);
            } else {
                b.update(k, v);
            }
            merged.update(k, v);
        }
        let combined = KarySketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        assert_eq!(combined.grid(), merged.grid());
        assert_eq!(combined.total(), merged.total());
    }

    #[test]
    fn combine_rejects_mismatched_seeds() {
        let a = small();
        let b = KarySketch::new(KaryConfig {
            stages: 5,
            buckets: 1 << 10,
            seed: 12,
        })
        .unwrap();
        assert_eq!(
            KarySketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap_err(),
            SketchError::CombineMismatch
        );
        assert_eq!(
            KarySketch::combine(&[]).unwrap_err(),
            SketchError::CombineEmpty
        );
    }

    #[test]
    fn combine_with_coefficients() {
        let mut a = small();
        a.update(5, 10);
        let scaled = KarySketch::combine(&[(2.5, &a)]).unwrap();
        assert_eq!(scaled.raw_estimate(5), 25);
        assert_eq!(scaled.total(), 25);
    }

    #[test]
    fn take_counters_resets_state() {
        let mut s = small();
        s.update(1, 5);
        let expected = s.grid().clone();
        assert_eq!(s.take_counters(), expected);
        assert_eq!(s.total(), 0);
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
        assert_eq!(premixed.total(), plain.total());
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
            assert_eq!(batched.total(), serial.total(), "batch of {len}");
        }
    }

    #[test]
    fn estimate_with_precomputed_sums_matches_estimate() {
        let mut s = small();
        let mut rng = SplitMix64::new(29);
        for _ in 0..3000 {
            s.update(rng.next_u64(), 1);
        }
        let sums = s.stage_sums(s.grid());
        for key in [0u64, 7777, u64::MAX, 42] {
            assert_eq!(
                s.estimate_grid_with_sums(s.grid(), key, &sums),
                s.estimate(key)
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
        assert_eq!(back.raw_estimate(123), 7);
    }
}
