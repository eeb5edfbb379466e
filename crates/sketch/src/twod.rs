//! The two-dimensional k-ary sketch (paper §4).
//!
//! `H` independent `Kx × Ky` hash matrices. UPDATE hashes an x-key (e.g.
//! `{SIP,DIP}`) to a column and a y-key (e.g. `Dport`) to a row within that
//! column, and adds the value to the selected cell of every matrix.
//!
//! After the reversible sketch has *detected* an x-key, the column the x-key
//! selects reveals the **distribution** of the y values it was updated with:
//! SYN flooding concentrates on one or two ports, a vertical scan spreads
//! over many. The classifier computes, per matrix, the fraction
//! `S_p / B` of the column's positive mass held by its top `p` buckets; if
//! `S_p > φ·B` the matrix votes *concentrated*, and the majority of the `H`
//! matrices decides (paper's `p = 5` of 64, `φ = 0.8`).

use crate::grid::CounterGrid;
use crate::simd::UPDATE_CHUNK;
use crate::SketchError;
use hifind_flow::rng::SplitMix64;
use hifind_hashing::{BucketHasher, PairwiseHasher};
use serde::{Deserialize, Serialize};

/// Configuration for a [`TwoDSketch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoDConfig {
    /// Number of hash matrices (`H`; the paper uses 5).
    pub stages: usize,
    /// Columns per matrix (x dimension; the paper uses 2^12).
    pub x_buckets: usize,
    /// Rows per column (y dimension; the paper uses 64).
    pub y_buckets: usize,
    /// Master seed for the per-matrix hash pairs.
    pub seed: u64,
}

impl TwoDConfig {
    /// The paper's configuration: 5 matrices of 2^12 × 64 buckets.
    pub fn paper(seed: u64) -> Self {
        TwoDConfig {
            stages: 5,
            x_buckets: 1 << 12,
            y_buckets: 64,
            seed,
        }
    }

    fn validate(&self) -> Result<(), SketchError> {
        if self.stages == 0 {
            return Err(SketchError::BadConfig("stages must be positive".into()));
        }
        if !self.x_buckets.is_power_of_two() || !self.y_buckets.is_power_of_two() {
            return Err(SketchError::BadConfig(
                "bucket counts must be powers of two".into(),
            ));
        }
        Ok(())
    }
}

/// Verdict of the column-concentration classifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnShape {
    /// The top-`p` buckets hold more than `φ` of the column mass —
    /// flooding-like behaviour (few distinct y values).
    Concentrated,
    /// Mass is spread over many buckets — scan-like behaviour.
    Dispersed,
}

/// The hash family of a two-dimensional sketch: its configuration and one
/// x/y pairwise hash pair per matrix.
///
/// It holds no counters. UPDATE, the column reads and the paper's
/// classifier are defined here once and work on whatever grid they are
/// given — a sketch's own, a recorder's, a COMBINE sum or a
/// forecast-error grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoDHash {
    config: TwoDConfig,
    x_hashers: Vec<PairwiseHasher>,
    y_hashers: Vec<PairwiseHasher>,
}

impl TwoDHash {
    /// Derives the per-matrix hash pairs from the configuration's seed.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::BadConfig`] for zero stages or non-power-of-
    /// two bucket counts.
    pub fn new(config: TwoDConfig) -> Result<Self, SketchError> {
        config.validate()?;
        let mut rng = SplitMix64::new(config.seed);
        let x_hashers = (0..config.stages)
            .map(|i| PairwiseHasher::new(&mut rng.fork(2 * i as u64), config.x_buckets))
            .collect();
        let y_hashers = (0..config.stages)
            .map(|i| PairwiseHasher::new(&mut rng.fork(2 * i as u64 + 1), config.y_buckets))
            .collect();
        Ok(TwoDHash {
            config,
            x_hashers,
            y_hashers,
        })
    }

    /// The configuration the hashes were derived from.
    pub fn config(&self) -> &TwoDConfig {
        &self.config
    }

    /// UPDATE into `grid`: adds `delta` at (x-key, y-key) in every matrix
    /// — one memory access per matrix (paper §5.5.2: 5 accesses per
    /// packet).
    ///
    /// The per-key primitive and the scalar reference for
    /// [`TwoDHash::update_batch_premixed`], which is what the record plane
    /// calls.
    #[inline]
    pub fn update(&self, grid: &mut CounterGrid, x_key: u64, y_key: u64, delta: i64) {
        let x_premixed = PairwiseHasher::premix(x_key);
        let y_premixed = PairwiseHasher::premix(y_key);
        for stage in 0..self.config.stages {
            let x = self.x_hashers[stage].bucket_premixed(x_premixed);
            let y = self.y_hashers[stage].bucket_premixed(y_premixed);
            grid.add(stage, x * self.config.y_buckets + y, delta);
        }
    }

    /// Batched UPDATE: applies `deltas[i]` at `(x_premixed[i],
    /// y_premixed[i])`, bit-identical to calling [`TwoDHash::update`]
    /// once per element (on the keys the columns were mixed from) in order.
    ///
    /// Stage-major over [`UPDATE_CHUNK`]-packet runs like
    /// [`crate::KaryHash::update_batch_premixed`]: a first pass finishes
    /// the chunk's x- and y-bucket indices for every stage (two kernel
    /// calls each), folds them into flat matrix indices and prefetches all
    /// of the touched cells, then the scatter pass applies the saturating
    /// adds with the misses of every stage already streaming in. Per-cell
    /// delta order matches the serial path (each cell lives in one stage;
    /// within a stage packets apply in order).
    pub fn update_batch_premixed(
        &self,
        grid: &mut CounterGrid,
        x_premixed: &[u64],
        y_premixed: &[u64],
        deltas: &[i64],
    ) {
        debug_assert_eq!(x_premixed.len(), y_premixed.len());
        debug_assert_eq!(x_premixed.len(), deltas.len());
        let n = x_premixed.len().min(y_premixed.len()).min(deltas.len());
        let kernel = crate::simd::kernel();
        let y_buckets = self.config.y_buckets;
        let stages = self.config.stages;
        let mut xi = [0u64; UPDATE_CHUNK];
        let mut yi = [0u64; UPDATE_CHUNK];
        let mut idx = vec![0u64; stages * UPDATE_CHUNK];
        let mut start = 0;
        while start < n {
            let end = (start + UPDATE_CHUNK).min(n);
            let xs = &x_premixed[start..end];
            let ys = &y_premixed[start..end];
            let del = &deltas[start..end];
            for stage in 0..stages {
                let (xa, xb, xshift) = self.x_hashers[stage].coefficients();
                let (ya, yb, yshift) = self.y_hashers[stage].coefficients();
                kernel.buckets_premixed(xs, xa, xb, xshift, &mut xi[..xs.len()]);
                kernel.buckets_premixed(ys, ya, yb, yshift, &mut yi[..ys.len()]);
                let buf = &mut idx[stage * UPDATE_CHUNK..][..xs.len()];
                for ((flat, &x), &y) in buf.iter_mut().zip(&xi[..xs.len()]).zip(&yi[..ys.len()]) {
                    *flat = x * y_buckets as u64 + y;
                }
                kernel.prefetch_buckets(grid.stage(stage), buf);
            }
            for stage in 0..stages {
                let row = grid.stage_mut(stage);
                for (&flat, &d) in idx[stage * UPDATE_CHUNK..][..xs.len()].iter().zip(del) {
                    let cell = &mut row[flat as usize];
                    *cell = cell.saturating_add(d);
                }
            }
            start = end;
        }
    }

    /// The column of `y_buckets` cell values selected by `x_key` in one
    /// matrix of `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `stage >= config.stages`, and in debug builds if the grid
    /// shape differs from the configuration's.
    pub fn column(&self, grid: &CounterGrid, stage: usize, x_key: u64) -> Vec<i64> {
        debug_assert_eq!(grid.stages(), self.config.stages);
        debug_assert_eq!(
            grid.buckets(),
            self.config.x_buckets * self.config.y_buckets
        );
        let x = self.x_hashers[stage].bucket(x_key);
        let base = x * self.config.y_buckets;
        (0..self.config.y_buckets)
            .map(|y| grid.get(stage, base + y))
            .collect()
    }

    /// Per-matrix concentration ratio `S_p / B` over the column's positive
    /// mass (negative cells — from SYN/ACK-dominated benign flows hashed
    /// into the column — are ignored so they cannot hide attack mass).
    ///
    /// Returns `None` for a matrix whose column has no positive mass.
    pub fn concentration(
        &self,
        grid: &CounterGrid,
        stage: usize,
        x_key: u64,
        top_p: usize,
    ) -> Option<f64> {
        let mut col: Vec<i64> = self
            .column(grid, stage, x_key)
            .into_iter()
            .filter(|&v| v > 0)
            .collect();
        let total: i64 = col.iter().sum();
        if total <= 0 {
            return None;
        }
        col.sort_unstable_by(|a, b| b.cmp(a));
        let top: i64 = col.iter().take(top_p).sum();
        Some(top as f64 / total as f64)
    }

    /// The paper's classifier: majority vote over matrices of
    /// `S_p > φ · B`.
    ///
    /// Matrices with empty columns abstain; an x-key with no recorded mass
    /// at all classifies as [`ColumnShape::Concentrated`] (vacuously — a
    /// single unresponded service lookup is not a scan).
    pub fn classify(&self, grid: &CounterGrid, x_key: u64, top_p: usize, phi: f64) -> ColumnShape {
        let mut concentrated = 0usize;
        let mut dispersed = 0usize;
        for stage in 0..self.config.stages {
            match self.concentration(grid, stage, x_key, top_p) {
                Some(ratio) if ratio > phi => concentrated = concentrated.saturating_add(1),
                Some(_) => dispersed = dispersed.saturating_add(1),
                None => {}
            }
        }
        if concentrated >= dispersed {
            ColumnShape::Concentrated
        } else {
            ColumnShape::Dispersed
        }
    }

    /// An estimate of how many distinct y-buckets the x-key's updates
    /// touched: the median over matrices of the count of positive cells in
    /// the selected column.
    pub fn active_y_buckets(&self, grid: &CounterGrid, x_key: u64) -> usize {
        let mut counts: Vec<usize> = (0..self.config.stages)
            .map(|s| {
                self.column(grid, s, x_key)
                    .iter()
                    .filter(|&&v| v > 0)
                    .count()
            })
            .collect();
        counts.sort_unstable();
        counts[counts.len() / 2]
    }
}

/// A two-dimensional k-ary sketch: a [`TwoDHash`] and the counter grid it
/// records into.
///
/// # Example
///
/// ```
/// use hifind_sketch::{ColumnShape, TwoDConfig, TwoDSketch};
///
/// let mut s = TwoDSketch::new(TwoDConfig::paper(5)).unwrap();
/// // Flooding: one x-key, one y value, lots of mass.
/// for _ in 0..500 { s.update(42, 80, 1); }
/// assert_eq!(s.hash().classify(s.grid(), 42, 5, 0.8), ColumnShape::Concentrated);
/// // Vertical scan: one x-key, many y values.
/// for port in 0..500 { s.update(77, port, 1); }
/// assert_eq!(s.hash().classify(s.grid(), 77, 5, 0.8), ColumnShape::Dispersed);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoDSketch {
    hash: TwoDHash,
    /// Stage s, cell (x, y) ↦ grid bucket `x * y_buckets + y`.
    grid: CounterGrid,
}

impl TwoDSketch {
    /// Creates an empty 2D sketch.
    ///
    /// # Errors
    ///
    /// As [`TwoDHash::new`].
    pub fn new(config: TwoDConfig) -> Result<Self, SketchError> {
        Ok(TwoDSketch {
            hash: TwoDHash::new(config)?,
            grid: CounterGrid::new(config.stages, config.x_buckets * config.y_buckets),
        })
    }

    /// The hash family every read of this sketch's grid goes through.
    pub fn hash(&self) -> &TwoDHash {
        &self.hash
    }

    /// UPDATE ([`TwoDHash::update`]) into this sketch's grid.
    #[inline]
    pub fn update(&mut self, x_key: u64, y_key: u64, delta: i64) {
        self.hash.update(&mut self.grid, x_key, y_key, delta);
    }

    /// Batched UPDATE ([`TwoDHash::update_batch_premixed`]) into this
    /// sketch's grid.
    pub fn update_batch_premixed(
        &mut self,
        x_premixed: &[u64],
        y_premixed: &[u64],
        deltas: &[i64],
    ) {
        self.hash
            .update_batch_premixed(&mut self.grid, x_premixed, y_premixed, deltas);
    }

    /// Borrows the underlying grid (stage × (x·Ky + y)).
    pub fn grid(&self) -> &CounterGrid {
        &self.grid
    }

    /// Moves the counters out ([`CounterGrid::take`]), leaving the sketch
    /// zeroed with its hash functions intact.
    pub fn take_counters(&mut self) -> CounterGrid {
        self.grid.take()
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
    }

    /// Counter memory accesses per update (one per matrix).
    pub fn accesses_per_update(&self) -> usize {
        self.hash.config.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TwoDSketch {
        TwoDSketch::new(TwoDConfig {
            stages: 5,
            x_buckets: 1 << 10,
            y_buckets: 64,
            seed: 1,
        })
        .unwrap()
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(TwoDSketch::new(TwoDConfig {
            stages: 0,
            x_buckets: 16,
            y_buckets: 16,
            seed: 0
        })
        .is_err());
        assert!(TwoDSketch::new(TwoDConfig {
            stages: 2,
            x_buckets: 100,
            y_buckets: 64,
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn flooding_classifies_concentrated() {
        let mut s = small();
        for _ in 0..1000 {
            s.update(0xF100D, 80, 1);
        }
        assert_eq!(
            s.hash().classify(s.grid(), 0xF100D, 5, 0.8),
            ColumnShape::Concentrated
        );
        // Two ports is still concentrated.
        let mut s2 = small();
        for i in 0..1000 {
            s2.update(0xF200D, if i % 2 == 0 { 80 } else { 443 }, 1);
        }
        assert_eq!(
            s2.hash().classify(s2.grid(), 0xF200D, 5, 0.8),
            ColumnShape::Concentrated
        );
    }

    #[test]
    fn vertical_scan_classifies_dispersed() {
        let mut s = small();
        for port in 1..=1024u64 {
            s.update(0x5CA9, port, 1);
        }
        assert_eq!(
            s.hash().classify(s.grid(), 0x5CA9, 5, 0.8),
            ColumnShape::Dispersed
        );
    }

    #[test]
    fn classification_robust_to_background_noise() {
        let mut s = small();
        let mut rng = SplitMix64::new(9);
        for _ in 0..20_000 {
            s.update(rng.next_u64(), rng.below(65536), 1);
        }
        for _ in 0..2000 {
            s.update(0xF100D, 80, 1);
        }
        for port in 0..2000u64 {
            s.update(0x5CA9, port, 1);
        }
        assert_eq!(
            s.hash().classify(s.grid(), 0xF100D, 5, 0.8),
            ColumnShape::Concentrated
        );
        assert_eq!(
            s.hash().classify(s.grid(), 0x5CA9, 5, 0.8),
            ColumnShape::Dispersed
        );
    }

    #[test]
    fn unknown_key_is_vacuously_concentrated() {
        let s = small();
        assert_eq!(
            s.hash().classify(s.grid(), 123456, 5, 0.8),
            ColumnShape::Concentrated
        );
        assert_eq!(s.hash().concentration(s.grid(), 0, 123456, 5), None);
    }

    #[test]
    fn negative_cells_ignored_in_concentration() {
        let mut s = small();
        // Benign completed handshakes drive cells negative.
        for port in 0..32u64 {
            s.update(0xBEEF, port, -5);
        }
        for _ in 0..100 {
            s.update(0xBEEF, 4444, 1);
        }
        assert_eq!(
            s.hash().classify(s.grid(), 0xBEEF, 5, 0.8),
            ColumnShape::Concentrated
        );
    }

    #[test]
    fn active_y_buckets_tracks_distinct_values() {
        let mut s = small();
        for port in 0..40u64 {
            s.update(0xAA, port, 3);
        }
        let active = s.hash().active_y_buckets(s.grid(), 0xAA);
        assert!(
            (30..=40).contains(&active),
            "expected ~40 active buckets (minus collisions), got {active}"
        );
        let mut s2 = small();
        s2.update(0xBB, 80, 100);
        assert_eq!(s2.hash().active_y_buckets(s2.grid(), 0xBB), 1);
    }

    #[test]
    fn column_sums_match_mass() {
        let mut s = small();
        for _ in 0..7 {
            s.update(0xC0, 80, 2);
        }
        for stage in 0..5 {
            let col = s.hash().column(s.grid(), stage, 0xC0);
            assert_eq!(col.iter().sum::<i64>(), 14);
        }
    }

    #[test]
    fn combine_matches_merged() {
        let mut a = small();
        let mut b = small();
        let mut merged = small();
        let mut rng = SplitMix64::new(3);
        for i in 0..1000 {
            let x = rng.below(100);
            let y = rng.below(1000);
            if i % 2 == 0 {
                a.update(x, y, 1)
            } else {
                b.update(x, y, 1)
            }
            merged.update(x, y, 1);
        }
        // A scanner on one side, a flood on the other.
        for y in 0..200 {
            a.update(500, y, 3);
            b.update(600, 7, 3);
            merged.update(500, y, 3);
            merged.update(600, 7, 3);
        }
        let mut sum = a.grid().clone();
        sum.add_assign_many(&[b.grid()]).unwrap();
        assert_eq!(&sum, merged.grid());
        assert_eq!(
            a.grid().stage_sum(0) + b.grid().stage_sum(0),
            merged.grid().stage_sum(0)
        );
        for x in (0..100).chain([500, 600]) {
            assert_eq!(
                merged.hash().classify(&sum, x, 2, 0.8),
                merged.hash().classify(merged.grid(), x, 2, 0.8)
            );
        }
        assert_eq!(
            merged.hash().classify(&sum, 500, 2, 0.8),
            ColumnShape::Dispersed
        );
        assert_eq!(
            merged.hash().classify(&sum, 600, 2, 0.8),
            ColumnShape::Concentrated
        );
    }

    #[test]
    fn premixed_update_matches_plain_update() {
        // One premixed key pair per call: a batch of one, as the recorder
        // scatters an interval's first plans.
        let mut plain = small();
        let mut premixed = small();
        let mut rng = SplitMix64::new(23);
        for _ in 0..2000 {
            let x = rng.next_u64();
            let y = rng.below(65536);
            plain.update(x, y, 1);
            premixed.update_batch_premixed(
                &[PairwiseHasher::premix(x)],
                &[PairwiseHasher::premix(y)],
                &[1],
            );
        }
        assert_eq!(premixed.grid(), plain.grid());
        assert_eq!(premixed.grid().stage_sum(0), plain.grid().stage_sum(0));
    }

    #[test]
    fn batched_update_matches_serial_update() {
        // Batch lengths around the chunk size (and a batch of one), mixed-
        // sign deltas, and a saturating cell, against per-key `update`.
        let mut serial = small();
        let mut batched = small();
        let mut rng = SplitMix64::new(31);
        for len in [0, 1, 63, 64, 65, 257] {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            let mut deltas = Vec::new();
            for i in 0..len {
                let (x, y) = (rng.below(100), rng.below(1000));
                let d = if i == 3 {
                    i64::MAX
                } else {
                    (rng.below(7) as i64) - 3
                };
                serial.update(x, y, d);
                xs.push(PairwiseHasher::premix(x));
                ys.push(PairwiseHasher::premix(y));
                deltas.push(d);
            }
            batched.update_batch_premixed(&xs, &ys, &deltas);
            assert_eq!(batched.grid(), serial.grid(), "batch of {len}");
            assert_eq!(
                batched.grid().stage_sum(0),
                serial.grid().stage_sum(0),
                "batch of {len}"
            );
        }
    }

    #[test]
    fn paper_config_memory_and_accesses() {
        let s = TwoDSketch::new(TwoDConfig::paper(0)).unwrap();
        assert_eq!(s.accesses_per_update(), 5);
        // 5 x 2^12 x 64 x 8B = 10 MiB of i64 counters.
        assert!(s.memory_bytes() >= 5 * (1 << 12) * 64 * 8);
    }

    #[test]
    fn take_counters_resets() {
        let mut s = small();
        s.update(1, 2, 3);
        let expected = s.grid().clone();
        assert_eq!(s.take_counters(), expected);
        assert_eq!(s.grid().stage_sum(0), 0);
        assert!(s.grid().is_zero());
        s.update(1, 2, 3);
        assert_eq!(s.grid(), &expected);
    }
}
