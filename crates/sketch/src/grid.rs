//! The counter storage shared by all sketch variants.

use crate::simd;
use crate::SketchError;
use serde::{Deserialize, Serialize};

/// Elements per combine tile: 2048 × 8 B = 16 KiB, so the destination block
/// stays resident in L1 while each source block streams through exactly
/// once. Multi-source merges ([`CounterGrid::add_assign_many`], the weighted
/// [`CounterGrid::linear_combination`]) walk the grid tile-by-tile with an
/// inner loop over sources instead of striding the full grid once per term.
const COMBINE_BLOCK: usize = 2048;

/// A dense `stages × buckets` grid of signed 64-bit counters with linear
/// operations.
///
/// The grid is the *state* of a sketch; the hash structure lives in the
/// sketch types. Keeping them separate lets forecasting produce derived
/// grids (forecasts, forecast errors) that are then interpreted through the
/// same hash structure for estimation and inference.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterGrid {
    stages: usize,
    buckets: usize,
    /// Row-major: `data[stage * buckets + bucket]`.
    data: Vec<i64>,
}

impl CounterGrid {
    /// Creates a zeroed grid.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `buckets` is zero.
    pub fn new(stages: usize, buckets: usize) -> Self {
        assert!(stages > 0, "grid needs at least one stage");
        assert!(buckets > 0, "grid needs at least one bucket");
        CounterGrid {
            stages,
            buckets,
            data: vec![0; stages * buckets],
        }
    }

    /// Builds a grid from row-major counter data (`data[stage * buckets +
    /// bucket]`) — the decode half of a wire codec, so it validates instead
    /// of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::BadConfig`] if either dimension is zero or
    /// `data.len() != stages * buckets`.
    pub fn from_data(stages: usize, buckets: usize, data: Vec<i64>) -> Result<Self, SketchError> {
        if stages == 0 || buckets == 0 {
            return Err(SketchError::BadConfig(
                "grid needs at least one stage and one bucket".into(),
            ));
        }
        let expected = stages
            .checked_mul(buckets)
            .ok_or_else(|| SketchError::BadConfig("grid dimensions overflow".into()))?;
        if data.len() != expected {
            return Err(SketchError::BadConfig(format!(
                "grid data length {} != {stages} stages × {buckets} buckets",
                data.len()
            )));
        }
        Ok(CounterGrid {
            stages,
            buckets,
            data,
        })
    }

    /// Number of hash stages.
    #[inline]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Buckets per stage.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, stage: usize, bucket: usize) -> i64 {
        self.data[stage * self.buckets + bucket]
    }

    /// Adds `delta` to one counter.
    #[inline]
    pub fn add(&mut self, stage: usize, bucket: usize, delta: i64) {
        let cell = &mut self.data[stage * self.buckets + bucket];
        *cell = cell.saturating_add(delta);
    }

    /// Borrows one stage's counters.
    #[inline]
    pub fn stage(&self, stage: usize) -> &[i64] {
        &self.data[stage * self.buckets..(stage + 1) * self.buckets]
    }

    /// Mutably borrows one stage's counters (the batched-UPDATE scatter
    /// target; the sketch types own the hashing that picks the cells).
    #[inline]
    pub fn stage_mut(&mut self, stage: usize) -> &mut [i64] {
        &mut self.data[stage * self.buckets..(stage + 1) * self.buckets]
    }

    /// Sum of one stage's counters (the total update mass; identical across
    /// stages for a single sketch, used by the unbiased estimator).
    /// Wrapping mod 2⁶⁴, which is order-independent and therefore identical
    /// under every [`crate::simd`] kernel.
    pub fn stage_sum(&self, stage: usize) -> i64 {
        simd::kernel().sum_wrapping(self.stage(stage))
    }

    /// Zeroes all counters.
    pub fn clear(&mut self) {
        self.data.fill(0);
    }

    /// Moves the counters out, leaving a zeroed grid of the same shape.
    ///
    /// The interval-close path: the replacement is a fresh zeroed
    /// allocation, so no counter is copied — unlike a clone followed by
    /// [`Self::clear`], which walks the grid twice.
    pub fn take(&mut self) -> CounterGrid {
        std::mem::replace(self, CounterGrid::new(self.stages, self.buckets))
    }

    /// Returns `true` if every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    /// `self += other` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineMismatch`] on shape mismatch.
    pub fn add_assign(&mut self, other: &CounterGrid) -> Result<(), SketchError> {
        self.check_shape(other)?;
        simd::kernel().add_saturating(&mut self.data, &other.data);
        Ok(())
    }

    /// `self += Σ otherᵢ`, the multi-source COMBINE the parallel recorder's
    /// interval close and the aggregation tiers pay for: cache-blocked
    /// ([`COMBINE_BLOCK`]-element tiles, inner loop over sources) so the
    /// destination tile is read and written once per merge instead of once
    /// per source. Bit-identical to folding [`CounterGrid::add_assign`]
    /// over `others` in order — saturating adds to independent cells
    /// commute across tiles and per-cell source order is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineMismatch`] on any shape mismatch
    /// (checked up front; `self` is untouched on error).
    pub fn add_assign_many(&mut self, others: &[&CounterGrid]) -> Result<(), SketchError> {
        for other in others {
            self.check_shape(other)?;
        }
        let kernel = simd::kernel();
        let mut start = 0;
        while start < self.data.len() {
            let end = (start + COMBINE_BLOCK).min(self.data.len());
            for other in others {
                kernel.add_saturating(&mut self.data[start..end], &other.data[start..end]);
            }
            start = end;
        }
        Ok(())
    }

    /// `self -= other` element-wise.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineMismatch`] on shape mismatch.
    pub fn sub_assign(&mut self, other: &CounterGrid) -> Result<(), SketchError> {
        self.check_shape(other)?;
        simd::kernel().sub_saturating(&mut self.data, &other.data);
        Ok(())
    }

    /// Returns `self − other` as a new grid.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineMismatch`] on shape mismatch.
    pub fn difference(&self, other: &CounterGrid) -> Result<CounterGrid, SketchError> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// Linear combination `Σ cᵢ · gridᵢ`.
    ///
    /// When every coefficient is exactly `1.0` — the COMBINE every
    /// aggregation path in the system actually issues — this takes the
    /// integer fast path ([`CounterGrid::add_assign_many`]): exact
    /// saturating sums, bit-identical to updating one sketch with the
    /// merged traffic, so COMBINE linearity holds even for counters beyond
    /// 2⁵³ where an f64 accumulator would round.
    ///
    /// The general weighted path accumulates `Σ cᵢ·vᵢ` in f64 per element
    /// and rounds to the nearest integer, walking the grid in
    /// [`COMBINE_BLOCK`]-element tiles (source order per element is
    /// preserved, so the tiling does not change a single bit of output).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineEmpty`] for an empty list and
    /// [`SketchError::CombineMismatch`] on shape mismatch.
    pub fn linear_combination(terms: &[(f64, &CounterGrid)]) -> Result<CounterGrid, SketchError> {
        let (_, first) = terms.first().ok_or(SketchError::CombineEmpty)?;
        for (_, g) in terms {
            first.check_shape(g)?;
        }
        if terms.iter().all(|(c, _)| *c == 1.0) {
            let mut out = terms[0].1.clone();
            let rest: Vec<&CounterGrid> = terms[1..].iter().map(|(_, g)| *g).collect();
            out.add_assign_many(&rest)?;
            return Ok(out);
        }
        let len = first.data.len();
        let mut data = vec![0i64; len];
        let mut acc = [0.0f64; COMBINE_BLOCK];
        let mut start = 0;
        while start < len {
            let end = (start + COMBINE_BLOCK).min(len);
            let block = &mut acc[..end - start];
            block.fill(0.0);
            for (c, g) in terms {
                for (a, &v) in block.iter_mut().zip(&g.data[start..end]) {
                    *a += c * v as f64;
                }
            }
            for (d, &a) in data[start..end].iter_mut().zip(block.iter()) {
                *d = a.round() as i64;
            }
            start = end;
        }
        Ok(CounterGrid {
            stages: first.stages,
            buckets: first.buckets,
            data,
        })
    }

    /// Iterates `(stage, bucket, value)` over non-zero counters.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        let buckets = self.buckets;
        self.data.iter().enumerate().filter_map(move |(i, &v)| {
            if v != 0 {
                Some((i / buckets, i % buckets, v))
            } else {
                None
            }
        })
    }

    /// Heap + inline memory in bytes (for the Table 9 memory model).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.data.len() * std::mem::size_of::<i64>()
    }

    /// Fraction of non-zero buckets in one stage, in `[0, 1]`.
    pub fn stage_occupancy(&self, stage: usize) -> f64 {
        let row = self.stage(stage);
        row.iter().filter(|&&v| v != 0).count() as f64 / row.len() as f64
    }

    /// Per-stage fraction of non-zero buckets.
    ///
    /// High occupancy means most buckets carry several colliding flows and
    /// per-key estimates degrade — the primary health signal for sizing
    /// `buckets` against the traffic mix.
    pub fn occupancy(&self) -> Vec<f64> {
        (0..self.stages).map(|s| self.stage_occupancy(s)).collect()
    }

    /// Largest absolute counter value anywhere in the grid.
    pub fn max_abs(&self) -> i64 {
        self.data.iter().map(|v| v.abs()).max().unwrap_or(0)
    }

    /// Fraction of buckets whose absolute value is at least `threshold`,
    /// in `[0, 1]`. With `threshold` near the detection threshold this
    /// measures how much of the grid is "hot" — saturation close to 1.0
    /// means the sketch can no longer separate heavy keys from noise.
    pub fn saturation(&self, threshold: i64) -> f64 {
        if self.data.is_empty() || threshold <= 0 {
            return 0.0;
        }
        self.data.iter().filter(|v| v.abs() >= threshold).count() as f64 / self.data.len() as f64
    }

    fn check_shape(&self, other: &CounterGrid) -> Result<(), SketchError> {
        if self.stages != other.stages || self.buckets != other.buckets {
            Err(SketchError::CombineMismatch)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_zero() {
        let g = CounterGrid::new(3, 8);
        assert!(g.is_zero());
        assert_eq!(g.stages(), 3);
        assert_eq!(g.buckets(), 8);
        assert_eq!(g.get(2, 7), 0);
    }

    #[test]
    fn add_and_get() {
        let mut g = CounterGrid::new(2, 4);
        g.add(0, 1, 5);
        g.add(0, 1, -2);
        g.add(1, 3, 7);
        assert_eq!(g.get(0, 1), 3);
        assert_eq!(g.get(1, 3), 7);
        assert_eq!(g.stage_sum(0), 3);
        assert_eq!(g.stage_sum(1), 7);
    }

    #[test]
    fn linearity_add_sub() {
        let mut a = CounterGrid::new(2, 4);
        let mut b = CounterGrid::new(2, 4);
        a.add(0, 0, 10);
        b.add(0, 0, 5);
        b.add(1, 2, -3);
        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        assert_eq!(sum.get(0, 0), 15);
        assert_eq!(sum.get(1, 2), -3);
        let diff = sum.difference(&b).unwrap();
        assert_eq!(diff, a);
        sum.sub_assign(&a).unwrap();
        assert_eq!(sum, b);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut a = CounterGrid::new(2, 4);
        let b = CounterGrid::new(2, 8);
        assert_eq!(a.add_assign(&b), Err(SketchError::CombineMismatch));
        let c = CounterGrid::new(3, 4);
        assert_eq!(a.sub_assign(&c), Err(SketchError::CombineMismatch));
    }

    #[test]
    fn linear_combination_weights() {
        let mut a = CounterGrid::new(1, 2);
        let mut b = CounterGrid::new(1, 2);
        a.add(0, 0, 10);
        b.add(0, 0, 4);
        b.add(0, 1, 2);
        let lc = CounterGrid::linear_combination(&[(0.5, &a), (2.0, &b)]).unwrap();
        assert_eq!(lc.get(0, 0), 13); // 5 + 8
        assert_eq!(lc.get(0, 1), 4);
        assert_eq!(
            CounterGrid::linear_combination(&[]),
            Err(SketchError::CombineEmpty)
        );
    }

    #[test]
    fn linear_combination_rounds() {
        let mut a = CounterGrid::new(1, 1);
        a.add(0, 0, 3);
        let lc = CounterGrid::linear_combination(&[(0.5, &a)]).unwrap();
        assert_eq!(lc.get(0, 0), 2); // 1.5 rounds to 2
    }

    #[test]
    fn iter_nonzero_reports_coordinates() {
        let mut g = CounterGrid::new(2, 3);
        g.add(0, 2, 1);
        g.add(1, 0, -4);
        let items: Vec<_> = g.iter_nonzero().collect();
        assert_eq!(items, vec![(0, 2, 1), (1, 0, -4)]);
    }

    #[test]
    fn clear_resets() {
        let mut g = CounterGrid::new(1, 2);
        g.add(0, 0, 9);
        g.clear();
        assert!(g.is_zero());
    }

    #[test]
    fn take_moves_counters_out_and_leaves_zeros() {
        let mut g = CounterGrid::new(2, 3);
        g.add(0, 1, 9);
        g.add(1, 2, -4);
        let expected = g.clone();
        assert_eq!(g.take(), expected);
        assert!(g.is_zero());
        assert_eq!((g.stages(), g.buckets()), (2, 3));
    }

    #[test]
    fn memory_accounting_scales_with_size() {
        let small = CounterGrid::new(1, 16);
        let large = CounterGrid::new(6, 1 << 12);
        assert!(large.memory_bytes() > small.memory_bytes());
        assert!(large.memory_bytes() >= 6 * (1 << 12) * 8);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_panics() {
        let _ = CounterGrid::new(0, 4);
    }

    #[test]
    fn add_assign_many_matches_sequential_folds() {
        // Cover lengths straddling tile boundaries and SIMD lane counts.
        for buckets in [1usize, 3, 4, 5, 63, 64, 2047, 2048, 2049, 5000] {
            let mut grids = Vec::new();
            for g in 0..3u64 {
                let mut grid = CounterGrid::new(2, buckets);
                for i in 0..buckets {
                    let v = ((i as i64).wrapping_mul(2_654_435_761)).wrapping_add(g as i64);
                    grid.add(0, i, v);
                    grid.add(1, i, v.wrapping_neg());
                }
                grids.push(grid);
            }
            // Saturating rails must behave identically on both paths.
            grids[0].add(0, 0, i64::MAX);
            grids[1].add(0, 0, i64::MAX);
            let mut blocked = grids[0].clone();
            blocked.add_assign_many(&[&grids[1], &grids[2]]).unwrap();
            let mut folded = grids[0].clone();
            folded.add_assign(&grids[1]).unwrap();
            folded.add_assign(&grids[2]).unwrap();
            assert_eq!(blocked, folded, "buckets={buckets}");
        }
    }

    #[test]
    fn add_assign_many_rejects_any_shape_mismatch() {
        let mut a = CounterGrid::new(2, 4);
        let ok = CounterGrid::new(2, 4);
        let bad = CounterGrid::new(2, 8);
        assert_eq!(
            a.add_assign_many(&[&ok, &bad]),
            Err(SketchError::CombineMismatch)
        );
        // Checked up front: the destination must be untouched.
        assert!(a.is_zero());
        a.add_assign_many(&[]).unwrap();
        assert!(a.is_zero());
    }

    #[test]
    fn unit_coefficients_take_the_exact_integer_path() {
        // Counters beyond 2^53 lose bits in an f64 accumulator; the unit
        // fast path must sum them exactly (and saturate exactly).
        let mut a = CounterGrid::new(1, 2);
        let mut b = CounterGrid::new(1, 2);
        a.add(0, 0, (1 << 60) + 1);
        b.add(0, 0, 1);
        a.add(0, 1, i64::MAX);
        b.add(0, 1, 5);
        let lc = CounterGrid::linear_combination(&[(1.0, &a), (1.0, &b)]).unwrap();
        assert_eq!(lc.get(0, 0), (1 << 60) + 2);
        assert_eq!(lc.get(0, 1), i64::MAX);
    }

    #[test]
    fn from_data_round_trips_and_validates() {
        let mut g = CounterGrid::new(2, 3);
        g.add(0, 1, 5);
        g.add(1, 2, -7);
        let data: Vec<i64> = (0..2).flat_map(|s| g.stage(s).to_vec()).collect();
        let back = CounterGrid::from_data(2, 3, data).unwrap();
        assert_eq!(back, g);
        assert!(CounterGrid::from_data(0, 3, vec![]).is_err());
        assert!(CounterGrid::from_data(2, 3, vec![0; 5]).is_err());
    }
}
