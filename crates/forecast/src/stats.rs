//! Forecast-error magnitude summaries.
//!
//! Detection quality hinges on the forecast-error grids staying
//! small-and-centered for benign traffic; a drifting EWMA shows up here
//! (growing mean absolute error) intervals before it shows up as false
//! alerts. [`ErrorStats::measure`] condenses one error grid into a few
//! numbers the telemetry layer reports per interval.

use hifind_sketch::CounterGrid;
use serde::{Deserialize, Serialize};

/// Magnitude summary of one forecast-error grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    /// Number of grid cells.
    pub cells: usize,
    /// Cells with non-zero error.
    pub nonzero: usize,
    /// Mean of `|error|` over all cells.
    pub mean_abs: f64,
    /// Root mean square error over all cells.
    pub rms: f64,
    /// Largest `|error|`.
    pub max_abs: i64,
    /// Sum of signed errors (bias; near zero for a well-tracking model).
    pub bias: i64,
}

impl ErrorStats {
    /// Measures an error grid (as returned by
    /// [`crate::GridEwma::step`]).
    ///
    /// Each stage row is condensed by the dispatched
    /// [`hifind_sketch::SketchKernel::row_moments`] (the vectorized
    /// L2-norm/threshold scan), then the per-stage moments are folded in
    /// stage order. The floating-point sums follow the kernels' fixed
    /// 4-lane association, so the result is bit-identical whichever ISA is
    /// selected.
    pub fn measure(error_grid: &CounterGrid) -> Self {
        let kernel = hifind_sketch::simd::kernel();
        let mut nonzero = 0u64;
        let mut abs_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut max_abs = 0u64;
        let mut bias_sum = 0.0f64;
        let mut cells = 0usize;
        for stage in 0..error_grid.stages() {
            let row = error_grid.stage(stage);
            let m = kernel.row_moments(row);
            cells = cells.saturating_add(row.len());
            nonzero = nonzero.saturating_add(m.nonzero);
            abs_sum += m.abs_sum;
            sq_sum += m.sq_sum;
            max_abs = max_abs.max(m.max_abs);
            bias_sum += m.bias_sum;
        }
        if cells == 0 {
            return ErrorStats::default();
        }
        ErrorStats {
            cells,
            nonzero: usize::try_from(nonzero).unwrap_or(usize::MAX),
            mean_abs: abs_sum / cells as f64,
            rms: (sq_sum / cells as f64).sqrt(),
            // Magnitudes come back as u64 (`unsigned_abs`, total even for
            // i64::MIN); clamp the one unrepresentable value.
            max_abs: i64::try_from(max_abs).unwrap_or(i64::MAX),
            // Signed bias accumulated in f64 (exact up to ±2^53 total);
            // the float→int cast saturates at the i64 rails.
            bias: bias_sum as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_small_grid() {
        let mut g = CounterGrid::new(1, 4);
        g.add(0, 0, 3);
        g.add(0, 1, -4);
        let s = ErrorStats::measure(&g);
        assert_eq!(s.cells, 4);
        assert_eq!(s.nonzero, 2);
        assert_eq!(s.max_abs, 4);
        assert_eq!(s.bias, -1);
        assert!((s.mean_abs - 7.0 / 4.0).abs() < 1e-12);
        assert!((s.rms - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_grid_is_all_zeros() {
        let s = ErrorStats::measure(&CounterGrid::new(2, 8));
        assert_eq!(s.nonzero, 0);
        assert_eq!(s.mean_abs, 0.0);
        assert_eq!(s.bias, 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut g = CounterGrid::new(1, 2);
        g.add(0, 0, 9);
        let s = ErrorStats::measure(&g);
        let json = serde_json::to_string(&s).unwrap();
        let back: ErrorStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
