//! Sketch data structures for high-speed network monitoring.
//!
//! This crate implements the three sketch variants HiFIND records traffic
//! with (paper Table 2 and §4):
//!
//! * [`KarySketch`] — the original k-ary sketch: `H` hash stages over `m`
//!   buckets, supporting `UPDATE` and `ESTIMATE` (median of per-stage
//!   unbiased estimators).
//! * [`ReversibleSketch`] — a k-ary sketch whose stages use *modular
//!   hashing* over a *mangled* key so that `INFERENCE` can recover the heavy
//!   keys from the sketch alone, without ever storing keys.
//! * [`TwoDSketch`] — the paper's novel two-dimensional sketch: `H` hash
//!   matrices indexed by an x-key and a y-key; after detection, the column
//!   selected by a detected x-key reveals the *distribution* of the y
//!   dimension (concentrated → SYN flooding, dispersed → scan).
//!
//! Each family is split in two. Its hash type ([`KaryHash`],
//! [`ReversibleHash`], [`TwoDHash`]) holds the configuration and the hash
//! functions, and defines UPDATE and every read — ESTIMATE, INFERENCE,
//! the 2D column reads and classifier — once, over a grid it is given.
//! The sketch type is a hash type plus the counter grid(s) it owns, for
//! standalone use; the recorder keeps its counters in one snapshot's
//! grids, and a detector holds hash types alone.
//!
//! All sketches are linear, and `COMBINE` is implemented once, over their
//! counters: [`CounterGrid::add_assign_many`] sums per-router grids into
//! the grid of the merged traffic, which is what makes HiFIND robust to
//! asymmetric routing (paper §3.1, §5.3.2). The sum is taken in integers
//! and never rounded, so ESTIMATE, INFERENCE and classification read a
//! summed grid through the hash type exactly as they read the merged
//! sketch's own grid.
//!
//! # Example
//!
//! ```
//! use hifind_sketch::{ReversibleSketch, RsConfig, InferOptions};
//!
//! let cfg = RsConfig::paper_48bit(0xFEED);
//! let mut rs = ReversibleSketch::new(cfg).unwrap();
//! // One heavy key among background noise.
//! rs.update(0xABCD_1234_5678, 500);
//! for k in 0..1000 {
//!     rs.update(k, 1);
//! }
//! let result = rs.hash().infer(rs.grid(), rs.verifier(), 100, &InferOptions::default());
//! assert!(result.keys.iter().any(|hk| hk.key == 0xABCD_1234_5678));
//! ```

// `deny` (not `forbid`) so the one vetted intrinsics module can opt back in
// with a scoped allow; the xtask `unsafe-perimeter` lint pins `unsafe` to
// exactly the files lint.toml names (crates/sketch/src/simd/avx2.rs here).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod grid;
pub mod health;
pub mod kary;
pub mod reversible;
pub mod simd;
pub mod twod;

pub use fingerprint::ConfigDigest;
pub use grid::CounterGrid;
pub use health::{GridHealth, SketchHealth};
pub use kary::{KaryConfig, KaryHash, KarySketch};
pub use reversible::{
    HeavyKey, InferOptions, InferStats, InferenceResult, ReversibleHash, ReversibleSketch, RsConfig,
};
pub use simd::{Isa, RowMoments, SketchKernel};
pub use twod::{ColumnShape, TwoDConfig, TwoDHash, TwoDSketch};

use std::fmt;

/// Errors shared by the sketch types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SketchError {
    /// Invalid configuration (wraps the specific reason).
    BadConfig(String),
    /// Attempted to combine grids (or snapshots) of different shapes.
    CombineMismatch,
    /// Attempted to combine an empty list of interval snapshots.
    CombineEmpty,
    /// Attempted to combine snapshots whose configuration fingerprints
    /// (shape **and** seed digests, see [`fingerprint`]) disagree. Unlike
    /// [`SketchError::CombineMismatch`] this also catches same-shape,
    /// different-seed recorders, which would otherwise sum counters of
    /// unrelated key sets into garbage estimates.
    FingerprintMismatch {
        /// The fingerprint of the combining side.
        expected: u64,
        /// The fingerprint that arrived.
        got: u64,
    },
}

impl fmt::Display for SketchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchError::BadConfig(why) => write!(f, "invalid sketch configuration: {why}"),
            SketchError::CombineMismatch => {
                f.write_str("sketches must share configuration and seed to be combined")
            }
            SketchError::CombineEmpty => f.write_str("cannot combine zero snapshots"),
            SketchError::FingerprintMismatch { expected, got } => write!(
                f,
                "configuration fingerprint mismatch: expected {expected:#018x}, got {got:#018x} \
                 (recorders must share configuration and seed)"
            ),
        }
    }
}

impl std::error::Error for SketchError {}

/// ESTIMATE's combining step, shared by every hash type: the median over
/// stages of the unbiased per-stage estimator `(v − sum/m) / (1 − 1/m)`,
/// given each stage's `(bucket value, stage sum)` and `m` buckets.
pub(crate) fn unbiased_median(cells: impl Iterator<Item = (i64, i64)>, buckets: usize) -> i64 {
    let m = buckets as f64;
    let mut estimates: Vec<i64> = cells
        .map(|(v, sum)| ((v as f64 - sum as f64 / m) / (1.0 - 1.0 / m)).round() as i64)
        .collect();
    median_i64(&mut estimates)
}

/// Returns the median of a scratch slice (averaging the two middle elements
/// for even lengths, rounding toward zero).
///
/// # Panics
///
/// Panics if `values` is empty.
pub(crate) fn median_i64(values: &mut [i64]) -> i64 {
    assert!(!values.is_empty(), "median of empty slice");
    values.sort_unstable();
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        let a = values[n / 2 - 1];
        let b = values[n / 2];
        // Average without overflow.
        a / 2 + b / 2 + (a % 2 + b % 2) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median_i64(&mut [3, 1, 2]), 2);
        assert_eq!(median_i64(&mut [4, 1, 2, 3]), 2);
        assert_eq!(median_i64(&mut [5]), 5);
        assert_eq!(median_i64(&mut [-10, 10]), 0);
        assert_eq!(median_i64(&mut [i64::MAX, i64::MAX]), i64::MAX);
    }

    #[test]
    fn error_display_non_empty() {
        assert!(!SketchError::CombineMismatch.to_string().is_empty());
        assert!(SketchError::BadConfig("x".into()).to_string().contains('x'));
    }
}
