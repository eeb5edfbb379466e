//! Sketch health reporting: occupancy, saturation, estimate drift, and
//! inference success rate.
//!
//! These are the gauges the telemetry layer exposes per sketch so an
//! operator can tell *before* accuracy collapses that a sketch is
//! under-provisioned for the traffic mix (occupancy → 1), that an attack
//! is blowing out the counter range (rising saturation), or that the
//! reversible-sketch search is being truncated or over-filtered (falling
//! inference success rate).
//!
//! Everything here is plain measurement over [`CounterGrid`]s and
//! [`InferStats`] — no dependency on the telemetry crate, so callers can
//! embed [`SketchHealth`] in reports unconditionally. Publishing the same
//! numbers as registry gauges is the `hifind` crate's job
//! (`hifind::telemetry_ext`).

use crate::grid::CounterGrid;
use crate::reversible::{InferStats, ReversibleSketch};
use serde::{Deserialize, Serialize};

/// Point-in-time health of one counter grid.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct GridHealth {
    /// Fraction of non-zero buckets per stage, in `[0, 1]`.
    pub stage_occupancy: Vec<f64>,
    /// Mean of [`GridHealth::stage_occupancy`].
    pub mean_occupancy: f64,
    /// Fraction of buckets at or above the saturation threshold.
    pub saturation: f64,
    /// The threshold used for [`GridHealth::saturation`].
    pub saturation_threshold: i64,
    /// Largest absolute counter value.
    pub max_abs: i64,
}

impl GridHealth {
    /// Measures `grid`, treating buckets at or above `saturation_threshold`
    /// as hot.
    pub fn measure(grid: &CounterGrid, saturation_threshold: i64) -> Self {
        let stage_occupancy = grid.occupancy();
        let mean_occupancy = if stage_occupancy.is_empty() {
            0.0
        } else {
            stage_occupancy.iter().sum::<f64>() / stage_occupancy.len() as f64
        };
        GridHealth {
            mean_occupancy,
            stage_occupancy,
            saturation: grid.saturation(saturation_threshold),
            saturation_threshold,
            max_abs: grid.max_abs(),
        }
    }
}

/// Estimate-vs-exact drift over a sample of keys.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DriftStats {
    /// Number of `(key, exact)` samples compared.
    pub samples: usize,
    /// Mean of `|estimate - exact|`.
    pub mean_abs_error: f64,
    /// Mean of `|estimate - exact| / max(1, |exact|)`.
    pub mean_rel_error: f64,
    /// Largest absolute error seen.
    pub max_abs_error: i64,
}

impl DriftStats {
    /// Compares sketch estimates against exact counts for sampled keys.
    ///
    /// The caller supplies exact counts (e.g. from a sampled hash map kept
    /// alongside the sketch on a small fraction of the traffic); the sketch
    /// is queried for each key and the error distribution summarized.
    pub fn measure(sketch: &ReversibleSketch, exact: &[(u64, i64)]) -> Self {
        if exact.is_empty() {
            return DriftStats::default();
        }
        let mut abs_sum = 0.0;
        let mut rel_sum = 0.0;
        let mut max_abs = 0i64;
        for &(key, truth) in exact {
            let err = (sketch.estimate(key) - truth).abs();
            abs_sum += err as f64;
            rel_sum += err as f64 / truth.abs().max(1) as f64;
            max_abs = max_abs.max(err);
        }
        let n = exact.len() as f64;
        DriftStats {
            samples: exact.len(),
            mean_abs_error: abs_sum / n,
            mean_rel_error: rel_sum / n,
            max_abs_error: max_abs,
        }
    }
}

/// Outcome quality of reversible-sketch inference runs.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InferenceHealth {
    /// Keys that survived estimate and verifier filtering.
    pub accepted: usize,
    /// Candidates rejected by the estimate threshold.
    pub rejected_by_estimate: usize,
    /// Candidates rejected by the verification sketch.
    pub rejected_by_verifier: usize,
    /// Whether the candidate cap truncated the search.
    pub truncated: bool,
    /// `accepted / (accepted + rejected)`, or 1.0 when nothing was
    /// reconstructed at all (an empty search is not a failure).
    pub success_rate: f64,
}

impl InferenceHealth {
    /// Summarizes one inference run given its stats and accepted-key count.
    pub fn from_stats(stats: &InferStats, accepted: usize) -> Self {
        let rejected = stats.rejected_by_estimate + stats.rejected_by_verifier;
        let total = accepted + rejected;
        InferenceHealth {
            accepted,
            rejected_by_estimate: stats.rejected_by_estimate,
            rejected_by_verifier: stats.rejected_by_verifier,
            truncated: stats.truncated,
            success_rate: if total == 0 {
                1.0
            } else {
                accepted as f64 / total as f64
            },
        }
    }
}

/// Full health record for one named sketch.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SketchHealth {
    /// Which sketch this describes (e.g. `"syn_by_src"`).
    pub sketch: String,
    /// Grid occupancy / saturation.
    pub grid: GridHealth,
    /// Estimate drift, when a drift sample was collected this interval.
    pub drift: Option<DriftStats>,
    /// Inference quality, when inference ran this interval.
    pub inference: Option<InferenceHealth>,
}

impl SketchHealth {
    /// Measures `grid` under `name` with no drift/inference data yet.
    pub fn measure(name: &str, grid: &CounterGrid, saturation_threshold: i64) -> Self {
        SketchHealth {
            sketch: name.to_string(),
            grid: GridHealth::measure(grid, saturation_threshold),
            drift: None,
            inference: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reversible::RsConfig;

    #[test]
    fn grid_health_measures_occupancy_and_saturation() {
        let mut g = CounterGrid::new(2, 4);
        g.add(0, 0, 10);
        g.add(0, 1, 3);
        g.add(1, 2, -12);
        let h = GridHealth::measure(&g, 10);
        assert_eq!(h.stage_occupancy, vec![0.5, 0.25]);
        assert!((h.mean_occupancy - 0.375).abs() < 1e-12);
        // 2 of 8 buckets at |v| >= 10.
        assert!((h.saturation - 0.25).abs() < 1e-12);
        assert_eq!(h.max_abs, 12);
    }

    #[test]
    fn drift_stats_are_zero_for_exact_sketch() {
        let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(7)).unwrap();
        rs.update(42, 100);
        let drift = DriftStats::measure(&rs, &[(42, 100)]);
        assert_eq!(drift.samples, 1);
        // A single key in an empty sketch estimates exactly.
        assert_eq!(drift.max_abs_error, 0);
        assert_eq!(drift.mean_abs_error, 0.0);
    }

    #[test]
    fn inference_health_success_rate() {
        let stats = InferStats {
            rejected_by_estimate: 2,
            rejected_by_verifier: 1,
            ..InferStats::default()
        };
        let h = InferenceHealth::from_stats(&stats, 7);
        assert!((h.success_rate - 0.7).abs() < 1e-12);
        let empty = InferenceHealth::from_stats(&InferStats::default(), 0);
        assert_eq!(empty.success_rate, 1.0);
    }

    #[test]
    fn sketch_health_serde_round_trip() {
        let mut g = CounterGrid::new(1, 2);
        g.add(0, 0, 5);
        let mut h = SketchHealth::measure("syn_by_src", &g, 4);
        h.inference = Some(InferenceHealth::from_stats(&InferStats::default(), 3));
        let json = serde_json::to_string(&h).unwrap();
        let back: SketchHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
