//! Sketch health reporting: occupancy and saturation.
//!
//! These are the gauges the telemetry layer exposes per sketch so an
//! operator can tell *before* accuracy collapses that a sketch is
//! under-provisioned for the traffic mix (occupancy → 1) or that an attack
//! is blowing out the counter range (rising saturation).
//!
//! Everything here is plain measurement over [`CounterGrid`]s — no
//! dependency on the telemetry crate, so callers can embed
//! [`SketchHealth`] in reports unconditionally. Publishing the same
//! numbers as registry gauges is the `hifind` crate's job
//! (`hifind::telemetry_ext`).

use crate::grid::CounterGrid;
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

/// Full health record for one named sketch.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SketchHealth {
    /// Which sketch this describes (e.g. `"syn_by_src"`).
    pub sketch: String,
    /// Grid occupancy / saturation.
    pub grid: GridHealth,
}

impl SketchHealth {
    /// Measures `grid` under `name`.
    pub fn measure(name: &str, grid: &CounterGrid, saturation_threshold: i64) -> Self {
        SketchHealth {
            sketch: name.to_string(),
            grid: GridHealth::measure(grid, saturation_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn sketch_health_serde_round_trip() {
        let mut g = CounterGrid::new(1, 2);
        g.add(0, 0, 5);
        let h = SketchHealth::measure("syn_by_src", &g, 4);
        let json = serde_json::to_string(&h).unwrap();
        let back: SketchHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }
}
