//! Element-wise forecasting over sketch counter grids.

use hifind_sketch::CounterGrid;
use serde::{Deserialize, Serialize};

/// Element-wise EWMA over grids (paper eq. 1). Forecast state is kept in
/// `f64` so repeated smoothing does not accumulate integer rounding error;
/// only the returned error grid is rounded.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridEwma {
    alpha: f64,
    prev_observed: Option<Vec<f64>>,
    prev_forecast: Option<Vec<f64>>,
    shape: Option<(usize, usize)>,
}

/// The full internal state of a [`GridEwma`], exposed so detection
/// checkpoints can persist a forecaster mid-stream and restore it
/// bit-exactly (`f64` state is preserved verbatim, so a restored model
/// produces byte-identical error grids from the same future inputs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridEwmaState {
    /// Smoothing factor α.
    pub alpha: f64,
    /// Last observed grid, flattened stage-major (`None` before warm-up).
    pub prev_observed: Option<Vec<f64>>,
    /// Last forecast grid, flattened stage-major (`None` until the second
    /// interval).
    pub prev_forecast: Option<Vec<f64>>,
    /// Grid shape `(stages, buckets)` pinned by the first observation.
    pub shape: Option<(usize, usize)>,
}

impl GridEwma {
    /// Creates an element-wise EWMA with smoothing factor `alpha ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "alpha must be in [0, 1], got {alpha}"
        );
        GridEwma {
            alpha,
            prev_observed: None,
            prev_forecast: None,
            shape: None,
        }
    }

    /// Snapshots the complete model state for checkpointing.
    pub fn state(&self) -> GridEwmaState {
        GridEwmaState {
            alpha: self.alpha,
            prev_observed: self.prev_observed.clone(),
            prev_forecast: self.prev_forecast.clone(),
            shape: self.shape,
        }
    }

    /// Rebuilds a model from a [`GridEwmaState`] snapshot.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the state is internally
    /// inconsistent: α outside `[0, 1]`, a state vector whose length does
    /// not match the recorded shape, a forecast without an observation, or
    /// a non-finite state element (all of which would poison every later
    /// error grid).
    pub fn from_state(state: GridEwmaState) -> Result<Self, String> {
        if !state.alpha.is_finite() || !(0.0..=1.0).contains(&state.alpha) {
            return Err(format!("alpha {} outside [0, 1]", state.alpha));
        }
        if state.prev_observed.is_some() != state.shape.is_some() {
            return Err("observation history and shape must be set together".into());
        }
        if state.prev_forecast.is_some() && state.prev_observed.is_none() {
            return Err("forecast state without an observed grid".into());
        }
        if let Some((stages, buckets)) = state.shape {
            let cells = stages.checked_mul(buckets).ok_or("shape overflows")?;
            for (name, vec) in [
                ("prev_observed", &state.prev_observed),
                ("prev_forecast", &state.prev_forecast),
            ] {
                if let Some(v) = vec {
                    if v.len() != cells {
                        return Err(format!(
                            "{name} holds {} cells for a {stages}×{buckets} grid",
                            v.len()
                        ));
                    }
                    if v.iter().any(|x| !x.is_finite()) {
                        return Err(format!("{name} contains a non-finite value"));
                    }
                }
            }
        }
        Ok(GridEwma {
            alpha: state.alpha,
            prev_observed: state.prev_observed,
            prev_forecast: state.prev_forecast,
            shape: state.shape,
        })
    }

    fn check_shape(&mut self, g: &CounterGrid) {
        let shape = (g.stages(), g.buckets());
        match self.shape {
            None => self.shape = Some(shape),
            Some(s) => assert_eq!(s, shape, "grid shape changed mid-stream"),
        }
    }

    /// Feeds one interval's recorded grid and returns the *forecast-error
    /// grid* `observed − forecast` (rounded to integers), or `None` while
    /// warming up. The error grid is what `ReversibleHash::infer` runs
    /// INFERENCE over.
    ///
    /// One pass over the grid: each cell's forecast `α·o + (1−α)·f` (on
    /// the first forecasting step, `f = o`: the last observation) is
    /// written into the error grid and the model state in place, so a
    /// step allocates nothing but the returned error grid.
    ///
    /// # Panics
    ///
    /// Panics if the grid shape changes between calls.
    pub fn step(&mut self, observed: &CounterGrid) -> Option<CounterGrid> {
        self.check_shape(observed);
        let Some(prev_observed) = self.prev_observed.as_mut() else {
            self.prev_observed = Some(to_f64(observed));
            return None;
        };
        let first = self.prev_forecast.is_none();
        let prev_forecast = self
            .prev_forecast
            .get_or_insert_with(|| vec![0.0; prev_observed.len()]);
        let alpha = self.alpha;
        let buckets = observed.buckets();
        let mut error = CounterGrid::new(observed.stages(), buckets);
        let state = prev_observed
            .chunks_exact_mut(buckets)
            .zip(prev_forecast.chunks_exact_mut(buckets));
        for (s, (po, pf)) in state.enumerate() {
            let cells = observed.stage(s).iter().zip(po).zip(pf);
            for (((&v, o), f), e) in cells.zip(error.stage_mut(s)) {
                let forecast = if first {
                    *o
                } else {
                    alpha * *o + (1.0 - alpha) * *f
                };
                *e = (v as f64 - forecast).round() as i64;
                *f = forecast;
                *o = v as f64;
            }
        }
        Some(error)
    }
}

fn to_f64(g: &CounterGrid) -> Vec<f64> {
    let mut out = Vec::with_capacity(g.stages() * g.buckets());
    for s in 0..g.stages() {
        out.extend(g.stage(s).iter().map(|&v| v as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The error grid of `g` against a separately built forecast — the
    /// reference the in-place step is checked against.
    fn error_grid(g: &CounterGrid, forecast: &[f64]) -> CounterGrid {
        let mut out = CounterGrid::new(g.stages(), g.buckets());
        let buckets = g.buckets();
        for s in 0..g.stages() {
            for (b, &v) in g.stage(s).iter().enumerate() {
                out.add(s, b, (v as f64 - forecast[s * buckets + b]).round() as i64);
            }
        }
        out
    }

    fn grid(vals: &[i64]) -> CounterGrid {
        let mut g = CounterGrid::new(1, vals.len().next_power_of_two());
        for (i, &v) in vals.iter().enumerate() {
            g.add(0, i, v);
        }
        g
    }

    #[test]
    fn warmup_then_error() {
        let mut f = GridEwma::new(0.5);
        assert!(f.step(&grid(&[10, 20])).is_none());
        let e = f.step(&grid(&[12, 20])).unwrap();
        assert_eq!(e.get(0, 0), 2);
        assert_eq!(e.get(0, 1), 0);
    }

    #[test]
    fn matches_scalar_recurrence_per_bucket() {
        use crate::scalar::Ewma;
        let mut gf = GridEwma::new(0.3);
        let mut sf = Ewma::new(0.3);
        let series = [5i64, 8, 2, 14, 7, 7, 100, 3];
        for &v in &series {
            let ge = gf.step(&grid(&[v, 0]));
            let se = sf.step(v as f64);
            match (ge, se) {
                (None, None) => {}
                (Some(g), Some(s)) => {
                    assert_eq!(g.get(0, 0), s.round() as i64);
                    assert_eq!(g.get(0, 1), 0);
                }
                other => panic!("divergent warmup: {other:?}"),
            }
        }
    }

    #[test]
    fn constant_traffic_zero_error() {
        let mut f = GridEwma::new(0.5);
        let g = grid(&[100, 200, 300, 0]);
        f.step(&g);
        for _ in 0..10 {
            let e = f.step(&g).unwrap();
            assert!(e.is_zero(), "expected zero error for constant traffic");
        }
    }

    #[test]
    fn surge_appears_in_error_grid() {
        let mut f = GridEwma::new(0.5);
        let quiet = grid(&[10, 10, 10, 10]);
        f.step(&quiet);
        for _ in 0..5 {
            f.step(&quiet);
        }
        let e = f.step(&grid(&[10, 510, 10, 10])).unwrap();
        assert!((e.get(0, 1) - 500).abs() <= 1);
        assert_eq!(e.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_panics() {
        let mut f = GridEwma::new(0.5);
        f.step(&CounterGrid::new(1, 4));
        f.step(&CounterGrid::new(2, 4));
    }

    #[test]
    fn in_place_ewma_matches_the_three_pass_reference() {
        // The forecast built as its own grid, the error grid from it, then
        // the state replaced — per cell the same `α·o + (1−α)·f` — must
        // give bit-identical error grids and state.
        let (stages, buckets) = (3, 64);
        let alpha = 0.3;
        let mut model = GridEwma::new(alpha);
        let mut po: Option<Vec<f64>> = None;
        let mut pf: Option<Vec<f64>> = None;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..12 {
            let mut g = CounterGrid::new(stages, buckets);
            for s in 0..stages {
                for cell in g.stage_mut(s) {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    *cell = (seed >> 40) as i64 - (1 << 23);
                }
            }
            let forecast = match (&po, &pf) {
                (None, _) => None,
                (Some(o), None) => Some(o.clone()),
                (Some(o), Some(f)) => Some(
                    o.iter()
                        .zip(f)
                        .map(|(&o, &f)| alpha * o + (1.0 - alpha) * f)
                        .collect::<Vec<f64>>(),
                ),
            };
            let expected = forecast.as_ref().map(|f| error_grid(&g, f));
            if forecast.is_some() {
                pf = forecast;
            }
            po = Some(to_f64(&g));
            assert_eq!(model.step(&g), expected);
            let state = model.state();
            assert_eq!(
                (state.prev_observed, state.prev_forecast),
                (po.clone(), pf.clone())
            );
        }
    }

    #[test]
    fn error_grids_preserve_negative_changes() {
        // Traffic dropping (e.g. flooding stops) gives negative error.
        let mut f = GridEwma::new(0.5);
        f.step(&grid(&[100, 0]));
        let e = f.step(&grid(&[0, 0])).unwrap();
        assert_eq!(e.get(0, 0), -100);
    }
}
