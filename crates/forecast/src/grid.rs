//! Element-wise forecasting over sketch counter grids.

use hifind_sketch::CounterGrid;
use serde::{Deserialize, Serialize};

/// Element-wise EWMA over grids (paper eq. 1). Forecast state is kept in
/// `f64` so repeated smoothing does not accumulate integer rounding error;
/// only the error grid is rounded.
///
/// The state is one f64 per cell: the forecast `M_f(t+1)` for the next
/// interval. Eq. 1's `M_f(t+1) = α·M_0(t) + (1−α)·M_f(t)` needs only this
/// interval's observation and forecast, so each step computes the error
/// against the stored forecast and then replaces it with the next one; the
/// first observation is the first forecast (`M_f(2) = M_0(1)`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridEwma {
    alpha: f64,
    forecast: Option<Vec<f64>>,
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
    /// Forecast for the next interval, `M_f(t+1)`, flattened stage-major
    /// (`None` before warm-up).
    pub next_forecast: Option<Vec<f64>>,
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
            forecast: None,
            shape: None,
        }
    }

    /// Snapshots the complete model state for checkpointing.
    pub fn state(&self) -> GridEwmaState {
        GridEwmaState {
            alpha: self.alpha,
            next_forecast: self.forecast.clone(),
            shape: self.shape,
        }
    }

    /// Rebuilds a model from a [`GridEwmaState`] snapshot.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the state is internally
    /// inconsistent: α outside `[0, 1]`, a forecast without a shape (or the
    /// reverse), a forecast whose length does not match the shape, or a
    /// non-finite forecast element (all of which would poison every later
    /// error grid).
    pub fn from_state(state: GridEwmaState) -> Result<Self, String> {
        if !state.alpha.is_finite() || !(0.0..=1.0).contains(&state.alpha) {
            return Err(format!("alpha {} outside [0, 1]", state.alpha));
        }
        match (&state.next_forecast, state.shape) {
            (None, None) => {}
            (Some(v), Some((stages, buckets))) => {
                let cells = stages.checked_mul(buckets).ok_or("shape overflows")?;
                if v.len() != cells {
                    return Err(format!(
                        "next_forecast holds {} cells for a {stages}×{buckets} grid",
                        v.len()
                    ));
                }
                if v.iter().any(|x| !x.is_finite()) {
                    return Err("next_forecast contains a non-finite value".into());
                }
            }
            _ => return Err("forecast state and shape must be set together".into()),
        }
        Ok(GridEwma {
            alpha: state.alpha,
            forecast: state.next_forecast,
            shape: state.shape,
        })
    }

    /// Feeds one interval's recorded grid and writes the *forecast-error
    /// grid* `observed − forecast` (rounded half away from zero) into
    /// `error`, returning `true`; returns `false` and leaves `error`
    /// untouched while warming up. The error grid is what
    /// `ReversibleHash::infer` runs INFERENCE over.
    ///
    /// One pass over the grid through the dispatched
    /// [`SketchKernel::ewma_step`](hifind_sketch::simd::SketchKernel::ewma_step):
    /// each cell's error is taken against the stored forecast, which is then
    /// replaced in place by the next one, `α·o + (1−α)·f`. A step allocates
    /// nothing; warm-up allocates the state once.
    ///
    /// # Panics
    ///
    /// Panics if the grid shape changes between calls, or if `error` is
    /// not the observed grid's shape.
    pub fn step(&mut self, observed: &CounterGrid, error: &mut CounterGrid) -> bool {
        let shape = (observed.stages(), observed.buckets());
        assert_eq!(
            *self.shape.get_or_insert(shape),
            shape,
            "grid shape changed mid-stream"
        );
        assert_eq!(
            (error.stages(), error.buckets()),
            shape,
            "error grid shape differs from the observed grid"
        );
        let Some(forecast) = self.forecast.as_mut() else {
            self.forecast = Some(to_f64(observed));
            return false;
        };
        let kernel = hifind_sketch::simd::kernel();
        for (s, next) in forecast.chunks_exact_mut(shape.1).enumerate() {
            kernel.ewma_step(observed.stage(s), self.alpha, next, error.stage_mut(s));
        }
        true
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

    /// One step into a fresh error grid; `None` while warming up.
    fn step(f: &mut GridEwma, g: &CounterGrid) -> Option<CounterGrid> {
        let mut error = CounterGrid::new(g.stages(), g.buckets());
        f.step(g, &mut error).then_some(error)
    }

    #[test]
    fn warmup_then_error() {
        let mut f = GridEwma::new(0.5);
        assert!(step(&mut f, &grid(&[10, 20])).is_none());
        let e = step(&mut f, &grid(&[12, 20])).unwrap();
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
            let ge = step(&mut gf, &grid(&[v, 0]));
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
        let mut e = CounterGrid::new(1, 4);
        assert!(!f.step(&g, &mut e));
        for _ in 0..10 {
            // The same error grid is rewritten every interval.
            e.add(0, 0, 7);
            assert!(f.step(&g, &mut e));
            assert!(e.is_zero(), "expected zero error for constant traffic");
        }
    }

    #[test]
    fn surge_appears_in_error_grid() {
        let mut f = GridEwma::new(0.5);
        let quiet = grid(&[10, 10, 10, 10]);
        for _ in 0..6 {
            step(&mut f, &quiet);
        }
        let e = step(&mut f, &grid(&[10, 510, 10, 10])).unwrap();
        assert!((e.get(0, 1) - 500).abs() <= 1);
        assert_eq!(e.get(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn shape_change_panics() {
        let mut f = GridEwma::new(0.5);
        step(&mut f, &CounterGrid::new(1, 4));
        step(&mut f, &CounterGrid::new(2, 4));
    }

    #[test]
    #[should_panic(expected = "error grid shape")]
    fn mis_shaped_error_grid_panics() {
        let mut f = GridEwma::new(0.5);
        f.step(&CounterGrid::new(1, 4), &mut CounterGrid::new(1, 8));
    }

    #[test]
    fn in_place_ewma_matches_the_three_pass_reference() {
        // The forecast built as its own grid from the last observation and
        // the last forecast, the error grid from it, then the state
        // replaced — per cell the same `α·o + (1−α)·f` — must give
        // bit-identical error grids, and the model's one state vector must
        // equal the reference's forecast for the next interval.
        let (stages, buckets) = (3, 64);
        let alpha = 0.3;
        let mut model = GridEwma::new(alpha);
        let mut po: Option<Vec<f64>> = None;
        let mut pf: Option<Vec<f64>> = None;
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let next_forecast = |o: &Option<Vec<f64>>, f: &Option<Vec<f64>>| match (o, f) {
            (None, _) => None,
            (Some(o), None) => Some(o.clone()),
            (Some(o), Some(f)) => Some(
                o.iter()
                    .zip(f)
                    .map(|(&o, &f)| alpha * o + (1.0 - alpha) * f)
                    .collect::<Vec<f64>>(),
            ),
        };
        for _ in 0..12 {
            let mut g = CounterGrid::new(stages, buckets);
            for s in 0..stages {
                for cell in g.stage_mut(s) {
                    seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    *cell = (seed >> 40) as i64 - (1 << 23);
                }
            }
            let forecast = next_forecast(&po, &pf);
            let expected = forecast.as_ref().map(|f| error_grid(&g, f));
            if forecast.is_some() {
                pf = forecast;
            }
            po = Some(to_f64(&g));
            assert_eq!(step(&mut model, &g), expected);
            assert_eq!(model.state().next_forecast, next_forecast(&po, &pf));
        }
    }

    #[test]
    fn state_round_trips_and_rejects_inconsistency() {
        let mut f = GridEwma::new(0.25);
        step(&mut f, &grid(&[3, 9]));
        step(&mut f, &grid(&[5, 1]));
        let state = f.state();
        assert_eq!(GridEwma::from_state(state.clone()).unwrap(), f);
        let bad = |edit: fn(&mut GridEwmaState)| {
            let mut s = state.clone();
            edit(&mut s);
            GridEwma::from_state(s).unwrap_err()
        };
        assert!(bad(|s| s.alpha = 1.5).contains("alpha"));
        assert!(bad(|s| s.shape = None).contains("together"));
        assert!(bad(|s| s.next_forecast = Some(vec![1.0])).contains("cells"));
        assert!(bad(|s| s.next_forecast = Some(vec![f64::NAN, 0.0])).contains("non-finite"));
    }

    #[test]
    fn error_grids_preserve_negative_changes() {
        // Traffic dropping (e.g. flooding stops) gives negative error.
        let mut f = GridEwma::new(0.5);
        step(&mut f, &grid(&[100, 0]));
        let e = step(&mut f, &grid(&[0, 0])).unwrap();
        assert_eq!(e.get(0, 0), -100);
    }
}
