//! Property-based tests for the forecasting models.

use hifind_forecast::{Ewma, GridEwma};
use hifind_sketch::CounterGrid;
use proptest::prelude::*;

proptest! {
    /// EWMA never emits an error before it has seen one observation, and
    /// always emits after.
    #[test]
    fn ewma_warmup_is_exactly_one_interval(alpha in 0.0f64..=1.0, series in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let mut f = Ewma::new(alpha);
        for (t, &v) in series.iter().enumerate() {
            let e = f.step(v);
            prop_assert_eq!(e.is_none(), t == 0);
        }
    }

    /// A constant series has zero error from t=2 on, for any alpha.
    #[test]
    fn ewma_constant_series_zero_error(alpha in 0.0f64..=1.0, level in -1e6f64..1e6, n in 2usize..30) {
        let mut f = Ewma::new(alpha);
        f.step(level);
        for _ in 0..n {
            let e = f.step(level).unwrap();
            prop_assert!(e.abs() < 1e-6, "error {e}");
        }
    }

    /// The forecast is always a convex combination of past observations:
    /// it lies within [min, max] of the history.
    #[test]
    fn ewma_forecast_within_observed_range(alpha in 0.0f64..=1.0, series in prop::collection::vec(-1e6f64..1e6, 2..50)) {
        let mut f = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &series {
            if let Some(error) = f.step(v) {
                let forecast = v - error;
                prop_assert!(forecast >= lo - 1e-6 && forecast <= hi + 1e-6,
                    "forecast {forecast} outside [{lo}, {hi}]");
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }

    /// Scalar and grid EWMA implement the identical recurrence.
    #[test]
    fn grid_matches_scalar(alpha in 0.0f64..=1.0, series in prop::collection::vec(-100_000i64..100_000, 1..30)) {
        let mut gf = GridEwma::new(alpha);
        let mut sf = Ewma::new(alpha);
        for &v in &series {
            let mut g = CounterGrid::new(1, 2);
            g.add(0, 0, v);
            let mut e = CounterGrid::new(1, 2);
            let ge = gf.step(&g, &mut e).then(|| e.get(0, 0));
            let se = sf.step(v as f64).map(|e| e.round() as i64);
            prop_assert_eq!(ge, se);
        }
    }

    /// Error grids are linear in the observation: scaling the whole
    /// history scales the errors (EWMA is a linear filter).
    #[test]
    fn ewma_is_linear_in_observations(series in prop::collection::vec(-1000i64..1000, 2..20)) {
        let mut f1 = GridEwma::new(0.5);
        let mut f2 = GridEwma::new(0.5);
        for &v in &series {
            let mut g1 = CounterGrid::new(1, 1);
            g1.add(0, 0, v);
            let mut g2 = CounterGrid::new(1, 1);
            g2.add(0, 0, 3 * v);
            let (mut e1, mut e2) = (CounterGrid::new(1, 1), CounterGrid::new(1, 1));
            if f1.step(&g1, &mut e1) & f2.step(&g2, &mut e2) {
                prop_assert!((e2.get(0, 0) - 3 * e1.get(0, 0)).abs() <= 3,
                    "linearity violated: {} vs 3×{}", e2.get(0, 0), e1.get(0, 0));
            }
        }
    }
}
