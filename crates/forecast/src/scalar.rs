//! The scalar EWMA forecaster.

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average forecasting (paper eq. 1).
///
/// `M_f(t) = α·M_0(t−1) + (1−α)·M_f(t−1)`, seeded with `M_f(2) = M_0(1)`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    prev_observed: Option<f64>,
    prev_forecast: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA model with smoothing factor `alpha ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "alpha must be in [0, 1], got {alpha}"
        );
        Ewma {
            alpha,
            prev_observed: None,
            prev_forecast: None,
        }
    }

    /// Feeds one interval's observation and returns the *forecast error*
    /// `observed − forecast`, or `None` while the model is still warming
    /// up (the paper's `t = 1`).
    pub fn step(&mut self, observed: f64) -> Option<f64> {
        let forecast = match (self.prev_observed, self.prev_forecast) {
            (None, _) => None,            // t = 1
            (Some(po), None) => Some(po), // t = 2: M_f(2) = M_0(1)
            (Some(po), Some(pf)) => Some(self.alpha * po + (1.0 - self.alpha) * pf),
        };
        if let Some(f) = forecast {
            self.prev_forecast = Some(f);
        }
        self.prev_observed = Some(observed);
        forecast.map(|f| observed - f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_warmup_then_forecast() {
        let mut f = Ewma::new(0.5);
        assert_eq!(f.step(10.0), None);
        // t=2: forecast = 10, error = 2.
        assert_eq!(f.step(12.0), Some(2.0));
        // t=3: forecast = 0.5*12 + 0.5*10 = 11, error = 3.
        assert_eq!(f.step(14.0), Some(3.0));
    }

    #[test]
    fn ewma_constant_series_has_zero_error() {
        let mut f = Ewma::new(0.3);
        f.step(5.0);
        for _ in 0..20 {
            let e = f.step(5.0).unwrap();
            assert!(e.abs() < 1e-9);
        }
    }

    #[test]
    fn ewma_detects_surge() {
        let mut f = Ewma::new(0.5);
        for _ in 0..10 {
            f.step(100.0);
        }
        let e = f.step(500.0).unwrap();
        assert!((e - 400.0).abs() < 1e-6);
    }

    #[test]
    fn ewma_alpha_one_tracks_previous_observation() {
        let mut f = Ewma::new(1.0);
        f.step(1.0);
        f.step(2.0);
        // forecast(t) = observed(t-1).
        assert_eq!(f.step(10.0), Some(8.0));
    }

    #[test]
    fn ewma_alpha_zero_freezes_initial_forecast() {
        let mut f = Ewma::new(0.0);
        f.step(7.0);
        f.step(9.0); // forecast stays 7
        assert_eq!(f.step(9.0), Some(2.0));
        assert_eq!(f.step(9.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(1.5);
    }
}
