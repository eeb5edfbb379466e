//! Time-series forecasting over sketches for change detection.
//!
//! HiFIND turns sketches into *forecast error* sketches (paper §3.1/§3.3):
//! per interval `t` an EWMA forecast `M_f(t)` is produced from history, and
//! the detection signal is `e_t = M_0(t) − M_f(t)`. Because sketches are
//! linear, forecasting element-wise over the counter grid yields exactly
//! the sketch of the forecast-error signal, which the reversible sketch can
//! then run INFERENCE over.
//!
//! The paper's model (eq. 1) is
//!
//! ```text
//! M_f(t) = α·M_0(t−1) + (1−α)·M_f(t−1)   for t > 2
//! M_f(2) = M_0(1)
//! ```
//!
//! with no forecast (hence no detection) at `t = 1`.
//!
//! EWMA is the only forecaster, implemented once per input type:
//!
//! * [`GridEwma`] — the recurrence applied element-wise to a
//!   [`hifind_sketch::CounterGrid`], producing error grids; the detection
//!   pipeline holds one per sketch.
//! * [`Ewma`] — the same recurrence over one scalar series, the per-cell
//!   reference [`GridEwma`] is tested against.
//!
//! # Example
//!
//! ```
//! use hifind_forecast::Ewma;
//!
//! let mut f = Ewma::new(0.5);
//! assert_eq!(f.step(10.0), None);        // t = 1: no forecast yet
//! assert_eq!(f.step(10.0), Some(0.0));   // t = 2: forecast = M0(1)
//! let e = f.step(30.0).unwrap();         // surge shows up as error
//! assert!(e > 15.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod scalar;
pub mod stats;

pub use grid::{GridEwma, GridEwmaState};
pub use scalar::Ewma;
pub use stats::ErrorStats;
