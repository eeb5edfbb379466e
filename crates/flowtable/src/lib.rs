//! Exact per-flow-key tables — the paper's "non-sketch" reference method.
//!
//! §5.2 of the paper validates the sketches by running the *same* detection
//! algorithm against exact per-key state and observing identical alerts;
//! Table 9 then shows why the exact method is untenable at line rate (tens
//! of gigabytes for worst-case traffic, versus 13.2 MB of sketches — and a
//! per-source table is precisely the state a spoofed flood blows up).
//!
//! * [`ExactChangeTable`] — exact per-key `#SYN − #SYN/ACK` accumulation
//!   with the same EWMA forecasting recurrence the sketches use; per
//!   interval it reports every key whose forecast error crosses the
//!   threshold. Functionally equivalent to reversible-sketch INFERENCE but
//!   with O(#keys) memory.
//! * [`ExactDistribution`] — exact per-x-key y-value histograms, the
//!   "complete information" counterpart of the 2D sketch.
//!
//! # Example
//!
//! ```
//! use hifind_flowtable::ExactChangeTable;
//!
//! let mut table = ExactChangeTable::new(0.5);
//! table.add(42, 10);
//! table.end_interval(); // warm-up: no forecast yet
//! table.add(42, 500);
//! let heavy = table.end_interval();
//! assert!(heavy.iter().any(|&(k, e)| k == 42 && e > 400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Exact change detection over arbitrary packed keys.
///
/// Mirrors the sketch pipeline's semantics exactly: per interval the
/// current per-key value is compared against an EWMA forecast (paper
/// eq. 1; no detection in the first interval), and keys whose error meets
/// the threshold are returned by [`ExactChangeTable::end_interval`] —
/// except that here there are no hash collisions and no estimation error.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExactChangeTable {
    alpha: f64,
    current: HashMap<u64, i64>,
    /// Per-key `(prev_observed, prev_forecast)`; `prev_forecast` is NaN
    /// until the key has two intervals of history.
    state: HashMap<u64, (f64, f64)>,
    ticks: u64,
    peak_entries: usize,
}

impl ExactChangeTable {
    /// Creates a table with EWMA smoothing factor `alpha ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "alpha must be in [0, 1], got {alpha}"
        );
        ExactChangeTable {
            alpha,
            ..ExactChangeTable::default()
        }
    }

    /// Adds `delta` to the key's value in the current interval.
    #[inline]
    pub fn add(&mut self, key: u64, delta: i64) {
        *self.current.entry(key).or_insert(0) += delta;
    }

    /// Closes the current interval **without** reporting (first-interval
    /// warm-up happens implicitly; this method is `end_interval` discarding
    /// the result).
    pub fn advance(&mut self) {
        let _ = self.end_interval_threshold(i64::MAX);
    }

    /// Closes the current interval and returns every `(key, error)` with
    /// `error ≥ threshold`, then starts a new interval.
    ///
    /// Equivalent to `end_interval_threshold(1)` followed by filtering; by
    /// convention a bare `end_interval` uses threshold 1 so callers get all
    /// positive-error keys and filter themselves.
    pub fn end_interval(&mut self) -> Vec<(u64, i64)> {
        self.end_interval_threshold(1)
    }

    /// Closes the current interval and returns keys whose forecast error is
    /// at least `threshold`.
    pub fn end_interval_threshold(&mut self, threshold: i64) -> Vec<(u64, i64)> {
        self.ticks = self.ticks.saturating_add(1);
        self.peak_entries = self
            .peak_entries
            .max(self.current.len())
            .max(self.state.len());
        let mut heavy = Vec::new();
        let first_interval = self.ticks == 1;
        // Union of keys with any history or current traffic.
        let mut keys: Vec<u64> = self.current.keys().copied().collect();
        for k in self.state.keys() {
            if !self.current.contains_key(k) {
                keys.push(*k);
            }
        }
        for key in keys {
            let observed = *self.current.get(&key).unwrap_or(&0) as f64;
            match self.state.entry(key) {
                Entry::Vacant(v) => {
                    // First time we see this key. If the table has history
                    // (t > 1) its implicit past is all zeros, so the
                    // forecast is 0 and the error is the full value.
                    if !first_interval && observed as i64 >= threshold {
                        heavy.push((key, observed as i64));
                    }
                    v.insert((observed, if first_interval { f64::NAN } else { 0.0 }));
                }
                Entry::Occupied(mut o) => {
                    let (prev_obs, prev_fcast) = *o.get();
                    let forecast = if prev_fcast.is_nan() {
                        prev_obs
                    } else {
                        self.alpha * prev_obs + (1.0 - self.alpha) * prev_fcast
                    };
                    let error = (observed - forecast).round() as i64;
                    if error >= threshold {
                        heavy.push((key, error));
                    }
                    o.insert((observed, forecast));
                }
            }
        }
        self.current.clear();
        heavy.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        heavy
    }

    /// Number of intervals closed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Keys currently tracked (live state entries).
    pub fn tracked_keys(&self) -> usize {
        self.state.len()
    }

    /// Largest number of simultaneously tracked entries seen — the number
    /// Table 9's "complete information" memory column is built from.
    pub fn peak_entries(&self) -> usize {
        self.peak_entries
            .max(self.current.len())
            .max(self.state.len())
    }

    /// Approximate bytes held: key + value + two forecast floats per entry
    /// plus hash-table overhead (factor 2 on capacity is typical for
    /// `HashMap`).
    pub fn memory_bytes(&self) -> usize {
        const ENTRY: usize = 8 + 16 + 8; // key, (f64,f64), current value
        self.peak_entries() * ENTRY * 2
    }

    /// Drops all state.
    pub fn clear(&mut self) {
        self.current.clear();
        self.state.clear();
        self.ticks = 0;
        self.peak_entries = 0;
    }
}

/// Exact per-x-key distribution over y values — the "complete information"
/// counterpart of the 2D sketch.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExactDistribution {
    map: HashMap<u64, HashMap<u64, i64>>,
}

impl ExactDistribution {
    /// Creates an empty distribution table.
    pub fn new() -> Self {
        ExactDistribution::default()
    }

    /// Adds `delta` at `(x_key, y_key)`.
    pub fn add(&mut self, x_key: u64, y_key: u64, delta: i64) {
        *self.map.entry(x_key).or_default().entry(y_key).or_insert(0) += delta;
    }

    /// Number of distinct y values with positive mass under `x_key`.
    pub fn distinct_positive_y(&self, x_key: u64) -> usize {
        self.map
            .get(&x_key)
            .map(|m| m.values().filter(|&&v| v > 0).count())
            .unwrap_or(0)
    }

    /// Fraction of positive mass held by the top `p` y values (`None` if no
    /// positive mass) — the exact analogue of the 2D sketch's
    /// column-concentration test.
    pub fn concentration(&self, x_key: u64, top_p: usize) -> Option<f64> {
        let m = self.map.get(&x_key)?;
        let mut vals: Vec<i64> = m.values().copied().filter(|&v| v > 0).collect();
        let total: i64 = vals.iter().sum();
        if total <= 0 {
            return None;
        }
        vals.sort_unstable_by(|a, b| b.cmp(a));
        Some(vals.iter().take(top_p).sum::<i64>() as f64 / total as f64)
    }

    /// Number of tracked `(x, y)` cells.
    pub fn cells(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    /// Approximate bytes held.
    pub fn memory_bytes(&self) -> usize {
        const CELL: usize = 8 + 8; // y key + value
        const X: usize = 8 + 48; // x key + inner map header
        (self.cells() * CELL + self.map.len() * X) * 2
    }

    /// Drops all state.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_interval_never_reports() {
        let mut t = ExactChangeTable::new(0.5);
        t.add(1, 1_000_000);
        assert!(t.end_interval().is_empty());
    }

    #[test]
    fn change_detected_in_second_interval() {
        let mut t = ExactChangeTable::new(0.5);
        t.add(1, 10);
        t.end_interval();
        t.add(1, 500);
        let heavy = t.end_interval_threshold(60);
        assert_eq!(heavy, vec![(1, 490)]);
    }

    #[test]
    fn new_key_after_warmup_reports_full_value() {
        let mut t = ExactChangeTable::new(0.5);
        t.add(1, 5);
        t.end_interval();
        t.add(2, 300); // first appearance, history is implicit zeros
        let heavy = t.end_interval_threshold(60);
        assert_eq!(heavy, vec![(2, 300)]);
    }

    #[test]
    fn steady_key_stops_reporting() {
        let mut t = ExactChangeTable::new(0.5);
        for _ in 0..6 {
            t.add(9, 400);
            t.end_interval_threshold(60);
        }
        t.add(9, 400);
        let heavy = t.end_interval_threshold(60);
        assert!(
            heavy.is_empty(),
            "steady traffic should be forecast away, got {heavy:?}"
        );
    }

    #[test]
    fn matches_scalar_ewma_recurrence() {
        use hifind_forecast::Ewma;
        let mut t = ExactChangeTable::new(0.3);
        let mut f = Ewma::new(0.3);
        for v in [10i64, 14, 9, 200, 7, 7] {
            t.add(77, v);
            let table_err = t
                .end_interval_threshold(i64::MIN + 1)
                .into_iter()
                .find(|&(k, _)| k == 77)
                .map(|(_, e)| e);
            let scalar_err = f.step(v as f64).map(|e| e.round() as i64);
            assert_eq!(table_err, scalar_err, "divergence at v={v}");
        }
    }

    #[test]
    fn negative_values_supported() {
        // Completed handshakes drive #SYN − #SYN/ACK negative.
        let mut t = ExactChangeTable::new(0.5);
        t.add(5, -100);
        t.end_interval();
        t.add(5, -100);
        assert!(t.end_interval_threshold(60).is_empty());
    }

    #[test]
    fn tracks_peak_entries_for_memory_model() {
        let mut t = ExactChangeTable::new(0.5);
        for k in 0..1000u64 {
            t.add(k, 1);
        }
        t.end_interval();
        assert!(t.peak_entries() >= 1000);
        assert!(t.memory_bytes() >= 1000 * 32);
        t.clear();
        assert_eq!(t.tracked_keys(), 0);
        assert_eq!(t.ticks(), 0);
    }

    #[test]
    fn results_sorted_by_error_descending() {
        let mut t = ExactChangeTable::new(0.5);
        t.end_interval();
        t.add(1, 100);
        t.add(2, 300);
        t.add(3, 200);
        let heavy = t.end_interval_threshold(50);
        let errors: Vec<i64> = heavy.iter().map(|&(_, e)| e).collect();
        assert_eq!(errors, vec![300, 200, 100]);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = ExactChangeTable::new(f64::NAN);
    }

    #[test]
    fn distribution_concentration() {
        let mut d = ExactDistribution::new();
        for _ in 0..95 {
            d.add(1, 80, 1);
        }
        for p in 0..5 {
            d.add(1, 1000 + p, 1);
        }
        assert_eq!(d.distinct_positive_y(1), 6);
        let c = d.concentration(1, 5).unwrap();
        assert!(c > 0.98, "concentration {c}");
        // A dispersed x-key.
        for p in 0..200 {
            d.add(2, p, 1);
        }
        let c2 = d.concentration(2, 5).unwrap();
        assert!(c2 < 0.1, "concentration {c2}");
        assert_eq!(d.concentration(999, 5), None);
    }

    #[test]
    fn distribution_ignores_negative_mass() {
        let mut d = ExactDistribution::new();
        d.add(1, 80, -50);
        assert_eq!(d.concentration(1, 5), None);
        d.add(1, 443, 10);
        assert_eq!(d.concentration(1, 5), Some(1.0));
        assert_eq!(d.distinct_positive_y(1), 1);
    }

    #[test]
    fn distribution_memory_grows_with_cells() {
        let mut d = ExactDistribution::new();
        let before = d.memory_bytes();
        for x in 0..100 {
            for y in 0..10 {
                d.add(x, y, 1);
            }
        }
        assert_eq!(d.cells(), 1000);
        assert!(d.memory_bytes() > before);
        d.clear();
        assert_eq!(d.cells(), 0);
    }
}
