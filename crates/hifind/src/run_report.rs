//! Machine-readable run telemetry: per-interval phase latencies, alert
//! counts by phase, and sketch health, aggregated into a [`RunReport`].
//!
//! This is the always-available observability layer: it relies only on
//! `std::time` measurements taken once per interval (see
//! [`crate::pipeline::DetectionCore::process_snapshot`]), so it adds
//! nothing to the per-packet hot path. The CLI serializes it for
//! `--metrics-json`; the bench harness embeds it in result files. An
//! attached registry layers live gauges and Prometheus export on top (see
//! [`crate::telemetry_ext`]).

use crate::pipeline::IntervalOutcome;
use crate::recorder::IntervalSnapshot;
use hifind_forecast::ErrorStats;
use hifind_sketch::SketchHealth;
use serde::{Deserialize, Serialize};

/// Wall time spent in each detection phase of one interval, nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseNanos {
    /// Forecaster `step` over all six grids (EWMA update + error grid).
    pub forecast: u64,
    /// Phase 1: three-step change detection (includes inference).
    pub detect: u64,
    /// Phase 2: 2D-sketch classification.
    pub classify: u64,
    /// Phase 3: flooding false-positive heuristics.
    pub flood_filter: u64,
    /// Whole `process_snapshot` call.
    pub total: u64,
}

/// Alert counts at each pipeline phase for one interval (or totals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseAlertCounts {
    /// Phase-1 raw detections.
    pub raw: usize,
    /// Phase-2 survivors.
    pub classified: usize,
    /// Phase-3 final alerts.
    pub fin: usize,
    /// Scan candidates reclassified as flooding-like in phase 2.
    pub reclassified: usize,
}

impl PhaseAlertCounts {
    /// Counts the alerts in one interval outcome.
    pub fn from_outcome(outcome: &IntervalOutcome) -> Self {
        PhaseAlertCounts {
            raw: outcome.raw.len(),
            classified: outcome.classified.len(),
            fin: outcome.fin.len(),
            reclassified: outcome.reclassified.len(),
        }
    }

    fn accumulate(&mut self, other: &PhaseAlertCounts) {
        self.raw += other.raw;
        self.classified += other.classified;
        self.fin += other.fin;
        self.reclassified += other.reclassified;
    }
}

/// One interval's full telemetry record.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalReport {
    /// Interval index.
    pub interval: u64,
    /// SYNs recorded this interval.
    pub syn_count: u64,
    /// SYN/ACKs recorded this interval.
    pub syn_ack_count: u64,
    /// Per-phase wall time.
    pub phase_ns: PhaseNanos,
    /// Alert counts by phase.
    pub alerts: PhaseAlertCounts,
    /// Health of each sketch grid at snapshot time.
    pub sketch_health: Vec<SketchHealth>,
    /// Forecast-error magnitudes for the three primary grids (empty
    /// during warm-up).
    pub forecast_error: Vec<ErrorStats>,
}

/// Fixed-bucket latency histogram over nanosecond observations.
///
/// Buckets are geometric from 1 µs to ~17 s (factor 4), which covers
/// everything from a warm-up interval on a small config to full paper-size
/// inference. A standalone type (rather than the telemetry crate's
/// histogram) so the default build needs no extra dependencies.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Ascending bucket upper bounds in nanoseconds.
    pub upper_bounds_ns: Vec<u64>,
    /// Per-bucket counts; one per bound plus a trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Smallest observation (0 when empty).
    pub min_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        // 1µs, 4µs, 16µs, ..., ~17.2s — 13 geometric buckets.
        let upper_bounds_ns: Vec<u64> = (0..13).map(|i| 1_000u64 << (2 * i)).collect();
        let counts = vec![0; upper_bounds_ns.len() + 1];
        LatencyHistogram {
            upper_bounds_ns,
            counts,
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn observe(&mut self, ns: u64) {
        let idx = self.upper_bounds_ns.partition_point(|&ub| ns > ub);
        self.counts[idx] += 1;
        self.min_ns = if self.count == 0 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket-bound quantile estimate (`q` in `[0, 1]`), or `None` when
    /// empty. Reports the upper bound of the bucket holding the q-th
    /// observation, tightened to the tracked true extremes: never below
    /// `min_ns`, and the overflow bucket reports `max_ns` instead of
    /// infinity.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                let bound = match self.upper_bounds_ns.get(i) {
                    Some(ub) => (*ub).min(self.max_ns.max(self.min_ns)),
                    None => self.max_ns,
                };
                return Some(bound.max(self.min_ns));
            }
        }
        None
    }
}

/// Latency distribution per pipeline phase across the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseLatency {
    /// Forecast step.
    pub forecast: LatencyHistogram,
    /// Phase-1 detection.
    pub detect: LatencyHistogram,
    /// Phase-2 classification.
    pub classify: LatencyHistogram,
    /// Phase-3 flood filtering.
    pub flood_filter: LatencyHistogram,
    /// Whole interval processing.
    pub total: LatencyHistogram,
}

impl PhaseLatency {
    fn observe(&mut self, ns: &PhaseNanos) {
        self.forecast.observe(ns.forecast);
        self.detect.observe(ns.detect);
        self.classify.observe(ns.classify);
        self.flood_filter.observe(ns.flood_filter);
        self.total.observe(ns.total);
    }
}

/// The complete machine-readable record of one detection run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-interval records, in order.
    pub intervals: Vec<IntervalReport>,
    /// Alert totals across all intervals.
    pub alert_totals: PhaseAlertCounts,
    /// Phase latency distributions across all intervals.
    pub phase_latency: PhaseLatency,
    /// Total SYNs across the run.
    pub syn_total: u64,
    /// Total SYN/ACKs across the run.
    pub syn_ack_total: u64,
    /// Recorder memory footprint in bytes (0 if not supplied).
    pub sketch_memory_bytes: usize,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Folds one finished interval into the report.
    ///
    /// `saturation_threshold` is the per-interval detection threshold used
    /// to judge which buckets count as hot (see
    /// [`hifind_sketch::CounterGrid::saturation`]); pass
    /// [`crate::HiFindConfig::interval_threshold`].
    pub fn record_interval(
        &mut self,
        outcome: &IntervalOutcome,
        snapshot: &IntervalSnapshot,
        saturation_threshold: i64,
    ) {
        let alerts = PhaseAlertCounts::from_outcome(outcome);
        self.alert_totals.accumulate(&alerts);
        self.phase_latency.observe(&outcome.phase_ns);
        self.syn_total += snapshot.syn_count;
        self.syn_ack_total += snapshot.syn_ack_count;
        self.intervals.push(IntervalReport {
            interval: outcome.interval,
            syn_count: snapshot.syn_count,
            syn_ack_count: snapshot.syn_ack_count,
            phase_ns: outcome.phase_ns,
            alerts,
            sketch_health: snapshot_health(snapshot, saturation_threshold),
            forecast_error: outcome.forecast_error.clone(),
        });
    }

    /// Human-readable multi-line summary (the CLI's `--stats` output).
    pub fn summary_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} intervals, {} SYNs, {} SYN/ACKs",
            self.intervals.len(),
            self.syn_total,
            self.syn_ack_total
        );
        let _ = writeln!(
            out,
            "alerts: {} raw -> {} after-2D -> {} final ({} reclassified)",
            self.alert_totals.raw,
            self.alert_totals.classified,
            self.alert_totals.fin,
            self.alert_totals.reclassified
        );
        let _ = writeln!(
            out,
            "phase latency per interval ({:<13} {:>10} {:>10} {:>10} {:>10} {:>10}):",
            "phase", "mean", "p50", "p95", "p99", "max"
        );
        for (name, h) in [
            ("forecast", &self.phase_latency.forecast),
            ("detect", &self.phase_latency.detect),
            ("classify", &self.phase_latency.classify),
            ("flood_filter", &self.phase_latency.flood_filter),
            ("total", &self.phase_latency.total),
        ] {
            let q = |q: f64| h.quantile_ns(q).unwrap_or(0) as f64 / 1e6;
            let _ = writeln!(
                out,
                "  {name:<13} {:>7.3} ms {:>7.3} ms {:>7.3} ms {:>7.3} ms {:>7.3} ms",
                h.mean_ns() as f64 / 1e6,
                q(0.50),
                q(0.95),
                q(0.99),
                h.max_ns as f64 / 1e6,
            );
        }
        if let Some(last) = self.intervals.last() {
            let _ = writeln!(out, "sketch health (last interval):");
            for sh in &last.sketch_health {
                let _ = writeln!(
                    out,
                    "  {:<22} occupancy {:>6.2}%  saturation {:>6.2}%  max |c| {}",
                    sh.sketch,
                    sh.grid.mean_occupancy * 100.0,
                    sh.grid.saturation * 100.0,
                    sh.grid.max_abs,
                );
            }
        }
        out
    }
}

/// Measures every grid in a snapshot under its pipeline name.
pub fn snapshot_health(snapshot: &IntervalSnapshot, threshold: i64) -> Vec<SketchHealth> {
    [
        ("rs_sip_dport", &snapshot.rs_sip_dport),
        ("rs_dip_dport", &snapshot.rs_dip_dport),
        ("rs_sip_dip", &snapshot.rs_sip_dip),
        ("os", &snapshot.os),
        ("twod_sipdport_dip", &snapshot.twod_sipdport_dip),
        ("twod_sipdip_dport", &snapshot.twod_sipdip_dport),
    ]
    .into_iter()
    .map(|(name, grid)| SketchHealth::measure(name, grid, threshold))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiFindConfig;
    use crate::pipeline::HiFind;
    use hifind_flow::{Ip4, Packet, Trace};

    fn run_small_flood() -> RunReport {
        let cfg = HiFindConfig::small(11);
        let interval_ms = cfg.interval_ms;
        let mut ids = HiFind::new(cfg).unwrap();
        let mut report = RunReport::new();
        let victim: Ip4 = [129, 105, 0, 1].into();
        let mut trace = Trace::new();
        for iv in 0..4u64 {
            for i in 0..200u32 {
                trace.push(Packet::syn(
                    iv * interval_ms + i as u64,
                    Ip4::new(0x5000_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
        }
        ids.run_trace_with(&trace, Some(&mut report)).unwrap();
        report
    }

    #[test]
    fn report_collects_per_interval_records() {
        let report = run_small_flood();
        assert_eq!(report.intervals.len(), 4);
        assert_eq!(report.syn_total, 800);
        assert_eq!(report.phase_latency.total.count, 4);
        // Phase timings are measured, not defaulted: every interval took
        // nonzero total time, and sub-phases sum to no more than the total.
        for iv in &report.intervals {
            assert!(iv.phase_ns.total > 0);
            let parts = iv.phase_ns.forecast
                + iv.phase_ns.detect
                + iv.phase_ns.classify
                + iv.phase_ns.flood_filter;
            assert!(parts <= iv.phase_ns.total, "{:?}", iv.phase_ns);
            assert_eq!(iv.sketch_health.len(), 6);
        }
        // A pure-SYN flood leaves the sketches visibly occupied.
        let last = report.intervals.last().unwrap();
        let rs = &last.sketch_health[0];
        assert!(rs.grid.mean_occupancy > 0.0);
    }

    #[test]
    fn report_serde_round_trip() {
        let report = run_small_flood();
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn latency_histogram_buckets_and_stats() {
        let mut h = LatencyHistogram::default();
        h.observe(500); // below first bound (1µs)
        h.observe(1_000); // on the boundary: counts into the 1µs bucket
        h.observe(3_000_000); // 3ms
        assert_eq!(h.count, 3);
        assert_eq!(h.min_ns, 500);
        assert_eq!(h.max_ns, 3_000_000);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts.iter().sum::<u64>(), 3);
        assert_eq!(h.mean_ns(), (500 + 1_000 + 3_000_000) / 3);
    }

    #[test]
    fn empty_report_summarizes_without_panic() {
        let text = RunReport::new().summary_text();
        assert!(text.contains("0 intervals"));
    }

    #[test]
    fn latency_quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), None, "empty histogram has no quantiles");
        // 98 fast observations in the first bucket, 2 slow outliers.
        for _ in 0..98 {
            h.observe(800);
        }
        h.observe(3_000_000);
        h.observe(9_000_000);
        // p50/p95 land in the first bucket; its 1µs bound is tightened
        // to nothing below min_ns.
        assert_eq!(h.quantile_ns(0.50), Some(1_000));
        assert_eq!(h.quantile_ns(0.95), Some(1_000));
        // p99 reaches the outliers' bucket (bound 4.096ms).
        assert_eq!(h.quantile_ns(0.99), Some(4_096_000));
        // p100's bucket bound (16.4ms) is tightened to the true max.
        assert_eq!(h.quantile_ns(1.0), Some(9_000_000));
        // A single observation pins every quantile to its own bucket,
        // clamped to the true extreme.
        let mut one = LatencyHistogram::default();
        one.observe(500);
        assert_eq!(one.quantile_ns(0.5), Some(500));
    }

    #[test]
    fn summary_text_reports_tail_latencies() {
        let report = run_small_flood();
        let text = report.summary_text();
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p95"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }
}
