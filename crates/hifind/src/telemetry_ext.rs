//! Live telemetry bridge, attached or detached at run time.
//!
//! Publishes pipeline activity into a [`hifind_telemetry::Registry`]:
//! amortized hot-path record timings, per-phase latency histograms, alert
//! counters by phase, and sketch-health gauges. Attach one to a pipeline
//! with [`crate::HiFind::attach_telemetry`]; snapshot the registry for
//! JSON or Prometheus output.
//!
//! The hot path pays one predictable branch per packet. Packets are counted
//! in windows of `RECORD_BATCH` (256) offered packets: a plain local
//! integer flushes to the shared atomic counter once per window (and at
//! interval end), and each full window observes one *amortized* record
//! latency — window wall time ÷ packets, one `Instant::now` per window. A
//! single packet cannot be timed honestly on the buffered record path: it
//! costs either a push into the pending batch or a whole batch scatter.
//! Both keep an attached recorder within the <5% overhead budget the
//! bench suite asserts.

use crate::pipeline::IntervalOutcome;
use crate::recorder::{IntervalSnapshot, RECORD_BATCH};
use crate::run_report::snapshot_health;
use hifind_sketch::SketchHealth;
use hifind_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Registry, TelemetryError};
use std::sync::Arc;
use std::time::Instant;

/// Handles into a registry for every pipeline metric.
pub struct PipelineTelemetry {
    registry: Registry,
    packets_total: Arc<Counter>,
    record_seconds: Arc<Histogram>,
    forecast_seconds: Arc<Histogram>,
    detect_seconds: Arc<Histogram>,
    classify_seconds: Arc<Histogram>,
    flood_filter_seconds: Arc<Histogram>,
    interval_seconds: Arc<Histogram>,
    intervals_total: Arc<Counter>,
    alerts_raw_total: Arc<Counter>,
    alerts_classified_total: Arc<Counter>,
    alerts_final_total: Arc<Counter>,
    syn_count_gauge: Arc<Gauge>,
    // Start of the current timing window; `None` until the first packet
    // after attaching or after an interval close.
    window_start: Option<Instant>,
    // Packets offered in the current window, not yet in `packets_total`.
    pending_packets: u64,
    // Failed best-effort metric publications (name/kind clashes with
    // metrics someone else put in the shared registry). Monitoring must
    // never abort detection, so these are counted, not propagated.
    publish_errors: u64,
}

impl std::fmt::Debug for PipelineTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineTelemetry").finish_non_exhaustive()
    }
}

impl PipelineTelemetry {
    /// Registers all pipeline metrics in `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::KindMismatch`] if any `hifind_*` pipeline
    /// metric name is already registered in `registry` under a different
    /// kind — the caller keeps running uninstrumented instead of aborting.
    pub fn new(registry: Registry) -> Result<Self, TelemetryError> {
        // Record path: 32ns .. ~33µs. Interval phases: 1µs .. ~17s.
        let record_buckets = exponential_buckets(32e-9, 4.0, 11);
        let phase_buckets = exponential_buckets(1e-6, 4.0, 13);
        let h = |name: &str, help: &str, buckets: &[f64]| {
            registry.histogram(name, help, buckets.to_vec())
        };
        Ok(PipelineTelemetry {
            packets_total: registry
                .counter("hifind_packets_total", "Packets offered to the recorder")?,
            record_seconds: h(
                "hifind_record_seconds",
                "Per-packet record latency, amortized over each window of 256 \
                 offered packets (window wall time / packets)",
                &record_buckets,
            )?,
            forecast_seconds: h(
                "hifind_forecast_seconds",
                "Per-interval EWMA forecast latency",
                &phase_buckets,
            )?,
            detect_seconds: h(
                "hifind_detect_seconds",
                "Per-interval phase-1 detection latency",
                &phase_buckets,
            )?,
            classify_seconds: h(
                "hifind_classify_seconds",
                "Per-interval phase-2 classification latency",
                &phase_buckets,
            )?,
            flood_filter_seconds: h(
                "hifind_flood_filter_seconds",
                "Per-interval phase-3 flood-filter latency",
                &phase_buckets,
            )?,
            interval_seconds: h(
                "hifind_interval_seconds",
                "Whole per-interval processing latency",
                &phase_buckets,
            )?,
            intervals_total: registry
                .counter("hifind_intervals_total", "Detection intervals processed")?,
            alerts_raw_total: registry.counter("hifind_alerts_raw_total", "Phase-1 raw alerts")?,
            alerts_classified_total: registry
                .counter("hifind_alerts_classified_total", "Phase-2 surviving alerts")?,
            alerts_final_total: registry
                .counter("hifind_alerts_final_total", "Phase-3 final alerts")?,
            syn_count_gauge: registry
                .gauge("hifind_interval_syns", "SYNs recorded in the last interval")?,
            registry,
            window_start: None,
            pending_packets: 0,
            publish_errors: 0,
        })
    }

    /// The registry everything is published into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Meters one offered packet around `record`, the call that records
    /// it: counts it and, once per window of `RECORD_BATCH` packets,
    /// observes the window's amortized per-packet latency.
    #[inline]
    pub fn record_packet(&mut self, record: impl FnOnce()) {
        if self.window_start.is_none() {
            self.window_start = Some(Instant::now());
        }
        record();
        self.pending_packets += 1;
        if self.pending_packets >= RECORD_BATCH as u64 {
            self.close_window();
        }
    }

    #[cold]
    fn close_window(&mut self) {
        let now = Instant::now();
        if let Some(start) = self.window_start.replace(now) {
            let per_packet = (now - start).as_secs_f64() / self.pending_packets as f64;
            self.record_seconds.observe(per_packet);
        }
        self.packets_total
            .add(std::mem::take(&mut self.pending_packets));
    }

    /// Publishes one finished interval: phase latencies, alert counters,
    /// and sketch-health gauges.
    pub fn publish_interval(
        &mut self,
        outcome: &IntervalOutcome,
        snapshot: &IntervalSnapshot,
        saturation_threshold: i64,
    ) {
        // The partial window is counted but not timed: its clock ran
        // through the interval close as well.
        self.packets_total
            .add(std::mem::take(&mut self.pending_packets));
        self.window_start = None;
        let ns = &outcome.phase_ns;
        self.forecast_seconds.observe(ns.forecast as f64 / 1e9);
        self.detect_seconds.observe(ns.detect as f64 / 1e9);
        self.classify_seconds.observe(ns.classify as f64 / 1e9);
        self.flood_filter_seconds
            .observe(ns.flood_filter as f64 / 1e9);
        self.interval_seconds.observe(ns.total as f64 / 1e9);
        self.intervals_total.inc();
        self.alerts_raw_total.add(outcome.raw.len() as u64);
        self.alerts_classified_total
            .add(outcome.classified.len() as u64);
        self.alerts_final_total.add(outcome.fin.len() as u64);
        self.syn_count_gauge.set(snapshot.syn_count as i64);
        for health in snapshot_health(snapshot, saturation_threshold) {
            if register_health_gauges(&self.registry, &health).is_err() {
                self.publish_errors += 1;
            }
        }
    }

    /// Best-effort publications that failed (e.g. a health gauge name was
    /// already registered as a different metric kind).
    pub fn publish_errors(&self) -> u64 {
        self.publish_errors
    }
}

/// Publishes a [`SketchHealth`] into a telemetry registry as gauges.
///
/// Gauge names follow `hifind_sketch_<what>{ sketch }` flattened to
/// `hifind_sketch_<what>_<sketch>` since the minimal registry is
/// label-free. Fractions are scaled to parts-per-million so they fit the
/// integer gauge type.
///
/// # Errors
///
/// Propagates [`TelemetryError`] if any gauge name is already registered
/// under a different metric kind.
fn register_health_gauges(
    registry: &Registry,
    health: &SketchHealth,
) -> Result<(), TelemetryError> {
    let ppm = |f: f64| (f * 1e6) as i64;
    let name = &health.sketch;
    registry
        .gauge(
            &format!("hifind_sketch_occupancy_ppm_{name}"),
            "Mean fraction of non-zero sketch buckets, in ppm",
        )?
        .set(ppm(health.grid.mean_occupancy));
    registry
        .gauge(
            &format!("hifind_sketch_saturation_ppm_{name}"),
            "Fraction of sketch buckets at or above the detection threshold, in ppm",
        )?
        .set(ppm(health.grid.saturation));
    registry
        .gauge(
            &format!("hifind_sketch_max_abs_{name}"),
            "Largest absolute counter value in the sketch",
        )?
        .set(health.grid.max_abs);
    if let Some(drift) = &health.drift {
        registry
            .gauge(
                &format!("hifind_sketch_drift_rel_ppm_{name}"),
                "Mean relative estimate error over sampled keys, in ppm",
            )?
            .set(ppm(drift.mean_rel_error));
    }
    if let Some(inference) = &health.inference {
        registry
            .gauge(
                &format!("hifind_sketch_inference_success_ppm_{name}"),
                "Fraction of reconstructed keys surviving filtering, in ppm",
            )?
            .set(ppm(inference.success_rate));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiFindConfig;
    use crate::pipeline::HiFind;
    use hifind_flow::{Ip4, Packet};
    use hifind_telemetry::registry::MetricValue;

    #[test]
    fn pipeline_publishes_into_registry() {
        let registry = Registry::new();
        let mut ids = HiFind::new(HiFindConfig::small(3)).unwrap();
        ids.attach_telemetry(registry.clone()).unwrap();
        let victim: Ip4 = [129, 105, 0, 1].into();
        // Two full timing windows and a partial one per interval.
        let per_interval = 2 * RECORD_BATCH as u32 + 88;
        for iv in 0..3u64 {
            for i in 0..per_interval {
                ids.record(&Packet::syn(
                    iv,
                    Ip4::new(0x5000_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
            ids.end_interval();
        }
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.get(name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .clone()
        };
        assert_eq!(
            get("hifind_packets_total"),
            MetricValue::Counter { value: 1800 }
        );
        assert_eq!(
            get("hifind_intervals_total"),
            MetricValue::Counter { value: 3 }
        );
        match get("hifind_record_seconds") {
            // One amortized value per full window; partial windows at an
            // interval close are counted but not timed.
            MetricValue::Histogram(h) => assert_eq!(h.count, 6),
            other => panic!("expected histogram, got {other:?}"),
        }
        match get("hifind_interval_seconds") {
            MetricValue::Histogram(h) => assert_eq!(h.count, 3),
            other => panic!("expected histogram, got {other:?}"),
        }
        // Sketch health gauges exist for every sketch.
        for sketch in ["rs_sip_dport", "os", "twod_sipdip_dport"] {
            assert!(
                snap.metrics
                    .iter()
                    .any(|m| m.name == format!("hifind_sketch_occupancy_ppm_{sketch}")),
                "occupancy gauge for {sketch} missing"
            );
        }
        // And the whole thing renders to Prometheus text.
        let text = snap.to_prometheus_text();
        assert!(text.contains("hifind_packets_total 1800"));
        assert!(text.contains("hifind_record_seconds_bucket"));
    }

    #[test]
    fn streaming_and_sharded_routes_are_metered() {
        // Every route into the record plane passes the one metered record
        // path: streaming mode and the sharded trace runner alike.
        let config = HiFindConfig::small(3);
        let mut trace = hifind_flow::Trace::new();
        for i in 0..1500u32 {
            let ts = u64::from(i) * 3 * config.interval_ms / 1500;
            let c = Ip4::new(0x5000_0000 + i);
            trace.push(Packet::syn(ts, c, 2000, [129, 105, 0, 1].into(), 80));
        }
        let n = trace.len() as u64;
        let packets_total =
            |registry: &Registry| registry.snapshot().get("hifind_packets_total").cloned();

        let streamed = Registry::new();
        let mut ids = HiFind::new(config).unwrap();
        ids.attach_telemetry(streamed.clone()).unwrap();
        for p in trace.iter() {
            ids.record_streaming(p);
        }
        ids.finish_stream();
        assert_eq!(
            packets_total(&streamed),
            Some(MetricValue::Counter { value: n })
        );

        let sharded = Registry::new();
        let mut ids = HiFind::new(config).unwrap();
        ids.attach_telemetry(sharded.clone()).unwrap();
        ids.run_trace_with(&trace, 2, None).unwrap();
        assert_eq!(
            packets_total(&sharded),
            Some(MetricValue::Counter { value: n })
        );
    }
}
