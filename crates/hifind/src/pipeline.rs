//! The assembled HiFIND system (paper Figure 2).

use crate::classify::{classify, ClassifiedDetections};
use crate::config::HiFindConfig;
use crate::detector::{Detector, ErrorGrids};
use crate::fp_filter::{FloodFpFilter, FloodStreak};
use crate::parallel::{ParallelError, ParallelRecorder};
use crate::recorder::IntervalSnapshot;
use crate::report::{Alert, AlertLog, Phase};
use crate::run_report::PhaseNanos;
use hifind_flow::Trace;
use hifind_forecast::{ErrorStats, GridEwma, GridEwmaState};
use hifind_sketch::SketchError;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The interval-level detection engine: forecasting, three-step detection,
/// 2D classification, and flooding heuristics, fed one
/// [`IntervalSnapshot`] per interval.
///
/// [`HiFind`] wraps it with a recorder for the single-router case;
/// [`crate::HiFindAggregator`] feeds it combined snapshots from many
/// routers.
#[derive(Clone, Debug)]
pub struct DetectionCore {
    detector: Detector,
    forecasters: [GridEwma; 6],
    /// The forecasters' output, rewritten in place every interval.
    errors: ErrorGrids,
    flood_filter: FloodFpFilter,
    log: AlertLog,
    interval: u64,
}

/// What one interval produced at each phase.
#[derive(Clone, Debug, Default)]
pub struct IntervalOutcome {
    /// Interval index.
    pub interval: u64,
    /// Phase-1 raw alerts.
    pub raw: Vec<Alert>,
    /// Phase-2 survivors (scan FPs removed).
    pub classified: Vec<Alert>,
    /// Phase-3 final alerts.
    pub fin: Vec<Alert>,
    /// Scan candidates phase 2 reclassified as flooding-like.
    pub reclassified: Vec<Alert>,
    /// Wall time spent in each phase (per-interval, measured with
    /// `std::time`; feeds [`crate::RunReport`]).
    pub phase_ns: PhaseNanos,
    /// Forecast-error magnitudes for the three primary reversible-sketch
    /// grids (`{SIP,Dport}`, `{DIP,Dport}`, `{SIP,DIP}`); empty during
    /// warm-up.
    pub forecast_error: Vec<ErrorStats>,
}

impl DetectionCore {
    /// Builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the sketch constructors, and
    /// rejects configurations failing [`HiFindConfig::validate`].
    pub fn new(cfg: HiFindConfig) -> Result<Self, SketchError> {
        cfg.validate().map_err(SketchError::BadConfig)?;
        let alpha = cfg.ewma_alpha;
        let detector = Detector::new(&cfg)?;
        let errors = detector.zeroed_errors();
        Ok(DetectionCore {
            detector,
            forecasters: std::array::from_fn(|_| GridEwma::new(alpha)),
            errors,
            flood_filter: FloodFpFilter::new(),
            log: AlertLog::new(),
            interval: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &HiFindConfig {
        self.detector.config()
    }

    /// Processes one interval's snapshot through all phases.
    pub fn process_snapshot(&mut self, snapshot: &IntervalSnapshot) -> IntervalOutcome {
        let interval = self.interval;
        self.interval += 1;
        let started = Instant::now();
        let mut phase_ns = PhaseNanos::default();
        let warm = self.errors.forecast(&mut self.forecasters, snapshot);
        phase_ns.forecast = started.elapsed().as_nanos() as u64;
        if !warm {
            // Warm-up interval: no forecast yet (paper eq. 1, t = 1).
            phase_ns.total = started.elapsed().as_nanos() as u64;
            return IntervalOutcome {
                interval,
                phase_ns,
                ..IntervalOutcome::default()
            };
        }
        let grids = &self.errors;

        let forecast_error = vec![
            ErrorStats::measure(&grids.rs_sip_dport),
            ErrorStats::measure(&grids.rs_dip_dport),
            ErrorStats::measure(&grids.rs_sip_dip),
        ];

        // Phase 1: raw three-step detection.
        let phase_start = Instant::now();
        let raw = self.detector.detect(interval, grids);
        phase_ns.detect = phase_start.elapsed().as_nanos() as u64;
        for a in raw.all() {
            self.log.record(Phase::Raw, *a);
        }

        // Phase 2: 2D-sketch classification.
        let phase_start = Instant::now();
        let classified: ClassifiedDetections = classify(&self.detector, snapshot, &raw);
        phase_ns.classify = phase_start.elapsed().as_nanos() as u64;
        for a in classified
            .floodings
            .iter()
            .chain(&classified.vscans)
            .chain(&classified.hscans)
        {
            self.log.record(Phase::AfterClassification, *a);
        }

        // Phase 3: flooding heuristics; scans pass through.
        let phase_start = Instant::now();
        let filtered =
            self.flood_filter
                .filter(&self.detector, snapshot, interval, &classified.floodings);
        phase_ns.flood_filter = phase_start.elapsed().as_nanos() as u64;
        let mut fin = filtered.confirmed.clone();
        fin.extend(classified.vscans.iter().copied());
        fin.extend(classified.hscans.iter().copied());
        for a in &fin {
            self.log.record(Phase::Final, *a);
        }

        phase_ns.total = started.elapsed().as_nanos() as u64;
        IntervalOutcome {
            interval,
            raw: raw.all().copied().collect(),
            classified: classified
                .floodings
                .iter()
                .chain(&classified.vscans)
                .chain(&classified.hscans)
                .copied()
                .collect(),
            fin,
            reclassified: classified.reclassified,
            phase_ns,
            forecast_error,
        }
    }

    /// Skips one interval for which no observation exists (a collection
    /// outage): the interval number advances so persistence streaks and
    /// alert timestamps stay aligned with wall-clock intervals, but the
    /// forecasters are **not** stepped — the EWMA baseline freezes at its
    /// pre-outage value instead of being dragged toward zero by synthetic
    /// empty snapshots, so the first real interval after the gap is judged
    /// against the last trusted forecast and raises no spurious alert.
    pub fn process_gap(&mut self) -> IntervalOutcome {
        let interval = self.interval;
        self.interval += 1;
        IntervalOutcome {
            interval,
            ..IntervalOutcome::default()
        }
    }

    /// The forecast-error grids of the last interval that was forecast
    /// (all zero before the first forecast). They are the same buffers
    /// every interval: the forecasters rewrite them in place.
    pub fn error_grids(&self) -> &ErrorGrids {
        &self.errors
    }

    /// The deduplicated alert log across all processed intervals.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// Intervals processed so far.
    pub fn intervals_processed(&self) -> u64 {
        self.interval
    }

    /// Snapshots every piece of cross-interval detection state into a
    /// serializable [`CoreCheckpoint`]. Restoring it with
    /// [`DetectionCore::restore`] under the same configuration resumes the
    /// run exactly: identical future inputs yield identical alerts.
    pub fn checkpoint(&self) -> CoreCheckpoint {
        CoreCheckpoint {
            fingerprint: self.config().fingerprint(),
            interval: self.interval,
            forecasters: self.forecasters.iter().map(GridEwma::state).collect(),
            streaks: self.flood_filter.export_streaks(),
            raw_alerts: self.log.alerts(Phase::Raw).to_vec(),
            classified_alerts: self.log.alerts(Phase::AfterClassification).to_vec(),
            final_alerts: self.log.alerts(Phase::Final).to_vec(),
        }
    }

    /// Rebuilds a core from a checkpoint taken under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::FingerprintMismatch`] when the checkpoint
    /// was taken under a different record-plane configuration (its
    /// forecasts and streaks would be meaningless against sketches of
    /// another shape/seed), and [`SketchError::BadConfig`] when the
    /// checkpoint's internal state is inconsistent (wrong forecaster
    /// count, malformed EWMA state).
    pub fn restore(cfg: HiFindConfig, ckpt: &CoreCheckpoint) -> Result<Self, SketchError> {
        let expected = cfg.fingerprint();
        if ckpt.fingerprint != expected {
            return Err(SketchError::FingerprintMismatch {
                expected,
                got: ckpt.fingerprint,
            });
        }
        let mut core = DetectionCore::new(cfg)?;
        if ckpt.forecasters.len() != core.forecasters.len() {
            return Err(SketchError::BadConfig(format!(
                "checkpoint holds {} forecaster states, the core needs {}",
                ckpt.forecasters.len(),
                core.forecasters.len()
            )));
        }
        for (slot, state) in core.forecasters.iter_mut().zip(&ckpt.forecasters) {
            *slot = GridEwma::from_state(state.clone()).map_err(SketchError::BadConfig)?;
        }
        core.flood_filter = FloodFpFilter::from_streaks(ckpt.streaks.iter().copied());
        // Replaying through record() rebuilds the dedup indexes the log's
        // serialized form skips; checkpointed lists are already unique per
        // identity, so each replayed alert lands verbatim and in order.
        for a in &ckpt.raw_alerts {
            core.log.record(Phase::Raw, *a);
        }
        for a in &ckpt.classified_alerts {
            core.log.record(Phase::AfterClassification, *a);
        }
        for a in &ckpt.final_alerts {
            core.log.record(Phase::Final, *a);
        }
        core.interval = ckpt.interval;
        Ok(core)
    }
}

/// Everything a [`DetectionCore`] carries across intervals, in a
/// serializable form. Produced by [`DetectionCore::checkpoint`], consumed
/// by [`DetectionCore::restore`]; `crates/collect` wraps it in a
/// versioned, CRC-checked container for on-disk durability.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreCheckpoint {
    /// Record-plane fingerprint of the configuration the state was built
    /// under ([`HiFindConfig::fingerprint`]); restore refuses a mismatch.
    pub fingerprint: u64,
    /// Intervals processed when the checkpoint was taken.
    pub interval: u64,
    /// State of the six reversible-sketch grid forecasters, in
    /// [`DetectionCore::process_snapshot`] order.
    pub forecasters: Vec<GridEwmaState>,
    /// In-flight flooding persistence streaks, sorted by identity.
    pub streaks: Vec<FloodStreak>,
    /// Deduplicated phase-1 alerts.
    pub raw_alerts: Vec<Alert>,
    /// Deduplicated phase-2 alerts.
    pub classified_alerts: Vec<Alert>,
    /// Deduplicated phase-3 (final) alerts.
    pub final_alerts: Vec<Alert>,
}

/// The complete single-router HiFIND system: record plane + detection
/// engine.
///
/// See the [crate-level example](crate) for usage; the data-plane
/// operation is [`HiFind::record`], and [`HiFind::end_interval`] runs the
/// background detection once per interval. For live streams where the
/// caller does not want to manage interval boundaries,
/// [`HiFind::record_streaming`] rolls intervals over automatically from
/// packet timestamps.
#[derive(Debug)]
pub struct HiFind {
    /// The pipeline's own plane: zero workers, recording on this thread.
    recorder: ParallelRecorder,
    core: DetectionCore,
    /// Start of the current streaming interval (None until first packet).
    stream_window_start: Option<u64>,
    /// Live metrics publisher (attached via [`HiFind::attach_telemetry`]).
    telemetry: Option<crate::telemetry_ext::PipelineTelemetry>,
}

impl HiFind {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(cfg: HiFindConfig) -> Result<Self, SketchError> {
        // Zero workers spawn nothing: only the configuration can fail.
        let recorder = ParallelRecorder::new(&cfg, 0).map_err(|e| match e {
            ParallelError::Build(e) => e,
            e => SketchError::BadConfig(e.to_string()),
        })?;
        Ok(HiFind {
            recorder,
            core: DetectionCore::new(cfg)?,
            stream_window_start: None,
            telemetry: None,
        })
    }

    /// Publishes live metrics (packet counts, amortized record latency,
    /// phase latencies, alert counters, sketch-health gauges) into
    /// `registry` from now on.
    ///
    /// # Errors
    ///
    /// Returns [`hifind_telemetry::TelemetryError::KindMismatch`] if a
    /// `hifind_*` metric name already exists in `registry` under another
    /// kind; the pipeline stays uninstrumented and keeps working.
    pub fn attach_telemetry(
        &mut self,
        registry: hifind_telemetry::Registry,
    ) -> Result<(), hifind_telemetry::TelemetryError> {
        self.telemetry = Some(crate::telemetry_ext::PipelineTelemetry::new(registry)?);
        Ok(())
    }

    /// Stops publishing live metrics; recording reverts to the
    /// uninstrumented path. Already-published values stay in the registry.
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HiFindConfig {
        self.core.config()
    }

    /// Records one packet (the per-packet hot path). Every route into the
    /// record plane passes here, so attached telemetry meters them alike.
    #[inline]
    pub fn record(&mut self, packet: &hifind_flow::Packet) {
        if let Some(t) = &mut self.telemetry {
            let plane = &mut self.recorder;
            return t.record_packet(|| plane.record(packet));
        }
        self.recorder.record(packet);
    }

    /// Records a slice of packets, one [`HiFind::record`] each.
    pub fn record_all(&mut self, packets: &[hifind_flow::Packet]) {
        for p in packets {
            self.record(p);
        }
    }

    /// Ends the current interval: snapshots the sketches and runs the
    /// detection pipeline. Only a sharded plane can fail to close, and then
    /// the interval is a gap, as a collection outage is.
    pub fn end_interval(&mut self) -> IntervalOutcome {
        let (core, telemetry) = (&mut self.core, &mut self.telemetry);
        match self
            .recorder
            .end_interval_with(|snapshot| detect(core, telemetry, snapshot))
        {
            Ok(outcome) => outcome,
            Err(_) => self.core.process_gap(),
        }
    }

    /// Records a packet in *streaming mode*: interval boundaries are
    /// derived from packet timestamps (`config.interval_ms`-wide windows
    /// aligned to the first packet's window). When a packet's timestamp
    /// crosses into a new window, all elapsed intervals are closed first
    /// (including empty ones, so the forecaster ticks uniformly) and their
    /// outcomes returned.
    ///
    /// Packets must arrive in non-decreasing timestamp order; late packets
    /// are counted into the *current* interval rather than dropped.
    pub fn record_streaming(&mut self, packet: &hifind_flow::Packet) -> Vec<IntervalOutcome> {
        let width = self.core.config().interval_ms;
        let window = packet.ts_ms / width;
        let mut outcomes = Vec::new();
        match self.stream_window_start {
            None => self.stream_window_start = Some(window),
            Some(current) if window > current => {
                for _ in current..window {
                    outcomes.push(self.end_interval());
                }
                self.stream_window_start = Some(window);
            }
            Some(_) => {}
        }
        self.record(packet);
        outcomes
    }

    /// Flushes the in-progress streaming interval (call at end of stream).
    pub fn finish_stream(&mut self) -> Option<IntervalOutcome> {
        self.stream_window_start.take().map(|_| self.end_interval())
    }

    /// Replays a whole trace with the configured interval width on this
    /// thread and returns the final alert log:
    /// [`HiFind::run_trace_with`] with no workers and no report.
    pub fn run_trace(&mut self, trace: &Trace) -> AlertLog {
        // With no workers there is no shard to lose: this cannot fail.
        let _ = self.run_trace_with(trace, 0, None);
        self.core.log().clone()
    }

    /// Replays a whole trace with the configured interval width and
    /// returns the final alert log, adding one record per interval to
    /// `report` (phase latencies, alert counts by phase, sketch health —
    /// what `hifind detect --metrics-json` writes) when one is given.
    ///
    /// `workers == 0` records on this thread through the pipeline's own
    /// plane, as [`HiFind::record`] does. `workers > 0` swaps in a
    /// [`ParallelRecorder`] with that many worker threads for this call,
    /// then restores the pipeline's own plane and joins the workers before
    /// returning: the swapped-in plane starts from empty sketches and an
    /// empty active-service filter, and the pipeline's own plane is neither
    /// read nor written. Sketch linearity makes the merged shard snapshots
    /// bit-identical to the inline plane's, so on a fresh pipeline both
    /// settings return the same [`AlertLog`]; see `docs/PARALLEL_RECORD.md`.
    ///
    /// # Errors
    ///
    /// Returns [`ParallelError`] if the sharded plane cannot be built or a
    /// worker thread dies mid-run; the detection core keeps whatever
    /// intervals completed before the failure. `workers == 0` never fails.
    pub fn run_trace_with(
        &mut self,
        trace: &Trace,
        workers: usize,
        mut report: Option<&mut crate::RunReport>,
    ) -> Result<AlertLog, ParallelError> {
        if let Some(r) = report.as_deref_mut() {
            r.sketch_memory_bytes = self.recorder.memory_bytes();
        }
        let own = match workers {
            0 => None,
            n => {
                let plane = ParallelRecorder::new(self.core.config(), n)?;
                Some(std::mem::replace(&mut self.recorder, plane))
            }
        };
        if let (Some(_), Some(t)) = (&own, &self.telemetry) {
            // Shard/merge gauges live in the same registry as the pipeline
            // metrics; a name clash leaves the plane uninstrumented but
            // fully functional.
            let _ = self.recorder.attach_telemetry(t.registry());
        }
        let replayed = self.replay(trace, report);
        let joined = match own {
            Some(own) => std::mem::replace(&mut self.recorder, own).finish(),
            None => Ok(()),
        };
        replayed.and(joined)?;
        Ok(self.core.log().clone())
    }

    /// Records and detects every interval of `trace` through the current
    /// plane, adding one record per interval to `report`.
    fn replay(
        &mut self,
        trace: &Trace,
        mut report: Option<&mut crate::RunReport>,
    ) -> Result<(), ParallelError> {
        let threshold = self.core.config().interval_threshold();
        for window in trace.intervals(self.core.config().interval_ms) {
            for p in window.packets {
                self.record(p);
            }
            let (core, telemetry) = (&mut self.core, &mut self.telemetry);
            self.recorder.end_interval_with(|snapshot| {
                let outcome = detect(core, telemetry, snapshot);
                if let Some(r) = report.as_deref_mut() {
                    r.record_interval(&outcome, snapshot, threshold);
                }
            })?;
        }
        Ok(())
    }

    /// The deduplicated alert log.
    pub fn log(&self) -> &AlertLog {
        self.core.log()
    }

    /// Borrows the record plane (memory accounting).
    pub fn recorder(&self) -> &ParallelRecorder {
        &self.recorder
    }

    /// Intervals processed so far.
    pub fn intervals_processed(&self) -> u64 {
        self.core.intervals_processed()
    }
}

/// Runs detection on one interval's snapshot and publishes the outcome
/// to attached telemetry.
fn detect(
    core: &mut DetectionCore,
    telemetry: &mut Option<crate::telemetry_ext::PipelineTelemetry>,
    snapshot: &IntervalSnapshot,
) -> IntervalOutcome {
    let outcome = core.process_snapshot(snapshot);
    if let Some(t) = telemetry {
        let threshold = core.config().interval_threshold();
        t.publish_interval(&outcome, snapshot, threshold);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SketchRecorder;
    use crate::report::AlertKind;
    use hifind_flow::{Ip4, Packet};

    fn cfg() -> HiFindConfig {
        HiFindConfig::small(40)
    }

    /// Builds a trace where a service is alive in interval 0, then flooded
    /// in intervals 1..4, with background handshakes throughout.
    fn flood_trace(interval_ms: u64) -> (Trace, Ip4) {
        let victim: Ip4 = [129, 105, 0, 1].into();
        let mut t = Trace::new();
        for iv in 0..5u64 {
            let base = iv * interval_ms;
            for i in 0..25u32 {
                let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
                t.push(Packet::syn(
                    base + i as u64 * 7,
                    c,
                    4000 + i as u16,
                    victim,
                    80,
                ));
                t.push(Packet::syn_ack(
                    base + i as u64 * 7 + 1,
                    c,
                    4000 + i as u16,
                    victim,
                    80,
                ));
            }
            if iv >= 1 {
                for i in 0..300u32 {
                    t.push(Packet::syn(
                        base + 100 + i as u64,
                        Ip4::new(((0x5000_0000 + (iv as u32)) << 20) | i),
                        2000,
                        victim,
                        80,
                    ));
                }
            }
        }
        t.sort_by_time();
        (t, victim)
    }

    #[test]
    fn end_to_end_flood_detection() {
        let config = cfg();
        let (trace, victim) = flood_trace(config.interval_ms);
        let mut ids = HiFind::new(config).unwrap();
        let log = ids.run_trace(&trace);
        let finals = log.final_alerts();
        assert!(
            finals
                .iter()
                .any(|a| a.kind == AlertKind::SynFlooding && a.dip == Some(victim)),
            "final alerts: {finals:?}"
        );
        assert!(ids.intervals_processed() >= 5);
    }

    #[test]
    fn quiet_trace_raises_nothing() {
        let config = cfg();
        let mut t = Trace::new();
        for iv in 0..4u64 {
            for i in 0..40u32 {
                let c: Ip4 = [9, 9, (i % 3) as u8, (i % 100) as u8].into();
                let s: Ip4 = [129, 105, 0, (i % 5) as u8].into();
                let ts = iv * config.interval_ms + i as u64 * 11;
                t.push(Packet::syn(ts, c, 4000 + i as u16, s, 80));
                t.push(Packet::syn_ack(ts + 1, c, 4000 + i as u16, s, 80));
            }
        }
        t.sort_by_time();
        let mut ids = HiFind::new(config).unwrap();
        let log = ids.run_trace(&t);
        assert!(log.final_alerts().is_empty(), "{:?}", log.final_alerts());
        assert!(log.alerts(Phase::Raw).is_empty());
    }

    #[test]
    fn first_interval_is_warmup() {
        let config = cfg();
        let mut ids = HiFind::new(config).unwrap();
        // Even a blatant flood in interval 0 cannot alert (no forecast).
        for i in 0..500u32 {
            ids.record(&Packet::syn(
                i as u64,
                Ip4::new(0x5000_0000 + i),
                2000,
                [129, 105, 0, 1].into(),
                80,
            ));
        }
        let outcome = ids.end_interval();
        assert!(outcome.raw.is_empty());
        assert_eq!(outcome.interval, 0);
    }

    #[test]
    fn phase_counts_are_monotone_decreasing_for_floodings() {
        let config = cfg();
        let (trace, _) = flood_trace(config.interval_ms);
        let mut ids = HiFind::new(config).unwrap();
        let log = ids.run_trace(&trace);
        let raw = log.count(Phase::Raw, AlertKind::SynFlooding);
        let classified = log.count(Phase::AfterClassification, AlertKind::SynFlooding);
        let fin = log.count(Phase::Final, AlertKind::SynFlooding);
        assert!(raw >= classified);
        assert!(classified >= fin);
        assert!(fin >= 1);
    }

    #[test]
    fn streaming_mode_matches_batch_mode() {
        let config = cfg();
        let (trace, _) = flood_trace(config.interval_ms);

        let mut batch = HiFind::new(config).unwrap();
        let batch_log = batch.run_trace(&trace);

        let mut stream = HiFind::new(config).unwrap();
        for p in trace.iter() {
            stream.record_streaming(p);
        }
        stream.finish_stream();

        assert_eq!(
            batch_log.final_alerts(),
            stream.log().final_alerts(),
            "streaming and batch interval boundaries must agree"
        );
    }

    #[test]
    fn streaming_closes_empty_gap_intervals() {
        let config = cfg();
        let mut ids = HiFind::new(config).unwrap();
        let p1 = Packet::syn(0, [1, 1, 1, 1].into(), 1, [2, 2, 2, 2].into(), 80);
        // Next packet three intervals later: two elapsed + the gap close.
        let p2 = Packet::syn(
            3 * config.interval_ms + 5,
            [1, 1, 1, 1].into(),
            2,
            [2, 2, 2, 2].into(),
            80,
        );
        assert!(ids.record_streaming(&p1).is_empty());
        let outcomes = ids.record_streaming(&p2);
        assert_eq!(outcomes.len(), 3, "intervals 0..3 must all close");
        assert!(ids.finish_stream().is_some());
        assert_eq!(ids.intervals_processed(), 4);
    }

    #[test]
    fn core_can_be_driven_by_snapshots_directly() {
        let config = cfg();
        let mut rec = SketchRecorder::new(&config).unwrap();
        let mut core = DetectionCore::new(config).unwrap();
        for _ in 0..3 {
            let snap = rec.take_snapshot();
            core.process_snapshot(&snap);
        }
        assert_eq!(core.intervals_processed(), 3);
    }

    /// One interval of steady benign traffic into `rec`.
    fn steady_interval(rec: &mut SketchRecorder) -> IntervalSnapshot {
        for i in 0..40u32 {
            let c: Ip4 = [9, 9, (i % 3) as u8, (i % 100) as u8].into();
            let s: Ip4 = [129, 105, 0, (i % 5) as u8].into();
            rec.record(&Packet::syn(i as u64, c, 4000 + i as u16, s, 80));
            rec.record(&Packet::syn_ack(i as u64 + 1, c, 4000 + i as u16, s, 80));
        }
        rec.take_snapshot()
    }

    #[test]
    fn gap_intervals_do_not_pollute_the_forecast() {
        // Regression: a collection outage used to be synthesized as
        // all-zero snapshots through process_snapshot, dragging the EWMA
        // baseline toward zero so the first real interval after the outage
        // spiked the forecast error. A 3-interval outage over steady
        // traffic must raise nothing.
        let config = cfg();
        let mut rec = SketchRecorder::new(&config).unwrap();
        let mut core = DetectionCore::new(config).unwrap();
        for _ in 0..4 {
            let snap = steady_interval(&mut rec);
            core.process_snapshot(&snap);
        }
        for _ in 0..3 {
            let out = core.process_gap();
            assert!(out.raw.is_empty());
        }
        assert_eq!(core.intervals_processed(), 7);
        for _ in 0..3 {
            let snap = steady_interval(&mut rec);
            let out = core.process_snapshot(&snap);
            assert!(
                out.raw.is_empty(),
                "steady traffic after an outage must not alert: {:?}",
                out.raw
            );
        }
        assert_eq!(core.intervals_processed(), 10);
        assert!(core.log().alerts(Phase::Raw).is_empty());
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        // Split a flood trace at every interval boundary: processing
        // [0, k) → checkpoint → restore → [k, n) must end with the same
        // alert log as the uninterrupted run.
        let config = cfg();
        let (trace, _) = flood_trace(config.interval_ms);
        let snapshots: Vec<IntervalSnapshot> = {
            let mut rec = SketchRecorder::new(&config).unwrap();
            trace
                .intervals(config.interval_ms)
                .map(|w| {
                    for p in w.packets {
                        rec.record(p);
                    }
                    rec.take_snapshot()
                })
                .collect()
        };
        let mut reference = DetectionCore::new(config).unwrap();
        for s in &snapshots {
            reference.process_snapshot(s);
        }
        assert!(!reference.log().final_alerts().is_empty());
        for k in 0..=snapshots.len() {
            let mut first = DetectionCore::new(config).unwrap();
            for s in &snapshots[..k] {
                first.process_snapshot(s);
            }
            let ckpt = first.checkpoint();
            let mut resumed = DetectionCore::restore(config, &ckpt).unwrap();
            for s in &snapshots[k..] {
                resumed.process_snapshot(s);
            }
            for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
                assert_eq!(
                    reference.log().alerts(phase),
                    resumed.log().alerts(phase),
                    "kill point {k}, {phase:?}"
                );
            }
            assert_eq!(resumed.intervals_processed(), snapshots.len() as u64);
        }
    }

    #[test]
    fn restore_rejects_foreign_fingerprint() {
        let core = DetectionCore::new(cfg()).unwrap();
        let ckpt = core.checkpoint();
        let other = HiFindConfig::small(41);
        assert!(matches!(
            DetectionCore::restore(other, &ckpt),
            Err(SketchError::FingerprintMismatch { .. })
        ));
    }
}
