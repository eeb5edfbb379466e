//! The observability hub: one [`CollectObserver`] implementation fanning
//! collection-plane transitions into the interval-history store, the
//! structured event log, and a live alert mirror the HTTP API serves.
//!
//! The hub runs inline on collector/agent threads, so every callback is
//! bounded work: one keyframe encode and ring append (amortised one
//! segment write per [`crate::HistoryConfig::segment_intervals`]
//! intervals), one JSONL line, and a few map insertions. Failures are
//! counted and swallowed — observability must never take the detector
//! down.

use crate::events::EventLog;
use crate::history::{HistoryError, HistoryStore};
use hifind::pipeline::DetectionCore;
use hifind::report::{AlertLog, Phase};
use hifind::{HiFindConfig, IntervalOutcome, IntervalSnapshot};
use hifind_collect::CollectObserver;
use hifind_collect::WireError;
use hifind_sketch::SketchError;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared observability state: history tier, event log, alert mirror.
pub struct ObsvHub {
    cfg: HiFindConfig,
    history: Arc<HistoryStore>,
    events: Option<EventLog>,
    // lock-order: obsv.alerts
    alerts: Mutex<AlertLog>,
    last_interval: AtomicU64,
    intervals_closed: AtomicU64,
    identity: Option<(&'static str, u32)>,
}

impl ObsvHub {
    /// Builds a hub archiving into `history`, optionally logging events.
    pub fn new(cfg: HiFindConfig, history: Arc<HistoryStore>, events: Option<EventLog>) -> Self {
        ObsvHub {
            cfg,
            history,
            events,
            alerts: Mutex::new(AlertLog::new()),
            last_interval: AtomicU64::new(0),
            intervals_closed: AtomicU64::new(0),
            identity: None,
        }
    }

    /// Stamps a collection-tier identity (`"collector"`, `"aggregator"`,
    /// or `"agent"`, plus the node id within that tier) into every event
    /// record this hub emits and onto the `/metrics` labels, so logs and
    /// scrapes from a multi-tier deployment stay distinguishable.
    #[must_use]
    pub fn with_identity(mut self, tier: &'static str, node_id: u32) -> Self {
        self.identity = Some((tier, node_id));
        self
    }

    /// The tier identity, when one was stamped.
    pub fn identity(&self) -> Option<(&'static str, u32)> {
        self.identity
    }

    /// The configuration this hub's deployment detects under.
    pub fn config(&self) -> HiFindConfig {
        self.cfg
    }

    /// The history store backing `/api/intervals` and `/api/replay`.
    pub fn history(&self) -> &Arc<HistoryStore> {
        &self.history
    }

    /// A copy of the live alert log (mirrored per interval close).
    pub fn alerts(&self) -> AlertLog {
        self.lock_alerts().clone()
    }

    /// The most recently closed interval index.
    pub fn last_interval(&self) -> u64 {
        // relaxed-ok: monitoring read; staleness is fine
        self.last_interval.load(Ordering::Relaxed)
    }

    /// Intervals closed since the hub was built.
    pub fn intervals_closed(&self) -> u64 {
        // relaxed-ok: monitoring read; staleness is fine
        self.intervals_closed.load(Ordering::Relaxed)
    }

    fn lock_alerts(&self) -> MutexGuard<'_, AlertLog> {
        // Poisoning would only lose mirror freshness; keep serving.
        self.alerts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one closed (or forwarded) interval and archives its sum.
    fn archive(&self, interval: u64, snapshot: &IntervalSnapshot) {
        // relaxed-ok: independent monotone cells; readers tolerate skew
        self.last_interval.store(interval, Ordering::Relaxed);
        // relaxed-ok: same as above
        self.intervals_closed.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.history.append(interval, snapshot) {
            // Already counted in hifind_history_spill_errors_total.
            eprintln!("[hifind-obsv] history append failed: {e}");
        }
    }

    fn emit(&self, record: crate::events::EventRecord) {
        if let Some(log) = &self.events {
            log.emit(&record);
        }
    }

    fn record(&self, event: &'static str, interval: u64) -> crate::events::EventRecord {
        let mut rec = match &self.events {
            Some(log) => log.record(event, interval),
            None => crate::events::EventRecord {
                event,
                interval,
                ..crate::events::EventRecord::default()
            },
        };
        if let Some((tier, node_id)) = self.identity {
            rec.tier = Some(tier.to_string());
            rec.node_id = Some(node_id);
        }
        rec
    }
}

impl CollectObserver for ObsvHub {
    fn interval_closed(
        &self,
        interval: u64,
        snapshot: &IntervalSnapshot,
        outcome: &IntervalOutcome,
        contributors: usize,
        expected: usize,
    ) {
        self.archive(interval, snapshot);
        // Mirror the outcome into the live alert log and derive
        // raise/suppress events from what was new this interval.
        let mut raised = Vec::new();
        let mut suppressed = Vec::new();
        {
            let mut log = self.lock_alerts();
            let mut new_raw = Vec::new();
            for a in &outcome.raw {
                if log.record(Phase::Raw, *a) {
                    new_raw.push(*a);
                }
            }
            for a in &outcome.classified {
                log.record(Phase::AfterClassification, *a);
            }
            for a in &outcome.fin {
                if log.record(Phase::Final, *a) {
                    raised.push(*a);
                }
            }
            for a in new_raw {
                if !outcome.fin.iter().any(|f| f.identity() == a.identity()) {
                    suppressed.push(a);
                }
            }
        }
        if self.events.is_some() {
            let mut rec = self.record("interval_closed", interval);
            rec.routers = Some(u64::try_from(contributors).unwrap_or(u64::MAX));
            rec.expected = Some(u64::try_from(expected).unwrap_or(u64::MAX));
            rec.alerts_raw = Some(u64::try_from(outcome.raw.len()).unwrap_or(u64::MAX));
            rec.alerts_final = Some(u64::try_from(outcome.fin.len()).unwrap_or(u64::MAX));
            self.emit(rec);
            for a in &raised {
                let mut rec = self.record("alert_raised", interval);
                rec.alert = Some(a.to_string());
                self.emit(rec);
            }
            for a in &suppressed {
                let mut rec = self.record("alert_suppressed", interval);
                rec.alert = Some(a.to_string());
                self.emit(rec);
            }
        }
    }

    fn gap_synthesized(&self, interval: u64, _outcome: &IntervalOutcome) {
        // relaxed-ok: monotone bookkeeping; readers tolerate skew
        self.last_interval.store(interval, Ordering::Relaxed);
        self.emit(self.record("gap_synthesized", interval));
    }

    fn checkpoint_written(&self, interval: u64, path: &Path) {
        let mut rec = self.record("checkpoint_written", interval);
        rec.path = Some(path.display().to_string());
        self.emit(rec);
    }

    fn resumed(&self, interval: u64, path: &Path) {
        let mut rec = self.record("resumed", interval);
        rec.path = Some(path.display().to_string());
        self.emit(rec);
    }

    fn frame_rejected(&self, error: &WireError) {
        let mut rec = self.record("frame_rejected", self.last_interval());
        rec.error = Some(error.to_string());
        self.emit(rec);
    }

    fn agent_reconnected(&self, router_id: u32, reconnects: u64) {
        let mut rec = self.record("agent_reconnected", self.last_interval());
        rec.router_id = Some(router_id);
        rec.reconnects = Some(reconnects);
        self.emit(rec);
    }

    fn snapshot_forwarded(
        &self,
        node_id: u32,
        interval: u64,
        snapshot: &IntervalSnapshot,
        contributors: usize,
        expected: usize,
    ) {
        // Archive the forwarded sum, so a mid-tier node's /api/intervals
        // and /api/replay see its subtree exactly as the upstream does.
        self.archive(interval, snapshot);
        let mut rec = self.record("snapshot_forwarded", interval);
        rec.router_id = Some(node_id);
        rec.routers = Some(u64::try_from(contributors).unwrap_or(u64::MAX));
        rec.expected = Some(u64::try_from(expected).unwrap_or(u64::MAX));
        self.emit(rec);
    }

    fn tier_gap(&self, node_id: u32, interval: u64) {
        // relaxed-ok: monotone bookkeeping; readers tolerate skew
        self.last_interval.store(interval, Ordering::Relaxed);
        let mut rec = self.record("tier_gap", interval);
        rec.router_id = Some(node_id);
        self.emit(rec);
    }
}

/// Detection-knob overrides applied by a counterfactual replay. `None`
/// keeps the archived deployment's value. Only knobs outside the
/// record-plane fingerprint can be overridden — the sketches themselves
/// are fixed by what was archived.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayOverrides {
    /// Per-second change threshold (k·σ scale in the paper's terms).
    pub threshold_per_sec: Option<f64>,
    /// EWMA smoothing factor for the forecasters.
    pub ewma_alpha: Option<f64>,
    /// Intervals a flooding candidate must persist.
    pub flood_persist_intervals: Option<u32>,
    /// SYN/SYN-ACK imbalance ratio for the flooding heuristic.
    pub flood_syn_ratio: Option<f64>,
    /// Top-p key count for the 2D-sketch scan classification.
    pub classify_top_p: Option<usize>,
    /// Concentration threshold for the 2D-sketch scan classification.
    pub classify_phi: Option<f64>,
}

impl ReplayOverrides {
    /// Applies the overrides to a copy of `cfg`.
    pub fn apply(&self, mut cfg: HiFindConfig) -> HiFindConfig {
        cfg.threshold_per_sec = self.threshold_per_sec.unwrap_or(cfg.threshold_per_sec);
        cfg.ewma_alpha = self.ewma_alpha.unwrap_or(cfg.ewma_alpha);
        cfg.flood_persist_intervals = self
            .flood_persist_intervals
            .unwrap_or(cfg.flood_persist_intervals);
        cfg.flood_syn_ratio = self.flood_syn_ratio.unwrap_or(cfg.flood_syn_ratio);
        cfg.classify_top_p = self.classify_top_p.unwrap_or(cfg.classify_top_p);
        cfg.classify_phi = self.classify_phi.unwrap_or(cfg.classify_phi);
        cfg
    }
}

/// What a replay produced.
#[derive(Clone, Debug)]
pub struct ReplayOutput {
    /// First interval fed (the requested `from`).
    pub from: u64,
    /// Last interval fed (the requested `to`).
    pub to: u64,
    /// Snapshots actually found and replayed.
    pub intervals_replayed: u64,
    /// Intervals in the window with no archived snapshot (fed as gaps).
    pub gaps: u64,
    /// The counterfactual alert log.
    pub alerts: AlertLog,
}

/// Pulls `[from, to]` back out of `history` and feeds it through a fresh
/// [`DetectionCore`] under `cfg` with `overrides` applied. Intervals the
/// store no longer holds are fed as gaps (forecasters frozen), exactly
/// like the live aligner's outage handling, so the replayed timeline
/// stays aligned with the archived one. A window starting at the
/// deployment's interval 0 under unchanged knobs reproduces the live
/// alert set bit for bit.
///
/// # Errors
///
/// History read failures and detection-core construction errors (an
/// override that fails [`HiFindConfig::validate`]).
pub fn replay_window(
    cfg: HiFindConfig,
    history: &HistoryStore,
    from: u64,
    to: u64,
    overrides: &ReplayOverrides,
) -> Result<ReplayOutput, ReplayError> {
    let cfg = overrides.apply(cfg);
    let mut core = DetectionCore::new(cfg)?;
    let mut records = history.records(from, to)?.into_iter().peekable();
    let mut replayed = 0u64;
    let mut gaps = 0u64;
    for interval in from..=to {
        // Records are ascending, deduplicated and inside the window.
        // At most one decoded snapshot is alive at a time.
        match records.next_if(|(iv, _)| *iv == interval) {
            Some((_, keyframe)) => {
                core.process_snapshot(&history.decode(&keyframe)?);
                replayed += 1;
            }
            None => {
                core.process_gap();
                gaps += 1;
            }
        }
    }
    Ok(ReplayOutput {
        from,
        to,
        intervals_replayed: replayed,
        gaps,
        alerts: core.log().clone(),
    })
}

/// Why a replay failed.
#[derive(Debug)]
pub enum ReplayError {
    /// The archived window could not be read back.
    History(HistoryError),
    /// The overridden configuration failed validation or construction.
    Config(SketchError),
    /// The request window is empty or inverted.
    BadWindow {
        /// Requested start.
        from: u64,
        /// Requested end.
        to: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::History(e) => write!(f, "replay history error: {e}"),
            ReplayError::Config(e) => write!(f, "replay configuration error: {e}"),
            ReplayError::BadWindow { from, to } => {
                write!(f, "replay window [{from}, {to}] is empty or inverted")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<HistoryError> for ReplayError {
    fn from(e: HistoryError) -> Self {
        ReplayError::History(e)
    }
}

impl From<SketchError> for ReplayError {
    fn from(e: SketchError) -> Self {
        ReplayError::Config(e)
    }
}
