//! Event hooks for the collection plane.
//!
//! A [`CollectObserver`] is a set of callbacks the collector and router
//! agents invoke at significant state transitions — interval close, gap
//! synthesis, checkpoint write/resume, frame rejection, agent reconnect.
//! Every method has a no-op default, so implementors subscribe only to
//! what they need. The `hifind-obsv` crate implements this trait to feed
//! its interval-history store and structured event log; the collect plane
//! itself stays free of any I/O or policy beyond the call.
//!
//! Callbacks run on collector/agent threads, inline with the transition
//! they describe, so implementations must be cheap and must never panic
//! (they sit inside the panic-free perimeter enforced by `cargo xtask
//! lint`). Anything expensive belongs behind a bounded queue owned by the
//! observer.

use crate::wire::WireError;
use hifind::{IntervalOutcome, IntervalSnapshot};
use std::path::Path;

/// Callbacks for collection-plane transitions. All methods default to
/// no-ops; implementations must be `Send + Sync` because the collector
/// invokes them from its node thread and agents from their shipping path.
pub trait CollectObserver: Send + Sync {
    /// An interval was aligned and fed through detection. `contributors`
    /// of `expected` routers reported before the flush (fewer than
    /// `expected` means the straggler deadline forced a partial flush).
    fn interval_closed(
        &self,
        interval: u64,
        snapshot: &IntervalSnapshot,
        outcome: &IntervalOutcome,
        contributors: usize,
        expected: usize,
    ) {
        let _ = (interval, snapshot, outcome, contributors, expected);
    }

    /// No router reported for `interval` inside the reorder window; the
    /// pipeline synthesized a gap (forecasters frozen, no zero-feeding).
    fn gap_synthesized(&self, interval: u64, outcome: &IntervalOutcome) {
        let _ = (interval, outcome);
    }

    /// A core checkpoint was written covering state up to `interval`.
    fn checkpoint_written(&self, interval: u64, path: &Path) {
        let _ = (interval, path);
    }

    /// The collector resumed from a checkpoint at startup; detection
    /// continues from `interval`.
    fn resumed(&self, interval: u64, path: &Path) {
        let _ = (interval, path);
    }

    /// A frame failed wire validation (framing, CRC, version, or
    /// fingerprint) and was rejected before reaching the sum.
    fn frame_rejected(&self, error: &WireError) {
        let _ = error;
    }

    /// A router agent re-established its collector connection after a
    /// disconnect; `reconnects` counts them over the agent's lifetime.
    fn agent_reconnected(&self, router_id: u32, reconnects: u64) {
        let _ = (router_id, reconnects);
    }

    /// A mid-tier aggregator (`node_id`) combined `contributors` of
    /// `expected` child snapshots for `interval` and forwarded the sum
    /// upstream.
    fn snapshot_forwarded(
        &self,
        node_id: u32,
        interval: u64,
        snapshot: &IntervalSnapshot,
        contributors: usize,
        expected: usize,
    ) {
        let _ = (node_id, interval, snapshot, contributors, expected);
    }

    /// No child of aggregator `node_id` reported for `interval`: the tier
    /// forwarded *nothing* (never an all-zero snapshot), leaving gap
    /// synthesis to the upstream tier's own quorum machinery.
    fn tier_gap(&self, node_id: u32, interval: u64) {
        let _ = (node_id, interval);
    }
}

/// Lets the configs that carry an `Arc<dyn CollectObserver>` derive
/// `Debug`; an observer has no state worth printing.
impl std::fmt::Debug for dyn CollectObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CollectObserver")
    }
}
