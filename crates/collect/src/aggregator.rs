//! The mid-tier role: a tier node (`crate::node`) whose sink forwards.
//!
//! An [`Aggregator`] accepts N downstream nodes (router agents or other
//! aggregators) on the same node loop as the root collector — same
//! engine, same bounded-reorder-window + straggler-quorum alignment, same
//! fingerprint-gated COMBINE — and re-emits **one** summed
//! [`hifind::IntervalSnapshot`] upstream through the same
//! retry/backoff/backlog shipping path the router agents use
//! ([`crate::ship`]). Because sketch summation is associative and
//! commutative (linearity), the root's detection over a tree of
//! aggregators is bit-identical to a flat run where every agent connects
//! to the root directly; the tree only multiplies fan-in.
//!
//! # Gap semantics
//!
//! When no child reports an interval, the aggregator forwards *nothing*
//! for it — never an all-zero snapshot, which would be summed upstream as
//! a real observation, drag the EWMA baseline toward zero, and cause
//! spurious alerts on recovery (the PR 5 regression, now per tier). The
//! upstream tier's own straggler/gap machinery notices the hole and
//! degrades exactly as if that subtree were a single silent router.
//!
//! # Durability
//!
//! An aggregator's durable state is precisely an agent checkpoint: its
//! node id, the next interval its node will flush, and the encoded
//! frames still owed upstream. It reuses the `"HFA1"` container verbatim,
//! so a killed mid-tier node resumes with its numbering and backlog
//! intact and the tiers above and below reconverge on their own.

use crate::align::Flush;
use crate::checkpoint::{self, AgentCheckpoint, CheckpointError};
use crate::collector::{CheckpointPolicy, CollectionReport, CollectorConfig};
use crate::node::{self, Sink, TierHandle};
use crate::observer::CollectObserver;
use crate::ship::{ShipConfig, Shipper};
use crate::wire;
use crate::{AgentStats, CollectError};
use hifind::{HiFindConfig, SnapshotShape};
use hifind_telemetry::{exponential_buckets, Counter, Registry};
use serde::Serialize;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Mid-tier policy knobs. The alignment half mirrors
/// [`crate::CollectorConfig`]; the shipping half mirrors
/// [`crate::AgentConfig`] — an aggregator is both at once.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// This node's id in the frame headers it emits upstream.
    pub node_id: u32,
    /// Downstream nodes expected to report each interval (the tier's
    /// quorum).
    pub expected_children: usize,
    /// How long to hold an incomplete interval open before forwarding on
    /// quorum.
    pub straggler_deadline: Duration,
    /// Maximum intervals held pending at once.
    pub reorder_window: u64,
    /// Per-frame payload cap handed to the wire layer.
    pub max_payload_bytes: u32,
    /// After every expected child has connected and all have
    /// disconnected, how long to wait for reconnects before finishing.
    pub linger: Duration,
    /// Periodic durable-state checkpointing (plus one final write at run
    /// end). Write failures are counted, never fatal.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume interval numbering and the unshipped backlog from this
    /// checkpoint file at startup.
    pub resume_from: Option<PathBuf>,
    /// Hooks invoked at tier transitions (snapshot forwarded, tier gap,
    /// frame rejection, checkpoint write/resume, upstream reconnect).
    pub observer: Option<Arc<dyn CollectObserver>>,
    /// Upstream shipping policy (backlog, attempts, backoff, timeouts).
    pub ship: ShipConfig,
}

impl AggregatorConfig {
    /// Sensible defaults for a node expecting `expected_children`
    /// downstream reporters.
    pub fn new(node_id: u32, expected_children: usize) -> Self {
        AggregatorConfig {
            node_id,
            expected_children: expected_children.max(1),
            straggler_deadline: Duration::from_secs(2),
            reorder_window: 8,
            max_payload_bytes: wire::DEFAULT_MAX_PAYLOAD,
            linger: Duration::from_millis(400),
            checkpoint: None,
            resume_from: None,
            observer: None,
            ship: ShipConfig::default(),
        }
    }
}

/// What one aggregation run saw and forwarded.
#[derive(Clone, Debug, Default, Serialize)]
pub struct AggregatorReport {
    /// This node's id.
    pub node_id: u32,
    /// Summed snapshots forwarded upstream.
    pub intervals_forwarded: u64,
    /// Forwarded intervals with every expected child reporting.
    pub complete_intervals: u64,
    /// Forwarded on quorum after the straggler deadline.
    pub partial_intervals: u64,
    /// Intervals no child reported: nothing was forwarded, the upstream
    /// tier synthesizes the gap.
    pub gap_intervals: u64,
    /// Missing child-interval contributions across partial intervals.
    pub straggler_slots: u64,
    /// Valid child frames combined into intervals.
    pub frames_received: u64,
    /// Child frames dropped as late or duplicate.
    pub frames_late: u64,
    /// Child frames rejected for wire/codec/fingerprint violations.
    pub frames_rejected: u64,
    /// Payload + header bytes of valid child frames.
    pub bytes_received: u64,
    /// Distinct child ids that contributed at least one valid frame.
    pub children_seen: Vec<u32>,
    /// Checkpoints successfully written this run.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (the run continues regardless).
    pub checkpoint_errors: u64,
    /// Interval the run resumed at, when started with
    /// [`AggregatorConfig::resume_from`].
    pub resumed_at_interval: Option<u64>,
    /// Upstream shipping counters (the same shape agents report).
    pub ship: AgentStats,
    /// Frames still owed upstream when the run ended (they were also
    /// captured in the final checkpoint, when one is configured).
    pub frames_unshipped: u64,
}

/// The mid-tier daemon. [`Aggregator::bind`] starts it; the returned
/// [`AggregatorHandle`] stops or awaits it.
pub struct Aggregator;

/// A running aggregator.
pub type AggregatorHandle = TierHandle<AggregatorReport>;

impl Aggregator {
    /// Binds `listen`, starts the engine and node threads, and ships
    /// summed snapshots to `upstream` (a collector or another
    /// aggregator).
    ///
    /// # Errors
    ///
    /// Fails on bind errors, invalid `cfg`, unreadable/mismatched resume
    /// checkpoints, or (when `registry` is given) metric registration
    /// clashes.
    pub fn bind(
        listen: impl ToSocketAddrs,
        upstream: impl Into<String>,
        cfg: HiFindConfig,
        agg_cfg: AggregatorConfig,
        registry: Option<Registry>,
    ) -> Result<AggregatorHandle, CollectError> {
        let fingerprint = cfg.fingerprint();
        let node_id = agg_cfg.node_id;
        let mut shipper = Shipper::new(upstream, node_id, agg_cfg.ship);
        if let Some(obs) = &agg_cfg.observer {
            shipper.set_observer(Arc::clone(obs));
        }
        let mut start_interval = 0;
        if let Some(path) = &agg_cfg.resume_from {
            let ckpt = checkpoint::read_agent_checkpoint(path)?;
            ckpt.validate_for(fingerprint, node_id)?;
            start_interval = ckpt.interval;
            shipper.restore_backlog(&ckpt.backlog);
        }
        let registry = registry.unwrap_or_default();
        shipper.encode_seconds = Some(registry.histogram(
            "hifind_collect_encode_seconds",
            "Latency of encoding one interval's snapshot into a codec-v2 payload",
            exponential_buckets(1e-6, 4.0, 11),
        )?);
        // The two series only a forwarding tier exports, on top of the
        // shared `hifind_collect_*` set.
        let forwarded = registry.counter(
            "hifind_collect_forwarded_total",
            "Summed interval snapshots forwarded upstream by this tier",
        )?;
        let tier_gaps = registry.counter(
            "hifind_collect_tier_gaps_total",
            "Intervals this tier forwarded nothing for (no child reported)",
        )?;
        let sink = ForwardSink {
            node_id,
            fingerprint,
            shipper,
            forwarded,
            tier_gaps,
        };
        let tier_cfg = CollectorConfig {
            expected_routers: agg_cfg.expected_children,
            straggler_deadline: agg_cfg.straggler_deadline,
            reorder_window: agg_cfg.reorder_window,
            max_payload_bytes: agg_cfg.max_payload_bytes,
            linger: agg_cfg.linger,
            checkpoint: agg_cfg.checkpoint,
            resume_from: agg_cfg.resume_from,
            observer: agg_cfg.observer,
        };
        node::spawn(
            listen,
            ("aggregator", node_id),
            SnapshotShape::of_config(&cfg)?,
            tier_cfg,
            start_interval,
            sink,
            &registry,
        )
    }
}

struct ForwardSink {
    node_id: u32,
    fingerprint: u64,
    shipper: Shipper,
    forwarded: Arc<Counter>,
    tier_gaps: Arc<Counter>,
}

impl Sink for ForwardSink {
    type Report = AggregatorReport;

    fn flush(&mut self, flush: Flush, tier: &CollectorConfig) {
        let Some((combined, contributors)) = flush.payload else {
            // A gap forwards NOTHING. An all-zero snapshot would be
            // summed upstream as a genuine observation and drag the
            // forecast baseline down; silence lets the upstream tier's
            // own straggler/gap machinery classify the hole correctly.
            self.tier_gaps.inc();
            if let Some(obs) = &tier.observer {
                obs.tier_gap(self.node_id, flush.interval);
            }
            return;
        };
        // The shipper encodes the sum as a keyframe and counts an
        // unframeable sum as a dropped interval itself.
        let _ = self.shipper.ship_snapshot(flush.interval, &combined);
        self.forwarded.inc();
        if let Some(obs) = &tier.observer {
            obs.snapshot_forwarded(
                self.node_id,
                flush.interval,
                &combined,
                contributors,
                tier.expected_routers,
            );
        }
    }

    /// One last push at whatever is still owed upstream, so the final
    /// checkpoint persists only the remainder and a restart re-ships
    /// exactly that.
    fn settle(&mut self) {
        let _ = self.shipper.flush();
    }

    fn write_checkpoint(&self, path: &Path, next_interval: u64) -> Result<(), CheckpointError> {
        let ckpt = AgentCheckpoint {
            fingerprint: self.fingerprint,
            router_id: self.node_id,
            interval: next_interval,
            backlog: self.shipper.backlog_frames(),
        };
        checkpoint::write_agent_checkpoint(path, &ckpt)
    }

    fn finish(self, c: CollectionReport) -> AggregatorReport {
        AggregatorReport {
            node_id: self.node_id,
            intervals_forwarded: c.intervals_flushed - c.gap_intervals,
            complete_intervals: c.complete_intervals,
            partial_intervals: c.partial_intervals,
            gap_intervals: c.gap_intervals,
            straggler_slots: c.straggler_slots,
            frames_received: c.frames_received,
            frames_late: c.frames_late,
            frames_rejected: c.frames_rejected,
            bytes_received: c.bytes_received,
            children_seen: c.routers_seen,
            checkpoints_written: c.checkpoints_written,
            checkpoint_errors: c.checkpoint_errors,
            resumed_at_interval: c.resumed_at_interval,
            ship: self.shipper.stats().clone(),
            frames_unshipped: u64::try_from(self.shipper.backlog_len()).unwrap_or(u64::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AgentConfig, RouterAgent};
    use crate::collector::{Collector, CollectorConfig};
    use hifind_flow::Packet;

    /// Two agents → one aggregator → root expecting one reporter: the
    /// root must see exactly the aggregator's node id and the combined
    /// frame count.
    #[test]
    fn two_agents_through_one_aggregator_round_trip() {
        let cfg = HiFindConfig::small(21);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.straggler_deadline = Duration::from_secs(60);
        root_cfg.reorder_window = 64;
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let mut agg_cfg = AggregatorConfig::new(500, 2);
        agg_cfg.straggler_deadline = Duration::from_secs(60);
        agg_cfg.reorder_window = 64;
        agg_cfg.linger = Duration::from_millis(100);
        let registry = Registry::new();
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            Some(registry.clone()),
        )
        .expect("bind aggregator");
        let agg_addr = agg.local_addr().to_string();
        for child in 0..2u32 {
            let mut agent =
                RouterAgent::new(agg_addr.clone(), &cfg, AgentConfig::new(child)).unwrap();
            for iv in 0..3u64 {
                for i in 0..20u8 {
                    agent.record(&Packet::syn(
                        iv,
                        [10, child as u8, 0, i].into(),
                        2000,
                        [129, 105, 0, 1].into(),
                        80,
                    ));
                }
                agent.end_interval();
            }
            agent.finish();
        }
        let agg_report = agg.wait().expect("aggregator threads");
        assert_eq!(agg_report.node_id, 500);
        assert_eq!(agg_report.frames_received, 6);
        assert_eq!(agg_report.intervals_forwarded, 3);
        assert_eq!(agg_report.complete_intervals, 3);
        assert_eq!(agg_report.gap_intervals, 0);
        assert_eq!(agg_report.frames_unshipped, 0);
        let mut children = agg_report.children_seen.clone();
        children.sort_unstable();
        assert_eq!(children, vec![0, 1]);
        // Each child frame is parsed and added once; each sum is encoded once.
        let timed = |name: &str| match registry.snapshot().get(name) {
            Some(hifind_telemetry::registry::MetricValue::Histogram(h)) => h.count,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(timed("hifind_collect_decode_seconds"), 6);
        assert_eq!(timed("hifind_collect_combine_seconds"), 6);
        assert_eq!(timed("hifind_collect_encode_seconds"), 3);
        let root_report = root.wait().expect("collector threads");
        assert_eq!(root_report.frames_received, 3);
        assert_eq!(root_report.complete_intervals, 3);
        assert_eq!(root_report.routers_seen, vec![500]);
    }

    /// Regression: at an aggregator a forged-shape frame used to become
    /// the pending sum — honest children then failed to combine and the
    /// forged shape was forwarded upstream.
    #[test]
    fn forged_shape_frame_at_an_aggregator_is_rejected_not_summed() {
        let cfg = HiFindConfig::small(24);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.linger = Duration::from_secs(60);
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let mut agg_cfg = AggregatorConfig::new(7, 1);
        agg_cfg.linger = Duration::from_secs(60);
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            None,
        )
        .expect("bind aggregator");
        let mut forger = std::net::TcpStream::connect(agg.local_addr()).expect("connect");
        let frame = crate::collector::tests::forged_shape_frame(&cfg, 9, 0);
        std::io::Write::write_all(&mut forger, &frame).expect("send");
        drop(forger);
        std::thread::sleep(Duration::from_millis(200));
        let agg_addr = agg.local_addr().to_string();
        let mut honest = RouterAgent::new(agg_addr, &cfg, AgentConfig::new(1)).unwrap();
        honest.end_interval();
        honest.finish();
        std::thread::sleep(Duration::from_millis(300));
        let report = agg.stop().expect("aggregator threads");
        assert_eq!(report.frames_rejected, 1);
        assert_eq!(report.frames_received, 1);
        assert_eq!(report.frames_late, 0);
        assert_eq!(report.children_seen, vec![1]);
        assert_eq!(report.intervals_forwarded, 1);
        std::thread::sleep(Duration::from_millis(200));
        let root_report = root.stop().expect("the root must not see the forged shape");
        assert_eq!(root_report.frames_received, 1);
        assert_eq!(root_report.frames_rejected, 0);
        assert_eq!(root_report.complete_intervals, 1);
    }

    /// Codec v1 is retired at interior tiers too: a version-1 frame is
    /// one typed, counted rejection that drops its connection, and the
    /// aggregator keeps summing and forwarding its other children's frames.
    #[test]
    fn version_1_frame_at_an_aggregator_is_rejected_not_summed() {
        use crate::collector::tests::{send_version_1_frame, Rejections};
        let cfg = HiFindConfig::small(25);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.linger = Duration::from_secs(60);
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let rejections = Arc::new(Rejections::default());
        let mut agg_cfg = AggregatorConfig::new(7, 1);
        agg_cfg.linger = Duration::from_secs(60);
        agg_cfg.observer = Some(Arc::clone(&rejections) as Arc<dyn CollectObserver>);
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            None,
        )
        .expect("bind aggregator");
        let agg_addr = agg.local_addr();
        let mut honest = RouterAgent::new(agg_addr.to_string(), &cfg, AgentConfig::new(1)).unwrap();
        honest.end_interval();
        send_version_1_frame(&cfg, agg_addr, 1);
        honest.end_interval();
        honest.finish();
        std::thread::sleep(Duration::from_millis(300));
        let report = agg
            .stop()
            .expect("a version-1 frame must not kill the node");
        assert_eq!(*rejections.0.lock().unwrap(), ["UnsupportedVersion(1)"]);
        assert_eq!(report.frames_rejected, 1);
        assert_eq!(report.frames_received, 2);
        assert_eq!(report.children_seen, vec![1]);
        assert_eq!(report.intervals_forwarded, 2);
        std::thread::sleep(Duration::from_millis(200));
        let root_report = root.stop().expect("collector threads");
        assert_eq!(root_report.frames_received, 2);
        assert_eq!(root_report.frames_rejected, 0);
    }

    /// A mis-seeded child at an interior tier is rejected with a typed,
    /// counted error — not silently dropped, and never merged.
    #[test]
    fn interior_fingerprint_mismatch_is_typed_and_counted() {
        let cfg = HiFindConfig::small(22);
        let rogue_cfg = HiFindConfig::small(23);
        let mut root_cfg = CollectorConfig::new(1);
        root_cfg.straggler_deadline = Duration::from_secs(60);
        let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
        let registry = Registry::new();
        let mut agg_cfg = AggregatorConfig::new(7, 2);
        agg_cfg.straggler_deadline = Duration::from_secs(60);
        agg_cfg.linger = Duration::from_millis(100);
        let agg = Aggregator::bind(
            "127.0.0.1:0",
            root.local_addr().to_string(),
            cfg,
            agg_cfg,
            Some(registry.clone()),
        )
        .expect("bind aggregator");
        let agg_addr = agg.local_addr().to_string();
        let mut good = RouterAgent::new(agg_addr.clone(), &cfg, AgentConfig::new(1)).unwrap();
        good.end_interval();
        good.finish();
        // The rogue frame is internally consistent (header fingerprint ==
        // payload fingerprint), so the wire layer passes it and the
        // MERGER must reject it on the tier's own fingerprint gate.
        let mut rogue = RouterAgent::new(agg_addr, &rogue_cfg, AgentConfig::new(2)).unwrap();
        rogue.end_interval();
        rogue.finish();
        let report = agg.wait().expect("aggregator threads");
        assert_eq!(report.frames_rejected, 1, "typed rejection is counted");
        assert_eq!(report.frames_received, 1);
        assert_eq!(report.children_seen, vec![1], "rogue never contributes");
        assert_eq!(report.partial_intervals, 1, "good child still forwards");
        let rejected = registry
            .snapshot()
            .get("hifind_collect_frames_rejected_total")
            .and_then(|m| match m {
                hifind_telemetry::registry::MetricValue::Counter { value } => Some(*value),
                _ => None,
            });
        assert_eq!(rejected, Some(1), "rejection reaches telemetry");
        let root_report = root.wait().expect("collector threads");
        assert_eq!(root_report.frames_received, 1, "partial sum still arrives");
    }
}
