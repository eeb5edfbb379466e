//! The root role: a tier node (`crate::node`) whose sink runs detection.
//!
//! Alignment, quorum degradation, checkpoint cadence, counters and
//! metrics are the shared node's. The detect sink adds only what the root
//! of a collection tree does differently: it resumes a [`DetectionCore`]
//! from an `"HFC1"` checkpoint, feeds every flushed interval to it (a
//! combined snapshot through [`DetectionCore::process_snapshot`], a gap
//! through [`DetectionCore::process_gap`]), checkpoints the core's state,
//! and reports the run's [`AlertLog`] beside the shared counters.

use crate::align::Flush;
use crate::checkpoint::{self, CheckpointError};
use crate::node::{self, Sink, TierHandle};
use crate::observer::CollectObserver;
use crate::wire;
use crate::CollectError;
use hifind::pipeline::DetectionCore;
use hifind::report::AlertLog;
use hifind::{HiFindConfig, SnapshotShape};
use hifind_telemetry::Registry;
use serde::Serialize;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// When and where a tier node persists its durable state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file, overwritten atomically on every write.
    pub path: PathBuf,
    /// Write after every N flushed intervals (`0` = only at run end).
    pub every_intervals: u64,
}

impl CheckpointPolicy {
    /// Checkpoints to `path` every 8 flushed intervals.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            path: path.into(),
            every_intervals: 8,
        }
    }
}

/// Collection-site policy knobs. This is also the receiving-side policy
/// of every tier node: [`crate::AggregatorConfig`] is these fields plus a
/// node id and an upstream shipping policy.
#[derive(Clone, Debug)]
pub struct CollectorConfig {
    /// Routers expected to report each interval. Detection flushes early
    /// when all of them did; the deadline below covers the rest.
    pub expected_routers: usize,
    /// How long to hold an incomplete interval open once it has any data
    /// (or once later intervals prove it was skipped) before flushing on
    /// quorum.
    pub straggler_deadline: Duration,
    /// Maximum intervals held pending at once; beyond this the oldest is
    /// force-flushed regardless of deadline (bounds memory under heavy
    /// inter-router skew).
    pub reorder_window: u64,
    /// Per-frame payload cap handed to the wire layer.
    pub max_payload_bytes: u32,
    /// After every expected router has connected and all have
    /// disconnected, how long to wait for reconnects before finishing.
    pub linger: Duration,
    /// Periodic detection-state checkpointing (plus one final write at run
    /// end). Write failures are counted, never fatal.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume detection state from this checkpoint file at startup. A
    /// missing, corrupt, or mis-fingerprinted file fails
    /// [`Collector::bind`] with a typed error rather than silently
    /// starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Hooks invoked at collection-plane transitions (interval close, gap
    /// synthesis, checkpoint write/resume, frame rejection); `None`
    /// observes nothing. Callbacks run inline on the node thread, so
    /// they must stay cheap.
    pub observer: Option<Arc<dyn CollectObserver>>,
}

impl CollectorConfig {
    /// Sensible defaults for `expected_routers` reporters.
    pub fn new(expected_routers: usize) -> Self {
        CollectorConfig {
            expected_routers: expected_routers.max(1),
            straggler_deadline: Duration::from_secs(2),
            reorder_window: 8,
            max_payload_bytes: wire::DEFAULT_MAX_PAYLOAD,
            linger: Duration::from_millis(400),
            checkpoint: None,
            resume_from: None,
            observer: None,
        }
    }
}

/// What one collection run saw and decided.
#[derive(Clone, Debug, Default, Serialize)]
pub struct CollectionReport {
    /// Intervals fed to the detection pipeline.
    pub intervals_flushed: u64,
    /// Intervals with every expected router reporting.
    pub complete_intervals: u64,
    /// Intervals flushed on quorum after the straggler deadline.
    pub partial_intervals: u64,
    /// Intervals no router reported (synthesized as all-zero).
    pub gap_intervals: u64,
    /// Missing router-interval contributions across partial intervals.
    pub straggler_slots: u64,
    /// Valid frames combined into intervals.
    pub frames_received: u64,
    /// Frames for intervals already flushed, and duplicate
    /// router-interval frames (both dropped).
    pub frames_late: u64,
    /// Frames rejected for wire/codec/fingerprint violations.
    pub frames_rejected: u64,
    /// Payload + header bytes of valid frames.
    pub bytes_received: u64,
    /// Distinct router ids that contributed at least one valid frame.
    pub routers_seen: Vec<u32>,
    /// Checkpoints successfully written this run.
    pub checkpoints_written: u64,
    /// Checkpoint writes that failed (the run continues regardless).
    pub checkpoint_errors: u64,
    /// Interval the run resumed at, when started with
    /// [`CollectorConfig::resume_from`].
    pub resumed_at_interval: Option<u64>,
    /// The full alert log of the aggregated detection run.
    pub log: AlertLog,
}

/// The collection daemon. [`Collector::bind`] starts it; the returned
/// [`CollectorHandle`] stops or awaits it.
pub struct Collector;

/// A running collector.
pub type CollectorHandle = TierHandle<CollectionReport>;

impl Collector {
    /// Binds `addr` and starts the engine and node threads.
    ///
    /// # Errors
    ///
    /// Fails on bind errors, invalid `cfg`, unreadable/mismatched resume
    /// checkpoints, or (when `registry` is given) metric registration
    /// clashes.
    pub fn bind(
        addr: impl ToSocketAddrs,
        cfg: HiFindConfig,
        collector_cfg: CollectorConfig,
        registry: Option<Registry>,
    ) -> Result<CollectorHandle, CollectError> {
        let core = match &collector_cfg.resume_from {
            Some(path) => DetectionCore::restore(cfg, &checkpoint::read_core_checkpoint(path)?)?,
            None => DetectionCore::new(cfg)?,
        };
        let start_interval = core.intervals_processed();
        node::spawn(
            addr,
            ("collector", 0),
            SnapshotShape::of_config(&cfg)?,
            collector_cfg,
            start_interval,
            DetectSink(core),
            &registry.unwrap_or_default(),
        )
    }
}

struct DetectSink(DetectionCore);

impl Sink for DetectSink {
    type Report = CollectionReport;

    fn flush(&mut self, flush: Flush, tier: &CollectorConfig) {
        match &flush.payload {
            Some((combined, contributors)) => {
                let outcome = self.0.process_snapshot(combined);
                if let Some(obs) = &tier.observer {
                    obs.interval_closed(
                        flush.interval,
                        combined,
                        &outcome,
                        *contributors,
                        tier.expected_routers,
                    );
                }
            }
            None => {
                // No observation exists for this interval. Advancing the
                // interval counter without stepping the forecasters keeps
                // the EWMA baseline frozen at its pre-outage value —
                // synthesizing an all-zero snapshot here would drag the
                // forecast toward zero and spike the error on the first
                // real interval after the outage (spurious alerts on
                // resume).
                let outcome = self.0.process_gap();
                if let Some(obs) = &tier.observer {
                    obs.gap_synthesized(flush.interval, &outcome);
                }
            }
        }
    }

    fn write_checkpoint(&self, path: &Path, _next_interval: u64) -> Result<(), CheckpointError> {
        checkpoint::write_core_checkpoint(path, &self.0.checkpoint())
    }

    fn finish(self, counted: CollectionReport) -> CollectionReport {
        CollectionReport {
            // Taken once, at run end: nobody can read a report before
            // `join` hands it over.
            log: self.0.log().clone(),
            ..counted
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::agent::{AgentConfig, RouterAgent};
    use crate::codec_v2;
    use crate::wire::WireError;
    use hifind::SketchRecorder;
    use hifind_flow::Packet;
    use std::io::{ErrorKind, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Mutex;
    use std::time::Instant;

    /// A CRC-valid v2 keyframe that carries `cfg`'s fingerprint, in its
    /// header and its payload, around grids of another shape.
    pub(crate) fn forged_shape_frame(cfg: &HiFindConfig, router_id: u32, interval: u64) -> Vec<u8> {
        let mut forged = *cfg;
        forged.rs48.stages = 5;
        let mut snap = SketchRecorder::new(&forged).unwrap().take_snapshot();
        snap.fingerprint = cfg.fingerprint();
        let payload = codec_v2::encode_keyframe(&snap);
        wire::encode_frame_v2(router_id, interval, cfg.fingerprint(), &payload).unwrap()
    }

    /// A frame of the retired protocol version 1, built by hand: a
    /// version-1 header carrying `cfg`'s fingerprint around a short
    /// payload. A node rejects it at the header, so the payload's content
    /// is never read.
    pub(crate) fn version_1_frame(cfg: &HiFindConfig, router_id: u32, interval: u64) -> Vec<u8> {
        let payload = b"retired codec v1";
        let mut frame = wire::MAGIC.to_vec();
        frame.extend_from_slice(&1u16.to_le_bytes()); // version
        frame.extend_from_slice(&[0, 0]); // reserved
        frame.extend_from_slice(&router_id.to_le_bytes());
        frame.extend_from_slice(&interval.to_le_bytes());
        frame.extend_from_slice(&cfg.fingerprint().to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&wire::crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// Sends a version-1 frame to the node at `addr` and waits for the
    /// node to drop the connection, which must answer nothing. The node
    /// may close the socket while the frame is still being written; a
    /// reset or broken pipe on that write is the drop under test.
    pub(crate) fn send_version_1_frame(cfg: &HiFindConfig, addr: SocketAddr, interval: u64) {
        let mut legacy = TcpStream::connect(addr).expect("connect");
        if let Err(e) = legacy.write_all(&version_1_frame(cfg, 9, interval)) {
            assert!(
                matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset
                        | ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionAborted
                ),
                "sending the version-1 frame failed: {e}"
            );
            return;
        }
        legacy
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut answer = Vec::new();
        if let Err(e) = legacy.read_to_end(&mut answer) {
            // A reset is a drop too; only a timeout means the node kept it.
            assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "the node kept a version-1 connection open"
            );
        }
        assert!(answer.is_empty(), "a version-1 sender is never answered");
    }

    /// Every rejection a node reports, as its `Debug` form.
    #[derive(Default)]
    pub(crate) struct Rejections(pub(crate) Mutex<Vec<String>>);

    impl CollectObserver for Rejections {
        fn frame_rejected(&self, error: &WireError) {
            self.0.lock().unwrap().push(format!("{error:?}"));
        }
    }

    fn local_collector(
        cfg: HiFindConfig,
        ccfg: CollectorConfig,
        registry: Option<Registry>,
    ) -> CollectorHandle {
        Collector::bind("127.0.0.1:0", cfg, ccfg, registry).expect("bind loopback")
    }

    #[test]
    fn single_agent_round_trip() {
        let cfg = HiFindConfig::small(11);
        let handle = local_collector(cfg, CollectorConfig::new(1), None);
        let addr = handle.local_addr().to_string();
        let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(1)).unwrap();
        for iv in 0..3u64 {
            for i in 0..50u32 {
                agent.record(&Packet::syn(
                    iv,
                    [10, 0, 0, i as u8].into(),
                    2000,
                    [129, 105, 0, 1].into(),
                    80,
                ));
            }
            agent.end_interval();
        }
        agent.finish();
        let report = handle.wait().expect("collector threads");
        assert_eq!(report.frames_received, 3);
        assert_eq!(report.intervals_flushed, 3);
        assert_eq!(report.complete_intervals, 3);
        assert_eq!(report.partial_intervals, 0);
        assert_eq!(report.routers_seen, vec![1]);
        assert!(report.bytes_received > 0);
    }

    #[test]
    fn mis_seeded_router_is_rejected_not_combined() {
        let cfg = HiFindConfig::small(12);
        let rogue_cfg = HiFindConfig::small(13);
        let handle = local_collector(cfg, CollectorConfig::new(1), None);
        let addr = handle.local_addr().to_string();
        let mut rogue = RouterAgent::new(addr, &rogue_cfg, AgentConfig::new(9)).unwrap();
        rogue.end_interval();
        rogue.finish();
        let report = handle.wait().expect("collector threads");
        assert_eq!(report.frames_received, 0);
        assert_eq!(report.frames_rejected, 1);
        assert!(report.routers_seen.is_empty());
    }

    /// Regression: a forged-shape frame used to become an interval's
    /// pending sum and kill the node thread once detection met its grids.
    #[test]
    fn forged_shape_frame_is_rejected_not_fatal() {
        let cfg = HiFindConfig::small(16);
        let mut ccfg = CollectorConfig::new(1);
        ccfg.linger = Duration::from_secs(60);
        let handle = local_collector(cfg, ccfg, None);
        let addr = handle.local_addr();
        let mut agent = RouterAgent::new(addr.to_string(), &cfg, AgentConfig::new(1)).unwrap();
        agent.end_interval();
        let mut forger = TcpStream::connect(addr).expect("connect");
        forger
            .write_all(&forged_shape_frame(&cfg, 9, 1))
            .expect("send");
        drop(forger);
        // The forged frame reaches the node before the honest one.
        std::thread::sleep(Duration::from_millis(200));
        agent.end_interval();
        agent.finish();
        std::thread::sleep(Duration::from_millis(200));
        let report = handle
            .stop()
            .expect("a forged frame must not kill the node");
        assert_eq!(report.frames_rejected, 1);
        assert_eq!(report.frames_received, 2);
        assert_eq!(report.routers_seen, vec![1]);
        assert_eq!(report.complete_intervals, 2);
    }

    /// Codec v1 is retired from every receiving tier: a version-1 frame
    /// is one typed, counted rejection that drops its connection, and the
    /// collector keeps summing v2 frames from its other connections.
    #[test]
    fn version_1_frame_is_rejected_and_the_collector_keeps_summing() {
        let cfg = HiFindConfig::small(17);
        let rejections = Arc::new(Rejections::default());
        let mut ccfg = CollectorConfig::new(1);
        ccfg.linger = Duration::from_secs(60);
        ccfg.observer = Some(Arc::clone(&rejections) as Arc<dyn CollectObserver>);
        let handle = local_collector(cfg, ccfg, None);
        let addr = handle.local_addr();
        let mut agent = RouterAgent::new(addr.to_string(), &cfg, AgentConfig::new(1)).unwrap();
        agent.end_interval();
        send_version_1_frame(&cfg, addr, 1);
        agent.end_interval();
        agent.finish();
        std::thread::sleep(Duration::from_millis(200));
        let report = handle
            .stop()
            .expect("a version-1 frame must not kill the node");
        assert_eq!(*rejections.0.lock().unwrap(), ["UnsupportedVersion(1)"]);
        assert_eq!(report.frames_rejected, 1);
        assert_eq!(report.frames_received, 2);
        assert_eq!(report.routers_seen, vec![1]);
        assert_eq!(report.complete_intervals, 2);
    }

    #[test]
    fn stop_flushes_pending_intervals() {
        let cfg = HiFindConfig::small(14);
        let mut ccfg = CollectorConfig::new(2);
        ccfg.straggler_deadline = Duration::from_secs(60); // never expires
        let handle = local_collector(cfg, ccfg, None);
        let addr = handle.local_addr().to_string();
        // Only one of the two expected routers ever reports.
        let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(1)).unwrap();
        agent.end_interval();
        agent.finish();
        std::thread::sleep(Duration::from_millis(150));
        let report = handle.stop().expect("collector threads");
        assert_eq!(report.intervals_flushed, 1);
        assert_eq!(report.partial_intervals, 1);
        assert_eq!(report.straggler_slots, 1);
    }

    #[test]
    fn stop_is_prompt_even_with_an_idle_connection_open() {
        let cfg = HiFindConfig::small(15);
        let mut ccfg = CollectorConfig::new(2);
        // Long deadlines everywhere: only the wakeup pipe can explain a
        // fast stop.
        ccfg.straggler_deadline = Duration::from_secs(60);
        ccfg.linger = Duration::from_secs(60);
        let handle = local_collector(cfg, ccfg, None);
        let idle = TcpStream::connect(handle.local_addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(100));
        let start = Instant::now();
        let report = handle.stop().expect("collector threads");
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "stop took {:?}; the engine wakeup is not prompt",
            start.elapsed()
        );
        assert_eq!(report.intervals_flushed, 0);
        drop(idle);
    }
}
