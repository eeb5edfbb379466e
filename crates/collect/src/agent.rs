//! The router side of networked collection.
//!
//! A [`RouterAgent`] wraps the per-packet record plane — the only thing
//! HiFIND asks of an edge router — and turns each interval's snapshot into
//! one wire frame. The plane is a [`ParallelRecorder`] with
//! [`AgentConfig::workers`] shard threads: 0 records inline on the
//! caller's thread, and any other count ships bit-identical frames.
//! Shipping runs through the shared [`crate::ship::Shipper`], engineered
//! for an unreliable collector, because a detection site restart must
//! never ripple back into the data plane:
//!
//! * frames queue in a **bounded backlog** (oldest dropped first on
//!   overflow, since fresher intervals matter more to detection);
//! * sends run with **bounded attempts** and **exponential backoff**, so
//!   a dead collector costs a capped, predictable stall per interval;
//! * every failure closes and later **reconnects** the socket, and the
//!   backlog survives in between — a restarted collector receives the
//!   missed intervals in order and realigns via the frame headers.

use crate::checkpoint::{self, AgentCheckpoint, CheckpointError};
use crate::ship::{ShipConfig, Shipper};
use crate::wire;
use crate::CollectError;
use hifind::parallel::{ParallelError, ParallelRecorder};
use hifind::HiFindConfig;
use hifind_flow::Packet;
use serde::Serialize;
use std::time::Duration;

/// Record-plane size and shipping policy of one router agent.
#[derive(Clone, Debug)]
pub struct AgentConfig {
    /// This router's id in frame headers.
    pub router_id: u32,
    /// Encoded frames kept while the collector is unreachable; the oldest
    /// interval is dropped when a new one would exceed this.
    pub max_backlog_frames: usize,
    /// Connect/send attempts per flush before giving up (the backlog
    /// keeps the frames for the next flush).
    pub max_attempts: u32,
    /// First retry delay; doubles per failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket connect and write timeout, and the wait for the collector's
    /// answer to the hello.
    pub io_timeout: Duration,
    /// Shard worker threads of the record plane; 0 records inline on the
    /// caller's thread.
    pub workers: usize,
}

impl AgentConfig {
    /// Sensible defaults for `router_id`.
    pub fn new(router_id: u32) -> Self {
        AgentConfig {
            router_id,
            max_backlog_frames: 64,
            max_attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
            workers: 0,
        }
    }

    /// The shipping-policy subset of this configuration.
    pub fn ship(&self) -> ShipConfig {
        ShipConfig {
            max_backlog_frames: self.max_backlog_frames,
            max_attempts: self.max_attempts,
            initial_backoff: self.initial_backoff,
            max_backoff: self.max_backoff,
            io_timeout: self.io_timeout,
        }
    }
}

/// Lifetime shipping counters of one agent (or aggregator upstream path).
#[derive(Clone, Debug, Default, Serialize)]
pub struct AgentStats {
    /// Frames produced by [`RouterAgent::end_interval`].
    pub frames_enqueued: u64,
    /// Frames written to the collector.
    pub frames_shipped: u64,
    /// Frames dropped to backlog overflow.
    pub frames_dropped: u64,
    /// Bytes written to the collector.
    pub bytes_shipped: u64,
    /// Successful connections after the first.
    pub reconnects: u64,
    /// Failed connect or write attempts.
    pub send_failures: u64,
}

/// What one flush (or interval end) managed to ship.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Frames written to the collector in this call.
    pub shipped: usize,
    /// Frames still queued when the attempt budget ran out.
    pub queued: usize,
    /// Frames evicted from the backlog in this call.
    pub dropped: usize,
}

/// Why one frame could not be shipped. Internal retry handling consumes
/// most of these; they surface so callers embedding the agent can log
/// shipping trouble without the agent ever panicking.
#[derive(Debug)]
pub enum AgentError {
    /// No live connection to the collector.
    NotConnected,
    /// The socket write failed (the connection is dropped for reconnect).
    Io(std::io::Error),
    /// A snapshot could not be framed (counted as a dropped frame).
    Encode(wire::WireError),
}

impl std::fmt::Display for AgentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AgentError::NotConnected => write!(f, "not connected to the collector"),
            AgentError::Io(e) => write!(f, "frame write failed: {e}"),
            AgentError::Encode(e) => write!(f, "snapshot framing failed: {e}"),
        }
    }
}

impl std::error::Error for AgentError {}

/// A router agent: records packets, ships one frame per interval.
pub struct RouterAgent {
    cfg: AgentConfig,
    recorder: ParallelRecorder,
    interval: u64,
    shipper: Shipper,
}

impl std::fmt::Debug for RouterAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterAgent")
            .field("addr", &self.shipper.addr())
            .field("router_id", &self.cfg.router_id)
            .field("interval", &self.interval)
            .field("backlog", &self.shipper.backlog_len())
            .finish_non_exhaustive()
    }
}

impl RouterAgent {
    /// Builds an agent recording under `hifind_cfg` on `cfg.workers`
    /// shard threads, shipping to `addr`. No connection is made until the
    /// first flush.
    ///
    /// # Errors
    ///
    /// Propagates recorder construction and thread-spawn errors.
    pub fn new(
        addr: impl Into<String>,
        hifind_cfg: &HiFindConfig,
        cfg: AgentConfig,
    ) -> Result<Self, ParallelError> {
        let recorder = ParallelRecorder::new(hifind_cfg, cfg.workers)?;
        let shipper = Shipper::new(addr, cfg.router_id, cfg.ship());
        Ok(RouterAgent {
            cfg,
            recorder,
            interval: 0,
            shipper,
        })
    }

    /// Attaches an observer notified on reconnects. Callbacks run inline
    /// on the shipping path, so they must stay cheap.
    pub fn set_observer(&mut self, observer: std::sync::Arc<dyn crate::observer::CollectObserver>) {
        self.shipper.set_observer(observer);
    }

    /// Records one packet (the hot path; never touches the network).
    #[inline]
    pub fn record(&mut self, packet: &Packet) {
        self.recorder.record(packet);
    }

    /// Ends the current interval: snapshots the recorder, encodes the
    /// snapshot as a codec-v2 frame, enqueues it, and attempts a flush.
    pub fn end_interval(&mut self) -> ShipReport {
        let interval = self.interval;
        self.interval += 1;
        let shipper = &mut self.shipper;
        match self
            .recorder
            .end_interval_with(|s| shipper.ship_snapshot(interval, s))
        {
            Ok(report) => report,
            // A lost shard worker yields no merged snapshot; the interval
            // is counted as dropped rather than aborting the data plane.
            Err(_) => {
                self.shipper.count_unframeable();
                let mut report = self.flush();
                report.dropped += 1;
                report
            }
        }
    }

    /// Tries to ship the whole backlog within the configured attempt and
    /// backoff budget. Whatever could not be sent stays queued.
    pub fn flush(&mut self) -> ShipReport {
        self.shipper.flush()
    }

    /// Points the agent at a different collector address (e.g. a restarted
    /// site on a new port). Any open connection is dropped; the backlog is
    /// kept and ships to the new address on the next flush.
    pub fn set_collector_addr(&mut self, addr: impl Into<String>) {
        self.shipper.set_addr(addr);
    }

    /// Snapshots the agent's durable state: identity, interval counter,
    /// and the still-unshipped backlog frames (verbatim, so a restarted
    /// agent re-ships exactly what this one still owed the collector).
    /// The in-progress interval's packet counters are *not* included —
    /// they belong to the data plane, which a restart inherently loses.
    pub fn checkpoint(&self) -> AgentCheckpoint {
        AgentCheckpoint {
            fingerprint: self.recorder.fingerprint(),
            router_id: self.cfg.router_id,
            interval: self.interval,
            backlog: self.shipper.backlog_frames(),
        }
    }

    /// Writes the agent checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`CheckpointError::Io`].
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        checkpoint::write_agent_checkpoint(path, &self.checkpoint())
    }

    /// Rebuilds an agent from a checkpoint: same router id, same interval
    /// numbering, and the checkpointed backlog queued for shipping. The
    /// record plane starts fresh, under `hifind_cfg` with `cfg.workers`.
    ///
    /// # Errors
    ///
    /// Rejects a checkpoint whose fingerprint does not match `hifind_cfg`
    /// or whose router id does not match `cfg.router_id`; propagates
    /// record-plane construction errors.
    pub fn resume(
        addr: impl Into<String>,
        hifind_cfg: &HiFindConfig,
        cfg: AgentConfig,
        ckpt: &AgentCheckpoint,
    ) -> Result<Self, CollectError> {
        ckpt.validate_for(hifind_cfg.fingerprint(), cfg.router_id)?;
        let mut agent = RouterAgent::new(addr, hifind_cfg, cfg).map_err(CollectError::Record)?;
        agent.interval = ckpt.interval;
        agent.shipper.restore_backlog(&ckpt.backlog);
        Ok(agent)
    }

    /// Like [`RouterAgent::resume`], reading the checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Propagates read, validation, and construction failures.
    pub fn resume_from_file(
        addr: impl Into<String>,
        hifind_cfg: &HiFindConfig,
        cfg: AgentConfig,
        path: &std::path::Path,
    ) -> Result<Self, CollectError> {
        let ckpt = checkpoint::read_agent_checkpoint(path)?;
        Self::resume(addr, hifind_cfg, cfg, &ckpt)
    }

    /// Frames waiting for a reachable collector.
    pub fn backlog_len(&self) -> usize {
        self.shipper.backlog_len()
    }

    /// Intervals ended so far (the next frame's interval index).
    pub fn intervals_ended(&self) -> u64 {
        self.interval
    }

    /// Lifetime shipping counters.
    pub fn stats(&self) -> &AgentStats {
        self.shipper.stats()
    }

    /// Final flush, then closes the connection and returns the stats.
    /// Dropping the record plane joins its shard workers; a worker lost
    /// earlier already surfaced as a dropped frame.
    pub fn finish(mut self) -> AgentStats {
        self.shipper.flush();
        self.shipper.close();
        self.shipper.stats().clone()
    }
}
