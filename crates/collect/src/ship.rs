//! The upstream shipping path: bounded backlog, bounded attempts,
//! exponential backoff, reconnect-with-backlog-survival. Factored out of
//! the router agent so mid-tier aggregators re-emit their summed
//! snapshots through the exact same machinery — an unreliable upstream
//! costs a capped, predictable stall per interval at every tier, never a
//! hang.
//!
//! # One codec
//!
//! Every snapshot ships as a codec v2 keyframe ([`crate::codec_v2`]),
//! which stands alone: no drop, reorder or restart can leave a frame
//! undecodable, and a backlogged frame ships unchanged on any connection.
//! Each connection opens with a hello offering [`wire::CODEC_V2`] and
//! waits up to `io_timeout` for the upstream's accept. An upstream that
//! does not accept costs a failed connect attempt — counted, backed off,
//! and the backlog kept — never a downgrade. After the accept the
//! upstream sends nothing, so the shipper never reads again.

use crate::agent::{AgentError, AgentStats, ShipReport};
use crate::codec_v2;
use crate::observer::CollectObserver;
use crate::wire;
use hifind::IntervalSnapshot;
use hifind_telemetry::{Histogram, ScopeTimer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Shipping policy, independent of who is doing the shipping.
#[derive(Clone, Debug)]
pub struct ShipConfig {
    /// Encoded frames kept while the upstream is unreachable; the oldest
    /// interval is dropped when a new one would exceed this.
    pub max_backlog_frames: usize,
    /// Connect/send attempts per flush before giving up (the backlog
    /// keeps the frames for the next flush).
    pub max_attempts: u32,
    /// First retry delay; doubles per failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket connect and write timeout, and the wait for the upstream's
    /// answer to the hello.
    pub io_timeout: Duration,
}

impl Default for ShipConfig {
    fn default() -> Self {
        ShipConfig {
            max_backlog_frames: 64,
            max_attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Ships encoded frames to one upstream address on behalf of node `id`
/// (a router id or an aggregator node id — whoever owns the frames).
pub struct Shipper {
    addr: String,
    id: u32,
    cfg: ShipConfig,
    /// Encoded frames awaiting shipment, oldest first.
    backlog: VecDeque<Vec<u8>>,
    /// The live v2 session: present only once the upstream accepted the
    /// hello.
    stream: Option<TcpStream>,
    connected_before: bool,
    stats: AgentStats,
    observer: Option<Arc<dyn CollectObserver>>,
    /// `hifind_collect_encode_seconds` where a registry exports it: an
    /// aggregator's, not a `RouterAgent`'s (which has no registry).
    pub(crate) encode_seconds: Option<Arc<Histogram>>,
}

impl std::fmt::Debug for Shipper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shipper")
            .field("addr", &self.addr)
            .field("id", &self.id)
            .field("backlog", &self.backlog.len())
            .field("connected", &self.stream.is_some())
            .finish_non_exhaustive()
    }
}

impl Shipper {
    /// A shipper for `id`, targeting `addr`. No connection is made until
    /// the first flush.
    pub fn new(addr: impl Into<String>, id: u32, cfg: ShipConfig) -> Self {
        Shipper {
            addr: addr.into(),
            id,
            cfg,
            backlog: VecDeque::new(),
            stream: None,
            connected_before: false,
            stats: AgentStats::default(),
            observer: None,
            encode_seconds: None,
        }
    }

    /// Attaches an observer notified on reconnects. Callbacks run inline
    /// on the shipping path, so they must stay cheap.
    pub fn set_observer(&mut self, observer: Arc<dyn CollectObserver>) {
        self.observer = Some(observer);
    }

    /// The upstream address frames ship to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Points the shipper at a different upstream address (e.g. a
    /// restarted site on a new port). Any open connection is dropped; the
    /// backlog is kept and ships to the new address on the next flush.
    pub fn set_addr(&mut self, addr: impl Into<String>) {
        self.addr = addr.into();
        self.stream = None;
    }

    /// Encodes `snapshot` for `interval` and queues it. Returns the flush
    /// outcome, like the old frame-level path did.
    pub fn ship_snapshot(&mut self, interval: u64, snapshot: &IntervalSnapshot) -> ShipReport {
        let mut dropped = 0;
        match self.encode_frame(interval, snapshot) {
            Some(frame) => dropped += self.enqueue(frame),
            None => {
                self.count_unframeable();
                dropped += 1;
            }
        }
        let mut report = self.flush();
        report.dropped += dropped;
        report
    }

    fn encode_frame(&self, interval: u64, snapshot: &IntervalSnapshot) -> Option<Vec<u8>> {
        let timer = self.encode_seconds.clone().map(ScopeTimer::new);
        let payload = codec_v2::encode_keyframe(snapshot);
        drop(timer);
        wire::encode_frame_v2(self.id, interval, snapshot.fingerprint, &payload).ok()
    }

    /// Queues `frame`, evicting the oldest on overflow (fresher intervals
    /// matter more to detection). Returns how many frames were evicted.
    fn enqueue(&mut self, frame: Vec<u8>) -> usize {
        self.stats.frames_enqueued += 1;
        let mut dropped = 0;
        while self.backlog.len() >= self.cfg.max_backlog_frames.max(1) {
            self.backlog.pop_front();
            self.stats.frames_dropped += 1;
            dropped += 1;
        }
        self.backlog.push_back(frame);
        dropped
    }

    /// Counts an interval whose snapshot never became a frame (an
    /// unframeable payload or a lost shard worker): enqueued and dropped
    /// in one motion, so the stats stay interval-accurate.
    pub fn count_unframeable(&mut self) {
        self.stats.frames_enqueued += 1;
        self.stats.frames_dropped += 1;
    }

    /// Tries to ship the whole backlog within the configured attempt and
    /// backoff budget. Whatever could not be sent stays queued.
    pub fn flush(&mut self) -> ShipReport {
        let mut report = ShipReport::default();
        let mut attempts = 0u32;
        let mut backoff = self.cfg.initial_backoff;
        while !self.backlog.is_empty() {
            if self.stream.is_none() {
                match self.connect_negotiated() {
                    Ok(stream) => {
                        if self.connected_before {
                            self.stats.reconnects += 1;
                            if let Some(obs) = &self.observer {
                                obs.agent_reconnected(self.id, self.stats.reconnects);
                            }
                        }
                        self.connected_before = true;
                        self.stream = Some(stream);
                    }
                    Err(_) => {
                        self.stats.send_failures += 1;
                        attempts += 1;
                        if attempts >= self.cfg.max_attempts {
                            break;
                        }
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(self.cfg.max_backoff);
                        continue;
                    }
                }
            }
            match self.ship_front() {
                Ok(0) => break,
                Ok(bytes) => {
                    self.stats.frames_shipped += 1;
                    self.stats.bytes_shipped += bytes;
                    report.shipped += 1;
                    // Progress resets the retry budget.
                    attempts = 0;
                    backoff = self.cfg.initial_backoff;
                }
                Err(_) => {
                    // The frame may have been partially written; the
                    // upstream's framing validation discards the torn
                    // remainder on its side, and the whole frame is
                    // resent on a fresh connection.
                    self.stream = None;
                    self.stats.send_failures += 1;
                    attempts += 1;
                    if attempts >= self.cfg.max_attempts {
                        break;
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.cfg.max_backoff);
                }
            }
        }
        report.queued = self.backlog.len();
        report
    }

    /// Writes the front frame of the backlog, returning the bytes shipped
    /// (`0` when the backlog is empty — nothing to do).
    fn ship_front(&mut self) -> Result<u64, AgentError> {
        let stream = self.stream.as_mut().ok_or(AgentError::NotConnected)?;
        let Some(frame) = self.backlog.front() else {
            return Ok(0);
        };
        stream.write_all(frame).map_err(AgentError::Io)?;
        let bytes = u64::try_from(frame.len()).unwrap_or(u64::MAX);
        self.backlog.pop_front();
        Ok(bytes)
    }

    /// Connects and performs the hello handshake. An upstream that does
    /// not accept codec v2 within `io_timeout` fails the attempt; the
    /// connection is dropped and the caller's retry budget decides what
    /// happens next.
    fn connect_negotiated(&self) -> std::io::Result<TcpStream> {
        let stream = self.connect()?;
        let mut s = &stream;
        s.write_all(&wire::encode_hello(&[wire::CODEC_V2]))?;
        stream.set_read_timeout(Some(self.cfg.io_timeout))?;
        let mut accept = [0u8; wire::ACCEPT_LEN];
        let mut filled = 0;
        while filled < accept.len() {
            match s.read(&mut accept[filled..]) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof)),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if wire::parse_accept(&accept).ok() != Some(wire::CODEC_V2) {
            return Err(std::io::Error::from(std::io::ErrorKind::InvalidData));
        }
        stream.set_read_timeout(None)?;
        Ok(stream)
    }

    fn connect(&self) -> std::io::Result<TcpStream> {
        let mut last_err = None;
        for addr in std::net::ToSocketAddrs::to_socket_addrs(&self.addr.as_str())? {
            match TcpStream::connect_timeout(&addr, self.cfg.io_timeout) {
                Ok(stream) => {
                    stream.set_write_timeout(Some(self.cfg.io_timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotFound, "address resolved to nothing")
        }))
    }

    /// Frames waiting for a reachable upstream.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// The still-unshipped frames, each a complete keyframe frame
    /// (header + payload), oldest first.
    pub fn backlog_frames(&self) -> Vec<Vec<u8>> {
        self.backlog.iter().cloned().collect()
    }

    /// Replaces the backlog with checkpointed frames.
    pub fn restore_backlog(&mut self, frames: &[Vec<u8>]) {
        self.backlog = frames.iter().cloned().collect();
    }

    /// Lifetime shipping counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// Closes the connection: the upstream reads every frame written so
    /// far, then a clean end of stream. Never blocks; the backlog and
    /// stats stay.
    pub fn close(&mut self) {
        self.stream = None;
    }
}
