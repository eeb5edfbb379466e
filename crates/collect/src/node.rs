//! One tier node: the align-and-flush loop every receiving tier runs.
//!
//! The paper's aggregation is one operation — COMBINE is linear, so every
//! node of a collection tree sums its children's sketches — and so is this
//! module. The root collector and every mid-tier aggregator are the same
//! node; they differ only in the [`Sink`] a flushed interval is handed to
//! ([`crate::collector`] detects on it, [`crate::aggregator`] forwards
//! it), and the loop below never asks which one it is running.
//!
//! # Threading
//!
//! * **engine** (one thread, [`crate::engine`]) — a readiness-driven poll
//!   loop over the listener, a wakeup pipe, and every downstream
//!   connection; per-connection buffers and frame state machines slice
//!   out complete frames, validate them whole against the node's own
//!   configuration ([`crate::wire`]), and forward them parsed into runs
//!   over a bounded channel — TCP backpressure, not
//!   unbounded queueing, absorbs a child that outpaces its parent. No
//!   thread is spawned per connection, so fan-in scales to hundreds of
//!   children per node.
//! * **node** — owns the [`IntervalAligner`] and the sink. Frames for the
//!   same interval are combined *incrementally on arrival*: each frame's
//!   runs are added straight into one accumulated snapshot per pending
//!   interval (never a list, and no snapshot per frame), so node memory
//!   is bounded by the reorder window, not by child count. Sink
//!   calls and observer hooks run inline on this thread.
//!
//! # Graceful degradation
//!
//! The node never waits indefinitely for anyone. An interval flushes as
//! soon as every expected child reported; otherwise after
//! [`CollectorConfig::straggler_deadline`] it flushes with whatever quorum
//! arrived and the missing contributions are counted. An interval no
//! child reported flushes with no payload, and the sink decides what
//! silence means at its tier. A crashed child therefore costs
//! observability of its traffic slice — never liveness of the pipeline.

use crate::align::{AlignPolicy, Flush, FlushKind, IntervalAligner, OfferOutcome};
use crate::checkpoint::CheckpointError;
use crate::codec::CodecError;
use crate::collector::{CollectionReport, CollectorConfig};
use crate::engine::{EngineConfig, EngineHandle, Event, PollEngine, Received};
use crate::wire::WireError;
use crate::CollectError;
use hifind::SnapshotShape;
use hifind_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Registry, TelemetryError};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the two roles differ in once they are running (the state a
/// sink restores on resume, and the interval it restarts at, are decided
/// by its constructor before [`spawn`]).
pub(crate) trait Sink: Send + 'static {
    /// What [`TierHandle::stop`] / [`TierHandle::wait`] hand back.
    type Report: Send + 'static;

    /// Consumes one flushed interval of a node running under `tier` (whose
    /// observer the sink notifies); `flush.payload` is `None` for a gap.
    fn flush(&mut self, flush: Flush, tier: &CollectorConfig);

    /// The run is ending and every pending interval has been flushed: push
    /// out whatever the sink still buffers before the final checkpoint.
    fn settle(&mut self) {}

    /// Persists the sink's durable state as of `next_interval`.
    fn write_checkpoint(&self, path: &Path, next_interval: u64) -> Result<(), CheckpointError>;

    /// Assembles the role's report around what the node counted.
    /// `counted` is the root's report shape — it names every counter a
    /// tier node keeps — with an empty alert log.
    fn finish(self, counted: CollectionReport) -> Self::Report;
}

/// Best-effort collection-tier metrics (`hifind_collect_*`), the same
/// series at every tier. A node started without a registry counts into a
/// private one nobody scrapes, so the loop never asks whether it is
/// observed.
struct TierTelemetry {
    routers_connected: Arc<Gauge>,
    frames_received: Arc<Counter>,
    frames_late: Arc<Counter>,
    frames_rejected: Arc<Counter>,
    straggler_slots: Arc<Counter>,
    bytes_received: Arc<Counter>,
    frames_v2_keyframes: Arc<Counter>,
    frames_v2_deltas: Arc<Counter>,
    decode_seconds: Arc<Histogram>,
    combine_seconds: Arc<Histogram>,
    checkpoint_written: Arc<Counter>,
    checkpoint_write_errors: Arc<Counter>,
    checkpoint_resumed: Arc<Counter>,
    checkpoint_last_interval: Arc<Gauge>,
}

impl TierTelemetry {
    fn new(registry: &Registry) -> Result<Self, TelemetryError> {
        Ok(TierTelemetry {
            routers_connected: registry.gauge(
                "hifind_collect_routers_connected",
                "Router agent connections currently open",
            )?,
            frames_received: registry.counter(
                "hifind_collect_frames_received_total",
                "Valid snapshot frames combined into intervals",
            )?,
            frames_late: registry.counter(
                "hifind_collect_frames_late_total",
                "Frames dropped as late or duplicate",
            )?,
            frames_rejected: registry.counter(
                "hifind_collect_frames_rejected_total",
                "Frames rejected for wire, codec or fingerprint violations",
            )?,
            straggler_slots: registry.counter(
                "hifind_collect_straggler_slots_total",
                "Missing router-interval contributions at flush time",
            )?,
            bytes_received: registry.counter(
                "hifind_collect_bytes_received_total",
                "Bytes of valid frames received",
            )?,
            frames_v2_keyframes: registry.counter(
                "hifind_collect_frames_v2_keyframes_total",
                "Valid codec-v2 keyframes received",
            )?,
            frames_v2_deltas: registry.counter(
                "hifind_collect_frames_v2_deltas_total",
                "Valid codec-v2 delta frames received",
            )?,
            decode_seconds: registry.histogram(
                "hifind_collect_decode_seconds",
                "Latency of validating one child frame and parsing its payload into runs",
                exponential_buckets(1e-6, 4.0, 11),
            )?,
            combine_seconds: registry.histogram(
                "hifind_collect_combine_seconds",
                "Latency of adding one child frame's runs into its interval's sum",
                exponential_buckets(1e-6, 4.0, 11),
            )?,
            checkpoint_written: registry.counter(
                "hifind_checkpoint_written_total",
                "Detection-state checkpoints written successfully",
            )?,
            checkpoint_write_errors: registry.counter(
                "hifind_checkpoint_write_errors_total",
                "Detection-state checkpoint writes that failed",
            )?,
            checkpoint_resumed: registry.counter(
                "hifind_checkpoint_resumed_total",
                "Collector starts that resumed from a checkpoint",
            )?,
            checkpoint_last_interval: registry.gauge(
                "hifind_checkpoint_last_interval",
                "Interval count covered by the most recent checkpoint",
            )?,
        })
    }
}

/// Binds `addr` and starts the engine and node threads of one tier node,
/// which accepts only frames of `shape` (its own configuration's).
/// `role` and `node_id` only label its log lines; `start_interval` is
/// where `sink` resumed (0 for a fresh start).
///
/// # Errors
///
/// Fails on bind errors or metric registration clashes.
pub(crate) fn spawn<S: Sink>(
    addr: impl ToSocketAddrs,
    (role, node_id): (&'static str, u32),
    shape: SnapshotShape,
    cfg: CollectorConfig,
    start_interval: u64,
    sink: S,
    registry: &Registry,
) -> Result<TierHandle<S::Report>, CollectError> {
    let telemetry = TierTelemetry::new(registry)?;
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // A small bound: the engine blocks — and thus stops reading its
    // sockets — when the sink falls behind, pushing the backpressure onto
    // TCP instead of node memory.
    let (tx, rx) = std::sync::mpsc::sync_channel::<Event>(32);
    let engine = PollEngine::spawn(
        listener,
        tx,
        Arc::clone(&shutdown),
        EngineConfig {
            max_payload: cfg.max_payload_bytes,
            tick: Duration::from_millis(50),
            shape: Arc::new(shape.clone()),
        },
    )?;
    let mut counted = CollectionReport::default();
    if let Some(path) = &cfg.resume_from {
        counted.resumed_at_interval = Some(start_interval);
        telemetry.checkpoint_resumed.inc();
        if let Some(obs) = &cfg.observer {
            obs.resumed(start_interval, path);
        }
    }
    let node = Node {
        log_prefix: format!("[hifind-tier {role} {node_id}]"),
        aligner: IntervalAligner::new(
            AlignPolicy {
                expected: cfg.expected_routers,
                straggler_deadline: cfg.straggler_deadline,
                reorder_window: cfg.reorder_window,
            },
            shape,
            start_interval,
        ),
        cfg,
        sink,
        counted,
        telemetry,
        live_connections: 0,
        ever_connected: 0,
        last_disconnect: None,
    };
    let node = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || node.run(&rx, &shutdown))
    };
    Ok(TierHandle {
        local_addr,
        shutdown,
        engine,
        node,
    })
}

/// A running tier node; `R` is its role's report
/// ([`crate::CollectionReport`] or [`crate::AggregatorReport`]).
pub struct TierHandle<R> {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    engine: EngineHandle,
    node: JoinHandle<R>,
}

impl<R> TierHandle<R> {
    /// The bound downstream-facing address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signals shutdown and returns the report once both threads exit.
    /// Pending intervals are flushed (partial where needed) first. The
    /// engine's wakeup pipe makes the stop prompt — no waiting out an
    /// accept or read timeout tick.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if a node thread died; the run's
    /// report is lost with it.
    pub fn stop(self) -> Result<R, CollectError> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        self.wait()
    }

    /// Waits for the natural end of the run: every expected child has
    /// connected, all have disconnected, and the linger window has passed
    /// with no reconnects.
    ///
    /// # Errors
    ///
    /// [`CollectError::WorkerPanic`] if a node thread died; the run's
    /// report is lost with it.
    pub fn wait(self) -> Result<R, CollectError> {
        let node_outcome = self.node.join();
        // The node is done (or dead); release the engine either way so a
        // worker panic cannot leak a spinning poll loop.
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake();
        let engine_outcome = self.engine.join();
        let report = node_outcome.map_err(|_| CollectError::WorkerPanic("node"))?;
        engine_outcome?;
        Ok(report)
    }
}

struct Node<S> {
    log_prefix: String,
    cfg: CollectorConfig,
    aligner: IntervalAligner,
    sink: S,
    counted: CollectionReport,
    telemetry: TierTelemetry,
    live_connections: usize,
    ever_connected: usize,
    last_disconnect: Option<Instant>,
}

impl<S: Sink> Node<S> {
    fn run(mut self, rx: &Receiver<Event>, shutdown: &AtomicBool) -> S::Report {
        // The tick bounds two latencies while the channel is quiet:
        // noticing a straggler deadline and noticing natural finish
        // (everyone disconnected + linger). Cap it so a long straggler
        // deadline cannot leave a finished run parked for minutes.
        let tick = (self.cfg.straggler_deadline / 4)
            .clamp(Duration::from_millis(10), Duration::from_secs(1));
        loop {
            match rx.recv_timeout(tick) {
                Ok(event) => self.handle(event),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.flush_ready(false);
            if shutdown.load(Ordering::SeqCst) || self.finished() {
                break;
            }
        }
        // Drain whatever the engine already decoded, then flush every
        // pending interval — partial or not, the tier never hangs.
        while let Ok(event) = rx.try_recv() {
            self.handle(event);
        }
        self.flush_ready(true);
        self.sink.settle();
        // One final checkpoint so a clean shutdown is always resumable
        // from its very last interval.
        self.maybe_checkpoint(true);
        self.sink.finish(self.counted)
    }

    /// Writes a checkpoint if the policy says one is due (`force` writes
    /// whenever a policy exists). Failures are counted and logged; the
    /// run always continues.
    fn maybe_checkpoint(&mut self, force: bool) {
        let Some(policy) = &self.cfg.checkpoint else {
            return;
        };
        let next_interval = self.aligner.next_interval();
        let due = force
            || (policy.every_intervals > 0 && next_interval.is_multiple_of(policy.every_intervals));
        if !due {
            return;
        }
        match self.sink.write_checkpoint(&policy.path, next_interval) {
            Ok(()) => {
                self.counted.checkpoints_written += 1;
                self.telemetry.checkpoint_written.inc();
                self.telemetry
                    .checkpoint_last_interval
                    .set(i64::try_from(next_interval).unwrap_or(i64::MAX));
                if let Some(obs) = &self.cfg.observer {
                    obs.checkpoint_written(next_interval, &policy.path);
                }
            }
            Err(e) => {
                eprintln!("{} checkpoint write failed: {e}", self.log_prefix);
                self.counted.checkpoint_errors += 1;
                self.telemetry.checkpoint_write_errors.inc();
            }
        }
    }

    /// Natural end of a run: the full child fleet connected at some
    /// point, all of it left, and nobody reconnected for a linger window.
    fn finished(&self) -> bool {
        self.live_connections == 0
            && self.ever_connected >= self.cfg.expected_routers
            && self
                .last_disconnect
                .is_some_and(|t| t.elapsed() >= self.cfg.linger)
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Connected => {
                self.live_connections += 1;
                self.ever_connected += 1;
            }
            Event::Disconnected => {
                self.live_connections = self.live_connections.saturating_sub(1);
                if self.live_connections == 0 {
                    self.last_disconnect = Some(Instant::now());
                }
            }
            Event::Rejected(err, decode) => {
                if let Some(decode) = decode {
                    self.telemetry.decode_seconds.observe_duration(decode);
                }
                self.reject(&err);
            }
            Event::Frame(received) => self.handle_frame(&received),
        }
        self.telemetry
            .routers_connected
            .set(i64::try_from(self.live_connections).unwrap_or(i64::MAX));
    }

    /// A typed, counted rejection — a frame that cannot be summed is
    /// surfaced through the log, the report, telemetry, and the observer
    /// at every tier alike, never silently dropped (and never merged).
    fn reject(&mut self, err: &WireError) {
        eprintln!("{} rejected frame: {err}", self.log_prefix);
        self.counted.frames_rejected += 1;
        self.telemetry.frames_rejected.inc();
        if let Some(obs) = &self.cfg.observer {
            obs.frame_rejected(err);
        }
    }

    fn handle_frame(&mut self, r: &Received) {
        // Paid by the engine for every frame, whatever COMBINE makes of it.
        self.telemetry.decode_seconds.observe_duration(r.decode);
        // The engine refused frames of another configuration's fingerprint
        // or shapes: COMBINE is gated at every tier, not just the root.
        let combine_start = Instant::now();
        let (c, t) = (&mut self.counted, &self.telemetry);
        match self.aligner.offer(r.router_id, r.interval, &r.frame) {
            OfferOutcome::Accepted => {
                c.frames_received += 1;
                t.frames_received.inc();
                c.bytes_received += r.frame_bytes;
                t.bytes_received.add(r.frame_bytes);
                let (count, metric) = if r.delta {
                    (&mut c.frames_v2_deltas, &t.frames_v2_deltas)
                } else {
                    (&mut c.frames_v2_keyframes, &t.frames_v2_keyframes)
                };
                *count += 1;
                metric.inc();
                if !c.routers_seen.contains(&r.router_id) {
                    c.routers_seen.push(r.router_id);
                }
                t.combine_seconds.observe_duration(combine_start.elapsed());
            }
            OfferOutcome::Late | OfferOutcome::Duplicate => {
                c.frames_late += 1;
                t.frames_late.inc();
            }
            // Unreachable given the engine's shape gate, but a typed
            // rejection beats a poisoned aggregate.
            OfferOutcome::CombineFailed => {
                self.reject(&WireError::Codec(CodecError::ShapeMismatch {
                    at: "pending sum",
                }))
            }
        }
    }

    /// Hands the sink every interval the aligner deems ready; with
    /// `drain`, everything pending.
    fn flush_ready(&mut self, drain: bool) {
        while let Some(flush) = self.aligner.pop_ready(drain) {
            self.counted.intervals_flushed += 1;
            let missing = match &flush.kind {
                FlushKind::Complete => {
                    self.counted.complete_intervals += 1;
                    0
                }
                FlushKind::Partial { missing } => {
                    self.counted.partial_intervals += 1;
                    *missing
                }
                FlushKind::Gap => {
                    self.counted.gap_intervals += 1;
                    u64::try_from(self.cfg.expected_routers).unwrap_or(u64::MAX)
                }
            };
            self.counted.straggler_slots += missing;
            self.telemetry.straggler_slots.add(missing);
            self.sink.flush(flush, &self.cfg);
            self.maybe_checkpoint(false);
        }
    }
}
