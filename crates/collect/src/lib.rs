//! Networked sketch collection (paper §3.1, §5.3.2, operationalised).
//!
//! HiFIND's aggregation story rests on sketch linearity: each edge router
//! records traffic into a [`hifind::SketchRecorder`] and ships only its
//! per-interval [`hifind::IntervalSnapshot`] — counters, no packets — to a
//! central site, where the sum of snapshots is detected on exactly as if
//! one router had seen all traffic. The core crates prove that property
//! in-process; this crate makes it *networked*:
//!
//! * [`codec_v2`] — the sparse encoding of [`hifind::IntervalSnapshot`]
//!   as standalone keyframes, the one codec on the wire and in agent
//!   checkpoints.
//! * [`codec`] — the dense v1 encoding (zig-zag varint counters), kept
//!   only as a library: no node sends or accepts it.
//! * [`wire`] — versioned, length-prefixed, CRC-checked framing with the
//!   record-plane configuration fingerprint in every header, so a
//!   mis-seeded router is rejected before its counters can poison the sum.
//!   A version-1 frame is rejected like any other framing loss. A session
//!   is one hello and one accept, then frames one way: a receiving tier
//!   writes nothing after the accept.
//! * `node` (crate-private) — the one tier node every receiving tier
//!   runs: an event-driven connection engine (one poll thread for all
//!   sockets, no thread per connection) accepts N downstream nodes, and
//!   one align-and-flush loop sums their frames per interval inside a
//!   bounded reorder window. After a straggler deadline it degrades
//!   gracefully: the interval flushes on the children that reported,
//!   stragglers are counted, and a dead child can never stall the
//!   pipeline. What a flushed interval *does* is the node's sink:
//! * [`collector`] — the root role: the detect sink feeds each combined
//!   snapshot to the standard detection pipeline.
//! * [`aggregator`] — the mid-tier role for tree-structured collection:
//!   the forward sink re-emits one summed frame upstream through the
//!   shared shipping path, scaling fan-in multiplicatively while staying
//!   bit-identical to a flat deployment (sketch linearity).
//! * [`ship`] — the bounded-backlog retry/backoff upstream shipping path
//!   shared by router agents and aggregators.
//! * [`agent`] — the router side: wraps a recorder, encodes each
//!   interval's snapshot, and ships it with bounded retry, exponential
//!   backoff, reconnection, and a bounded backlog that survives collector
//!   restarts (oldest intervals are dropped first when it overflows).
//! * [`checkpoint`] — versioned, CRC-checked durability for detection and
//!   agent state: a restarted collection site resumes from its latest
//!   checkpoint and produces the same final alerts as an uninterrupted
//!   run.
//! * [`faults`] — a seeded, deterministic fault-injection proxy (drop,
//!   duplicate, reorder, delay, truncate, bit-flip, connection kill)
//!   that sits between agents and the collector in tests, exercising the
//!   quorum/gap degradation policies above.
//!
//! The `hifind` CLI binary (hosted by the `hifind-obsv` crate, which layers
//! the operator plane on top) exposes the roles as `hifind collect`,
//! `hifind aggregate` and `hifind agent`.

// `deny`, not `forbid`: the poll(2) FFI module in `engine` carries a
// scoped `#[allow(unsafe_code)]` — the one sanctioned hole, mirrored by
// the `[[unsafe-file]]` perimeter in lint.toml.
#![deny(unsafe_code)]

pub mod agent;
pub mod aggregator;
pub(crate) mod align;
pub mod checkpoint;
pub mod codec;
pub mod codec_v2;
pub mod collector;
pub(crate) mod engine;
pub mod faults;
mod node;
pub mod observer;
pub mod ship;
pub mod wire;

pub use agent::{AgentConfig, AgentError, AgentStats, RouterAgent, ShipReport};
pub use aggregator::{Aggregator, AggregatorConfig, AggregatorHandle, AggregatorReport};
pub use checkpoint::{AgentCheckpoint, CheckpointError};
pub use codec::CodecError;
pub use collector::{
    CheckpointPolicy, CollectionReport, Collector, CollectorConfig, CollectorHandle,
};
pub use faults::{FaultPlan, FaultProxy, FaultStats};
pub use node::TierHandle;
pub use observer::CollectObserver;
pub use ship::{ShipConfig, Shipper};
pub use wire::{FrameHeader, WireError, HEADER_LEN};

/// Any failure in the collection subsystem.
#[derive(Debug)]
pub enum CollectError {
    /// Socket-level failure (bind, connect, read, write).
    Io(std::io::Error),
    /// Frame-level failure (framing, CRC, version, fingerprint, codec).
    Wire(WireError),
    /// Sketch-level failure (configuration, combining).
    Sketch(hifind_sketch::SketchError),
    /// A record plane could not be built (configuration, thread spawn).
    Record(hifind::ParallelError),
    /// Metric registration clash.
    Telemetry(hifind_telemetry::TelemetryError),
    /// A checkpoint could not be read at resume time (writing failures
    /// during a run are counted, not fatal).
    Checkpoint(CheckpointError),
    /// A collector worker thread died; the named thread's report is lost.
    WorkerPanic(&'static str),
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Io(e) => write!(f, "i/o error: {e}"),
            CollectError::Wire(e) => write!(f, "wire error: {e}"),
            CollectError::Sketch(e) => write!(f, "sketch error: {e}"),
            CollectError::Record(e) => write!(f, "record plane error: {e}"),
            CollectError::Telemetry(e) => write!(f, "telemetry error: {e}"),
            CollectError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CollectError::WorkerPanic(thread) => write!(f, "collector {thread} thread panicked"),
        }
    }
}

impl std::error::Error for CollectError {}

impl From<std::io::Error> for CollectError {
    fn from(e: std::io::Error) -> Self {
        CollectError::Io(e)
    }
}

impl From<WireError> for CollectError {
    fn from(e: WireError) -> Self {
        CollectError::Wire(e)
    }
}

impl From<hifind_sketch::SketchError> for CollectError {
    fn from(e: hifind_sketch::SketchError) -> Self {
        CollectError::Sketch(e)
    }
}

impl From<hifind_telemetry::TelemetryError> for CollectError {
    fn from(e: hifind_telemetry::TelemetryError) -> Self {
        CollectError::Telemetry(e)
    }
}

impl From<CheckpointError> for CollectError {
    fn from(e: CheckpointError) -> Self {
        CollectError::Checkpoint(e)
    }
}
