//! The record plane: inline, or sharded over worker threads.
//!
//! [`ParallelRecorder`] is the only record plane in the workspace, and
//! this module is the only place that chooses how packets are recorded.
//! With zero workers it records inline on the caller's thread into one
//! [`SketchRecorder`]: no thread, no channel, no merge, and an interval
//! close is [`SketchRecorder::take_snapshot`].
//!
//! With `N > 0` workers it exploits the paper's COMBINE primitive (§3.1):
//! sketches are linear, so counter grids recorded independently sum to
//! exactly the grid a single recorder would have produced, Bloom filters
//! union bitwise, and the scalar counters add. `N` worker threads each own
//! a private [`SketchRecorder`] built from the *same* configuration
//! (identical seeds, identical fingerprint), packets are dealt to the
//! workers in bounded batches, and at interval close the per-worker
//! snapshots are merged in one [`IntervalSnapshot::combine_many`] pass.
//! Because integer addition is commutative and associative, the merged
//! snapshot is **bit-for-bit identical** to the inline plane's snapshot
//! for any packet partition — which partition a packet lands in never
//! matters.
//!
//! The cumulative active-service Bloom filter stays correct for the same
//! reason: each worker's filter persists across intervals (snapshots never
//! clear it), and the union of the per-worker filters equals the filter a
//! single recorder would hold, since all workers hash with the same seeds.
//!
//! Plumbing rules (enforced by `cargo xtask lint`): every channel is a
//! *bounded* [`std::sync::mpsc::sync_channel`], so a slow worker
//! back-pressures the feeder instead of queueing unbounded memory, and
//! every spawned thread is joined — [`ParallelRecorder::finish`] or `Drop`
//! closes the job channels and joins all workers. A lost worker poisons
//! the plane: nothing is sent to any worker again, so no worker can block
//! the feeder or an interval close.

use crate::config::HiFindConfig;
use crate::recorder::{IntervalSnapshot, SketchRecorder};
use hifind_flow::Packet;
use hifind_sketch::SketchError;
use hifind_telemetry::{exponential_buckets, Counter, Gauge, Histogram, Registry, TelemetryError};
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Packets per batch shipped to a worker. Large enough that channel
/// synchronization amortizes to well under a nanosecond per packet, small
/// enough that an interval's tail flush stays cheap.
const BATCH_SIZE: usize = 1024;

/// Batches a worker may have in flight before the feeder blocks.
const CHANNEL_BOUND: usize = 8;

/// Errors from the record plane.
#[derive(Debug)]
pub enum ParallelError {
    /// Building a recorder failed (invalid sketch configuration).
    Build(SketchError),
    /// The OS refused to spawn a shard worker thread.
    Spawn(std::io::Error),
    /// A shard worker exited before delivering its interval snapshot (it
    /// panicked or its channel closed). The plane is poisoned: this and
    /// every later interval close return this error without blocking.
    WorkerLost {
        /// Index of the lost shard worker.
        worker: usize,
    },
    /// Shard snapshots refused to combine. Impossible for shards built
    /// from one configuration; surfaced instead of panicking.
    Merge(SketchError),
}

impl fmt::Display for ParallelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelError::Build(e) => write!(f, "building shard recorder: {e}"),
            ParallelError::Spawn(e) => write!(f, "spawning shard worker: {e}"),
            ParallelError::WorkerLost { worker } => {
                write!(f, "shard worker {worker} exited before interval close")
            }
            ParallelError::Merge(e) => write!(f, "merging shard snapshots: {e}"),
        }
    }
}

impl std::error::Error for ParallelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParallelError::Build(e) | ParallelError::Merge(e) => Some(e),
            ParallelError::Spawn(e) => Some(e),
            ParallelError::WorkerLost { .. } => None,
        }
    }
}

impl From<SketchError> for ParallelError {
    fn from(e: SketchError) -> Self {
        ParallelError::Build(e)
    }
}

/// Per-phase breakdown of one interval close, from
/// [`ParallelRecorder::end_interval_with_stats`].
///
/// The close has two phases: *drain* (wait for each shard to finish its
/// queued batches and ship its snapshot) and *combine* (fold every shard
/// snapshot into one with the cache-blocked
/// [`IntervalSnapshot::combine_many`]). The bench's merge tables are built
/// from these numbers instead of a single opaque merge time. An inline
/// plane has neither phase: its stats are all zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MergeStats {
    /// Nanoseconds spent waiting for + receiving each shard's snapshot, in
    /// shard order. Dominated by the slowest shard's queued work; receives
    /// after the first mostly measure channel latency.
    pub recv_ns: Vec<u64>,
    /// Nanoseconds in the single cache-blocked combine of all snapshots.
    pub combine_ns: u64,
    /// Counter bytes the combine touched: every source grid read once
    /// plus the destination read and written once, summed over all grids
    /// (see [`IntervalSnapshot::combine_many`]).
    pub combine_bytes: u64,
}

impl MergeStats {
    /// Total nanoseconds waiting on shard snapshots (the drain phase).
    #[must_use]
    pub fn recv_total_ns(&self) -> u64 {
        self.recv_ns.iter().sum()
    }
}

/// Work shipped to a shard worker.
enum Job {
    /// Record these packets.
    Batch(Vec<Packet>),
    /// Close the interval: send back the shard's snapshot.
    EndInterval,
}

struct Shard {
    /// `None` once the channel is closed for shutdown.
    job_tx: Option<SyncSender<Job>>,
    snap_rx: Receiver<IntervalSnapshot>,
    handle: Option<JoinHandle<()>>,
    /// Packets accumulated for this shard's next batch.
    batch: Vec<Packet>,
}

/// Metric handles for the `hifind_record_*` shard/merge metrics, plus the
/// locally-batched counts that keep the record path free of atomics.
struct RecordTelemetry {
    workers: Arc<Gauge>,
    shard_packets: Arc<Counter>,
    shard_batches: Arc<Counter>,
    merges: Arc<Counter>,
    merge_seconds: Arc<Histogram>,
    pending_packets: u64,
    pending_batches: u64,
}

/// The record plane: one [`SketchRecorder`] on the caller's thread (zero
/// workers), or shards on worker threads whose merged snapshots are
/// bit-identical to it.
///
/// ```
/// use hifind::parallel::ParallelRecorder;
/// use hifind::{HiFindConfig, SketchRecorder};
/// use hifind_flow::{Ip4, Packet};
///
/// let cfg = HiFindConfig::small(7);
/// let mut serial = SketchRecorder::new(&cfg).unwrap();
/// let mut inline = ParallelRecorder::new(&cfg, 0).unwrap();
/// let mut sharded = ParallelRecorder::new(&cfg, 3).unwrap();
/// for i in 0..1000u64 {
///     let p = Packet::syn(i, Ip4::new(i as u32), 999, [129, 105, 0, 1].into(), 80);
///     serial.record(&p);
///     inline.record(&p);
///     sharded.record(&p);
/// }
/// let expected = serial.take_snapshot();
/// assert_eq!(inline.end_interval().unwrap(), expected);
/// assert_eq!(sharded.end_interval().unwrap(), expected);
/// sharded.finish().unwrap();
/// ```
pub struct ParallelRecorder {
    /// The zero-worker plane's recorder; `None` when sharded.
    inline: Option<SketchRecorder>,
    /// Shard workers; empty when inline.
    shards: Vec<Shard>,
    /// Shard receiving the batch currently being filled.
    next: usize,
    batch_size: usize,
    fingerprint: u64,
    memory_bytes: usize,
    accesses_per_packet: usize,
    /// First worker found lost. Once set the plane is poisoned: batches
    /// are discarded instead of sent, and every close reports this worker
    /// (the per-packet path stays infallible).
    lost: Option<usize>,
    telemetry: Option<RecordTelemetry>,
}

impl fmt::Debug for ParallelRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelRecorder")
            .field("workers", &self.shards.len())
            .field("batch_size", &self.batch_size)
            .finish_non_exhaustive()
    }
}

impl ParallelRecorder {
    /// Builds a record plane over `workers` shard threads, or an inline
    /// plane on the caller's thread when `workers` is 0. Every recorder is
    /// built from `cfg`, so all share seeds and the snapshot fingerprint.
    ///
    /// # Errors
    ///
    /// [`ParallelError::Build`] for invalid sketch configurations,
    /// [`ParallelError::Spawn`] if a worker thread cannot be spawned.
    pub fn new(cfg: &HiFindConfig, workers: usize) -> Result<Self, ParallelError> {
        Self::with_batch_size(cfg, workers, BATCH_SIZE)
    }

    /// [`ParallelRecorder::new`] with an explicit batch size (smaller
    /// batches shrink the interval-tail flush at the cost of more channel
    /// synchronization; the in-crate tests use tiny batches).
    pub(crate) fn with_batch_size(
        cfg: &HiFindConfig,
        workers: usize,
        batch_size: usize,
    ) -> Result<Self, ParallelError> {
        let batch_size = batch_size.max(1);
        let mut recorders = (0..workers.max(1))
            .map(|_| SketchRecorder::new(cfg))
            .collect::<Result<Vec<_>, _>>()?;
        let mut plane = ParallelRecorder {
            inline: None,
            shards: Vec::with_capacity(workers),
            next: 0,
            batch_size,
            fingerprint: cfg.fingerprint(),
            memory_bytes: recorders.iter().map(SketchRecorder::memory_bytes).sum(),
            accesses_per_packet: recorders
                .first()
                .map_or(0, SketchRecorder::accesses_per_packet),
            lost: None,
            telemetry: None,
        };
        if workers == 0 {
            plane.inline = recorders.pop();
            return Ok(plane);
        }
        for (i, recorder) in recorders.into_iter().enumerate() {
            let (job_tx, job_rx) = sync_channel::<Job>(CHANNEL_BOUND);
            // Bound 1 suffices: each worker owes at most one snapshot at a
            // time, and the coordinator drains them every interval.
            let (snap_tx, snap_rx) = sync_channel::<IntervalSnapshot>(1);
            let handle = std::thread::Builder::new()
                .name(format!("hifind-record-{i}"))
                .spawn(move || shard_loop(recorder, job_rx, snap_tx))
                .map_err(ParallelError::Spawn)?;
            plane.shards.push(Shard {
                job_tx: Some(job_tx),
                snap_rx,
                handle: Some(handle),
                batch: Vec::with_capacity(batch_size),
            });
        }
        Ok(plane)
    }

    /// Number of shard worker threads (0 for the inline plane).
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The record-plane configuration fingerprint stamped on snapshots.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recording memory of the whole plane in bytes: one
    /// [`SketchRecorder::memory_bytes`] per shard, or the inline one's.
    pub fn memory_bytes(&self) -> usize {
        self.memory_bytes
    }

    /// Counter memory accesses per recorded SYN/SYN-ACK (§5.5.2), which
    /// sharding does not change.
    pub fn accesses_per_packet(&self) -> usize {
        self.accesses_per_packet
    }

    /// Records one packet (the hot path): inline, or appended to the
    /// current shard's batch, which ships when full. Infallible like
    /// [`SketchRecorder::record`]; a broken worker channel is remembered
    /// and surfaced by [`ParallelRecorder::end_interval`].
    #[inline]
    pub fn record(&mut self, packet: &Packet) {
        if let Some(recorder) = &mut self.inline {
            return recorder.record(packet);
        }
        let shard = self.next;
        self.shards[shard].batch.push(*packet);
        if self.shards[shard].batch.len() >= self.batch_size {
            self.dispatch(shard);
            self.next = (shard + 1) % self.shards.len();
        }
    }

    /// Ships shard `i`'s accumulated batch to its worker; a poisoned
    /// plane discards it instead.
    fn dispatch(&mut self, i: usize) {
        let batch_size = self.batch_size;
        let shard = &mut self.shards[i];
        if shard.batch.is_empty() {
            return;
        }
        if self.lost.is_some() {
            shard.batch.clear();
            return;
        }
        let batch = std::mem::replace(&mut shard.batch, Vec::with_capacity(batch_size));
        if let Some(t) = &mut self.telemetry {
            t.pending_packets += batch.len() as u64;
            t.pending_batches += 1;
        }
        let sent = match &self.shards[i].job_tx {
            Some(tx) => tx.send(Job::Batch(batch)).is_ok(),
            None => false,
        };
        if !sent {
            self.lost = Some(i);
        }
    }

    /// Closes the interval and returns its [`IntervalSnapshot`]: the inline
    /// recorder's, or every shard's merged by sketch linearity. The result
    /// is bit-identical to what one [`SketchRecorder`] fed the same packets
    /// would return from `take_snapshot`.
    ///
    /// # Errors
    ///
    /// [`ParallelError::WorkerLost`] if a shard worker died (the interval
    /// is incomplete and the plane is poisoned); [`ParallelError::Merge`]
    /// on snapshot mismatch, which same-config shards cannot produce.
    pub fn end_interval(&mut self) -> Result<IntervalSnapshot, ParallelError> {
        self.end_interval_with_stats().map(|(snap, _)| snap)
    }

    /// Closes the interval like [`ParallelRecorder::end_interval`], but
    /// lends the snapshot to `f`: the inline recorder then zeroes its
    /// counters in place ([`SketchRecorder::take_snapshot_with`]) instead
    /// of allocating the next interval's grids.
    ///
    /// # Errors
    ///
    /// As for [`ParallelRecorder::end_interval`]; `f` does not run then.
    pub fn end_interval_with<R>(
        &mut self,
        f: impl FnOnce(&IntervalSnapshot) -> R,
    ) -> Result<R, ParallelError> {
        match &mut self.inline {
            Some(recorder) => Ok(recorder.take_snapshot_with(f)),
            None => self.end_interval().map(|snapshot| f(&snapshot)),
        }
    }

    /// [`ParallelRecorder::end_interval`] with the per-phase
    /// [`MergeStats`] breakdown (shard drain vs combine, bytes touched).
    ///
    /// All shard snapshots are collected first and then folded in **one**
    /// cache-blocked [`IntervalSnapshot::combine_many`] pass — each
    /// destination tile is loaded once and every shard's tile added into
    /// it, rather than streaming the full destination through cache once
    /// per shard as pairwise merging would.
    ///
    /// # Errors
    ///
    /// As for [`ParallelRecorder::end_interval`].
    pub fn end_interval_with_stats(
        &mut self,
    ) -> Result<(IntervalSnapshot, MergeStats), ParallelError> {
        if let Some(recorder) = &mut self.inline {
            return Ok((recorder.take_snapshot(), MergeStats::default()));
        }
        for i in 0..self.shards.len() {
            self.dispatch(i);
        }
        // A poisoned plane asks no worker for a snapshot again: a worker
        // whose last snapshot went unreceived would block on its bound-1
        // channel, and the feeder behind it on the job channel.
        if let Some(worker) = self.lost {
            return Err(ParallelError::WorkerLost { worker });
        }
        for shard in &self.shards {
            if let Some(tx) = &shard.job_tx {
                // A send failure means the worker is gone; the recv below
                // reports it with the worker's index.
                let _ = tx.send(Job::EndInterval);
            }
        }
        let merge_start = self.telemetry.as_ref().map(|_| Instant::now());
        let mut stats = MergeStats {
            recv_ns: Vec::with_capacity(self.shards.len()),
            ..MergeStats::default()
        };
        let mut snaps: Vec<IntervalSnapshot> = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let wait = Instant::now();
            match shard.snap_rx.recv() {
                Ok(snap) => snaps.push(snap),
                Err(_) => {
                    self.lost = Some(i);
                    return Err(ParallelError::WorkerLost { worker: i });
                }
            }
            stats.recv_ns.push(wait.elapsed().as_nanos() as u64);
        }
        let combine_start = Instant::now();
        let (first, rest) = snaps
            .split_first_mut()
            .ok_or(ParallelError::WorkerLost { worker: 0 })?;
        let sources: Vec<&IntervalSnapshot> = rest.iter().collect();
        stats.combine_bytes = first.combine_many(&sources).map_err(ParallelError::Merge)?;
        stats.combine_ns = combine_start.elapsed().as_nanos() as u64;
        let merged = snaps.swap_remove(0);
        if let Some(t) = &mut self.telemetry {
            t.shard_packets.add(std::mem::take(&mut t.pending_packets));
            t.shard_batches.add(std::mem::take(&mut t.pending_batches));
            t.merges.inc();
            if let Some(start) = merge_start {
                t.merge_seconds.observe_duration(start.elapsed());
            }
        }
        Ok((merged, stats))
    }

    /// Registers the `hifind_record_*` shard/merge metrics in `registry`
    /// and starts publishing into them: a worker-count gauge, dispatched
    /// packet/batch counters, and an interval-close merge-latency
    /// histogram. Counts batch locally and flush once per interval, so
    /// the record path pays no atomics.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::KindMismatch`] if a metric name is
    /// already registered under a different kind; the recorder keeps
    /// running uninstrumented.
    pub fn attach_telemetry(&mut self, registry: &Registry) -> Result<(), TelemetryError> {
        let t = RecordTelemetry {
            workers: registry.gauge(
                "hifind_record_workers",
                "Shard worker threads in the parallel record plane",
            )?,
            shard_packets: registry.counter(
                "hifind_record_shard_packets_total",
                "Packets dispatched to shard workers",
            )?,
            shard_batches: registry.counter(
                "hifind_record_shard_batches_total",
                "Packet batches dispatched to shard workers",
            )?,
            merges: registry
                .counter("hifind_record_merges_total", "Interval-close shard merges")?,
            merge_seconds: registry.histogram(
                "hifind_record_merge_seconds",
                "Interval-close drain-and-merge latency across shards",
                exponential_buckets(1e-6, 4.0, 13),
            )?,
            pending_packets: 0,
            pending_batches: 0,
        };
        t.workers.set(self.shards.len() as i64);
        self.telemetry = Some(t);
        Ok(())
    }

    /// Stops publishing shard/merge metrics (registered metrics remain in
    /// the registry at their last values).
    pub fn detach_telemetry(&mut self) {
        self.telemetry = None;
    }

    /// Shuts the plane down: closes every job channel and joins every
    /// worker thread.
    ///
    /// # Errors
    ///
    /// [`ParallelError::WorkerLost`] if any worker had died or panicked;
    /// all threads are joined either way.
    pub fn finish(mut self) -> Result<(), ParallelError> {
        match self.shutdown() {
            Some(worker) => Err(ParallelError::WorkerLost { worker }),
            None => Ok(()),
        }
    }

    /// Closes channels, joins all workers; returns the first lost worker.
    fn shutdown(&mut self) -> Option<usize> {
        let mut lost = self.lost;
        for shard in &mut self.shards {
            // Dropping the sender closes the channel; the worker's recv
            // loop ends and the thread exits.
            shard.job_tx = None;
        }
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(handle) = shard.handle.take() {
                if handle.join().is_err() && lost.is_none() {
                    lost = Some(i);
                }
            }
        }
        lost
    }
}

impl Drop for ParallelRecorder {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A shard worker: records batches into its private recorder and answers
/// `EndInterval` with a snapshot. Exits when the job channel closes (or
/// the snapshot channel does, meaning the coordinator is gone).
fn shard_loop(
    mut recorder: SketchRecorder,
    jobs: Receiver<Job>,
    snapshots: SyncSender<IntervalSnapshot>,
) {
    while let Ok(job) = jobs.recv() {
        match job {
            Job::Batch(packets) => {
                // Batched SIMD record path; bit-identical to per-packet
                // `record` (see `SketchRecorder::record_all`).
                recorder.record_all(&packets);
            }
            Job::EndInterval => {
                if snapshots.send(recorder.take_snapshot()).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::rng::SplitMix64;
    use hifind_flow::Ip4;

    fn cfg() -> HiFindConfig {
        HiFindConfig::small(5)
    }

    fn mixed_packets(n: usize, seed: u64) -> Vec<Packet> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
                let port = 1 + (rng.next_u32() & 0x3FF) as u16;
                match rng.below(5) {
                    0 => Packet::syn_ack(i as u64, c, 999, s, port),
                    1 => Packet::fin(i as u64, c, 999, s, port),
                    2 => Packet::rst(i as u64, c, 999, s, port),
                    _ => Packet::syn(i as u64, c, 999, s, port),
                }
            })
            .collect()
    }

    #[test]
    fn merged_snapshot_is_bit_identical_to_serial() {
        let config = cfg();
        let pkts = mixed_packets(5000, 42);
        for w in [0usize, 1, 2, 4, 7] {
            // Fresh serial recorder per worker count: the active-service
            // Bloom filter is cumulative, so a shared one would drift.
            let mut serial = SketchRecorder::new(&config).unwrap();
            let mut par = ParallelRecorder::with_batch_size(&config, w, 64).unwrap();
            for p in &pkts {
                serial.record(p);
                par.record(p);
            }
            assert_eq!(
                par.end_interval().unwrap(),
                serial.take_snapshot(),
                "divergence at {w} workers"
            );
            par.finish().unwrap();
        }
    }

    #[test]
    fn bloom_stays_cumulative_across_intervals() {
        // A SYN/ACK learned in interval 0 must still be present in a
        // later interval's merged snapshot, exactly as on the serial path.
        let config = cfg();
        let pkts0 = mixed_packets(500, 7);
        let pkts1 = mixed_packets(500, 8);
        for w in [0usize, 3] {
            let mut serial = SketchRecorder::new(&config).unwrap();
            let mut par = ParallelRecorder::with_batch_size(&config, w, 16).unwrap();
            for p in &pkts0 {
                serial.record(p);
                par.record(p);
            }
            assert_eq!(par.end_interval().unwrap(), serial.take_snapshot());
            for p in &pkts1 {
                serial.record(p);
                par.record(p);
            }
            let s = serial.take_snapshot();
            let m = par.end_interval().unwrap();
            assert_eq!(m.active_services, s.active_services, "{w} workers");
            assert_eq!(m, s, "{w} workers");
            par.finish().unwrap();
        }
    }

    #[test]
    fn stats_variant_returns_same_snapshot_plus_phase_breakdown() {
        let config = cfg();
        let mut serial = SketchRecorder::new(&config).unwrap();
        let mut par = ParallelRecorder::with_batch_size(&config, 3, 32).unwrap();
        for p in &mixed_packets(1500, 11) {
            serial.record(p);
            par.record(p);
        }
        let (snap, stats) = par.end_interval_with_stats().unwrap();
        assert_eq!(snap, serial.take_snapshot());
        assert_eq!(stats.recv_ns.len(), 3);
        assert!(stats.recv_total_ns() > 0);
        // 2 sources folded into the first shard's snapshot.
        assert!(stats.combine_bytes > 0);
        par.finish().unwrap();
    }

    #[test]
    fn empty_and_single_packet_intervals() {
        let config = cfg();
        let mut serial = SketchRecorder::new(&config).unwrap();
        let mut par = ParallelRecorder::new(&config, 4).unwrap();
        assert_eq!(par.end_interval().unwrap(), serial.take_snapshot());
        let p = Packet::syn(0, [1, 2, 3, 4].into(), 999, [129, 105, 0, 1].into(), 80);
        serial.record(&p);
        par.record(&p);
        assert_eq!(par.end_interval().unwrap(), serial.take_snapshot());
        par.finish().unwrap();
    }

    #[test]
    fn zero_workers_spawn_no_thread() {
        let config = cfg();
        let mut serial = SketchRecorder::new(&config).unwrap();
        let mut par = ParallelRecorder::new(&config, 0).unwrap();
        assert_eq!(par.workers(), 0);
        assert!(
            par.shards.is_empty(),
            "no worker, so no channel and no thread"
        );
        assert!(par.inline.is_some());
        assert_eq!(par.memory_bytes(), serial.memory_bytes());
        assert_eq!(par.accesses_per_packet(), serial.accesses_per_packet());
        for p in &mixed_packets(300, 3) {
            serial.record(p);
            par.record(p);
        }
        let (snap, stats) = par.end_interval_with_stats().unwrap();
        assert_eq!(snap, serial.take_snapshot());
        assert_eq!(
            stats,
            MergeStats::default(),
            "an inline close merges nothing"
        );
        par.finish().unwrap();
    }

    #[test]
    fn lost_worker_poisons_the_plane_instead_of_wedging_it() {
        // Regression: after shard 0 was lost, the shards behind it kept
        // their unreceived snapshots; at the next close they blocked on
        // their full bound-1 snapshot channels, and one interval later
        // `record` blocked forever on their full job channels.
        let (done_tx, done_rx) = sync_channel(1);
        let watched = std::thread::spawn(move || {
            let mut par = ParallelRecorder::with_batch_size(&cfg(), 3, 16).unwrap();
            // Shard 0's snapshots now have nowhere to go: its worker's
            // first snapshot send fails and the worker exits.
            par.shards[0].snap_rx = sync_channel(1).1;
            let pkts = mixed_packets(576, 21);
            let mut closes = Vec::new();
            for _ in 0..4 {
                for p in &pkts {
                    par.record(p);
                }
                closes.push(par.end_interval().map(|_| ()));
            }
            let finished = par.finish();
            let _ = done_tx.send((closes, finished));
        });
        let (closes, finished) = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the plane wedged after losing a worker");
        watched.join().unwrap();
        for (interval, close) in closes.iter().enumerate() {
            assert!(
                matches!(close, Err(ParallelError::WorkerLost { worker: 0 })),
                "interval {interval}: {close:?}"
            );
        }
        assert!(matches!(
            finished,
            Err(ParallelError::WorkerLost { worker: 0 })
        ));
    }

    #[test]
    fn finish_joins_cleanly_with_data_in_flight() {
        let mut par = ParallelRecorder::with_batch_size(&cfg(), 2, 8).unwrap();
        for p in &mixed_packets(100, 9) {
            par.record(p);
        }
        // Unflushed batches are dropped by design; finish must still join.
        par.finish().unwrap();
    }
}
