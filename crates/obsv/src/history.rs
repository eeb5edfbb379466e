//! Tiered interval-history store: hot ring in memory, warm CRC-checked
//! segment files on disk, one retained form in both.
//!
//! Sketch linearity makes an archived [`IntervalSnapshot`] replayable
//! state: feeding stored snapshots back through a fresh detection core
//! reproduces (or counterfactually re-decides) the live run. An interval
//! is kept only as its codec-v2 keyframe (about 0.3 MB where a decoded
//! paper-config snapshot takes 26.5 MiB), encoded once at append outside
//! the lock. The last [`HistoryConfig::hot_capacity`] stay in a ring;
//! older ones are copied as they are into atomically written segment files
//! of [`HistoryConfig::segment_intervals`] records (checkpoint container,
//! magic [`HISTORY_MAGIC`], version 2), and the oldest segment is evicted
//! first to stay under [`HistoryConfig::max_warm_bytes`]. Reads hand out
//! encoded [`Record`]s; [`HistoryStore::decode`] parses one at a time
//! against the store's [`SnapshotShape`].
//!
//! Segment payload: records of `interval (u64 LE) + len (u32 LE) +
//! keyframe`. A version-1 segment (v1 blobs, from older builds) is indexed
//! and budgeted but reads as `Container(CheckpointError::Version(1))`.
//! The file parses untrusted bytes, so every integer conversion is checked.

use hifind::{HiFindConfig, IntervalSnapshot, SnapshotShape};
use hifind_collect::checkpoint::{
    decode_container_versioned, encode_container_versioned, write_atomic, CheckpointError,
    CHECKPOINT_VERSION_2, HISTORY_MAGIC,
};
use hifind_collect::codec_v2::{encode_keyframe, parse_keyframe};
use hifind_collect::CodecError;
use hifind_sketch::SketchError;
use hifind_telemetry::{Counter, Gauge, Registry, TelemetryError};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// File extension of warm-tier segment files.
pub const SEGMENT_EXTENSION: &str = "hfh";

/// One retained interval: its index and its codec-v2 keyframe.
pub type Record = (u64, Arc<[u8]>);

/// Retention and tiering knobs of a [`HistoryStore`].
#[derive(Clone, Debug)]
pub struct HistoryConfig {
    /// Warm-tier directory; `None` keeps only the in-memory hot ring
    /// (intervals beyond the ring are dropped, not spilled).
    pub dir: Option<PathBuf>,
    /// Intervals held in the in-memory hot ring.
    pub hot_capacity: usize,
    /// Intervals batched into one warm segment file.
    pub segment_intervals: usize,
    /// Byte budget across all warm segment files; the oldest segment is
    /// evicted first when a new one would exceed it.
    pub max_warm_bytes: u64,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            dir: None,
            hot_capacity: 64,
            segment_intervals: 16,
            max_warm_bytes: 64 << 20,
        }
    }
}

impl HistoryConfig {
    /// Hot-ring-only store (nothing is spilled to disk).
    pub fn in_memory(hot_capacity: usize) -> Self {
        HistoryConfig {
            hot_capacity: hot_capacity.max(1),
            ..HistoryConfig::default()
        }
    }

    /// Hot ring plus a warm tier under `dir`.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        HistoryConfig {
            dir: Some(dir.into()),
            ..HistoryConfig::default()
        }
    }
}

/// Why a history operation failed.
#[derive(Debug)]
pub enum HistoryError {
    /// Filesystem failure reading or writing a segment.
    Io(std::io::Error),
    /// The segment container failed validation (magic, version, CRC).
    Container(CheckpointError),
    /// A record's keyframe failed to parse, or has another shape than
    /// the store's.
    Codec(CodecError),
    /// A segment's record framing ended mid-record.
    Truncated {
        /// Which field the payload ended inside.
        at: &'static str,
    },
    /// A segment was recorded under a different configuration
    /// fingerprint than this store's.
    Fingerprint {
        /// Fingerprint this store archives under.
        expected: u64,
        /// Fingerprint found in the segment.
        got: u64,
    },
    /// The store has no warm directory configured but one is required.
    NoDirectory,
    /// The configuration the store archives under is invalid.
    Config(SketchError),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history i/o error: {e}"),
            HistoryError::Container(e) => write!(f, "history segment container error: {e}"),
            HistoryError::Codec(e) => write!(f, "history keyframe decode error: {e}"),
            HistoryError::Truncated { at } => write!(f, "history segment truncated at {at}"),
            HistoryError::Fingerprint { expected, got } => write!(
                f,
                "history segment fingerprint {got:#018x} does not match store {expected:#018x}"
            ),
            HistoryError::NoDirectory => write!(f, "history store has no warm directory"),
            HistoryError::Config(e) => write!(f, "history configuration error: {e}"),
        }
    }
}

impl std::error::Error for HistoryError {}

impl From<std::io::Error> for HistoryError {
    fn from(e: std::io::Error) -> Self {
        HistoryError::Io(e)
    }
}

impl From<CheckpointError> for HistoryError {
    fn from(e: CheckpointError) -> Self {
        HistoryError::Container(e)
    }
}

impl From<CodecError> for HistoryError {
    fn from(e: CodecError) -> Self {
        HistoryError::Codec(e)
    }
}

/// One warm segment on disk.
#[derive(Clone, Debug)]
struct SegmentMeta {
    path: PathBuf,
    first: u64,
    last: u64,
    bytes: u64,
}

/// One retained interval, as reported by [`HistoryStore::summaries`].
#[derive(Clone, Debug, serde::Serialize)]
pub struct IntervalSummary {
    /// Interval index.
    pub interval: u64,
    /// `"hot"` (in-memory ring) or `"warm"` (segment file).
    pub tier: &'static str,
    /// Total SYNs recorded in the interval.
    pub syn_count: u64,
    /// Total SYN/ACKs recorded in the interval.
    pub syn_ack_count: u64,
    /// Total FIN+RST recorded in the interval.
    pub fin_rst_count: u64,
}

/// `hifind_history_*` metrics.
struct HistoryTelemetry {
    archived: Arc<Counter>,
    evicted_segments: Arc<Counter>,
    spill_errors: Arc<Counter>,
    hot_len: Arc<Gauge>,
    hot_bytes: Arc<Gauge>,
    warm_bytes: Arc<Gauge>,
    warm_segments: Arc<Gauge>,
}

impl HistoryTelemetry {
    fn new(registry: &Registry) -> Result<Self, TelemetryError> {
        Ok(HistoryTelemetry {
            archived: registry.counter(
                "hifind_history_archived_total",
                "Interval snapshots appended to the history store",
            )?,
            evicted_segments: registry.counter(
                "hifind_history_evicted_segments_total",
                "Warm segments evicted to stay under the byte budget",
            )?,
            spill_errors: registry.counter(
                "hifind_history_spill_errors_total",
                "Warm segment writes that failed (snapshots dropped)",
            )?,
            hot_len: registry.gauge(
                "hifind_history_hot_len",
                "Snapshots currently in the in-memory hot ring",
            )?,
            hot_bytes: registry.gauge(
                "hifind_history_hot_bytes",
                "Keyframe bytes currently held in the in-memory hot ring",
            )?,
            warm_bytes: registry.gauge(
                "hifind_history_warm_bytes",
                "Bytes currently held across warm segment files",
            )?,
            warm_segments: registry.gauge(
                "hifind_history_warm_segments",
                "Warm segment files currently retained",
            )?,
        })
    }
}

struct Inner {
    hot: VecDeque<Record>,
    /// Records evicted from the ring, waiting to fill a segment.
    spill: Vec<Record>,
    /// Warm segments, oldest first.
    segments: Vec<SegmentMeta>,
}

/// The tiered store. Appends come from the collector's node thread
/// (via the observer hooks); queries come from HTTP worker threads, so
/// all state sits behind one mutex — both sides are off the per-packet
/// hot path, and neither encodes nor decodes while holding it.
pub struct HistoryStore {
    cfg: HistoryConfig,
    shape: SnapshotShape,
    // lock-order: obsv.history
    inner: Mutex<Inner>,
    telemetry: Option<HistoryTelemetry>,
}

impl HistoryStore {
    /// Opens a store archiving snapshots recorded under `config`.
    /// When a warm directory is configured, segments already present
    /// (from an earlier run) are indexed and count against the budget.
    ///
    /// # Errors
    ///
    /// An invalid `config`, directory creation/scan failures and metric
    /// registration clashes.
    pub fn open(
        cfg: HistoryConfig,
        config: &HiFindConfig,
        registry: Option<&Registry>,
    ) -> Result<Self, HistoryError> {
        let shape = SnapshotShape::of_config(config).map_err(HistoryError::Config)?;
        let telemetry = registry.map(HistoryTelemetry::new).transpose();
        let telemetry = telemetry.map_err(|e| std::io::Error::other(e.to_string()))?;
        let segments = cfg.dir.as_deref().map(scan_segments).transpose()?;
        let store = HistoryStore {
            cfg,
            shape,
            inner: Mutex::new(Inner {
                hot: VecDeque::new(),
                spill: Vec::new(),
                segments: segments.unwrap_or_default(),
            }),
            telemetry,
        };
        store.publish_gauges(&store.lock());
        Ok(store)
    }

    /// The fingerprint this store archives under.
    pub fn fingerprint(&self) -> u64 {
        self.shape.fingerprint
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock only poisons bookkeeping that the
        // next append rebuilds; recovering beats taking the daemon down.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Refreshes the tier-occupancy gauges (also done on every append);
    /// scrape handlers call this so gauges are current even when no
    /// interval has closed since the last scrape.
    pub fn refresh_gauges(&self) {
        self.publish_gauges(&self.lock());
    }

    fn publish_gauges(&self, inner: &Inner) {
        if let Some(t) = &self.telemetry {
            t.hot_len.set(saturating_i64(inner.hot.len()));
            t.hot_bytes
                .set(saturating_i64(inner.hot.iter().map(|r| r.1.len()).sum()));
            let warm: u64 = inner.segments.iter().map(|s| s.bytes).sum();
            t.warm_bytes.set(i64::try_from(warm).unwrap_or(i64::MAX));
            t.warm_segments.set(saturating_i64(inner.segments.len()));
        }
    }

    /// Appends one interval snapshot as its keyframe, spilling and
    /// evicting per policy.
    ///
    /// # Errors
    ///
    /// Surfaces warm-tier write failures; the batch that failed to spill
    /// is dropped (and counted), never retried unboundedly.
    pub fn append(&self, interval: u64, snapshot: &IntervalSnapshot) -> Result<(), HistoryError> {
        let keyframe = Arc::from(encode_keyframe(snapshot));
        let mut inner = self.lock();
        inner.hot.push_back((interval, keyframe));
        if let Some(t) = &self.telemetry {
            t.archived.inc();
        }
        while inner.hot.len() > self.cfg.hot_capacity.max(1) {
            let oldest = inner.hot.pop_front();
            if self.cfg.dir.is_some() {
                inner.spill.extend(oldest);
            }
        }
        let mut result = Ok(());
        if inner.spill.len() >= self.cfg.segment_intervals.max(1) {
            result = self.write_segment(&mut inner);
            if result.is_err() {
                if let Some(t) = &self.telemetry {
                    t.spill_errors.inc();
                }
            }
        }
        self.publish_gauges(&inner);
        result
    }

    /// Writes `inner.spill` out as one segment, copying each keyframe as
    /// it is, and enforces the byte budget. The spill buffer is cleared
    /// either way — a failing disk must not grow memory without bound.
    fn write_segment(&self, inner: &mut Inner) -> Result<(), HistoryError> {
        let Some(dir) = &self.cfg.dir else {
            inner.spill.clear();
            return Err(HistoryError::NoDirectory);
        };
        let batch = std::mem::take(&mut inner.spill);
        let (Some((first, _)), Some((last, _))) = (batch.first(), batch.last()) else {
            return Ok(());
        };
        let (first, last) = (*first, *last);
        let mut payload = Vec::with_capacity(batch.iter().map(|(_, k)| 12 + k.len()).sum());
        for (interval, keyframe) in &batch {
            payload.extend_from_slice(&interval.to_le_bytes());
            let len = u32::try_from(keyframe.len()).unwrap_or(u32::MAX);
            payload.extend_from_slice(&len.to_le_bytes());
            payload.extend_from_slice(keyframe);
        }
        let container = encode_container_versioned(
            HISTORY_MAGIC,
            CHECKPOINT_VERSION_2,
            self.shape.fingerprint,
            &payload,
        );
        let path = dir.join(format!("seg-{first:012}-{last:012}.{SEGMENT_EXTENSION}"));
        write_atomic(&path, &container)?;
        inner.segments.push(SegmentMeta {
            path,
            first,
            last,
            bytes: u64::try_from(container.len()).unwrap_or(u64::MAX),
        });
        inner.segments.sort_by_key(|s| s.first);
        self.enforce_budget(inner);
        Ok(())
    }

    /// Evicts oldest segments until the warm tier fits the byte budget.
    fn enforce_budget(&self, inner: &mut Inner) {
        let mut total: u64 = inner.segments.iter().map(|s| s.bytes).sum();
        while total > self.cfg.max_warm_bytes && !inner.segments.is_empty() {
            let evicted = inner.segments.remove(0);
            total = total.saturating_sub(evicted.bytes);
            let _ = std::fs::remove_file(&evicted.path);
            if let Some(t) = &self.telemetry {
                t.evicted_segments.inc();
            }
        }
    }

    /// Flushes any partial spill batch to disk (shutdown path), so every
    /// interval that left the hot ring is on disk.
    ///
    /// # Errors
    ///
    /// Surfaces the segment write failure.
    pub fn flush(&self) -> Result<(), HistoryError> {
        let mut inner = self.lock();
        let result = if inner.spill.is_empty() {
            Ok(())
        } else {
            self.write_segment(&mut inner)
        };
        self.publish_gauges(&inner);
        result
    }

    /// Oldest and newest interval currently retained (any tier).
    pub fn range(&self) -> Option<(u64, u64)> {
        let inner = self.lock();
        let warm = inner.segments.iter().map(|s| (s.first, s.last));
        let mem = inner.spill.iter().chain(&inner.hot).map(|r| (r.0, r.0));
        warm.chain(mem)
            .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))
    }

    /// All retained records with `from <= interval <= to`, ascending and
    /// still encoded. Warm segments are read back and container-checked
    /// (CRC, version, fingerprint) on the way in.
    ///
    /// # Errors
    ///
    /// Read, container, or record-framing failures.
    pub fn records(&self, from: u64, to: u64) -> Result<Vec<Record>, HistoryError> {
        let inner = self.lock();
        let warm_paths: Vec<PathBuf> = inner
            .segments
            .iter()
            .filter(|s| s.first <= to && s.last >= from)
            .map(|s| s.path.clone())
            .collect();
        let mut out: Vec<Record> = inner
            .spill
            .iter()
            .chain(inner.hot.iter())
            .filter(|(iv, _)| (from..=to).contains(iv))
            .cloned()
            .collect();
        drop(inner);
        // Segment files are read outside the lock; appends never rewrite
        // an existing segment, so the worst case is reading one that was
        // just evicted (reported as Io, handled by the caller).
        for path in warm_paths {
            let bytes = std::fs::read(&path)?;
            for (iv, keyframe) in self.parse_segment(&bytes)? {
                if (from..=to).contains(&iv) {
                    out.push((iv, Arc::from(keyframe)));
                }
            }
        }
        out.sort_by_key(|(iv, _)| *iv);
        out.dedup_by_key(|(iv, _)| *iv);
        Ok(out)
    }

    /// Decodes one record's keyframe, parsed against this store's shape.
    ///
    /// # Errors
    ///
    /// [`HistoryError::Codec`], also for another shape or fingerprint.
    pub fn decode(&self, keyframe: &[u8]) -> Result<IntervalSnapshot, HistoryError> {
        Ok(parse_keyframe(keyframe, &self.shape)?.into_snapshot())
    }

    /// Per-interval counters for every retained interval in range,
    /// ascending — the `/api/intervals` payload. Each record is parsed
    /// and checked whole, but no grid is built.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HistoryStore::records`] and
    /// [`HistoryStore::decode`].
    pub fn summaries(&self, from: u64, to: u64) -> Result<Vec<IntervalSummary>, HistoryError> {
        let records = self.records(from, to)?;
        let hot_floor = self.lock().hot.front().map_or(u64::MAX, |r| r.0);
        let summary = |(interval, keyframe): Record| {
            let [syn_count, syn_ack_count, fin_rst_count] =
                parse_keyframe(&keyframe, &self.shape)?.counts();
            Ok(IntervalSummary {
                interval,
                tier: if interval >= hot_floor { "hot" } else { "warm" },
                syn_count,
                syn_ack_count,
                fin_rst_count,
            })
        };
        records.into_iter().map(summary).collect()
    }

    /// The most recent interval, decoded, if any has been appended.
    ///
    /// # Errors
    ///
    /// As [`HistoryStore::decode`].
    pub fn latest(&self) -> Result<Option<(u64, IntervalSnapshot)>, HistoryError> {
        let Some((interval, keyframe)) = self.lock().hot.back().cloned() else {
            return Ok(None);
        };
        Ok(Some((interval, self.decode(&keyframe)?)))
    }

    /// Splits one segment file into its `(interval, keyframe)` records,
    /// validating container magic, version, CRC, and fingerprint.
    fn parse_segment<'a>(&self, bytes: &'a [u8]) -> Result<Vec<(u64, &'a [u8])>, HistoryError> {
        let (version, fingerprint, payload) = decode_container_versioned(HISTORY_MAGIC, bytes)?;
        if version != CHECKPOINT_VERSION_2 {
            return Err(HistoryError::Container(CheckpointError::Version(version)));
        }
        if fingerprint != self.shape.fingerprint {
            return Err(HistoryError::Fingerprint {
                expected: self.shape.fingerprint,
                got: fingerprint,
            });
        }
        let mut out = Vec::new();
        let mut rest = payload;
        while !rest.is_empty() {
            let Some((iv, tail)) = rest.split_first_chunk::<8>() else {
                return Err(HistoryError::Truncated { at: "interval" });
            };
            let Some((len, tail)) = tail.split_first_chunk::<4>() else {
                return Err(HistoryError::Truncated { at: "keyframe_len" });
            };
            let len = usize::try_from(u32::from_le_bytes(*len)).unwrap_or(usize::MAX);
            let Some((keyframe, tail)) = tail.split_at_checked(len) else {
                return Err(HistoryError::Truncated { at: "keyframe" });
            };
            out.push((u64::from_le_bytes(*iv), keyframe));
            rest = tail;
        }
        Ok(out)
    }
}

fn saturating_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Creates `dir` if needed and indexes the segment files already in it,
/// oldest first. File names carry the interval range
/// (`seg-<first>-<last>.hfh`); anything that does not parse is ignored
/// rather than trusted.
fn scan_segments(dir: &Path) -> Result<Vec<SegmentMeta>, HistoryError> {
    std::fs::create_dir_all(dir)?;
    let suffix = format!(".{SEGMENT_EXTENSION}");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let range = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(&suffix));
        let Some((Ok(first), Ok(last))) = range
            .and_then(|r| r.split_once('-'))
            .map(|(first, last)| (first.parse::<u64>(), last.parse::<u64>()))
        else {
            continue;
        };
        let bytes = entry.metadata()?.len();
        out.push(SegmentMeta {
            path,
            first,
            last,
            bytes,
        });
    }
    out.sort_by_key(|s| s.first);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::{replay_window, ReplayError, ReplayOverrides};
    use hifind::SketchRecorder;
    use hifind_collect::checkpoint::CONTAINER_HEADER_LEN;
    use hifind_flow::Packet;
    use hifind_telemetry::registry::MetricValue;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hifind-history-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn snapshot_for(cfg: &HiFindConfig, interval: u64) -> IntervalSnapshot {
        let mut rec = SketchRecorder::new(cfg).expect("recorder");
        for i in 0..20u32 {
            rec.record(&Packet::syn(
                interval,
                [10, 0, (interval & 0xFF) as u8, i as u8].into(),
                1000 + i as u16,
                [129, 105, 0, 1].into(),
                80,
            ));
        }
        rec.take_snapshot()
    }

    /// Every retained interval in `[from, to]`, decoded.
    fn snapshots(store: &HistoryStore, from: u64, to: u64) -> Vec<(u64, IntervalSnapshot)> {
        let records = store.records(from, to).expect("records");
        records
            .into_iter()
            .map(|(iv, keyframe)| (iv, store.decode(&keyframe).expect("decode")))
            .collect()
    }

    /// A segment file under `dir` holding `records` as written by a
    /// store of container `version` under `fingerprint`.
    fn write_segment_file(dir: &Path, version: u16, fingerprint: u64, records: &[(u64, &[u8])]) {
        let mut payload = Vec::new();
        for (interval, blob) in records {
            payload.extend_from_slice(&interval.to_le_bytes());
            payload.extend_from_slice(&u32::try_from(blob.len()).unwrap().to_le_bytes());
            payload.extend_from_slice(blob);
        }
        let bytes = encode_container_versioned(HISTORY_MAGIC, version, fingerprint, &payload);
        let (first, last) = (records[0].0, records[records.len() - 1].0);
        let name = format!("seg-{first:012}-{last:012}.{SEGMENT_EXTENSION}");
        std::fs::write(dir.join(name), bytes).expect("write segment");
    }

    #[test]
    fn hot_ring_round_trip_without_disk() {
        let cfg = HiFindConfig::small(5);
        let store = HistoryStore::open(HistoryConfig::in_memory(4), &cfg, None).unwrap();
        for iv in 0..6u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        // Capacity 4: intervals 2..=5 retained, 0 and 1 dropped.
        assert_eq!(store.range(), Some((2, 5)));
        let got = snapshots(&store, 0, 10);
        assert_eq!(
            got.iter().map(|(iv, _)| *iv).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        let (latest, snapshot) = store.latest().unwrap().expect("latest");
        assert_eq!((latest, snapshot), (5, snapshot_for(&cfg, 5)));
    }

    #[test]
    fn spill_and_read_back_is_lossless() {
        let cfg = HiFindConfig::small(6);
        let dir = temp_dir("spill");
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 2;
        hcfg.segment_intervals = 3;
        let registry = Registry::new();
        let store = HistoryStore::open(hcfg, &cfg, Some(&registry)).unwrap();
        let originals: Vec<IntervalSnapshot> = (0..8u64).map(|iv| snapshot_for(&cfg, iv)).collect();
        for (iv, snap) in originals.iter().enumerate() {
            store.append(iv as u64, snap).unwrap();
        }
        store.flush().unwrap();
        let got = snapshots(&store, 0, 7);
        assert_eq!(got.len(), 8, "all intervals retained across tiers");
        for (i, (iv, snap)) in got.iter().enumerate() {
            assert_eq!(*iv, i as u64);
            assert_eq!(snap, &originals[i], "snapshot {i} survives the round trip");
        }
        // The hot-bytes gauge is the two ring keyframes, byte for byte.
        let hot: usize = (6..8u64)
            .map(|iv| encode_keyframe(&originals[iv as usize]).len())
            .sum();
        assert_eq!(
            registry.snapshot().get("hifind_history_hot_bytes"),
            Some(&MetricValue::Gauge { value: hot as i64 })
        );
        // A fresh store over the same directory indexes the old segments.
        let reopened = HistoryStore::open(HistoryConfig::with_dir(&dir), &cfg, None).unwrap();
        let warm = snapshots(&reopened, 0, 7);
        assert!(!warm.is_empty(), "reopened store sees spilled segments");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_oldest_segment_first() {
        let cfg = HiFindConfig::small(7);
        let dir = temp_dir("budget");
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 1;
        hcfg.segment_intervals = 2;
        hcfg.max_warm_bytes = 1; // every new segment evicts the previous
        let store = HistoryStore::open(hcfg, &cfg, None).unwrap();
        for iv in 0..9u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            files.len() <= 1,
            "budget of 1 byte keeps at most the segment being written, saw {}",
            files.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_fingerprint_segment_is_rejected() {
        let cfg = HiFindConfig::small(8);
        let dir = temp_dir("fpr");
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 1;
        hcfg.segment_intervals = 1;
        let store = HistoryStore::open(hcfg.clone(), &cfg, None).unwrap();
        for iv in 0..3u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        store.flush().unwrap();
        // Same shapes, another seed: only the fingerprint differs.
        let other = HistoryStore::open(hcfg, &HiFindConfig::small(9), None).unwrap();
        let err = other.records(0, 3).unwrap_err();
        assert!(matches!(err, HistoryError::Fingerprint { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_fails_crc_not_panics() {
        let cfg = HiFindConfig::small(9);
        let dir = temp_dir("crc");
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 1;
        hcfg.segment_intervals = 1;
        let store = HistoryStore::open(hcfg, &cfg, None).unwrap();
        for iv in 0..3u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        store.flush().unwrap();
        // Flip a payload byte in the first segment on disk.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == SEGMENT_EXTENSION))
            .expect("one segment on disk");
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let err = store.records(0, 3).unwrap_err();
        assert!(matches!(err, HistoryError::Container(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a segment that passes the CRC check and carries the
    /// store's fingerprint, but whose records declare other grid shapes
    /// (with the store's fingerprint inside too), used to decode and then
    /// panic the detection core at the second interval of a replay.
    #[test]
    fn forged_shape_record_is_a_typed_error_not_a_replay_panic() {
        let cfg = HiFindConfig::small(10);
        let mut forged_cfg = cfg;
        forged_cfg.rs48.stages = 5;
        let mut forged = snapshot_for(&forged_cfg, 0);
        forged.fingerprint = cfg.fingerprint();
        let dir = temp_dir("forged");
        let keyframe = encode_keyframe(&forged);
        let records: [(u64, &[u8]); 2] = [(0, &keyframe), (1, &keyframe)];
        write_segment_file(&dir, CHECKPOINT_VERSION_2, cfg.fingerprint(), &records);
        let store = HistoryStore::open(HistoryConfig::with_dir(&dir), &cfg, None).unwrap();
        let err = replay_window(cfg, &store, 0, 1, &ReplayOverrides::default()).unwrap_err();
        assert!(
            matches!(
                err,
                ReplayError::History(HistoryError::Codec(CodecError::ShapeMismatch { .. }))
            ),
            "{err}"
        );
        assert!(matches!(
            store.summaries(0, 1),
            Err(HistoryError::Codec(CodecError::ShapeMismatch { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A version-1 segment (v1 codec blobs, written by an older build) is
    /// indexed and budgeted, but reads as a typed container error.
    #[test]
    fn legacy_version_1_segment_is_indexed_rejected_and_evicted() {
        let cfg = HiFindConfig::small(11);
        let dir = temp_dir("legacy");
        // The container version is checked before any record is parsed,
        // so the blobs need not be real v1 payloads.
        write_segment_file(&dir, 1, cfg.fingerprint(), &[(0, b"v1"), (1, b"v1")]);
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 1;
        hcfg.segment_intervals = 1;
        let store = HistoryStore::open(hcfg.clone(), &cfg, None).unwrap();
        assert_eq!(store.range(), Some((0, 1)), "the legacy segment is indexed");
        let err = store.records(0, 1).unwrap_err();
        assert!(
            matches!(err, HistoryError::Container(CheckpointError::Version(1))),
            "{err}"
        );
        let err = replay_window(cfg, &store, 0, 1, &ReplayOverrides::default()).unwrap_err();
        assert!(matches!(
            err,
            ReplayError::History(HistoryError::Container(CheckpointError::Version(1)))
        ));
        drop(store);
        // The byte budget still counts it: a budget that fits exactly one
        // new segment evicts the legacy one, the oldest, first.
        let legacy_path = dir.join(format!("seg-{:012}-{:012}.{SEGMENT_EXTENSION}", 0, 1));
        let keyframe = encode_keyframe(&snapshot_for(&cfg, 2));
        hcfg.max_warm_bytes = (CONTAINER_HEADER_LEN + 12 + keyframe.len()) as u64;
        let store = HistoryStore::open(hcfg, &cfg, None).unwrap();
        for iv in 2..4u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        assert!(!legacy_path.exists(), "the legacy segment is evicted first");
        assert_eq!(store.range(), Some((2, 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
