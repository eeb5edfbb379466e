//! Tiered interval-history store: hot ring in memory, warm CRC-checked
//! segment files on disk.
//!
//! Sketch linearity makes an archived [`IntervalSnapshot`] first-class,
//! replayable state: feeding stored snapshots back through a fresh
//! detection core reproduces (or counterfactually re-decides) the live
//! run. The store keeps the last [`HistoryConfig::hot_capacity`]
//! snapshots in a ring; older ones spill in batches of
//! [`HistoryConfig::segment_intervals`] into segment files wrapped in the
//! same versioned CRC container as PR 5 checkpoints (magic
//! [`HISTORY_MAGIC`]), atomically written, and retained under a byte
//! budget — the oldest segment is evicted first when
//! [`HistoryConfig::max_warm_bytes`] would be exceeded.
//!
//! Segment payload layout (after the container header): a sequence of
//! records, each `interval (u64 LE) + blob_len (u32 LE) + blob`, where
//! `blob` is [`hifind_collect::codec::encode_snapshot`] bytes. This file
//! parses untrusted on-disk bytes, so it sits in the truncating-cast
//! perimeter of `cargo xtask lint`: every integer conversion is checked.

use hifind::IntervalSnapshot;
use hifind_collect::checkpoint::{
    decode_container, encode_container, write_atomic, CheckpointError, HISTORY_MAGIC,
};
use hifind_collect::codec::{decode_snapshot, encode_snapshot, CodecError};
use hifind_telemetry::{Counter, Gauge, Registry, TelemetryError};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// File extension of warm-tier segment files.
pub const SEGMENT_EXTENSION: &str = "hfh";

/// Retention and tiering knobs of a [`HistoryStore`].
#[derive(Clone, Debug)]
pub struct HistoryConfig {
    /// Warm-tier directory; `None` keeps only the in-memory hot ring
    /// (snapshots beyond the ring are dropped, not spilled).
    pub dir: Option<PathBuf>,
    /// Snapshots held in the in-memory hot ring.
    pub hot_capacity: usize,
    /// Snapshots batched into one warm segment file.
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
    /// A snapshot blob inside a segment failed to decode.
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
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Io(e) => write!(f, "history i/o error: {e}"),
            HistoryError::Container(e) => write!(f, "history segment container error: {e}"),
            HistoryError::Codec(e) => write!(f, "history snapshot decode error: {e}"),
            HistoryError::Truncated { at } => {
                write!(f, "history segment payload truncated at {at}")
            }
            HistoryError::Fingerprint { expected, got } => write!(
                f,
                "history segment fingerprint {got:#018x} does not match store {expected:#018x}"
            ),
            HistoryError::NoDirectory => write!(f, "history store has no warm directory"),
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
    hot: VecDeque<(u64, IntervalSnapshot)>,
    /// Snapshots evicted from the ring, waiting to fill a segment.
    spill: Vec<(u64, IntervalSnapshot)>,
    /// Warm segments, oldest first.
    segments: Vec<SegmentMeta>,
}

/// The tiered store. Appends come from the collector's node thread
/// (via the observer hooks); queries come from HTTP worker threads, so
/// all state sits behind one mutex — both sides are off the per-packet
/// hot path.
pub struct HistoryStore {
    cfg: HistoryConfig,
    fingerprint: u64,
    // lock-order: obsv.history
    inner: Mutex<Inner>,
    telemetry: Option<HistoryTelemetry>,
}

impl HistoryStore {
    /// Opens a store archiving snapshots recorded under `fingerprint`.
    /// When a warm directory is configured, segments already present
    /// (from an earlier run) are indexed and count against the budget.
    ///
    /// # Errors
    ///
    /// Directory creation/scan failures and metric registration clashes.
    pub fn open(
        cfg: HistoryConfig,
        fingerprint: u64,
        registry: Option<&Registry>,
    ) -> Result<Self, HistoryError> {
        let telemetry = match registry {
            Some(r) => Some(
                HistoryTelemetry::new(r)
                    .map_err(|e| HistoryError::Io(std::io::Error::other(e.to_string())))?,
            ),
            None => None,
        };
        let mut segments = Vec::new();
        if let Some(dir) = &cfg.dir {
            std::fs::create_dir_all(dir)?;
            segments = scan_segments(dir)?;
        }
        let store = HistoryStore {
            cfg,
            fingerprint,
            inner: Mutex::new(Inner {
                hot: VecDeque::new(),
                spill: Vec::new(),
                segments,
            }),
            telemetry,
        };
        store.publish_gauges(&store.lock());
        Ok(store)
    }

    /// The fingerprint this store archives under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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
            let warm: u64 = inner.segments.iter().map(|s| s.bytes).sum();
            t.warm_bytes.set(i64::try_from(warm).unwrap_or(i64::MAX));
            t.warm_segments.set(saturating_i64(inner.segments.len()));
        }
    }

    /// Appends one interval snapshot, spilling and evicting per policy.
    ///
    /// # Errors
    ///
    /// Surfaces warm-tier write failures; the snapshot batch that failed
    /// to spill is dropped (and counted), never retried unboundedly.
    pub fn append(&self, interval: u64, snapshot: &IntervalSnapshot) -> Result<(), HistoryError> {
        let mut inner = self.lock();
        inner.hot.push_back((interval, snapshot.clone()));
        if let Some(t) = &self.telemetry {
            t.archived.inc();
        }
        while inner.hot.len() > self.cfg.hot_capacity.max(1) {
            let Some(oldest) = inner.hot.pop_front() else {
                break;
            };
            if self.cfg.dir.is_some() {
                inner.spill.push(oldest);
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

    /// Writes `inner.spill` out as one segment and enforces the byte
    /// budget. The spill buffer is cleared either way — a failing disk
    /// must not grow memory without bound.
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
        let mut payload = Vec::new();
        for (interval, snapshot) in &batch {
            let blob = encode_snapshot(snapshot);
            payload.extend_from_slice(&interval.to_le_bytes());
            let blob_len = u32::try_from(blob.len()).unwrap_or(u32::MAX);
            payload.extend_from_slice(&blob_len.to_le_bytes());
            payload.extend_from_slice(&blob);
        }
        let container = encode_container(HISTORY_MAGIC, self.fingerprint, &payload);
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
    /// snapshot that left the hot ring is on disk.
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
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for s in &inner.segments {
            lo = lo.min(s.first);
            hi = hi.max(s.last);
            any = true;
        }
        for (iv, _) in inner.spill.iter().chain(inner.hot.iter()) {
            lo = lo.min(*iv);
            hi = hi.max(*iv);
            any = true;
        }
        any.then_some((lo, hi))
    }

    /// All retained snapshots with `from <= interval <= to`, ascending.
    /// Warm segments are read back and CRC/fingerprint-checked on the
    /// way in.
    ///
    /// # Errors
    ///
    /// Read, container, or decode failures on any overlapping segment.
    pub fn snapshots(
        &self,
        from: u64,
        to: u64,
    ) -> Result<Vec<(u64, IntervalSnapshot)>, HistoryError> {
        let (warm_paths, mut out) = {
            let inner = self.lock();
            let paths: Vec<PathBuf> = inner
                .segments
                .iter()
                .filter(|s| s.first <= to && s.last >= from)
                .map(|s| s.path.clone())
                .collect();
            let mem: Vec<(u64, IntervalSnapshot)> = inner
                .spill
                .iter()
                .chain(inner.hot.iter())
                .filter(|(iv, _)| (from..=to).contains(iv))
                .cloned()
                .collect();
            (paths, mem)
        };
        // Segment files are read outside the lock; appends never rewrite
        // an existing segment, so the worst case is reading one that was
        // just evicted (reported as Io, handled by the caller).
        for path in warm_paths {
            let bytes = std::fs::read(&path)?;
            for (iv, snapshot) in self.parse_segment(&bytes)? {
                if (from..=to).contains(&iv) {
                    out.push((iv, snapshot));
                }
            }
        }
        out.sort_by_key(|(iv, _)| *iv);
        out.dedup_by_key(|(iv, _)| *iv);
        Ok(out)
    }

    /// Per-interval counters for every retained interval in range,
    /// ascending — the `/api/intervals` payload.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HistoryStore::snapshots`].
    pub fn summaries(&self, from: u64, to: u64) -> Result<Vec<IntervalSummary>, HistoryError> {
        let hot_floor = {
            let inner = self.lock();
            inner.hot.front().map(|(iv, _)| *iv)
        };
        let snaps = self.snapshots(from, to)?;
        Ok(snaps
            .into_iter()
            .map(|(interval, s)| IntervalSummary {
                interval,
                tier: match hot_floor {
                    Some(floor) if interval >= floor => "hot",
                    _ => "warm",
                },
                syn_count: s.syn_count,
                syn_ack_count: s.syn_ack_count,
                fin_rst_count: s.fin_rst_count,
            })
            .collect())
    }

    /// The most recent snapshot, if any interval has been appended.
    pub fn latest(&self) -> Option<(u64, IntervalSnapshot)> {
        let inner = self.lock();
        inner.hot.back().cloned()
    }

    /// Decodes one segment file body into its `(interval, snapshot)`
    /// records, validating container magic, CRC, and fingerprint.
    fn parse_segment(&self, bytes: &[u8]) -> Result<Vec<(u64, IntervalSnapshot)>, HistoryError> {
        let (fingerprint, payload) = decode_container(HISTORY_MAGIC, bytes)?;
        if fingerprint != self.fingerprint {
            return Err(HistoryError::Fingerprint {
                expected: self.fingerprint,
                got: fingerprint,
            });
        }
        let mut out = Vec::new();
        let mut rest = payload;
        while !rest.is_empty() {
            let Some(iv_bytes) = rest.get(..8) else {
                return Err(HistoryError::Truncated { at: "interval" });
            };
            let interval = u64::from_le_bytes(iv_bytes.try_into().unwrap_or([0; 8]));
            let Some(len_bytes) = rest.get(8..12) else {
                return Err(HistoryError::Truncated { at: "blob length" });
            };
            let declared = u32::from_le_bytes(len_bytes.try_into().unwrap_or([0; 4]));
            let blob_len = usize::try_from(declared).unwrap_or(usize::MAX);
            let end = 12usize.saturating_add(blob_len);
            let Some(blob) = rest.get(12..end) else {
                return Err(HistoryError::Truncated { at: "blob" });
            };
            out.push((interval, decode_snapshot(blob)?));
            rest = &rest[end..];
        }
        Ok(out)
    }
}

fn saturating_i64(v: usize) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Indexes the segment files already in `dir`, oldest first. File names
/// carry the interval range (`seg-<first>-<last>.hfh`); anything that
/// does not parse is ignored rather than trusted.
fn scan_segments(dir: &Path) -> Result<Vec<SegmentMeta>, HistoryError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(range) = name
            .strip_prefix("seg-")
            .and_then(|r| r.strip_suffix(&format!(".{SEGMENT_EXTENSION}")))
        else {
            continue;
        };
        let Some((first, last)) = range.split_once('-') else {
            continue;
        };
        let (Ok(first), Ok(last)) = (first.parse::<u64>(), last.parse::<u64>()) else {
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
    use hifind::{HiFindConfig, SketchRecorder};
    use hifind_flow::Packet;

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

    #[test]
    fn hot_ring_round_trip_without_disk() {
        let cfg = HiFindConfig::small(5);
        let store =
            HistoryStore::open(HistoryConfig::in_memory(4), cfg.fingerprint(), None).unwrap();
        for iv in 0..6u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        // Capacity 4: intervals 2..=5 retained, 0 and 1 dropped.
        assert_eq!(store.range(), Some((2, 5)));
        let got = store.snapshots(0, 10).unwrap();
        assert_eq!(
            got.iter().map(|(iv, _)| *iv).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
    }

    #[test]
    fn spill_and_read_back_is_lossless() {
        let cfg = HiFindConfig::small(6);
        let dir = temp_dir("spill");
        let mut hcfg = HistoryConfig::with_dir(&dir);
        hcfg.hot_capacity = 2;
        hcfg.segment_intervals = 3;
        let store = HistoryStore::open(hcfg, cfg.fingerprint(), None).unwrap();
        let originals: Vec<IntervalSnapshot> = (0..8u64).map(|iv| snapshot_for(&cfg, iv)).collect();
        for (iv, snap) in originals.iter().enumerate() {
            store.append(iv as u64, snap).unwrap();
        }
        store.flush().unwrap();
        let got = store.snapshots(0, 7).unwrap();
        assert_eq!(got.len(), 8, "all intervals retained across tiers");
        for (i, (iv, snap)) in got.iter().enumerate() {
            assert_eq!(*iv, i as u64);
            assert_eq!(snap, &originals[i], "snapshot {i} survives the round trip");
        }
        // A fresh store over the same directory indexes the old segments.
        let reopened =
            HistoryStore::open(HistoryConfig::with_dir(&dir), cfg.fingerprint(), None).unwrap();
        let warm = reopened.snapshots(0, 7).unwrap();
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
        let store = HistoryStore::open(hcfg, cfg.fingerprint(), None).unwrap();
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
        let store = HistoryStore::open(hcfg.clone(), cfg.fingerprint(), None).unwrap();
        for iv in 0..3u64 {
            store.append(iv, &snapshot_for(&cfg, iv)).unwrap();
        }
        store.flush().unwrap();
        let other = HistoryStore::open(hcfg, cfg.fingerprint() ^ 1, None).unwrap();
        let err = other.snapshots(0, 3).unwrap_err();
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
        let store = HistoryStore::open(hcfg, cfg.fingerprint(), None).unwrap();
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
        let err = store.snapshots(0, 3).unwrap_err();
        assert!(matches!(err, HistoryError::Container(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
