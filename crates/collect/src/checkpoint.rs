//! Durable, versioned checkpoints for detection and agent state.
//!
//! A restarted collection site must resume exactly where it stopped:
//! forecaster baselines, flooding persistence streaks, the deduplicated
//! alert log, and the interval counter all survive in a
//! [`hifind::CoreCheckpoint`]. This module gives that state an on-disk
//! form with the same defensive posture as the wire layer ([`crate::wire`]):
//! a magic + version + CRC32 container around a varint payload, every read
//! bounds-checked, every declared size capped before allocation, and every
//! failure a typed [`CheckpointError`] — a torn or corrupted file can never
//! panic the collector, it simply refuses to resume.
//!
//! Files are written atomically (temp file + rename in the target
//! directory), so a crash mid-write leaves the previous checkpoint intact.

use crate::codec::{len_u64, put_u64, put_uvarint, unzigzag, zigzag, Reader};
use crate::wire::{self, crc32};
use crate::CodecError;
use hifind::fp_filter::FloodStreak;
use hifind::report::{Alert, AlertKind};
use hifind::CoreCheckpoint;
use hifind_flow::Ip4;
use hifind_forecast::GridEwmaState;
use std::io::Write;
use std::path::Path;

/// Magic of a detection-core checkpoint file.
pub const CORE_MAGIC: [u8; 4] = *b"HFC1";

/// Magic of a router-agent checkpoint file.
pub const AGENT_MAGIC: [u8; 4] = *b"HFA1";

/// Magic of an interval-history segment file (written by `hifind-obsv`,
/// same container framing as checkpoints).
pub const HISTORY_MAGIC: [u8; 4] = *b"HFH1";

/// Container version of core (`HFC1`) checkpoints, the only container
/// still at version 1.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Container version of history segments (codec-v2 keyframes) and of agent
/// checkpoints, whose backlog entries each carry a codec tag byte that must
/// be [`wire::CODEC_V2`]. A version-1 agent or history file is rejected as
/// [`CheckpointError::Version`].
pub const CHECKPOINT_VERSION_2: u16 = 2;

/// Container header: magic(4) + version(2) + reserved(2) + fingerprint(8)
/// + payload_len(4) + crc32(4).
pub const CONTAINER_HEADER_LEN: usize = 24;

/// Caps on declared element counts, applied before any allocation.
const MAX_FORECASTERS: u64 = 64;
const MAX_GRID_CELLS: u64 = 1 << 24;
const MAX_STREAKS: u64 = 1 << 20;
const MAX_ALERTS: u64 = 1 << 20;
const MAX_BACKLOG_FRAMES: u64 = 1 << 16;
const MAX_FRAME_BYTES: u64 = 1 << 30;

/// Why a checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (open, read, write, rename).
    Io(std::io::Error),
    /// The file does not start with a checkpoint magic.
    Magic([u8; 4]),
    /// The file is a checkpoint of the other kind (core vs. agent).
    WrongKind {
        /// Magic the caller needed.
        expected: [u8; 4],
        /// Magic found in the file.
        got: [u8; 4],
    },
    /// Unsupported container version.
    Version(u16),
    /// The container header declares more payload than the file holds.
    TruncatedContainer {
        /// Bytes the header declared.
        declared: usize,
        /// Bytes actually present after the header.
        got: usize,
    },
    /// The payload CRC32 does not match the header.
    Crc {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload as read.
        got: u32,
    },
    /// A structurally malformed payload (truncation, overflow, caps).
    Payload(CodecError),
    /// A payload field holds a semantically invalid value.
    Invalid {
        /// The field that failed validation.
        at: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// The checkpoint was taken under a different configuration
    /// fingerprint than the caller's.
    FingerprintMismatch {
        /// Fingerprint of the resuming configuration.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        got: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Magic(m) => write!(f, "not a checkpoint file (magic {m:02x?})"),
            CheckpointError::WrongKind { expected, got } => write!(
                f,
                "checkpoint kind mismatch: wanted magic {expected:02x?}, file has {got:02x?}"
            ),
            CheckpointError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::TruncatedContainer { declared, got } => write!(
                f,
                "checkpoint truncated: header declares {declared} payload bytes, file has {got}"
            ),
            CheckpointError::Crc { expected, got } => write!(
                f,
                "checkpoint CRC mismatch: header {expected:#010x}, payload {got:#010x}"
            ),
            CheckpointError::Payload(e) => write!(f, "malformed checkpoint payload: {e}"),
            CheckpointError::Invalid { at, detail } => {
                write!(f, "invalid checkpoint field {at}: {detail}")
            }
            CheckpointError::FingerprintMismatch { expected, got } => write!(
                f,
                "checkpoint fingerprint {got:#018x} does not match configuration {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Payload(e)
    }
}

/// The durable state of one [`crate::RouterAgent`]: identity, interval
/// counter, and the encoded frames still queued for the collector (so a
/// restarted agent re-ships exactly what the dead one still owed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgentCheckpoint {
    /// Record-plane configuration fingerprint the agent recorded under.
    pub fingerprint: u64,
    /// Router id used in frame headers.
    pub router_id: u32,
    /// Intervals ended so far (the next frame's interval index).
    pub interval: u64,
    /// Backlogged wire frames (complete standalone v2 frames, never
    /// deltas), oldest first.
    pub backlog: Vec<Vec<u8>>,
}

impl AgentCheckpoint {
    /// Checks that this checkpoint belongs to the node resuming from it:
    /// taken under configuration `fingerprint`, by node `id` (a router id
    /// or an aggregator node id).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::FingerprintMismatch`] or
    /// [`CheckpointError::Invalid`] naming the id mismatch.
    pub fn validate_for(&self, fingerprint: u64, id: u32) -> Result<(), CheckpointError> {
        if self.fingerprint != fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: fingerprint,
                got: self.fingerprint,
            });
        }
        if self.router_id != id {
            return Err(CheckpointError::Invalid {
                at: "router_id",
                detail: format!(
                    "checkpoint is for node {}, resuming node is configured as {id}",
                    self.router_id
                ),
            });
        }
        Ok(())
    }
}

/// Wraps an encoded payload in the version-1 CRC-checked container of core
/// checkpoints.
pub fn encode_container(magic: [u8; 4], fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    encode_container_versioned(magic, CHECKPOINT_VERSION, fingerprint, payload)
}

/// Like [`encode_container`] with an explicit container version.
pub fn encode_container_versioned(
    magic: [u8; 4],
    version: u16,
    fingerprint: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(CONTAINER_HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    // A checkpoint beyond u32::MAX payload bytes is unconstructible with
    // the in-memory caps above; saturate so the CRC check (over the real
    // payload) still rejects the file instead of truncating silently.
    let payload_len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the container and hands back `(fingerprint, payload)`.
///
/// A magic outside the known container family is [`CheckpointError::Magic`]
/// (not a container at all); a known magic other than `expected_magic` is
/// [`CheckpointError::WrongKind`] (a container of the wrong flavour).
pub fn decode_container(
    expected_magic: [u8; 4],
    bytes: &[u8],
) -> Result<(u64, &[u8]), CheckpointError> {
    let (version, fingerprint, payload) = decode_container_versioned(expected_magic, bytes)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version(version));
    }
    Ok((fingerprint, payload))
}

/// Like [`decode_container`], but accepts any known container version and
/// hands it back for the caller to dispatch on.
pub fn decode_container_versioned(
    expected_magic: [u8; 4],
    bytes: &[u8],
) -> Result<(u16, u64, &[u8]), CheckpointError> {
    let Some(header) = bytes.get(..CONTAINER_HEADER_LEN) else {
        return Err(CheckpointError::TruncatedContainer {
            declared: CONTAINER_HEADER_LEN,
            got: bytes.len(),
        });
    };
    let field = |range: std::ops::Range<usize>| -> &[u8] { &header[range] };
    let magic: [u8; 4] = field(0..4).try_into().unwrap_or([0; 4]);
    if magic != CORE_MAGIC && magic != AGENT_MAGIC && magic != HISTORY_MAGIC {
        return Err(CheckpointError::Magic(magic));
    }
    if magic != expected_magic {
        return Err(CheckpointError::WrongKind {
            expected: expected_magic,
            got: magic,
        });
    }
    let version = u16::from_le_bytes(field(4..6).try_into().unwrap_or([0; 2]));
    if version != CHECKPOINT_VERSION && version != CHECKPOINT_VERSION_2 {
        return Err(CheckpointError::Version(version));
    }
    let fingerprint = u64::from_le_bytes(field(8..16).try_into().unwrap_or([0; 8]));
    let declared = u32::from_le_bytes(field(16..20).try_into().unwrap_or([0; 4]));
    let expected_crc = u32::from_le_bytes(field(20..24).try_into().unwrap_or([0; 4]));
    let payload = &bytes[CONTAINER_HEADER_LEN..];
    let declared_len = usize::try_from(declared).unwrap_or(usize::MAX);
    if payload.len() != declared_len {
        return Err(CheckpointError::TruncatedContainer {
            declared: declared_len,
            got: payload.len(),
        });
    }
    let got_crc = crc32(payload);
    if got_crc != expected_crc {
        return Err(CheckpointError::Crc {
            expected: expected_crc,
            got: got_crc,
        });
    }
    Ok((version, fingerprint, payload))
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Forecaster section flag bits. A checkpoint holds one state vector per
/// grid, the next interval's forecast (`NEXT_FORECAST`); files written
/// before the state was cut to one f64 per cell hold the last observation
/// and, past the first forecast, the last forecast (`LEGACY_*`), which
/// decode folds into the same next forecast.
const FLAG_SHAPE: u64 = 1;
const FLAG_LEGACY_OBSERVED: u64 = 2;
const FLAG_LEGACY_FORECAST: u64 = 4;
const FLAG_NEXT_FORECAST: u64 = 8;

fn encode_forecaster(out: &mut Vec<u8>, state: &GridEwmaState) {
    put_f64(out, state.alpha);
    let mut flags = 0u64;
    if state.shape.is_some() {
        flags |= FLAG_SHAPE;
    }
    if state.next_forecast.is_some() {
        flags |= FLAG_NEXT_FORECAST;
    }
    put_uvarint(out, flags);
    if let Some((stages, buckets)) = state.shape {
        put_uvarint(out, len_u64(stages));
        put_uvarint(out, len_u64(buckets));
    }
    if let Some(vec) = &state.next_forecast {
        put_uvarint(out, len_u64(vec.len()));
        for &v in vec {
            put_f64(out, v);
        }
    }
}

fn decode_f64_vec(r: &mut Reader<'_>, at: &'static str) -> Result<Vec<f64>, CheckpointError> {
    let len = r.uvarint(at)?;
    let len = r.counted(at, len, MAX_GRID_CELLS)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(f64::from_bits(r.u64(at)?));
    }
    Ok(out)
}

fn decode_forecaster(r: &mut Reader<'_>) -> Result<GridEwmaState, CheckpointError> {
    let alpha = f64::from_bits(r.u64("forecaster.alpha")?);
    let flags = r.uvarint("forecaster.flags")?;
    let legacy = flags & (FLAG_LEGACY_OBSERVED | FLAG_LEGACY_FORECAST) != 0;
    if flags > 15 || (legacy && flags & FLAG_NEXT_FORECAST != 0) {
        return Err(CheckpointError::Invalid {
            at: "forecaster.flags",
            detail: format!("unsupported flag bits {flags:#x}"),
        });
    }
    let shape = if flags & FLAG_SHAPE != 0 {
        let stages = r.uvarint("forecaster.shape")?;
        let buckets = r.uvarint("forecaster.shape")?;
        let stages = r.counted("forecaster.shape", stages, MAX_GRID_CELLS)?;
        let buckets = r.counted("forecaster.shape", buckets, MAX_GRID_CELLS)?;
        Some((stages, buckets))
    } else {
        None
    };
    let mut vec = |flag: u64, at: &'static str| {
        (flags & flag != 0)
            .then(|| decode_f64_vec(r, at))
            .transpose()
    };
    let next_forecast = if legacy {
        let observed = vec(FLAG_LEGACY_OBSERVED, "forecaster.prev_observed")?;
        let forecast = vec(FLAG_LEGACY_FORECAST, "forecaster.prev_forecast")?;
        fold_legacy_forecaster(alpha, observed, forecast)?
    } else {
        vec(FLAG_NEXT_FORECAST, "forecaster.next_forecast")?
    };
    Ok(GridEwmaState {
        alpha,
        next_forecast,
        shape,
    })
}

/// The next forecast a two-vector forecaster state would have made:
/// `α·o + (1−α)·f` per cell (the expression and operand order of the
/// forecasting step, so later error grids stay bit-identical), or the last
/// observation itself before the first forecast.
fn fold_legacy_forecaster(
    alpha: f64,
    observed: Option<Vec<f64>>,
    forecast: Option<Vec<f64>>,
) -> Result<Option<Vec<f64>>, CheckpointError> {
    let invalid = |detail: String| CheckpointError::Invalid {
        at: "forecaster.prev_forecast",
        detail,
    };
    match (observed, forecast) {
        (observed, None) => Ok(observed),
        (None, Some(_)) => Err(invalid("forecast state without an observed grid".into())),
        (Some(o), Some(f)) if o.len() != f.len() => Err(invalid(format!(
            "{} forecast cells for {} observed cells",
            f.len(),
            o.len()
        ))),
        (Some(o), Some(f)) => Ok(Some(
            o.iter()
                .zip(&f)
                .map(|(&o, &f)| alpha * o + (1.0 - alpha) * f)
                .collect(),
        )),
    }
}

fn encode_alert(out: &mut Vec<u8>, alert: &Alert) {
    let kind = match alert.kind {
        AlertKind::SynFlooding => 0u8,
        AlertKind::HScan => 1,
        AlertKind::VScan => 2,
    };
    out.push(kind);
    let mut flags = 0u8;
    if alert.sip.is_some() {
        flags |= 1;
    }
    if alert.dip.is_some() {
        flags |= 2;
    }
    if alert.dport.is_some() {
        flags |= 4;
    }
    if alert.attacker_identified {
        flags |= 8;
    }
    out.push(flags);
    if let Some(sip) = alert.sip {
        put_uvarint(out, u64::from(sip.raw()));
    }
    if let Some(dip) = alert.dip {
        put_uvarint(out, u64::from(dip.raw()));
    }
    if let Some(dport) = alert.dport {
        put_uvarint(out, u64::from(dport));
    }
    put_uvarint(out, alert.interval);
    put_uvarint(out, zigzag(alert.magnitude));
}

fn decode_u32_field(r: &mut Reader<'_>, at: &'static str) -> Result<u32, CheckpointError> {
    let v = r.uvarint(at)?;
    u32::try_from(v).map_err(|_| CheckpointError::Invalid {
        at,
        detail: format!("{v} exceeds u32"),
    })
}

fn decode_u16_field(r: &mut Reader<'_>, at: &'static str) -> Result<u16, CheckpointError> {
    let v = r.uvarint(at)?;
    u16::try_from(v).map_err(|_| CheckpointError::Invalid {
        at,
        detail: format!("{v} exceeds u16"),
    })
}

fn decode_alert(r: &mut Reader<'_>) -> Result<Alert, CheckpointError> {
    let kind = match r.uvarint("alert.kind")? {
        0 => AlertKind::SynFlooding,
        1 => AlertKind::HScan,
        2 => AlertKind::VScan,
        other => {
            return Err(CheckpointError::Invalid {
                at: "alert.kind",
                detail: format!("unknown kind tag {other}"),
            })
        }
    };
    let flags = r.uvarint("alert.flags")?;
    if flags > 15 {
        return Err(CheckpointError::Invalid {
            at: "alert.flags",
            detail: format!("unknown flag bits {flags:#x}"),
        });
    }
    let sip = if flags & 1 != 0 {
        Some(Ip4::new(decode_u32_field(r, "alert.sip")?))
    } else {
        None
    };
    let dip = if flags & 2 != 0 {
        Some(Ip4::new(decode_u32_field(r, "alert.dip")?))
    } else {
        None
    };
    let dport = if flags & 4 != 0 {
        Some(decode_u16_field(r, "alert.dport")?)
    } else {
        None
    };
    let interval = r.uvarint("alert.interval")?;
    let magnitude = unzigzag(r.uvarint("alert.magnitude")?);
    Ok(Alert {
        kind,
        sip,
        dip,
        dport,
        interval,
        magnitude,
        attacker_identified: flags & 8 != 0,
    })
}

fn encode_alert_list(out: &mut Vec<u8>, alerts: &[Alert]) {
    put_uvarint(out, len_u64(alerts.len()));
    for a in alerts {
        encode_alert(out, a);
    }
}

fn decode_alert_list(r: &mut Reader<'_>, at: &'static str) -> Result<Vec<Alert>, CheckpointError> {
    let count = r.uvarint(at)?;
    let count = r.counted(at, count, MAX_ALERTS)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_alert(r)?);
    }
    Ok(out)
}

/// Serializes a [`CoreCheckpoint`] into its on-disk byte form (container
/// included).
pub fn encode_core_checkpoint(ckpt: &CoreCheckpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 << 12);
    put_uvarint(&mut payload, ckpt.interval);
    put_uvarint(&mut payload, len_u64(ckpt.forecasters.len()));
    for state in &ckpt.forecasters {
        encode_forecaster(&mut payload, state);
    }
    put_uvarint(&mut payload, len_u64(ckpt.streaks.len()));
    for s in &ckpt.streaks {
        put_uvarint(&mut payload, u64::from(s.dip));
        put_uvarint(&mut payload, u64::from(s.dport));
        put_uvarint(&mut payload, s.last_interval);
        put_uvarint(&mut payload, u64::from(s.count));
    }
    encode_alert_list(&mut payload, &ckpt.raw_alerts);
    encode_alert_list(&mut payload, &ckpt.classified_alerts);
    encode_alert_list(&mut payload, &ckpt.final_alerts);
    encode_container(CORE_MAGIC, ckpt.fingerprint, &payload)
}

/// Parses bytes produced by [`encode_core_checkpoint`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] naming the first container or payload
/// violation; never panics on malformed input.
pub fn decode_core_checkpoint(bytes: &[u8]) -> Result<CoreCheckpoint, CheckpointError> {
    let (fingerprint, payload) = decode_container(CORE_MAGIC, bytes)?;
    let mut r = Reader::new(payload);
    let interval = r.uvarint("interval")?;
    let n_forecasters = r.uvarint("forecasters")?;
    let n_forecasters = r.counted("forecasters", n_forecasters, MAX_FORECASTERS)?;
    let mut forecasters = Vec::with_capacity(n_forecasters);
    for _ in 0..n_forecasters {
        forecasters.push(decode_forecaster(&mut r)?);
    }
    let n_streaks = r.uvarint("streaks")?;
    let n_streaks = r.counted("streaks", n_streaks, MAX_STREAKS)?;
    let mut streaks = Vec::with_capacity(n_streaks);
    for _ in 0..n_streaks {
        let dip = decode_u32_field(&mut r, "streak.dip")?;
        let dport = decode_u16_field(&mut r, "streak.dport")?;
        let last_interval = r.uvarint("streak.last_interval")?;
        let count = decode_u32_field(&mut r, "streak.count")?;
        streaks.push(FloodStreak {
            dip,
            dport,
            last_interval,
            count,
        });
    }
    let raw_alerts = decode_alert_list(&mut r, "raw_alerts")?;
    let classified_alerts = decode_alert_list(&mut r, "classified_alerts")?;
    let final_alerts = decode_alert_list(&mut r, "final_alerts")?;
    r.finish()?;
    Ok(CoreCheckpoint {
        fingerprint,
        interval,
        forecasters,
        streaks,
        raw_alerts,
        classified_alerts,
        final_alerts,
    })
}

/// Serializes an [`AgentCheckpoint`] into its on-disk byte form (a
/// version-2 container; each backlog entry is tagged [`wire::CODEC_V2`]).
pub fn encode_agent_checkpoint(ckpt: &AgentCheckpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 << 10);
    put_uvarint(&mut payload, u64::from(ckpt.router_id));
    put_uvarint(&mut payload, ckpt.interval);
    put_uvarint(&mut payload, len_u64(ckpt.backlog.len()));
    for frame in &ckpt.backlog {
        payload.push(wire::CODEC_V2);
        put_uvarint(&mut payload, len_u64(frame.len()));
        payload.extend_from_slice(frame);
    }
    encode_container_versioned(
        AGENT_MAGIC,
        CHECKPOINT_VERSION_2,
        ckpt.fingerprint,
        &payload,
    )
}

/// Parses bytes produced by [`encode_agent_checkpoint`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] naming the first container or payload
/// violation — a version-1 container or a backlog tag other than
/// [`wire::CODEC_V2`] included; never panics on malformed input.
pub fn decode_agent_checkpoint(bytes: &[u8]) -> Result<AgentCheckpoint, CheckpointError> {
    let (version, fingerprint, payload) = decode_container_versioned(AGENT_MAGIC, bytes)?;
    if version != CHECKPOINT_VERSION_2 {
        return Err(CheckpointError::Version(version));
    }
    let mut r = Reader::new(payload);
    let router_id = decode_u32_field(&mut r, "router_id")?;
    let interval = r.uvarint("interval")?;
    let n_frames = r.uvarint("backlog")?;
    let n_frames = r.counted("backlog", n_frames, MAX_BACKLOG_FRAMES)?;
    let mut backlog = Vec::with_capacity(n_frames);
    for _ in 0..n_frames {
        // One raw byte, as written: a varint spelling such as `0x82 0x00`
        // is an unknown tag, never a valid 2.
        let tag = r.u8("backlog.codec")?;
        if tag != wire::CODEC_V2 {
            return Err(CheckpointError::Invalid {
                at: "backlog.codec",
                detail: format!("unsupported codec tag {tag}"),
            });
        }
        let len = r.uvarint("backlog.frame")?;
        let len = r.counted("backlog.frame", len, MAX_FRAME_BYTES)?;
        let start = r.position();
        r.skip(len, "backlog.frame")?;
        backlog.push(payload[start..r.position()].to_vec());
    }
    r.finish()?;
    Ok(AgentCheckpoint {
        fingerprint,
        router_id,
        interval,
        backlog,
    })
}

/// Atomically writes `bytes` to `path` (temp file in the same directory,
/// then rename), so a crash mid-write can never corrupt an existing
/// checkpoint or history segment.
///
/// # Errors
///
/// Surfaces filesystem failures as [`CheckpointError::Io`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        CheckpointError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "checkpoint path has no file name",
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let mut file = std::fs::File::create(&tmp_path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    match std::fs::rename(&tmp_path, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp_path);
            Err(CheckpointError::Io(e))
        }
    }
}

/// Writes a core checkpoint to `path` atomically.
///
/// # Errors
///
/// Surfaces filesystem failures as [`CheckpointError::Io`].
pub fn write_core_checkpoint(path: &Path, ckpt: &CoreCheckpoint) -> Result<(), CheckpointError> {
    write_atomic(path, &encode_core_checkpoint(ckpt))
}

/// Reads and validates a core checkpoint from `path`.
///
/// # Errors
///
/// Surfaces filesystem failures and every container/payload violation.
pub fn read_core_checkpoint(path: &Path) -> Result<CoreCheckpoint, CheckpointError> {
    decode_core_checkpoint(&std::fs::read(path)?)
}

/// Writes an agent checkpoint to `path` atomically.
///
/// # Errors
///
/// Surfaces filesystem failures as [`CheckpointError::Io`].
pub fn write_agent_checkpoint(path: &Path, ckpt: &AgentCheckpoint) -> Result<(), CheckpointError> {
    write_atomic(path, &encode_agent_checkpoint(ckpt))
}

/// Reads and validates an agent checkpoint from `path`.
///
/// # Errors
///
/// Surfaces filesystem failures and every container/payload violation.
pub fn read_agent_checkpoint(path: &Path) -> Result<AgentCheckpoint, CheckpointError> {
    decode_agent_checkpoint(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::pipeline::DetectionCore;
    use hifind::{HiFindConfig, SketchRecorder};
    use hifind_flow::Packet;

    fn busy_checkpoint() -> (HiFindConfig, CoreCheckpoint) {
        let cfg = HiFindConfig::small(50);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let mut core = DetectionCore::new(cfg).unwrap();
        let victim: hifind_flow::Ip4 = [129, 105, 0, 1].into();
        for iv in 0..4u64 {
            for i in 0..25u32 {
                let c: hifind_flow::Ip4 = [9, 9, 9, (i % 100) as u8].into();
                rec.record(&Packet::syn(iv, c, 4000 + i as u16, victim, 80));
                rec.record(&Packet::syn_ack(iv, c, 4000 + i as u16, victim, 80));
            }
            if iv >= 1 {
                for i in 0..300u32 {
                    rec.record(&Packet::syn(
                        iv,
                        hifind_flow::Ip4::new(0x5000_0000 + i),
                        2000,
                        victim,
                        80,
                    ));
                }
            }
            let snap = rec.take_snapshot();
            core.process_snapshot(&snap);
        }
        (cfg, core.checkpoint())
    }

    #[test]
    fn core_round_trip_is_exact() {
        let (_, ckpt) = busy_checkpoint();
        assert!(!ckpt.forecasters.is_empty());
        let bytes = encode_core_checkpoint(&ckpt);
        let back = decode_core_checkpoint(&bytes).unwrap();
        assert_eq!(back, ckpt);
    }

    #[test]
    fn restored_core_continues_identically() {
        let (cfg, ckpt) = busy_checkpoint();
        let bytes = encode_core_checkpoint(&ckpt);
        let back = decode_core_checkpoint(&bytes).unwrap();
        let core = DetectionCore::restore(cfg, &back).unwrap();
        assert_eq!(core.intervals_processed(), ckpt.interval);
        assert_eq!(core.checkpoint(), ckpt, "checkpoint must be a fixed point");
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (_, ckpt) = busy_checkpoint();
        let bytes = encode_core_checkpoint(&ckpt);
        // ~128 cuts spread over the whole container, plus the edges that
        // matter (empty, header boundary, one byte short). Each cut fails
        // on the declared-length check, so this stays cheap even though
        // the encoded grids run to megabytes.
        let step = (bytes.len() / 128).max(1);
        for cut in (0..bytes.len()).step_by(step).chain([
            0,
            CONTAINER_HEADER_LEN - 1,
            CONTAINER_HEADER_LEN,
            bytes.len() - 1,
        ]) {
            assert!(
                decode_core_checkpoint(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn single_bit_flips_are_rejected() {
        let (_, ckpt) = busy_checkpoint();
        let bytes = encode_core_checkpoint(&ckpt);
        // Every rejection below costs a full-payload CRC pass, so sample
        // ~48 payload positions (first, last, and evenly spread) rather
        // than walking the megabytes of encoded grids byte by byte.
        let payload = CONTAINER_HEADER_LEN..bytes.len();
        let step = (payload.len() / 48).max(1);
        for idx in payload
            .clone()
            .step_by(step)
            .chain([payload.start, payload.end - 1])
        {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x10;
            assert!(
                matches!(
                    decode_core_checkpoint(&bad),
                    Err(CheckpointError::Crc { .. })
                ),
                "flip at {idx} must fail the CRC"
            );
        }
    }

    /// A forecaster state in the two-vector layout checkpoints had before
    /// the state was one f64 per cell: the last observation and, past the
    /// first forecast, the last forecast.
    type LegacyState = (Option<Vec<f64>>, Option<Vec<f64>>);

    /// The two-vector recurrence, stepped by one observed grid.
    fn legacy_step(state: &mut LegacyState, alpha: f64, g: &hifind_sketch::CounterGrid) {
        let observed: Vec<f64> = (0..g.stages())
            .flat_map(|s| g.stage(s).iter().map(|&v| v as f64))
            .collect();
        if let Some(po) = state.0.take() {
            state.1 = Some(match state.1.take() {
                None => po,
                Some(pf) => po
                    .iter()
                    .zip(&pf)
                    .map(|(&o, &f)| alpha * o + (1.0 - alpha) * f)
                    .collect(),
            });
        }
        state.0 = Some(observed);
    }

    /// `ckpt` re-encoded with its forecaster section in the two-vector
    /// layout (flag bits 2 and 4) and everything else as written today.
    fn legacy_core_bytes(ckpt: &CoreCheckpoint, legacy: &[LegacyState]) -> Vec<u8> {
        let current = encode_core_checkpoint(ckpt);
        let mut head = Vec::new();
        put_uvarint(&mut head, ckpt.interval);
        put_uvarint(&mut head, len_u64(ckpt.forecasters.len()));
        let mut old = head.clone();
        for state in &ckpt.forecasters {
            encode_forecaster(&mut head, state);
        }
        for (state, (observed, forecast)) in ckpt.forecasters.iter().zip(legacy) {
            put_f64(&mut old, state.alpha);
            let flags = u8::from(state.shape.is_some())
                | (u8::from(observed.is_some()) << 1)
                | (u8::from(forecast.is_some()) << 2);
            old.push(flags);
            if let Some((stages, buckets)) = state.shape {
                put_uvarint(&mut old, len_u64(stages));
                put_uvarint(&mut old, len_u64(buckets));
            }
            for vec in [observed, forecast].into_iter().flatten() {
                put_uvarint(&mut old, len_u64(vec.len()));
                for &v in vec {
                    put_f64(&mut old, v);
                }
            }
        }
        old.extend_from_slice(&current[CONTAINER_HEADER_LEN + head.len()..]);
        encode_container(CORE_MAGIC, ckpt.fingerprint, &old)
    }

    #[test]
    fn legacy_two_vector_checkpoints_resume_identically() {
        // An α other than ½, so the fold's weights cannot be swapped.
        let cfg = HiFindConfig {
            ewma_alpha: 0.3,
            ..HiFindConfig::small(51)
        };
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let victim: hifind_flow::Ip4 = [129, 105, 0, 7].into();
        let snaps: Vec<_> = (0..7u64)
            .map(|iv| {
                for i in 0..25u32 {
                    let c: hifind_flow::Ip4 = [9, 9, 9, (i % 100) as u8].into();
                    rec.record(&Packet::syn(iv, c, 4000 + i as u16, victim, 80));
                    rec.record(&Packet::syn_ack(iv, c, 4000 + i as u16, victim, 80));
                }
                // Unanswered SYNs that change every interval, so the last
                // observation and the last forecast differ in the cells
                // they touch.
                for i in 0..(5 + 7 * iv as u32) {
                    let c: hifind_flow::Ip4 = [8, 8, (iv % 3) as u8, i as u8].into();
                    rec.record(&Packet::syn(iv, c, 3000, victim, 25));
                }
                for i in 0..(if iv >= 4 { 300u32 } else { 0 }) {
                    let src = hifind_flow::Ip4::new(0x5000_0000 + i);
                    rec.record(&Packet::syn(iv, src, 2000, victim, 443));
                }
                rec.take_snapshot()
            })
            .collect();
        // Cut after the warm-up interval (observation only) and after two
        // forecasts (observation and forecast).
        for cut in [1, 3] {
            let mut uninterrupted = DetectionCore::new(cfg).unwrap();
            let mut legacy: [LegacyState; 6] = Default::default();
            for snap in &snaps[..cut] {
                uninterrupted.process_snapshot(snap);
                for (state, g) in legacy.iter_mut().zip(snap.grids()) {
                    legacy_step(state, cfg.ewma_alpha, g);
                }
            }
            let ckpt = uninterrupted.checkpoint();
            let bytes = legacy_core_bytes(&ckpt, &legacy);
            let back = decode_core_checkpoint(&bytes).unwrap();
            assert_eq!(back, ckpt, "cut {cut}: the fold is today's next forecast");
            let mut resumed = DetectionCore::restore(cfg, &back).unwrap();
            for snap in &snaps[cut..] {
                let (a, b) = (
                    uninterrupted.process_snapshot(snap),
                    resumed.process_snapshot(snap),
                );
                assert_eq!((a.raw, a.classified, a.fin), (b.raw, b.classified, b.fin));
            }
            assert!(!resumed.log().alerts(hifind::report::Phase::Raw).is_empty());
            assert_eq!(resumed.checkpoint(), uninterrupted.checkpoint());
        }
    }

    #[test]
    fn mixed_forecaster_layouts_are_rejected() {
        let (_, ckpt) = busy_checkpoint();
        let mut payload = Vec::new();
        put_uvarint(&mut payload, ckpt.interval);
        put_uvarint(&mut payload, 1);
        put_f64(&mut payload, 0.5);
        put_uvarint(&mut payload, FLAG_LEGACY_OBSERVED | FLAG_NEXT_FORECAST);
        let bytes = encode_container(CORE_MAGIC, ckpt.fingerprint, &payload);
        assert!(matches!(
            decode_core_checkpoint(&bytes),
            Err(CheckpointError::Invalid {
                at: "forecaster.flags",
                ..
            })
        ));
    }

    #[test]
    fn kind_confusion_is_rejected() {
        let (_, ckpt) = busy_checkpoint();
        let bytes = encode_core_checkpoint(&ckpt);
        assert!(matches!(
            decode_agent_checkpoint(&bytes),
            Err(CheckpointError::WrongKind { .. })
        ));
        assert!(matches!(
            decode_core_checkpoint(b"nope"),
            Err(CheckpointError::TruncatedContainer { .. })
        ));
    }

    #[test]
    fn agent_round_trip_preserves_backlog() {
        let ckpt = AgentCheckpoint {
            fingerprint: 0xFEED,
            router_id: 7,
            interval: 42,
            backlog: vec![vec![1, 2, 3], vec![], vec![0xFF; 300]],
        };
        let bytes = encode_agent_checkpoint(&ckpt);
        assert_eq!(decode_agent_checkpoint(&bytes).unwrap(), ckpt);
    }

    /// An agent payload (router 1, interval 1) of one backlog entry: the
    /// raw `tag` bytes, then a one-byte frame.
    fn agent_payload(tag: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        put_uvarint(&mut payload, 1); // router_id
        put_uvarint(&mut payload, 1); // interval
        put_uvarint(&mut payload, 1); // backlog count
        payload.extend_from_slice(tag);
        payload.extend_from_slice(&[1, 1]); // frame length, frame
        payload
    }

    /// Codec v1 is retired from agent checkpoints: a version-1 container
    /// (untagged dense frames) and a version-2 entry tagged `1` are both
    /// typed errors, never a backlog to re-ship.
    #[test]
    fn legacy_v1_agent_checkpoints_are_typed_errors() {
        let mut payload = Vec::new();
        put_uvarint(&mut payload, 7); // router_id
        put_uvarint(&mut payload, 42); // interval
        put_uvarint(&mut payload, 1); // backlog count
        put_uvarint(&mut payload, 3); // frame length
        payload.extend_from_slice(&[9, 9, 9]);
        let version_1 = encode_container(AGENT_MAGIC, 0xFEED, &payload);
        assert!(matches!(
            decode_agent_checkpoint(&version_1),
            Err(CheckpointError::Version(1))
        ));
        let tagged_v1 =
            encode_container_versioned(AGENT_MAGIC, CHECKPOINT_VERSION_2, 1, &agent_payload(&[1]));
        assert!(matches!(
            decode_agent_checkpoint(&tagged_v1),
            Err(CheckpointError::Invalid {
                at: "backlog.codec",
                ..
            })
        ));
    }

    #[test]
    fn unknown_backlog_codec_tag_is_rejected() {
        // A tag is one raw byte: the varint spelling `0x82 0x00` of 2 is
        // tag 0x82, not a v2 frame.
        for tag in [&[9u8][..], &[0x82, 0x00]] {
            let bytes = encode_container_versioned(
                AGENT_MAGIC,
                CHECKPOINT_VERSION_2,
                1,
                &agent_payload(tag),
            );
            assert!(matches!(
                decode_agent_checkpoint(&bytes),
                Err(CheckpointError::Invalid {
                    at: "backlog.codec",
                    ..
                })
            ));
        }
    }

    #[test]
    fn file_round_trip_and_atomic_overwrite() {
        let (_, ckpt) = busy_checkpoint();
        let dir = std::env::temp_dir().join("hifind_ckpt_test_file_rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("core.ckpt");
        write_core_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(read_core_checkpoint(&path).unwrap(), ckpt);
        // Overwriting in place must go through the temp file.
        write_core_checkpoint(&path, &ckpt).unwrap();
        assert_eq!(read_core_checkpoint(&path).unwrap(), ckpt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let (_, ckpt) = busy_checkpoint();
        let mut bytes = encode_core_checkpoint(&ckpt);
        bytes[4] = 99;
        assert!(matches!(
            decode_core_checkpoint(&bytes),
            Err(CheckpointError::Version(99))
        ));
    }
}
