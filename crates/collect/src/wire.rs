//! Versioned, length-prefixed, CRC-checked snapshot framing.
//!
//! Every frame a router ships is:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "HFS1"
//!      4     2  protocol version (little-endian, 2)
//!      6     1  codec id (2)
//!      7     1  reserved, must be zero
//!      8     4  router id
//!     12     8  interval index
//!     20     8  record-plane configuration fingerprint
//!     28     4  payload length in bytes
//!     32     4  CRC32 (IEEE) over the payload
//!     36     …  payload: [`crate::codec_v2`]
//! ```
//!
//! The fingerprint ([`hifind::HiFindConfig::fingerprint`]) rides in the
//! header so a collector can reject a mis-configured router from the
//! first 36 bytes, without decoding (or even receiving) megabytes of
//! counters recorded under the wrong hash functions.
//!
//! Version 2 is the only version a node sends or accepts; a version-1
//! header (the retired dense codec) is [`WireError::UnsupportedVersion`].
//! Sessions additionally exchange three fixed control messages: the
//! sender's `HFSH` hello offering codec v2, the receiver's `HFSA` accept,
//! and per-interval `HFKA` acks that gate the sender's delta chain (see
//! [`crate::codec_v2`]).

use crate::codec::CodecError;
use crate::codec_v2::{ChainStore, FrameRuns};
use hifind::{IntervalSnapshot, SnapshotShape};

/// Frame magic: HiFIND Snapshot, format 1.
pub const MAGIC: [u8; 4] = *b"HFS1";

/// Protocol version carrying codec-v2 payloads, the only one accepted.
pub const PROTOCOL_VERSION_2: u16 = 2;

/// Codec id of the sparse/delta v2 encoding ([`crate::codec_v2`]).
pub const CODEC_V2: u8 = 2;

/// Hello magic: HiFIND Snapshot Hello (agent → collector, once per
/// connection, before any frame).
pub const HELLO_MAGIC: [u8; 4] = *b"HFSH";

/// Accept magic: HiFIND Snapshot Accept (collector → agent, the reply to
/// a hello).
pub const ACCEPT_MAGIC: [u8; 4] = *b"HFSA";

/// Ack magic: HiFIND frame acKnowledgement (collector → agent, one per
/// decoded interval on v2 sessions).
pub const ACK_MAGIC: [u8; 4] = *b"HFKA";

/// Size of an encoded accept message.
pub const ACCEPT_LEN: usize = 8;

/// Size of an encoded ack message.
pub const ACK_LEN: usize = 12;

/// Hello framing overhead (magic + version + count + trailing CRC);
/// the full message is this plus one byte per advertised codec.
pub const HELLO_BASE_LEN: usize = 12;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 36;

/// Default cap on a single frame's payload (64 MiB — a paper-config
/// snapshot encodes to a small fraction of this).
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 << 20;

/// A parsed frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sender's router id.
    pub router_id: u32,
    /// Interval index the payload snapshot covers.
    pub interval: u64,
    /// Record-plane configuration fingerprint of the sender.
    pub fingerprint: u64,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// CRC32 (IEEE) of the payload.
    pub crc32: u32,
}

impl FrameHeader {
    /// The declared payload length as an index type.
    ///
    /// # Errors
    ///
    /// [`WireError::PayloadTooLarge`] on targets whose `usize` cannot
    /// hold the 32-bit length (checked, never truncated).
    pub fn payload_len_usize(&self) -> Result<usize, WireError> {
        usize::try_from(self.payload_len).map_err(|_| WireError::PayloadTooLarge {
            len: self.payload_len,
            max: u32::MAX,
        })
    }
}

/// A malformed or unacceptable frame.
#[derive(Debug)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// A protocol version this build does not speak.
    UnsupportedVersion(u16),
    /// A header whose reserved byte was not zero (reported with the codec
    /// byte as one little-endian `u16`), rejected so garbage there can
    /// never round-trip as a valid frame.
    ReservedBytes(u16),
    /// A header naming a codec this build does not implement.
    UnknownCodec(u8),
    /// A malformed hello/accept/ack control message.
    BadControl { at: &'static str },
    /// The header declares a payload beyond the configured cap.
    PayloadTooLarge { len: u32, max: u32 },
    /// A snapshot too large to frame at all (payload length must fit the
    /// header's 32-bit length field).
    OversizedSnapshot { len: usize },
    /// The stream ended mid-frame.
    TruncatedFrame { expected: usize, got: usize },
    /// Payload bytes do not match the header CRC.
    CrcMismatch { expected: u32, got: u32 },
    /// The header fingerprint disagrees with the payload's own.
    FingerprintMismatch { header: u64, payload: u64 },
    /// The payload failed to decode.
    Codec(CodecError),
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} \
                     (this build accepts version {PROTOCOL_VERSION_2})"
                )
            }
            WireError::ReservedBytes(v) => {
                write!(f, "reserved header byte must be zero, got {v:#06x}")
            }
            WireError::UnknownCodec(c) => write!(f, "unknown codec id {c}"),
            WireError::BadControl { at } => write!(f, "malformed control message: {at}"),
            WireError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds cap of {max}")
            }
            WireError::OversizedSnapshot { len } => {
                write!(
                    f,
                    "snapshot encodes to {len} bytes, beyond the u32 length field"
                )
            }
            WireError::TruncatedFrame { expected, got } => {
                write!(f, "stream ended mid-frame ({got}/{expected} bytes)")
            }
            WireError::CrcMismatch { expected, got } => {
                write!(f, "payload CRC {got:#010x} != header CRC {expected:#010x}")
            }
            WireError::FingerprintMismatch { header, payload } => write!(
                f,
                "header fingerprint {header:#018x} != payload fingerprint {payload:#018x}"
            ),
            WireError::Codec(e) => write!(f, "payload codec: {e}"),
            WireError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        // lint: allow(truncating-cast, const-eval table build — `try_from` is not const; i < 256 fits u32 exactly)
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        // The index is the low byte of the XOR — a value-preserving
        // extraction, not a truncating cast.
        crc = (crc >> 8) ^ CRC_TABLE[usize::from((crc ^ u32::from(b)).to_le_bytes()[0])];
    }
    !crc
}

/// Encodes an already-serialized [`crate::codec_v2`] payload as one
/// complete version-2 frame. The payload's keyframe/delta nature lives
/// in its own flag byte; the header only names the codec.
///
/// # Errors
///
/// [`WireError::OversizedSnapshot`] when the payload cannot be described
/// by the header's 32-bit length field.
pub fn encode_frame_v2(
    router_id: u32,
    interval: u64,
    fingerprint: u64,
    payload: &[u8],
) -> Result<Vec<u8>, WireError> {
    let payload_len = u32::try_from(payload.len())
        .map_err(|_| WireError::OversizedSnapshot { len: payload.len() })?;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION_2.to_le_bytes());
    frame.push(CODEC_V2);
    frame.push(0u8);
    frame.extend_from_slice(&router_id.to_le_bytes());
    frame.extend_from_slice(&interval.to_le_bytes());
    frame.extend_from_slice(&fingerprint.to_le_bytes());
    frame.extend_from_slice(&payload_len.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Encodes the agent hello advertising `codecs` (in preference order).
///
/// Layout: `"HFSH"` · version `u16` (1) · count `u16` · count × codec
/// byte · CRC32 over everything before it.
pub fn encode_hello(codecs: &[u8]) -> Vec<u8> {
    let count = u16::try_from(codecs.len()).unwrap_or(u16::MAX);
    let codecs = &codecs[..usize::from(count)];
    let mut msg = Vec::with_capacity(HELLO_BASE_LEN + codecs.len());
    msg.extend_from_slice(&HELLO_MAGIC);
    msg.extend_from_slice(&1u16.to_le_bytes());
    msg.extend_from_slice(&count.to_le_bytes());
    msg.extend_from_slice(codecs);
    let crc = crc32(&msg);
    msg.extend_from_slice(&crc.to_le_bytes());
    msg
}

/// Parses a complete hello message into its advertised codec list.
///
/// # Errors
///
/// [`WireError::BadControl`] for wrong magic/version/length and
/// [`WireError::CrcMismatch`] for a corrupted body.
pub fn parse_hello(msg: &[u8]) -> Result<Vec<u8>, WireError> {
    if msg.len() < HELLO_BASE_LEN || msg[..4] != HELLO_MAGIC {
        return Err(WireError::BadControl { at: "hello header" });
    }
    if u16::from_le_bytes([msg[4], msg[5]]) != 1 {
        return Err(WireError::BadControl {
            at: "hello version",
        });
    }
    let count = usize::from(u16::from_le_bytes([msg[6], msg[7]]));
    if msg.len() != HELLO_BASE_LEN + count {
        return Err(WireError::BadControl { at: "hello length" });
    }
    let body = &msg[..HELLO_BASE_LEN + count - 4];
    let expected = u32::from_le_bytes([
        msg[msg.len() - 4],
        msg[msg.len() - 3],
        msg[msg.len() - 2],
        msg[msg.len() - 1],
    ]);
    let got = crc32(body);
    if got != expected {
        return Err(WireError::CrcMismatch { expected, got });
    }
    Ok(msg[8..8 + count].to_vec())
}

/// Encodes the collector's accept naming the chosen codec.
pub fn encode_accept(codec: u8) -> [u8; ACCEPT_LEN] {
    let mut msg = [0u8; ACCEPT_LEN];
    msg[..4].copy_from_slice(&ACCEPT_MAGIC);
    msg[4] = codec;
    msg
}

/// Parses an accept message into the chosen codec id.
///
/// # Errors
///
/// [`WireError::BadControl`] for wrong magic or non-zero padding.
pub fn parse_accept(msg: &[u8; ACCEPT_LEN]) -> Result<u8, WireError> {
    if msg[..4] != ACCEPT_MAGIC {
        return Err(WireError::BadControl { at: "accept magic" });
    }
    if msg[5..] != [0, 0, 0] {
        return Err(WireError::BadControl {
            at: "accept padding",
        });
    }
    Ok(msg[4])
}

/// Encodes the collector's per-interval ack.
pub fn encode_ack(interval: u64) -> [u8; ACK_LEN] {
    let mut msg = [0u8; ACK_LEN];
    msg[..4].copy_from_slice(&ACK_MAGIC);
    msg[4..].copy_from_slice(&interval.to_le_bytes());
    msg
}

/// Parses an ack message into the acknowledged interval.
///
/// # Errors
///
/// [`WireError::BadControl`] for wrong magic.
pub fn parse_ack(msg: &[u8; ACK_LEN]) -> Result<u64, WireError> {
    if msg[..4] != ACK_MAGIC {
        return Err(WireError::BadControl { at: "ack magic" });
    }
    Ok(u64::from_le_bytes([
        msg[4], msg[5], msg[6], msg[7], msg[8], msg[9], msg[10], msg[11],
    ]))
}

/// Little-endian field readers over the fixed-size header. Building the
/// arrays element-wise keeps every read panic-free by construction (the
/// offsets are compile-visible constants within `HEADER_LEN`).
fn le_u16(b: &[u8; HEADER_LEN], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn le_u32(b: &[u8; HEADER_LEN], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn le_u64(b: &[u8; HEADER_LEN], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Parses and validates a frame header.
///
/// # Errors
///
/// Rejects wrong magic, any version but [`PROTOCOL_VERSION_2`] (a
/// version-1 header included), a non-zero reserved byte, an unknown codec
/// id, and payloads beyond `max_payload`.
pub fn parse_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<FrameHeader, WireError> {
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = le_u16(bytes, 4);
    if version != PROTOCOL_VERSION_2 {
        return Err(WireError::UnsupportedVersion(version));
    }
    if bytes[7] != 0 {
        return Err(WireError::ReservedBytes(le_u16(bytes, 6)));
    }
    if bytes[6] != CODEC_V2 {
        return Err(WireError::UnknownCodec(bytes[6]));
    }
    let payload_len = le_u32(bytes, 28);
    if payload_len > max_payload {
        return Err(WireError::PayloadTooLarge {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok(FrameHeader {
        router_id: le_u32(bytes, 8),
        interval: le_u64(bytes, 12),
        fingerprint: le_u64(bytes, 20),
        payload_len,
        crc32: le_u32(bytes, 32),
    })
}

/// The payload's length and CRC checks against its header.
fn check_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), WireError> {
    let expected = header.payload_len_usize()?;
    if payload.len() != expected {
        return Err(WireError::TruncatedFrame {
            expected,
            got: payload.len(),
        });
    }
    let got = crc32(payload);
    if got != header.crc32 {
        return Err(WireError::CrcMismatch {
            expected: header.crc32,
            got,
        });
    }
    Ok(())
}

/// Validates and decodes a version-2 payload through the receiver's
/// delta chain state. Returns the snapshot and whether the wire form was
/// a delta.
///
/// # Errors
///
/// Every corruption mode maps to a typed error: CRC/length violations to
/// their [`WireError`] variants, structural ones to
/// [`WireError::Codec`] — including a
/// [`CodecError::DeltaBaselineMissing`] chain break.
pub fn decode_payload_v2(
    header: &FrameHeader,
    payload: &[u8],
    chains: &mut ChainStore,
) -> Result<(IntervalSnapshot, bool), WireError> {
    let (frame, delta) = parse_payload(header, payload, chains, None)?;
    Ok((frame.into_snapshot(), delta))
}

/// Checks one frame's payload whole — against the receiving node's own
/// `shape` too, when given — and parses it into runs, returned with
/// whether the wire form was a delta. Only a frame that passed every
/// check becomes a delta baseline in `chains`.
///
/// # Errors
///
/// As [`decode_payload_v2`]; for another node's frame, a fingerprint or
/// [`CodecError::ShapeMismatch`].
pub fn parse_payload(
    header: &FrameHeader,
    payload: &[u8],
    chains: &mut ChainStore,
    shape: Option<&SnapshotShape>,
) -> Result<(FrameRuns, bool), WireError> {
    if let Some(node) = shape {
        agree(node.fingerprint, header.fingerprint)?;
    }
    check_payload(header, payload)?;
    let (frame, delta) = chains.parse(header.router_id, header.interval, payload, shape)?;
    agree(header.fingerprint, frame.fingerprint)?;
    chains.retain(header.router_id, header.interval, &frame);
    Ok((frame, delta))
}

/// The fingerprint cross-check: `payload` must be `header`.
fn agree(header: u64, payload: u64) -> Result<(), WireError> {
    let mismatch = WireError::FingerprintMismatch { header, payload };
    (payload == header).then_some(()).ok_or(mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::{HiFindConfig, SketchRecorder};
    use hifind_flow::Packet;

    fn snapshot(seed: u64) -> IntervalSnapshot {
        let cfg = HiFindConfig::small(seed);
        let mut r = SketchRecorder::new(&cfg).unwrap();
        for i in 0..100u32 {
            r.record(&Packet::syn(
                u64::from(i),
                [10, 0, 0, i as u8].into(),
                2000,
                [129, 105, 0, 1].into(),
                80,
            ));
        }
        r.take_snapshot()
    }

    /// `snap` as one complete keyframe frame from `router_id`.
    fn frame_of(router_id: u32, interval: u64, snap: &IntervalSnapshot) -> Vec<u8> {
        let payload = crate::codec_v2::encode_keyframe(snap);
        encode_frame_v2(router_id, interval, snap.fingerprint, &payload).unwrap()
    }

    /// Parses `frame`'s header, then decodes its payload into a fresh
    /// chain store.
    fn decode(
        frame: &[u8],
        max_payload: u32,
    ) -> Result<(FrameHeader, IntervalSnapshot), WireError> {
        let mut bytes = [0u8; HEADER_LEN];
        bytes.copy_from_slice(&frame[..HEADER_LEN]);
        let header = parse_header(&bytes, max_payload)?;
        let (snap, _) = decode_payload_v2(&header, &frame[HEADER_LEN..], &mut ChainStore::new())?;
        Ok((header, snap))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupt_payload_is_a_crc_error() {
        let mut frame = frame_of(1, 0, &snapshot(4));
        let last = frame.len() - 1;
        frame[last] ^= 0xFF;
        let err = decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(matches!(err, WireError::CrcMismatch { .. }), "{err}");
    }

    /// A version-1 header — the retired dense codec — is an unsupported
    /// version like any other, never a frame.
    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let snap = snapshot(5);
        let mut frame = frame_of(1, 0, &snap);
        frame[0] = b'X';
        assert!(matches!(
            decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            WireError::BadMagic(_)
        ));
        for version in [1u8, 99] {
            let mut frame = frame_of(1, 0, &snap);
            frame[4] = version;
            let err = decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(
                matches!(err, WireError::UnsupportedVersion(v) if v == u16::from(version)),
                "{err}"
            );
            assert_eq!(
                err.to_string(),
                format!("unsupported protocol version {version} (this build accepts version 2)")
            );
        }
    }

    /// A frame cut anywhere inside its payload is a typed truncation,
    /// never a shorter frame that decodes.
    #[test]
    fn truncated_frame_is_not_a_clean_eof() {
        let frame = frame_of(1, 0, &snapshot(6));
        for cut in [HEADER_LEN, HEADER_LEN + 10, frame.len() - 1] {
            let err = decode(&frame[..cut], DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(matches!(err, WireError::TruncatedFrame { .. }), "cut {cut}");
        }
    }

    #[test]
    fn oversized_payload_rejected_from_header_alone() {
        let frame = frame_of(1, 0, &snapshot(8));
        let err = decode(&frame, 16).unwrap_err();
        assert!(matches!(
            err,
            WireError::PayloadTooLarge { len: _, max: 16 }
        ));
    }

    #[test]
    fn v2_frame_round_trips_through_a_chain_store() {
        let snap = snapshot(12);
        let frame = frame_of(7, 42, &snap);
        let (header, back) = decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(header.router_id, 7);
        assert_eq!(header.interval, 42);
        assert_eq!(header.fingerprint, snap.fingerprint);
        assert_eq!(
            header.payload_len_usize().unwrap(),
            frame.len() - HEADER_LEN
        );
        assert_eq!(back, snap);
    }

    /// Regression: a keyframe whose header fingerprint disagreed with its
    /// payload's was retained as a delta baseline before the cross-check
    /// rejected it, so a delta chained off a frame nobody accepted.
    /// Frames back to back on one stream read back whole through
    /// `std::io::Read`, header then payload, and consume it exactly.
    #[test]
    fn frame_round_trips_through_a_reader() {
        let snaps = [snapshot(3), snapshot(10)];
        let stream: Vec<u8> = snaps
            .iter()
            .enumerate()
            .flat_map(|(i, s)| frame_of(7, 42 + i as u64, s))
            .collect();
        let mut cursor = &stream[..];
        let mut chains = ChainStore::new();
        for (i, snap) in snaps.iter().enumerate() {
            let mut bytes = [0u8; HEADER_LEN];
            std::io::Read::read_exact(&mut cursor, &mut bytes).unwrap();
            let header = parse_header(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
            let mut payload = vec![0u8; header.payload_len_usize().unwrap()];
            std::io::Read::read_exact(&mut cursor, &mut payload).unwrap();
            assert_eq!(header.router_id, 7);
            assert_eq!(header.interval, 42 + i as u64);
            assert_eq!(header.fingerprint, snap.fingerprint);
            let (back, delta) = decode_payload_v2(&header, &payload, &mut chains).unwrap();
            assert_eq!(&back, snap);
            assert!(!delta);
        }
        // And the stream is exactly consumed: next read is a clean EOF.
        assert!(cursor.is_empty());
    }

    /// A version-1 header carries its reserved bytes where version 2
    /// carries the codec id; whatever they hold, it is refused by its
    /// version before any other byte is read.
    #[test]
    fn nonzero_reserved_bytes_are_rejected_in_v1() {
        let good = frame_of(1, 0, &snapshot(11));
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&good[..HEADER_LEN]);
        header[4] = 1;
        for (at, value) in [(6, 0xAB), (7, 1), (6, 0)] {
            let mut bad = header;
            bad[6] = 0;
            bad[at] = value;
            let err = parse_header(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err();
            assert!(matches!(err, WireError::UnsupportedVersion(1)), "{err}");
        }
    }

    #[test]
    fn a_rejected_frame_never_becomes_a_delta_baseline() {
        let snap = snapshot(14);
        let payload = crate::codec_v2::encode_keyframe(&snap);
        let header_of = |frame: &[u8]| {
            let mut bytes = [0u8; HEADER_LEN];
            bytes.copy_from_slice(&frame[..HEADER_LEN]);
            parse_header(&bytes, DEFAULT_MAX_PAYLOAD).unwrap()
        };
        let mut chains = ChainStore::new();
        let forged = encode_frame_v2(7, 0, snap.fingerprint ^ 1, &payload).unwrap();
        assert!(matches!(
            decode_payload_v2(&header_of(&forged), &forged[HEADER_LEN..], &mut chains),
            Err(WireError::FingerprintMismatch { .. })
        ));
        let delta = crate::codec_v2::encode_delta(&snap, &snap, 0).unwrap();
        let frame = encode_frame_v2(7, 1, snap.fingerprint, &delta).unwrap();
        assert!(matches!(
            decode_payload_v2(&header_of(&frame), &frame[HEADER_LEN..], &mut chains),
            Err(WireError::Codec(CodecError::DeltaBaselineMissing {
                baseline: 0
            }))
        ));
    }

    #[test]
    fn v2_header_with_unknown_codec_or_padding_is_rejected() {
        let good = frame_of(1, 0, &snapshot(13));
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&good[..HEADER_LEN]);
        let mut bad = header;
        bad[6] = 9;
        assert!(matches!(
            parse_header(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            WireError::UnknownCodec(9)
        ));
        let mut bad = header;
        bad[7] = 1;
        assert!(matches!(
            parse_header(&bad, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            WireError::ReservedBytes(0x0102)
        ));
    }

    #[test]
    fn control_messages_round_trip_and_reject_corruption() {
        let hello = encode_hello(&[CODEC_V2, 1]);
        assert_eq!(hello.len(), HELLO_BASE_LEN + 2);
        assert_eq!(parse_hello(&hello).unwrap(), vec![CODEC_V2, 1]);
        let mut bad = hello.clone();
        bad[9] ^= 0x10;
        assert!(matches!(
            parse_hello(&bad).unwrap_err(),
            WireError::CrcMismatch { .. }
        ));
        assert!(parse_hello(&hello[..HELLO_BASE_LEN + 1]).is_err());
        assert!(parse_hello(b"HFSAxxxxxxxx").is_err());

        let accept = encode_accept(CODEC_V2);
        assert_eq!(parse_accept(&accept).unwrap(), CODEC_V2);
        let mut bad = accept;
        bad[6] = 1;
        assert!(parse_accept(&bad).is_err());

        let ack = encode_ack(0xDEAD_BEEF_0042);
        assert_eq!(parse_ack(&ack).unwrap(), 0xDEAD_BEEF_0042);
        let mut bad = ack;
        bad[0] = b'X';
        assert!(parse_ack(&bad).is_err());
    }

    #[test]
    fn header_payload_fingerprint_cross_check() {
        // Tamper with the header fingerprint and fix up nothing else: the
        // CRC still passes (it covers only the payload), so the
        // cross-check is what catches it.
        let mut frame = frame_of(1, 0, &snapshot(9));
        frame[20] ^= 0xFF;
        let err = decode(&frame, DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert!(
            matches!(err, WireError::FingerprintMismatch { .. }),
            "{err}"
        );
    }
}
