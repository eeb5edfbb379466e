//! Compact binary encoding of [`IntervalSnapshot`] — the dense codec v1.
//!
//! No node sends or accepts it (the wire and agent checkpoints carry only
//! [`crate::codec_v2`]); it stays a library format, the dense baseline
//! that encoded sizes are measured against.
//!
//! Sketch grids are overwhelmingly zero outside attack hot spots, so
//! counters are written as zig-zag LEB128 varints: a zero bucket costs one
//! byte instead of eight, shrinking a paper-config snapshot well below its
//! in-memory size. Bloom filter words and hash seeds are high-entropy and
//! are written as raw little-endian `u64`s.
//!
//! The decoder is built for untrusted input: every read is bounds-checked,
//! declared sizes are capped before allocation, and all failures are typed
//! [`CodecError`]s — malformed bytes can never panic or exhaust memory.

use crate::codec_v2::{self, GridRuns};
use hifind::IntervalSnapshot;
use hifind_sketch::CounterGrid;

/// Upper bound on `stages × buckets` of a single decoded grid (16 Mi
/// counters = 128 MiB); rejects absurd declared shapes before allocating.
pub(crate) const MAX_GRID_CELLS: u64 = 1 << 24;

/// Upper bound on decoded Bloom filter words (8 Mi words = 64 MiB).
pub(crate) const MAX_BLOOM_WORDS: u64 = 1 << 23;

/// Upper bound on decoded Bloom hash seeds.
pub(crate) const MAX_BLOOM_SEEDS: u64 = 64;

/// A malformed snapshot payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended inside the named field.
    Truncated { at: &'static str },
    /// A varint ran past 10 bytes (cannot be a `u64`).
    VarintOverflow { at: &'static str },
    /// Bytes remained after the last field.
    TrailingBytes { extra: usize },
    /// A declared element count exceeds its sanity cap.
    Oversized {
        at: &'static str,
        declared: u64,
        max: u64,
    },
    /// A decoded grid violated [`CounterGrid`] invariants.
    Grid { which: &'static str, detail: String },
    /// The decoded Bloom filter parts violated
    /// [`hifind_hashing::BloomFilter`] invariants.
    Bloom(String),
    /// A v2 payload's flag byte was not zero (a keyframe's). Bit 0 once
    /// marked a delta frame, which no build sends or accepts any more.
    BadFlags { flags: u64 },
    /// A payload declares a shape (grid dimensions, Bloom geometry or
    /// seeds, fingerprint) other than the receiving node's own.
    ShapeMismatch { at: &'static str },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "payload truncated at {at}"),
            CodecError::VarintOverflow { at } => write!(f, "varint overflow at {at}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after snapshot")
            }
            CodecError::Oversized { at, declared, max } => {
                write!(f, "{at} declares {declared} elements (cap {max})")
            }
            CodecError::Grid { which, detail } => write!(f, "grid {which}: {detail}"),
            CodecError::Bloom(detail) => write!(f, "bloom filter: {detail}"),
            CodecError::BadFlags { flags } => {
                write!(f, "unknown payload flag bits {flags:#x}")
            }
            CodecError::ShapeMismatch { at } => {
                write!(f, "payload {at} shape differs from the receiver's")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bit-level `i64` ↔ `u64` reinterpretation (two's complement). Spelled
/// through byte arrays rather than `as` so the wire-boundary cast lint
/// can guarantee no *truncating* conversion hides among reinterprets.
fn i64_bits(v: i64) -> u64 {
    u64::from_le_bytes(v.to_le_bytes())
}

fn u64_bits(u: u64) -> i64 {
    i64::from_le_bytes(u.to_le_bytes())
}

pub(crate) fn zigzag(v: i64) -> u64 {
    i64_bits((v << 1) ^ (v >> 63))
}

pub(crate) fn unzigzag(u: u64) -> i64 {
    u64_bits(u >> 1) ^ -u64_bits(u & 1)
}

/// The low byte of `v` — an extraction, not a truncating cast.
fn low_byte(v: u64) -> u8 {
    v.to_le_bytes()[0]
}

pub(crate) fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(low_byte(v) | 0x80);
        v >>= 7;
    }
    out.push(low_byte(v));
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked cursor over the payload.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Advances past `n` bytes the caller already sliced out directly.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain — a
    /// short payload must surface as an error at the field that ran out,
    /// never silently masquerade as fully consumed (clamping to the
    /// buffer end would make the final trailing-bytes check pass on a
    /// truncated payload).
    pub(crate) fn skip(&mut self, n: usize, at: &'static str) -> Result<(), CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                self.pos = end;
                Ok(())
            }
            None => Err(CodecError::Truncated { at }),
        }
    }

    /// One raw byte — for flag and mode bytes, which are single bytes on
    /// the wire and must not be read as (possibly non-canonical) varints.
    pub(crate) fn u8(&mut self, at: &'static str) -> Result<u8, CodecError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(CodecError::Truncated { at });
        };
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn uvarint(&mut self, at: &'static str) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(CodecError::Truncated { at });
            };
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(CodecError::VarintOverflow { at });
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Checks that the whole payload was consumed.
    pub(crate) fn finish(&self) -> Result<(), CodecError> {
        match self.bytes.len().saturating_sub(self.pos) {
            0 => Ok(()),
            extra => Err(CodecError::TrailingBytes { extra }),
        }
    }

    pub(crate) fn ivarint(&mut self, at: &'static str) -> Result<i64, CodecError> {
        Ok(unzigzag(self.uvarint(at)?))
    }

    pub(crate) fn u64(&mut self, at: &'static str) -> Result<u64, CodecError> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(CodecError::Truncated { at });
        };
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }

    pub(crate) fn counted(
        &mut self,
        at: &'static str,
        declared: u64,
        max: u64,
    ) -> Result<usize, CodecError> {
        if declared > max {
            return Err(CodecError::Oversized { at, declared, max });
        }
        usize::try_from(declared).map_err(|_| CodecError::Oversized { at, declared, max })
    }
}

/// A length as the wire's `u64` count. Lengths of in-memory vectors
/// always fit; saturating (instead of a bare cast) means a pathological
/// value trips the decoder's sanity caps rather than truncating silently.
pub(crate) fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

fn encode_grid(out: &mut Vec<u8>, grid: &CounterGrid) {
    put_uvarint(out, len_u64(grid.stages()));
    put_uvarint(out, len_u64(grid.buckets()));
    for stage in 0..grid.stages() {
        for &v in grid.stage(stage) {
            put_uvarint(out, zigzag(v));
        }
    }
}

/// Serializes a snapshot into the dense payload format.
pub fn encode_snapshot(snap: &IntervalSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 16);
    put_u64(&mut out, snap.fingerprint);
    put_uvarint(&mut out, snap.syn_count);
    put_uvarint(&mut out, snap.syn_ack_count);
    put_uvarint(&mut out, snap.fin_rst_count);
    for grid in snap.grids() {
        encode_grid(&mut out, grid);
    }
    let bloom = &snap.active_services;
    put_uvarint(&mut out, len_u64(bloom.bit_words().len()));
    put_uvarint(&mut out, len_u64(bloom.hash_seeds().len()));
    put_uvarint(&mut out, bloom.inserted());
    for &w in bloom.bit_words() {
        put_u64(&mut out, w);
    }
    for &s in bloom.hash_seeds() {
        put_u64(&mut out, s);
    }
    out
}

/// Parses a payload produced by [`encode_snapshot`].
///
/// # Errors
///
/// Returns a [`CodecError`] describing the first structural violation;
/// never panics on malformed input.
pub fn decode_snapshot(bytes: &[u8]) -> Result<IntervalSnapshot, CodecError> {
    let dense = GridRuns::read_dense;
    let frame = codec_v2::parse_body(Reader::new(bytes), None, dense, |r, words, _| {
        let inserted = r.uvarint("bloom_inserted")?;
        let bits: Result<_, _> = (0..words).map(|_| r.u64("bloom_words")).collect();
        Ok((bits?, inserted))
    })?;
    Ok(frame.into_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::{HiFindConfig, SketchRecorder};
    use hifind_flow::Packet;

    fn sample_snapshot(seed: u64, packets: u32) -> IntervalSnapshot {
        let cfg = HiFindConfig::small(seed);
        let mut r = SketchRecorder::new(&cfg).unwrap();
        for i in 0..packets {
            r.record(&Packet::syn(
                u64::from(i),
                [10, 0, (i >> 8) as u8, i as u8].into(),
                2000,
                [129, 105, 0, 1].into(),
                80,
            ));
            if i % 3 == 0 {
                r.record(&Packet::syn_ack(
                    u64::from(i),
                    [10, 0, (i >> 8) as u8, i as u8].into(),
                    2000,
                    [129, 105, 0, 1].into(),
                    80,
                ));
            }
        }
        r.take_snapshot()
    }

    #[test]
    fn round_trip_is_exact() {
        let snap = sample_snapshot(7, 400);
        let bytes = encode_snapshot(&snap);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn sparse_grids_compress_far_below_memory_size() {
        let snap = sample_snapshot(8, 200);
        let bytes = encode_snapshot(&snap);
        assert!(
            bytes.len() * 4 < snap.wire_size_bytes(),
            "varint payload {} should be well under the {}-byte raw size",
            bytes.len(),
            snap.wire_size_bytes()
        );
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0, 1, -1, i64::MAX, i64::MIN, 4242, -4242] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = encode_snapshot(&sample_snapshot(9, 50));
        // Cutting at every 97th prefix keeps the test fast but still
        // sweeps all field kinds.
        for cut in (0..bytes.len()).step_by(97) {
            let err = decode_snapshot(&bytes[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. }
                        | CodecError::Grid { .. }
                        | CodecError::Bloom(_)
                        | CodecError::TrailingBytes { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    /// Regression: `Reader::skip` used to clamp past the end of the
    /// buffer, so a payload truncated inside a skipped region looked
    /// fully consumed and sailed through the trailing-bytes check.
    #[test]
    fn skip_past_end_is_a_typed_truncation() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.skip(2, "head").expect("in-bounds skip");
        assert_eq!(r.position(), 2);
        assert_eq!(
            r.skip(2, "tail"),
            Err(CodecError::Truncated { at: "tail" }),
            "skipping past the end must be a typed error"
        );
        assert_eq!(r.position(), 2, "a failed skip must not move the cursor");
        r.skip(1, "last").expect("exact-to-end skip");
        assert_eq!(
            r.skip(usize::MAX, "overflow"),
            Err(CodecError::Truncated { at: "overflow" }),
            "a skip that would overflow the cursor must fail, not wrap"
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_snapshot(&sample_snapshot(10, 20));
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn absurd_declared_sizes_rejected_before_allocation() {
        // fingerprint (8 bytes) + three counters + a grid declaring
        // u64::MAX stages.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 0);
        for _ in 0..3 {
            put_uvarint(&mut bytes, 0);
        }
        put_uvarint(&mut bytes, u64::MAX);
        put_uvarint(&mut bytes, u64::MAX);
        let err = decode_snapshot(&bytes).unwrap_err();
        assert!(matches!(
            err,
            CodecError::Oversized { .. } | CodecError::VarintOverflow { .. }
        ));
    }
}
