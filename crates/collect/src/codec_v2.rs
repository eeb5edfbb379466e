//! Codec v2: sparse snapshot payloads.
//!
//! The v1 payload ([`crate::codec`]) spends one byte per counter even when
//! a bucket is zero — and outside attack hot spots almost every bucket is.
//! v2 encodes each grid stage (and the Bloom word array) either densely
//! (v1-style varints) or as runs of non-zero values with zero-gap
//! prefixes, whichever is smaller *for that stage*. A quiet stage costs
//! two bytes instead of one byte per bucket. The encoder decides in one
//! scan, skipping all-zero chunks 8 values at a time, writing the sparse
//! form as it goes and only costing the dense one.
//!
//! Every payload is a keyframe: it stands alone, so any receiver can take
//! any frame, in any order, after any loss. The sketches reset every
//! interval (paper §3.1), so a frame carries only that interval's sums;
//! the one cumulative part, the active-service Bloom filter, ships whole.
//!
//! Wire layout of a v2 payload (CRC-covered by the frame header):
//!
//! ```text
//! flags              u8       must be zero (bit 0 once marked a delta frame)
//! fingerprint        u64
//! syn/syn_ack/fin_rst uvarint
//! 9 × grid:
//!   stages, buckets  uvarint
//!   per stage: mode  u8       0 = dense, 1 = sparse
//!     dense:  buckets × zigzag varint
//!     sparse: nruns uvarint, runs of (gap uvarint, len uvarint, len × zigzag varint)
//! bloom:
//!   words, seeds     uvarint
//!   inserted         uvarint
//!   mode             u8       0 = dense, 1 = sparse
//!     dense:  words × raw u64
//!     sparse: nruns uvarint, runs of (gap uvarint, len uvarint, len × raw u64)
//!   seeds × raw u64
//! ```
//!
//! `i64::MIN`/`i64::MAX` counters round-trip exactly. The decoder carries
//! the same defensive posture as v1: bounds-checked reads, declared sizes
//! capped before allocation, and typed [`CodecError`]s for every failure.

use crate::codec::{
    self, put_u64, put_uvarint, zigzag, CodecError, Reader, MAX_BLOOM_SEEDS, MAX_BLOOM_WORDS,
    MAX_GRID_CELLS,
};
use hifind::{IntervalSnapshot, SnapshotShape};
use hifind_hashing::BloomFilter;
use hifind_sketch::{simd, CounterGrid};
use std::ops::Range;

/// Stage/bloom encoding mode bytes.
const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;

/// Number of bytes `put_uvarint` would emit for `v`.
fn uvarint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    usize::try_from(bits.div_ceil(7)).unwrap_or(10).max(1)
}

/// Width of the zero skip: an all-zero chunk this long is passed over
/// with one OR-reduction, which the compiler vectorises, instead of value
/// by value. Quiet sketch stages are almost entirely such chunks.
const LANES: usize = 8;

/// An element of a value array the run encoder writes: zig-zag varint
/// counters (grid stages) or raw words (the Bloom filter).
trait WireValue: Copy + Default + PartialEq + std::ops::BitOr<Output = Self> {
    /// Bytes the dense form spends on a zero.
    const ZERO_BYTES: usize;

    fn put(out: &mut Vec<u8>, v: Self);

    /// The error for an array `which` whose mode byte is neither mode.
    fn bad_mode(which: &'static str, mode: u8) -> CodecError;
}

impl WireValue for i64 {
    const ZERO_BYTES: usize = 1;

    fn put(out: &mut Vec<u8>, v: i64) {
        put_uvarint(out, zigzag(v));
    }

    fn bad_mode(which: &'static str, mode: u8) -> CodecError {
        CodecError::Grid {
            which,
            detail: format!("unknown stage mode byte {mode}"),
        }
    }
}

impl WireValue for u64 {
    const ZERO_BYTES: usize = 8;

    fn put(out: &mut Vec<u8>, v: u64) {
        put_u64(out, v);
    }

    fn bad_mode(_which: &'static str, mode: u8) -> CodecError {
        CodecError::Bloom(format!("unknown word mode byte {mode}"))
    }
}

/// Index of the first non-zero value at or after `i` (`values.len()` if
/// there is none).
fn next_nonzero<T: WireValue>(values: &[T], mut i: usize) -> usize {
    let zero = T::default();
    while let Some(chunk) = values.get(i..i + LANES) {
        if chunk.iter().fold(zero, |acc, &v| acc | v) != zero {
            break;
        }
        i += LANES;
    }
    while values.get(i).is_some_and(|&v| v == zero) {
        i += 1;
    }
    i
}

/// Encodes one value array as whichever of dense/sparse is smaller (dense
/// on a tie).
///
/// One scan: the sparse form — runs of consecutive non-zeros — is written
/// straight into `out` while the dense form is only costed (a zero costs
/// [`WireValue::ZERO_BYTES`], a non-zero what the sparse body spent on
/// it). Only when dense wins is the array walked a second time.
fn encode_values<T: WireValue>(out: &mut Vec<u8>, values: &[T]) {
    let mode_at = out.len();
    out.push(MODE_SPARSE);
    let body_at = out.len();
    let (mut nruns, mut nonzero, mut value_bytes) = (0u64, 0usize, 0usize);
    let mut last_end = 0usize;
    let mut i = next_nonzero(values, 0);
    while i < values.len() {
        let start = i;
        while values.get(i).is_some_and(|&v| v != T::default()) {
            i += 1;
        }
        put_uvarint(out, codec::len_u64(start - last_end));
        put_uvarint(out, codec::len_u64(i - start));
        let values_at = out.len();
        for &v in &values[start..i] {
            T::put(out, v);
        }
        value_bytes += out.len() - values_at;
        nonzero += i - start;
        nruns += 1;
        last_end = i;
        i = next_nonzero(values, i);
    }
    let dense_size = (values.len() - nonzero) * T::ZERO_BYTES + value_bytes;
    let sparse_size = uvarint_len(nruns) + (out.len() - body_at);
    if sparse_size < dense_size {
        // The run count leads the body on the wire: append it, rotate it
        // to the front.
        let body_end = out.len();
        put_uvarint(out, nruns);
        let count_len = out.len() - body_end;
        out[body_at..].rotate_right(count_len);
    } else {
        out.truncate(mode_at);
        out.push(MODE_DENSE);
        for &v in values {
            T::put(out, v);
        }
    }
}

/// Reads one array of `len` values `encode_values` wrote: each run it
/// carries — all `len` values when dense, each non-empty run when sparse
/// — is bounds-checked, then `run(start, end, reader)` reads it.
fn parse_values<T: WireValue>(
    r: &mut Reader<'_>,
    len: usize,
    which: &'static str,
    mut run: impl FnMut(usize, usize, &mut Reader<'_>) -> Result<(), CodecError>,
) -> Result<(), CodecError> {
    match r.u8(which)? {
        MODE_DENSE => run(0, len, r),
        MODE_SPARSE => {
            let cap = codec::len_u64(len);
            let nruns = r.uvarint(which)?;
            let nruns = r.counted(which, nruns, cap)?;
            let mut pos = 0usize;
            for _ in 0..nruns {
                let gap = r.uvarint(which)?;
                let n = r.uvarint(which)?;
                let gap = r.counted(which, gap, cap)?;
                let n = r.counted(which, n, cap)?;
                let end = pos.checked_add(gap).and_then(|s| s.checked_add(n));
                let Some(end) = end.filter(|&e| e <= len) else {
                    return Err(CodecError::Truncated { at: which });
                };
                if n > 0 {
                    run(end - n, end, r)?;
                }
                pos = end;
            }
            Ok(())
        }
        other => Err(T::bad_mode(which, other)),
    }
}

const GRID_NAMES: [&str; 9] = [
    "rs_sip_dport",
    "rs_sip_dport_verifier",
    "rs_dip_dport",
    "rs_dip_dport_verifier",
    "rs_sip_dip",
    "rs_sip_dip_verifier",
    "os",
    "twod_sipdport_dip",
    "twod_sipdip_dport",
];

/// Whether `bloom` has the geometry of a filter with these words and
/// seeds.
fn same_bloom_shape(bloom: &BloomFilter, words: &[u64], seeds: &[u64]) -> bool {
    bloom.bit_words().len() == words.len() && bloom.hash_seeds() == seeds
}

/// Serializes `snap` as a standalone v2 keyframe payload.
pub fn encode_keyframe(snap: &IntervalSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 12);
    out.push(0u8); // flags: keyframe
    put_u64(&mut out, snap.fingerprint);
    put_uvarint(&mut out, snap.syn_count);
    put_uvarint(&mut out, snap.syn_ack_count);
    put_uvarint(&mut out, snap.fin_rst_count);
    for grid in snap.grids() {
        put_uvarint(&mut out, codec::len_u64(grid.stages()));
        put_uvarint(&mut out, codec::len_u64(grid.buckets()));
        for stage in 0..grid.stages() {
            encode_values(&mut out, grid.stage(stage));
        }
    }
    let bloom = &snap.active_services;
    put_uvarint(&mut out, codec::len_u64(bloom.bit_words().len()));
    put_uvarint(&mut out, codec::len_u64(bloom.hash_seeds().len()));
    put_uvarint(&mut out, bloom.inserted());
    encode_values(&mut out, bloom.bit_words());
    for &s in bloom.hash_seeds() {
        put_u64(&mut out, s);
    }
    out
}

/// One payload, checked whole and parsed into its non-zero runs, packet
/// counters and absolute active-service filter: a frame that fails
/// anywhere never touches a sum, and adding one is one pass over its runs.
#[derive(Debug)]
pub struct FrameRuns {
    /// The payload's own configuration fingerprint.
    pub(crate) fingerprint: u64,
    /// `syn_count`, `syn_ack_count`, `fin_rst_count`.
    counts: [u64; 3],
    /// The nine grids, in wire order.
    grids: [GridRuns; 9],
    /// The active-service filter.
    bloom: BloomFilter,
}

/// One grid of a frame: its declared shape and its runs `(stage, buckets)`
/// in stage-major order, each taking the next `buckets.len()` of `values`.
#[derive(Debug, Default)]
pub(crate) struct GridRuns {
    which: &'static str,
    stages: usize,
    buckets: usize,
    runs: Vec<(usize, Range<usize>)>,
    values: Vec<i64>,
}

impl FrameRuns {
    /// Adds this frame into the pending sum `acc`, bit for bit as
    /// [`IntervalSnapshot::combine_many`] adds the decoded snapshot.
    ///
    /// # Errors
    ///
    /// [`CodecError::ShapeMismatch`], leaving `acc` untouched, when `acc`
    /// has another fingerprint, grid shape or Bloom geometry.
    pub fn add_into(&self, acc: &mut IntervalSnapshot) -> Result<(), CodecError> {
        let (bloom, [syn, syn_ack, fin_rst]) = (&self.bloom, self.counts);
        let at = if acc.fingerprint != self.fingerprint {
            "fingerprint"
        } else if acc.grids().map(|g| (g.stages(), g.buckets()))
            != self.grids.each_ref().map(|g| (g.stages, g.buckets))
        {
            "grid"
        } else if !same_bloom_shape(&acc.active_services, bloom.bit_words(), bloom.hash_seeds()) {
            "bloom"
        } else {
            for (runs, grid) in self.grids.iter().zip(acc.grids_mut()) {
                runs.add_to(grid, simd::kernel());
            }
            acc.active_services.union(bloom);
            acc.syn_count = acc.syn_count.wrapping_add(syn);
            acc.syn_ack_count = acc.syn_ack_count.wrapping_add(syn_ack);
            acc.fin_rst_count = acc.fin_rst_count.wrapping_add(fin_rst);
            return Ok(());
        };
        Err(CodecError::ShapeMismatch { at })
    }

    /// `[syn_count, syn_ack_count, fin_rst_count]`; no grid is sized.
    pub fn counts(&self) -> [u64; 3] {
        self.counts
    }

    /// The snapshot this frame decodes to.
    pub fn into_snapshot(self) -> IntervalSnapshot {
        let grids = self.grids.map(GridRuns::into_grid);
        IntervalSnapshot::from_parts(grids, self.bloom, self.counts, self.fingerprint)
    }
}

impl GridRuns {
    /// Reads counters `span` of `stage` as one run.
    fn read_run(&mut self, r: &mut Reader<'_>, stage: usize, span: Range<usize>) -> Parsed {
        for _ in span.clone() {
            self.values.push(r.ivarint(self.which)?);
        }
        self.runs.push((stage, span));
        Ok(())
    }

    /// A v1 stage: all of its counters, as one run. A v1 grid is dense, so
    /// its runs, then its values, are sized once at its first stage (no
    /// small block then splits two grids' counters on the heap).
    pub(crate) fn read_dense(&mut self, r: &mut Reader<'_>, stage: usize) -> Parsed {
        if stage == 0 {
            self.runs.reserve_exact(self.stages);
            self.values.reserve_exact(self.stages * self.buckets);
        }
        self.read_run(r, stage, 0..self.buckets)
    }

    /// A v2 stage: its mode byte, then each run it carries.
    fn read_moded(&mut self, r: &mut Reader<'_>, stage: usize) -> Parsed {
        parse_values::<i64>(r, self.buckets, self.which, |start, end, r| {
            self.read_run(r, stage, start..end)
        })
    }

    /// Saturating-adds every run into `grid`, whose shape the caller
    /// checked is this one's (so every run lands inside its stage).
    fn add_to(&self, grid: &mut CounterGrid, kernel: &dyn simd::SketchKernel) {
        let mut values = self.values.as_slice();
        for (stage, span) in &self.runs {
            let Some((src, rest)) = values.split_at_checked(span.len()) else {
                return;
            };
            values = rest;
            if let Some(dst) = grid.stage_mut(*stage).get_mut(span.clone()) {
                kernel.add_saturating(dst, src);
            }
        }
    }

    /// The grid these runs decode to. Runs that cover every cell (every
    /// v1 grid, a v2 grid of dense stages) are its counters in order and
    /// move in as they are; the rest land on a zeroed grid.
    fn into_grid(self) -> CounterGrid {
        if self.values.len() == self.stages * self.buckets {
            // Cannot fail: `parse_body` checked both dimensions.
            let whole = CounterGrid::from_data(self.stages, self.buckets, self.values);
            return whole.unwrap_or_else(|_| CounterGrid::new(self.stages, self.buckets));
        }
        let mut grid = CounterGrid::new(self.stages, self.buckets);
        self.add_to(&mut grid, simd::kernel());
        grid
    }
}

type Parsed<T = ()> = Result<T, CodecError>;

/// Parses and checks a payload of either codec from its fingerprint on:
/// nine grids, each stage read the codec's way by `stage`, then the Bloom
/// filter, read by `bloom`. Every declared shape must be the receiver's
/// `shape`, checked before it sizes anything.
pub(crate) fn parse_body(
    mut r: Reader<'_>,
    shape: Option<&SnapshotShape>,
    stage: fn(&mut GridRuns, &mut Reader<'_>, usize) -> Parsed,
    bloom: impl FnOnce(&mut Reader<'_>, usize, usize) -> Parsed<(Vec<u64>, u64)>,
) -> Parsed<FrameRuns> {
    let fingerprint = r.u64("fingerprint")?;
    let counts = [
        r.uvarint("syn_count")?,
        r.uvarint("syn_ack_count")?,
        r.uvarint("fin_rst_count")?,
    ];
    let mut grids: [GridRuns; 9] = Default::default();
    for (g, (grid, which)) in grids.iter_mut().zip(GRID_NAMES).enumerate() {
        grid.which = which;
        let stages = r.uvarint(which)?;
        let buckets = r.uvarint(which)?;
        r.counted(which, stages.saturating_mul(buckets), MAX_GRID_CELLS)?;
        // Each dimension is checked on its own: `0 × huge` passes the cell
        // cap, but a bare cast of `huge` could truncate on a narrow target.
        grid.stages = r.counted(which, stages, MAX_GRID_CELLS)?;
        grid.buckets = r.counted(which, buckets, MAX_GRID_CELLS)?;
        if grid.stages == 0 || grid.buckets == 0 {
            return Err(CodecError::Grid {
                which,
                detail: "grid needs at least one stage and one bucket".into(),
            });
        }
        if shape.is_some_and(|s| s.grids[g] != (grid.stages, grid.buckets)) {
            return Err(CodecError::ShapeMismatch { at: which });
        }
        for s in 0..grid.stages {
            stage(grid, &mut r, s)?;
        }
    }
    let words = r.uvarint("bloom_words")?;
    let words = r.counted("bloom_words", words, MAX_BLOOM_WORDS)?;
    let seeds = r.uvarint("bloom_seeds")?;
    let seeds = r.counted("bloom_seeds", seeds, MAX_BLOOM_SEEDS)?;
    if shape.is_some_and(|s| s.bloom.bit_words().len() != words) {
        return Err(CodecError::ShapeMismatch { at: "bloom" });
    }
    let (bits, inserted) = bloom(&mut r, words, seeds)?;
    let hash_seeds: Vec<u64> = (0..seeds)
        .map(|_| r.u64("bloom_seeds"))
        .collect::<Result<_, _>>()?;
    if shape.is_some_and(|s| s.bloom.hash_seeds() != hash_seeds) {
        return Err(CodecError::ShapeMismatch { at: "bloom_seeds" });
    }
    let bloom = BloomFilter::from_parts(bits, hash_seeds, inserted).map_err(CodecError::Bloom)?;
    r.finish()?;
    Ok(FrameRuns {
        fingerprint,
        counts,
        grids,
        bloom,
    })
}

/// Parses and checks a whole v2 payload against the receiver's `shape`,
/// when given.
pub(crate) fn parse(
    payload: &[u8],
    shape: Option<&SnapshotShape>,
) -> Result<FrameRuns, CodecError> {
    let mut r = Reader::new(payload);
    let flags = r.u8("flags")?;
    if flags != 0 {
        return Err(CodecError::BadFlags {
            flags: u64::from(flags),
        });
    }
    parse_body(r, shape, GridRuns::read_moded, |r, words, _seeds| {
        let inserted = r.uvarint("bloom_inserted")?;
        let mut bits = vec![0; words];
        parse_values::<u64>(r, words, "bloom_words", |start, end, r| {
            for slot in &mut bits[start..end] {
                *slot = r.u64("bloom_words")?;
            }
            Ok(())
        })?;
        Ok((bits, inserted))
    })
}

/// Parses a standalone v2 keyframe payload.
///
/// # Errors
///
/// Typed [`CodecError`]s for every structural violation, and
/// [`CodecError::BadFlags`] for a flags byte other than zero.
pub fn decode_keyframe(payload: &[u8]) -> Result<IntervalSnapshot, CodecError> {
    Ok(parse(payload, None)?.into_snapshot())
}

/// Parses a standalone v2 keyframe recorded under `shape`: fingerprint,
/// grid dimensions and Bloom geometry are all checked.
///
/// # Errors
///
/// As [`decode_keyframe`], plus [`CodecError::ShapeMismatch`] for any
/// shape or fingerprint other than `shape`'s.
pub fn parse_keyframe(payload: &[u8], shape: &SnapshotShape) -> Result<FrameRuns, CodecError> {
    let frame = parse(payload, Some(shape))?;
    if frame.fingerprint != shape.fingerprint {
        return Err(CodecError::ShapeMismatch { at: "fingerprint" });
    }
    Ok(frame)
}

/// A keyframe decoder that holds no state.
///
/// Kept only because the end-to-end benchmark's layer replay
/// (`benchmark/src/layers.rs`) names it; ROADMAP item 12 retires it with
/// that replay. Nothing in the collection plane calls it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChainStore;

impl ChainStore {
    /// A decoder (there is nothing to set up).
    pub fn new() -> Self {
        ChainStore
    }

    /// [`decode_keyframe`]; the router id and interval are ignored.
    ///
    /// # Errors
    ///
    /// As [`decode_keyframe`].
    pub fn decode(
        &mut self,
        _router_id: u32,
        _interval: u64,
        payload: &[u8],
    ) -> Result<IntervalSnapshot, CodecError> {
        decode_keyframe(payload)
    }
}

/// What [`SnapshotEncoder::encode`] produced for one interval.
#[derive(Debug)]
pub struct EncodedV2 {
    /// The keyframe payload.
    pub payload: Vec<u8>,
    /// Always `false`: no build encodes delta frames any more.
    pub is_delta: bool,
}

/// A keyframe encoder that holds no state.
///
/// Kept only because the end-to-end benchmark's layer replay
/// (`benchmark/src/layers.rs`) names it; ROADMAP item 12 retires it with
/// that replay. Senders call [`encode_keyframe`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotEncoder;

impl SnapshotEncoder {
    /// [`encode_keyframe`]; the interval and the acked interval are
    /// ignored.
    pub fn encode(
        &mut self,
        _interval: u64,
        snap: &IntervalSnapshot,
        _acked: Option<u64>,
    ) -> EncodedV2 {
        EncodedV2 {
            payload: encode_keyframe(snap),
            is_delta: false,
        }
    }
}

/// The two-scan encoder this module's single-scan one replaced, kept
/// verbatim as the oracle of the byte-identity test below: the wire bytes
/// must never depend on which of the two produced them.
#[cfg(test)]
mod reference {
    use super::{
        codec, put_u64, put_uvarint, uvarint_len, zigzag, IntervalSnapshot, MODE_DENSE, MODE_SPARSE,
    };

    /// Encodes one value array as whichever of dense/sparse is smaller.
    pub(super) fn encode_stage_i64(out: &mut Vec<u8>, values: &[i64]) {
        // Cost the dense form without materialising it.
        let dense_size: usize = values.iter().map(|&v| uvarint_len(zigzag(v))).sum();
        // Build the sparse form: runs of consecutive non-zeros.
        let mut sparse = Vec::new();
        let mut nruns = 0u64;
        let mut i = 0usize;
        let mut last_end = 0usize;
        while i < values.len() {
            if values[i] == 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < values.len() && values[i] != 0 {
                i += 1;
            }
            put_uvarint(&mut sparse, codec::len_u64(start - last_end));
            put_uvarint(&mut sparse, codec::len_u64(i - start));
            for &v in &values[start..i] {
                put_uvarint(&mut sparse, zigzag(v));
            }
            last_end = i;
            nruns += 1;
        }
        let sparse_size = uvarint_len(nruns) + sparse.len();
        if sparse_size < dense_size {
            out.push(MODE_SPARSE);
            put_uvarint(out, nruns);
            out.extend_from_slice(&sparse);
        } else {
            out.push(MODE_DENSE);
            for &v in values {
                put_uvarint(out, zigzag(v));
            }
        }
    }

    /// Same dense/sparse choice for raw `u64` Bloom words.
    pub(super) fn encode_words(out: &mut Vec<u8>, words: &[u64]) {
        let dense_size = words.len().saturating_mul(8);
        let mut sparse = Vec::new();
        let mut nruns = 0u64;
        let mut i = 0usize;
        let mut last_end = 0usize;
        while i < words.len() {
            if words[i] == 0 {
                i += 1;
                continue;
            }
            let start = i;
            while i < words.len() && words[i] != 0 {
                i += 1;
            }
            put_uvarint(&mut sparse, codec::len_u64(start - last_end));
            put_uvarint(&mut sparse, codec::len_u64(i - start));
            for &w in &words[start..i] {
                put_u64(&mut sparse, w);
            }
            last_end = i;
            nruns += 1;
        }
        let sparse_size = uvarint_len(nruns) + sparse.len();
        if sparse_size < dense_size {
            out.push(MODE_SPARSE);
            put_uvarint(out, nruns);
            out.extend_from_slice(&sparse);
        } else {
            out.push(MODE_DENSE);
            for &w in words {
                put_u64(out, w);
            }
        }
    }

    /// Serializes `snap` as a standalone v2 keyframe payload.
    pub(super) fn encode_keyframe(snap: &IntervalSnapshot) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 << 12);
        out.push(0u8); // flags: keyframe
        put_u64(&mut out, snap.fingerprint);
        put_uvarint(&mut out, snap.syn_count);
        put_uvarint(&mut out, snap.syn_ack_count);
        put_uvarint(&mut out, snap.fin_rst_count);
        for grid in snap.grids() {
            put_uvarint(&mut out, codec::len_u64(grid.stages()));
            put_uvarint(&mut out, codec::len_u64(grid.buckets()));
            for stage in 0..grid.stages() {
                encode_stage_i64(&mut out, grid.stage(stage));
            }
        }
        let bloom = &snap.active_services;
        put_uvarint(&mut out, codec::len_u64(bloom.bit_words().len()));
        put_uvarint(&mut out, codec::len_u64(bloom.hash_seeds().len()));
        put_uvarint(&mut out, bloom.inserted());
        encode_words(&mut out, bloom.bit_words());
        for &s in bloom.hash_seeds() {
            put_u64(&mut out, s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::{HiFindConfig, SketchRecorder};
    use hifind_flow::Packet;

    fn sample(seed: u64, packets: u32) -> IntervalSnapshot {
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
        }
        r.take_snapshot()
    }

    #[test]
    fn keyframe_round_trip_is_exact() {
        for packets in [0, 1, 50, 500] {
            let snap = sample(7, packets);
            let back = decode_keyframe(&encode_keyframe(&snap)).unwrap();
            assert_eq!(back, snap, "{packets} packets");
        }
    }

    #[test]
    fn sparse_keyframe_is_far_below_v1() {
        let snap = sample(13, 60);
        let v1 = crate::codec::encode_snapshot(&snap);
        let v2 = encode_keyframe(&snap);
        assert!(
            v2.len() * 4 < v1.len(),
            "sparse keyframe {} should be well under the dense v1 payload {}",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn extreme_counters_round_trip_through_both_modes() {
        use hifind_hashing::BloomFilter;
        use hifind_sketch::CounterGrid;
        let grid = |vals: Vec<i64>| CounterGrid::from_data(1, vals.len(), vals).unwrap();
        let mk = |values: [i64; 4], counts: [u64; 3]| IntervalSnapshot {
            rs_sip_dport: grid(values.to_vec()),
            rs_sip_dport_verifier: grid(vec![0; 4]),
            rs_dip_dport: grid(vec![0; 4]),
            rs_dip_dport_verifier: grid(vec![0; 4]),
            rs_sip_dip: grid(vec![0; 4]),
            rs_sip_dip_verifier: grid(vec![0; 4]),
            os: grid(vec![0; 4]),
            twod_sipdport_dip: grid(vec![0; 4]),
            twod_sipdip_dport: grid(vec![0; 4]),
            active_services: BloomFilter::from_parts(vec![u64::MAX, 0], vec![1, 2], u64::MAX)
                .unwrap(),
            syn_count: counts[0],
            syn_ack_count: counts[1],
            fin_rst_count: counts[2],
            fingerprint: 0xDEAD_BEEF,
        };
        let base = mk([i64::MAX, i64::MIN, -1, 0], [u64::MAX, 0, 7]);
        let snap = mk([i64::MIN, i64::MAX, 1, 0], [0, u64::MAX, 9]);
        assert_eq!(decode_keyframe(&encode_keyframe(&snap)).unwrap(), snap);
        assert_eq!(decode_keyframe(&encode_keyframe(&base)).unwrap(), base);
    }

    #[test]
    fn truncation_anywhere_is_typed_never_a_panic() {
        let payload = encode_keyframe(&sample(14, 300));
        for cut in (0..payload.len()).step_by(13) {
            assert!(
                decode_keyframe(&payload[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    /// A snapshot of 1×4 all-zero grids around a Bloom filter of `words`,
    /// small enough that every field's offset is known.
    fn tiny(words: Vec<u64>) -> IntervalSnapshot {
        let grid = || CounterGrid::from_data(1, 4, vec![0; 4]).unwrap();
        IntervalSnapshot {
            rs_sip_dport: grid(),
            rs_sip_dport_verifier: grid(),
            rs_dip_dport: grid(),
            rs_dip_dport_verifier: grid(),
            rs_sip_dip: grid(),
            rs_sip_dip_verifier: grid(),
            os: grid(),
            twod_sipdport_dip: grid(),
            twod_sipdip_dport: grid(),
            active_services: BloomFilter::from_parts(words, vec![1, 2], 3).unwrap(),
            syn_count: 1,
            syn_ack_count: 2,
            fin_rst_count: 3,
            fingerprint: 0xF00D,
        }
    }

    /// `payload` with the single byte at `at` respelled as the two-byte
    /// non-canonical varint of the same value.
    fn respelled(payload: &[u8], at: usize) -> Vec<u8> {
        let mut out = payload.to_vec();
        out[at] |= 0x80;
        out.insert(at + 1, 0);
        out
    }

    #[test]
    fn unknown_flags_and_mode_bytes_are_typed_errors() {
        let snap = sample(15, 20);
        let mut payload = encode_keyframe(&snap);
        // Bit 0 once marked a delta frame; it is as unknown as any other.
        for flags in [0x01, 0x40] {
            payload[0] = flags;
            assert_eq!(
                decode_keyframe(&payload),
                Err(CodecError::BadFlags {
                    flags: u64::from(flags)
                })
            );
        }
        assert!(decode_keyframe(&[]).is_err());

        // Flag and mode bytes are single bytes: a varint spelling of a
        // valid value (`0x80 0x00` for 0) used to decode as that value.
        let snap = tiny(vec![0, 0]);
        let payload = encode_keyframe(&snap);
        assert_eq!(decode_keyframe(&payload).unwrap(), snap);
        let flags = respelled(&payload, 0);
        assert_eq!(
            decode_keyframe(&flags),
            Err(CodecError::BadFlags { flags: 0x80 })
        );
        // flags, fingerprint, three one-byte counters, stages, buckets.
        let stage_mode = 1 + 8 + 3 + 2;
        assert_eq!(payload[stage_mode], MODE_SPARSE);
        assert!(matches!(
            decode_keyframe(&respelled(&payload, stage_mode)),
            Err(CodecError::Grid {
                which: "rs_sip_dport",
                ..
            })
        ));
        // The all-zero words are one empty sparse body (mode, zero runs)
        // ahead of two raw seeds.
        let bloom_mode = payload.len() - 2 * 8 - 2;
        assert_eq!(payload[bloom_mode], MODE_SPARSE);
        assert!(matches!(
            decode_keyframe(&respelled(&payload, bloom_mode)),
            Err(CodecError::Bloom(_))
        ));
    }

    /// The stand-in decoder keeps nothing between calls: the same frame
    /// decodes alike for any router and interval, again and again, and a
    /// delta-flagged payload is refused like any unknown flag.
    #[test]
    fn chain_store_stand_in_decodes_keyframes_statelessly() {
        assert_eq!(std::mem::size_of::<ChainStore>(), 0);
        let snap = sample(16, 300);
        let key = encode_keyframe(&snap);
        let mut chains = ChainStore::new();
        for (router, interval) in [(9, 0), (9, 0), (10, 41)] {
            assert_eq!(chains.decode(router, interval, &key).unwrap(), snap);
        }
        let mut flagged = key;
        flagged[0] = 1;
        assert_eq!(
            chains.decode(9, 1, &flagged),
            Err(CodecError::BadFlags { flags: 1 })
        );
    }

    /// A value array of one of six shapes: all zero, all non-zero, sparse,
    /// runs straddling the 8-lane chunk boundaries, mostly non-zero, and
    /// the wire's edge values only.
    fn value_array(rng: &mut hifind_flow::rng::SplitMix64, len: usize, shape: u64) -> Vec<i64> {
        (0..len)
            .map(|i| {
                let hit = match shape {
                    0 => false,
                    1 => true,
                    2 => rng.chance(0.15),
                    3 => matches!(i % 8, 6 | 7 | 0 | 1),
                    4 => rng.chance(0.85),
                    _ => rng.chance(0.5),
                };
                match (hit, shape, rng.below(5)) {
                    (false, _, _) => 0,
                    (true, 5, pick) => [i64::MIN, i64::MAX, -1, 1, i64::MIN][pick as usize],
                    (true, _, 0) => i64::MIN,
                    (true, _, 1) => i64::MAX,
                    (true, _, 2) => 1 + rng.below(40) as i64,
                    (true, _, 3) => -1 - rng.below(40) as i64,
                    (true, _, _) => (rng.next_u64() | 1) as i64,
                }
            })
            .collect()
    }

    /// Every value array shape the sketches produce and the wire's edge
    /// values: the single-scan encoder must emit exactly the reference
    /// encoder's bytes.
    #[test]
    fn single_scan_encoder_is_byte_identical_to_the_reference() {
        let mut rng = hifind_flow::rng::SplitMix64::new(0x2026_0522);

        for len in 1..=67usize {
            for shape in 0..6 {
                let values = value_array(&mut rng, len, shape);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                encode_values(&mut got, &values);
                reference::encode_stage_i64(&mut want, &values);
                assert_eq!(got, want, "stage len {len} shape {shape}: {values:?}");
                let words: Vec<u64> = values.iter().map(|&v| v as u64).collect();
                let (mut got, mut want) = (Vec::new(), Vec::new());
                encode_values(&mut got, &words);
                reference::encode_words(&mut want, &words);
                assert_eq!(got, want, "words len {len} shape {shape}: {words:?}");
            }
        }

        for case in 0..150u64 {
            let dims: Vec<(usize, usize)> = (0..9)
                .map(|_| (1 + rng.below(3) as usize, 1 + rng.below(67) as usize))
                .collect();
            let seeds: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.next_u64()).collect();
            let mut words = vec![0u64; 1 << rng.below(5)];
            let mut inserted = rng.next_u64();
            for iv in 0..12u64 {
                match rng.below(8) {
                    // Empty and full filters, and (rarely) a new geometry.
                    0 => words.fill(0),
                    1 => words.fill(u64::MAX),
                    2 if rng.chance(0.3) => words = vec![0; 1 << rng.below(5)],
                    _ => {
                        for w in words.iter_mut() {
                            if rng.chance(0.3) {
                                *w |= 1 << rng.below(64);
                            }
                        }
                    }
                }
                inserted = inserted.wrapping_add(rng.below(1000));
                let shape = rng.below(6);
                let grids: Vec<CounterGrid> = dims
                    .iter()
                    .map(|&(stages, buckets)| {
                        let data = value_array(&mut rng, stages * buckets, shape);
                        CounterGrid::from_data(stages, buckets, data).unwrap()
                    })
                    .collect();
                let mut grids = grids.into_iter();
                let mut grid = || grids.next().unwrap();
                let snap = IntervalSnapshot {
                    rs_sip_dport: grid(),
                    rs_sip_dport_verifier: grid(),
                    rs_dip_dport: grid(),
                    rs_dip_dport_verifier: grid(),
                    rs_sip_dip: grid(),
                    rs_sip_dip_verifier: grid(),
                    os: grid(),
                    twod_sipdport_dip: grid(),
                    twod_sipdip_dport: grid(),
                    active_services: BloomFilter::from_parts(
                        words.clone(),
                        seeds.clone(),
                        inserted,
                    )
                    .unwrap(),
                    syn_count: rng.next_u64() >> rng.below(64),
                    syn_ack_count: rng.below(1000),
                    fin_rst_count: u64::MAX,
                    fingerprint: rng.next_u64(),
                };
                assert_eq!(
                    encode_keyframe(&snap),
                    reference::encode_keyframe(&snap),
                    "case {case} interval {iv}"
                );
            }
        }

        let snap = sample(20, 300);
        assert_eq!(encode_keyframe(&snap), reference::encode_keyframe(&snap));
    }

    /// The stand-in encoder emits the keyframe whatever ack it is told
    /// of, and never a delta.
    #[test]
    fn encoder_stand_in_keyframes_whatever_the_ack() {
        let snap = sample(18, 300);
        let mut enc = SnapshotEncoder;
        for (interval, acked) in [(0, None), (1, Some(0)), (7, Some(6)), (8, Some(3))] {
            let encoded = enc.encode(interval, &snap, acked);
            assert!(!encoded.is_delta);
            assert_eq!(encoded.payload, encode_keyframe(&snap));
        }
    }
}
