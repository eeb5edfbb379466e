//! Codec v2: sparse + delta snapshot payloads.
//!
//! The v1 payload ([`crate::codec`]) spends one byte per counter even when
//! a bucket is zero — and outside attack hot spots almost every bucket is.
//! v2 attacks the two remaining cost centres:
//!
//! * **Sparse stages** — each grid stage (and the Bloom word array) is
//!   encoded either densely (v1-style varints) or as runs of non-zero
//!   values with zero-gap prefixes, whichever is smaller *for that stage*.
//!   A quiet stage costs two bytes instead of one byte per bucket. The
//!   encoder decides in one scan, skipping all-zero chunks 8 values at a
//!   time, writing the sparse form as it goes and only costing the dense
//!   one.
//! * **Delta frames** — the cumulative active-service Bloom filter
//!   (megabytes of raw words in a long run) may be encoded as an XOR
//!   residual against the previous **acked** interval: just the bits
//!   newly set this interval. Grids and packet counters reset every
//!   interval, so a residual against a cleared array would span the
//!   union of old and new support and only ever grow the payload — they
//!   stay absolute (sparse) in both modes. Periodic keyframes bound how
//!   much history a fresh collector needs.
//!
//! The delta chain is *ack-gated*: the sender only emits a delta against a
//! baseline the collector has explicitly acknowledged decoding
//! ([`crate::wire::encode_ack`]), and falls back to a keyframe whenever
//! the ack has not arrived. Every frame that reaches a decoder is
//! therefore decodable on its own chain state — drops, reordering and
//! duplication can break nothing; at worst they cost compression.
//!
//! Wire layout of a v2 payload (CRC-covered by the frame header):
//!
//! ```text
//! flags              u8       bit0: 1 = delta, others must be zero
//! [delta] baseline   uvarint  interval the residuals are relative to
//! fingerprint        u64      absolute in both modes
//! syn/syn_ack/fin_rst uvarint absolute in both modes
//! 9 × grid:                   absolute in both modes
//!   stages, buckets  uvarint
//!   per stage: mode  u8       0 = dense, 1 = sparse
//!     dense:  buckets × zigzag varint
//!     sparse: nruns uvarint, runs of (gap uvarint, len uvarint, len × zigzag varint)
//! bloom:
//!   words, seeds     uvarint
//!   inserted                  keyframe: uvarint · delta: zigzag residual
//!   mode             u8       0 = dense, 1 = sparse
//!     dense:  words × raw u64 (keyframe: absolute · delta: XOR vs baseline)
//!     sparse: nruns uvarint, runs of (gap uvarint, len uvarint, len × raw u64)
//!   seeds × raw u64  absolute in both modes
//! ```
//!
//! All residual arithmetic is wrapping, so `i64::MIN`/`i64::MAX` counters
//! round-trip exactly. The decoder carries the same defensive posture as
//! v1: bounds-checked reads, declared sizes capped before allocation, and
//! typed [`CodecError`]s for every failure.

use crate::codec::{
    self, put_u64, put_uvarint, zigzag, CodecError, Reader, MAX_BLOOM_SEEDS, MAX_BLOOM_WORDS,
    MAX_GRID_CELLS,
};
use hifind::{IntervalSnapshot, SnapshotShape};
use hifind_hashing::BloomFilter;
use hifind_sketch::{simd, CounterGrid};
use std::collections::BTreeMap;
use std::ops::Range;

/// Payload flag bit: this frame carries residuals vs. a baseline.
const FLAG_DELTA: u8 = 0x01;

/// Stage/bloom encoding mode bytes.
const MODE_DENSE: u8 = 0;
const MODE_SPARSE: u8 = 1;

/// Keyframe cadence: after this many consecutive deltas the encoder emits
/// a full keyframe even when the chain is intact, so a collector that
/// lost its retention (restart, eviction) is guaranteed a fresh baseline
/// within a bounded number of intervals.
pub const DEFAULT_KEYFRAME_EVERY: u32 = 8;

/// How many decoded intervals the receiver retains per router as delta
/// baselines. Reordered or duplicated frames only ever reference recent
/// intervals (the sender's baseline is always its previous interval), so
/// a short window suffices.
const RETAIN_PER_ROUTER: usize = 4;

/// Upper bound on distinct router ids holding retention state, so a flood
/// of forged router ids cannot grow receiver memory without bound.
const MAX_CHAIN_ROUTERS: usize = 1024;

/// Number of bytes `put_uvarint` would emit for `v`.
fn uvarint_len(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    usize::try_from(bits.div_ceil(7)).unwrap_or(10).max(1)
}

fn wrapping_diff_u64(new: u64, old: u64) -> i64 {
    i64::from_le_bytes(new.wrapping_sub(old).to_le_bytes())
}

fn wrapping_apply_u64(old: u64, residual: i64) -> u64 {
    old.wrapping_add(u64::from_le_bytes(residual.to_le_bytes()))
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
/// on a tie). `values` are already residuals in delta mode; zero means
/// "unchanged".
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

/// The grid section both frame kinds share: fingerprint, packet counters
/// and the nine grids, all absolute.
fn put_grid_section(out: &mut Vec<u8>, snap: &IntervalSnapshot) {
    put_u64(out, snap.fingerprint);
    put_uvarint(out, snap.syn_count);
    put_uvarint(out, snap.syn_ack_count);
    put_uvarint(out, snap.fin_rst_count);
    for grid in snap.grids() {
        put_uvarint(out, codec::len_u64(grid.stages()));
        put_uvarint(out, codec::len_u64(grid.buckets()));
        for stage in 0..grid.stages() {
            encode_values(out, grid.stage(stage));
        }
    }
}

/// The Bloom tail of a frame. `words` are `bloom`'s own in a keyframe and
/// their XOR against the baseline's in a delta, where `base_inserted`
/// turns `inserted` into a residual too.
fn put_bloom(out: &mut Vec<u8>, bloom: &BloomFilter, words: &[u64], base_inserted: Option<u64>) {
    put_uvarint(out, codec::len_u64(bloom.bit_words().len()));
    put_uvarint(out, codec::len_u64(bloom.hash_seeds().len()));
    match base_inserted {
        Some(base) => put_uvarint(out, zigzag(wrapping_diff_u64(bloom.inserted(), base))),
        None => put_uvarint(out, bloom.inserted()),
    }
    encode_values(out, words);
    for &s in bloom.hash_seeds() {
        put_u64(out, s);
    }
}

/// A keyframe payload and where its grid section ends (it starts right
/// after the flags byte).
fn keyframe_with_grid_end(snap: &IntervalSnapshot) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(1 << 12);
    out.push(0u8); // flags: keyframe
    put_grid_section(&mut out, snap);
    let grid_end = out.len();
    let bloom = &snap.active_services;
    put_bloom(&mut out, bloom, bloom.bit_words(), None);
    (out, grid_end)
}

/// Whether `bloom` can carry XOR residuals against a baseline with these
/// words and seeds.
fn same_bloom_shape(bloom: &BloomFilter, base_words: &[u64], base_seeds: &[u64]) -> bool {
    bloom.bit_words().len() == base_words.len() && bloom.hash_seeds() == base_seeds
}

/// Serializes `snap` as a standalone v2 keyframe payload.
pub fn encode_keyframe(snap: &IntervalSnapshot) -> Vec<u8> {
    keyframe_with_grid_end(snap).0
}

/// Serializes `snap` as a delta against `base` (the snapshot of interval
/// `base_interval`, which the receiver must still retain): grids and
/// packet counters are absolute exactly as in a keyframe, and only the
/// cumulative Bloom filter carries residuals.
///
/// # Errors
///
/// [`CodecError::DeltaShapeMismatch`] when the two snapshots disagree on
/// Bloom geometry — XOR residuals between different shapes are
/// meaningless.
pub fn encode_delta(
    snap: &IntervalSnapshot,
    base: &IntervalSnapshot,
    base_interval: u64,
) -> Result<Vec<u8>, CodecError> {
    let (bloom, base_bloom) = (&snap.active_services, &base.active_services);
    if !same_bloom_shape(bloom, base_bloom.bit_words(), base_bloom.hash_seeds()) {
        return Err(CodecError::DeltaShapeMismatch { at: "bloom" });
    }
    let mut out = Vec::with_capacity(1 << 12);
    out.push(FLAG_DELTA);
    put_uvarint(&mut out, base_interval);
    put_grid_section(&mut out, snap);
    let xored: Vec<u64> = bloom
        .bit_words()
        .iter()
        .zip(base_bloom.bit_words())
        .map(|(&n, &o)| n ^ o)
        .collect();
    put_bloom(&mut out, bloom, &xored, Some(base_bloom.inserted()));
    Ok(out)
}

/// What the leading flag byte of a v2 payload declares.
pub enum V2Kind {
    /// A standalone snapshot.
    Keyframe,
    /// Residuals against the named baseline interval.
    Delta {
        /// Interval the residuals are relative to.
        baseline: u64,
    },
}

/// Reads just the flags (and baseline interval, for deltas) so a caller
/// can fetch chain state before committing to a full decode.
///
/// # Errors
///
/// Typed [`CodecError`]s for an empty payload, unknown flag bits, or a
/// truncated baseline varint.
pub fn peek_kind(payload: &[u8]) -> Result<V2Kind, CodecError> {
    let mut r = Reader::new(payload);
    match r.u8("flags")? {
        0 => Ok(V2Kind::Keyframe),
        FLAG_DELTA => Ok(V2Kind::Delta {
            baseline: r.uvarint("baseline_interval")?,
        }),
        other => Err(CodecError::BadFlags {
            flags: u64::from(other),
        }),
    }
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
    /// Absolute, whichever wire form the frame came in.
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

/// Parses and checks a whole v2 payload. `base` is the baseline's
/// absolute filter, given exactly for a delta; `shape` is the receiver's.
pub(crate) fn parse(
    payload: &[u8],
    base: Option<&BloomFilter>,
    shape: Option<&SnapshotShape>,
) -> Result<FrameRuns, CodecError> {
    if matches!(peek_kind(payload)?, V2Kind::Delta { .. }) != base.is_some() {
        return Err(CodecError::DeltaShapeMismatch { at: "flags" });
    }
    let mut r = Reader::new(payload);
    r.u8("flags")?;
    if base.is_some() {
        r.uvarint("baseline_interval")?;
    }
    parse_body(r, shape, GridRuns::read_moded, |r, words, seeds| {
        if base.is_some_and(|b| b.bit_words().len() != words || b.hash_seeds().len() != seeds) {
            return Err(CodecError::DeltaShapeMismatch { at: "bloom" });
        }
        let inserted = match base {
            Some(b) => wrapping_apply_u64(b.inserted(), r.ivarint("bloom_inserted")?),
            None => r.uvarint("bloom_inserted")?,
        };
        // A delta's words are XOR residuals against the baseline's.
        let mut bits = base.map_or_else(|| vec![0; words], |b| b.bit_words().to_vec());
        parse_values::<u64>(r, words, "bloom_words", |start, end, r| {
            for slot in &mut bits[start..end] {
                *slot ^= r.u64("bloom_words")?;
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
/// Typed [`CodecError`]s for every structural violation; a delta payload
/// fed here fails with [`CodecError::DeltaShapeMismatch`] at `flags`.
pub fn decode_keyframe(payload: &[u8]) -> Result<IntervalSnapshot, CodecError> {
    Ok(parse(payload, None, None)?.into_snapshot())
}

/// Parses a standalone v2 keyframe recorded under `shape`: fingerprint,
/// grid dimensions and Bloom geometry are all checked.
///
/// # Errors
///
/// As [`decode_keyframe`], plus [`CodecError::ShapeMismatch`] for any
/// shape or fingerprint other than `shape`'s.
pub fn parse_keyframe(payload: &[u8], shape: &SnapshotShape) -> Result<FrameRuns, CodecError> {
    let frame = parse(payload, None, Some(shape))?;
    if frame.fingerprint != shape.fingerprint {
        return Err(CodecError::ShapeMismatch { at: "fingerprint" });
    }
    Ok(frame)
}

/// Parses a v2 delta payload by applying its residuals onto `base`.
///
/// # Errors
///
/// Typed [`CodecError`]s, including shape mismatches against `base`.
pub fn decode_delta(
    payload: &[u8],
    base: &IntervalSnapshot,
) -> Result<IntervalSnapshot, CodecError> {
    Ok(parse(payload, Some(&base.active_services), None)?.into_snapshot())
}

/// What one v2 decode through a [`ChainStore`] produced.
pub struct ChainDecoded {
    /// The reconstructed snapshot.
    pub snapshot: IntervalSnapshot,
    /// Whether the wire form was a delta (for telemetry).
    pub was_delta: bool,
}

/// Receiver-side delta baselines by router id: each recently received
/// interval's absolute active-service filter, all a v2 delta is relative
/// to (its grids are absolute). Depth and router count are capped, so a
/// node that checks frames against its configuration holds at most
/// `MAX_CHAIN_ROUTERS × RETAIN_PER_ROUTER × 8` bytes per configured Bloom
/// word: 512 MiB for the paper's 2^20-bit filter, 32 MiB for 2^16 bits.
#[derive(Default)]
pub struct ChainStore {
    per_router: BTreeMap<u32, Chain>,
    /// Inserts so far; a chain's `last_insert` ranks its staleness.
    inserts: u64,
}

/// One router's retained intervals.
#[derive(Default)]
struct Chain {
    /// [`ChainStore::inserts`] as of this router's latest insert.
    last_insert: u64,
    intervals: BTreeMap<u64, BloomFilter>,
}

impl ChainStore {
    /// An empty store.
    pub fn new() -> Self {
        ChainStore::default()
    }

    /// Retains `frame`'s filter as the baseline of `(router_id, interval)`.
    pub(crate) fn retain(&mut self, router_id: u32, interval: u64, frame: &FrameRuns) {
        if !self.per_router.contains_key(&router_id) && self.per_router.len() >= MAX_CHAIN_ROUTERS {
            // A flood of forged router ids must not grow memory without
            // bound — nor push out a live router: evict the chain that
            // went longest without an insert (a real router that loses
            // its chain simply costs one keyframe).
            let stalest = self
                .per_router
                .iter()
                .min_by_key(|(_, chain)| chain.last_insert)
                .map(|(&id, _)| id);
            if let Some(stalest) = stalest {
                self.per_router.remove(&stalest);
            }
        }
        self.inserts += 1;
        let chain = self.per_router.entry(router_id).or_default();
        chain.last_insert = self.inserts;
        chain.intervals.insert(interval, frame.bloom.clone());
        while chain.intervals.len() > RETAIN_PER_ROUTER {
            chain.intervals.pop_first();
        }
    }

    fn retained(&self, router_id: u32, interval: u64) -> Option<&BloomFilter> {
        self.per_router.get(&router_id)?.intervals.get(&interval)
    }

    /// Parses one v2 payload for `(router_id, interval)` without changing
    /// the store: the caller retains it once it passed every check. A
    /// delta for an interval already retained (a duplicate) replays: its
    /// grids are absolute, its filter is the one retained for it.
    pub(crate) fn parse(
        &self,
        router_id: u32,
        interval: u64,
        payload: &[u8],
        shape: Option<&SnapshotShape>,
    ) -> Result<(FrameRuns, bool), CodecError> {
        let V2Kind::Delta { baseline } = peek_kind(payload)? else {
            return Ok((parse(payload, None, shape)?, false));
        };
        if let Some(own) = self.retained(router_id, interval) {
            let mut frame = parse(payload, Some(own), shape)?;
            frame.bloom = own.clone();
            return Ok((frame, true));
        }
        let base = self
            .retained(router_id, baseline)
            .ok_or(CodecError::DeltaBaselineMissing { baseline })?;
        Ok((parse(payload, Some(base), shape)?, true))
    }

    /// Decodes one v2 payload for `(router_id, interval)`, retaining it so
    /// later deltas can chain off it (duplicates replay as in `parse`).
    ///
    /// # Errors
    ///
    /// All structural [`CodecError`]s, plus
    /// [`CodecError::DeltaBaselineMissing`] when a delta references an
    /// interval this store no longer (or never) retained.
    pub fn decode(
        &mut self,
        router_id: u32,
        interval: u64,
        payload: &[u8],
    ) -> Result<ChainDecoded, CodecError> {
        let (frame, was_delta) = self.parse(router_id, interval, payload, None)?;
        self.retain(router_id, interval, &frame);
        Ok(ChainDecoded {
            snapshot: frame.into_snapshot(),
            was_delta,
        })
    }
}

/// What [`SnapshotEncoder::encode`] produced for one interval.
pub struct EncodedV2 {
    /// The payload to ship (delta or keyframe form).
    pub payload: Vec<u8>,
    /// The standalone keyframe form of the same snapshot — identical to
    /// `payload` for keyframes; for deltas, the form safe to checkpoint
    /// or re-ship after a collector restart.
    pub keyframe: Vec<u8>,
    /// Whether `payload` is a delta.
    pub is_delta: bool,
}

/// Sender-side v2 encoder. It retains the last encoded interval's Bloom
/// filter (the only part of a snapshot a delta is relative to) and emits
/// a delta against it only when the caller has seen the collector's ack
/// for exactly that interval; otherwise a keyframe. Periodic keyframes ([`DEFAULT_KEYFRAME_EVERY`]) bound loss recovery
/// regardless of acks.
///
/// Each interval's grids are encoded once: the keyframe and the delta
/// share one grid section and differ only in their flags/baseline head
/// and their Bloom tail.
pub struct SnapshotEncoder {
    keyframe_every: u32,
    since_keyframe: u32,
    last: Option<Baseline>,
}

/// The last encoded interval's Bloom filter, kept as raw parts so its
/// buffers are reused from one interval to the next.
#[derive(Default)]
struct Baseline {
    interval: u64,
    words: Vec<u64>,
    seeds: Vec<u64>,
    inserted: u64,
}

impl Default for SnapshotEncoder {
    fn default() -> Self {
        SnapshotEncoder::new(DEFAULT_KEYFRAME_EVERY)
    }
}

impl SnapshotEncoder {
    /// An encoder that lets at most `keyframe_every` consecutive deltas
    /// through before it emits a keyframe (`0` is treated as `1`, which
    /// alternates keyframe and delta).
    pub fn new(keyframe_every: u32) -> Self {
        SnapshotEncoder {
            keyframe_every: keyframe_every.max(1),
            since_keyframe: 0,
            last: None,
        }
    }

    /// Drops the retained baseline, forcing the next frame to be a
    /// keyframe (used when the upstream session is torn down).
    pub fn reset(&mut self) {
        self.last = None;
        self.since_keyframe = 0;
    }

    /// Encodes `snap` for `interval`. `acked` is the highest interval the
    /// collector has acknowledged decoding this session (`None` before
    /// the first ack).
    pub fn encode(
        &mut self,
        interval: u64,
        snap: &IntervalSnapshot,
        acked: Option<u64>,
    ) -> EncodedV2 {
        let (keyframe, grid_end) = keyframe_with_grid_end(snap);
        let bloom = &snap.active_services;
        let mut last = self.last.take();
        let delta = match (last.as_mut(), acked) {
            (Some(base), Some(acked_iv))
                if acked_iv >= base.interval
                    && self.since_keyframe < self.keyframe_every
                    && same_bloom_shape(bloom, &base.words, &base.seeds) =>
            {
                let mut payload = Vec::with_capacity(keyframe.len());
                payload.push(FLAG_DELTA);
                put_uvarint(&mut payload, base.interval);
                payload.extend_from_slice(&keyframe[1..grid_end]);
                // The baseline's words become the XOR residual in place;
                // they are overwritten with this interval's words below.
                for (old, &new) in base.words.iter_mut().zip(bloom.bit_words()) {
                    *old ^= new;
                }
                put_bloom(&mut payload, bloom, &base.words, Some(base.inserted));
                Some(payload)
            }
            _ => None,
        };
        let mut base = last.unwrap_or_default();
        base.interval = interval;
        base.words.clear();
        base.words.extend_from_slice(bloom.bit_words());
        base.seeds.clear();
        base.seeds.extend_from_slice(bloom.hash_seeds());
        base.inserted = bloom.inserted();
        self.last = Some(base);
        match delta {
            // A delta that does not actually save bytes (attack churn
            // touching most buckets) is pointless risk; ship the keyframe.
            Some(payload) if payload.len() < keyframe.len() => {
                self.since_keyframe += 1;
                EncodedV2 {
                    payload,
                    keyframe,
                    is_delta: true,
                }
            }
            _ => {
                self.since_keyframe = 0;
                EncodedV2 {
                    payload: keyframe.clone(),
                    keyframe,
                    is_delta: false,
                }
            }
        }
    }
}

/// The two-scan encoder this module's single-scan one replaced, kept
/// verbatim as the oracle of the byte-identity test below: the wire bytes
/// must never depend on which of the two produced them.
#[cfg(test)]
mod reference {
    use super::{
        codec, decode_keyframe, put_u64, put_uvarint, uvarint_len, wrapping_diff_u64, zigzag,
        CodecError, EncodedV2, IntervalSnapshot, FLAG_DELTA, MODE_DENSE, MODE_SPARSE,
    };

    /// Encodes one value array as whichever of dense/sparse is smaller.
    /// `values` are already residuals in delta mode; zero means "unchanged".
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

    /// Same dense/sparse choice for raw `u64` Bloom words (absolute in
    /// keyframes, XOR residuals in deltas; zero means "unchanged").
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

    /// Serializes `snap` as a delta against `base`.
    pub(super) fn encode_delta(
        snap: &IntervalSnapshot,
        base: &IntervalSnapshot,
        base_interval: u64,
    ) -> Result<Vec<u8>, CodecError> {
        let (bloom, base_bloom) = (&snap.active_services, &base.active_services);
        if bloom.bit_words().len() != base_bloom.bit_words().len()
            || bloom.hash_seeds() != base_bloom.hash_seeds()
        {
            return Err(CodecError::DeltaShapeMismatch { at: "bloom" });
        }
        let mut out = Vec::with_capacity(1 << 12);
        out.push(FLAG_DELTA);
        put_uvarint(&mut out, base_interval);
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
        put_uvarint(&mut out, codec::len_u64(bloom.bit_words().len()));
        put_uvarint(&mut out, codec::len_u64(bloom.hash_seeds().len()));
        put_uvarint(
            &mut out,
            zigzag(wrapping_diff_u64(bloom.inserted(), base_bloom.inserted())),
        );
        let xored: Vec<u64> = bloom
            .bit_words()
            .iter()
            .zip(base_bloom.bit_words())
            .map(|(&n, &o)| n ^ o)
            .collect();
        encode_words(&mut out, &xored);
        for &s in bloom.hash_seeds() {
            put_u64(&mut out, s);
        }
        Ok(out)
    }

    /// The encoder that retained the last interval as keyframe bytes and
    /// decoded them again to reach their Bloom filter.
    pub(super) struct SnapshotEncoder {
        pub(super) keyframe_every: u32,
        pub(super) since_keyframe: u32,
        pub(super) last: Option<(u64, Vec<u8>)>,
    }

    impl SnapshotEncoder {
        pub(super) fn encode(
            &mut self,
            interval: u64,
            snap: &IntervalSnapshot,
            acked: Option<u64>,
        ) -> EncodedV2 {
            let keyframe = encode_keyframe(snap);
            let delta = match (&self.last, acked) {
                (Some((base_iv, base_bytes)), Some(acked_iv))
                    if acked_iv >= *base_iv && self.since_keyframe < self.keyframe_every =>
                {
                    decode_keyframe(base_bytes)
                        .ok()
                        .and_then(|base| encode_delta(snap, &base, *base_iv).ok())
                        .map(|payload| (*base_iv, payload))
                }
                _ => None,
            };
            self.last = Some((interval, keyframe.clone()));
            match delta {
                // A delta that does not actually save bytes (attack churn
                // touching most buckets) is pointless risk; ship the keyframe.
                Some((_, payload)) if payload.len() < keyframe.len() => {
                    self.since_keyframe += 1;
                    EncodedV2 {
                        payload,
                        keyframe,
                        is_delta: true,
                    }
                }
                _ => {
                    self.since_keyframe = 0;
                    EncodedV2 {
                        payload: keyframe.clone(),
                        keyframe,
                        is_delta: false,
                    }
                }
            }
        }
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

    /// A pair of successive snapshots from one recorder (so the Bloom
    /// filter is cumulative across them, like real intervals).
    fn sample_pair(seed: u64) -> (IntervalSnapshot, IntervalSnapshot) {
        let cfg = HiFindConfig::small(seed);
        let mut r = SketchRecorder::new(&cfg).unwrap();
        for i in 0..300u32 {
            r.record(&Packet::syn(
                u64::from(i),
                [10, 0, 0, i as u8].into(),
                2000,
                [129, 105, 0, 1].into(),
                80,
            ));
            r.record(&Packet::syn_ack(
                u64::from(i),
                [10, 0, 0, i as u8].into(),
                2000,
                [129, 105, 0, 1].into(),
                80,
            ));
        }
        let a = r.take_snapshot();
        for i in 0..40u32 {
            r.record(&Packet::syn(
                1000 + u64::from(i),
                [10, 1, 0, i as u8].into(),
                2100,
                [129, 105, 0, 2].into(),
                443,
            ));
        }
        (a, r.take_snapshot())
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
    fn delta_round_trip_is_exact() {
        let (base, snap) = sample_pair(11);
        let payload = encode_delta(&snap, &base, 0).unwrap();
        let back = decode_delta(&payload, &base).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn delta_shrinks_the_cumulative_bloom() {
        let (base, snap) = sample_pair(12);
        let keyframe = encode_keyframe(&snap);
        let delta = encode_delta(&snap, &base, 0).unwrap();
        assert!(
            delta.len() < keyframe.len(),
            "delta {} should be under the keyframe {}",
            delta.len(),
            keyframe.len()
        );
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
        let delta = encode_delta(&snap, &base, 3).unwrap();
        assert_eq!(decode_delta(&delta, &base).unwrap(), snap);
    }

    #[test]
    fn truncation_anywhere_is_typed_never_a_panic() {
        let (base, snap) = sample_pair(14);
        for payload in [
            encode_keyframe(&snap),
            encode_delta(&snap, &base, 0).unwrap(),
        ] {
            for cut in (0..payload.len()).step_by(13) {
                let kind = peek_kind(&payload).unwrap();
                let r = match kind {
                    V2Kind::Keyframe => decode_keyframe(&payload[..cut]),
                    V2Kind::Delta { .. } => decode_delta(&payload[..cut], &base),
                };
                assert!(r.is_err(), "cut at {cut} must fail");
            }
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
        payload[0] = 0x40;
        assert!(matches!(
            decode_keyframe(&payload),
            Err(CodecError::BadFlags { .. })
        ));
        assert!(matches!(
            peek_kind(&payload),
            Err(CodecError::BadFlags { .. })
        ));
        assert!(peek_kind(&[]).is_err());

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
        assert!(matches!(
            peek_kind(&flags),
            Err(CodecError::BadFlags { flags: 0x80 })
        ));
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

    #[test]
    fn chain_store_decodes_deltas_and_replays_duplicates() {
        let (a, b) = sample_pair(16);
        let mut chains = ChainStore::new();
        let key = encode_keyframe(&a);
        let out = chains.decode(9, 0, &key).unwrap();
        assert!(!out.was_delta);
        assert_eq!(out.snapshot, a);
        let delta = encode_delta(&b, &a, 0).unwrap();
        let out = chains.decode(9, 1, &delta).unwrap();
        assert!(out.was_delta);
        assert_eq!(out.snapshot, b);
        // A duplicated delivery of the same delta replays the retained
        // content instead of re-applying residuals onto the wrong base.
        let dup = chains.decode(9, 1, &delta).unwrap();
        assert_eq!(dup.snapshot, b);
        // A delta whose baseline was never seen is a typed chain break.
        let orphan = encode_delta(&b, &a, 40).unwrap();
        assert!(matches!(
            chains.decode(9, 41, &orphan),
            Err(CodecError::DeltaBaselineMissing { baseline: 40 })
        ));
        // Other routers never share chain state.
        assert!(matches!(
            chains.decode(10, 1, &delta),
            Err(CodecError::DeltaBaselineMissing { .. })
        ));
    }

    #[test]
    fn chain_store_retention_is_bounded() {
        let snap = sample(17, 10);
        let key = encode_keyframe(&snap);
        let mut chains = ChainStore::new();
        for iv in 0..20u64 {
            chains.decode(1, iv, &key).unwrap();
        }
        assert!(chains.per_router.get(&1).unwrap().intervals.len() <= RETAIN_PER_ROUTER);
        for router in 0..2000u32 {
            chains.decode(router, 0, &key).unwrap();
        }
        assert!(chains.per_router.len() <= MAX_CHAIN_ROUTERS);
    }

    /// A burst of forged router ids evicts the forgeries, not a live
    /// router that keeps its chain fresh — whatever its id.
    #[test]
    fn chain_store_evicts_the_stalest_router_not_the_lowest_id() {
        let (a, b) = sample_pair(19);
        let forged = encode_keyframe(&a);
        let mut enc = SnapshotEncoder::new(u32::MAX);
        let mut chains = ChainStore::new();
        let first = enc.encode(0, &a, None);
        chains.decode(0, 0, &first.payload).unwrap();
        let mut next_forged = 1u32;
        for iv in 1..=20u64 {
            let encoded = enc.encode(iv, &b, Some(iv - 1));
            assert!(encoded.is_delta);
            let out = chains
                .decode(0, iv, &encoded.payload)
                .unwrap_or_else(|e| panic!("router 0 lost its chain at interval {iv}: {e}"));
            assert!(out.was_delta);
            assert_eq!(out.snapshot, b);
            for _ in 0..100 {
                chains.decode(next_forged, iv, &forged).unwrap();
                next_forged += 1;
            }
        }
        assert_eq!(next_forged, 2001);
        assert_eq!(chains.per_router.len(), MAX_CHAIN_ROUTERS);
        assert!(chains.per_router.contains_key(&0));
    }

    /// The store's worst case is `MAX_CHAIN_ROUTERS × RETAIN_PER_ROUTER`
    /// filters of the node's configured size: a flood of forged router
    /// ids fills it to exactly that, and frames declaring a larger filter
    /// are refused before they could be retained.
    #[test]
    fn chain_store_bytes_stay_within_the_configured_bound_under_a_router_id_flood() {
        let cfg = HiFindConfig::small(21);
        let shape = SnapshotShape::of_config(&cfg).unwrap();
        let honest = encode_keyframe(&SketchRecorder::new(&cfg).unwrap().take_snapshot());
        let mut big = cfg;
        big.active_service_bloom_bits = 1 << 20;
        let mut oversized = SketchRecorder::new(&big).unwrap().take_snapshot();
        oversized.fingerprint = cfg.fingerprint();
        let oversized = encode_keyframe(&oversized);
        let words = cfg.active_service_bloom_bits / 64;
        let bound = MAX_CHAIN_ROUTERS * RETAIN_PER_ROUTER * words * 8;
        let mut chains = ChainStore::new();
        for router in 0..4000u32 {
            let payload = if router % 2 == 0 { &honest } else { &oversized };
            for iv in 0..5u64 {
                let frame =
                    crate::wire::encode_frame_v2(router, iv, cfg.fingerprint(), payload).unwrap();
                let header = crate::wire::parse_header(
                    &frame[..crate::wire::HEADER_LEN].try_into().unwrap(),
                    crate::wire::DEFAULT_MAX_PAYLOAD,
                )
                .unwrap();
                let parsed = crate::wire::parse_payload(
                    &header,
                    &frame[crate::wire::HEADER_LEN..],
                    &mut chains,
                    Some(&shape),
                );
                assert_eq!(parsed.is_ok(), router % 2 == 0, "router {router}");
            }
        }
        let retained: usize = chains
            .per_router
            .values()
            .flat_map(|chain| chain.intervals.values())
            .map(BloomFilter::memory_bytes)
            .sum();
        assert_eq!(retained, bound);
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

    /// Every value array shape the sketches produce, the wire's edge
    /// values, and random ack schedules: the single-scan encoder must emit
    /// exactly the reference encoder's bytes and frame-kind choices.
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
            let keyframe_every = 1 + rng.below(9) as u32;
            let mut enc = SnapshotEncoder::new(keyframe_every);
            let mut oracle = reference::SnapshotEncoder {
                keyframe_every,
                since_keyframe: 0,
                last: None,
            };
            let dims: Vec<(usize, usize)> = (0..9)
                .map(|_| (1 + rng.below(3) as usize, 1 + rng.below(67) as usize))
                .collect();
            let seeds: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.next_u64()).collect();
            let mut words = vec![0u64; 1 << rng.below(5)];
            let mut inserted = rng.next_u64();
            let mut prev: Option<IntervalSnapshot> = None;
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
                // No ack yet, a stale one, or the previous interval's.
                let acked = match rng.below(3) {
                    0 => None,
                    1 => iv.checked_sub(2),
                    _ => iv.checked_sub(1),
                };
                let got = enc.encode(iv, &snap, acked);
                let want = oracle.encode(iv, &snap, acked);
                let at = format!("case {case} interval {iv} acked {acked:?}");
                assert_eq!(got.is_delta, want.is_delta, "{at}");
                assert_eq!(got.payload, want.payload, "{at}");
                assert_eq!(got.keyframe, want.keyframe, "{at}");
                assert_eq!(
                    encode_keyframe(&snap),
                    reference::encode_keyframe(&snap),
                    "{at}"
                );
                if let Some(base) = &prev {
                    assert_eq!(
                        encode_delta(&snap, base, iv - 1),
                        reference::encode_delta(&snap, base, iv - 1),
                        "{at}"
                    );
                }
                if rng.chance(0.05) {
                    enc.reset();
                    oracle.last = None;
                    oracle.since_keyframe = 0;
                }
                prev = Some(snap);
            }
        }

        let (base, snap) = sample_pair(20);
        assert_eq!(encode_keyframe(&snap), reference::encode_keyframe(&snap));
        assert_eq!(
            encode_delta(&snap, &base, 0),
            reference::encode_delta(&snap, &base, 0)
        );
    }

    #[test]
    fn encoder_is_ack_gated_and_keyframes_periodically() {
        let (a, b) = sample_pair(18);
        let mut enc = SnapshotEncoder::new(3);
        // No ack yet: keyframe.
        let e0 = enc.encode(0, &a, None);
        assert!(!e0.is_delta);
        // Ack for interval 0 seen: interval 1 may delta against it.
        let e1 = enc.encode(1, &b, Some(0));
        assert!(e1.is_delta);
        assert_eq!(decode_delta(&e1.payload, &a).unwrap(), b);
        assert_eq!(decode_keyframe(&e1.keyframe).unwrap(), b);
        // Two more acked deltas, then the periodic keyframe fires.
        assert!(enc.encode(2, &b, Some(1)).is_delta);
        assert!(enc.encode(3, &b, Some(2)).is_delta);
        assert!(!enc.encode(4, &b, Some(3)).is_delta, "keyframe_every=3");
        // Stale ack (previous interval unacked): keyframe.
        assert!(!enc.encode(5, &b, Some(3)).is_delta);
        // Reset forces a keyframe even with a fresh ack.
        assert!(enc.encode(6, &b, Some(5)).is_delta);
        enc.reset();
        assert!(!enc.encode(7, &b, Some(6)).is_delta);
    }
}
