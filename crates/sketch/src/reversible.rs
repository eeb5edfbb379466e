//! The reversible sketch: UPDATE + COMBINE + INFERENCE.
//!
//! A reversible sketch (Schweller et al., IMC'04; Infocom'06) is a k-ary
//! sketch whose per-stage hash functions are *modular*
//! ([`hifind_hashing::ModularHash`]) over a *mangled* key
//! ([`hifind_hashing::Mangler`]). Because every 8-bit key word is hashed
//! independently into its own slice of the bucket index, the heavy keys can
//! be reconstructed from the heavy buckets word-by-word:
//!
//! 1. In every stage, find the buckets whose (forecast-error) value exceeds
//!    the threshold.
//! 2. For word position 0, keep the byte values whose index chunk matches a
//!    heavy bucket's chunk in at least `min_stages` stages; extend each
//!    survivor with word position 1, and so on. A candidate's compatible
//!    bucket set is tracked *per stage* so chunks must agree with a single
//!    bucket per stage, not a mixture. A byte's fate in a stage depends
//!    only on its index chunk, so each candidate is ANDed with the
//!    `2^chunk_bits` chunk masks of a stage once, not with 256 byte masks,
//!    and only the surviving bytes are visited.
//! 3. Un-mangle the reconstructed keys and verify their estimates (median
//!    over stages, plus an optional separate verification k-ary sketch)
//!    against the threshold.
//!
//! The search is output-sensitive: with balanced hash tables a candidate
//! byte survives a random stage with probability `2^-chunk_bits`, so
//! requiring agreement in `H−1` of `H` stages prunes almost everything that
//! is not actually heavy.

use crate::grid::CounterGrid;
use crate::kary::{KaryConfig, KarySketch};
use crate::simd::UPDATE_CHUNK;
use crate::{median_i64, SketchError};
use hifind_flow::keys::SketchKey;
use hifind_flow::rng::SplitMix64;
use hifind_hashing::{BucketHasher, Mangler, ModularHash};
use serde::{Deserialize, Serialize};

/// Configuration for a [`ReversibleSketch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RsConfig {
    /// Key width in bits (multiple of 8, ≤ 64).
    pub key_bits: u32,
    /// Number of hash stages (`H`; the paper uses 6).
    pub stages: usize,
    /// Buckets per stage (`m`, a power of two whose log is divisible by
    /// `key_bits / 8`).
    pub buckets: usize,
    /// Master seed for manglers and hash tables.
    pub seed: u64,
    /// Whether to apply IP mangling (on in the paper; off only for
    /// ablation).
    pub mangle: bool,
    /// Bucket count of the attached verification k-ary sketch, or `None`
    /// to disable it (the paper uses 2^14).
    pub verifier_buckets: Option<usize>,
}

impl RsConfig {
    /// Paper configuration for 48-bit keys ({SIP,Dport} / {DIP,Dport}):
    /// 6 stages × 2^12 buckets, 2^14-bucket verifier.
    pub fn paper_48bit(seed: u64) -> Self {
        RsConfig {
            key_bits: 48,
            stages: 6,
            buckets: 1 << 12,
            seed,
            mangle: true,
            verifier_buckets: Some(1 << 14),
        }
    }

    /// Paper configuration for 64-bit keys ({SIP,DIP}): 6 stages × 2^16
    /// buckets, 2^14-bucket verifier.
    pub fn paper_64bit(seed: u64) -> Self {
        RsConfig {
            key_bits: 64,
            stages: 6,
            buckets: 1 << 16,
            seed,
            mangle: true,
            verifier_buckets: Some(1 << 14),
        }
    }
}

/// Tuning knobs for [`ReversibleSketch::infer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferOptions {
    /// How many of the `H` stages a candidate may miss (have no compatible
    /// heavy bucket in) and still survive. `1` tolerates a single stage
    /// where the true key was pushed below threshold by colliding negative
    /// mass; `0` requires perfect agreement.
    pub miss_stages: usize,
    /// Hard cap on simultaneously-live candidates; the search reports
    /// truncation instead of exploding when an adversary (or a pathological
    /// threshold) makes everything heavy. The cap also bounds work: per
    /// word position each of at most `max_candidates` candidates costs
    /// `2^chunk_bits × H` mask ANDs of `⌈|H_i|/64⌉` words and a few
    /// 256-bit set operations per stage, plus one mask-row copy per
    /// surviving byte. [`InferStats::candidates_explored`] keeps its
    /// meaning — 256 byte extensions per live candidate per position, or
    /// `b + 1` on the candidate whose survivor at byte `b` truncates the
    /// search — so it counts work independently of how it is computed.
    pub max_candidates: usize,
    /// Whether to require the verification sketch (if the sketch has one)
    /// to confirm each output key's estimate.
    pub use_verifier: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            miss_stages: 1,
            max_candidates: 1 << 19,
            use_verifier: true,
        }
    }
}

/// A key recovered by inference, with its estimated value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeavyKey {
    /// The reconstructed (un-mangled) key, packed as by
    /// [`SketchKey::to_u64`].
    pub key: u64,
    /// The unbiased median estimate of the key's value in the queried grid.
    pub estimate: i64,
}

/// Search statistics from one inference run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferStats {
    /// Heavy buckets found per stage.
    pub heavy_buckets: Vec<usize>,
    /// Total candidate extensions examined: 256 per live candidate per
    /// word position (`b + 1` on a candidate that truncates at byte `b`).
    pub candidates_explored: u64,
    /// Whether the candidate cap was hit (results may be incomplete).
    pub truncated: bool,
    /// Reconstructed keys discarded because their estimate fell below the
    /// threshold.
    pub rejected_by_estimate: usize,
    /// Reconstructed keys discarded by the verification sketch.
    pub rejected_by_verifier: usize,
}

/// The outcome of [`ReversibleSketch::infer`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// Recovered heavy keys, sorted by descending estimate.
    pub keys: Vec<HeavyKey>,
    /// Search statistics.
    pub stats: InferStats,
}

impl InferenceResult {
    /// Decodes the recovered keys into a typed flow key.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `K::BITS` disagrees with the sketch width
    /// the result came from (the raw keys would be misinterpreted).
    pub fn typed<K: SketchKey>(&self) -> Vec<(K, i64)> {
        self.keys
            .iter()
            .map(|hk| (K::from_u64(hk.key), hk.estimate))
            .collect()
    }
}

/// A reversible sketch over packed keys of a fixed bit width.
///
/// See the [module documentation](self) for the algorithm; see
/// [`RsConfig::paper_48bit`] / [`RsConfig::paper_64bit`] for the paper's
/// parameterizations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ReversibleSketch {
    config: RsConfig,
    mangler: Mangler,
    hashes: Vec<ModularHash>,
    grid: CounterGrid,
    verifier: Option<KarySketch>,
    total: i64,
}

impl ReversibleSketch {
    /// Creates an empty reversible sketch.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::BadConfig`] if the key width / bucket count
    /// combination is not modular-hashable (see
    /// [`hifind_hashing::ModularHashError`]) or `stages == 0`.
    pub fn new(config: RsConfig) -> Result<Self, SketchError> {
        if config.stages == 0 {
            return Err(SketchError::BadConfig("stages must be positive".into()));
        }
        let mut rng = SplitMix64::new(config.seed);
        let mangler = if config.mangle {
            Mangler::new(&mut rng.fork(0x4D41_4E47), config.key_bits)
        } else {
            Mangler::identity(config.key_bits)
        };
        let hashes = (0..config.stages)
            .map(|i| {
                ModularHash::new(&mut rng.fork(i as u64 + 1), config.key_bits, config.buckets)
                    .map_err(|e| SketchError::BadConfig(e.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let verifier = match config.verifier_buckets {
            Some(buckets) => Some(KarySketch::new(KaryConfig {
                stages: config.stages,
                buckets,
                seed: rng.fork(0xBEEF).next_u64(),
            })?),
            None => None,
        };
        Ok(ReversibleSketch {
            config,
            mangler,
            hashes,
            grid: CounterGrid::new(config.stages, config.buckets),
            verifier,
            total: 0,
        })
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> &RsConfig {
        &self.config
    }

    /// UPDATE: adds `delta` under the packed key. The mangled key's byte
    /// decomposition is computed once and shared across all modular
    /// stages; the verifier (if any) hashes the plain key.
    ///
    /// The per-key primitive and the scalar reference for
    /// [`ReversibleSketch::update_batch`], which is what the record plane
    /// calls.
    ///
    /// # Panics
    ///
    /// Debug-panics if `key` has bits above the configured width.
    #[inline]
    pub fn update(&mut self, key: u64, delta: i64) {
        let mangled_bytes = self.mangler.mangle(key).to_le_bytes();
        for (stage, h) in self.hashes.iter().enumerate() {
            self.grid
                .add(stage, h.bucket_of_bytes(&mangled_bytes), delta);
        }
        if let Some(v) = &mut self.verifier {
            v.update(key, delta);
        }
        self.total = self.total.saturating_add(delta);
    }

    /// Batched UPDATE: applies `deltas[i]` under `keys[i]` (with
    /// `premixed[i]` its [`hifind_hashing::PairwiseHasher::premix`], feeding
    /// the verifier), bit-identical to calling [`ReversibleSketch::update`]
    /// once per element in order.
    ///
    /// The modular stage hashes are byte-table lookups that live in L1, so
    /// unlike the k-ary/2D batches there is no SIMD hash finish here; the
    /// win is memory-level parallelism. Each chunk makes two passes: the
    /// first mangles the keys and resolves every stage's bucket indices,
    /// prefetching all of the touched counters
    /// ([`crate::simd::SketchKernel::prefetch_buckets`]); the second
    /// scatters the saturating adds stage-major with the misses of all
    /// stages already streaming in — on the paper's 2^16-bucket 64-bit
    /// sketch (a 3 MiB grid) this, not the hashing, is the entire cost.
    /// The verifier (if any) consumes the premix batch through the k-ary
    /// SIMD path.
    ///
    /// # Panics
    ///
    /// Debug-panics if any key has bits above the configured width.
    pub fn update_batch(&mut self, keys: &[u64], premixed: &[u64], deltas: &[i64]) {
        debug_assert_eq!(keys.len(), premixed.len());
        debug_assert_eq!(keys.len(), deltas.len());
        let n = keys.len().min(premixed.len()).min(deltas.len());
        let kernel = crate::simd::kernel();
        let stages = self.hashes.len();
        let mut mangled = [[0u8; 8]; UPDATE_CHUNK];
        let mut idx = vec![0u64; stages * UPDATE_CHUNK];
        let mut start = 0;
        while start < n {
            let end = (start + UPDATE_CHUNK).min(n);
            let chunk = &keys[start..end];
            let del = &deltas[start..end];
            for (slot, &key) in mangled.iter_mut().zip(chunk) {
                *slot = self.mangler.mangle(key).to_le_bytes();
            }
            for (stage, h) in self.hashes.iter().enumerate() {
                let buf = &mut idx[stage * UPDATE_CHUNK..][..chunk.len()];
                for (slot, bytes) in buf.iter_mut().zip(&mangled[..chunk.len()]) {
                    *slot = h.bucket_of_bytes(bytes) as u64;
                }
                kernel.prefetch_buckets(self.grid.stage(stage), buf);
            }
            for stage in 0..stages {
                let row = self.grid.stage_mut(stage);
                for (&bucket, &d) in idx[stage * UPDATE_CHUNK..][..chunk.len()].iter().zip(del) {
                    let cell = &mut row[bucket as usize];
                    *cell = cell.saturating_add(d);
                }
            }
            if let Some(v) = &mut self.verifier {
                v.update_batch_premixed(&premixed[start..end], del);
            }
            for &d in del {
                self.total = self.total.saturating_add(d);
            }
            start = end;
        }
    }

    /// UPDATE with a typed flow key.
    ///
    /// # Panics
    ///
    /// Panics if `K::BITS` differs from the configured key width.
    #[inline]
    pub fn update_key<K: SketchKey>(&mut self, key: &K, delta: i64) {
        assert_eq!(
            K::BITS,
            self.config.key_bits,
            "flow key width does not match sketch"
        );
        self.update(key.to_u64(), delta);
    }

    /// ESTIMATE from the sketch's own counters.
    pub fn estimate(&self, key: u64) -> i64 {
        self.estimate_grid(&self.grid, key)
    }

    /// ESTIMATE against an external grid (e.g. a forecast-error grid)
    /// interpreted through this sketch's hash functions: the median over
    /// stages of the unbiased per-stage estimator.
    pub fn estimate_grid(&self, grid: &CounterGrid, key: u64) -> i64 {
        let sums: Vec<i64> = (0..grid.stages()).map(|s| grid.stage_sum(s)).collect();
        self.estimate_grid_with_sums(grid, key, &sums)
    }

    /// [`ReversibleSketch::estimate_grid`] with the per-stage sums
    /// precomputed; bit-identical, and what inference uses so that
    /// estimating hundreds of candidate keys walks the grid once instead
    /// of once per candidate.
    fn estimate_grid_with_sums(&self, grid: &CounterGrid, key: u64, sums: &[i64]) -> i64 {
        debug_assert_eq!(grid.stages(), self.config.stages);
        debug_assert_eq!(grid.buckets(), self.config.buckets);
        debug_assert_eq!(sums.len(), self.config.stages);
        let mangled = self.mangler.mangle(key);
        let m = self.config.buckets as f64;
        let mut estimates: Vec<i64> = Vec::with_capacity(self.config.stages);
        for ((stage, h), &stage_sum) in self.hashes.iter().enumerate().zip(sums) {
            let v = grid.get(stage, h.bucket(mangled)) as f64;
            let sum = stage_sum as f64;
            estimates.push(((v - sum / m) / (1.0 - 1.0 / m)).round() as i64);
        }
        median_i64(&mut estimates)
    }

    /// INFERENCE over the sketch's own counters: recover all keys whose
    /// value is at least `threshold`.
    pub fn infer(&self, threshold: i64, opts: &InferOptions) -> InferenceResult {
        let verifier_grid = self.verifier.as_ref().map(KarySketch::grid);
        self.infer_grid(&self.grid, verifier_grid, threshold, opts)
    }

    /// INFERENCE over an external grid (typically the forecast-error grid)
    /// with an optional matching external verifier grid.
    ///
    /// `verifier_grid`, when given, must have the shape of this sketch's
    /// verification sketch; keys whose verifier estimate falls below the
    /// threshold are dropped and counted in
    /// [`InferStats::rejected_by_verifier`].
    pub fn infer_grid(
        &self,
        grid: &CounterGrid,
        verifier_grid: Option<&CounterGrid>,
        threshold: i64,
        opts: &InferOptions,
    ) -> InferenceResult {
        self.infer_grid_with(
            grid,
            verifier_grid,
            threshold,
            opts,
            |ext, word, cur, next, stats| ext.extend(word, cur, next, stats),
        )
    }

    /// [`ReversibleSketch::infer_grid`] with step 3's per-position
    /// extension passed in, so the tests can run the byte-by-byte
    /// reference through the same steps 1, 2 and 4.
    fn infer_grid_with(
        &self,
        grid: &CounterGrid,
        verifier_grid: Option<&CounterGrid>,
        threshold: i64,
        opts: &InferOptions,
        extend: ExtendFn,
    ) -> InferenceResult {
        debug_assert_eq!(grid.stages(), self.config.stages);
        debug_assert_eq!(grid.buckets(), self.config.buckets);
        assert!(threshold > 0, "inference threshold must be positive");
        let stages = self.config.stages;
        let min_stages = stages.saturating_sub(opts.miss_stages).max(1);
        let mut stats = InferStats::default();

        // 1. Heavy buckets per stage — the full-grid threshold scan, done
        // by the SIMD kernel (4 lanes per compare on AVX2, ascending
        // indices either way).
        let kernel = crate::simd::kernel();
        let heavy: Vec<Vec<u32>> = (0..stages)
            .map(|s| {
                let mut out = Vec::new();
                kernel.heavy_buckets(grid.stage(s), threshold, &mut out);
                out
            })
            .collect();
        stats.heavy_buckets = heavy.iter().map(Vec::len).collect();
        let nonempty_stages = heavy.iter().filter(|h| !h.is_empty()).count();
        if nonempty_stages < min_stages {
            return InferenceResult {
                keys: Vec::new(),
                stats,
            };
        }

        // 2. Per stage / word / chunk: bitset of compatible heavy buckets.
        let words = (self.config.key_bits / 8) as usize;
        let ext = Extension::new(&self.hashes, &heavy, words, min_stages, opts.max_candidates);

        // 3. Word-by-word candidate extension.
        let candidates = ext.search(nonempty_stages, &mut stats, extend);

        // 4. Un-mangle, estimate, verify, sort. The per-stage sums of both
        // grids are identical for every candidate, so compute each set
        // once instead of re-walking the grids per candidate.
        let grid_sums: Vec<i64> = (0..stages).map(|s| grid.stage_sum(s)).collect();
        let verifier_sums: Option<Vec<i64>> = match (opts.use_verifier, &self.verifier) {
            (true, Some(v)) => verifier_grid.map(|vg| v.stage_sums(vg)),
            _ => None,
        };
        let mut keys = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &mangled in &candidates.keys {
            let key = self.mangler.unmangle(mangled);
            if !seen.insert(key) {
                continue;
            }
            let estimate = self.estimate_grid_with_sums(grid, key, &grid_sums);
            if estimate < threshold {
                stats.rejected_by_estimate = stats.rejected_by_estimate.saturating_add(1);
                continue;
            }
            if opts.use_verifier {
                if let (Some(v), Some(vg), Some(vsums)) =
                    (&self.verifier, verifier_grid, &verifier_sums)
                {
                    if v.estimate_grid_with_sums(vg, key, vsums) < threshold {
                        stats.rejected_by_verifier = stats.rejected_by_verifier.saturating_add(1);
                        continue;
                    }
                }
            }
            keys.push(HeavyKey { key, estimate });
        }
        keys.sort_by(|a, b| b.estimate.cmp(&a.estimate).then(a.key.cmp(&b.key)));
        InferenceResult { keys, stats }
    }

    /// COMBINE: linear combination of reversible sketches sharing a
    /// configuration (verifiers are combined too).
    ///
    /// # Errors
    ///
    /// [`SketchError::CombineMismatch`] on configuration/seed mismatch;
    /// [`SketchError::CombineEmpty`] for an empty list.
    pub fn combine(terms: &[(f64, &ReversibleSketch)]) -> Result<ReversibleSketch, SketchError> {
        let (_, first) = terms.first().ok_or(SketchError::CombineEmpty)?;
        for (_, s) in terms {
            if s.config != first.config {
                return Err(SketchError::CombineMismatch);
            }
        }
        let grids: Vec<(f64, &CounterGrid)> = terms.iter().map(|(c, s)| (*c, &s.grid)).collect();
        let grid = CounterGrid::linear_combination(&grids)?;
        let verifier = match &first.verifier {
            Some(_) => {
                let mut vs: Vec<(f64, &KarySketch)> = Vec::with_capacity(terms.len());
                for (c, s) in terms {
                    // Equal configs imply equal verifier presence; treat
                    // any divergence as a mismatch, never a panic.
                    let Some(v) = s.verifier.as_ref() else {
                        return Err(SketchError::CombineMismatch);
                    };
                    vs.push((*c, v));
                }
                Some(KarySketch::combine(&vs)?)
            }
            None => None,
        };
        let total = terms
            .iter()
            .map(|(c, s)| c * s.total as f64)
            .sum::<f64>()
            .round() as i64;
        Ok(ReversibleSketch {
            config: first.config,
            mangler: first.mangler,
            hashes: first.hashes.clone(),
            grid,
            verifier,
            total,
        })
    }

    /// Borrows the main counter grid.
    pub fn grid(&self) -> &CounterGrid {
        &self.grid
    }

    /// Borrows the verification sketch, if configured.
    pub fn verifier(&self) -> Option<&KarySketch> {
        self.verifier.as_ref()
    }

    /// Total update mass.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Moves the main and verifier counters out ([`CounterGrid::take`]),
    /// leaving the sketch zeroed with its hash structure intact.
    pub fn take_counters(&mut self) -> (CounterGrid, Option<CounterGrid>) {
        self.total = 0;
        let verifier = self.verifier.as_mut().map(KarySketch::take_counters);
        (self.grid.take(), verifier)
    }

    /// Memory footprint in bytes (grid + verifier grid), for Table 9.
    pub fn memory_bytes(&self) -> usize {
        self.grid.memory_bytes()
            + self
                .verifier
                .as_ref()
                .map(|v| v.memory_bytes())
                .unwrap_or(0)
    }

    /// Counter memory accesses per update: one per stage, plus the
    /// verification sketch's stages. The paper reports 15 for its 48-bit
    /// and 16 for its 64-bit hardware configuration; the software
    /// equivalent here is `2 × stages` when a verifier is attached.
    pub fn accesses_per_update(&self) -> usize {
        self.config.stages
            + self
                .verifier
                .as_ref()
                .map(|v| v.accesses_per_update())
                .unwrap_or(0)
    }
}

/// One word position of step 3: extends every live candidate of `cur`
/// into `next`, counting the work in `stats`.
type ExtendFn = fn(&Extension<'_>, usize, &Candidates, &mut Candidates, &mut InferStats);

/// Live candidates of one word position, stored flat: a candidate's
/// (mangled) key prefix, its count of stages with a non-empty mask, and
/// its per-stage masks of compatible heavy buckets, `stride` words a row
/// (stage `s`'s mask at [`Extension::offsets`]`[s]`).
struct Candidates {
    keys: Vec<u64>,
    alive: Vec<usize>,
    masks: Vec<u64>,
    stride: usize,
}

impl Candidates {
    fn new(stride: usize) -> Self {
        Candidates {
            keys: Vec::new(),
            alive: Vec::new(),
            masks: Vec::new(),
            stride,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.stride..][..self.stride]
    }

    /// Appends a candidate whose mask row is `mask` (`stride` words).
    fn push(&mut self, key: u64, alive: usize, mask: &[u64]) {
        self.keys.push(key);
        self.alive.push(alive);
        self.masks.extend_from_slice(mask);
    }

    /// Keeps only the candidates alive in every one of `stages`, in order.
    fn retain_full(&mut self, stages: usize) {
        let stride = self.stride;
        let mut kept = 0usize;
        for i in 0..self.len() {
            if self.alive[i] == stages {
                if kept != i {
                    self.keys[kept] = self.keys[i];
                    self.alive[kept] = self.alive[i];
                    self.masks
                        .copy_within(i * stride..(i + 1) * stride, kept * stride);
                }
                kept = kept.saturating_add(1);
            }
        }
        self.truncate(kept);
    }

    fn truncate(&mut self, len: usize) {
        self.keys.truncate(len);
        self.alive.truncate(len);
        self.masks.truncate(len * self.stride);
    }

    fn clear(&mut self) {
        self.truncate(0);
    }
}

/// Step 3's fixed inputs: the stage hashes, the mask layout and the
/// per-word chunk masks built by step 2.
struct Extension<'a> {
    hashes: &'a [ModularHash],
    /// Heavy buckets per stage (`|H_s|`).
    heavy: Vec<usize>,
    /// Words of stage `s`'s mask, `⌈|H_s|/64⌉`.
    widths: Vec<usize>,
    /// Where stage `s`'s mask starts in a candidate's mask row.
    offsets: Vec<usize>,
    /// Words of one candidate's mask row, `Σ_s ⌈|H_s|/64⌉`.
    stride: usize,
    /// `2^chunk_bits`: the index chunk values of one word position.
    chunk_count: usize,
    /// `chunk_masks[word]`: for every stage and chunk value, the mask over
    /// `H_s` of the heavy buckets whose index chunk at `word` is that
    /// value. Stage `s`'s `chunk_count` masks sit back to back from
    /// `offsets[s] × chunk_count`.
    chunk_masks: Vec<Vec<u64>>,
    min_stages: usize,
    max_candidates: usize,
}

impl<'a> Extension<'a> {
    /// Step 2: lays out the masks and builds the chunk masks of every word
    /// position from the heavy buckets (ascending per stage).
    fn new(
        hashes: &'a [ModularHash],
        heavy: &[Vec<u32>],
        words: usize,
        min_stages: usize,
        max_candidates: usize,
    ) -> Self {
        let chunk_count = hashes.first().map_or(1, |h| 1usize << h.chunk_bits());
        let widths: Vec<usize> = heavy.iter().map(|hb| hb.len().div_ceil(64)).collect();
        let mut offsets = Vec::with_capacity(widths.len());
        let mut stride = 0usize;
        for &w in &widths {
            offsets.push(stride);
            stride = stride.saturating_add(w);
        }
        let chunk_masks = (0..words as u32)
            .map(|word| {
                let mut masks = vec![0u64; stride * chunk_count];
                for (s, hb) in heavy.iter().enumerate() {
                    let stage = &mut masks[offsets[s] * chunk_count..][..widths[s] * chunk_count];
                    for (i, &b) in hb.iter().enumerate() {
                        let chunk = hashes[s].index_chunk(b as usize, word) as usize;
                        set_bit(&mut stage[chunk * widths[s]..][..widths[s]], i);
                    }
                }
                masks
            })
            .collect();
        Extension {
            hashes,
            heavy: heavy.iter().map(Vec::len).collect(),
            widths,
            offsets,
            stride,
            chunk_count,
            chunk_masks,
            min_stages,
            max_candidates,
        }
    }

    /// Where stage `s`'s mask for `chunk` starts among one word's chunk
    /// masks (and in [`Extension::extend`]'s per-candidate ANDs).
    #[inline]
    fn chunk_at(&self, s: usize, chunk: usize) -> usize {
        self.offsets[s] * self.chunk_count + chunk * self.widths[s]
    }

    /// Step 3: extends the empty key word by word, starting from one
    /// candidate compatible with every heavy bucket, and returns the
    /// full-width survivors. `extend` does one word position; the search
    /// stops early once no candidate is left.
    fn search(
        &self,
        nonempty_stages: usize,
        stats: &mut InferStats,
        extend: ExtendFn,
    ) -> Candidates {
        let mut cur = Candidates::new(self.stride);
        let mut root = vec![0u64; self.stride];
        for (s, &n) in self.heavy.iter().enumerate() {
            fill_bits(&mut root[self.offsets[s]..][..self.widths[s]], n);
        }
        cur.push(0, nonempty_stages, &root);
        let mut next = Candidates::new(self.stride);
        for word in 0..self.chunk_masks.len() {
            next.clear();
            extend(self, word, &cur, &mut next, stats);
            std::mem::swap(&mut cur, &mut next);
            if cur.len() == 0 {
                break;
            }
        }
        cur
    }

    /// One word position, factored by chunk class. With `2^chunk_bits`
    /// chunk values a byte's fate in a stage depends only on its chunk,
    /// so per candidate this ANDs each stage's mask with the stage's
    /// `2^chunk_bits` chunk masks once, ORs the 256-bit byte sets of the
    /// chunks that stay non-empty into the stage's live bytes, and counts
    /// dead stages per byte bit-sliced. Only the bytes dead in at most
    /// `H − min_stages` stages are visited, ascending, each copying its
    /// masks from the precomputed ANDs.
    ///
    /// Bit-identical to the byte-by-byte loop (kept as the test reference
    /// `extend_bytewise`): the same survivors in the same order, the same
    /// truncation, and `candidates_explored` still counts 256 extensions
    /// per candidate, or `b + 1` on the candidate that truncates at byte
    /// `b`.
    fn extend(&self, word: usize, cur: &Candidates, next: &mut Candidates, stats: &mut InferStats) {
        let stages = self.hashes.len();
        let chunks = self.chunk_count;
        let chunk_masks = &self.chunk_masks[word];
        let pos = word as u32;
        // byte_sets[s × chunks + c]: the bytes hashing to chunk c here.
        let mut byte_sets = vec![[0u64; 4]; stages * chunks];
        for (s, h) in self.hashes.iter().enumerate() {
            for (c, set) in byte_sets[s * chunks..][..chunks].iter_mut().enumerate() {
                for &b in h.bytes_for_chunk(pos, c as u16) {
                    set_bit(set, b as usize);
                }
            }
        }
        let allowed_dead = stages - self.min_stages;
        let mut anded = vec![0u64; self.stride * chunks];
        let mut live = vec![[0u64; 4]; stages];
        // dead_in[j]: the bytes dead in at least `j + 1` stages so far.
        let mut dead_in = vec![[0u64; 4]; allowed_dead + 1];
        for i in 0..cur.len() {
            let mask = cur.mask(i);
            dead_in.fill([0; 4]);
            for (s, live_s) in live.iter_mut().enumerate() {
                let width = self.widths[s];
                let own = &mask[self.offsets[s]..][..width];
                *live_s = [0; 4];
                for c in 0..chunks {
                    let at = self.chunk_at(s, c);
                    let range = at..at + width;
                    if and_into(own, &chunk_masks[range.clone()], &mut anded[range]) {
                        let set = &byte_sets[s * chunks + c];
                        for (l, b) in live_s.iter_mut().zip(set) {
                            *l |= b;
                        }
                    }
                }
                for j in (1..=allowed_dead).rev() {
                    for q in 0..4 {
                        dead_in[j][q] |= dead_in[j - 1][q] & !live_s[q];
                    }
                }
                for (d, l) in dead_in[0].iter_mut().zip(live_s.iter()) {
                    *d |= !l;
                }
            }
            let key = cur.keys[i];
            for (q, &killed) in dead_in[allowed_dead].iter().enumerate() {
                let mut bits = !killed;
                while bits != 0 {
                    let byte = q * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let alive = live.iter().filter(|l| l[q] >> (byte % 64) & 1 == 1).count();
                    next.keys.push(key | (byte as u64) << (8 * word));
                    next.alive.push(alive);
                    for (s, h) in self.hashes.iter().enumerate() {
                        let at = self.chunk_at(s, h.chunk(pos, byte as u8) as usize);
                        next.masks
                            .extend_from_slice(&anded[at..at + self.widths[s]]);
                    }
                    if self.cap(next, stats) {
                        stats.candidates_explored =
                            stats.candidates_explored.saturating_add(byte as u64 + 1);
                        return;
                    }
                }
            }
            stats.candidates_explored = stats.candidates_explored.saturating_add(256);
        }
    }

    /// The candidate cap, checked after every survivor: past the cap,
    /// flags truncation and keeps only the candidates alive in *every*
    /// stage — under adversarial load everything looks heavy, and true
    /// keys are alive everywhere while spurious byte combinations usually
    /// sit at exactly `min_stages`. Returns whether that was still too
    /// many, in which case `next` is cut to the cap and the position ends.
    fn cap(&self, next: &mut Candidates, stats: &mut InferStats) -> bool {
        if next.len() <= self.max_candidates {
            return false;
        }
        stats.truncated = true;
        next.retain_full(self.hashes.len());
        if next.len() <= self.max_candidates {
            return false;
        }
        next.truncate(self.max_candidates);
        true
    }

    /// The byte-by-byte reference for [`Extension::extend`]: every
    /// candidate tries all 256 bytes, ANDing each stage's mask with the
    /// byte's chunk mask, and stops a byte once too many stages died.
    #[cfg(test)]
    fn extend_bytewise(
        &self,
        word: usize,
        cur: &Candidates,
        next: &mut Candidates,
        stats: &mut InferStats,
    ) {
        let chunk_masks = &self.chunk_masks[word];
        let allowed_dead = self.hashes.len() - self.min_stages;
        let mut scratch = vec![0u64; self.stride];
        for i in 0..cur.len() {
            let mask = cur.mask(i);
            for byte in 0usize..256 {
                stats.candidates_explored = stats.candidates_explored.saturating_add(1);
                let mut alive = 0usize;
                let mut dead = 0usize;
                for (s, h) in self.hashes.iter().enumerate() {
                    let (off, width) = (self.offsets[s], self.widths[s]);
                    let at = self.chunk_at(s, h.chunk(word as u32, byte as u8) as usize);
                    if and_into(
                        &mask[off..off + width],
                        &chunk_masks[at..at + width],
                        &mut scratch[off..off + width],
                    ) {
                        alive += 1;
                    } else {
                        dead += 1;
                        if dead > allowed_dead {
                            // Cannot reach min_stages any more.
                            break;
                        }
                    }
                }
                if alive >= self.min_stages {
                    next.push(cur.keys[i] | (byte as u64) << (8 * word), alive, &scratch);
                    if self.cap(next, stats) {
                        return;
                    }
                }
            }
        }
    }
}

/// Sets bit `i` of a bitset stored as 64-bit words.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Sets the first `bits` bits of `words` (⌈bits/64⌉ long) and clears the
/// rest of the last word.
fn fill_bits(words: &mut [u64], bits: usize) {
    words.fill(u64::MAX);
    let rem = bits % 64;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << rem) - 1;
        }
    }
}

/// Writes `a & b` into `out` (all the same length) and returns whether
/// the result is non-empty.
#[inline]
fn and_into(a: &[u64], b: &[u64], out: &mut [u64]) -> bool {
    let mut any = 0u64;
    for ((x, y), o) in a.iter().zip(b).zip(out) {
        *o = x & y;
        any |= *o;
    }
    any != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::keys::{SipDip, SipDport};
    use hifind_hashing::PairwiseHasher;
    use proptest::prelude::*;

    fn small_cfg(seed: u64) -> RsConfig {
        RsConfig {
            key_bits: 48,
            stages: 6,
            buckets: 1 << 12,
            seed,
            mangle: true,
            verifier_buckets: Some(1 << 12),
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = small_cfg(0);
        cfg.stages = 0;
        assert!(ReversibleSketch::new(cfg).is_err());
        let mut cfg = small_cfg(0);
        cfg.key_bits = 13;
        assert!(ReversibleSketch::new(cfg).is_err());
        let mut cfg = small_cfg(0);
        cfg.buckets = 1 << 13; // 13 bits not divisible by 6 words
        assert!(ReversibleSketch::new(cfg).is_err());
    }

    #[test]
    fn recovers_single_heavy_key() {
        let mut rs = ReversibleSketch::new(small_cfg(1)).unwrap();
        rs.update(0x0102_0304_0506, 1000);
        let result = rs.infer(500, &InferOptions::default());
        assert_eq!(result.keys.len(), 1);
        assert_eq!(result.keys[0].key, 0x0102_0304_0506);
        assert!(result.keys[0].estimate >= 990);
    }

    #[test]
    fn recovers_heavy_keys_among_noise() {
        let mut rs = ReversibleSketch::new(small_cfg(2)).unwrap();
        let heavy = [0xAA01_0203_0405u64, 0x0BB0_0102_0304, 0x00CC_0099_1122];
        for (i, &k) in heavy.iter().enumerate() {
            rs.update(k, 500 + 100 * i as i64);
        }
        let mut rng = SplitMix64::new(77);
        for _ in 0..20_000 {
            rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
        }
        let result = rs.infer(300, &InferOptions::default());
        for &k in &heavy {
            assert!(
                result.keys.iter().any(|hk| hk.key == k),
                "missing key {k:#x}; got {:?}",
                result.keys
            );
        }
        // No more than a couple of false keys.
        assert!(result.keys.len() <= heavy.len() + 2);
    }

    #[test]
    fn no_heavy_keys_yields_empty() {
        let mut rs = ReversibleSketch::new(small_cfg(3)).unwrap();
        let mut rng = SplitMix64::new(5);
        for _ in 0..5000 {
            rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
        }
        let result = rs.infer(100, &InferOptions::default());
        assert!(result.keys.is_empty(), "got {:?}", result.keys);
    }

    #[test]
    fn negative_mass_does_not_mask_heavy_key() {
        // The #SYN − #SYN/ACK value goes negative for well-behaved flows;
        // inference must still find attack keys.
        let mut rs = ReversibleSketch::new(small_cfg(4)).unwrap();
        rs.update(0x0666_0000_0050, 800); // attack
        let mut rng = SplitMix64::new(6);
        for _ in 0..2000 {
            // benign flows oscillate around 0
            let k = rng.next_u64() & ((1 << 48) - 1);
            rs.update(k, 1);
            rs.update(k, -1);
        }
        let result = rs.infer(400, &InferOptions::default());
        assert!(result.keys.iter().any(|hk| hk.key == 0x0666_0000_0050));
    }

    #[test]
    fn typed_inference_round_trips_flow_keys() {
        let mut rs = ReversibleSketch::new(small_cfg(7)).unwrap();
        let key = SipDport::new([204, 10, 110, 38].into(), 1433);
        rs.update_key(&key, 900);
        let result = rs.infer(100, &InferOptions::default());
        let typed = result.typed::<SipDport>();
        assert_eq!(typed.len(), 1);
        assert_eq!(typed[0].0, key);
    }

    #[test]
    fn sixty_four_bit_config_works() {
        let cfg = RsConfig {
            key_bits: 64,
            stages: 6,
            buckets: 1 << 16,
            seed: 11,
            mangle: true,
            verifier_buckets: Some(1 << 12),
        };
        let mut rs = ReversibleSketch::new(cfg).unwrap();
        let key = SipDip::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into());
        rs.update_key(&key, 700);
        let mut rng = SplitMix64::new(12);
        for _ in 0..10_000 {
            rs.update(rng.next_u64(), 1);
        }
        let result = rs.infer(300, &InferOptions::default());
        assert!(result.typed::<SipDip>().iter().any(|(k, _)| *k == key));
    }

    #[test]
    #[should_panic(expected = "flow key width")]
    fn update_key_rejects_wrong_width() {
        let mut rs = ReversibleSketch::new(small_cfg(8)).unwrap();
        let key = SipDip::new([1, 1, 1, 1].into(), [2, 2, 2, 2].into()); // 64-bit
        rs.update_key(&key, 1);
    }

    #[test]
    fn premixed_update_matches_plain_update() {
        // Main grid *and* verifier grid must be bit-identical when each key
        // arrives with its premix as a batch of one (as the recorder
        // scatters an interval's first plans), for every verifier
        // configuration.
        for verifier_buckets in [Some(1 << 12), None] {
            let mut cfg = small_cfg(71);
            cfg.verifier_buckets = verifier_buckets;
            let mut plain = ReversibleSketch::new(cfg).unwrap();
            let mut premixed = ReversibleSketch::new(cfg).unwrap();
            let mut rng = SplitMix64::new(72);
            for _ in 0..2000 {
                let k = rng.next_u64() & ((1 << 48) - 1);
                let v = (rng.below(7) as i64) - 3;
                plain.update(k, v);
                premixed.update_batch(&[k], &[PairwiseHasher::premix(k)], &[v]);
            }
            assert_eq!(premixed.grid(), plain.grid());
            assert_eq!(
                premixed.verifier().map(|v| v.grid()),
                plain.verifier().map(|v| v.grid())
            );
            assert_eq!(premixed.total(), plain.total());
        }
    }

    #[test]
    fn batched_update_matches_serial_update() {
        // Main grid, verifier grid, and total must be bit-identical to
        // per-key `update`, with and without a verifier, for batch lengths
        // around the chunk size and a batch of one.
        for verifier_buckets in [Some(1 << 12), None] {
            let mut cfg = small_cfg(81);
            cfg.verifier_buckets = verifier_buckets;
            let mut serial = ReversibleSketch::new(cfg).unwrap();
            let mut batched = ReversibleSketch::new(cfg).unwrap();
            let mut rng = SplitMix64::new(82);
            for len in [0, 1, 63, 64, 65, 257] {
                let mut keys = Vec::new();
                let mut premixed = Vec::new();
                let mut deltas = Vec::new();
                for _ in 0..len {
                    let k = rng.next_u64() & ((1 << 48) - 1);
                    let d = (rng.below(9) as i64) - 4;
                    serial.update(k, d);
                    keys.push(k);
                    premixed.push(PairwiseHasher::premix(k));
                    deltas.push(d);
                }
                batched.update_batch(&keys, &premixed, &deltas);
                assert_eq!(batched.grid(), serial.grid(), "batch of {len}");
                assert_eq!(
                    batched.verifier().map(|v| v.grid()),
                    serial.verifier().map(|v| v.grid()),
                    "batch of {len}"
                );
                assert_eq!(batched.total(), serial.total(), "batch of {len}");
            }
        }
    }

    #[test]
    fn combine_equals_merged_stream() {
        let mut a = ReversibleSketch::new(small_cfg(9)).unwrap();
        let mut b = ReversibleSketch::new(small_cfg(9)).unwrap();
        let mut merged = ReversibleSketch::new(small_cfg(9)).unwrap();
        let mut rng = SplitMix64::new(13);
        for i in 0..2000 {
            let k = rng.next_u64() & ((1 << 48) - 1);
            let v = rng.below(5) as i64;
            if i % 2 == 0 {
                a.update(k, v)
            } else {
                b.update(k, v)
            }
            merged.update(k, v);
        }
        let combined = ReversibleSketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        assert_eq!(combined.grid(), merged.grid());
        assert_eq!(combined.total(), merged.total());
        // And inference on the combination behaves like on the merged one.
        a.update(0x0042_0042_0042, 600);
        let combined = ReversibleSketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap();
        let result = combined.infer(500, &InferOptions::default());
        assert!(result.keys.iter().any(|hk| hk.key == 0x0042_0042_0042));
    }

    #[test]
    fn combine_rejects_mismatch() {
        let a = ReversibleSketch::new(small_cfg(1)).unwrap();
        let b = ReversibleSketch::new(small_cfg(2)).unwrap();
        assert_eq!(
            ReversibleSketch::combine(&[(1.0, &a), (1.0, &b)]).unwrap_err(),
            SketchError::CombineMismatch
        );
        assert_eq!(
            ReversibleSketch::combine(&[]).unwrap_err(),
            SketchError::CombineEmpty
        );
    }

    #[test]
    fn infer_grid_on_difference_detects_change() {
        // Simulates change detection: previous interval vs current.
        let mut prev = ReversibleSketch::new(small_cfg(20)).unwrap();
        let mut curr = ReversibleSketch::new(small_cfg(20)).unwrap();
        let mut rng = SplitMix64::new(21);
        for _ in 0..3000 {
            let k = rng.next_u64() & ((1 << 48) - 1);
            prev.update(k, 1);
            curr.update(k, 1);
        }
        // New heavy key only in the current interval.
        curr.update(0x0777_0000_1389, 500);
        let error = curr.grid().difference(prev.grid()).unwrap();
        let verr = curr
            .verifier()
            .unwrap()
            .grid()
            .difference(prev.verifier().unwrap().grid())
            .unwrap();
        let result = curr.infer_grid(&error, Some(&verr), 250, &InferOptions::default());
        assert_eq!(result.keys.len(), 1);
        assert_eq!(result.keys[0].key, 0x0777_0000_1389);
    }

    #[test]
    fn truncation_reported_under_candidate_explosion() {
        let mut rs = ReversibleSketch::new(small_cfg(30)).unwrap();
        let mut rng = SplitMix64::new(31);
        // Make very many keys heavy.
        for _ in 0..3000 {
            rs.update(rng.next_u64() & ((1 << 48) - 1), 100);
        }
        let opts = InferOptions {
            max_candidates: 64,
            ..InferOptions::default()
        };
        let result = rs.infer(50, &opts);
        assert!(result.stats.truncated);
    }

    #[test]
    fn mangling_ablation_still_infers() {
        let mut cfg = small_cfg(40);
        cfg.mangle = false;
        let mut rs = ReversibleSketch::new(cfg).unwrap();
        rs.update(0x0101_0101_0101, 400);
        let result = rs.infer(200, &InferOptions::default());
        assert!(result.keys.iter().any(|hk| hk.key == 0x0101_0101_0101));
    }

    #[test]
    fn take_counters_resets() {
        let mut rs = ReversibleSketch::new(small_cfg(50)).unwrap();
        rs.update(1, 100);
        let grid = rs.grid().clone();
        let verifier = rs.verifier().map(|v| v.grid().clone());
        assert!(verifier.is_some());
        assert_eq!(rs.take_counters(), (grid, verifier));
        assert_eq!(rs.total(), 0);
        assert!(rs.grid().is_zero());
        assert!(rs
            .verifier()
            .is_some_and(|v| v.total() == 0 && v.grid().is_zero()));
        assert!(rs.infer(50, &InferOptions::default()).keys.is_empty());
    }

    #[test]
    fn memory_matches_paper_scale() {
        // 48-bit paper config: 6 stages x 2^12 buckets x 8B = 192 KiB main
        // grid (the paper uses narrower hardware counters; Table 9's model
        // accounts for that separately).
        let rs = ReversibleSketch::new(RsConfig::paper_48bit(0)).unwrap();
        let main = 6 * (1 << 12) * 8;
        assert!(rs.grid().memory_bytes() >= main);
        assert!(rs.memory_bytes() >= main);
    }

    #[test]
    fn stats_track_search_effort() {
        let mut rs = ReversibleSketch::new(small_cfg(60)).unwrap();
        rs.update(0x00AB_CDEF_0123, 300);
        let result = rs.infer(100, &InferOptions::default());
        assert_eq!(result.stats.heavy_buckets.len(), 6);
        assert!(result.stats.candidates_explored > 0);
        assert!(!result.stats.truncated);
    }

    /// Runs inference with the factored extension and with the
    /// byte-by-byte reference through the same steps 1, 2 and 4, asserts
    /// equal results (keys, estimates and every `InferStats` field), and
    /// returns the factored one.
    fn infer_both_ways(
        rs: &ReversibleSketch,
        grid: &CounterGrid,
        threshold: i64,
        opts: &InferOptions,
    ) -> InferenceResult {
        let verifier = rs.verifier().map(KarySketch::grid);
        let factored = rs.infer_grid(grid, verifier, threshold, opts);
        let reference = rs.infer_grid_with(
            grid,
            verifier,
            threshold,
            opts,
            |ext, word, cur, next, stats| ext.extend_bytewise(word, cur, next, stats),
        );
        assert_eq!(factored, reference, "factored vs byte-by-byte, {opts:?}");
        factored
    }

    /// One equivalence case: `heavy` keys of weight 200–399 over signed
    /// unit noise in geometry `geometry` (0: paper 48-bit, 1: paper
    /// 64-bit, 2: 48-bit keys into 2^18 buckets, 3 index bits per byte),
    /// with stage `silent` of the queried grid zeroed if given, inferred
    /// at threshold 100.
    fn equivalence_case(
        geometry: usize,
        seed: u64,
        heavy: usize,
        miss_stages: usize,
        max_candidates: usize,
        silent: Option<usize>,
    ) -> InferenceResult {
        let cfg = match geometry % 3 {
            0 => RsConfig::paper_48bit(seed),
            1 => RsConfig::paper_64bit(seed),
            _ => RsConfig {
                buckets: 1 << 18,
                verifier_buckets: Some(1 << 12),
                ..RsConfig::paper_48bit(seed)
            },
        };
        let mut rs = ReversibleSketch::new(cfg).unwrap();
        let width = u64::MAX >> (64 - cfg.key_bits);
        let mut rng = SplitMix64::new(seed ^ 0x5EED);
        for _ in 0..heavy {
            rs.update(rng.next_u64() & width, 200 + rng.below(200) as i64);
        }
        for _ in 0..2000 {
            rs.update(rng.next_u64() & width, rng.below(7) as i64 - 3);
        }
        let mut grid = rs.grid().clone();
        if let Some(s) = silent {
            grid.stage_mut(s % cfg.stages).fill(0);
        }
        let opts = InferOptions {
            miss_stages,
            max_candidates,
            use_verifier: true,
        };
        infer_both_ways(&rs, &grid, 100, &opts)
    }

    #[test]
    fn factored_extension_covers_every_listed_case() {
        let uncapped = InferOptions::default().max_candidates;
        let mut results = Vec::new();
        for geometry in 0..3 {
            for miss in 0..3 {
                // Two misses let far more spurious prefixes live; keep the
                // uncapped search small for the reference's sake.
                let heavy = if miss == 2 { 3 } else { 12 };
                let r =
                    equivalence_case(geometry, 100 + geometry as u64, heavy, miss, uncapped, None);
                assert!(
                    !r.keys.is_empty(),
                    "geometry {geometry} miss {miss} found nothing"
                );
                results.push(r);
            }
            // More than 64 heavy buckets per stage (multi-word masks).
            results.push(equivalence_case(geometry, 7, 90, 1, 300, None));
            // A stage with no heavy bucket, tolerated or not.
            results.push(equivalence_case(geometry, 8, 10, 1, uncapped, Some(2)));
            results.push(equivalence_case(geometry, 9, 10, 0, uncapped, Some(4)));
            // A cap small enough to truncate mid-candidate.
            results.push(equivalence_case(geometry, 10, 40, 2, 5, None));
            // A cap that keeping only the all-stage candidates gets back
            // under: truncated, yet every candidate explored in full.
            results.push(equivalence_case(geometry, 11, 3, 1, 20, None));
        }
        let stats = |pred: &dyn Fn(&InferStats) -> bool| results.iter().any(|r| pred(&r.stats));
        assert!(stats(&|s| s.heavy_buckets.iter().any(|&n| n > 64)));
        assert!(stats(&|s| s.heavy_buckets.contains(&0)));
        assert!(stats(&|s| s.truncated && s.candidates_explored % 256 != 0));
        assert!(stats(&|s| s.truncated && s.candidates_explored % 256 == 0));
        assert!(stats(
            &|s| s.rejected_by_estimate + s.rejected_by_verifier > 0
        ));
    }

    #[test]
    fn factored_extension_matches_bytewise_on_a_dense_grid() {
        // Every bucket heavy with probability 1/2: the candidate explosion
        // an adversary aims for, cut by caps on either side of a survivor.
        let rs = ReversibleSketch::new(small_cfg(90)).unwrap();
        let mut grid = CounterGrid::new(6, 1 << 12);
        let mut rng = SplitMix64::new(91);
        for s in 0..6 {
            for cell in grid.stage_mut(s) {
                *cell = rng.below(400) as i64 - 100;
            }
        }
        for (miss_stages, max_candidates) in [(0, 1), (1, 17), (1, 256), (2, 1000)] {
            let opts = InferOptions {
                miss_stages,
                max_candidates,
                use_verifier: false,
            };
            assert!(infer_both_ways(&rs, &grid, 100, &opts).stats.truncated);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn factored_extension_matches_bytewise(
            geometry in 0usize..3,
            seed in any::<u64>(),
            heavy in 0usize..100,
            miss in 0usize..3,
            cap in 1usize..600,
            capped in any::<bool>(),
            silent in 0usize..12,
        ) {
            // Past ~24 heavy keys the uncapped search explodes (see the
            // dense-grid test), which the byte-by-byte reference pays
            // for 256 times over; cap those.
            let max_candidates = if capped || heavy > 24 {
                cap
            } else {
                InferOptions::default().max_candidates
            };
            let silent = (silent < 6).then_some(silent);
            equivalence_case(geometry, seed, heavy, miss, max_candidates, silent);
        }
    }

    #[test]
    fn bitset_basics() {
        let mut a = vec![0u64; 70usize.div_ceil(64)];
        set_bit(&mut a, 0);
        set_bit(&mut a, 69);
        let mut full = vec![0u64; 2];
        fill_bits(&mut full, 70);
        assert_eq!(full, [u64::MAX, (1 << 6) - 1]);
        let mut out = vec![0u64; 2];
        assert!(and_into(&a, &full, &mut out));
        assert_eq!(out, a);
        assert!(!and_into(&a, &[0, 0], &mut out));
        assert_eq!(out, [0, 0]);
        let mut one = [0u64];
        fill_bits(&mut one, 1);
        assert_eq!(one, [1]);
        let mut none: [u64; 0] = [];
        fill_bits(&mut none, 0);
        assert!(!and_into(&none, &none, &mut []));
    }
}
