//! Runtime-dispatched SIMD kernels for the sketch hot loops.
//!
//! The four loops every packet (or every interval close) pays for —
//! bucket-index finishing for batched UPDATE, per-stage sums for ESTIMATE,
//! heavy-bucket threshold scans for INFERENCE, and element-wise saturating
//! merges for COMBINE — are expressed once as the [`SketchKernel`] trait and
//! implemented twice: a portable scalar kernel and an AVX2 kernel built from
//! `core::arch` intrinsics.
//!
//! # Dispatch model
//!
//! The ISA is picked **once per process**: the first call to [`kernel`]
//! consults [`best_isa`] (the `HIFIND_FORCE_KERNEL` env override if valid,
//! otherwise CPUID via [`detect_isa`]) and caches the choice in an atomic.
//! Every hot loop then loads one `&'static dyn SketchKernel` and stays on it
//! for the life of the process, so there is no per-packet branching on CPU
//! features. Benchmarks flip kernels explicitly with [`set_kernel`].
//!
//! # Bit-identity contract
//!
//! Every kernel method must produce **bit-identical** results across ISAs:
//!
//! * Integer methods use saturating (`add`) or wrapping (`sum`)
//!   semantics, which are associative enough to vectorize directly — a
//!   wrapping sum is order-independent mod 2⁶⁴, and the saturating merge
//!   preserves element order because each element is independent.
//! * Floating-point reductions ([`SketchKernel::row_moments`]) are **not**
//!   reassociation-safe, so the contract fixes the association: element `i`
//!   accumulates into lane `i mod 4`, and lanes combine as
//!   `(l0 + l1) + (l2 + l3)`. The scalar kernel emulates the same four
//!   lanes, so scalar and AVX2 agree to the last bit.
//!
//! The equivalence proptests in `tests/kernel_equivalence.rs` hold both
//! implementations to this contract, including non-lane-multiple lengths,
//! empty rows, and `i64::MIN`/`i64::MAX` boundary values.

use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

pub use scalar::ScalarKernel;

/// Instruction-set architectures a kernel can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar Rust — always available.
    Scalar,
    /// AVX2 (256-bit integer SIMD, x86-64) — requires runtime CPUID support.
    Avx2,
}

impl Isa {
    /// Stable lowercase name (matches the `HIFIND_FORCE_KERNEL` values).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }

    /// Non-zero tag for the dispatch cache (0 means "not yet selected").
    fn tag(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Packets per batched-UPDATE chunk. The kernel finishes one chunk's bucket
/// indices per stage into a 512-byte stack buffer
/// ([`SketchKernel::buckets_premixed`]), then the scatter into the stage row
/// issues that many independent saturating adds back-to-back — deep enough
/// to keep the memory system's miss parallelism busy, small enough that the
/// index buffer never leaves L1.
pub const UPDATE_CHUNK: usize = 64;

/// Environment variable that forces a specific kernel (`scalar` or `avx2`).
///
/// An unsupported or unparsable value falls back to [`detect_isa`] — the
/// override must never turn a working process into a crashing one.
pub const FORCE_KERNEL_ENV: &str = "HIFIND_FORCE_KERNEL";

/// Moments of one counter row, produced by [`SketchKernel::row_moments`].
///
/// The floating-point sums follow the fixed 4-lane association documented
/// on the module; magnitudes are taken with `i64::unsigned_abs` so
/// `i64::MIN` is handled without overflow.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RowMoments {
    /// Number of non-zero elements.
    pub nonzero: u64,
    /// Σ |vᵢ| accumulated in f64 (4-lane association).
    pub abs_sum: f64,
    /// Σ |vᵢ|² accumulated in f64 (4-lane association; each |vᵢ| is
    /// converted to f64 once and squared, matching the scalar path).
    pub sq_sum: f64,
    /// max |vᵢ| as an unsigned magnitude (`unsigned_abs`).
    pub max_abs: u64,
    /// Σ vᵢ accumulated in f64 (4-lane association) — the signed bias.
    pub bias_sum: f64,
}

/// The vectorizable inner loops of UPDATE / ESTIMATE / INFERENCE / COMBINE.
///
/// Implementations must be bit-identical to [`ScalarKernel`]; see the
/// module docs for the exact contract. Slice-length mismatches are handled
/// by operating on the common prefix (callers pass equal lengths; the grid
/// wrappers enforce shape).
pub trait SketchKernel: Send + Sync {
    /// Which ISA this kernel runs on.
    fn isa(&self) -> Isa;

    /// `dst[i] = dst[i].saturating_add(src[i])` element-wise.
    fn add_saturating(&self, dst: &mut [i64], src: &[i64]);

    /// Wrapping sum of a row (order-independent mod 2⁶⁴).
    fn sum_wrapping(&self, row: &[i64]) -> i64;

    /// Appends the index of every element with `row[i] >= threshold` to
    /// `out`, in ascending order, as `u32` (rows longer than `u32::MAX`
    /// are not supported by any sketch configuration).
    fn heavy_buckets(&self, row: &[i64], threshold: i64, out: &mut Vec<u32>);

    /// Accumulates the row moments used by forecast-error statistics.
    fn row_moments(&self, row: &[i64]) -> RowMoments;

    /// Finishes the multiply-shift hash for a batch of premixed keys:
    /// `out[i] = ((premixed[i]·a + b) mod 2⁶⁴) >> shift`, with `shift >= 64`
    /// yielding bucket 0 (the single-bucket degenerate case).
    fn buckets_premixed(&self, premixed: &[u64], a: u64, b: u64, shift: u32, out: &mut [u64]);

    /// Hints the CPU to start pulling `row[idx[i]]` toward L1 for every
    /// in-range index, ahead of an imminent scatter of saturating adds.
    ///
    /// Purely a performance hint with no observable effect on any counter
    /// (out-of-range indices are ignored), so it is trivially exempt from
    /// the bit-identity contract. The default — and the scalar kernel —
    /// does nothing; the batched UPDATE paths call it with a whole chunk's
    /// bucket indices for *all* stages before the first scatter touches the
    /// grid, so on sketches whose rows dwarf L2 the misses of every stage
    /// stream in concurrently instead of stage-by-stage on demand.
    fn prefetch_buckets(&self, row: &[i64], idx: &[u64]) {
        let _ = (row, idx);
    }
}

static SCALAR: ScalarKernel = ScalarKernel;

#[cfg(target_arch = "x86_64")]
static AVX2: avx2::Avx2Kernel = avx2::Avx2Kernel;

/// Tag of the process-wide selected kernel; 0 until first use.
static SELECTED: AtomicU8 = AtomicU8::new(0);

/// Detects the best ISA the CPU supports (ignores the env override).
pub fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
    }
    Isa::Scalar
}

/// Parses [`FORCE_KERNEL_ENV`]; `None` if unset or unrecognized.
pub fn forced_isa() -> Option<Isa> {
    let v = std::env::var(FORCE_KERNEL_ENV).ok()?;
    match v.trim().to_ascii_lowercase().as_str() {
        "scalar" => Some(Isa::Scalar),
        "avx2" => Some(Isa::Avx2),
        _ => None,
    }
}

/// The ISA the process should run: a valid, supported [`forced_isa`] wins,
/// otherwise [`detect_isa`]. A forced ISA the CPU cannot execute falls back
/// to detection rather than crashing.
pub fn best_isa() -> Isa {
    match forced_isa() {
        Some(isa) if kernel_for(isa).is_some() => isa,
        _ => detect_isa(),
    }
}

/// The kernel for a specific ISA, or `None` if this CPU cannot run it.
pub fn kernel_for(isa: Isa) -> Option<&'static dyn SketchKernel> {
    match isa {
        Isa::Scalar => Some(&SCALAR),
        Isa::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            {
                if std::is_x86_feature_detected!("avx2") {
                    return Some(&AVX2);
                }
            }
            None
        }
    }
}

/// The best kernel for this process ([`best_isa`] resolved to a kernel).
pub fn best_kernel() -> &'static dyn SketchKernel {
    kernel_for(best_isa()).unwrap_or(&SCALAR)
}

/// Overrides the process-wide kernel (benchmarks compare kernels this way).
/// Returns `false` — leaving the selection unchanged — if this CPU cannot
/// run `isa`.
pub fn set_kernel(isa: Isa) -> bool {
    if kernel_for(isa).is_some() {
        // Readers that race the store keep the previous (equally correct)
        // kernel for a call or two.
        // relaxed-ok: the tag is a self-contained u8, no other data published
        SELECTED.store(isa.tag(), Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// The process-wide kernel all sketch hot loops dispatch through.
///
/// Selected once (env override, then CPUID) and cached; subsequent calls are
/// a single atomic load.
pub fn kernel() -> &'static dyn SketchKernel {
    // The tag selects between static kernels; racing initializers derive
    // the same value from env + CPUID, so any interleaving is correct.
    // relaxed-ok: self-contained u8 tag, no other data published through it
    match SELECTED.load(Ordering::Relaxed) {
        1 => &SCALAR,
        #[cfg(target_arch = "x86_64")]
        2 => &AVX2,
        _ => {
            let isa = best_isa();
            // relaxed-ok: see above; the store is idempotent.
            SELECTED.store(isa.tag(), Ordering::Relaxed);
            kernel_for(isa).unwrap_or(&SCALAR)
        }
    }
}

/// Human-readable kernel-selection summary
/// (`kernel=<name> detected_isa=<name> forced=<name|none>`): the help text
/// of the `hifind_sketch_kernel_info` gauge, and what the benches stamp
/// into their JSON so every perf number is attributable to a code path.
pub fn kernel_info_string() -> String {
    let forced = forced_isa().map(Isa::name).unwrap_or("none");
    format!(
        "kernel={} detected_isa={} forced={forced}",
        kernel().isa().name(),
        detect_isa().name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_kernel_always_available() {
        let k = kernel_for(Isa::Scalar).unwrap();
        assert_eq!(k.isa(), Isa::Scalar);
    }

    #[test]
    fn detected_isa_has_a_kernel() {
        let isa = detect_isa();
        let k = kernel_for(isa).unwrap();
        assert_eq!(k.isa(), isa);
    }

    #[test]
    fn set_kernel_scalar_always_succeeds_and_sticks() {
        // Single test for global-selection behavior: tests run in parallel,
        // so only this one asserts *which* kernel is selected. (Flipping
        // kernels mid-flight is safe for every other test — the two
        // implementations are bit-identical by contract.)
        assert!(set_kernel(Isa::Scalar));
        assert_eq!(kernel().isa(), Isa::Scalar);
        // Restore the default choice for the rest of the process; the suite
        // may run under HIFIND_FORCE_KERNEL (CI runs it twice), and in every
        // case the restored kernel must be the best resolvable one.
        assert!(set_kernel(best_isa()));
        assert_eq!(kernel().isa(), best_isa());
    }

    #[test]
    fn isa_names_round_trip() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Avx2.to_string(), "avx2");
    }

    #[test]
    fn kernel_info_string_names_all_three_fields() {
        let info = kernel_info_string();
        assert!(info.contains(&format!("kernel={}", kernel().isa().name())));
        assert!(info.contains(&format!("detected_isa={}", detect_isa().name())));
        assert!(info.contains("forced="));
    }
}
