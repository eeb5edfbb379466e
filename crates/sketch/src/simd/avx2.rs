//! AVX2 implementation of [`SketchKernel`].
//!
//! # Safety argument (the whole of it)
//!
//! This file is the only unsafe code in the sketch crates, and every unsafe
//! operation here is one of exactly two shapes:
//!
//! 1. **Calling an `#[target_feature(enable = "avx2")]` function.** Sound
//!    because [`Avx2Kernel`] is unreachable except through
//!    [`super::kernel_for`], which checks
//!    `is_x86_feature_detected!("avx2")` at runtime before handing out
//!    the static instance — the feature is guaranteed present on every call.
//! 2. **Unaligned vector loads/stores through raw pointers derived from the
//!    argument slices.** Every access is at `ptr.add(i)` with `i + 4 <=
//!    len`, or at the start of a four-element `chunks_exact` chunk, i.e.
//!    strictly inside the slice; `loadu`/`storeu` have no alignment
//!    requirement; `i64`/`u64`/`f64` have no invalid bit patterns, so no
//!    value-level UB is possible.
//!
//! There is no FFI, no allocation, no transmute of non-POD types, and no
//! lifetime juggling — the perimeter is mechanical bounds reasoning plus the
//! dispatch-time CPUID check.
//!
//! # Bit-identity
//!
//! Each routine mirrors [`super::scalar::ScalarKernel`] exactly; where f64
//! association matters the 4-lane layout is the *definition* (module docs).
//! Saturating i64 add has no AVX2 instruction, so it is emulated with the
//! sign-overflow identity `ovf = (a ⊕ r) & (b ⊕ r)`, saturating toward
//! `a`'s sign. 64×64→64
//! multiplication is emulated from `_mm256_mul_epu32` partial products,
//! which is exactly wrapping multiplication mod 2⁶⁴. The EWMA step rounds
//! half away from zero as truncate + exact fraction test, and converts the
//! rounded f64 to i64 with the 2⁵² + 2⁵¹ magic-number trick, exact below
//! 2⁵¹ in magnitude; a group of four with any larger (or NaN) difference
//! takes the scalar rounding instead.

use core::arch::x86_64::*;

use super::scalar::{round_to_i64, F64_LANES};
use super::{Isa, RowMoments, SketchKernel};

/// The AVX2 kernel; constructed only as a static handed out by
/// [`super::kernel_for`] after runtime feature detection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Avx2Kernel;

impl SketchKernel for Avx2Kernel {
    fn isa(&self) -> Isa {
        Isa::Avx2
    }

    fn add_saturating(&self, dst: &mut [i64], src: &[i64]) {
        // SAFETY: AVX2 is present — `Avx2Kernel` is only reachable through
        // `kernel_for`, which verifies it at runtime (module safety note).
        unsafe { add_saturating(dst, src) }
    }

    fn sum_wrapping(&self, row: &[i64]) -> i64 {
        // SAFETY: as above — dispatch guarantees AVX2.
        unsafe { sum_wrapping(row) }
    }

    fn heavy_buckets(&self, row: &[i64], threshold: i64, out: &mut Vec<u32>) {
        // SAFETY: as above — dispatch guarantees AVX2.
        unsafe { heavy_buckets(row, threshold, out) }
    }

    fn row_moments(&self, row: &[i64]) -> RowMoments {
        // SAFETY: as above — dispatch guarantees AVX2.
        unsafe { row_moments(row) }
    }

    fn ewma_step(&self, observed: &[i64], alpha: f64, forecast: &mut [f64], error: &mut [i64]) {
        // SAFETY: as above — dispatch guarantees AVX2.
        unsafe { ewma_step(observed, alpha, forecast, error) }
    }

    fn buckets_premixed(&self, premixed: &[u64], a: u64, b: u64, shift: u32, out: &mut [u64]) {
        // SAFETY: as above — dispatch guarantees AVX2.
        unsafe { buckets_premixed(premixed, a, b, shift, out) }
    }

    fn prefetch_buckets(&self, row: &[i64], idx: &[u64]) {
        for &i in idx {
            if let Some(cell) = row.get(i as usize) {
                // SAFETY: `_mm_prefetch` is a pure hint — it never faults
                // and never writes; the pointer is in-bounds anyway (the
                // `get` above), and the instruction is baseline SSE on
                // every x86-64.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(cell).cast()) };
            }
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn add_saturating(dst: &mut [i64], src: &[i64]) {
    let n = dst.len().min(src.len());
    let d = dst.as_mut_ptr();
    let s = src.as_ptr();
    let zero = _mm256_setzero_si256();
    let max = _mm256_set1_epi64x(i64::MAX);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n keeps both 32-byte unaligned accesses inside
        // the slices.
        unsafe {
            let a = _mm256_loadu_si256(d.add(i).cast());
            let b = _mm256_loadu_si256(s.add(i).cast());
            let sum = _mm256_add_epi64(a, b);
            // Signed overflow iff a and b agree in sign and sum does not.
            let ovf = _mm256_and_si256(_mm256_xor_si256(a, sum), _mm256_xor_si256(b, sum));
            let ovf_mask = _mm256_cmpgt_epi64(zero, ovf);
            // Overflow saturates toward a's sign: MAX when a >= 0, MIN when
            // a < 0 (MAX ^ all-ones == MIN).
            let sat = _mm256_xor_si256(max, _mm256_cmpgt_epi64(zero, a));
            _mm256_storeu_si256(d.add(i).cast(), _mm256_blendv_epi8(sum, sat, ovf_mask));
        }
        i += 4;
    }
    while i < n {
        dst[i] = dst[i].saturating_add(src[i]);
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn sum_wrapping(row: &[i64]) -> i64 {
    let n = row.len();
    let p = row.as_ptr();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n keeps the 32-byte load inside the slice.
        unsafe {
            acc = _mm256_add_epi64(acc, _mm256_loadu_si256(p.add(i).cast()));
        }
        i += 4;
    }
    let lanes = to_lanes_i64(acc);
    // Wrapping addition is associative and commutative mod 2^64, so any
    // reduction order is bit-identical to the scalar left fold.
    let mut total = lanes[0]
        .wrapping_add(lanes[1])
        .wrapping_add(lanes[2])
        .wrapping_add(lanes[3]);
    while i < n {
        total = total.wrapping_add(row[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2")]
unsafe fn heavy_buckets(row: &[i64], threshold: i64, out: &mut Vec<u32>) {
    debug_assert!(u32::try_from(row.len()).is_ok());
    let Some(thr_minus_1) = threshold.checked_sub(1) else {
        // threshold == i64::MIN: every element qualifies.
        for i in 0..row.len() {
            out.push(i as u32);
        }
        return;
    };
    let n = row.len();
    let p = row.as_ptr();
    let tv = _mm256_set1_epi64x(thr_minus_1);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n keeps the 32-byte load inside the slice.
        let v = unsafe { _mm256_loadu_si256(p.add(i).cast()) };
        // v >= threshold  ⇔  v > threshold - 1.
        let mask = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, tv)));
        if mask != 0 {
            for lane in 0..4usize {
                if mask & (1 << lane) != 0 {
                    out.push((i + lane) as u32);
                }
            }
        }
        i += 4;
    }
    while i < n {
        if row[i] >= threshold {
            out.push(i as u32);
        }
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn row_moments(row: &[i64]) -> RowMoments {
    let n = row.len();
    let p = row.as_ptr();
    let zero = _mm256_setzero_si256();
    let sign_flip = _mm256_set1_epi64x(i64::MIN);
    let mut abs_acc = _mm256_setzero_pd();
    let mut sq_acc = _mm256_setzero_pd();
    let mut bias_acc = _mm256_setzero_pd();
    let mut max_acc = _mm256_setzero_si256();
    let mut zeros_acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n keeps the 32-byte load inside the slice.
        let v = unsafe { _mm256_loadu_si256(p.add(i).cast()) };
        let neg = _mm256_cmpgt_epi64(zero, v);
        // (v ^ neg) - neg == |v| as an unsigned magnitude; i64::MIN maps to
        // the 2^63 bit pattern, exactly `i64::unsigned_abs`.
        let mag = _mm256_sub_epi64(_mm256_xor_si256(v, neg), neg);
        let magf = u64x4_to_f64x4(mag);
        abs_acc = _mm256_add_pd(abs_acc, magf);
        sq_acc = _mm256_add_pd(sq_acc, _mm256_mul_pd(magf, magf));
        bias_acc = _mm256_add_pd(bias_acc, i64x4_to_f64x4(v));
        // Unsigned 64-bit max via sign-bit flip + signed compare.
        let gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(mag, sign_flip),
            _mm256_xor_si256(max_acc, sign_flip),
        );
        max_acc = _mm256_blendv_epi8(max_acc, mag, gt);
        // cmpeq yields -1 per zero lane; subtracting counts them.
        zeros_acc = _mm256_sub_epi64(zeros_acc, _mm256_cmpeq_epi64(v, zero));
        i += 4;
    }
    let mut abs_l = to_lanes_f64(abs_acc);
    let mut sq_l = to_lanes_f64(sq_acc);
    let mut bias_l = to_lanes_f64(bias_acc);
    let max_l = to_lanes_i64(max_acc);
    let zeros_l = to_lanes_i64(zeros_acc);
    let mut max_abs = max_l.iter().map(|&v| v as u64).max().unwrap_or(0);
    let zeros: u64 = zeros_l.iter().map(|&v| v as u64).sum();
    let mut nonzero = (i as u64).wrapping_sub(zeros);
    // Scalar tail; i is a multiple of 4 here, so `i % 4` continues the lane
    // mapping exactly as the scalar kernel defines it.
    while i < n {
        let v = row[i];
        let lane = i % F64_LANES;
        let mag = v.unsigned_abs();
        let magf = mag as f64;
        abs_l[lane] += magf;
        sq_l[lane] += magf * magf;
        bias_l[lane] += v as f64;
        // lint: allow(overflow-audit, bounded by row length, far below u64::MAX)
        nonzero += u64::from(v != 0);
        max_abs = max_abs.max(mag);
        i += 1;
    }
    RowMoments {
        nonzero,
        abs_sum: (abs_l[0] + abs_l[1]) + (abs_l[2] + abs_l[3]),
        sq_sum: (sq_l[0] + sq_l[1]) + (sq_l[2] + sq_l[3]),
        max_abs,
        bias_sum: (bias_l[0] + bias_l[1]) + (bias_l[2] + bias_l[3]),
    }
}

#[target_feature(enable = "avx2")]
unsafe fn ewma_step(observed: &[i64], alpha: f64, forecast: &mut [f64], error: &mut [i64]) {
    let n = observed.len().min(forecast.len()).min(error.len());
    let (observed, forecast, error) = (&observed[..n], &mut forecast[..n], &mut error[..n]);
    let av = _mm256_set1_pd(alpha);
    let bv = _mm256_set1_pd(1.0 - alpha);
    let sign = _mm256_set1_pd(-0.0);
    let half = _mm256_set1_pd(0.5);
    let one = _mm256_set1_pd(1.0);
    // Below 2^51 in magnitude a rounded difference r lands r + magic in
    // [2^52, 2^53], where the f64 bit pattern is linear in r.
    let limit = _mm256_set1_pd((1u64 << 51) as f64);
    let magic = _mm256_set1_pd(((1u64 << 52) + (1u64 << 51)) as f64);
    let mut o4 = observed.chunks_exact(4);
    let mut f4 = forecast.chunks_exact_mut(4);
    let mut e4 = error.chunks_exact_mut(4);
    for ((oc, fc), ec) in (&mut o4).zip(&mut f4).zip(&mut e4) {
        // SAFETY: each chunk holds exactly four elements, so every 32-byte
        // unaligned access below stays inside it.
        let (x, f) = unsafe {
            (
                i64x4_to_f64x4(_mm256_loadu_si256(oc.as_ptr().cast())),
                _mm256_loadu_pd(fc.as_ptr()),
            )
        };
        let d = _mm256_sub_pd(x, f);
        let small = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, d), limit);
        if _mm256_movemask_pd(small) == 0b1111 {
            let t = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(d);
            let frac = _mm256_sub_pd(d, t);
            // A fraction of a half or more steps t by ±1, toward frac's
            // (that is d's) sign.
            let away = _mm256_cmp_pd::<_CMP_GE_OQ>(_mm256_andnot_pd(sign, frac), half);
            let step = _mm256_and_pd(away, _mm256_or_pd(one, _mm256_and_pd(sign, frac)));
            let r = _mm256_add_pd(t, step);
            let bits = _mm256_sub_epi64(
                _mm256_castpd_si256(_mm256_add_pd(r, magic)),
                _mm256_castpd_si256(magic),
            );
            // SAFETY: the chunk holds exactly four i64.
            unsafe { _mm256_storeu_si256(ec.as_mut_ptr().cast(), bits) };
        } else {
            for (e, &d) in ec.iter_mut().zip(&to_lanes_f64(d)) {
                *e = round_to_i64(d);
            }
        }
        let next = _mm256_add_pd(_mm256_mul_pd(av, x), _mm256_mul_pd(bv, f));
        // SAFETY: the chunk holds exactly four f64.
        unsafe { _mm256_storeu_pd(fc.as_mut_ptr(), next) };
    }
    let beta = 1.0 - alpha;
    let tail = o4.remainder().iter().zip(f4.into_remainder());
    for ((&v, f), e) in tail.zip(e4.into_remainder()) {
        let x = v as f64;
        *e = round_to_i64(x - *f);
        *f = alpha * x + beta * *f;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn buckets_premixed(premixed: &[u64], a: u64, b: u64, shift: u32, out: &mut [u64]) {
    let n = premixed.len().min(out.len());
    let src = premixed.as_ptr();
    let dst = out.as_mut_ptr();
    let av = _mm256_set1_epi64x(a as i64);
    let bv = _mm256_set1_epi64x(b as i64);
    let a_hi = _mm256_srli_epi64::<32>(av);
    // Variable shift count; _mm256_srl_epi64 yields 0 for counts >= 64,
    // matching the scalar `shift >= 64 → bucket 0` degenerate case.
    let cnt = _mm_cvtsi32_si128(shift.min(64) as i32);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n keeps both 32-byte unaligned accesses inside
        // the slices.
        unsafe {
            let x = _mm256_loadu_si256(src.add(i).cast());
            let x_hi = _mm256_srli_epi64::<32>(x);
            // 64×64→64 wrapping multiply from 32×32→64 partial products:
            // lo(x)·lo(a) + ((lo(x)·hi(a) + hi(x)·lo(a)) << 32)  (mod 2^64).
            let lo = _mm256_mul_epu32(x, av);
            let cross = _mm256_add_epi64(_mm256_mul_epu32(x, a_hi), _mm256_mul_epu32(x_hi, av));
            let prod = _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross));
            let h = _mm256_add_epi64(prod, bv);
            _mm256_storeu_si256(dst.add(i).cast(), _mm256_srl_epi64(h, cnt));
        }
        i += 4;
    }
    while i < n {
        let h = premixed[i].wrapping_mul(a).wrapping_add(b);
        out[i] = if shift >= 64 { 0 } else { h >> shift };
        i += 1;
    }
}

/// Exact full-range i64 → f64 conversion (round-to-nearest-even, identical
/// to `v as f64`): the low 32 bits are packed onto the 2⁵² exponent, the
/// sign-flipped high 32 bits onto 2⁸⁴, and one FP subtract + add recombines
/// them with a single rounding step.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn i64x4_to_f64x4(v: __m256i) -> __m256d {
    let magic_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000); // double 2^52
    let magic_hi = _mm256_set1_epi64x(0x4530_0000_8000_0000_u64 as i64); // 2^84 + 2^63
    let magic_all = _mm256_set1_epi64x(0x4530_0000_8010_0000_u64 as i64); // 2^84 + 2^63 + 2^52
    let v_lo = _mm256_blend_epi32::<0b0101_0101>(magic_lo, v);
    let v_hi = _mm256_xor_si256(_mm256_srli_epi64::<32>(v), magic_hi);
    let hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), _mm256_castsi256_pd(magic_all));
    _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo))
}

/// Exact full-range u64 → f64 conversion (round-to-nearest-even, identical
/// to `v as f64`); the unsigned variant of [`i64x4_to_f64x4`].
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn u64x4_to_f64x4(v: __m256i) -> __m256d {
    let magic_lo = _mm256_set1_epi64x(0x4330_0000_0000_0000); // double 2^52
    let magic_hi = _mm256_set1_epi64x(0x4530_0000_0000_0000); // double 2^84
    let magic_all = _mm256_set1_epi64x(0x4530_0000_0010_0000); // 2^84 + 2^52
    let v_lo = _mm256_blend_epi32::<0b0101_0101>(magic_lo, v);
    let v_hi = _mm256_xor_si256(_mm256_srli_epi64::<32>(v), magic_hi);
    let hi_dbl = _mm256_sub_pd(_mm256_castsi256_pd(v_hi), _mm256_castsi256_pd(magic_all));
    _mm256_add_pd(hi_dbl, _mm256_castsi256_pd(v_lo))
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn to_lanes_i64(v: __m256i) -> [i64; 4] {
    let mut lanes = [0i64; 4];
    // SAFETY: the destination is exactly 32 writable bytes.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
    lanes
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn to_lanes_f64(v: __m256d) -> [f64; 4] {
    let mut lanes = [0f64; 4];
    // SAFETY: the destination is exactly 32 writable bytes.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
    lanes
}

#[cfg(test)]
mod tests {
    use super::super::ScalarKernel;
    use super::*;

    /// Runs `f` only when the host can actually execute AVX2; the proptest
    /// equivalence suite (tests/kernel_equivalence.rs) is the exhaustive
    /// check, these are targeted boundary smoke tests.
    fn with_avx2(f: impl FnOnce(&Avx2Kernel, &ScalarKernel)) {
        if std::is_x86_feature_detected!("avx2") {
            f(&Avx2Kernel, &ScalarKernel);
        }
    }

    #[test]
    fn saturating_add_boundaries_match_scalar() {
        with_avx2(|v, s| {
            let src = [1i64, -1, i64::MAX, i64::MIN, 0, 123, -456, i64::MAX];
            let base = [i64::MAX, i64::MIN, i64::MAX, i64::MIN, 7, -7, 0, 1];
            let (mut a, mut b) = (base, base);
            v.add_saturating(&mut a, &src);
            s.add_saturating(&mut b, &src);
            assert_eq!(a, b);
        });
    }

    #[test]
    fn conversions_are_exact_at_extremes() {
        with_avx2(|v, s| {
            for row in [
                vec![i64::MIN, i64::MAX, 0, -1, 1, (1 << 53) + 1, -(1 << 53) - 1],
                vec![i64::MIN + 1, i64::MAX - 1, 3],
                vec![],
            ] {
                assert_eq!(v.row_moments(&row), s.row_moments(&row), "{row:?}");
            }
        });
    }

    #[test]
    fn bucket_finish_matches_scalar_incl_degenerate_shift() {
        with_avx2(|v, s| {
            let pre = [0u64, 1, u64::MAX, 0xDEAD_BEEF, 42, 7, 9, 11, 13];
            for shift in [0u32, 1, 31, 32, 33, 50, 63, 64] {
                let (mut a, mut b) = ([0u64; 9], [0u64; 9]);
                v.buckets_premixed(&pre, 0x9E37_79B9_7F4A_7C15, 0x1234, shift, &mut a);
                s.buckets_premixed(&pre, 0x9E37_79B9_7F4A_7C15, 0x1234, shift, &mut b);
                assert_eq!(a, b, "shift {shift}");
            }
        });
    }

    #[test]
    fn ewma_step_matches_scalar_across_the_fast_path_limit() {
        with_avx2(|v, s| {
            let two51 = 1i64 << 51;
            let observed = [
                two51 - 1,
                two51,
                -two51,
                two51 + 1,
                3,
                -3,
                i64::MAX,
                i64::MIN,
                7,
            ];
            for alpha in [0.0, 0.5, 1.0, 0.3] {
                let init = [0.5, 0.0, 0.0, -0.5, 0.5, -0.5, -9.3e18, 9.3e18, 6.5];
                let (mut fa, mut fb) = (init, init);
                let (mut ea, mut eb) = ([0i64; 9], [0i64; 9]);
                v.ewma_step(&observed, alpha, &mut fa, &mut ea);
                s.ewma_step(&observed, alpha, &mut fb, &mut eb);
                assert_eq!(ea, eb, "alpha {alpha}");
                assert_eq!(fa.map(f64::to_bits), fb.map(f64::to_bits), "alpha {alpha}");
            }
        });
    }

    #[test]
    fn heavy_scan_handles_min_threshold() {
        with_avx2(|v, s| {
            let row = [i64::MIN, -5, 0, 5, i64::MAX];
            for thr in [i64::MIN, i64::MIN + 1, -5, 0, 5, i64::MAX] {
                let (mut a, mut b) = (Vec::new(), Vec::new());
                v.heavy_buckets(&row, thr, &mut a);
                s.heavy_buckets(&row, thr, &mut b);
                assert_eq!(a, b, "thr {thr}");
            }
        });
    }
}
