//! The portable scalar kernel — the semantic reference every SIMD kernel
//! must match bit-for-bit.
//!
//! Integer methods are written as the obvious element-wise loops. The
//! floating-point reduction ([`SketchKernel::row_moments`]) deliberately is
//! *not* the obvious loop: it emulates the 4-lane accumulator structure a
//! 256-bit vector unit has (element `i` → lane `i mod 4`, lanes combined as
//! `(l0 + l1) + (l2 + l3)`), because f64 addition is not associative and the
//! contract pins one association for all ISAs.

use super::{Isa, RowMoments, SketchKernel};

/// Lane count the f64 reductions are specified against (256-bit / f64).
pub(crate) const F64_LANES: usize = 4;

/// The always-available portable kernel.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalarKernel;

impl SketchKernel for ScalarKernel {
    fn isa(&self) -> Isa {
        Isa::Scalar
    }

    fn add_saturating(&self, dst: &mut [i64], src: &[i64]) {
        for (a, b) in dst.iter_mut().zip(src) {
            *a = a.saturating_add(*b);
        }
    }

    fn sum_wrapping(&self, row: &[i64]) -> i64 {
        row.iter().fold(0i64, |acc, &v| acc.wrapping_add(v))
    }

    fn heavy_buckets(&self, row: &[i64], threshold: i64, out: &mut Vec<u32>) {
        debug_assert!(u32::try_from(row.len()).is_ok());
        for (i, &v) in row.iter().enumerate() {
            if v >= threshold {
                out.push(i as u32);
            }
        }
    }

    fn row_moments(&self, row: &[i64]) -> RowMoments {
        let mut abs_l = [0.0f64; F64_LANES];
        let mut sq_l = [0.0f64; F64_LANES];
        let mut bias_l = [0.0f64; F64_LANES];
        let mut nonzero = 0u64;
        let mut max_abs = 0u64;
        for (i, &v) in row.iter().enumerate() {
            let lane = i % F64_LANES;
            let mag = v.unsigned_abs();
            let magf = mag as f64;
            abs_l[lane] += magf;
            sq_l[lane] += magf * magf;
            bias_l[lane] += v as f64;
            // lint: allow(overflow-audit, bounded by row length, far below u64::MAX)
            nonzero += u64::from(v != 0);
            max_abs = max_abs.max(mag);
        }
        RowMoments {
            nonzero,
            abs_sum: (abs_l[0] + abs_l[1]) + (abs_l[2] + abs_l[3]),
            sq_sum: (sq_l[0] + sq_l[1]) + (sq_l[2] + sq_l[3]),
            max_abs,
            bias_sum: (bias_l[0] + bias_l[1]) + (bias_l[2] + bias_l[3]),
        }
    }

    fn buckets_premixed(&self, premixed: &[u64], a: u64, b: u64, shift: u32, out: &mut [u64]) {
        for (o, &p) in out.iter_mut().zip(premixed) {
            let h = p.wrapping_mul(a).wrapping_add(b);
            *o = if shift >= 64 { 0 } else { h >> shift };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_saturates_at_both_rails() {
        let k = ScalarKernel;
        let mut dst = [i64::MAX, i64::MIN, 5, -5];
        k.add_saturating(&mut dst, &[1, -1, 2, -2]);
        assert_eq!(dst, [i64::MAX, i64::MIN, 7, -7]);
    }

    #[test]
    fn wrapping_sum_is_modular() {
        let k = ScalarKernel;
        assert_eq!(k.sum_wrapping(&[]), 0);
        assert_eq!(k.sum_wrapping(&[i64::MAX, 1]), i64::MIN);
        assert_eq!(k.sum_wrapping(&[1, 2, 3]), 6);
    }

    #[test]
    fn heavy_buckets_indices_ascending() {
        let k = ScalarKernel;
        let mut out = Vec::new();
        k.heavy_buckets(&[5, 1, 7, 7, 0], 5, &mut out);
        assert_eq!(out, vec![0, 2, 3]);
    }

    #[test]
    fn moments_handle_extremes() {
        let k = ScalarKernel;
        let m = k.row_moments(&[i64::MIN, 0, 3, -4]);
        assert_eq!(m.nonzero, 3);
        assert_eq!(m.max_abs, 1u64 << 63);
        assert_eq!(m.abs_sum, (1u64 << 63) as f64 + 7.0);
        assert_eq!(m.bias_sum, i64::MIN as f64 - 1.0);
        assert!(k.row_moments(&[]).abs_sum == 0.0);
    }

    #[test]
    fn bucket_finish_matches_hasher_semantics() {
        let k = ScalarKernel;
        let mut out = [0u64; 3];
        // shift >= 64 is the 1-bucket degenerate case: everything maps to 0.
        k.buckets_premixed(&[1, u64::MAX, 7], 3, 9, 64, &mut out);
        assert_eq!(out, [0, 0, 0]);
        k.buckets_premixed(&[1, u64::MAX, 7], 3, 9, 62, &mut out);
        for (&o, &p) in out.iter().zip(&[1u64, u64::MAX, 7]) {
            assert_eq!(o, p.wrapping_mul(3).wrapping_add(9) >> 62);
        }
    }
}
