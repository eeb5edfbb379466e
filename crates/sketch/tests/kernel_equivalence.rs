//! Bit-identity proptests: the dispatched AVX2 kernel against the scalar
//! reference, on raw rows and through the sketch-level UPDATE / ESTIMATE /
//! COMBINE entry points.
//!
//! This suite is the enforcement arm of the contract in
//! `hifind_sketch::simd`: every kernel method must agree with
//! [`hifind_sketch::simd::ScalarKernel`] to the last bit — including
//! non-lane-multiple row lengths (the vector loop's scalar tail), empty
//! rows, saturating boundaries (`i64::MIN` / `i64::MAX`), the fixed
//! 4-lane f64 association of `row_moments`, and the EWMA step's rounding
//! (half-way differences, magnitudes past 2⁵², saturating errors), which
//! both kernels must also match against an independent libm reference. On hardware without AVX2 the
//! raw-kernel tests degrade to scalar-vs-scalar (still exercising the
//! harness) rather than failing.

use hifind_sketch::simd::{kernel_for, set_kernel, Isa, SketchKernel, UPDATE_CHUNK};
use hifind_sketch::{
    CounterGrid, KaryConfig, KarySketch, ReversibleSketch, RsConfig, TwoDConfig, TwoDSketch,
};
use proptest::prelude::*;

/// The scalar reference and the best vector kernel this CPU can run (the
/// scalar kernel again when AVX2 is unavailable, keeping the suite green
/// on any host).
fn kernel_pair() -> (&'static dyn SketchKernel, &'static dyn SketchKernel) {
    let scalar = kernel_for(Isa::Scalar).expect("scalar kernel is always available");
    let vector = kernel_for(Isa::Avx2).unwrap_or(scalar);
    (scalar, vector)
}

/// Counter values biased toward the saturating boundaries where the AVX2
/// overflow emulation earns its keep.
fn counter() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        any::<i64>(),
        any::<i64>(),
        -1000i64..1000,
        -1000i64..1000,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
    ]
}

/// Row lengths straddling the 4-lane vector width: empty, sub-lane, exact
/// multiples, and ragged tails (the `UPDATE_CHUNK` span and beyond).
fn row() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(counter(), 0..(UPDATE_CHUNK + 9))
}

/// Smoothing factors: the two degenerate ends, the half that makes odd
/// observations produce `.5` forecasts, and anything in between.
fn alpha() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..=1.0]
}

/// Forecast state: integers, half-integers (where rounding half away from
/// zero and the hardware's half-to-even disagree), magnitudes past 2⁵²,
/// and values far enough past i64's range that the error saturates.
fn forecast_cell() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1000i64..1000).prop_map(|v| v as f64),
        (-1000i64..1000).prop_map(|v| v as f64 + 0.5),
        -1e6f64..1e6,
        (1i64 << 52..1i64 << 62).prop_map(|v| v as f64),
        -3e19f64..3e19,
        Just(i64::MAX as f64),
        Just(i64::MIN as f64),
    ]
}

/// The independent reference for one EWMA step: libm's `round` and the
/// recurrence written out per cell.
fn reference_ewma_step(observed: &[i64], alpha: f64, forecast: &[f64]) -> (Vec<i64>, Vec<f64>) {
    observed
        .iter()
        .zip(forecast)
        .map(|(&v, &n)| {
            let x = v as f64;
            ((x - n).round() as i64, alpha * x + (1.0 - alpha) * n)
        })
        .unzip()
}

/// Runs one `ewma_step` through `kernel` on copies of the state.
fn kernel_ewma_step(
    kernel: &dyn SketchKernel,
    observed: &[i64],
    alpha: f64,
    forecast: &[f64],
) -> (Vec<i64>, Vec<f64>) {
    let mut next = forecast.to_vec();
    let mut error = vec![0i64; observed.len()];
    kernel.ewma_step(observed, alpha, &mut next, &mut error);
    (error, next)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One step from arbitrary state: both kernels equal the reference,
    /// errors exactly and the next forecast to the bit.
    #[test]
    fn ewma_step_matches_the_reference(
        cells in prop::collection::vec((counter(), forecast_cell()), 0..(UPDATE_CHUNK + 9)),
        alpha in alpha(),
    ) {
        let (observed, forecast): (Vec<i64>, Vec<f64>) = cells.into_iter().unzip();
        let (want_error, want_next) = reference_ewma_step(&observed, alpha, &forecast);
        let (scalar, vector) = kernel_pair();
        for kernel in [scalar, vector] {
            let (error, next) = kernel_ewma_step(kernel, &observed, alpha, &forecast);
            prop_assert_eq!(&error, &want_error, "{}", kernel.isa());
            prop_assert_eq!(bits(&next), bits(&want_next), "{}", kernel.isa());
        }
    }

    /// A series of rows from warm-up on, as the forecaster runs it: the
    /// state each kernel carries forward stays bit-identical to the
    /// reference's.
    #[test]
    fn ewma_steps_match_the_reference_over_a_series(
        cells in prop::collection::vec(counter(), 0..(6 * (UPDATE_CHUNK + 9))),
        steps in 2usize..7,
        alpha in alpha(),
    ) {
        let len = cells.len() / steps;
        let rows: Vec<&[i64]> = (0..steps).map(|i| &cells[i * len..(i + 1) * len]).collect();
        let (scalar, vector) = kernel_pair();
        let warm: Vec<f64> = rows[0].iter().map(|&v| v as f64).collect();
        let (mut want, mut a, mut b) = (warm.clone(), warm.clone(), warm);
        for &row in &rows[1..] {
            let (want_error, want_next) = reference_ewma_step(row, alpha, &want);
            let (ea, na) = kernel_ewma_step(scalar, row, alpha, &a);
            let (eb, nb) = kernel_ewma_step(vector, row, alpha, &b);
            prop_assert_eq!(&ea, &want_error);
            prop_assert_eq!(&eb, &want_error);
            prop_assert_eq!(bits(&na), bits(&want_next));
            prop_assert_eq!(bits(&nb), bits(&want_next));
            (want, a, b) = (want_next, na, nb);
        }
    }

    #[test]
    fn add_saturating_matches_scalar(dst in row(), src in row()) {
        let (scalar, vector) = kernel_pair();
        let n = dst.len().min(src.len());
        let (mut a, mut b) = (dst.clone(), dst);
        scalar.add_saturating(&mut a[..n], &src[..n]);
        vector.add_saturating(&mut b[..n], &src[..n]);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sum_wrapping_matches_scalar(values in row()) {
        let (scalar, vector) = kernel_pair();
        prop_assert_eq!(scalar.sum_wrapping(&values), vector.sum_wrapping(&values));
    }

    #[test]
    fn heavy_buckets_matches_scalar(values in row(), threshold in counter()) {
        let (scalar, vector) = kernel_pair();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.heavy_buckets(&values, threshold, &mut a);
        vector.heavy_buckets(&values, threshold, &mut b);
        prop_assert_eq!(a, b);
    }

    /// `row_moments` must agree on every field, including the f64 sums —
    /// the fixed 4-lane association makes float equality exact, not
    /// approximate, so compare bit patterns.
    #[test]
    fn row_moments_matches_scalar_bit_for_bit(values in row()) {
        let (scalar, vector) = kernel_pair();
        let a = scalar.row_moments(&values);
        let b = vector.row_moments(&values);
        prop_assert_eq!(a.nonzero, b.nonzero);
        prop_assert_eq!(a.max_abs, b.max_abs);
        prop_assert_eq!(a.abs_sum.to_bits(), b.abs_sum.to_bits());
        prop_assert_eq!(a.sq_sum.to_bits(), b.sq_sum.to_bits());
        prop_assert_eq!(a.bias_sum.to_bits(), b.bias_sum.to_bits());
    }

    #[test]
    fn buckets_premixed_matches_scalar(
        premixed in prop::collection::vec(any::<u64>(), 0..(UPDATE_CHUNK + 9)),
        a in any::<u64>(),
        b in any::<u64>(),
        // Past 64 the shift is degenerate (bucket 0); cover both sides.
        shift in 0u32..70,
    ) {
        let (scalar, vector) = kernel_pair();
        let mut out_a = vec![0u64; premixed.len()];
        let mut out_b = vec![0u64; premixed.len()];
        scalar.buckets_premixed(&premixed, a, b, shift, &mut out_a);
        vector.buckets_premixed(&premixed, a, b, shift, &mut out_b);
        prop_assert_eq!(out_a, out_b);
    }

    /// Prefetching is a pure hint: any index set — in range, out of range,
    /// or against an empty row — must leave every counter untouched.
    #[test]
    fn prefetch_buckets_never_observably_acts(
        values in row(),
        idx in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let (scalar, vector) = kernel_pair();
        let before = values.clone();
        scalar.prefetch_buckets(&values, &idx);
        vector.prefetch_buckets(&values, &idx);
        vector.prefetch_buckets(&[], &idx);
        prop_assert_eq!(values, before);
    }
}

/// Half-way errors and the saturating rails, pinned: with α = ½ an odd
/// observation after a zero forecast leaves `k.5`, which rounds away from
/// zero (half-to-even would give 2 and −2 here); a difference past i64's
/// range saturates.
#[test]
fn ewma_step_rounds_half_away_and_saturates() {
    let observed = [5, -5, 3, -3, i64::MAX, i64::MIN, 1 << 53, -(1 << 53), 0];
    let forecast = [2.5, -2.5, 0.5, -0.5, -1e19, 1e19, 0.5, -0.5, 0.0];
    let want_error = [3, -3, 3, -3, i64::MAX, i64::MIN, 1 << 53, -(1 << 53), 0];
    let (scalar, vector) = kernel_pair();
    for kernel in [scalar, vector] {
        let (error, _) = kernel_ewma_step(kernel, &observed, 0.5, &forecast);
        assert_eq!(error, want_error, "{}", kernel.isa());
        let (reference, _) = reference_ewma_step(&observed, 0.5, &forecast);
        assert_eq!(reference, want_error);
    }
}

/// Forces `isa`, runs `f`, and restores the process-default kernel even if
/// `f` panics (other tests in this binary dispatch through the global).
fn with_kernel<T>(isa: Isa, f: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_kernel(hifind_sketch::simd::best_isa());
        }
    }
    let _restore = Restore;
    assert!(set_kernel(isa), "kernel for {isa} must be runnable here");
    f()
}

/// Sketch-level UPDATE / ESTIMATE / COMBINE under one forced kernel: the
/// full record-and-merge cycle the data plane runs, returning everything
/// bit-comparable it produces.
fn record_estimate_combine(
    updates: &[(u64, u64, i64)],
) -> (Vec<CounterGrid>, Vec<i64>, CounterGrid) {
    let mut rs = ReversibleSketch::new(RsConfig {
        key_bits: 48,
        stages: 5,
        buckets: 1 << 12,
        seed: 9,
        mangle: true,
        verifier_buckets: Some(1 << 10),
    })
    .unwrap();
    let mut kary = KarySketch::new(KaryConfig {
        stages: 5,
        buckets: 1 << 10,
        seed: 11,
    })
    .unwrap();
    let mut twod = TwoDSketch::new(TwoDConfig {
        stages: 3,
        x_buckets: 1 << 6,
        y_buckets: 1 << 5,
        seed: 13,
    })
    .unwrap();
    // UPDATE through the batched (kernel-dispatched) entry points, with a
    // ragged non-chunk-multiple tail.
    let keys: Vec<u64> = updates
        .iter()
        .map(|&(k, _, _)| k & ((1 << 48) - 1))
        .collect();
    let premixed: Vec<u64> = keys
        .iter()
        .map(|&k| hifind_hashing::PairwiseHasher::premix(k))
        .collect();
    let y_premixed: Vec<u64> = updates
        .iter()
        .map(|&(_, y, _)| hifind_hashing::PairwiseHasher::premix(y))
        .collect();
    let deltas: Vec<i64> = updates.iter().map(|&(_, _, d)| d).collect();
    rs.update_batch(&keys, &premixed, &deltas);
    kary.update_batch_premixed(&premixed, &deltas);
    twod.update_batch_premixed(&premixed, &y_premixed, &deltas);
    // ESTIMATE for a spread of present and absent keys.
    let estimates: Vec<i64> = keys
        .iter()
        .take(8)
        .chain([0u64, 1 << 20, (1 << 48) - 1].iter())
        .map(|&k| {
            rs.hash()
                .estimate(rs.grid(), k)
                .wrapping_add(kary.hash().estimate(kary.grid(), k))
        })
        .collect();
    // COMBINE: fold shifted copies of the k-ary grid into the reversible
    // grid's shape-mate via the cache-blocked kernel path, plus an
    // empty-grid merge (all-zero sources must be a bit-exact no-op).
    let mut combined = kary.grid().clone();
    let other = kary.grid().clone();
    let empty = CounterGrid::new(combined.stages(), combined.buckets());
    combined.add_assign_many(&[&other, &empty, &other]).unwrap();
    (
        vec![rs.grid().clone(), kary.grid().clone(), twod.grid().clone()],
        estimates,
        combined,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: the same update stream recorded, estimated, and combined
    /// under the scalar kernel and under the dispatched vector kernel must
    /// produce bit-identical grids, estimates, and merged counters.
    #[test]
    fn sketch_cycle_is_kernel_invariant(
        updates in prop::collection::vec(
            (any::<u64>(), any::<u64>(), counter()),
            1..(2 * UPDATE_CHUNK + 11),
        ),
    ) {
        let scalar = with_kernel(Isa::Scalar, || record_estimate_combine(&updates));
        if kernel_for(Isa::Avx2).is_some() {
            let vector = with_kernel(Isa::Avx2, || record_estimate_combine(&updates));
            prop_assert_eq!(scalar, vector);
        }
    }
}
