//! Property-based tests for the sketch invariants the paper relies on.

use hifind_sketch::{
    InferOptions, KaryConfig, KarySketch, ReversibleSketch, RsConfig, TwoDConfig, TwoDSketch,
};
use proptest::prelude::*;

fn small_rs(seed: u64) -> ReversibleSketch {
    ReversibleSketch::new(RsConfig {
        key_bits: 48,
        stages: 6,
        buckets: 1 << 12,
        seed,
        mangle: true,
        verifier_buckets: Some(1 << 12),
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// COMBINE linearity: summing the per-stream grids (main and
    /// verifier) gives the merged stream's grids, and INFERENCE on the sum
    /// is INFERENCE on the merged sketch.
    #[test]
    fn reversible_combine_is_linear(
        seed in any::<u64>(),
        updates in prop::collection::vec((any::<u64>(), -50i64..50), 1..300),
        heavy in prop::collection::vec((any::<u64>(), 200i64..1000), 0..4),
    ) {
        let mut a = small_rs(seed);
        let mut b = small_rs(seed);
        let mut merged = small_rs(seed);
        for (i, &(k, v)) in updates.iter().chain(&heavy).enumerate() {
            let k = k & ((1 << 48) - 1);
            if i % 2 == 0 { a.update(k, v) } else { b.update(k, v) }
            merged.update(k, v);
        }
        let mut sum = a.grid().clone();
        sum.add_assign_many(&[b.grid()]).unwrap();
        let mut verifier_sum = a.verifier().unwrap().clone();
        verifier_sum.add_assign_many(&[b.verifier().unwrap()]).unwrap();
        prop_assert_eq!(&sum, merged.grid());
        prop_assert_eq!(&verifier_sum, merged.verifier().unwrap());
        prop_assert_eq!(a.grid().stage_sum(0) + b.grid().stage_sum(0), merged.grid().stage_sum(0));
        let opts = InferOptions::default();
        prop_assert_eq!(
            merged.hash().infer(&sum, Some(&verifier_sum), 150, &opts),
            merged.hash().infer(merged.grid(), merged.verifier(), 150, &opts)
        );
    }

    /// The raw per-stage bucket value always upper-bounds a key's true
    /// value when all updates are non-negative.
    #[test]
    fn kary_never_underestimates_with_positive_updates(
        seed in any::<u64>(),
        key in any::<u64>(),
        true_value in 1i64..1000,
        noise in prop::collection::vec(any::<u64>(), 0..500),
    ) {
        let mut s = KarySketch::new(KaryConfig { stages: 5, buckets: 1 << 10, seed }).unwrap();
        s.update(key, true_value);
        for &n in &noise {
            if n != key {
                s.update(n, 1);
            }
        }
        prop_assert!(s.hash().raw_estimate(s.grid(), key) >= true_value);
    }

    /// A single recorded key is recovered exactly by inference and its
    /// estimate matches the recorded value.
    #[test]
    fn inference_recovers_isolated_key(seed in any::<u64>(), key in any::<u64>(), value in 100i64..10_000) {
        let key = key & ((1 << 48) - 1);
        let mut rs = small_rs(seed);
        rs.update(key, value);
        let result = rs.hash().infer(rs.grid(), rs.verifier(), value / 2, &InferOptions::default());
        prop_assert_eq!(result.keys.len(), 1);
        prop_assert_eq!(result.keys[0].key, key);
        prop_assert!((result.keys[0].estimate - value).abs() <= 2);
    }

    /// Inference output is sound: every reported key's estimate clears the
    /// threshold (no arbitrary keys appear).
    #[test]
    fn inference_reports_only_above_threshold(
        seed in any::<u64>(),
        updates in prop::collection::vec((any::<u64>(), 1i64..400), 0..60),
        threshold in 100i64..500,
    ) {
        let mut rs = small_rs(seed);
        for &(k, v) in &updates {
            rs.update(k & ((1 << 48) - 1), v);
        }
        let result = rs.hash().infer(rs.grid(), rs.verifier(), threshold, &InferOptions::default());
        for hk in &result.keys {
            prop_assert!(hk.estimate >= threshold);
        }
    }

    /// UPDATE followed by the inverse update leaves the sketch zero.
    #[test]
    fn updates_are_invertible(
        seed in any::<u64>(),
        updates in prop::collection::vec((any::<u64>(), -100i64..100), 0..200),
    ) {
        let mut rs = small_rs(seed);
        for &(k, v) in &updates {
            rs.update(k & ((1 << 48) - 1), v);
        }
        for &(k, v) in &updates {
            rs.update(k & ((1 << 48) - 1), -v);
        }
        prop_assert!(rs.grid().is_zero());
        prop_assert_eq!(rs.grid().stage_sum(0), 0);
    }

    /// 2D sketch: column mass equals recorded mass for an isolated x-key.
    #[test]
    fn twod_column_mass_conserved(seed in any::<u64>(), x in any::<u64>(), ys in prop::collection::vec((any::<u64>(), 1i64..50), 1..50)) {
        let mut s = TwoDSketch::new(TwoDConfig { stages: 5, x_buckets: 1 << 10, y_buckets: 64, seed }).unwrap();
        let mut mass = 0i64;
        for &(y, v) in &ys {
            s.update(x, y, v);
            mass += v;
        }
        for stage in 0..5 {
            prop_assert_eq!(s.hash().column(s.grid(), stage, x).iter().sum::<i64>(), mass);
        }
    }

    /// 2D COMBINE linearity: summing the per-stream grids gives the
    /// merged stream's grid, and every x-key classifies the same on the
    /// sum as on the merged sketch.
    #[test]
    fn twod_combine_is_linear(
        seed in any::<u64>(),
        updates in prop::collection::vec((any::<u64>(), any::<u64>(), 1i64..20), 1..200),
    ) {
        let cfg = TwoDConfig { stages: 3, x_buckets: 1 << 8, y_buckets: 32, seed };
        let mut a = TwoDSketch::new(cfg).unwrap();
        let mut b = TwoDSketch::new(cfg).unwrap();
        let mut merged = TwoDSketch::new(cfg).unwrap();
        for (i, &(x, y, v)) in updates.iter().enumerate() {
            if i % 2 == 0 { a.update(x, y, v) } else { b.update(x, y, v) }
            merged.update(x, y, v);
        }
        let mut sum = a.grid().clone();
        sum.add_assign_many(&[b.grid()]).unwrap();
        prop_assert_eq!(&sum, merged.grid());
        prop_assert_eq!(a.grid().stage_sum(0) + b.grid().stage_sum(0), merged.grid().stage_sum(0));
        for &(x, _, _) in &updates {
            prop_assert_eq!(merged.hash().classify(&sum, x, 2, 0.8), merged.hash().classify(merged.grid(), x, 2, 0.8));
        }
    }
}
