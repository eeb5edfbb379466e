//! Statistical accuracy characterization (the paper's "sketches are highly
//! accurate" claim, §5.2, quantified).
//!
//! These tests pin the *scaling behaviour* the k-ary/reversible sketch
//! analysis promises: estimate error grows with load factor and shrinks
//! with bucket count; inference recall stays near one and precision near
//! one at the paper's operating point.

use hifind_flow::rng::SplitMix64;
use hifind_sketch::{InferOptions, KaryConfig, KarySketch, ReversibleSketch, RsConfig};

/// Mean absolute estimate error over `probes` known keys under `noise`
/// uniform single-count updates.
fn mean_abs_error(buckets: usize, noise: usize, seed: u64) -> f64 {
    let mut s = KarySketch::new(KaryConfig {
        stages: 6,
        buckets,
        seed,
    })
    .unwrap();
    let mut rng = SplitMix64::new(seed ^ 0xACC);
    let truth: Vec<(u64, i64)> = (0..100)
        .map(|_| (rng.next_u64(), 50 + rng.below(450) as i64))
        .collect();
    for &(k, v) in &truth {
        s.update(k, v);
    }
    for _ in 0..noise {
        s.update(rng.next_u64(), 1);
    }
    truth
        .iter()
        .map(|&(k, v)| (s.hash().estimate(s.grid(), k) - v).abs() as f64)
        .sum::<f64>()
        / truth.len() as f64
}

#[test]
fn estimate_error_shrinks_with_buckets() {
    let small = mean_abs_error(1 << 8, 100_000, 1);
    let large = mean_abs_error(1 << 14, 100_000, 1);
    assert!(
        large < small / 4.0,
        "64x buckets should cut error ≥4x: {small:.1} → {large:.1}"
    );
}

#[test]
fn estimate_error_grows_with_load() {
    let light = mean_abs_error(1 << 12, 10_000, 2);
    let heavy = mean_abs_error(1 << 12, 1_000_000, 2);
    assert!(
        heavy > light,
        "100x load should not shrink error: {light:.1} vs {heavy:.1}"
    );
    // At the paper's operating point the error stays small in absolute
    // terms (the unbiased estimator subtracts the mean load).
    assert!(heavy < 120.0, "error {heavy:.1} too large at paper scale");
}

#[test]
fn unbiased_estimator_centers_on_truth() {
    // Over many keys the signed error should average out near zero —
    // that is what "unbiased" buys over raw count-min style counters.
    let mut s = KarySketch::new(KaryConfig {
        stages: 6,
        buckets: 1 << 12,
        seed: 3,
    })
    .unwrap();
    let mut rng = SplitMix64::new(4);
    let truth: Vec<(u64, i64)> = (0..200).map(|_| (rng.next_u64(), 100)).collect();
    for &(k, v) in &truth {
        s.update(k, v);
    }
    for _ in 0..500_000 {
        s.update(rng.next_u64(), 1);
    }
    let signed_mean = truth
        .iter()
        .map(|&(k, v)| (s.hash().estimate(s.grid(), k) - v) as f64)
        .sum::<f64>()
        / truth.len() as f64;
    assert!(
        signed_mean.abs() < 15.0,
        "estimator bias {signed_mean:.1} too large"
    );
}

/// Inference recall/precision at the paper's 48-bit operating point.
/// (Key count sized for a debug-mode unit test; the candidate search's
/// cost inflation at many simultaneous heavy keys is the same effect the
/// paper's top-100 stress test reports in §5.5.3 and is measured in the
/// `throughput` binary in release mode.)
#[test]
fn inference_recall_and_precision_at_paper_config() {
    let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(5)).unwrap();
    let mut rng = SplitMix64::new(6);
    let heavy: Vec<u64> = (0..25).map(|_| rng.next_u64() & ((1 << 48) - 1)).collect();
    for &k in &heavy {
        rs.update(k, 500);
    }
    for _ in 0..200_000 {
        rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
    }
    let result = rs
        .hash()
        .infer(rs.grid(), rs.verifier(), 250, &InferOptions::default());
    let found = heavy
        .iter()
        .filter(|&&k| result.keys.iter().any(|hk| hk.key == k))
        .count();
    let recall = found as f64 / heavy.len() as f64;
    let precision = if result.keys.is_empty() {
        0.0
    } else {
        result
            .keys
            .iter()
            .filter(|hk| heavy.contains(&hk.key))
            .count() as f64
            / result.keys.len() as f64
    };
    assert!(recall >= 0.95, "recall {recall:.2} below spec");
    assert!(precision >= 0.95, "precision {precision:.2} below spec");
    assert!(!result.stats.truncated);
}

/// Inference recall degrades gracefully (not catastrophically) as the
/// number of simultaneous heavy keys grows. (The paper's "top 100
/// anomalies" stress inflates detection time the same way — §5.5.3
/// reports 35–47 s per interval there; the release-mode equivalent lives
/// in the `throughput` bench binary. Thirty keys keeps this a unit test.)
#[test]
fn inference_handles_many_heavy_keys() {
    let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(7)).unwrap();
    let mut rng = SplitMix64::new(8);
    let heavy: Vec<u64> = (0..30).map(|_| rng.next_u64() & ((1 << 48) - 1)).collect();
    for &k in &heavy {
        rs.update(k, 1000);
    }
    for _ in 0..200_000 {
        rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
    }
    let result = rs
        .hash()
        .infer(rs.grid(), rs.verifier(), 500, &InferOptions::default());
    let found = heavy
        .iter()
        .filter(|&&k| result.keys.iter().any(|hk| hk.key == k))
        .count();
    assert!(
        found >= 28,
        "only {found}/30 heavy keys recovered under stress"
    );
}

/// The verifier sketch measurably cuts inference false positives when the
/// main sketch is overloaded (ablation pinned as a regression test).
#[test]
fn verifier_reduces_false_positives_under_overload() {
    let run = |verifier: bool, seed: u64| -> usize {
        let mut cfg = RsConfig {
            key_bits: 48,
            stages: 6,
            buckets: 1 << 6, // deliberately tiny: heavy collisions
            seed,
            mangle: true,
            verifier_buckets: if verifier { Some(1 << 14) } else { None },
        };
        cfg.buckets = 1 << 6;
        let mut rs = ReversibleSketch::new(cfg).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0xF);
        let heavy: Vec<u64> = (0..5).map(|_| rng.next_u64() & ((1 << 48) - 1)).collect();
        for &k in &heavy {
            rs.update(k, 2000);
        }
        for _ in 0..50_000 {
            rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
        }
        let opts = InferOptions {
            max_candidates: 1 << 13,
            ..InferOptions::default()
        };
        rs.hash()
            .infer(rs.grid(), rs.verifier(), 1000, &opts)
            .keys
            .iter()
            .filter(|hk| !heavy.contains(&hk.key))
            .count()
    };
    let mut with_v = 0;
    let mut without_v = 0;
    for seed in 0..3 {
        with_v += run(true, seed);
        without_v += run(false, seed);
    }
    assert!(
        with_v <= without_v,
        "verifier should not increase FPs: {with_v} vs {without_v}"
    );
}
