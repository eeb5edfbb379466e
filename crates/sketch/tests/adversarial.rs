//! Adversarial/DoS-resilience tests for the sketches (paper §3.5).
//!
//! The paper argues an attacker cannot (a) exhaust HiFIND's memory, (b)
//! hide a real attack under a spoofed flood, or (c) engineer hash
//! collisions without knowing the secret seeds. These tests exercise each
//! claim against the actual implementation.

use hifind_flow::rng::SplitMix64;
use hifind_sketch::{InferOptions, ReversibleSketch, RsConfig};

fn paper_rs(seed: u64) -> ReversibleSketch {
    ReversibleSketch::new(RsConfig::paper_48bit(seed)).unwrap()
}

/// (a) Memory does not grow with the number of distinct keys.
#[test]
fn memory_is_constant_under_spoofed_flood() {
    let mut rs = paper_rs(1);
    let before = rs.memory_bytes();
    let mut rng = SplitMix64::new(2);
    for _ in 0..500_000 {
        rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
    }
    assert_eq!(rs.memory_bytes(), before);
}

/// (b) A fully spoofed flood spreads evenly over buckets and cannot mask a
/// concurrent real attack (paper: "Even if there is a real attack, the SYN
/// count for that attack is still significant to be detected").
#[test]
fn spoofed_flood_does_not_mask_real_attack() {
    let mut rs = paper_rs(3);
    let attack_key = 0x0666_1389_0050u64;
    // The real attack: 1000 unresponded SYNs.
    rs.update(attack_key, 1000);
    // The smokescreen: one million spoofed keys, one SYN each (the paper's
    // 1667 pps for 10 minutes).
    let mut rng = SplitMix64::new(4);
    for _ in 0..1_000_000 {
        rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
    }
    // Expected flood mass per bucket: 1e6 / 4096 ≈ 244 — well under the
    // attack's 1000. The unbiased estimator subtracts that baseline.
    let est = rs.hash().estimate(rs.grid(), attack_key);
    assert!(
        (est - 1000).abs() < 300,
        "estimate {est} drifted too far under flood"
    );
    let result = rs
        .hash()
        .infer(rs.grid(), rs.verifier(), 600, &InferOptions::default());
    assert!(
        result.keys.iter().any(|hk| hk.key == attack_key),
        "inference lost the real attack under the flood: {result:?}"
    );
}

/// (c) Without the seeds, structured key sets (shared prefixes, sequential
/// suffixes — the best an attacker can do blind) do not concentrate in few
/// buckets thanks to mangling.
#[test]
fn structured_keys_do_not_concentrate() {
    let rs = paper_rs(5);
    // 4096 keys sharing 40 of 48 bits.
    let keys: Vec<u64> = (0..4096u64).map(|i| 0x0102_0304_0000 | i).collect();
    // Count distinct buckets hit in stage 0 via the public update path:
    // update each key into a fresh sketch and look at non-zero counters.
    let mut probe = paper_rs(5);
    for &k in &keys {
        probe.update(k, 1);
    }
    let nonzero = probe.grid().stage(0).iter().filter(|&&v| v != 0).count();
    // 4096 balls into 4096 bins leave ~63% of bins non-empty when uniform;
    // an unmangled word-local hash would hit at most 4 × 4 × 64 = touched
    // chunk combinations. Require at least a third of the buckets.
    assert!(
        nonzero > 1365,
        "structured keys collapsed into {nonzero} buckets"
    );
    let _ = rs;
}

/// (c') Two sketches with different seeds disagree on bucket placement, so
/// collisions found against one deployment (e.g. by probing a captured
/// box) do not transfer to another.
#[test]
fn collisions_do_not_transfer_across_seeds() {
    let mut a = paper_rs(6);
    let mut b = paper_rs(7);
    // Find two keys colliding in a's stage-0 bucket by brute force (an
    // attacker with full knowledge of a).
    let mut rng = SplitMix64::new(8);
    let k1 = rng.next_u64() & ((1 << 48) - 1);
    a.update(k1, 1);
    let target: Vec<usize> = (0..a.grid().buckets())
        .filter(|&i| a.grid().get(0, i) != 0)
        .collect();
    let bucket = target[0];
    let mut colliding = None;
    let mut probe = paper_rs(6);
    for _ in 0..200_000 {
        let k2 = rng.next_u64() & ((1 << 48) - 1);
        if k2 == k1 {
            continue;
        }
        probe.update(k2, 1);
        let hit = probe.grid().get(0, bucket) != 0;
        probe.update(k2, -1); // leave the probe sketch clean
        if hit {
            colliding = Some(k2);
            break;
        }
    }
    let k2 = colliding.expect("brute force finds a stage-0 collision");
    // Under a *different* seed the pair almost surely separates.
    b.update(k1, 1);
    b.update(k2, 1);
    let together = (0..b.grid().buckets()).all(|i| {
        let v = b.grid().get(0, i);
        v == 0 || v == 2
    });
    assert!(
        !together,
        "a collision engineered against seed 6 transferred to seed 7"
    );
}

/// Inference stays bounded (and reports truncation) when an adversary
/// makes *everything* heavy, instead of exploding in time/space.
#[test]
fn inference_survives_everything_heavy() {
    let mut rs = paper_rs(9);
    let mut rng = SplitMix64::new(10);
    for _ in 0..20_000 {
        rs.update(rng.next_u64() & ((1 << 48) - 1), 200);
    }
    let opts = InferOptions {
        max_candidates: 5_000,
        ..InferOptions::default()
    };
    let result = rs.hash().infer(rs.grid(), rs.verifier(), 100, &opts);
    assert!(result.stats.truncated);
    assert!(result.keys.len() <= 5_001);
}
