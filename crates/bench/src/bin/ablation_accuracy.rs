//! Accuracy ablations over the design choices DESIGN.md §8 calls out:
//!
//! * IP mangling on/off — inference false positives on structured
//!   (sequential) key spaces;
//! * stages `H` and buckets `m` — estimate error vs memory;
//! * 2D classifier parameters `(p, φ)` — flooding/scan separation;
//! * verifier sketch on/off — inference output false positives.
//!
//! Run: `cargo run --release -p hifind-bench --bin ablation_accuracy`

use hifind_bench::harness::{row, section, seed, write_json};
use hifind_flow::rng::SplitMix64;
use hifind_sketch::{
    ColumnShape, InferOptions, ReversibleSketch, RsConfig, TwoDConfig, TwoDSketch,
};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Ablations {
    mangling: Vec<(String, usize, usize)>,
    geometry: Vec<(String, f64, usize)>,
    classifier: Vec<(String, f64, f64)>,
    verifier: Vec<(String, usize)>,
}

/// Inserts grid-structured heavy attack keys (worst case for modular
/// hashing) plus noise; returns (true keys found, phantom candidates that
/// reached the final verification stage).
fn inference_fp(mangle: bool, use_verifier: bool, seed: u64) -> (usize, usize) {
    let mut cfg = RsConfig::paper_48bit(seed);
    cfg.mangle = mangle;
    if !use_verifier {
        cfg.verifier_buckets = None;
    }
    let mut rs = ReversibleSketch::new(cfg).expect("valid config");
    // Structured keys: a worm sweeping a 2D grid of campus addresses, so
    // the heavy keys differ only in two byte positions. Without mangling,
    // modular hashing cannot tell a real (row, column) pair from the
    // cross-product phantom (row_i, column_j) — the classic reversible-
    // sketch false-positive mode that IP mangling exists to break.
    let mut heavy = Vec::new();
    for i in 0..5u64 {
        for j in 0..4u64 {
            if (i + j) % 2 == 0 {
                // An irregular subset of the 5×4 grid: the full grid's
                // cross-product closure would hide the phantoms.
                heavy.push(0x8169_0000_0050 | (i + 1) << 16 | (j + 1) << 8);
            }
        }
    }
    for &k in &heavy {
        rs.update(k, 500);
    }
    let mut rng = SplitMix64::new(seed ^ 0xF00);
    for _ in 0..50_000 {
        // Noise shares the structured prefix too.
        rs.update(0x8169_0000_0000 | (rng.next_u64() & 0xFFFF_FFFF), 1);
    }
    // The phantom count is every reconstructed key that is not a true
    // key: those the estimate rejected, those the verifier rejected, and
    // those that survived both filters.
    let result = rs
        .hash()
        .infer(rs.grid(), rs.verifier(), 250, &InferOptions::default());
    let found = heavy
        .iter()
        .filter(|&&k| result.keys.iter().any(|hk| hk.key == k))
        .count();
    let survivors_fp = result
        .keys
        .iter()
        .filter(|hk| !heavy.contains(&hk.key))
        .count();
    (
        found,
        survivors_fp + result.stats.rejected_by_estimate + result.stats.rejected_by_verifier,
    )
}

fn main() {
    let mut out = Ablations::default();
    let s = seed();

    // --- 1. IP mangling ---------------------------------------------------
    section("Ablation: IP mangling (grid-structured keys, 10 true heavy keys)");
    let widths = [18, 12, 18];
    row(&["mangling", "found/10", "phantom candidates"], &widths);
    for (label, mangle) in [("on (paper)", true), ("off", false)] {
        let (found, fps) = inference_fp(mangle, true, s);
        row(&[label, &found.to_string(), &fps.to_string()], &widths);
        out.mangling.push((label.into(), found, fps));
    }

    // --- 2. Verifier sketch -----------------------------------------------
    section("Ablation: verification sketch");
    row(&["verifier", "false positives", ""], &[18, 18, 2]);
    for (label, verif) in [("on (paper)", true), ("off", false)] {
        let (_, fps) = inference_fp(true, verif, s ^ 1);
        row(&[label, &fps.to_string(), ""], &[18, 18, 2]);
        out.verifier.push((label.into(), fps));
    }

    // --- 3. Sketch geometry: H and m ---------------------------------------
    section("Ablation: stages H × buckets m (mean |estimate error| on 50 keys)");
    let widths = [22, 22, 14];
    row(&["config", "mean abs est. error", "memory KB"], &widths);
    for (stages, buckets) in [
        (4usize, 1 << 12),
        (6, 1 << 12),
        (8, 1 << 12),
        (6, 1 << 6),
        (6, 1 << 18),
    ] {
        let cfg = RsConfig {
            key_bits: 48,
            stages,
            buckets,
            seed: s ^ 2,
            mangle: true,
            verifier_buckets: None,
        };
        let Ok(mut rs) = ReversibleSketch::new(cfg) else {
            continue;
        };
        let mut rng = SplitMix64::new(s ^ 3);
        let truth: Vec<(u64, i64)> = (0..50)
            .map(|_| {
                (
                    rng.next_u64() & ((1 << 48) - 1),
                    100 + rng.below(900) as i64,
                )
            })
            .collect();
        for &(k, v) in &truth {
            rs.update(k, v);
        }
        for _ in 0..100_000 {
            rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
        }
        let err: f64 = truth
            .iter()
            .map(|&(k, v)| (rs.hash().estimate(rs.grid(), k) - v).abs() as f64)
            .sum::<f64>()
            / truth.len() as f64;
        let label = format!("H={stages}, m=2^{}", buckets.trailing_zeros());
        row(
            &[
                &label,
                &format!("{err:.1}"),
                &format!("{}", rs.memory_bytes() / 1024),
            ],
            &widths,
        );
        out.geometry.push((label, err, rs.memory_bytes() / 1024));
    }

    // --- 4. 2D classifier (p, φ) -------------------------------------------
    section("Ablation: 2D classifier (p, φ) — accuracy on 100 floods + 100 vscans");
    let widths = [18, 20, 20];
    row(&["(p, φ)", "flood accuracy", "vscan accuracy"], &widths);
    for (p, phi) in [(1usize, 0.5), (5, 0.8), (5, 0.5), (10, 0.9), (32, 0.8)] {
        let mut twod = TwoDSketch::new(TwoDConfig::paper(s ^ 4)).expect("paper config");
        let mut rng = SplitMix64::new(s ^ 5);
        let floods: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        let scans: Vec<u64> = (0..100).map(|_| rng.next_u64()).collect();
        for &x in &floods {
            for _ in 0..200 {
                twod.update(x, 80, 1);
            }
        }
        for &x in &scans {
            for port in 0..200u64 {
                twod.update(x, port, 1);
            }
        }
        for _ in 0..100_000 {
            twod.update(rng.next_u64(), rng.below(65536), 1);
        }
        let flood_acc = floods
            .iter()
            .filter(|&&x| twod.hash().classify(twod.grid(), x, p, phi) == ColumnShape::Concentrated)
            .count() as f64
            / 100.0;
        let scan_acc = scans
            .iter()
            .filter(|&&x| twod.hash().classify(twod.grid(), x, p, phi) == ColumnShape::Dispersed)
            .count() as f64
            / 100.0;
        let label = format!("(p={p}, φ={phi})");
        row(
            &[
                &label,
                &format!("{flood_acc:.2}"),
                &format!("{scan_acc:.2}"),
            ],
            &widths,
        );
        out.classifier.push((label, flood_acc, scan_acc));
    }

    write_json("ablation_accuracy", &out);
}
