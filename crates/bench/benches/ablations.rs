//! What do the design choices of DESIGN.md §8 cost on the hot path —
//! modular vs. plain hashing, mangling on/off, and the stage count? The
//! end-to-end benchmark runs only the chosen design, so only these
//! ablations answer it.
//!
//! COMBINE cost is the benchmark's `sketch.combine_ms` row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hifind_flow::rng::SplitMix64;
use hifind_hashing::{BucketHasher, Mangler, ModularHash, PairwiseHasher};
use hifind_sketch::{ReversibleSketch, RsConfig};
use std::hint::black_box;

fn bench_hash_families(c: &mut Criterion) {
    // Is reversibility (modular hashing + mangling) expensive on the hot
    // path? Compare the three hash layers on the same key stream.
    let mut group = c.benchmark_group("hash");
    let keys: Vec<u64> = {
        let mut rng = SplitMix64::new(1);
        (0..4096)
            .map(|_| rng.next_u64() & ((1 << 48) - 1))
            .collect()
    };
    group.throughput(Throughput::Elements(keys.len() as u64));

    let pairwise = PairwiseHasher::from_seed(2, 1 << 12);
    group.bench_function("pairwise", |b| {
        b.iter(|| {
            keys.iter()
                .map(|&k| pairwise.bucket(black_box(k)))
                .sum::<usize>()
        })
    });

    let modular = ModularHash::new(&mut SplitMix64::new(3), 48, 1 << 12).unwrap();
    group.bench_function("modular_48bit", |b| {
        b.iter(|| {
            keys.iter()
                .map(|&k| modular.bucket(black_box(k)))
                .sum::<usize>()
        })
    });

    let mangler = Mangler::new(&mut SplitMix64::new(4), 48);
    group.bench_function("mangle_plus_modular", |b| {
        b.iter(|| {
            keys.iter()
                .map(|&k| modular.bucket(mangler.mangle(black_box(k))))
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_stage_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("stages");
    let keys: Vec<u64> = {
        let mut rng = SplitMix64::new(5);
        (0..4096)
            .map(|_| rng.next_u64() & ((1 << 48) - 1))
            .collect()
    };
    group.throughput(Throughput::Elements(keys.len() as u64));
    for stages in [4usize, 6, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(stages),
            &stages,
            |b, &stages| {
                let mut rs = ReversibleSketch::new(RsConfig {
                    key_bits: 48,
                    stages,
                    buckets: 1 << 12,
                    seed: 6,
                    mangle: true,
                    verifier_buckets: None,
                })
                .unwrap();
                b.iter(|| {
                    for &k in &keys {
                        rs.update(black_box(k), 1);
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_hash_families, bench_stage_count);
criterion_main!(benches);
