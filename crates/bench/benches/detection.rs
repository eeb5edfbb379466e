//! How does INFERENCE cost grow with the number of heavy keys (§5.5.3,
//! ROADMAP item 8a)? The end-to-end benchmark times `detector.infer_ms`
//! on whatever its workloads happen to raise, never as a function of the
//! heavy-key count, so only this bench answers it: 1, 10 and 100 heavy
//! keys over 100k background keys on the paper's 48-bit reversible
//! sketch.
//!
//! Forecasting, classification and the full pipeline interval are the
//! benchmark's `forecast.step_ms`, `classify.ms` and
//! `pipeline.process_snapshot_ms` rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hifind_flow::rng::SplitMix64;
use hifind_sketch::{InferOptions, ReversibleSketch, RsConfig};
use std::hint::black_box;

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(20);
    for heavy in [1usize, 10, 100] {
        group.bench_with_input(
            BenchmarkId::new("heavy_keys", heavy),
            &heavy,
            |b, &heavy| {
                let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(3)).unwrap();
                let mut rng = SplitMix64::new(4);
                for _ in 0..heavy {
                    rs.update(rng.next_u64() & ((1 << 48) - 1), 1000);
                }
                for _ in 0..100_000 {
                    rs.update(rng.next_u64() & ((1 << 48) - 1), 1);
                }
                let opts = InferOptions::default();
                b.iter(|| {
                    black_box(rs.hash().infer(rs.grid(), rs.verifier(), 500, &opts))
                        .keys
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
