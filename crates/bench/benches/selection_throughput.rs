//! Serving-path throughput: the dense `SkillMatrix` kernels against the
//! serial per-worker baseline.
//!
//! Sweeps candidate-pool sizes {1k, 10k, 100k} × thread counts {1, 2, 4, 8}
//! for the chunk-parallel mean path (t > 1 runs on the persistent scoring
//! pool), plus 32-query batches sharing one pool and the opt-in f32 serving
//! mirror (single-query and batched) — every dense cell one
//! `TdpmModel::select` call.
//! `select_top_k_serial` — one row lookup and one scattered `Vector::dot`
//! per candidate — is the preserved baseline every dense path is measured
//! (and bit-compared, in the property tests) against. The machine-readable
//! version of this sweep is the `selection_smoke` bin, which writes
//! `results/BENCH_8.json` in CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_bench::{synthetic_projections, synthetic_serving_model};
use crowd_core::{Precision, ScoreSpec};
use crowd_store::WorkerId;
use std::hint::black_box;

const K: usize = 8;
const TOP_K: usize = 10;
const BATCH: usize = 32;

fn selection_throughput(c: &mut Criterion) {
    let model = synthetic_serving_model(100_000, K, 404);
    let projections = synthetic_projections(BATCH, K, 405);
    let one = [projections[0].lambda.as_slice()];
    let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
    let spec = |precision, threads| ScoreSpec {
        precision,
        threads,
        ..ScoreSpec::default()
    };

    for n in [1_000usize, 10_000, 100_000] {
        let candidates: Vec<WorkerId> = (0..n as u32).map(WorkerId).collect();
        let mut group = c.benchmark_group(format!("selection_throughput_{n}"));
        group.sample_size(10);

        group.bench_function("serial", |b| {
            b.iter(|| {
                black_box(model.select_top_k_serial(
                    &projections[0],
                    candidates.iter().copied(),
                    TOP_K,
                ))
            })
        });
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new("dense", threads),
                &threads,
                |b, &threads| {
                    let spec = spec(Precision::F64, Some(threads));
                    b.iter(|| black_box(model.select(&one, &candidates, TOP_K, &spec)))
                },
            );
        }
        group.bench_function("f32_t1", |b| {
            let spec = spec(Precision::F32, Some(1));
            b.iter(|| black_box(model.select(&one, &candidates, TOP_K, &spec)))
        });
        group.bench_function("batched_b32", |b| {
            let spec = spec(Precision::F64, None);
            b.iter(|| black_box(model.select(&lambdas, &candidates, TOP_K, &spec)))
        });
        group.bench_function("batched_f32_b32", |b| {
            let spec = spec(Precision::F32, None);
            b.iter(|| black_box(model.select(&lambdas, &candidates, TOP_K, &spec)))
        });
        group.finish();
    }
}

criterion_group!(benches, selection_throughput);
criterion_main!(benches);
