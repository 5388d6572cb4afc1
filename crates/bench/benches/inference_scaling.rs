//! Ablation: cost of one variational EM fit as the workload grows
//! (tasks `N`, workers `M`, latent categories `K`).
//!
//! Motivated by DESIGN.md: the worker E-step is `O(M·K³ + |A|·K²)` and the
//! task E-step `O(N·(K³ + L·K))` (a K×K Cholesky per Newton step, `L`
//! tokens per task) — this bench checks the scaling empirically.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowd_core::{TdpmConfig, TdpmTrainer, TrainingSet};
use crowd_sim::{PlatformGenerator, SimConfig};
use std::hint::black_box;

fn fit(ts: &TrainingSet, k: usize) {
    let cfg = TdpmConfig {
        num_categories: k,
        max_em_iters: 3,
        seed: 1,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(cfg).fit(ts).unwrap();
    black_box(model);
}

fn inference_scaling(c: &mut Criterion) {
    // Vary the number of tasks at fixed K.
    let mut group = c.benchmark_group("inference_scaling_tasks");
    group.sample_size(10);
    for scale in [0.02, 0.04, 0.08] {
        let platform = PlatformGenerator::new(SimConfig::quora(scale, 7)).generate();
        let ts = TrainingSet::from_db(&platform.db);
        group.bench_with_input(BenchmarkId::from_parameter(ts.num_tasks()), &ts, |b, ts| {
            b.iter(|| fit(ts, 8))
        });
    }
    group.finish();

    // Vary K at a fixed workload.
    let platform = PlatformGenerator::new(SimConfig::quora(0.04, 7)).generate();
    let ts = TrainingSet::from_db(&platform.db);
    let mut group = c.benchmark_group("inference_scaling_categories");
    group.sample_size(10);
    for k in [5usize, 10, 20] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| fit(&ts, k))
        });
    }
    group.finish();

    // Parallel task E-step: threads vs wall-clock on a larger workload.
    let platform = PlatformGenerator::new(SimConfig::quora(0.15, 7)).generate();
    let ts = TrainingSet::from_db(&platform.db);
    let mut group = c.benchmark_group("inference_parallel_estep");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let cfg = TdpmConfig {
                    num_categories: 10,
                    max_em_iters: 2,
                    seed: 1,
                    num_threads: threads,
                    ..TdpmConfig::default()
                };
                b.iter(|| {
                    let (model, _) = TdpmTrainer::new(cfg.clone()).fit(&ts).unwrap();
                    black_box(model)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, inference_scaling);
criterion_main!(benches);
