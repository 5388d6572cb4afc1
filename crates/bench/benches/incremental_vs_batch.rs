//! Ablation: Algorithm 3's incremental path (project a new task + update
//! one worker's skill) versus refitting the whole model — the "Incremental
//! Crowd-Selection" motivation of Section 1.

use criterion::{criterion_group, criterion_main, Criterion};
use crowd_core::{TdpmConfig, TdpmTrainer, TrainingSet};
use crowd_sim::{PlatformGenerator, PlatformKind, SimConfig};
use std::hint::black_box;

fn incremental_vs_batch(c: &mut Criterion) {
    let platform = PlatformGenerator::new(SimConfig::quora(0.05, 21)).generate();
    let ts = TrainingSet::from_db(&platform.db);
    let cfg = TdpmConfig {
        num_categories: 10,
        max_em_iters: 5,
        seed: 2,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(cfg.clone()).fit(&ts).unwrap();
    let words: Vec<(usize, u32)> = (0..12).map(|v| (v, 1u32)).collect();
    let worker = model.worker_ids()[0];

    let mut group = c.benchmark_group("incremental_vs_batch");
    group.sample_size(10);

    group.bench_function("project_new_task", |b| {
        b.iter(|| black_box(model.project_words(&words)))
    });

    group.bench_function("incremental_skill_update", |b| {
        let projection = model.project_words(&words);
        let mut m = model.clone();
        b.iter(|| {
            m.record_feedback(worker, &projection, 3.0).unwrap();
            black_box(m.skill_matrix().mean_row(0)[0])
        })
    });

    group.bench_function("full_batch_refit", |b| {
        b.iter(|| {
            let (m, _) = TdpmTrainer::new(cfg.clone()).fit(&ts).unwrap();
            black_box(m)
        })
    });

    group.finish();
    let _ = PlatformKind::Quora;
}

criterion_group!(benches, incremental_vs_batch);
criterion_main!(benches);
