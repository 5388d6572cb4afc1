//! Seeded large-scale stress for the chunk-parallel serving paths.
//!
//! The property tests in `properties.rs` cover small adversarial shapes;
//! this harness goes the other way: one big seeded model (thousands of
//! workers, enough to cross the parallel-dispatch threshold) scored at
//! every thread count, asserting the rankings are *bit-identical* — same
//! workers, same order, same `f64` bits — so threading can never change a
//! query answer.

use crowd_core::{ModelParams, RankedWorker, ScoreSpec, TaskProjection, TdpmConfig, TdpmModel};
use crowd_math::Vector;
use crowd_store::WorkerId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const WORKERS: usize = 6_000;
const K: usize = 8;
const TOP_K: usize = 25;

fn big_model(seed: u64) -> TdpmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let posteriors: Vec<(WorkerId, Vector, Vector)> = (0..WORKERS)
        .map(|i| {
            let mean = Vector::from_fn(K, |_| rng.random_range(-3.0..3.0));
            let var = Vector::from_fn(K, |_| rng.random_range(0.01..1.5));
            (
                WorkerId(u32::try_from(i).expect("worker id fits u32")),
                mean,
                var,
            )
        })
        .collect();
    let cfg = TdpmConfig {
        num_categories: K,
        ..TdpmConfig::default()
    };
    TdpmModel::from_posteriors(ModelParams::neutral(K, 16), cfg, posteriors)
        .expect("synthetic posteriors match K")
}

fn bits(rs: &[RankedWorker]) -> Vec<(WorkerId, u64)> {
    rs.iter().map(|r| (r.worker, r.score.to_bits())).collect()
}

#[test]
fn parallel_top_k_is_bit_identical_across_thread_counts() {
    let model = big_model(2024);
    let mut rng = StdRng::seed_from_u64(7);
    let candidates: Vec<WorkerId> = model.worker_ids().to_vec();

    for trial in 0..4 {
        let projection = TaskProjection {
            lambda: Vector::from_fn(K, |_| rng.random_range(-2.0..2.0)),
            nu2: Vector::zeros(K),
            num_tokens: 1.0,
        };
        let oracle = model.select_top_k_serial(&projection, candidates.iter().copied(), TOP_K);
        assert_eq!(oracle.len(), TOP_K);
        for threads in [1usize, 2, 3, 4, 7, 8, 16] {
            let spec = ScoreSpec {
                threads: Some(threads),
                ..ScoreSpec::default()
            };
            let lambdas = [projection.lambda.as_slice()];
            let got = model
                .select(&lambdas, &candidates, TOP_K, &spec)
                .remove(0)
                .ranked;
            assert_eq!(
                bits(&oracle),
                bits(&got),
                "trial {trial}: {threads} threads diverged from the serial oracle"
            );
        }
    }
}

#[test]
fn batch_kernel_matches_serial_oracle_per_query() {
    let model = big_model(99);
    let mut rng = StdRng::seed_from_u64(13);
    let candidates: Vec<WorkerId> = model.worker_ids().to_vec();
    let projections: Vec<TaskProjection> = (0..32)
        .map(|_| TaskProjection {
            lambda: Vector::from_fn(K, |_| rng.random_range(-2.0..2.0)),
            nu2: Vector::zeros(K),
            num_tokens: 1.0,
        })
        .collect();

    let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
    let batch = model.select(&lambdas, &candidates, TOP_K, &ScoreSpec::default());
    assert_eq!(batch.len(), projections.len());
    for (i, (p, got)) in projections.iter().zip(&batch).enumerate() {
        let want = model.select_top_k_serial(p, candidates.iter().copied(), TOP_K);
        assert_eq!(bits(&want), bits(&got.ranked), "batch query {i}");
    }
}

#[test]
fn concurrent_queries_against_one_model_agree() {
    // The model is immutable during serving; hammering one instance from
    // many OS threads must give every thread the oracle answer.
    let model = std::sync::Arc::new(big_model(512));
    let candidates: Vec<WorkerId> = model.worker_ids().to_vec();
    let projection = TaskProjection {
        lambda: Vector::from_fn(K, |i| (i as f64 * 0.37).sin()),
        nu2: Vector::zeros(K),
        num_tokens: 1.0,
    };
    let oracle = bits(&model.select_top_k_serial(&projection, candidates.iter().copied(), TOP_K));

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let model = std::sync::Arc::clone(&model);
            let candidates = candidates.clone();
            let projection = projection.clone();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let spec = ScoreSpec {
                        threads: Some(1 + t % 4),
                        ..ScoreSpec::default()
                    };
                    let lambdas = [projection.lambda.as_slice()];
                    let got = model
                        .select(&lambdas, &candidates, TOP_K, &spec)
                        .remove(0)
                        .ranked;
                    assert_eq!(oracle, bits(&got), "thread {t}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("query thread panicked");
    }
}
