#![warn(missing_docs)]

//! Shared setup for the Criterion benchmarks.
//!
//! Each `fig*` bench regenerates one of the paper's running-time figures
//! (Figures 4, 6, 8): mean latency of Top-k crowd-selection per worker
//! group, for all four algorithms. The remaining benches are ablations
//! motivated in DESIGN.md (inference scaling, incremental vs batch).

use crowd_baselines::{CrowdSelector, DrmSelector, TspmSelector, VsmSelector};
use crowd_core::{ModelParams, TaskProjection, TdpmConfig, TdpmModel, TdpmTrainer, TrainingSet};
use crowd_eval::protocol::{EvalProtocol, TestQuestion};
use crowd_math::Vector;
use crowd_sim::{GeneratedPlatform, PlatformGenerator, PlatformKind, SimConfig};
use crowd_store::{WorkerGroup, WorkerId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Benchmark-sized platform (small enough for Criterion's warm-ups).
pub fn bench_platform(kind: PlatformKind) -> GeneratedPlatform {
    let cfg = match kind {
        PlatformKind::Quora => SimConfig::quora(0.08, 404),
        PlatformKind::Yahoo => SimConfig::yahoo(0.08, 404),
        PlatformKind::StackOverflow => SimConfig::stack_overflow(0.08, 404),
    };
    PlatformGenerator::new(cfg).generate()
}

/// Fits the four selectors (VSM, TSPM, DRM, TDPM) with `k` categories.
///
/// # Panics
///
/// Panics if `platform` has no resolved tasks — generated bench platforms
/// always do, so hitting this means a broken generator config.
pub fn fit_selectors(platform: &GeneratedPlatform, k: usize) -> Vec<Box<dyn CrowdSelector>> {
    let db = &platform.db;
    let tdpm = TdpmConfig {
        num_categories: k,
        seed: 404,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(tdpm)
        .fit(&TrainingSet::from_db(db))
        .expect("resolved tasks exist");
    vec![
        Box::new(VsmSelector::fit(db)),
        Box::new(TspmSelector::fit(db, k, 404)),
        Box::new(DrmSelector::fit(db, k, 404)),
        Box::new(model),
    ]
}

/// Builds the per-group query workloads used by the selection benches.
pub fn group_workloads(
    platform: &GeneratedPlatform,
    thresholds: &[usize],
    questions_per_group: usize,
) -> Vec<(usize, Vec<TestQuestion>)> {
    let protocol = EvalProtocol::new(questions_per_group, 99);
    thresholds
        .iter()
        .map(|&n| {
            let group = WorkerGroup::extract(&platform.db, n);
            (n, protocol.test_questions(&platform.db, &group))
        })
        .filter(|(_, qs)| !qs.is_empty())
        .collect()
}

/// One full selection query: rank the candidates, keep the top-k.
pub fn run_query(selector: &dyn CrowdSelector, question: &TestQuestion, k: usize) -> usize {
    selector
        .select(&question.bow, &question.candidates, k)
        .len()
}

/// Assembles a servable TDPM model over `workers` synthetic posteriors with
/// `k` latent categories — the workload for the dense serving-path benches
/// (`selection_throughput` and the `selection_smoke` bin).
///
/// The posteriors are drawn directly (no EM fit), so worker counts far
/// beyond what the simulator generates are cheap; selection behaves exactly
/// as on a trained model with these posteriors. Worker ids are dense
/// `0..workers`, so a candidate pool of the first `n` ids hits only known
/// workers.
///
/// # Panics
///
/// Panics if `workers` exceeds the `u32` id space or if posterior shapes
/// disagree with `k` — impossible for the in-range arguments benches pass.
pub fn synthetic_serving_model(workers: usize, k: usize, seed: u64) -> TdpmModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let posteriors: Vec<(WorkerId, Vector, Vector)> = (0..workers)
        .map(|i| {
            let mean: Vec<f64> = (0..k).map(|_| rng.random_range(-2.0..2.0)).collect();
            let var: Vec<f64> = (0..k).map(|_| rng.random_range(0.05..1.0)).collect();
            (
                WorkerId(u32::try_from(i).expect("bench worker count fits u32")),
                Vector::from_vec(mean),
                Vector::from_vec(var),
            )
        })
        .collect();
    let cfg = TdpmConfig {
        num_categories: k,
        num_threads: 8,
        ..TdpmConfig::default()
    };
    TdpmModel::from_posteriors(ModelParams::neutral(k, 64), cfg, posteriors)
        .expect("synthetic posteriors match k")
}

/// Synthetic task projections over `k` categories for the serving benches
/// (zero task-side variance: the mean path ignores `ν²`).
pub fn synthetic_projections(n: usize, k: usize, seed: u64) -> Vec<TaskProjection> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| TaskProjection {
            lambda: Vector::from_vec((0..k).map(|_| rng.random_range(-1.5..1.5)).collect()),
            nu2: Vector::zeros(k),
            num_tokens: 1.0,
        })
        .collect()
}
