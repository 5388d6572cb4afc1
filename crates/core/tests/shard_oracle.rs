//! Sharded-fit bit-identity oracle (DESIGN §11).
//!
//! The contract under test: `fit` with any `num_shards` × `num_threads`
//! combination produces **bitwise-identical** results to the serial
//! unsharded f64 path — the ELBO trace, every worker posterior in the
//! `SkillMatrix`, the fitted model parameters, and the trained task
//! projections. This holds because per-entity E-step updates are mutually
//! independent, and every global reduction (M-step moments, τ², β, ELBO)
//! goes through the fixed-block sufficient-statistics scheme whose
//! reduction tree depends only on entity count, never on the partition.
//!
//! Worker/task axes are cut into 256-entity blocks (`SUFF_BLOCK`), so the
//! fixtures here deliberately exceed 256 on one axis at a time — otherwise
//! every shard beyond the first would be empty and the test vacuous.

use crowd_core::dataset::{TaskData, TrainingSet};
use crowd_core::{FitDiagnostics, TdpmConfig, TdpmModel, TdpmTrainer};
use crowd_store::TaskId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A synthetic trainable set: every worker scores at least one task, word
/// lists are non-empty, all driven by one seeded RNG stream.
fn synth_ts(num_workers: usize, num_tasks: usize, vocab: usize, seed: u64) -> TrainingSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = (0..num_tasks)
        .map(|j| {
            let num_words = rng.random_range(1..4usize);
            let words: Vec<(usize, u32)> = (0..num_words)
                .map(|_| (rng.random_range(0..vocab), rng.random_range(1..4u32)))
                .collect();
            let num_tokens = words.iter().map(|&(_, c)| c as f64).sum();
            let num_scores = rng.random_range(1..5usize).min(num_workers);
            let mut scores: Vec<(usize, f64)> = (0..num_scores)
                .map(|_| {
                    (
                        rng.random_range(0..num_workers),
                        rng.random_range(-2.0..5.0f64),
                    )
                })
                .collect();
            // Spread coverage so high worker indexes participate too.
            scores.push(((j * 7919) % num_workers, rng.random_range(-2.0..5.0f64)));
            scores.sort_by_key(|&(w, _)| w);
            scores.dedup_by_key(|&mut (w, _)| w);
            TaskData {
                task: TaskId(j as u32),
                words,
                num_tokens,
                scores,
            }
        })
        .collect();
    TrainingSet::from_parts(tasks, num_workers, vocab)
}

fn fit(ts: &TrainingSet, shards: usize, threads: usize) -> (TdpmModel, FitDiagnostics) {
    let cfg = TdpmConfig {
        num_categories: 2,
        max_em_iters: 3,
        task_inner_iters: 1,
        seed: 7,
        num_shards: shards,
        num_threads: threads,
        ..TdpmConfig::default()
    };
    TdpmTrainer::new(cfg).fit(ts).unwrap()
}

/// Bitwise comparison of two fits: ELBO trace, posteriors, parameters.
fn assert_identical(
    oracle: &(TdpmModel, FitDiagnostics),
    got: &(TdpmModel, FitDiagnostics),
    label: &str,
) {
    let (om, or) = oracle;
    let (gm, gr) = got;
    assert_eq!(or.iterations, gr.iterations, "{label}: iterations");
    assert_eq!(or.converged, gr.converged, "{label}: converged flag");
    assert_eq!(
        or.objective_trace, gr.objective_trace,
        "{label}: ELBO trace"
    );

    // SkillMatrix: same workers, bit-identical rows.
    let (os, gs) = (om.skill_matrix(), gm.skill_matrix());
    assert_eq!(os.ids(), gs.ids(), "{label}: skill-matrix worker ids");
    for (row, id) in os.ids().iter().enumerate() {
        assert_eq!(os.mean_row(row), gs.mean_row(row), "{label}: λ_w of {id:?}");
        assert_eq!(os.var_row(row), gs.var_row(row), "{label}: ν²_w of {id:?}");
    }

    // Fitted model parameters.
    let (op, gp) = (om.params(), gm.params());
    assert_eq!(op.mu_w.as_slice(), gp.mu_w.as_slice(), "{label}: μ_w");
    assert_eq!(op.mu_c.as_slice(), gp.mu_c.as_slice(), "{label}: μ_c");
    assert_eq!(op.tau, gp.tau, "{label}: τ");
    for r in 0..op.sigma_w.rows() {
        assert_eq!(op.sigma_w.row(r), gp.sigma_w.row(r), "{label}: Σ_w row {r}");
        assert_eq!(op.sigma_c.row(r), gp.sigma_c.row(r), "{label}: Σ_c row {r}");
    }
    for r in 0..op.beta.rows() {
        assert_eq!(op.beta.row(r), gp.beta.row(r), "{label}: β row {r}");
    }

    // Trained (feedback-informed) task posteriors.
    let mut task_ids: Vec<TaskId> = om.trained_task_ids().collect();
    task_ids.sort();
    let mut got_ids: Vec<TaskId> = gm.trained_task_ids().collect();
    got_ids.sort();
    assert_eq!(task_ids, got_ids, "{label}: trained task ids");
    for id in task_ids {
        let (o, g) = (
            om.trained_projection(id).unwrap(),
            gm.trained_projection(id).unwrap(),
        );
        assert_eq!(
            o.lambda.as_slice(),
            g.lambda.as_slice(),
            "{label}: λ_c {id:?}"
        );
        assert_eq!(o.nu2.as_slice(), g.nu2.as_slice(), "{label}: ν²_c {id:?}");
    }
}

/// The full ISSUE matrix — shards 1/2/4/8 × threads 1/2/8 — on a worker
/// axis wide enough (600 > 2·256) that shards 1–2 own real blocks.
#[test]
fn shard_thread_matrix_is_bit_identical_wide_workers() {
    let ts = synth_ts(600, 40, 12, 42);
    let oracle = fit(&ts, 1, 1);
    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 8] {
            let got = fit(&ts, shards, threads);
            assert_identical(&oracle, &got, &format!("shards={shards} threads={threads}"));
        }
    }
}

/// Same matrix with the *task* axis spanning multiple blocks, so per-shard
/// τ²/β/task-prior partials are exercised (not just worker moments).
#[test]
fn shard_thread_matrix_is_bit_identical_wide_tasks() {
    let ts = synth_ts(24, 600, 12, 43);
    let oracle = fit(&ts, 1, 1);
    for shards in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 8] {
            let got = fit(&ts, shards, threads);
            assert_identical(&oracle, &got, &format!("shards={shards} threads={threads}"));
        }
    }
}

/// More shards than blocks: trailing shards are empty and must contribute
/// nothing (the degenerate partition still covers every entity exactly once).
#[test]
fn more_shards_than_blocks_is_bit_identical() {
    let ts = synth_ts(50, 30, 8, 44);
    let oracle = fit(&ts, 1, 1);
    for shards in [3usize, 8, 64] {
        let got = fit(&ts, shards, 2);
        assert_identical(&oracle, &got, &format!("shards={shards} (empty tails)"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random platform shapes × random shard/thread counts against the
    /// serial oracle. Worker counts straddle the 256-entity block boundary
    /// so both the single-block and multi-block regimes are drawn.
    #[test]
    fn random_shapes_match_serial_oracle(
        num_workers in 1usize..700,
        num_tasks in 1usize..50,
        seed in 0u64..1000,
        shards in 1usize..9,
        threads in 1usize..9,
    ) {
        let ts = synth_ts(num_workers, num_tasks, 10, seed);
        let oracle = fit(&ts, 1, 1);
        let got = fit(&ts, shards, threads);
        assert_identical(&oracle, &got, &format!("w={num_workers} t={num_tasks} seed={seed} shards={shards} threads={threads}"));
    }
}
