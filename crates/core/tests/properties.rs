//! Property-based tests for selection and inference plumbing.

use crowd_core::dataset::{TaskData, TrainingSet};
use crowd_core::selection::{rank_of, top_k};
use crowd_core::{
    ModelParams, RankedWorker, ScoreSpec, TaskProjection, TdpmConfig, TdpmModel, TdpmTrainer,
    Validate,
};
use crowd_math::Vector;
use crowd_store::{TaskId, WorkerId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Arbitrary worker posteriors over 3 categories: distinct ids, bounded
/// means/variances, and an occasional NaN-poisoned mean (a score of NaN must
/// be skipped identically by every selection path).
fn arb_posteriors() -> impl Strategy<Value = Vec<(WorkerId, Vec<f64>, Vec<f64>)>> {
    prop::collection::vec(
        (
            0u32..60,
            prop::collection::vec(-5.0f64..5.0, 3),
            prop::collection::vec(1e-3f64..2.0, 3),
            0u8..100,
        ),
        1..40,
    )
    .prop_map(|v| {
        let mut v: Vec<(WorkerId, Vec<f64>, Vec<f64>)> = v
            .into_iter()
            .map(|(w, mut mean, var, poison)| {
                if poison < 15 {
                    mean[0] = f64::NAN;
                }
                (WorkerId(w), mean, var)
            })
            .collect();
        v.sort_by_key(|p| p.0);
        v.dedup_by(|a, b| a.0 == b.0);
        v
    })
}

fn arb_scored() -> impl Strategy<Value = Vec<(WorkerId, f64)>> {
    prop::collection::vec((0u32..40, -100.0f64..100.0), 0..40).prop_map(|mut v| {
        // Distinct worker ids.
        v.sort_by_key(|&(w, _)| w);
        v.dedup_by_key(|&mut (w, _)| w);
        v.into_iter().map(|(w, s)| (WorkerId(w), s)).collect()
    })
}

/// Scores on distinct workers drawn from a tie-heavy alphabet: signed zeros,
/// infinities and NaN, repeated often enough to sit at the top-k floor.
fn arb_tied_scored() -> impl Strategy<Value = Vec<(WorkerId, f64)>> {
    const ALPHABET: [f64; 7] = [
        f64::NEG_INFINITY,
        -1.0,
        -0.0,
        0.0,
        1.0,
        f64::INFINITY,
        f64::NAN,
    ];
    prop::collection::vec((0u32..40, 0usize..ALPHABET.len()), 0..40).prop_map(|mut v| {
        v.sort_by_key(|&(w, _)| w);
        v.dedup_by_key(|&mut (w, _)| w);
        v.into_iter()
            .map(|(w, i)| (WorkerId(w), ALPHABET[i]))
            .collect()
    })
}

/// `scored` (continuous or tie-heavy) in an arbitrary feed order: one random
/// sort key per entry (both strategies draw fewer than 40 entries).
fn arb_shuffled_scored() -> impl Strategy<Value = Vec<(WorkerId, f64)>> {
    let scored = prop_oneof![arb_scored(), arb_tied_scored()];
    (scored, prop::collection::vec(0u64..u64::MAX, 40)).prop_map(|(scored, keys)| {
        let mut keyed: Vec<_> = keys.into_iter().zip(scored).collect();
        keyed.sort_by_key(|&(key, _)| key);
        keyed.into_iter().map(|(_, x)| x).collect()
    })
}

/// A small random—but always trainable—training set.
fn arb_training_set() -> impl Strategy<Value = TrainingSet> {
    let task = (
        prop::collection::vec((0usize..12, 1u32..4), 1..6),
        prop::collection::vec((0usize..4, -3.0f64..6.0), 1..4),
    );
    prop::collection::vec(task, 2..8).prop_map(|tasks| {
        let tasks = tasks
            .into_iter()
            .enumerate()
            .map(|(j, (words, mut scores))| {
                scores.sort_by_key(|&(w, _)| w);
                scores.dedup_by_key(|&mut (w, _)| w);
                let num_tokens = words.iter().map(|&(_, c)| c as f64).sum();
                TaskData {
                    task: TaskId(j as u32),
                    words,
                    num_tokens,
                    scores,
                }
            })
            .collect();
        TrainingSet::from_parts(tasks, 4, 12)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The floor-gated heap against a full sort that never touches `TopK`:
    /// same ids and same score bits, whatever the feed order, with ties,
    /// signed zeros and infinities at the floor.
    #[test]
    fn top_k_agrees_with_full_sort(scored in arb_shuffled_scored(), k in 0usize..10) {
        let fast = top_k(scored.clone(), k);
        let mut naive: Vec<_> = scored.into_iter().filter(|(_, s)| !s.is_nan()).collect();
        naive.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        naive.truncate(k);
        prop_assert_eq!(fast.len(), naive.len());
        for (f, n) in fast.iter().zip(&naive) {
            prop_assert_eq!(f.worker, n.0);
            prop_assert_eq!(f.score.to_bits(), n.1.to_bits());
        }
    }

    #[test]
    fn top_k_scores_are_sorted_descending(scored in arb_scored(), k in 1usize..10) {
        let out = top_k(scored, k);
        for w in out.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn rank_of_consistent_with_top_k(scored in arb_scored()) {
        prop_assume!(!scored.is_empty());
        let n = scored.len();
        let full = top_k(scored.clone(), n);
        for (pos, r) in full.iter().enumerate() {
            prop_assert_eq!(rank_of(scored.clone(), r.worker), Some(pos + 1));
        }
        prop_assert_eq!(rank_of(scored, WorkerId(999)), None);
    }

    /// Training never panics, never produces NaN skills, and the ELBO trace
    /// is non-decreasing (within numerical slack) on arbitrary small inputs.
    #[test]
    fn training_is_robust_on_random_data(ts in arb_training_set(), k in 1usize..4) {
        let cfg = TdpmConfig {
            num_categories: k,
            max_em_iters: 6,
            seed: 5,
            ..TdpmConfig::default()
        };
        let (model, report) = TdpmTrainer::new(cfg).fit(&ts).unwrap();
        for &w in model.worker_ids() {
            let skill = model.skill(w).unwrap();
            prop_assert!(skill.mean.is_finite(), "finite skills");
            prop_assert!(skill.variance.as_slice().iter().all(|&v| v > 0.0));
        }
        for w in report.objective_trace.windows(2) {
            let slack = 1e-4 * w[0].abs().max(1.0);
            prop_assert!(w[1] >= w[0] - slack, "ELBO non-decreasing: {:?}", report.objective_trace);
        }
        // Projection of arbitrary (even out-of-vocab) words never panics.
        let p = model.project_words(&[(0, 1), (999, 3)]);
        prop_assert!(p.lambda.is_finite());
    }

    /// The three selection strategies — greedy (Eq. 1), optimistic with zero
    /// exploration bonus, and Algorithm 3's sampled variant on a
    /// zero-variance posterior — are the same ranking in disguise: with
    /// `ν_c² = 0` the sampled category collapses to the mean and with
    /// `β = 0` the UCB bonus vanishes, so all three must return the same
    /// top-k workers in the same order.
    #[test]
    fn selection_strategies_agree_on_top_k(
        ts in arb_training_set(),
        lambda in prop::collection::vec(-4.0f64..4.0, 3),
        k_select in 1usize..5,
        rng_seed in 0u64..1000,
    ) {
        let cfg = TdpmConfig {
            num_categories: 3,
            max_em_iters: 4,
            seed: 11,
            ..TdpmConfig::default()
        };
        let (model, _) = TdpmTrainer::new(cfg).fit(&ts).unwrap();
        let projection = TaskProjection {
            lambda: Vector::from_vec(lambda),
            nu2: Vector::zeros(3),
            num_tokens: 1.0,
        };
        let candidates: Vec<WorkerId> = model.worker_ids().to_vec();

        let lambdas = [projection.lambda.as_slice()];
        let greedy = model
            .select(&lambdas, &candidates, k_select, &ScoreSpec::default())
            .remove(0)
            .ranked;
        let optimistic =
            model.select_top_k_optimistic(&projection, candidates.clone(), k_select, 0.0);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let sampled =
            model.select_top_k_sampled(&projection, candidates, k_select, &mut rng);

        let workers = |rs: &[crowd_core::RankedWorker]| -> Vec<WorkerId> {
            rs.iter().map(|r| r.worker).collect()
        };
        prop_assert_eq!(workers(&greedy), workers(&optimistic));
        prop_assert_eq!(workers(&greedy), workers(&sampled));
        for (g, o) in greedy.iter().zip(&optimistic) {
            prop_assert!((g.score - o.score).abs() < 1e-15);
        }
    }

    /// The dense serving paths — chunk-parallel [`TdpmModel::select`] at
    /// 1/2/8 threads, the same call over a batch of queries, and the
    /// optimistic variant — are
    /// all *bit-identical* to the hash-walk serial oracles, including on
    /// NaN-poisoned posteriors (skipped, never ranked) and unknown
    /// candidates (dropped).
    #[test]
    fn dense_parallel_and_batched_selection_are_bit_identical(
        posteriors in arb_posteriors(),
        lambda in prop::collection::vec(-4.0f64..4.0, 3),
        k in 1usize..6,
        beta in 0.0f64..2.0,
    ) {
        let cfg = TdpmConfig {
            num_categories: 3,
            ..TdpmConfig::default()
        };
        let workers: Vec<(WorkerId, Vector, Vector)> = posteriors
            .iter()
            .map(|(w, m, v)| (*w, Vector::from_vec(m.clone()), Vector::from_vec(v.clone())))
            .collect();
        let model =
            TdpmModel::from_posteriors(ModelParams::neutral(3, 12), cfg, workers).unwrap();
        let projection = TaskProjection {
            lambda: Vector::from_vec(lambda.clone()),
            nu2: Vector::zeros(3),
            num_tokens: 1.0,
        };
        // Every known worker plus an id the model has never seen.
        let mut candidates: Vec<WorkerId> = posteriors.iter().map(|p| p.0).collect();
        candidates.push(WorkerId(10_000));

        let bits = |rs: &[RankedWorker]| -> Vec<(WorkerId, u64)> {
            rs.iter().map(|r| (r.worker, r.score.to_bits())).collect()
        };

        let oracle = model.select_top_k_serial(&projection, candidates.iter().copied(), k);
        for threads in [1usize, 2, 8] {
            let spec = ScoreSpec { threads: Some(threads), ..ScoreSpec::default() };
            let lambdas = [projection.lambda.as_slice()];
            let dense = model.select(&lambdas, &candidates, k, &spec).remove(0).ranked;
            prop_assert_eq!(bits(&oracle), bits(&dense), "mean path, threads={}", threads);
        }

        // Batch kernel: repeated and distinct projections in one call.
        let second = TaskProjection {
            lambda: Vector::from_vec(lambda.iter().map(|x| x * 2.0).collect()),
            nu2: Vector::zeros(3),
            num_tokens: 1.0,
        };
        let projections = [projection.clone(), second, projection.clone()];
        let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
        let batch = model.select(&lambdas, &candidates, k, &ScoreSpec::default());
        prop_assert_eq!(batch.len(), projections.len());
        for (i, (p, got)) in projections.iter().zip(&batch).enumerate() {
            let want = model.select_top_k_serial(p, candidates.iter().copied(), k);
            prop_assert_eq!(bits(&want), bits(&got.ranked), "batch query {}", i);
        }

        // Optimistic (UCB) path against its serial oracle, forced through
        // the chunked kernel at every thread count.
        let opt_oracle = model.select_top_k_optimistic_serial(
            &projection,
            candidates.iter().copied(),
            k,
            beta,
        );
        let resolved = model.skill_matrix().resolve(candidates.iter().copied());
        for threads in [1usize, 2, 8] {
            let got = model.skill_matrix().select_optimistic(
                projection.lambda.as_slice(),
                &resolved,
                k,
                beta,
                threads,
            );
            prop_assert_eq!(bits(&opt_oracle), bits(&got), "optimistic, threads={}", threads);
        }
    }

    /// The debug-build invariant validator must never fire on a healthy
    /// seeded fit — neither during training (the E-/M-step hooks panic on
    /// violation, so `fit` returning `Ok` is itself the
    /// assertion) nor after a chain of incremental feedback updates. The
    /// checks are read-only, so a validated model must also still satisfy
    /// an explicit re-validation.
    #[test]
    fn validator_is_silent_on_healthy_fits_and_updates(
        ts in arb_training_set(),
        k in 1usize..4,
        feedback in prop::collection::vec((0u32..4, -3.0f64..6.0), 0..12),
    ) {
        let obs = crowd_obs::Obs::noop();
        let cfg = TdpmConfig {
            num_categories: k,
            max_em_iters: 5,
            seed: 23,
            ..TdpmConfig::default()
        };
        // Training runs the per-iteration state/params hooks internally.
        let (mut model, _) = TdpmTrainer::new(cfg)
            .with_obs(obs.clone())
            .fit(&ts)
            .unwrap();
        prop_assert!(model.validate().is_ok());

        // Incremental updates re-check the touched posterior on every call.
        let projection = model.project_words(&[(0, 2), (1, 1)]);
        for (w, score) in feedback {
            let worker = WorkerId(w);
            model.add_worker(worker);
            model.record_feedback(worker, &projection, score).unwrap();
        }
        prop_assert!(model.validate().is_ok());

        // The hooks actually ran (debug builds compile them in) and counted.
        if crowd_core::validate::ENABLED {
            let checks = obs.metrics.snapshot().counter("validate", "checks");
            prop_assert!(checks.unwrap_or(0) > 0, "no validations recorded");
        }
    }
}
