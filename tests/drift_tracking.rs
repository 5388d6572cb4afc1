//! Skill drift: the case for incremental updates (paper Section 1,
//! "Incremental Crowd-Selection").
//!
//! Workers' real skills change over time. A model that keeps folding new
//! feedback into its posteriors (Algorithm 3's incremental path) must track
//! the drift; a frozen model trained once on stale history must fall
//! behind. This test constructs exactly that scenario.

use crowdselect::model::generative::{generate, GenerativeConfig};
use crowdselect::model::{ModelParams, TdpmConfig, TdpmTrainer};
use crowdselect::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sharp 3-topic parameters over 30 terms.
fn planted_params() -> ModelParams {
    let (k, v) = (3, 30);
    let mut p = ModelParams::neutral(k, v);
    for kk in 0..k {
        for vv in 0..v {
            p.beta[(kk, vv)] = if vv / 10 == kk { 0.085 } else { 0.0075 };
        }
        let s: f64 = p.beta.row(kk).iter().sum();
        for vv in 0..v {
            p.beta[(kk, vv)] /= s;
        }
    }
    p.tau = 0.3;
    p
}

#[test]
fn incremental_updates_track_skill_drift_better_than_a_frozen_model() {
    let params = planted_params();
    let gen_cfg = GenerativeConfig {
        num_workers: 10,
        num_tasks: 120,
        tokens_per_task: 20,
        workers_per_task: 4,
    };
    let mut rng = StdRng::seed_from_u64(11);

    // Phase 1: history under the ORIGINAL skills; train both models on it.
    let phase1 = generate(&params, &gen_cfg, &mut rng).unwrap();
    let fit_cfg = TdpmConfig {
        num_categories: 3,
        max_em_iters: 25,
        seed: 5,
        // Skills are about to drift: discount stale evidence geometrically
        // (effective memory ≈ 1/(1−ρ) ≈ 33 observations) so the incremental
        // posterior re-centers on the phase-2 feedback.
        feedback_forgetting: 0.97,
        ..TdpmConfig::default()
    };
    let (frozen, _) = TdpmTrainer::new(fit_cfg.clone())
        .fit(&phase1.training)
        .unwrap();
    let mut tracking = frozen.clone();

    // Drift: worker skills flip — each worker's strongest and weakest
    // categories swap. Expertise migrates wholesale.
    let drifted_skills: Vec<Vec<f64>> = phase1
        .worker_skills
        .iter()
        .map(|w| {
            let mut s: Vec<f64> = w.as_slice().to_vec();
            let (mut hi, mut lo) = (0, 0);
            for (idx, &x) in s.iter().enumerate() {
                if x > s[hi] {
                    hi = idx;
                }
                if x < s[lo] {
                    lo = idx;
                }
            }
            s.swap(hi, lo);
            s
        })
        .collect();

    // Phase 2: feedback arrives under the DRIFTED skills. The tracking
    // model folds it in incrementally; the frozen model ignores it. The
    // drift period lasts long enough (3 batches) for the new evidence to
    // outweigh the stale phase-1 history in the posterior.
    for _ in 0..3 {
        let phase2 = generate(&params, &gen_cfg, &mut rng).unwrap();
        for task in phase2.training.tasks() {
            let projection = tracking.project_words(&task.words);
            for &(i, _) in &task.scores {
                // Re-score the pair under the drifted skills.
                let c = &phase2.task_categories[task.task.index()];
                let drifted_quality: f64 = drifted_skills[i]
                    .iter()
                    .zip(c.as_slice())
                    .map(|(a, b)| a * b)
                    .sum();
                let w = phase2.training.worker_id(i);
                tracking.add_worker(w);
                tracking
                    .record_feedback(w, &projection, drifted_quality)
                    .unwrap();
            }
        }
    }

    // Phase 3: fresh evaluation tasks under the drifted skills. Which model
    // picks the (new) best answerer?
    let phase3 = generate(&params, &gen_cfg, &mut rng).unwrap();
    let mut frozen_hits = 0usize;
    let mut tracking_hits = 0usize;
    let mut total = 0usize;
    for task in phase3.training.tasks() {
        if task.scores.len() < 2 {
            continue;
        }
        let c = &phase3.task_categories[task.task.index()];
        let candidates: Vec<WorkerId> = task
            .scores
            .iter()
            .map(|&(i, _)| phase3.training.worker_id(i))
            .collect();
        // Ground truth under drifted skills.
        let right = task
            .scores
            .iter()
            .map(|&(i, _)| {
                let q: f64 = drifted_skills[i]
                    .iter()
                    .zip(c.as_slice())
                    .map(|(a, b)| a * b)
                    .sum();
                (phase3.training.worker_id(i), q)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;

        let pf = frozen.project_words(&task.words);
        let pt = tracking.project_words(&task.words);
        let spec = ScoreSpec::default();
        if frozen.select(&[pf.lambda.as_slice()], &candidates, 1, &spec)[0].ranked[0].worker
            == right
        {
            frozen_hits += 1;
        }
        if tracking.select(&[pt.lambda.as_slice()], &candidates, 1, &spec)[0].ranked[0].worker
            == right
        {
            tracking_hits += 1;
        }
        total += 1;
    }

    let frozen_acc = frozen_hits as f64 / total as f64;
    let tracking_acc = tracking_hits as f64 / total as f64;
    assert!(
        tracking_acc > frozen_acc + 0.1,
        "incremental model must track the drift: tracking {tracking_acc:.3} \
         vs frozen {frozen_acc:.3} over {total} tasks"
    );
    // ~4 candidates per task → random picking scores ≈ 0.25.
    assert!(
        tracking_acc > 0.4,
        "tracking model should stay clearly above chance after drift: {tracking_acc:.3}"
    );
}
