//! End-to-end recovery tests: generate data from the model (Algorithm 1),
//! fit it back with variational EM (Algorithm 2), and check that selection
//! decisions (Algorithm 3 + Eq. 1) agree with the planted ground truth.

use crowd_core::generative::{generate, GeneratedData, GenerativeConfig};
use crowd_core::{ModelParams, ScoreSpec, TdpmConfig, TdpmTrainer};
use crowd_math::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planted model: 3 categories, 30 vocabulary terms (10 per category,
/// sharply peaked), skill prior with unit variance, modest noise.
fn planted_params() -> ModelParams {
    let k = 3;
    let v = 30;
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
    p.tau = 0.25;
    p
}

fn planted_data(seed: u64) -> (ModelParams, GeneratedData) {
    let params = planted_params();
    let cfg = GenerativeConfig {
        num_workers: 12,
        num_tasks: 150,
        tokens_per_task: 24,
        workers_per_task: 5,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let data = generate(&params, &cfg, &mut rng).unwrap();
    (params, data)
}

#[test]
fn fitted_model_matches_planted_selection() {
    let (params, data) = planted_data(42);
    let fit_cfg = TdpmConfig {
        num_categories: 3,
        max_em_iters: 40,
        seed: 5,
        ..TdpmConfig::default()
    };
    let (model, report) = TdpmTrainer::new(fit_cfg).fit(&data.training).unwrap();
    assert!(report.iterations >= 2);

    // Fresh evaluation tasks straight from each planted category.
    let mut agree = 0;
    let mut total = 0;
    for cat in 0..3usize {
        // A task made purely of category `cat` words.
        let words: Vec<(usize, u32)> = (0..10).map(|i| (cat * 10 + i, 2u32)).collect();
        let projection = model.project_words(&words);

        // Ground truth: the planted best worker for a task whose latent
        // category is one-hot at `cat` (softmax direction).
        let mut c_true = Vector::filled(3, -2.0);
        c_true[cat] = 2.0;
        let planted_best = (0..data.worker_skills.len())
            .max_by(|&a, &b| {
                let sa = data.worker_skills[a].dot(&c_true).unwrap();
                let sb = data.worker_skills[b].dot(&c_true).unwrap();
                sa.total_cmp(&sb)
            })
            .unwrap();

        let all = model.worker_ids();
        let ranked = model.select(
            &[projection.lambda.as_slice()],
            all,
            all.len(),
            &ScoreSpec::default(),
        );
        let model_rank_of_planted = ranked[0]
            .ranked
            .iter()
            .position(|r| r.worker.0 as usize == planted_best)
            .unwrap();
        total += 1;
        // The planted best must rank in the model's top 3 of 12.
        if model_rank_of_planted < 3 {
            agree += 1;
        }
    }
    assert!(
        agree >= 2,
        "planted best workers should rank highly: {agree}/{total}"
    );
    let _ = params;
}

#[test]
fn fitted_scores_correlate_with_observed_feedback() {
    let (_, data) = planted_data(7);
    let fit_cfg = TdpmConfig {
        num_categories: 3,
        max_em_iters: 40,
        seed: 3,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(fit_cfg).fit(&data.training).unwrap();

    // In-sample: predicted w·c (via re-projection of the task words) should
    // correlate strongly with the observed scores.
    let mut predicted = Vec::new();
    let mut observed = Vec::new();
    for task in data.training.tasks() {
        let projection = model.project_words(&task.words);
        for &(i, s) in &task.scores {
            let w = data.training.worker_id(i);
            predicted.push(model.score(w, &projection).unwrap());
            observed.push(s);
        }
    }
    let corr = crowd_math::stats::pearson(&predicted, &observed).unwrap();
    assert!(corr > 0.5, "in-sample correlation too weak: {corr}");
}

#[test]
fn parallel_estep_matches_sequential_exactly() {
    let (_, data) = planted_data(55);
    let fit = |threads: usize| {
        let cfg = TdpmConfig {
            num_categories: 3,
            max_em_iters: 8,
            seed: 2,
            num_threads: threads,
            ..TdpmConfig::default()
        };
        TdpmTrainer::new(cfg).fit(&data.training).unwrap()
    };
    let (seq, seq_report) = fit(1);
    let (par, par_report) = fit(4);
    assert_eq!(
        seq_report.objective_trace, par_report.objective_trace,
        "identical ELBO trace"
    );
    for &w in seq.worker_ids() {
        assert_eq!(
            seq.skill(w).unwrap().mean.as_slice(),
            par.skill(w).unwrap().mean.as_slice(),
            "identical skills for {w}"
        );
    }
}

#[test]
fn incremental_updates_track_new_specialty() {
    let (_, data) = planted_data(99);
    let fit_cfg = TdpmConfig {
        num_categories: 3,
        max_em_iters: 30,
        seed: 1,
        ..TdpmConfig::default()
    };
    let (mut model, _) = TdpmTrainer::new(fit_cfg).fit(&data.training).unwrap();

    // A brand-new worker repeatedly excels at category-0 tasks.
    let newbie = crowd_store::WorkerId(500);
    model.add_worker(newbie);
    let words: Vec<(usize, u32)> = (0..10).map(|i| (i, 2u32)).collect();
    for _ in 0..8 {
        let projection = model.project_words(&words);
        model.record_feedback(newbie, &projection, 5.0).unwrap();
    }
    // The newbie should now be among the top selections for that category.
    let projection = model.project_words(&words);
    let mut candidates = model.worker_ids().to_vec();
    candidates.sort();
    let top = model.select(
        &[projection.lambda.as_slice()],
        &candidates,
        3,
        &ScoreSpec::default(),
    );
    let top = &top[0].ranked;
    assert!(
        top.iter().any(|r| r.worker == newbie),
        "newbie should reach top-3 after 8 perfect scores: {top:?}"
    );
}
