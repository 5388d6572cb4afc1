//! The task-mean solve (Eqs. 14 and 22) reaches a stationary point at
//! realistic size.
//!
//! `update_task`'s λ_c step minimizes the strictly convex
//! [`TaskMeanObjective`]. This test fits a Stack-Overflow-like platform at
//! K = 8, rebuilds the objective that the first inner round of
//! `update_task` sees for
//!
//! - every trained task, with feedback statistics gathered from the fitted
//!   worker posteriors (Eq. 14), and
//! - held-out texts with empty feedback (Eq. 22, the Algorithm 3 path),
//!
//! runs [`solve_task_mean`] from μ_c, and checks the Newton step left at the
//! returned point: `|H(λ)⁻¹ ∇f(λ)|∞ ≤ 1e-7 · max(1, |λ|∞)`. The Newton step
//! estimates the distance to the minimum in λ's own units, which `|∇f|`
//! does not: τ⁻²A makes some trained tasks stiff, and there a point a
//! negligible distance from the minimum still shows a large gradient.
//!
//! The platform is 900 tasks, 750 of them trained, sized to run in a few
//! seconds in a debug build.

use crowdselect::math::{Cholesky, Vector};
use crowdselect::model::dataset::TaskData;
use crowdselect::model::inference::estep::{solve_task_mean, TaskFeedbackStats, TaskMeanObjective};
use crowdselect::model::inference::EStepContext;
use crowdselect::model::variational::Slab;
use crowdselect::prelude::*;

/// Held-out tasks at the end of the generated platform.
const HELD_OUT: usize = 150;

/// Relative bound on the Newton step left at a solve's returned point.
const STEP_TOL: f64 = 1e-7;

/// `Σ_v cnt_v φ_v` with `φ` by Eq. 12 at `lambda`.
fn word_pull(words: &[(usize, u32)], lambda: &[f64], ctx: &EStepContext) -> Vector {
    let k = lambda.len();
    let mut sum = Vector::zeros(k);
    let mut row = vec![0.0; k];
    for &(v, cnt) in words {
        for kk in 0..k {
            row[kk] = lambda[kk] + ctx.log_beta[(kk, v)];
        }
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let total: f64 = row.iter().map(|x| (x - max).exp()).sum();
        for kk in 0..k {
            sum[kk] += cnt as f64 * (row[kk] - max).exp() / total;
        }
    }
    sum
}

/// Solves one task's first-round objective from μ_c and returns the
/// relative Newton step `|H⁻¹∇f|∞ / max(1, |λ|∞)` at the returned point.
fn solve_and_measure(task: &TaskData, feedback: &TaskFeedbackStats, ctx: &EStepContext) -> f64 {
    let k = ctx.mu_c.len();
    let mut lambda = ctx.mu_c.as_slice().to_vec();
    let nu2: Vec<f64> = (0..k).map(|kk| 1.0 / ctx.sigma_c_inv[(kk, kk)]).collect();
    let epsilon = (0..k)
        .map(|kk| (lambda[kk] + nu2[kk] / 2.0).exp())
        .sum::<f64>()
        .max(1e-300);
    let phi_sum = word_pull(&task.words, &lambda, ctx);
    let objective = TaskMeanObjective {
        ctx,
        phi_sum: &phi_sum,
        nu2: &nu2,
        epsilon,
        num_tokens: task.num_tokens,
        feedback,
        inv_tau2: 1.0 / ctx.tau2,
    };
    solve_task_mean(&objective, &mut lambda).expect("the Hessian factors");

    let x = Vector::from_vec(lambda);
    let mut grad = Vector::zeros(k);
    objective.value_and_grad(&x, &mut grad);
    let step = Cholesky::factor(&objective.hessian(&x))
        .expect("the Hessian is SPD")
        .solve(&grad)
        .expect("dimensions match");
    let step_norm = step.as_slice().iter().fold(0.0f64, |m, s| m.max(s.abs()));
    let lambda_norm = x.as_slice().iter().fold(1.0f64, |m, l| m.max(l.abs()));
    step_norm / lambda_norm
}

#[test]
fn every_task_mean_solve_ends_at_a_stationary_point() {
    let platform = PlatformGenerator::new(SimConfig::stack_overflow(0.75, 7)).generate();
    let all = TrainingSet::from_db(&platform.db);
    let (train, held_out) = all.tasks().split_at(all.num_tasks() - HELD_OUT);
    let ts = TrainingSet::from_parts(train.to_vec(), all.num_workers(), all.vocab_size());

    let cfg = TdpmConfig {
        num_categories: 8,
        max_em_iters: 12,
        seed: 11,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(cfg).fit(&ts).unwrap();
    let ctx = EStepContext::new(model.params()).unwrap();

    let (mut means, mut variances) = (Vec::new(), Vec::new());
    for i in 0..ts.num_workers() {
        let skill = model
            .skill(ts.worker_id(i))
            .expect("every worker is fitted");
        means.extend_from_slice(skill.mean.as_slice());
        variances.extend_from_slice(skill.variance.as_slice());
    }
    let lambda_w = Slab::from_vec(8, means);
    let nu2_w = Slab::from_vec(8, variances);

    let empty = TaskFeedbackStats::empty(8);
    let mut steps = Vec::new();
    for task in ts.tasks() {
        let feedback = TaskFeedbackStats::gather(&task.scores, &lambda_w, &nu2_w).unwrap();
        steps.push((
            "trained",
            task.task,
            solve_and_measure(task, &feedback, &ctx),
        ));
    }
    for task in held_out {
        steps.push(("held-out", task.task, solve_and_measure(task, &empty, &ctx)));
    }

    let failed: Vec<_> = steps
        .iter()
        .filter(|s| s.2.is_nan() || s.2 > STEP_TOL)
        .collect();
    let worst = steps.iter().fold(0.0f64, |m, s| m.max(s.2));
    assert!(
        failed.is_empty(),
        "{} of {} solves ({} trained, {} held-out) stopped with a Newton step above \
         {STEP_TOL:e} relative; worst {worst:e}, first {:?}",
        failed.len(),
        steps.len(),
        failed.iter().filter(|s| s.0 == "trained").count(),
        failed.iter().filter(|s| s.0 == "held-out").count(),
        failed[0],
    );
}
