//! Variational E-step updates (paper Eqs. 10–15 and 22–23).

use super::{axpy, EStepContext};
use crate::config::TdpmConfig;
use crate::dataset::{ScoresByWorker, TaskData};
use crate::variational::{Slab, TaskRows, VariationalState, WorkerRows};
use crate::{CoreError, Result};
use crowd_math::kernels;
use crowd_math::optimize::solve_decreasing;
use crowd_math::{Cholesky, Matrix, Vector};

/// Updates the worker posteriors `q(w^i)` (Eqs. 10–11) of one chunk: the
/// workers `start..start + rows.lambda.len()`.
///
/// For worker `i` with scored tasks `J_i`:
///
/// ```text
/// P_i   = Σ_w⁻¹ + τ⁻² Σ_{j∈J_i} (λ_c^j (λ_c^j)ᵀ + diag(ν_c^j²))   (precision)
/// λ_w^i = P_i⁻¹ (Σ_w⁻¹ μ_w + τ⁻² Σ_j s_ij λ_c^j)                   (Eq. 10)
/// ν²_w,ik = ( τ⁻² Σ_j (λ²_c,jk + ν²_c,jk) + (Σ_w⁻¹)_kk )⁻¹          (Eq. 11)
/// ```
///
/// Workers without feedback keep the mean-field projection of the prior
/// (both formulas with empty sums). Each worker reads only the task
/// posteriors in `shared` and its own row of `by_worker` (indexed
/// globally), so any partition of the worker axis computes the same bits.
/// One set of precision / right-hand-side buffers is reset per worker, so
/// the loop allocates nothing but the solved means.
#[allow(clippy::needless_range_loop)] // indexes address several parallel arrays
pub(crate) fn run_worker_range(
    start: usize,
    rows: &mut WorkerRows,
    by_worker: &ScoresByWorker,
    shared: &VariationalState,
    ctx: &EStepContext,
) -> Result<()> {
    let k = rows.lambda.width();
    let inv_tau2 = 1.0 / ctx.tau2;
    let mut precision = Matrix::zeros(k, k);
    let mut rhs = Vector::zeros(k);
    let mut diag_acc = vec![0.0; k];
    for local in 0..rows.lambda.len() {
        let i = start + local;
        precision.copy_from(&ctx.sigma_w_inv)?;
        rhs.copy_from(&ctx.prior_rhs_w)?;
        diag_acc.fill(0.0);
        for &(j, s) in &by_worker[i] {
            let lc = &shared.lambda_c[j];
            let nc2 = &shared.nu2_c[j];
            precision.add_outer(inv_tau2, lc)?;
            for kk in 0..k {
                precision[(kk, kk)] += nc2[kk] * inv_tau2;
            }
            axpy(rhs.as_mut_slice(), inv_tau2 * s, lc);
            for kk in 0..k {
                diag_acc[kk] += (lc[kk] * lc[kk] + nc2[kk]) * inv_tau2;
            }
        }
        let chol = Cholesky::factor_with_jitter(&precision, 1e-10, 40)
            .map_err(|e| CoreError::Numerical(format!("worker {i} precision: {e}")))?;
        rows.lambda[local].copy_from_slice(chol.solve(&rhs)?.as_slice());
        for kk in 0..k {
            rows.nu2[local][kk] = 1.0 / (diag_acc[kk] + ctx.sigma_w_inv[(kk, kk)]);
        }
    }
    Ok(())
}

/// Updates the task posteriors (Eqs. 12–15) of one chunk: `tasks[j]` owns
/// row `j` of `rows`. Task posteriors are mutually independent given the
/// worker posteriors in `shared`, so any partition of the task axis computes
/// the same bits.
pub(crate) fn run_task_range(
    tasks: &[TaskData],
    shared: &VariationalState,
    rows: &mut TaskRows,
    ctx: &EStepContext,
    cfg: &TdpmConfig,
) -> Result<()> {
    let k = cfg.num_categories;
    let mut phi = rows.phi.as_mut_slice();
    for (j, task) in tasks.iter().enumerate() {
        let stats = TaskFeedbackStats::gather(&task.scores, &shared.lambda_w, &shared.nu2_w)?;
        let (phi_j, rest) = std::mem::take(&mut phi).split_at_mut(task.words.len() * k);
        phi = rest;
        let update = TaskUpdate {
            words: &task.words,
            num_tokens: task.num_tokens,
            feedback: &stats,
        };
        let mut post = TaskPosterior {
            lambda: &mut rows.lambda[j],
            nu2: &mut rows.nu2[j],
            phi: phi_j,
            epsilon: &mut rows.epsilon[j],
        };
        update_task(&update, &mut post, ctx, cfg)?;
    }
    Ok(())
}

/// Feedback-side sufficient statistics for one task:
/// `A_j = Σ_{i∈I_j} (λ_w^i (λ_w^i)ᵀ + diag(ν_w^i²))` and
/// `b_j = Σ_{i∈I_j} s_ij λ_w^i`.
#[derive(Debug, Clone)]
pub struct TaskFeedbackStats {
    /// Second-moment accumulation `A_j` (K×K, SPSD).
    pub a: Matrix,
    /// Score-weighted mean accumulation `b_j`.
    pub b: Vector,
    /// Number of scored jobs on the task.
    pub count: usize,
}

impl TaskFeedbackStats {
    /// Zero statistics (the projection path for brand-new tasks, Eqs. 22–23,
    /// is exactly the task update with these).
    pub fn empty(k: usize) -> Self {
        TaskFeedbackStats {
            a: Matrix::zeros(k, k),
            b: Vector::zeros(k),
            count: 0,
        }
    }

    /// Accumulates the statistics from the current worker posteriors.
    pub fn gather(scores: &[(usize, f64)], lambda_w: &Slab, nu2_w: &Slab) -> Result<Self> {
        let mut stats = TaskFeedbackStats::empty(lambda_w.width());
        for &(i, s) in scores {
            stats.a.add_outer(1.0, &lambda_w[i])?;
            stats.a.add_diag(&nu2_w[i])?;
            axpy(stats.b.as_mut_slice(), s, &lambda_w[i]);
            stats.count += 1;
        }
        Ok(stats)
    }
}

/// Inputs for a single task posterior update, decoupled from the global
/// state so the same routine serves training (Eqs. 12–15) and online
/// projection of unseen tasks (Eqs. 22–23, Algorithm 3).
#[derive(Debug)]
pub struct TaskUpdate<'a> {
    /// `(term index, count)` pairs of the task.
    pub words: &'a [(usize, u32)],
    /// Total token count `L`.
    pub num_tokens: f64,
    /// Feedback statistics (`empty` for projection).
    pub feedback: &'a TaskFeedbackStats,
}

/// In/out variational parameters for one task.
#[derive(Debug)]
pub struct TaskPosterior<'a> {
    /// `λ_c^j`.
    pub lambda: &'a mut [f64],
    /// `ν_c^j²`.
    pub nu2: &'a mut [f64],
    /// Flattened `(distinct terms) × K` responsibilities — one row of the
    /// state's contiguous [`crate::variational::PhiMatrix`].
    pub phi: &'a mut [f64],
    /// Taylor parameter `ε_j`.
    pub epsilon: &'a mut f64,
}

/// Runs `inner_iters` rounds of coordinate ascent on one task posterior.
///
/// Order per round (following the CTM schedule): `ε` (Eq. 13), `φ` (Eq. 12),
/// `λ_c` by damped Newton ([`solve_task_mean`], Eq. 14 / 22), `ν_c²` by a
/// bracket-safeguarded Newton root solve (Eq. 15 / 23).
#[allow(clippy::needless_range_loop)] // indexes mirror the equations' subscripts
pub fn update_task(
    update: &TaskUpdate<'_>,
    post: &mut TaskPosterior<'_>,
    ctx: &EStepContext,
    cfg: &TdpmConfig,
) -> Result<()> {
    let k = post.lambda.len();
    let inv_tau2 = 1.0 / ctx.tau2;
    for _ in 0..cfg.task_inner_iters.max(1) {
        // --- ε update (Eq. 13): ε = Σ_k exp(λ_k + ν²_k / 2) -----------------
        *post.epsilon = (0..k)
            .map(|kk| (post.lambda[kk] + post.nu2[kk] / 2.0).exp())
            .sum::<f64>()
            .max(1e-300);

        // --- φ update (Eq. 12): φ_{v,k} ∝ exp(λ_k + log β_{k,v}) ------------
        for (slot, &(v, _)) in update.words.iter().enumerate() {
            let row = &mut post.phi[slot * k..(slot + 1) * k];
            let mut max = f64::NEG_INFINITY;
            for kk in 0..k {
                row[kk] = post.lambda[kk] + ctx.log_beta[(kk, v)];
                max = max.max(row[kk]);
            }
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }

        // Aggregate word pull: Σ_v cnt_v φ_v (drives λ toward used topics).
        let mut phi_sum = Vector::zeros(k);
        for (slot, &(_, cnt)) in update.words.iter().enumerate() {
            let row = &post.phi[slot * k..(slot + 1) * k];
            for kk in 0..k {
                phi_sum[kk] += cnt as f64 * row[kk];
            }
        }

        // --- λ_c update (Eq. 14 / 22) by damped Newton ------------------------
        let objective = TaskMeanObjective {
            ctx,
            phi_sum: &phi_sum,
            nu2: post.nu2,
            epsilon: *post.epsilon,
            num_tokens: update.num_tokens,
            feedback: update.feedback,
            inv_tau2,
        };
        solve_task_mean(&objective, post.lambda)?;

        // --- ν_c² update (Eq. 15 / 23) ---------------------------------------
        // Root of 1/(2x) − ½ (Σ_c⁻¹)_kk − τ⁻²/2 A_kk − (L/2ε) e^{λ_k + x/2},
        // whose derivative is −1/(2x²) − (L/4ε) e^{λ_k + x/2}.
        for kk in 0..k {
            let q = 0.5 * ctx.sigma_c_inv[(kk, kk)] + 0.5 * inv_tau2 * update.feedback.a[(kk, kk)];
            let lam = post.lambda[kk];
            let word_scale = if update.num_tokens > 0.0 {
                update.num_tokens / (2.0 * *post.epsilon)
            } else {
                0.0
            };
            let g = |x: f64| {
                let word = word_scale * (lam + x / 2.0).exp();
                (
                    1.0 / (2.0 * x) - q - word,
                    -1.0 / (2.0 * x * x) - 0.5 * word,
                )
            };
            let x0 = post.nu2[kk].clamp(1e-8, 1e8);
            match solve_decreasing(g, x0, 1e-10) {
                Ok(root) => post.nu2[kk] = root.clamp(1e-12, 1e12),
                Err(e) => {
                    return Err(CoreError::Numerical(format!(
                        "nu2 root solve failed at k={kk}: {e}"
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Cap on Newton steps per [`solve_task_mean`] call. Newton converges
/// quadratically near the minimum, so solves reach [`NEWTON_GRAD_TOL`] well
/// before the cap; it bounds degenerate inputs.
const NEWTON_MAX_STEPS: usize = 50;
/// [`solve_task_mean`] stops once `|∇f|∞` falls below this.
const NEWTON_GRAD_TOL: f64 = 1e-10;
/// Armijo sufficient-decrease constant of the backtracking line search.
const ARMIJO_C1: f64 = 1e-4;
/// Step halvings before the line search gives up.
const MAX_BACKTRACKS: usize = 40;

/// `max_k |x_k|`.
fn inf_norm(x: &Vector) -> f64 {
    x.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Minimizes the strictly convex `objective` over the task mean `λ_c`
/// (Eq. 14 / 22) by damped Newton, starting from and writing back into
/// `lambda`.
///
/// Each step solves `H d = ∇f` with the closed-form Hessian
/// ([`TaskMeanObjective::hessian`]) and backtracks along `−d` until the
/// Armijo condition holds; the solve stops once `|∇f|∞ <` 1e-10. Once the
/// predicted decrease `∇fᵀ H⁻¹ ∇f` is at the rounding level of `f`, `f` can
/// no longer rank iterates: the full step is then taken only if it lowers
/// `|∇f|∞`, and the solve stops otherwise.
///
/// The line search rejects any trial point where `f` is not finite, so
/// `lambda` only ever receives finite iterates; a start where `f` is not
/// finite leaves it unchanged.
///
/// # Errors
///
/// [`CoreError::Numerical`] if the Hessian will not factor.
pub fn solve_task_mean(objective: &TaskMeanObjective<'_>, lambda: &mut [f64]) -> Result<()> {
    let k = lambda.len();
    let mut x = Vector::from_vec(lambda.to_vec());
    let mut grad = Vector::zeros(k);
    let mut value = objective.value_and_grad(&x, &mut grad);
    if !value.is_finite() {
        return Ok(());
    }
    let mut trial = Vector::zeros(k);
    let mut trial_grad = Vector::zeros(k);
    for _ in 0..NEWTON_MAX_STEPS {
        let grad_norm = inf_norm(&grad);
        if grad_norm < NEWTON_GRAD_TOL {
            break;
        }
        let step = Cholesky::factor_with_jitter(&objective.hessian(&x), 1e-10, 40)
            .and_then(|chol| chol.solve(&grad))
            .map_err(|e| CoreError::Numerical(format!("task-mean Hessian: {e}")))?;
        let decrement = kernels::dot(grad.as_slice(), step.as_slice());
        let at_rounding = decrement <= 16.0 * f64::EPSILON * value.abs().max(1.0);
        let mut t = 1.0;
        let mut accepted = false;
        for _ in 0..MAX_BACKTRACKS {
            for kk in 0..k {
                trial[kk] = x[kk] - t * step[kk];
            }
            let trial_value = objective.value_and_grad(&trial, &mut trial_grad);
            accepted = trial_value.is_finite()
                && if at_rounding {
                    inf_norm(&trial_grad) < grad_norm
                } else {
                    trial_value <= value - ARMIJO_C1 * t * decrement
                };
            if accepted {
                value = trial_value;
                break;
            }
            if at_rounding {
                break;
            }
            t *= 0.5;
        }
        if !accepted {
            break;
        }
        std::mem::swap(&mut x, &mut trial);
        std::mem::swap(&mut grad, &mut trial_grad);
    }
    lambda.copy_from_slice(x.as_slice());
    Ok(())
}

/// The negative ELBO as a function of one task's mean `λ_c` (Eq. 14 / 22):
///
/// ```text
/// f(λ) = ½ (λ − μ_c)ᵀ Σ_c⁻¹ (λ − μ_c)      Gaussian prior
///      − φ_sumᵀ λ                           word responsibilities pull
///      + (L/ε) Σ_k exp(λ_k + ν²_k / 2)      Taylor bound on the softmax
///      + τ⁻²/2 (λᵀ A λ − 2 bᵀ λ)            feedback quadratic
/// ```
///
/// Strictly convex: the Hessian is `Σ_c⁻¹` plus a positive diagonal plus the
/// PSD `τ⁻² A`. Exposed as a type (rather than a closure) so the test suite
/// can check the analytic gradient and Hessian against finite differences.
#[derive(Debug)]
pub struct TaskMeanObjective<'a> {
    /// Shared E-step context.
    pub ctx: &'a EStepContext,
    /// `Σ_v cnt_v φ_v`.
    pub phi_sum: &'a Vector,
    /// Current diagonal variances `ν²` (held fixed during the mean update).
    pub nu2: &'a [f64],
    /// Taylor parameter `ε`.
    pub epsilon: f64,
    /// Token count `L`.
    pub num_tokens: f64,
    /// Feedback statistics `A`, `b`.
    pub feedback: &'a TaskFeedbackStats,
    /// `τ⁻²`.
    pub inv_tau2: f64,
}

impl TaskMeanObjective<'_> {
    /// The Hessian `Σ_c⁻¹ + (L/ε)·diag(exp(x_k + ν²_k/2)) + τ⁻² A` at `x`.
    pub fn hessian(&self, x: &Vector) -> Matrix {
        let k = x.len();
        let mut h = self.ctx.sigma_c_inv.clone();
        if self.num_tokens > 0.0 {
            let scale = self.num_tokens / self.epsilon;
            for kk in 0..k {
                h[(kk, kk)] += scale * (x[kk] + self.nu2[kk] / 2.0).exp();
            }
        }
        if self.feedback.count > 0 {
            for r in 0..k {
                axpy(h.row_mut(r), self.inv_tau2, self.feedback.a.row(r));
            }
        }
        h
    }

    /// Returns `f(x)` and writes `∇f(x)` into `grad` (both of length K).
    pub fn value_and_grad(&self, x: &Vector, grad: &mut Vector) -> f64 {
        let k = x.len();
        // Prior term. Dims all equal `k` by construction, so the fallible
        // `Vector` ops are replaced by the order-identical `kernels` path
        // (same left-to-right accumulation → bit-identical results).
        let diff = Vector::from_fn(k, |i| x[i] - self.ctx.mu_c[i]);
        let sdiff = Vector::from_fn(k, |r| {
            kernels::dot(self.ctx.sigma_c_inv.row(r), diff.as_slice())
        });
        let mut value = 0.5 * kernels::dot(diff.as_slice(), sdiff.as_slice());
        for kk in 0..k {
            grad[kk] = sdiff[kk];
        }
        // Word pull.
        value -= kernels::dot(x.as_slice(), self.phi_sum.as_slice());
        for kk in 0..k {
            grad[kk] -= self.phi_sum[kk];
        }
        // Taylor bound on the log-normalizer.
        if self.num_tokens > 0.0 {
            let scale = self.num_tokens / self.epsilon;
            for kk in 0..k {
                let e = (x[kk] + self.nu2[kk] / 2.0).exp();
                value += scale * e;
                grad[kk] += scale * e;
            }
        }
        // Feedback quadratic.
        if self.feedback.count > 0 {
            let ax = Vector::from_fn(k, |r| kernels::dot(self.feedback.a.row(r), x.as_slice()));
            value += 0.5 * self.inv_tau2 * kernels::dot(x.as_slice(), ax.as_slice());
            value -= self.inv_tau2 * kernels::dot(x.as_slice(), self.feedback.b.as_slice());
            for kk in 0..k {
                grad[kk] += self.inv_tau2 * (ax[kk] - self.feedback.b[kk]);
            }
        }
        value
    }
}

/// Per-task word contribution to the bound:
///
/// ```text
/// Σ_v cnt_v Σ_k φ_{v,k} (λ_k + log β_{k,v} − log φ_{v,k})
///   − L [ ε⁻¹ Σ_k exp(λ_k + ν²_k/2) − 1 + log ε ]
/// ```
///
/// This is `E'[log p(Z|C)] + E[log p(V|Z,β)] − E[log q(Z)]` with the Taylor
/// upper bound on the softmax log-normalizer substituted in (Section 5.2).
#[allow(clippy::too_many_arguments)]
pub fn expected_word_ll(
    words: &[(usize, u32)],
    num_tokens: f64,
    lambda: &[f64],
    nu2: &[f64],
    phi: &[f64],
    epsilon: f64,
    log_beta: &Matrix,
    k: usize,
) -> f64 {
    let mut total = 0.0;
    for (slot, &(v, cnt)) in words.iter().enumerate() {
        let row = &phi[slot * k..(slot + 1) * k];
        let mut term = 0.0;
        for kk in 0..k {
            let p = row[kk];
            if p > 0.0 {
                term += p * (lambda[kk] + log_beta[(kk, v)] - p.ln());
            }
        }
        total += cnt as f64 * term;
    }
    if num_tokens > 0.0 {
        let sum_exp: f64 = (0..k).map(|kk| (lambda[kk] + nu2[kk] / 2.0).exp()).sum();
        total -= num_tokens * (sum_exp / epsilon - 1.0 + epsilon.ln());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TrainingSet;
    use crate::params::ModelParams;
    use crate::variational::VariationalState;
    use crate::TdpmConfig;
    use crowd_store::TaskId;

    fn toy() -> (TrainingSet, ModelParams, TdpmConfig) {
        let tasks = vec![
            crate::dataset::TaskData {
                task: TaskId(0),
                words: vec![(0, 2), (1, 1)],
                num_tokens: 3.0,
                scores: vec![(0, 3.0), (1, 0.5)],
            },
            crate::dataset::TaskData {
                task: TaskId(1),
                words: vec![(2, 2)],
                num_tokens: 2.0,
                scores: vec![(1, 2.0)],
            },
        ];
        let ts = TrainingSet::from_parts(tasks, 2, 3);
        let params = ModelParams::neutral(2, 3);
        let cfg = TdpmConfig {
            num_categories: 2,
            ..TdpmConfig::default()
        };
        (ts, params, cfg)
    }

    #[test]
    fn worker_update_without_feedback_returns_prior() {
        let (ts, params, _cfg) = toy();
        let ctx = EStepContext::new(&params).unwrap();
        let mut state = VariationalState::init(&ts, 2, 0);
        // Worker 0 with no jobs at all:
        let by_worker = ScoresByWorker::new(&[], 2);
        let mut rows = state.take_workers(0..2);
        run_worker_range(0, &mut rows, &by_worker, &state, &ctx).unwrap();
        state.put_workers(0, rows);
        for kk in 0..2 {
            assert!((state.lambda_w[0][kk] - params.mu_w[kk]).abs() < 1e-10);
            assert!((state.nu2_w[0][kk] - 1.0).abs() < 1e-10, "identity prior");
        }
    }

    #[test]
    fn worker_update_moves_toward_scores() {
        let (ts, params, _cfg) = toy();
        let ctx = EStepContext::new(&params).unwrap();
        let mut state = VariationalState::init(&ts, 2, 0);
        // Make task 0's category point along axis 0 strongly.
        state.lambda_c[0].copy_from_slice(&[2.0, 0.0]);
        state.nu2_c[0].copy_from_slice(&[0.01, 0.01]);
        let by_worker = ts.scores_by_worker();
        let mut rows = state.take_workers(0..2);
        run_worker_range(0, &mut rows, &by_worker, &state, &ctx).unwrap();
        state.put_workers(0, rows);
        // Worker 0 scored 3.0 on task 0 → skill along axis 0 must be positive
        // and larger than worker 1's (scored 0.5 on the same task).
        assert!(state.lambda_w[0][0] > state.lambda_w[1][0]);
        assert!(state.lambda_w[0][0] > 0.5);
        // Variances shrink below the prior where evidence exists.
        assert!(state.nu2_w[0][0] < 1.0);
    }

    #[test]
    fn feedback_stats_accumulate() {
        let lambda_w = Slab::from_vec(2, vec![1.0, 0.0, 0.0, 2.0]);
        let nu2_w = Slab::from_vec(2, vec![0.5, 0.5, 0.25, 0.25]);
        let scores = vec![(0usize, 3.0), (1usize, 1.0)];
        let stats = TaskFeedbackStats::gather(&scores, &lambda_w, &nu2_w).unwrap();
        assert_eq!(stats.count, 2);
        // A = [1,0;0,0] + diag(.5,.5) + [0,0;0,4] + diag(.25,.25)
        assert!((stats.a[(0, 0)] - 1.75).abs() < 1e-12);
        assert!((stats.a[(1, 1)] - 4.75).abs() < 1e-12);
        assert!((stats.b[0] - 3.0).abs() < 1e-12);
        assert!((stats.b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn task_update_is_finite_and_sane() {
        let (ts, params, cfg) = toy();
        let ctx = EStepContext::new(&params).unwrap();
        let mut state = VariationalState::init(&ts, 2, 1);
        let stats = TaskFeedbackStats::gather(&ts.tasks()[0].scores, &state.lambda_w, &state.nu2_w)
            .unwrap();
        let update = TaskUpdate {
            words: &ts.tasks()[0].words,
            num_tokens: ts.tasks()[0].num_tokens,
            feedback: &stats,
        };
        let mut post = TaskPosterior {
            lambda: &mut state.lambda_c[0],
            nu2: &mut state.nu2_c[0],
            phi: state.phi.row_mut(0),
            epsilon: &mut state.epsilon[0],
        };
        update_task(&update, &mut post, &ctx, &cfg).unwrap();
        assert!(post.lambda.iter().all(|x| x.is_finite()));
        assert!(post.nu2.iter().all(|&x| x > 0.0));
        // φ rows are distributions.
        for slot in 0..2 {
            let s: f64 = post.phi[slot * 2..(slot + 1) * 2].iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        assert!(*post.epsilon > 0.0);
    }

    #[test]
    fn task_objective_gradient_matches_finite_differences() {
        let params = ModelParams::neutral(3, 5);
        let ctx = EStepContext::new(&params).unwrap();
        let phi_sum = Vector::from_vec(vec![2.0, 1.0, 0.5]);
        let nu2 = Vector::from_vec(vec![0.8, 1.2, 0.5]);
        let lambda_w = Slab::from_vec(3, vec![1.0, -0.5, 0.3]);
        let nu2_w = Slab::filled(1, 3, 0.4);
        let feedback = TaskFeedbackStats::gather(&[(0, 2.0)], &lambda_w, &nu2_w).unwrap();
        let objective = TaskMeanObjective {
            ctx: &ctx,
            phi_sum: &phi_sum,
            nu2: nu2.as_slice(),
            epsilon: 3.5,
            num_tokens: 3.5,
            feedback: &feedback,
            inv_tau2: 1.0 / ctx.tau2,
        };

        let x = Vector::from_vec(vec![0.3, -0.7, 0.1]);
        let mut grad = Vector::zeros(3);
        objective.value_and_grad(&x, &mut grad);

        let h = 1e-6;
        for kk in 0..3 {
            let mut xp = x.clone();
            xp[kk] += h;
            let mut xm = x.clone();
            xm[kk] -= h;
            let mut scratch = Vector::zeros(3);
            let fp = objective.value_and_grad(&xp, &mut scratch);
            let fm = objective.value_and_grad(&xm, &mut scratch);
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (grad[kk] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                "coord {kk}: analytic {} vs numeric {numeric}",
                grad[kk]
            );
        }
    }

    #[test]
    fn task_objective_hessian_matches_finite_differences() {
        // A wrong Hessian still converges under the line search, only
        // slowly, so check each column against central differences of the
        // analytic gradient.
        let params = ModelParams::neutral(3, 5);
        let ctx = EStepContext::new(&params).unwrap();
        let phi_sum = Vector::from_vec(vec![2.0, 1.0, 0.5]);
        let nu2 = Vector::from_vec(vec![0.8, 1.2, 0.5]);
        let lambda_w = Slab::from_vec(3, vec![1.0, -0.5, 0.3, 0.2, 0.9, -1.1]);
        let nu2_w = Slab::filled(2, 3, 0.4);
        let feedback =
            TaskFeedbackStats::gather(&[(0, 2.0), (1, -0.5)], &lambda_w, &nu2_w).unwrap();
        let objective = TaskMeanObjective {
            ctx: &ctx,
            phi_sum: &phi_sum,
            nu2: nu2.as_slice(),
            epsilon: 3.5,
            num_tokens: 3.5,
            feedback: &feedback,
            inv_tau2: 1.0 / ctx.tau2,
        };

        let x = Vector::from_vec(vec![0.3, -0.7, 0.1]);
        let hessian = objective.hessian(&x);
        let h = 1e-6;
        for col in 0..3 {
            let mut xp = x.clone();
            xp[col] += h;
            let mut xm = x.clone();
            xm[col] -= h;
            let (mut gp, mut gm) = (Vector::zeros(3), Vector::zeros(3));
            objective.value_and_grad(&xp, &mut gp);
            objective.value_and_grad(&xm, &mut gm);
            for row in 0..3 {
                let numeric = (gp[row] - gm[row]) / (2.0 * h);
                assert!(
                    (hessian[(row, col)] - numeric).abs() < 1e-5 * (1.0 + numeric.abs()),
                    "H[{row},{col}]: analytic {} vs numeric {numeric}",
                    hessian[(row, col)]
                );
            }
        }
    }

    #[test]
    fn update_task_reaches_a_stationary_mean() {
        let (ts, params, cfg) = toy();
        let ctx = EStepContext::new(&params).unwrap();
        let mut state = VariationalState::init(&ts, 2, 5);
        let stats = TaskFeedbackStats::gather(&ts.tasks()[0].scores, &state.lambda_w, &state.nu2_w)
            .unwrap();
        let update = TaskUpdate {
            words: &ts.tasks()[0].words,
            num_tokens: ts.tasks()[0].num_tokens,
            feedback: &stats,
        };
        let cfg = TdpmConfig {
            task_inner_iters: 8,
            ..cfg
        };
        let mut post = TaskPosterior {
            lambda: &mut state.lambda_c[0],
            nu2: &mut state.nu2_c[0],
            phi: state.phi.row_mut(0),
            epsilon: &mut state.epsilon[0],
        };
        update_task(&update, &mut post, &ctx, &cfg).unwrap();

        // Rebuild the final objective and check the gradient at the solution.
        let k = 2;
        let mut phi_sum = Vector::zeros(k);
        for (slot, &(_, cnt)) in update.words.iter().enumerate() {
            for kk in 0..k {
                phi_sum[kk] += cnt as f64 * post.phi[slot * k + kk];
            }
        }
        let objective = TaskMeanObjective {
            ctx: &ctx,
            phi_sum: &phi_sum,
            nu2: post.nu2,
            epsilon: *post.epsilon,
            num_tokens: update.num_tokens,
            feedback: &stats,
            inv_tau2: 1.0 / ctx.tau2,
        };
        let mut grad = Vector::zeros(k);
        objective.value_and_grad(&Vector::from_vec(post.lambda.to_vec()), &mut grad);
        let gnorm = grad.norm();
        assert!(gnorm < 1e-3, "stationarity violated: |∇f| = {gnorm}");
    }

    #[test]
    fn task_mean_hessian_that_will_not_factor_is_a_typed_error() {
        // A negative-definite prior precision (impossible from a fitted
        // `Σ_c`, so built by hand) leaves no SPD Hessian for the jitter to
        // repair: the solve must report it, not panic or return garbage.
        let params = ModelParams::neutral(2, 3);
        let mut ctx = EStepContext::new(&params).unwrap();
        ctx.sigma_c_inv = Matrix::from_diag(&Vector::filled(2, -1e6));
        let phi_sum = Vector::zeros(2);
        let nu2 = [1.0, 1.0];
        let empty = TaskFeedbackStats::empty(2);
        let objective = TaskMeanObjective {
            ctx: &ctx,
            phi_sum: &phi_sum,
            nu2: &nu2,
            epsilon: 1.0,
            num_tokens: 0.0,
            feedback: &empty,
            inv_tau2: 1.0 / ctx.tau2,
        };
        let mut lambda = [0.5, -0.5];
        let err = solve_task_mean(&objective, &mut lambda).unwrap_err();
        assert!(matches!(err, CoreError::Numerical(_)), "{err}");
        assert_eq!(lambda, [0.5, -0.5], "λ is left at its start");
    }

    #[test]
    fn projection_update_ignores_feedback() {
        // With empty feedback stats the update must still work (Alg. 3 path).
        let (ts, params, cfg) = toy();
        let ctx = EStepContext::new(&params).unwrap();
        let empty = TaskFeedbackStats::empty(2);
        let words = vec![(0usize, 3u32)];
        let update = TaskUpdate {
            words: &words,
            num_tokens: 3.0,
            feedback: &empty,
        };
        let mut lambda = Vector::zeros(2);
        let mut nu2 = Vector::filled(2, 1.0);
        let mut phi = [0.5; 2];
        let mut eps = 2.0;
        let mut post = TaskPosterior {
            lambda: lambda.as_mut_slice(),
            nu2: nu2.as_mut_slice(),
            phi: &mut phi[..],
            epsilon: &mut eps,
        };
        update_task(&update, &mut post, &ctx, &cfg).unwrap();
        assert!(lambda.is_finite());
        let _ = ts;
    }
}
