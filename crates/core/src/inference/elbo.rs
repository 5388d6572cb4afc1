//! The evidence lower bound `L'(q)` (paper Section 5.2).

use super::EStepContext;
use crate::dataset::TrainingSet;
use crate::inference::suffstats::{ElboPartials, ShardPlan};
use crate::variational::VariationalState;
use crowd_math::{ScoringPool, Vector};
use std::sync::Arc;

/// Additive breakdown of the bound; useful for debugging which term moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElboBreakdown {
    /// `−Σ_i KL(q(w_i) ‖ p(w_i))`.
    pub worker_prior: f64,
    /// `−Σ_j KL(q(c_j) ‖ p(c_j))`.
    pub task_prior: f64,
    /// `E[log p(Z|C)] + E[log p(V|Z,β)] − E[log q(Z)]` (with Taylor bound).
    pub words: f64,
    /// `E[log p(S|W Cᵀ, τ)]`.
    pub feedback: f64,
}

impl ElboBreakdown {
    /// The total bound.
    pub fn total(&self) -> f64 {
        self.worker_prior + self.task_prior + self.words + self.feedback
    }
}

/// Computes the full bound for the current state.
///
/// Every shard of `plan` gathers its fixed-block [`ElboPartials`] on the
/// scoring pool, and the partials fold in shard-index order (see
/// `crate::inference::suffstats`), so the bound is bit-identical for every
/// plan.
pub fn elbo(
    state: &Arc<VariationalState>,
    ts: &TrainingSet,
    ctx: &Arc<EStepContext>,
    plan: &ShardPlan,
) -> ElboBreakdown {
    let tasks = ts.tasks_shared();
    let jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(state);
            let tasks = Arc::clone(&tasks);
            let ctx = Arc::clone(ctx);
            move || ElboPartials::gather(&state, &tasks, &ctx, wr, tr)
        })
        .collect();
    ElboPartials::merge(ScoringPool::global().run(jobs)).fold()
}

/// `KL(Normal(λ, diag(ν²)) ‖ Normal(μ, Σ))` given `Σ⁻¹` and `log det Σ`:
///
/// `½ [ tr(Σ⁻¹ diag(ν²)) + (λ−μ)ᵀ Σ⁻¹ (λ−μ) − K + log det Σ − Σ_k ln ν²_k ]`
pub fn gaussian_kl(
    lambda: &[f64],
    nu2: &[f64],
    mu: &[f64],
    sigma_inv: &crowd_math::Matrix,
    log_det_sigma: f64,
) -> f64 {
    let k = lambda.len() as f64;
    let mut trace = 0.0;
    let mut log_nu2_sum = 0.0;
    for i in 0..lambda.len() {
        trace += sigma_inv[(i, i)] * nu2[i];
        log_nu2_sum += nu2[i].max(1e-300).ln();
    }
    // All dims are K by construction; the `kernels` path mirrors
    // `matvec`/`dot` accumulation order, so results are bit-identical.
    let diff = Vector::from_fn(lambda.len(), |i| lambda[i] - mu[i]);
    let mx = Vector::from_fn(diff.len(), |r| {
        crowd_math::kernels::dot(sigma_inv.row(r), diff.as_slice())
    });
    let quad = crowd_math::kernels::dot(diff.as_slice(), mx.as_slice());
    0.5 * (trace + quad - k + log_det_sigma - log_nu2_sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crate::params::ModelParams;
    use crowd_math::Matrix;
    use crowd_store::TaskId;

    #[test]
    fn kl_of_matching_gaussians_is_zero() {
        let lambda = Vector::from_vec(vec![0.3, -0.7]);
        let nu2 = Vector::from_vec(vec![2.0, 0.5]);
        let sigma = Matrix::from_diag(&nu2);
        let inv = crowd_math::Cholesky::factor(&sigma)
            .unwrap()
            .inverse()
            .unwrap();
        let log_det = crowd_math::Cholesky::factor(&sigma).unwrap().log_det();
        let kl = gaussian_kl(
            lambda.as_slice(),
            nu2.as_slice(),
            lambda.as_slice(),
            &inv,
            log_det,
        );
        assert!(kl.abs() < 1e-10, "kl = {kl}");
    }

    #[test]
    fn kl_is_positive_for_distinct_gaussians() {
        let lambda = Vector::from_vec(vec![1.0, 1.0]);
        let nu2 = Vector::from_vec(vec![1.0, 1.0]);
        let mu = Vector::zeros(2);
        let inv = Matrix::identity(2);
        let kl = gaussian_kl(lambda.as_slice(), nu2.as_slice(), mu.as_slice(), &inv, 0.0);
        // KL = ½ (μ distance)² = 1 here.
        assert!((kl - 1.0).abs() < 1e-10);
    }

    #[test]
    fn elbo_is_finite_on_fresh_state() {
        let tasks = vec![TaskData {
            task: TaskId(0),
            words: vec![(0, 1), (1, 1)],
            num_tokens: 2.0,
            scores: vec![(0, 1.0)],
        }];
        let ts = TrainingSet::from_parts(tasks, 1, 2);
        let params = ModelParams::neutral(2, 2);
        let ctx = EStepContext::new(&params).unwrap();
        let state = VariationalState::init(&ts, 2, 0);
        let b = elbo(
            &Arc::new(state),
            &ts,
            &Arc::new(ctx),
            &ShardPlan::new(1, 1, 1),
        );
        assert!(b.total().is_finite());
        assert!(b.worker_prior <= 1e-9, "KL terms are ≤ 0: {b:?}");
        assert!(b.task_prior <= 1e-9);
    }
}
