//! Variational M-step: closed-form model-parameter updates (Eqs. 16–21).

use crate::config::TdpmConfig;
use crate::dataset::TrainingSet;
use crate::inference::suffstats::{FirstMoments, SecondMoments, ShardPlan};
use crate::params::ModelParams;
use crate::variational::VariationalState;
use crate::{CoreError, Result};
use crowd_math::{Matrix, ScoringPool};
use std::sync::Arc;

/// Recomputes every model parameter from the current variational state.
///
/// - `μ_w = 1/M Σ λ_w^i` (Eq. 16), `μ_c = 1/N Σ λ_c^j` (Eq. 18)
/// - `Σ_w = 1/M Σ (diag(ν_w²) + (λ_w − μ_w)(λ_w − μ_w)ᵀ)` (Eq. 17), same
///   shape for `Σ_c` (Eq. 19); a small ridge keeps the estimates SPD and the
///   `diagonal_covariance` flag implements the paper's independent-skill
///   special case (Section 4.3.1)
/// - `τ²` = mean expected squared residual over scored pairs (Eq. 20)
/// - `β_{k,v} ∝ smoothing + Σ_j Σ_p φ_{j,p,k} 1[v_p = v]` (Eq. 21)
///
/// Every shard of `plan` gathers its fixed-block sufficient statistics on
/// the scoring pool, and the partials fold in shard-index order (see
/// `crate::inference::suffstats`), so the parameters are bit-identical for
/// every plan. Two rounds: the first moments fix the means the second
/// moments are gathered about.
pub fn update_params(
    params: &mut ModelParams,
    state: &Arc<VariationalState>,
    ts: &TrainingSet,
    plan: &ShardPlan,
    cfg: &TdpmConfig,
    update_tau: bool,
) -> Result<()> {
    let pool = ScoringPool::global();
    let first_jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(state);
            move || FirstMoments::gather(&state, wr, tr)
        })
        .collect();
    let first = FirstMoments::merge(pool.run(first_jobs));
    params.mu_w = first
        .worker_mean()?
        .ok_or_else(|| CoreError::Numerical("M-step over an empty worker set".into()))?;
    if let Some(mu_c) = first.task_mean()? {
        params.mu_c = mu_c;
    }

    let tasks = ts.tasks_shared();
    let vocab_size = ts.vocab_size();
    let mu_w = Arc::new(params.mu_w.clone());
    let mu_c = Arc::new(params.mu_c.clone());
    let second_jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(state);
            let tasks = Arc::clone(&tasks);
            let mu_w = Arc::clone(&mu_w);
            let mu_c = Arc::clone(&mu_c);
            move || SecondMoments::gather(&state, &tasks, &mu_w, &mu_c, vocab_size, wr, tr)
        })
        .collect();
    let parts: Result<Vec<SecondMoments>> = pool.run(second_jobs).into_iter().collect();
    let second = SecondMoments::merge(parts?);

    if let Some(mut cov) =
        second.worker_covariance(cfg.covariance_ridge, cfg.diagonal_covariance)?
    {
        floor_diag(&mut cov, cfg.min_prior_var);
        params.sigma_w = cov;
    }
    if let Some(mut cov) = second.task_covariance(cfg.covariance_ridge, cfg.diagonal_covariance)? {
        floor_diag(&mut cov, cfg.min_prior_var);
        params.sigma_c = cov;
    }

    // τ² is held fixed during warm-up (see `TdpmConfig::tau_warmup_iters`).
    if update_tau {
        let (sq_sum, count) = second.tau_residuals();
        if count > 0 {
            params.tau = (sq_sum / count as f64).max(cfg.min_tau2).sqrt();
        }
    }

    if let Some(beta) = second.beta(cfg.beta_smoothing)? {
        params.beta = beta;
    }
    Ok(())
}

/// Raises the diagonal to at least `floor` (see [`TdpmConfig::min_prior_var`]).
/// Increasing diagonal entries only adds a PSD matrix, so SPD-ness is kept.
fn floor_diag(cov: &mut Matrix, floor: f64) {
    for i in 0..cov.rows() {
        if cov[(i, i)] < floor {
            cov[(i, i)] = floor;
        }
    }
}

/// `E_q[(s − wᵀc)²]` for one scored pair — the expectation in Eq. 20:
///
/// ```text
/// s² − 2 s λ_wᵀλ_c + (λ_wᵀλ_c)²
///   + Σ_k [ ν²_w,k λ²_c,k + ν²_c,k λ²_w,k + ν²_w,k ν²_c,k ]
/// ```
pub fn expected_sq_residual(
    s: f64,
    lambda_w: &[f64],
    nu2_w: &[f64],
    lambda_c: &[f64],
    nu2_c: &[f64],
) -> f64 {
    // Both rows are K-dimensional by construction.
    let dot = crowd_math::kernels::dot(lambda_w, lambda_c);
    let mut second = dot * dot;
    for kk in 0..lambda_w.len() {
        second += nu2_w[kk] * lambda_c[kk] * lambda_c[kk]
            + nu2_c[kk] * lambda_w[kk] * lambda_w[kk]
            + nu2_w[kk] * nu2_c[kk];
    }
    s * s - 2.0 * s * dot + second
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crowd_math::Vector;
    use crowd_store::TaskId;

    fn toy_state() -> (TrainingSet, VariationalState, TdpmConfig) {
        let tasks = vec![TaskData {
            task: TaskId(0),
            words: vec![(0, 1), (1, 2)],
            num_tokens: 3.0,
            scores: vec![(0, 2.0), (1, 0.0)],
        }];
        let ts = TrainingSet::from_parts(tasks, 2, 2);
        let cfg = TdpmConfig {
            num_categories: 2,
            ..TdpmConfig::default()
        };
        let state = VariationalState::init(&ts, 2, 3);
        (ts, state, cfg)
    }

    /// One M-step over a one-shard plan, with τ updated.
    fn m_step(
        params: &mut ModelParams,
        state: VariationalState,
        ts: &TrainingSet,
        cfg: &TdpmConfig,
    ) {
        let plan = ShardPlan::new(ts.num_workers(), ts.num_tasks(), 1);
        update_params(params, &Arc::new(state), ts, &plan, cfg, true).unwrap();
    }

    #[test]
    fn mu_is_mean_of_lambdas() {
        let (ts, mut state, cfg) = toy_state();
        state.lambda_w[0].copy_from_slice(&[1.0, 0.0]);
        state.lambda_w[1].copy_from_slice(&[3.0, 2.0]);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        assert!((params.mu_w[0] - 2.0).abs() < 1e-12);
        assert!((params.mu_w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_includes_variational_variance() {
        let (ts, mut state, cfg) = toy_state();
        // Identical means → scatter 0; covariance must equal mean ν² (+ridge).
        state.lambda_w[0].fill(0.0);
        state.lambda_w[1].fill(0.0);
        state.nu2_w[0].copy_from_slice(&[0.5, 0.5]);
        state.nu2_w[1].copy_from_slice(&[1.5, 1.5]);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        assert!((params.sigma_w[(0, 0)] - (1.0 + cfg.covariance_ridge)).abs() < 1e-9);
        assert!(params.sigma_w[(0, 1)].abs() < 1e-9);
    }

    #[test]
    fn diagonal_mode_zeroes_off_diagonals() {
        let (ts, mut state, _) = toy_state();
        state.lambda_w[0].copy_from_slice(&[1.0, 1.0]);
        state.lambda_w[1].copy_from_slice(&[-1.0, -1.0]);
        let cfg = TdpmConfig {
            num_categories: 2,
            diagonal_covariance: true,
            ..TdpmConfig::default()
        };
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        assert_eq!(params.sigma_w[(0, 1)], 0.0);
        assert!(params.sigma_w[(0, 0)] > 1.0, "scatter present on diagonal");
    }

    #[test]
    fn beta_rows_are_distributions_weighted_by_phi() {
        let (ts, mut state, cfg) = toy_state();
        // Put all responsibility for both words on topic 0.
        state.phi.row_mut(0).copy_from_slice(&[1.0, 0.0, 1.0, 0.0]);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        for kk in 0..2 {
            let sum: f64 = params.beta.row(kk).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Topic 0 saw term 1 twice and term 0 once → β_{0,1} > β_{0,0}.
        assert!(params.beta[(0, 1)] > params.beta[(0, 0)]);
        // Topic 1 saw nothing → near-uniform (smoothing only).
        assert!((params.beta[(1, 0)] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tau_matches_hand_computed_residual() {
        let (ts, mut state, cfg) = toy_state();
        // Deterministic posteriors: w0 = (1,0), w1 = (0,1), c = (2,0),
        // variances ~0 → residuals: (2 − 2)² = 0 and (0 − 0)² = 0 … make it
        // nontrivial: s0 = 3 → (3−2)² = 1; s1 = 1 → (1−0)² = 1. Mean = 1.
        state.lambda_w[0].copy_from_slice(&[1.0, 0.0]);
        state.lambda_w[1].copy_from_slice(&[0.0, 1.0]);
        state.nu2_w[0].fill(0.0);
        state.nu2_w[1].fill(0.0);
        state.lambda_c[0].copy_from_slice(&[2.0, 0.0]);
        state.nu2_c[0].fill(0.0);
        let tasks = vec![TaskData {
            task: TaskId(0),
            words: vec![(0, 1)],
            num_tokens: 1.0,
            scores: vec![(0, 3.0), (1, 1.0)],
        }];
        let ts2 = TrainingSet::from_parts(tasks, 2, 2);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts2, &cfg);
        assert!(
            (params.tau2() - 1.0).abs() < 1e-9,
            "tau² = {}",
            params.tau2()
        );
        let _ = ts;
    }

    #[test]
    fn expected_residual_reduces_to_plain_square_without_variance() {
        let lw = Vector::from_vec(vec![1.0, 2.0]);
        let lc = Vector::from_vec(vec![0.5, 0.5]);
        let zero = Vector::zeros(2);
        let r = expected_sq_residual(
            2.0,
            lw.as_slice(),
            zero.as_slice(),
            lc.as_slice(),
            zero.as_slice(),
        );
        // wᵀc = 1.5 → (2 − 1.5)² = 0.25.
        assert!((r - 0.25).abs() < 1e-12);
    }

    #[test]
    fn prior_variance_floor_is_respected() {
        let (ts, mut state, cfg) = toy_state();
        // Posteriors collapsed onto a common mean with tiny variances: the
        // raw moment estimate would be ~0; the floor must hold it up.
        state.lambda_w[0].copy_from_slice(&[0.1, 0.1]);
        state.lambda_w[1].copy_from_slice(&[0.1, 0.1]);
        state.nu2_w[0].fill(1e-6);
        state.nu2_w[1].fill(1e-6);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        for i in 0..2 {
            assert!(
                params.sigma_w[(i, i)] >= cfg.min_prior_var,
                "sigma_w[{i}][{i}] = {} under floor {}",
                params.sigma_w[(i, i)],
                cfg.min_prior_var
            );
        }
    }

    #[test]
    fn tau_floor_is_respected() {
        let (_, mut state, cfg) = toy_state();
        state.lambda_w[0].copy_from_slice(&[1.0, 0.0]);
        state.nu2_w[0].fill(0.0);
        state.lambda_c[0].copy_from_slice(&[2.0, 0.0]);
        state.nu2_c[0].fill(0.0);
        // Perfect prediction → residual 0 → floor kicks in.
        let tasks = vec![TaskData {
            task: TaskId(0),
            words: vec![(0, 1)],
            num_tokens: 1.0,
            scores: vec![(0, 2.0)],
        }];
        let ts = TrainingSet::from_parts(tasks, 2, 2);
        let mut params = ModelParams::neutral(2, 2);
        m_step(&mut params, state, &ts, &cfg);
        assert!((params.tau2() - cfg.min_tau2).abs() < 1e-12);
    }
}
