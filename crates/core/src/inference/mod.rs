//! Variational inference engine (paper Section 5).
//!
//! Each module implements one block of Algorithm 2 with the corresponding
//! equation numbers documented inline:
//!
//! - [`estep`]: the variational-parameter updates (Eqs. 10–15). Worker means
//!   and variances are closed form (Cholesky solves); task means use damped
//!   Newton on a closed-form K×K Hessian; task variances use a
//!   bracket-safeguarded Newton root solve; word responsibilities and the
//!   Taylor parameter are closed form.
//! - [`mstep`]: the model-parameter updates (Eqs. 16–21), all closed form.
//! - [`elbo`]: the evidence lower bound `L'(q)` used as the convergence
//!   criterion (`L'(q^{(n)}) − L'(q^{(n−1)}) ≤ ε` in Algorithm 2).
//! - [`suffstats`]: the fixed-block sufficient-statistics scheme every
//!   global reduction (M-step + ELBO) goes through, which is what keeps the
//!   fit bit-identical for any shard count.
//!
//! The paper's appendix derivations contain several typos (dropped
//! transposes, sign flips); the updates here are re-derived from the CTM
//! bound and verified against finite differences in the test suite.

pub mod elbo;
pub mod estep;
pub mod gibbs;
pub mod mstep;
pub mod suffstats;

use crate::params::ModelParams;
use crowd_math::{Cholesky, Matrix, Result as MathResult};

/// `y += alpha · x` over equal-length slices: [`crowd_math::Vector::axpy`]'s
/// elementwise loop, for posterior rows that live in a [`crate::variational::Slab`].
pub(crate) fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (a, &b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

/// Per-E-step precomputed quantities shared by every update.
#[derive(Debug, Clone)]
pub struct EStepContext {
    /// `Σ_w⁻¹`.
    pub sigma_w_inv: Matrix,
    /// `Σ_c⁻¹`.
    pub sigma_c_inv: Matrix,
    /// `log β` (floored; see [`ModelParams::log_beta`]).
    pub log_beta: Matrix,
    /// `τ²`.
    pub tau2: f64,
    /// `Σ_w⁻¹ μ_w` (worker-update right-hand-side prior term).
    pub prior_rhs_w: crowd_math::Vector,
    /// `Σ_c⁻¹ μ_c`.
    pub prior_rhs_c: crowd_math::Vector,
    /// `μ_w` (cached copy).
    pub mu_w: crowd_math::Vector,
    /// `μ_c` (cached copy).
    pub mu_c: crowd_math::Vector,
    /// Log-determinants needed by the ELBO.
    pub log_det_sigma_w: f64,
    /// `log det Σ_c`.
    pub log_det_sigma_c: f64,
}

impl EStepContext {
    /// Builds the context from the current model parameters.
    pub fn new(params: &ModelParams) -> MathResult<Self> {
        let chol_w = Cholesky::factor_with_jitter(&params.sigma_w, 1e-10, 40)?;
        let chol_c = Cholesky::factor_with_jitter(&params.sigma_c, 1e-10, 40)?;
        let sigma_w_inv = chol_w.inverse()?;
        let sigma_c_inv = chol_c.inverse()?;
        let prior_rhs_w = sigma_w_inv.matvec(&params.mu_w)?;
        let prior_rhs_c = sigma_c_inv.matvec(&params.mu_c)?;
        Ok(EStepContext {
            prior_rhs_w,
            prior_rhs_c,
            mu_w: params.mu_w.clone(),
            mu_c: params.mu_c.clone(),
            log_beta: params.log_beta(),
            tau2: params.tau2(),
            log_det_sigma_w: chol_w.log_det(),
            log_det_sigma_c: chol_c.log_det(),
            sigma_w_inv,
            sigma_c_inv,
        })
    }
}
