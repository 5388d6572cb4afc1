//! MCMC posterior sampling — a validation path for the variational
//! algorithm.
//!
//! The paper's inference is variational (Section 5). To check that our
//! implementation approximates the *right* posterior, this module samples
//! `p(W, C | V, S, ϕ)` for **fixed** model parameters `ϕ` with a
//! Gibbs-within-Metropolis scheme:
//!
//! - `w^i | C, S` is exactly Gaussian (the model is conjugate in `w`):
//!   precision `Σ_w⁻¹ + τ⁻² Σ_j c_j c_jᵀ`, sampled via a Cholesky solve.
//! - `c^j | W, S, words` is non-conjugate (logistic-normal words), so a
//!   random-walk Metropolis step is used with the *exact* word likelihood
//!   `p(v|c) = Σ_k softmax(c)_k β_{k,v}` — the topic indicator `z` is
//!   marginalized out analytically, which both removes a sampling dimension
//!   and avoids the Taylor bound the variational method needs.
//!
//! Agreement between the Gibbs posterior means and the variational means on
//! small problems is asserted in the test suite.

use crate::dataset::TrainingSet;
use crate::inference::EStepContext;
use crate::params::ModelParams;
use crate::{CoreError, Result};
use crowd_math::{Cholesky, Vector};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct GibbsConfig {
    /// Discarded warm-up sweeps.
    pub burn_in: usize,
    /// Retained samples (after thinning).
    pub samples: usize,
    /// Keep every `thin`-th sweep.
    pub thin: usize,
    /// Initial random-walk proposal standard deviation for the `c` update.
    /// During burn-in the scale adapts towards [`GibbsConfig::target_accept`]
    /// and is then frozen, so the post-burn-in chain keeps detailed balance.
    pub proposal_std: f64,
    /// Metropolis acceptance rate the burn-in adaptation aims for.
    pub target_accept: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            burn_in: 200,
            samples: 300,
            thin: 2,
            proposal_std: 0.15,
            target_accept: 0.3,
            seed: 1234,
        }
    }
}

/// Posterior summary from a sampling run.
#[derive(Debug, Clone)]
pub struct GibbsSummary {
    /// Posterior mean worker skills `E[w^i | data]`.
    pub worker_means: Vec<Vector>,
    /// Posterior mean task categories `E[c^j | data]`.
    pub task_means: Vec<Vector>,
    /// Metropolis acceptance rate of the `c` updates.
    pub acceptance_rate: f64,
}

/// Samples the latent posterior under fixed parameters `params`.
pub fn sample_posterior(
    params: &ModelParams,
    ts: &TrainingSet,
    cfg: &GibbsConfig,
) -> Result<GibbsSummary> {
    if ts.num_tasks() == 0 {
        return Err(CoreError::EmptyTrainingSet);
    }
    let k = params.num_categories();
    let ctx = EStepContext::new(params)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let by_worker = ts.scores_by_worker();
    let inv_tau2 = 1.0 / ctx.tau2;

    // State: start from the prior means.
    let mut w: Vec<Vector> = (0..ts.num_workers()).map(|_| params.mu_w.clone()).collect();
    let mut c: Vec<Vector> = (0..ts.num_tasks()).map(|_| params.mu_c.clone()).collect();

    let mut w_acc: Vec<Vector> = (0..ts.num_workers()).map(|_| Vector::zeros(k)).collect();
    let mut c_acc: Vec<Vector> = (0..ts.num_tasks()).map(|_| Vector::zeros(k)).collect();
    let mut kept = 0usize;
    let mut proposals = 0usize;
    let mut accepted = 0usize;

    // Proposal scale, adapted during burn-in towards `target_accept` and
    // frozen afterwards. A fixed scale that mixes well under neutral
    // parameters can stall once β sharpens (the word likelihood narrows the
    // conditional), which biases the short-chain posterior means.
    let mut step = cfg.proposal_std;
    let mut window_proposals = 0usize;
    let mut window_accepts = 0usize;
    const ADAPT_WINDOW: usize = 20;

    let total_sweeps = cfg.burn_in + cfg.samples * cfg.thin.max(1);
    for sweep in 0..total_sweeps {
        // ---- Gibbs: w^i | c, s (exact Gaussian conditional) ----------------
        for (i, jobs) in by_worker.iter().enumerate() {
            let mut precision = ctx.sigma_w_inv.clone();
            let mut rhs = ctx.prior_rhs_w.clone();
            for &(j, s) in jobs {
                precision.add_outer(inv_tau2, c[j].as_slice())?;
                rhs.axpy(inv_tau2 * s, &c[j])?;
            }
            let chol = Cholesky::factor_with_jitter(&precision, 1e-10, 40)?;
            let mean = chol.solve(&rhs)?;
            w[i] = sample_from_precision(&chol, &mean, &mut rng)?;
        }

        // ---- Metropolis: c^j | w, s, words ---------------------------------
        for (j, task) in ts.tasks().iter().enumerate() {
            let current_lp = log_posterior_c(&c[j], task, &w, params, &ctx, inv_tau2)?;
            let proposal = Vector::from_fn(k, |kk| c[j][kk] + step * standard_normal(&mut rng));
            let proposal_lp = log_posterior_c(&proposal, task, &w, params, &ctx, inv_tau2)?;
            proposals += 1;
            window_proposals += 1;
            if (proposal_lp - current_lp) >= rng.random::<f64>().max(1e-300).ln() {
                c[j] = proposal;
                accepted += 1;
                window_accepts += 1;
            }
        }

        if sweep < cfg.burn_in && (sweep + 1).is_multiple_of(ADAPT_WINDOW) {
            let rate = window_accepts as f64 / window_proposals.max(1) as f64;
            // Multiplicative Robbins–Monro style update, clamped so a dead
            // window cannot collapse or explode the scale.
            step = (step * (1.0 + (rate - cfg.target_accept))).clamp(1e-3, 10.0);
            window_proposals = 0;
            window_accepts = 0;
        }

        // ---- Scale move: (W, C) → (W/γ, γC) ---------------------------------
        // Every inner product w·c — and with it the entire feedback
        // likelihood — is invariant under this map, so when τ is small the
        // posterior has a long, thin ridge that coordinate-wise updates
        // cannot traverse: a chain started at small ‖c‖ compensates with
        // huge ‖w‖ and stays there. A log-normal γ proposal slides the whole
        // state along the ridge; only the priors, the word likelihood, and
        // the Jacobian |det| = γ^{K(#tasks − #workers)} decide acceptance.
        let gamma: f64 = (0.2 * standard_normal(&mut rng)).exp();
        let mut log_accept =
            (k as f64) * (ts.num_tasks() as f64 - ts.num_workers() as f64) * gamma.ln();
        for wi in &w {
            let cur = wi.sub(&params.mu_w)?;
            let prop = Vector::from_fn(k, |kk| wi[kk] / gamma - params.mu_w[kk]);
            log_accept +=
                0.5 * (ctx.sigma_w_inv.quad_form(&cur)? - ctx.sigma_w_inv.quad_form(&prop)?);
        }
        for (j, task) in ts.tasks().iter().enumerate() {
            let cur = c[j].sub(&ctx.mu_c)?;
            let prop = Vector::from_fn(k, |kk| gamma * c[j][kk] - ctx.mu_c[kk]);
            log_accept +=
                0.5 * (ctx.sigma_c_inv.quad_form(&cur)? - ctx.sigma_c_inv.quad_form(&prop)?);
            let scaled = Vector::from_fn(k, |kk| gamma * c[j][kk]);
            log_accept += word_loglik(&scaled, task, params) - word_loglik(&c[j], task, params);
        }
        if log_accept >= rng.random::<f64>().max(1e-300).ln() {
            for wi in &mut w {
                wi.scale(1.0 / gamma);
            }
            for cj in &mut c {
                cj.scale(gamma);
            }
        }

        // ---- Collect --------------------------------------------------------
        if sweep >= cfg.burn_in && (sweep - cfg.burn_in).is_multiple_of(cfg.thin.max(1)) {
            for i in 0..w.len() {
                w_acc[i].add_assign(&w[i])?;
            }
            for j in 0..c.len() {
                c_acc[j].add_assign(&c[j])?;
            }
            kept += 1;
        }
    }

    let scale = 1.0 / kept.max(1) as f64;
    for v in &mut w_acc {
        v.scale(scale);
    }
    for v in &mut c_acc {
        v.scale(scale);
    }
    Ok(GibbsSummary {
        worker_means: w_acc,
        task_means: c_acc,
        acceptance_rate: accepted as f64 / proposals.max(1) as f64,
    })
}

/// Unnormalized log posterior of one task category `c` given everything
/// else: Gaussian prior + exact (z-marginalized) word likelihood + Gaussian
/// feedback likelihood.
fn log_posterior_c(
    c: &Vector,
    task: &crate::dataset::TaskData,
    w: &[Vector],
    params: &ModelParams,
    ctx: &EStepContext,
    inv_tau2: f64,
) -> Result<f64> {
    // Prior.
    let diff = c.sub(&ctx.mu_c)?;
    let mut lp = -0.5 * ctx.sigma_c_inv.quad_form(&diff)?;
    lp += word_loglik(c, task, params);
    // Feedback.
    for &(i, s) in &task.scores {
        let pred = w[i].dot(c)?;
        lp -= 0.5 * inv_tau2 * (s - pred) * (s - pred);
    }
    Ok(lp)
}

/// Exact (z-marginalized) word log likelihood `Σ_v cnt ln Σ_k π_k β_{k,v}`.
fn word_loglik(c: &Vector, task: &crate::dataset::TaskData, params: &ModelParams) -> f64 {
    if task.words.is_empty() {
        return 0.0;
    }
    let pi = crowd_math::special::softmax(c.as_slice());
    let mut lp = 0.0;
    for &(v, cnt) in &task.words {
        let mut p = 0.0;
        for kk in 0..pi.len() {
            p += pi[kk] * params.beta[(kk, v)];
        }
        lp += cnt as f64 * p.max(1e-300).ln();
    }
    lp
}

/// Draws `x ~ Normal(mean, P⁻¹)` given the Cholesky factor `L` of the
/// precision `P = L Lᵀ`: solve `Lᵀ x₀ = z` for standard-normal `z`, then
/// `x = mean + x₀` (cov(x₀) = L⁻ᵀ L⁻¹ = P⁻¹).
fn sample_from_precision(chol: &Cholesky, mean: &Vector, rng: &mut StdRng) -> Result<Vector> {
    let n = chol.dim();
    let z = Vector::from_fn(n, |_| standard_normal(rng));
    // Back substitution against Lᵀ.
    let l = chol.l();
    let mut x = Vector::zeros(n);
    for i in (0..n).rev() {
        let mut sum = z[i];
        for kk in (i + 1)..n {
            sum -= l[(kk, i)] * x[kk];
        }
        x[i] = sum / l[(i, i)];
    }
    x.add_assign(mean)?;
    Ok(x)
}

/// Box–Muller standard normal.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crowd_store::TaskId;

    /// Planted 2-topic problem with two specialists and sharp β.
    fn planted() -> (ModelParams, TrainingSet) {
        let mut params = ModelParams::neutral(2, 4);
        for v in 0..4 {
            params.beta[(0, v)] = if v < 2 { 0.45 } else { 0.05 };
            params.beta[(1, v)] = if v < 2 { 0.05 } else { 0.45 };
        }
        params.tau = 0.4;
        let tasks = (0..16u32)
            .map(|j| {
                let a = j % 2 == 0;
                TaskData {
                    task: TaskId(j),
                    words: if a {
                        vec![(0, 3), (1, 2)]
                    } else {
                        vec![(2, 3), (3, 2)]
                    },
                    num_tokens: 5.0,
                    scores: if a {
                        vec![(0, 2.5), (1, 0.2)]
                    } else {
                        vec![(0, 0.2), (1, 2.5)]
                    },
                }
            })
            .collect();
        (params, TrainingSet::from_parts(tasks, 2, 4))
    }

    fn quick_cfg() -> GibbsConfig {
        GibbsConfig {
            burn_in: 150,
            samples: 150,
            thin: 2,
            proposal_std: 0.2,
            target_accept: 0.3,
            seed: 7,
        }
    }

    #[test]
    fn recovers_specialist_structure() {
        let (params, ts) = planted();
        let summary = sample_posterior(&params, &ts, &quick_cfg()).unwrap();
        // Task categories of the two topic types separate.
        let pi_a = crowd_math::special::softmax(summary.task_means[0].as_slice());
        let pi_b = crowd_math::special::softmax(summary.task_means[1].as_slice());
        assert!(pi_a[0] > 0.6, "topic-A task leans to category 0: {pi_a:?}");
        assert!(pi_b[1] > 0.6, "topic-B task leans to category 1: {pi_b:?}");
        // Worker skills: w0 is the topic-A specialist.
        let w0 = &summary.worker_means[0];
        let w1 = &summary.worker_means[1];
        assert!(w0[0] > w1[0], "w0 stronger on category 0");
        assert!(w1[1] > w0[1], "w1 stronger on category 1");
    }

    #[test]
    fn acceptance_rate_is_reasonable() {
        let (params, ts) = planted();
        let summary = sample_posterior(&params, &ts, &quick_cfg()).unwrap();
        assert!(
            (0.05..0.95).contains(&summary.acceptance_rate),
            "acceptance {:.3}",
            summary.acceptance_rate
        );
    }

    #[test]
    fn agrees_with_variational_inference() {
        // Both methods approximate the same posterior p(W, C | V, S, ϕ) for
        // *fixed* parameters ϕ, so run the variational E-step (no M-step)
        // and the sampler under the identical planted ϕ and compare
        // posterior means. Fitting ϕ by EM first would drive τ to its floor
        // on this tiny separable problem, and at τ → 0 the latent
        // coordinates sit on scale/sign ridges (w·c is invariant under
        // W → −W, C → −C) where raw coordinates are not comparable.
        let (params, ts) = planted();
        let k = params.num_categories();
        let cfg = crate::TdpmConfig {
            num_categories: k,
            seed: 3,
            ..crate::TdpmConfig::default()
        };
        let ctx = std::sync::Arc::new(EStepContext::new(&params).unwrap());
        let mut state =
            std::sync::Arc::new(crate::variational::VariationalState::init(&ts, k, cfg.seed));
        let driver = crate::trainer::EmDriver::new(&ts, &cfg, &crowd_obs::Obs::noop());
        for _ in 0..60 {
            driver.e_step(&mut state, &ctx).unwrap();
        }

        let summary = sample_posterior(&params, &ts, &quick_cfg()).unwrap();

        let mut variational = Vec::new();
        let mut mcmc = Vec::new();
        for i in 0..ts.num_workers() {
            variational.extend_from_slice(&state.lambda_w[i]);
            mcmc.extend_from_slice(summary.worker_means[i].as_slice());
        }
        for j in 0..ts.num_tasks() {
            variational.extend_from_slice(&state.lambda_c[j]);
            mcmc.extend_from_slice(summary.task_means[j].as_slice());
        }
        let corr = crowd_math::stats::pearson(&variational, &mcmc).unwrap();
        assert!(
            corr > 0.9,
            "variational and MCMC posterior means should agree: r = {corr:.3}\n\
             variational {variational:?}\nmcmc {mcmc:?}"
        );
    }

    #[test]
    fn empty_training_set_errors() {
        let (params, _) = planted();
        let ts = TrainingSet::from_parts(vec![], 0, 4);
        assert!(matches!(
            sample_posterior(&params, &ts, &quick_cfg()),
            Err(CoreError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (params, ts) = planted();
        let a = sample_posterior(&params, &ts, &quick_cfg()).unwrap();
        let b = sample_posterior(&params, &ts, &quick_cfg()).unwrap();
        assert_eq!(a.worker_means[0].as_slice(), b.worker_means[0].as_slice());
        assert_eq!(a.acceptance_rate, b.acceptance_rate);
    }
}
