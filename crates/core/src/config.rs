//! Training configuration.

use serde::{Deserialize, Serialize};

/// Hyper-parameters and stopping criteria for [`crate::TdpmTrainer`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TdpmConfig {
    /// Number of latent categories `K`.
    pub num_categories: usize,
    /// Maximum variational EM iterations (`n_max` in Algorithm 2).
    pub max_em_iters: usize,
    /// Stop when the ELBO improves by less than this (relative).
    pub elbo_rel_tol: f64,
    /// Inner coordinate-ascent rounds per task per E-step.
    pub task_inner_iters: usize,
    /// Assume independent skills / categories: keep `Σ_w` and `Σ_c`
    /// diagonal (the paper's "special case" in Section 4.3.1).
    pub diagonal_covariance: bool,
    /// Additive smoothing for the topic-word distributions `β`.
    pub beta_smoothing: f64,
    /// Floor for the feedback noise `τ²` (prevents degenerate certainty).
    pub min_tau2: f64,
    /// Floor for the diagonal of the fitted priors `Σ_w`, `Σ_c` (Eqs. 17/19).
    ///
    /// The empirical-Bayes covariance update is self-reinforcing: once the
    /// worker posteriors cluster near `μ_w`, the fitted `Σ_w` shrinks, which
    /// pins the posteriors to `μ_w` even harder on the next E-step. Left
    /// unchecked the prior collapses (diagonals ~1e-2) and every worker's
    /// skill degenerates to the shared mean — erasing the magnitude
    /// differences that distinguish TDPM from normalized multinomial
    /// profiles (Section 1). The floor is the `Σ` analog of [`min_tau2`].
    ///
    /// [`min_tau2`]: TdpmConfig::min_tau2
    pub min_prior_var: f64,
    /// EM iterations during which `τ` is held at its initial value.
    ///
    /// Updating the noise too early lets `τ²` absorb the full score variance
    /// before skills and categories have grown, freezing the model in a
    /// trust-free local optimum.
    pub tau_warmup_iters: usize,
    /// Ridge added to covariance estimates to keep them SPD.
    pub covariance_ridge: f64,
    /// Exponential forgetting factor applied to a worker's accumulated
    /// feedback sufficient statistics on each incremental
    /// [`crate::TdpmModel::record_feedback`] call (the "feedback-weighted"
    /// variant of Section 4.2's online update).
    ///
    /// `1.0` (the default) keeps every observation at full weight, matching
    /// the batch posterior exactly. Values in `(0, 1)` discount old evidence
    /// geometrically — effective memory ≈ `1 / (1 − ρ)` observations — so
    /// the posterior can track workers whose real skills drift over time.
    /// Only the data terms decay; the prior `Σ_w⁻¹` stays at full strength.
    pub feedback_forgetting: f64,
    /// RNG seed for symmetry-breaking initialization.
    pub seed: u64,
    /// Fan-out within a shard, for training and for serving.
    ///
    /// - **Fit:** each E-step half cuts every shard's worker or task range
    ///   into `num_threads` contiguous chunks, one pool job each. Posteriors
    ///   within a half are mutually independent, so the fitted model is
    ///   bit-identical for every value.
    /// - **Serving:** the default candidate-chunk fan-out of
    ///   [`crate::TdpmModel::select`] (when its `ScoreSpec::threads` is
    ///   `None`) and of [`crate::TdpmModel::select_top_k_optimistic`].
    ///
    /// Defaults to `1`.
    pub num_threads: usize,
    /// Shards for the fit (`1` = unsharded). Workers and tasks are cut into
    /// `num_shards` block-aligned contiguous ranges (see
    /// [`crate::inference::suffstats::ShardPlan`]). Both E-step halves run
    /// per shard on the persistent scoring pool (each shard cut further into
    /// `num_threads` chunks), and the ELBO and M-step gather fixed-block
    /// sufficient statistics in one pool job per shard and fold them in
    /// shard-index order. Because every global sum uses the same fixed-block
    /// reduction tree for every plan, the fitted model is **bit-identical for
    /// every shard count**. The shard count of the store a
    /// [`crate::TrainingSet`] came from is not consulted. Defaults to `1`.
    pub num_shards: usize,
}

impl Default for TdpmConfig {
    fn default() -> Self {
        TdpmConfig {
            num_categories: 10,
            max_em_iters: 30,
            elbo_rel_tol: 1e-5,
            task_inner_iters: 3,
            diagonal_covariance: false,
            beta_smoothing: 1e-2,
            min_tau2: 1e-4,
            min_prior_var: 0.25,
            tau_warmup_iters: 3,
            covariance_ridge: 1e-6,
            feedback_forgetting: 1.0,
            seed: 42,
            num_threads: 1,
            num_shards: 1,
        }
    }
}

impl TdpmConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        if self.num_categories == 0 {
            return Err(crate::CoreError::InvalidConfig(
                "num_categories must be ≥ 1",
            ));
        }
        if self.max_em_iters == 0 {
            return Err(crate::CoreError::InvalidConfig("max_em_iters must be ≥ 1"));
        }
        if self.beta_smoothing <= 0.0 || self.beta_smoothing.is_nan() {
            return Err(crate::CoreError::InvalidConfig(
                "beta_smoothing must be > 0",
            ));
        }
        if self.min_tau2 <= 0.0 || self.min_tau2.is_nan() {
            return Err(crate::CoreError::InvalidConfig("min_tau2 must be > 0"));
        }
        if self.min_prior_var < 0.0 || self.min_prior_var.is_nan() {
            return Err(crate::CoreError::InvalidConfig("min_prior_var must be ≥ 0"));
        }
        if !(self.feedback_forgetting > 0.0 && self.feedback_forgetting <= 1.0) {
            return Err(crate::CoreError::InvalidConfig(
                "feedback_forgetting must be in (0, 1]",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(TdpmConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_categories_rejected() {
        let cfg = TdpmConfig {
            num_categories: 0,
            ..TdpmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_iters_rejected() {
        let cfg = TdpmConfig {
            max_em_iters: 0,
            ..TdpmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn nonpositive_smoothing_rejected() {
        let cfg = TdpmConfig {
            beta_smoothing: 0.0,
            ..TdpmConfig::default()
        };
        assert!(cfg.validate().is_err());
    }
}
