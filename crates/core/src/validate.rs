//! Debug-build invariant validation at inference boundaries.
//!
//! Variational EM fails quietly: a NaN that slips into one worker posterior
//! propagates through every later E-step and surfaces — many iterations
//! later — as a subtly wrong ranking rather than a crash. The hooks in this
//! module pin the model's structural invariants (finiteness, positive
//! variances, row-stochastic responsibilities, one statistics row per
//! worker) to the exact E-/M-step boundary where they first break.
//!
//! Checks are compiled into debug builds and into any build with the
//! `validate` feature; in a plain release build [`ENABLED`] is `false` and
//! every hook folds to nothing. All checks are read-only — they can never
//! perturb the numerics they inspect, so a validated fit is bit-identical
//! to an unvalidated one.

use crate::model::TdpmModel;
use crate::params::ModelParams;
use crate::skillmatrix::SkillMatrix;
use crate::variational::{Slab, VariationalState};
use crowd_math::validate::{check_symmetric, Validate};

/// Tolerance for each `φ` responsibility block summing to 1.
const PHI_ROW_TOL: f64 = 1e-9;
/// Tolerance for prior covariance symmetry (they pass through
/// [`crowd_math::Matrix::symmetrize`], so exact in practice).
const SYMMETRY_TOL: f64 = 1e-9;

/// `true` when invariant validation is compiled into this build.
pub const ENABLED: bool = cfg!(any(debug_assertions, feature = "validate"));

/// Runs `check` when validation is compiled in, bumping `counter` per check.
///
/// # Panics
///
/// Panics with `what` and the violation description when the check fails —
/// an invariant violation is a bug in the inference code, not an error
/// value a caller could handle.
pub(crate) fn run(
    counter: &crowd_obs::Counter,
    what: &str,
    check: impl FnOnce() -> Result<(), String>,
) {
    if !ENABLED {
        return;
    }
    if let Err(msg) = check() {
        panic!("invariant violated at {what}: {msg}");
    }
    counter.inc();
}

impl Validate for VariationalState {
    /// Means finite; variances and Taylor parameters positive; every
    /// per-term responsibility block a probability distribution
    /// (entries ≥ 0, sum 1 ± 1e-9).
    fn validate(&self) -> Result<(), String> {
        let k = self.num_categories();
        for (name, slab) in [("lambda_w", &self.lambda_w), ("lambda_c", &self.lambda_c)] {
            for (i, row) in slab.rows().enumerate() {
                if let Some(c) = row.iter().position(|x| !x.is_finite()) {
                    return Err(format!(
                        "{name}[{i}]: entry[{c}] = {} is not finite",
                        row[c]
                    ));
                }
            }
        }
        for (name, slab) in [("nu2_w", &self.nu2_w), ("nu2_c", &self.nu2_c)] {
            for (i, row) in slab.rows().enumerate() {
                if let Some(c) = row
                    .iter()
                    .position(|&x| !(x.is_finite() && x >= f64::MIN_POSITIVE))
                {
                    return Err(format!(
                        "{name}[{i}] must be positive: entry[{c}] = {} is not finite or \
                         below f64::MIN_POSITIVE",
                        row[c]
                    ));
                }
            }
        }
        for (j, &e) in self.epsilon.iter().enumerate() {
            if !(e.is_finite() && e > 0.0) {
                return Err(format!(
                    "epsilon[{j}] = {e} is not a positive finite number"
                ));
            }
        }
        if k == 0 {
            return Ok(());
        }
        for j in 0..self.phi.num_rows() {
            let row = self.phi.row(j);
            for (slot, block) in row.chunks_exact(k).enumerate() {
                if let Some(p) = block.iter().position(|&x| !(x.is_finite() && x >= 0.0)) {
                    return Err(format!(
                        "phi[task {j}, term slot {slot}, k {p}] = {} is not a \
                         non-negative finite number",
                        block[p]
                    ));
                }
                let sum: f64 = block.iter().sum();
                if (sum - 1.0).abs() > PHI_ROW_TOL {
                    return Err(format!(
                        "phi[task {j}, term slot {slot}] sums to {sum} (off by {:e})",
                        (sum - 1.0).abs()
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Validate for ModelParams {
    /// Shapes agree; `τ > 0`; prior covariances finite and symmetric; `β`
    /// rows are probability distributions.
    fn validate(&self) -> Result<(), String> {
        let k = self.num_categories();
        if self.mu_c.len() != k
            || self.beta.rows() != k
            || self.sigma_w.rows() != k
            || self.sigma_w.cols() != k
            || self.sigma_c.rows() != k
            || self.sigma_c.cols() != k
        {
            return Err(format!(
                "shape mismatch against K = {k}: mu_c is {}, beta has {} rows, \
                 sigma_w is {}×{}, sigma_c is {}×{}",
                self.mu_c.len(),
                self.beta.rows(),
                self.sigma_w.rows(),
                self.sigma_w.cols(),
                self.sigma_c.rows(),
                self.sigma_c.cols()
            ));
        }
        if !(self.tau.is_finite() && self.tau > 0.0) {
            return Err(format!(
                "tau = {} is not a positive finite number",
                self.tau
            ));
        }
        self.mu_w.validate().map_err(|e| format!("mu_w: {e}"))?;
        self.mu_c.validate().map_err(|e| format!("mu_c: {e}"))?;
        for (name, m) in [("sigma_w", &self.sigma_w), ("sigma_c", &self.sigma_c)] {
            m.validate().map_err(|e| format!("{name}: {e}"))?;
            check_symmetric(m, SYMMETRY_TOL).map_err(|e| format!("{name}: {e}"))?;
        }
        self.beta.validate().map_err(|e| format!("beta: {e}"))?;
        for row in 0..k {
            let r = self.beta.row(row);
            if r.is_empty() {
                continue;
            }
            if let Some(v) = r.iter().position(|&p| p < 0.0) {
                return Err(format!("beta[({row}, {v})] = {} is negative", r[v]));
            }
            let sum: f64 = r.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return Err(format!("beta row {row} sums to {sum}, expected 1"));
            }
        }
        Ok(())
    }
}

/// One worker posterior: mean finite, variance strictly positive (at least
/// `f64::MIN_POSITIVE`).
pub(crate) fn check_posterior_row(mean: &[f64], variance: &[f64]) -> Result<(), String> {
    if let Some(c) = mean.iter().position(|x| !x.is_finite()) {
        return Err(format!("mean: entry[{c}] = {} is not finite", mean[c]));
    }
    if let Some(c) = variance
        .iter()
        .position(|&x| !(x.is_finite() && x >= f64::MIN_POSITIVE))
    {
        return Err(format!(
            "variance must be positive: entry[{c}] = {} is not finite or below \
             f64::MIN_POSITIVE",
            variance[c]
        ));
    }
    Ok(())
}

/// `slab` holds `rows` rows of `width` entries.
fn check_rows(name: &str, slab: &Slab, rows: usize, width: usize) -> Result<(), String> {
    if slab.width() != width || slab.values().len() != rows * width {
        return Err(format!(
            "{name} holds {} entries in rows of {}, expected {rows} rows of {width}",
            slab.values().len(),
            slab.width()
        ));
    }
    Ok(())
}

impl Validate for SkillMatrix {
    /// Dense rows finite, variances non-negative, id index consistent.
    fn validate(&self) -> Result<(), String> {
        let k = self.num_categories();
        for (row, &id) in self.ids().iter().enumerate() {
            if self.row_of(id) != Some(row) {
                return Err(format!(
                    "id index out of lockstep: ids[{row}] = {id:?} resolves to {:?}",
                    self.row_of(id)
                ));
            }
            let mean = self.mean_row(row);
            let var = self.var_row(row);
            if mean.len() != k || var.len() != k {
                return Err(format!(
                    "row {row} has {}/{} entries, expected {k}",
                    mean.len(),
                    var.len()
                ));
            }
            if let Some(c) = mean.iter().position(|x| !x.is_finite()) {
                return Err(format!("mean[({row}, {c})] = {} is not finite", mean[c]));
            }
            if let Some(c) = var.iter().position(|x| !(x.is_finite() && *x >= 0.0)) {
                return Err(format!(
                    "var[({row}, {c})] = {} is not a non-negative finite number",
                    var[c]
                ));
            }
        }
        Ok(())
    }
}

impl Validate for TdpmModel {
    /// Parameters; the worker posteriors in the skill matrix, each variance
    /// strictly positive; and one row of every incremental-update statistic
    /// per matrix row.
    fn validate(&self) -> Result<(), String> {
        self.params()
            .validate()
            .map_err(|e| format!("params: {e}"))?;
        let matrix = self.skill_matrix();
        matrix
            .validate()
            .map_err(|e| format!("skill matrix: {e}"))?;
        for (row, &w) in matrix.ids().iter().enumerate() {
            check_posterior_row(matrix.mean_row(row), matrix.var_row(row))
                .map_err(|e| format!("skill[{w:?}]: {e}"))?;
        }
        let (rows, k) = (matrix.num_workers(), matrix.num_categories());
        let stats = self.feedback_stats();
        if stats.num_rows() != rows {
            return Err(format!(
                "{} statistics rows for {rows} matrix rows",
                stats.num_rows()
            ));
        }
        check_rows("sum_cc", &stats.sum_cc, rows, k * k)?;
        check_rows("sum_sc", &stats.sum_sc, rows, k)?;
        check_rows("sum_diag", &stats.sum_diag, rows, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TdpmConfig;
    use crate::dataset::{TaskData, TrainingSet};
    use crowd_math::Vector;
    use crowd_store::{TaskId, WorkerId};

    fn tiny_state() -> VariationalState {
        let tasks = vec![TaskData {
            task: TaskId(0),
            words: vec![(0, 2), (1, 1)],
            num_tokens: 3.0,
            scores: vec![(0, 4.0)],
        }];
        let ts = TrainingSet::from_parts(tasks, 1, 2);
        VariationalState::init(&ts, 3, 7)
    }

    #[test]
    fn fresh_state_validates() {
        assert!(tiny_state().validate().is_ok());
    }

    #[test]
    fn nan_mean_is_caught() {
        let mut s = tiny_state();
        s.lambda_w[0][1] = f64::NAN;
        let msg = s.validate().unwrap_err();
        assert!(msg.contains("lambda_w[0]"), "{msg}");
    }

    #[test]
    fn nonpositive_variance_is_caught() {
        let mut s = tiny_state();
        s.nu2_c[0][0] = 0.0;
        assert!(s.validate().unwrap_err().contains("nu2_c[0]"));
    }

    #[test]
    fn unnormalized_phi_block_is_caught() {
        let mut s = tiny_state();
        s.phi.row_mut(0)[0] += 1e-3;
        let msg = s.validate().unwrap_err();
        assert!(msg.contains("sums to"), "{msg}");
    }

    #[test]
    fn neutral_params_validate_and_bad_tau_fails() {
        let mut p = ModelParams::neutral(2, 4);
        assert!(p.validate().is_ok());
        p.tau = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn asymmetric_prior_covariance_is_caught() {
        let mut p = ModelParams::neutral(2, 0);
        p.sigma_w[(0, 1)] = 0.5; // lower triangle left at 0
        let msg = p.validate().unwrap_err();
        assert!(msg.contains("sigma_w"), "{msg}");
    }

    #[test]
    fn model_from_posteriors_validates() {
        let k = 2;
        let model = TdpmModel::from_posteriors(
            ModelParams::neutral(k, 0),
            TdpmConfig {
                num_categories: k,
                ..TdpmConfig::default()
            },
            vec![
                (
                    WorkerId(0),
                    Vector::from_vec(vec![1.0, -1.0]),
                    Vector::from_vec(vec![0.5, 0.5]),
                ),
                (
                    WorkerId(7),
                    Vector::from_vec(vec![0.0, 2.0]),
                    Vector::from_vec(vec![1.0, 0.25]),
                ),
            ],
        )
        .unwrap();
        assert!(model.validate().is_ok());
    }

    #[test]
    fn run_panics_on_violation_when_enabled() {
        // Debug builds (where tests run) always have ENABLED set; a release
        // run without the `validate` feature has nothing to exercise here.
        if !ENABLED {
            return;
        }
        let obs = crowd_obs::Obs::noop();
        let counter = obs.metrics.counter("validate", "checks");
        run(&counter, "test-ok", || Ok(()));
        assert_eq!(counter.get(), 1);
        let err = std::panic::catch_unwind(|| {
            run(&counter, "test-bad", || Err("broken".into()));
        });
        assert!(err.is_err());
    }
}
