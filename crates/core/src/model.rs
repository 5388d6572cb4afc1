//! The trained TDPM artifact: worker skills + incremental crowd-selection.

use crate::config::TdpmConfig;
use crate::inference::estep::{update_task, TaskFeedbackStats, TaskPosterior, TaskUpdate};
use crate::inference::EStepContext;
use crate::params::ModelParams;
use crate::selection::{top_k, RankedWorker};
use crate::skillmatrix::{PartialRanking, ScoreSpec, SkillMatrix};
use crate::{CoreError, Result};
use crowd_math::{Cholesky, Matrix, Vector, WorkGuard};
use crowd_store::{TaskId, WorkerId};
use crowd_text::BagOfWords;
use rand::{Rng, RngExt};
use std::collections::HashMap;

/// Floating-point width of the dense serving path.
///
/// `F64` is the default and the bit-identity oracle; `F32` is the opt-in
/// reduced-precision mirror (a [`crate::ScoreSpec`] field) with the
/// accuracy contract of DESIGN.md §10c. Only the TDPM dense
/// kernels have an f32 mirror — baseline backends always serve in f64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Full-width serving (the oracle path).
    #[default]
    F64,
    /// Reduced-precision serving through the f32 skill mirror.
    F32,
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        })
    }
}

/// Posterior skill state for one worker, with the sufficient statistics
/// and cached precision factor needed for O(K²) incremental updates when
/// new feedback arrives.
#[derive(Debug, Clone)]
pub struct WorkerSkill {
    /// Posterior mean `λ_w` — the skill vector used for ranking.
    pub mean: Vector,
    /// Posterior diagonal variance `ν_w²`.
    pub variance: Vector,
    /// `Σ_j (λ_c^j (λ_c^j)ᵀ + diag(ν_c^j²))` over this worker's scored tasks.
    sum_cc: Matrix,
    /// `Σ_j s_ij λ_c^j`.
    sum_sc: Vector,
    /// `Σ_j (λ²_c,jk + ν²_c,jk)` per coordinate (for Eq. 11).
    sum_diag: Vector,
    /// Number of scored tasks folded in.
    num_jobs: usize,
    /// Cached Cholesky factor of the posterior precision
    /// `Σ_w⁻¹ + τ⁻² sum_cc`. Maintained by O(K²) rank-1 updates
    /// ([`crowd_math::Cholesky::rank_one_update`]) instead of O(K³)
    /// refactorization on every feedback event; rebuilt lazily when absent
    /// (e.g. after deserialization).
    precision_chol: Option<Cholesky>,
}

impl WorkerSkill {
    fn at_prior(k: usize) -> Self {
        WorkerSkill {
            mean: Vector::zeros(k),
            variance: Vector::filled(k, 1.0),
            sum_cc: Matrix::zeros(k, k),
            sum_sc: Vector::zeros(k),
            sum_diag: Vector::zeros(k),
            num_jobs: 0,
            precision_chol: None,
        }
    }

    /// Number of feedback observations backing this skill estimate.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Read access to the incremental-update sufficient statistics
    /// (`Σ ccᵀ+diag(ν²)`, `Σ s·c`, per-coordinate `Σ (c² + ν²)`).
    pub(crate) fn sufficient_stats(&self) -> (&Matrix, &Vector, &Vector) {
        (&self.sum_cc, &self.sum_sc, &self.sum_diag)
    }
}

/// A new task projected onto the learned latent category space
/// (Algorithm 3, lines 1–5).
#[derive(Debug, Clone)]
pub struct TaskProjection {
    /// Posterior mean `λ_c` of the task's latent category.
    pub lambda: Vector,
    /// Posterior diagonal variance `ν_c²`.
    pub nu2: Vector,
    /// Total token count of the projected task (0 if nothing matched the
    /// model vocabulary).
    pub num_tokens: f64,
}

impl TaskProjection {
    /// Samples a concrete category vector `c ~ Normal(λ_c, diag(ν_c²))`
    /// (Algorithm 3, line 6).
    pub fn sample(&self, rng: &mut impl Rng) -> Vector {
        Vector::from_fn(self.lambda.len(), |k| {
            let std = self.nu2[k].max(0.0).sqrt();
            // Box–Muller on two uniforms.
            let u1: f64 = rng.random::<f64>().max(1e-12);
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.lambda[k] + std * z
        })
    }
}

/// A trained task-driven crowd-selection model.
///
/// Produced by [`crate::TdpmTrainer`]; supports the two online operations the
/// paper's crowd manager needs (Section 2): projecting incoming tasks into
/// the latent space, and updating worker skills when new feedback arrives.
#[derive(Debug, Clone)]
pub struct TdpmModel {
    params: ModelParams,
    config: TdpmConfig,
    /// Per-worker posterior records, indexed by the worker's row in
    /// `matrix`: both share one numbering, so the matrix's dense id → row
    /// index serves both.
    skills: Vec<WorkerSkill>,
    ctx: EStepContext,
    /// Fitted posteriors of the training tasks, keyed by store id. Unlike a
    /// fresh [`TdpmModel::project_bow`] projection these are
    /// *feedback-informed* (Eqs. 14–15 include the score terms).
    trained_tasks: HashMap<TaskId, TaskProjection>,
    /// Dense `W × K` serving snapshot of the posterior means/variances, kept
    /// in lockstep with `skills` (rebuilt on assembly, row-upserted by
    /// [`TdpmModel::add_worker`] / [`TdpmModel::record_feedback`]). Every
    /// selection query scores against this, never against `skills`.
    matrix: SkillMatrix,
    /// Online-path metrics (`model` component): projection latency and
    /// incremental-update counts. Handles are resolved once in
    /// [`TdpmModel::set_obs`] so the hot paths never touch the registry
    /// lock. Defaults to a detached no-op registry.
    metrics: ModelMetrics,
}

/// Pre-resolved metric handles for the model's online operations.
#[derive(Debug, Clone)]
struct ModelMetrics {
    projections: std::sync::Arc<crowd_obs::Counter>,
    projection_seconds: std::sync::Arc<crowd_obs::Histogram>,
    incremental_updates: std::sync::Arc<crowd_obs::Counter>,
    incremental_update_seconds: std::sync::Arc<crowd_obs::Histogram>,
    validations: std::sync::Arc<crowd_obs::Counter>,
}

impl ModelMetrics {
    fn resolve(obs: &crowd_obs::Obs) -> Self {
        ModelMetrics {
            projections: obs.metrics.counter("model", "projections"),
            projection_seconds: obs.metrics.histogram("model", "projection_seconds"),
            incremental_updates: obs.metrics.counter("model", "incremental_updates"),
            incremental_update_seconds: obs
                .metrics
                .histogram("model", "incremental_update_seconds"),
            validations: obs.metrics.counter("validate", "checks"),
        }
    }
}

impl TdpmModel {
    /// Assembles a model from trained parameters and per-worker skill states.
    ///
    /// `skills` must be in the same dense order as `worker_ids`, which must
    /// be distinct ([`CoreError::DuplicateWorker`] otherwise): skill `i`
    /// becomes matrix row `i`.
    pub(crate) fn assemble(
        params: ModelParams,
        config: TdpmConfig,
        skills: Vec<WorkerSkill>,
        worker_ids: Vec<WorkerId>,
    ) -> Result<Self> {
        debug_assert_eq!(skills.len(), worker_ids.len(), "one skill per worker");
        let ctx = EStepContext::new(&params)?;
        let mut matrix = SkillMatrix::with_capacity(config.num_categories, worker_ids.len());
        for (&w, skill) in worker_ids.iter().zip(&skills) {
            if matrix.row_of(w).is_some() {
                return Err(CoreError::DuplicateWorker(w));
            }
            matrix.upsert(w, skill.mean.as_slice(), skill.variance.as_slice());
        }
        Ok(TdpmModel {
            params,
            config,
            skills,
            ctx,
            trained_tasks: HashMap::new(),
            matrix,
            metrics: ModelMetrics::resolve(&crowd_obs::Obs::noop()),
        })
    }

    /// Assembles a servable model directly from per-worker posterior means
    /// and variances, with no training history behind them (sufficient
    /// statistics start empty, as for [`TdpmModel::add_worker`]).
    ///
    /// This is the entry point for benchmarks and property tests that need a
    /// model of arbitrary shape without running variational EM; selection
    /// behaves exactly as it would on a trained model with these posteriors.
    pub fn from_posteriors(
        params: ModelParams,
        config: TdpmConfig,
        workers: Vec<(WorkerId, Vector, Vector)>,
    ) -> Result<Self> {
        let k = config.num_categories;
        let mut ids = Vec::with_capacity(workers.len());
        let mut skills = Vec::with_capacity(workers.len());
        for (w, mean, variance) in workers {
            if mean.len() != k || variance.len() != k {
                return Err(CoreError::Numerical(format!(
                    "posterior for worker {w:?} has length {}/{}, expected {k}",
                    mean.len(),
                    variance.len()
                )));
            }
            let mut skill = WorkerSkill::at_prior(k);
            skill.mean = mean;
            skill.variance = variance;
            ids.push(w);
            skills.push(skill);
        }
        TdpmModel::assemble(params, config, skills, ids)
    }

    /// Attaches shared observability for the online operations (Algorithm
    /// 3 projection latency, incremental feedback updates).
    pub fn set_obs(&mut self, obs: crowd_obs::Obs) {
        self.metrics = ModelMetrics::resolve(&obs);
    }

    /// Installs the fitted training-task posteriors (called by the trainer).
    pub(crate) fn set_trained_tasks(&mut self, tasks: HashMap<TaskId, TaskProjection>) {
        self.trained_tasks = tasks;
    }

    /// The feedback-informed posterior of a training task, if this model was
    /// fitted on it.
    pub fn trained_projection(&self, task: TaskId) -> Option<&TaskProjection> {
        self.trained_tasks.get(&task)
    }

    /// Ids of the training tasks whose fitted posteriors were retained.
    pub fn trained_task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.trained_tasks.keys().copied()
    }

    /// The training configuration baked into this model.
    pub fn config(&self) -> &TdpmConfig {
        &self.config
    }

    /// Number of latent categories `K`.
    pub fn num_categories(&self) -> usize {
        self.config.num_categories
    }

    /// The learned global parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Ids of all workers known to the model.
    pub fn worker_ids(&self) -> &[WorkerId] {
        self.matrix.ids()
    }

    /// The skill state for a worker.
    pub fn skill(&self, worker: WorkerId) -> Option<&WorkerSkill> {
        self.matrix
            .row_of(worker)
            .and_then(|row| self.skills.get(row))
    }

    /// Registers a worker unseen at training time; starts at the prior.
    pub fn add_worker(&mut self, worker: WorkerId) {
        if self.matrix.row_of(worker).is_some() {
            return;
        }
        let mut skill = WorkerSkill::at_prior(self.num_categories());
        skill.mean = self.params.mu_w.clone();
        for k in 0..self.num_categories() {
            skill.variance[k] = 1.0 / self.ctx.sigma_w_inv[(k, k)];
        }
        self.matrix
            .upsert(worker, skill.mean.as_slice(), skill.variance.as_slice());
        self.skills.push(skill);
        crate::validate::run(&self.metrics.validations, "add_worker", || {
            let skill = &self.skills[self.skills.len() - 1];
            crowd_math::Validate::validate(skill).map_err(|e| format!("skill[{worker:?}]: {e}"))
        });
    }

    /// The dense serving snapshot of every worker's posterior.
    pub fn skill_matrix(&self) -> &SkillMatrix {
        &self.matrix
    }

    // ---- Algorithm 3: incremental crowd-selection ---------------------------

    /// Projects a bag of words onto the latent space (Alg. 3 lines 1–5;
    /// Eqs. 22–23). The bag must be built against the training vocabulary —
    /// unseen terms were already dropped by the frozen vocabulary.
    pub fn project_bow(&self, bow: &BagOfWords) -> TaskProjection {
        let words: Vec<(usize, u32)> = bow.iter().map(|(t, c)| (t.index(), c)).collect();
        self.project_words(&words)
    }

    /// Projects pre-indexed `(term, count)` pairs onto the latent space.
    ///
    /// Terms outside the model vocabulary are ignored.
    pub fn project_words(&self, words: &[(usize, u32)]) -> TaskProjection {
        let started = std::time::Instant::now();
        let k = self.num_categories();
        let vocab = self.params.vocab_size();
        let filtered: Vec<(usize, u32)> =
            words.iter().copied().filter(|&(v, _)| v < vocab).collect();
        let num_tokens: f64 = filtered.iter().map(|&(_, c)| c as f64).sum();

        let mut lambda = self.ctx.mu_c.clone();
        let mut nu2 = Vector::from_fn(k, |kk| 1.0 / self.ctx.sigma_c_inv[(kk, kk)]);
        let mut phi = vec![1.0 / k as f64; filtered.len() * k];
        let mut epsilon = (0..k)
            .map(|kk| (lambda[kk] + nu2[kk] / 2.0).exp())
            .sum::<f64>()
            .max(1e-300);

        if !filtered.is_empty() {
            let empty = TaskFeedbackStats::empty(k);
            let update = TaskUpdate {
                words: &filtered,
                num_tokens,
                feedback: &empty,
            };
            let mut post = TaskPosterior {
                lambda: lambda.as_mut_slice(),
                nu2: nu2.as_mut_slice(),
                phi: &mut phi[..],
                epsilon: &mut epsilon,
            };
            // Projection failures only happen on degenerate numerics; fall
            // back to the prior mean rather than failing the selection path.
            let _ = update_task(&update, &mut post, &self.ctx, &self.config);
        }

        self.metrics.projections.inc();
        self.metrics
            .projection_seconds
            .observe_duration(started.elapsed());
        TaskProjection {
            lambda,
            nu2,
            num_tokens,
        }
    }

    /// Predicted performance `w^i (c^j)ᵀ` of a worker on a projected task.
    pub fn score(&self, worker: WorkerId, projection: &TaskProjection) -> Option<f64> {
        self.skill(worker)
            .map(|s| crowd_math::kernels::dot(s.mean.as_slice(), projection.lambda.as_slice()))
    }

    /// Top-k crowd-selection (Eq. 1; Alg. 3 line 7): one
    /// [`PartialRanking`] per projected query in `lambdas`, each over the
    /// same `candidates` (a single query is a batch of one).
    ///
    /// Candidates unknown to the model are skipped; the rest are resolved
    /// once for the whole batch and scored from the dense [`SkillMatrix`]
    /// under `spec` ([`SkillMatrix::select`]). `spec.threads == None` uses
    /// the configured `num_threads`; pools below
    /// [`crate::MIN_POOL_CHUNK_ROWS`] run inline at any thread count. f64
    /// results are bit-identical to [`TdpmModel::select_top_k_serial`]; a
    /// never-firing guard is bit-identical to the unguarded call.
    pub fn select<G>(
        &self,
        lambdas: &[&[f64]],
        candidates: &[WorkerId],
        k: usize,
        spec: &ScoreSpec<G>,
    ) -> Vec<PartialRanking>
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        let resolved = self.matrix.resolve(candidates.iter().copied());
        let spec = ScoreSpec {
            threads: spec.threads.or(Some(self.config.num_threads)),
            guard: spec.guard.clone(),
            ..*spec
        };
        self.matrix.select(lambdas, &resolved, k, &spec)
    }

    /// Reference top-k selection through the per-worker skill records (one
    /// row lookup + `Vector::dot` per candidate) — the pre-dense serial
    /// path, kept as the bit-identity oracle for the property tests and the
    /// benchmark baseline.
    pub fn select_top_k_serial(
        &self,
        projection: &TaskProjection,
        candidates: impl IntoIterator<Item = WorkerId>,
        k: usize,
    ) -> Vec<RankedWorker> {
        let scored = candidates
            .into_iter()
            .filter_map(|w| self.score(w, projection).map(|s| (w, s)));
        top_k(scored, k)
    }

    /// Optimistic (UCB-style) top-k selection: candidates are scored by
    /// `E[w·c] + β·Std_w[w·c]`, so workers the model is *uncertain* about
    /// get a bonus proportional to their posterior spread.
    ///
    /// An extension beyond the paper: Eq. 1 exploits the posterior mean
    /// only, which never gathers evidence about unproven workers. The bonus
    /// uses the *worker-side* uncertainty conditioned on the projected
    /// category (`Var_w[w·c | c = λ_c] = Σ_k ν²_w,k λ²_c,k`) — the task's
    /// own uncertainty is the same gamble for every candidate and would
    /// otherwise drown the worker signal under large skill magnitudes.
    pub fn select_top_k_optimistic(
        &self,
        projection: &TaskProjection,
        candidates: impl IntoIterator<Item = WorkerId>,
        k: usize,
        exploration: f64,
    ) -> Vec<RankedWorker> {
        let resolved = self.matrix.resolve(candidates);
        self.matrix.select_optimistic(
            projection.lambda.as_slice(),
            &resolved,
            k,
            exploration,
            self.config.num_threads,
        )
    }

    /// Reference optimistic selection through the per-worker skill records —
    /// the bit-identity oracle for [`TdpmModel::select_top_k_optimistic`].
    pub fn select_top_k_optimistic_serial(
        &self,
        projection: &TaskProjection,
        candidates: impl IntoIterator<Item = WorkerId>,
        k: usize,
        exploration: f64,
    ) -> Vec<RankedWorker> {
        let scored = candidates.into_iter().filter_map(|w| {
            self.skill(w).map(|s| {
                let mean =
                    crowd_math::kernels::dot(s.mean.as_slice(), projection.lambda.as_slice());
                let mut var = 0.0;
                for kk in 0..s.mean.len() {
                    var += s.variance[kk] * projection.lambda[kk] * projection.lambda[kk];
                }
                (w, mean + exploration * var.max(0.0).sqrt())
            })
        });
        top_k(scored, k)
    }

    /// Top-k selection with the category *sampled* from its posterior
    /// (Algorithm 3 verbatim, line 6). Deterministic selection via
    /// [`TdpmModel::select`] uses the posterior mean instead.
    pub fn select_top_k_sampled(
        &self,
        projection: &TaskProjection,
        candidates: impl IntoIterator<Item = WorkerId>,
        k: usize,
        rng: &mut impl Rng,
    ) -> Vec<RankedWorker> {
        let c = projection.sample(rng);
        let candidates: Vec<WorkerId> = candidates.into_iter().collect();
        self.select(&[c.as_slice()], &candidates, k, &ScoreSpec::default())
            .pop()
            .map(|p| p.ranked)
            .unwrap_or_default()
    }

    // ---- Incremental skill update -------------------------------------------

    /// Folds a new feedback observation `(worker, task, score)` into the
    /// worker's posterior without refitting the model ("After solving the
    /// task, the skills of workers involved can be updated", Section 4.2).
    ///
    /// Cost: one `K×K` Cholesky solve.
    pub fn record_feedback(
        &mut self,
        worker: WorkerId,
        projection: &TaskProjection,
        score: f64,
    ) -> Result<()> {
        let started = std::time::Instant::now();
        let idx = self
            .matrix
            .row_of(worker)
            .ok_or(CoreError::UnknownWorker(worker))?;
        if !score.is_finite() {
            return Err(CoreError::Numerical(format!(
                "non-finite feedback score {score}"
            )));
        }
        let k = self.num_categories();
        let skill = &mut self.skills[idx];
        let rho = self.config.feedback_forgetting;
        if rho < 1.0 {
            // Feedback-weighted update: geometrically discount the old
            // evidence so the posterior tracks non-stationary skills. The
            // decay rescales the whole data precision, which no sequence of
            // rank-1 updates can express — drop the cached factor and
            // refactorize below.
            skill.sum_cc.scale(rho);
            skill.sum_sc.scale(rho);
            skill.sum_diag.scale(rho);
            skill.precision_chol = None;
        }
        skill.sum_cc.add_outer(1.0, projection.lambda.as_slice())?;
        skill.sum_cc.add_diag(projection.nu2.as_slice())?;
        skill.sum_sc.axpy(score, &projection.lambda)?;
        for kk in 0..k {
            skill.sum_diag[kk] +=
                projection.lambda[kk] * projection.lambda[kk] + projection.nu2[kk];
        }
        skill.num_jobs += 1;

        // Re-solve Eq. 10 / Eq. 11 for this worker. The cached precision
        // factor absorbs the new observation with two O(K²) updates:
        // a rank-1 for τ⁻¹λ_c and a diagonal one for τ⁻²ν_c².
        let inv_tau2 = 1.0 / self.ctx.tau2;
        let inv_tau = inv_tau2.sqrt();
        let chol = match skill.precision_chol.take() {
            Some(mut chol) => {
                let mut scaled = projection.lambda.clone();
                scaled.scale(inv_tau);
                chol.rank_one_update(&scaled)?;
                let scaled_diag = projection.nu2.map(|v| v * inv_tau2);
                chol.diag_update(&scaled_diag)?;
                chol
            }
            None => {
                let mut precision = self.ctx.sigma_w_inv.clone();
                precision.axpy(inv_tau2, &skill.sum_cc)?;
                Cholesky::factor_with_jitter(&precision, 1e-10, 40)?
            }
        };
        let mut rhs = self.ctx.prior_rhs_w.clone();
        rhs.axpy(inv_tau2, &skill.sum_sc)?;
        skill.mean = chol.solve(&rhs)?;
        skill.precision_chol = Some(chol);
        for kk in 0..k {
            skill.variance[kk] =
                1.0 / (inv_tau2 * skill.sum_diag[kk] + self.ctx.sigma_w_inv[(kk, kk)]);
        }
        self.matrix
            .upsert(worker, skill.mean.as_slice(), skill.variance.as_slice());
        crate::validate::run(&self.metrics.validations, "record_feedback", || {
            let skill = &self.skills[idx];
            crowd_math::Validate::validate(skill).map_err(|e| format!("skill[{worker:?}]: {e}"))?;
            if self.matrix.mean_row(idx) != skill.mean.as_slice()
                || self.matrix.var_row(idx) != skill.variance.as_slice()
            {
                return Err(format!(
                    "serving snapshot out of lockstep with skill posterior for {worker:?}"
                ));
            }
            Ok(())
        });
        self.metrics.incremental_updates.inc();
        self.metrics
            .incremental_update_seconds
            .observe_duration(started.elapsed());
        Ok(())
    }

    /// Builds the per-worker skill states from final variational quantities
    /// (called by the trainer).
    pub(crate) fn skill_from_training(
        mean: Vector,
        variance: Vector,
        sum_cc: Matrix,
        sum_sc: Vector,
        sum_diag: Vector,
        num_jobs: usize,
    ) -> WorkerSkill {
        WorkerSkill {
            mean,
            variance,
            sum_cc,
            sum_sc,
            sum_diag,
            num_jobs,
            precision_chol: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Posterior-mean top-k of one projection.
    fn top_k_of(
        model: &TdpmModel,
        p: &TaskProjection,
        candidates: &[WorkerId],
        k: usize,
    ) -> Vec<RankedWorker> {
        model
            .select(&[p.lambda.as_slice()], candidates, k, &ScoreSpec::default())
            .remove(0)
            .ranked
    }

    /// A hand-assembled 2-category model: worker 0 is the "CS" expert,
    /// worker 1 the "Math" expert; term 0 is a CS word, term 1 a Math word.
    fn hand_model() -> TdpmModel {
        let k = 2;
        let mut params = ModelParams::neutral(k, 2);
        params.beta[(0, 0)] = 0.9;
        params.beta[(0, 1)] = 0.1;
        params.beta[(1, 0)] = 0.1;
        params.beta[(1, 1)] = 0.9;
        params.tau = 0.5;
        let config = TdpmConfig {
            num_categories: k,
            ..TdpmConfig::default()
        };
        let mut cs = WorkerSkill::at_prior(k);
        cs.mean = Vector::from_vec(vec![3.0, 0.2]);
        let mut math = WorkerSkill::at_prior(k);
        math.mean = Vector::from_vec(vec![0.2, 3.0]);
        TdpmModel::assemble(
            params,
            config,
            vec![cs, math],
            vec![WorkerId(0), WorkerId(1)],
        )
        .unwrap()
    }

    #[test]
    fn projection_leans_toward_matching_topic() {
        let model = hand_model();
        let cs_task = model.project_words(&[(0, 5)]);
        let math_task = model.project_words(&[(1, 5)]);
        assert!(
            cs_task.lambda[0] > cs_task.lambda[1],
            "CS words must raise the CS coordinate: {:?}",
            cs_task.lambda.as_slice()
        );
        assert!(math_task.lambda[1] > math_task.lambda[0]);
    }

    #[test]
    fn selection_picks_matching_expert() {
        let model = hand_model();
        let cs_task = model.project_words(&[(0, 5)]);
        let top = top_k_of(&model, &cs_task, &[WorkerId(0), WorkerId(1)], 1);
        assert_eq!(top[0].worker, WorkerId(0), "CS task → CS expert");
        let math_task = model.project_words(&[(1, 5)]);
        let top = top_k_of(&model, &math_task, &[WorkerId(0), WorkerId(1)], 1);
        assert_eq!(top[0].worker, WorkerId(1));
    }

    #[test]
    fn unknown_candidates_are_skipped() {
        let model = hand_model();
        let p = model.project_words(&[(0, 1)]);
        let top = top_k_of(&model, &p, &[WorkerId(7), WorkerId(0)], 5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].worker, WorkerId(0));
        assert_eq!(model.score(WorkerId(7), &p), None);
    }

    #[test]
    fn empty_projection_falls_back_to_prior() {
        let model = hand_model();
        let p = model.project_words(&[]);
        assert_eq!(p.num_tokens, 0.0);
        for k in 0..2 {
            assert!((p.lambda[k] - model.params().mu_c[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_vocab_terms_ignored() {
        let model = hand_model();
        let p = model.project_words(&[(99, 4)]);
        assert_eq!(p.num_tokens, 0.0);
    }

    #[test]
    fn feedback_moves_skill_toward_evidence() {
        let mut model = hand_model();
        model.add_worker(WorkerId(2));
        let before = model.skill(WorkerId(2)).unwrap().mean.clone();
        assert!(before.norm() < 1e-9, "new worker starts at prior mean 0");

        // Strong CS task, high score → CS skill should rise.
        let proj = model.project_words(&[(0, 8)]);
        model.record_feedback(WorkerId(2), &proj, 5.0).unwrap();
        let after = model.skill(WorkerId(2)).unwrap();
        assert!(
            after.mean[0] > 0.5,
            "CS coordinate rose: {:?}",
            after.mean.as_slice()
        );
        assert!(after.mean[0] > after.mean[1]);
        assert_eq!(after.num_jobs(), 1);
        // Posterior variance shrank along the informative direction.
        assert!(after.variance[0] < 1.0);
    }

    #[test]
    fn feedback_for_unknown_worker_errors() {
        let mut model = hand_model();
        let proj = model.project_words(&[(0, 1)]);
        assert!(matches!(
            model.record_feedback(WorkerId(42), &proj, 1.0),
            Err(CoreError::UnknownWorker(_))
        ));
        assert!(model.record_feedback(WorkerId(0), &proj, f64::NAN).is_err());
    }

    #[test]
    fn add_worker_is_idempotent() {
        let mut model = hand_model();
        model.add_worker(WorkerId(5));
        model.add_worker(WorkerId(5));
        assert_eq!(model.worker_ids().len(), 3);
    }

    #[test]
    fn sampled_selection_stays_among_candidates() {
        let model = hand_model();
        let p = model.project_words(&[(0, 3)]);
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let top = model.select_top_k_sampled(&p, vec![WorkerId(0), WorkerId(1)], 1, &mut rng);
            assert_eq!(top.len(), 1);
            assert!(top[0].worker == WorkerId(0) || top[0].worker == WorkerId(1));
        }
    }

    #[test]
    fn optimistic_selection_rewards_uncertainty() {
        let mut model = hand_model();
        // A brand-new worker: prior mean 0, prior variance 1 — maximally
        // uncertain. Greedy selection never picks them; optimistic selection
        // with a large enough bonus does.
        model.add_worker(WorkerId(9));
        let p = model.project_words(&[(0, 5)]);
        let candidates = vec![WorkerId(0), WorkerId(9)];

        // Give the expert some evidence so their posterior tightens (the
        // hand-assembled model starts everyone at prior variance 1).
        for _ in 0..6 {
            let proj = model.project_words(&[(0, 5)]);
            model.record_feedback(WorkerId(0), &proj, 4.0).unwrap();
        }

        let greedy = top_k_of(&model, &p, &candidates, 1);
        assert_eq!(greedy[0].worker, WorkerId(0), "greedy exploits the expert");

        let explore = model.select_top_k_optimistic(&p, candidates.clone(), 1, 50.0);
        assert_eq!(
            explore[0].worker,
            WorkerId(9),
            "big exploration bonus favours the unknown: {explore:?}"
        );

        // Zero exploration reduces exactly to the greedy ranking.
        let zero = model.select_top_k_optimistic(&p, candidates, 2, 0.0);
        assert_eq!(zero[0].worker, greedy[0].worker);
        assert!((zero[0].score - greedy[0].score).abs() < 1e-12);
    }

    #[test]
    fn optimistic_bonus_shrinks_with_evidence() {
        let mut model = hand_model();
        model.add_worker(WorkerId(9));
        let p = model.project_words(&[(0, 5)]);
        let bonus = |m: &TdpmModel| {
            let opt = m.select_top_k_optimistic(&p, vec![WorkerId(9)], 1, 1.0)[0].score;
            let mean = m.score(WorkerId(9), &p).unwrap();
            opt - mean
        };
        let before = bonus(&model);
        for _ in 0..5 {
            let proj = model.project_words(&[(0, 5)]);
            model.record_feedback(WorkerId(9), &proj, 1.0).unwrap();
        }
        let after = bonus(&model);
        assert!(
            after < before,
            "evidence shrinks the exploration bonus: {before:.3} → {after:.3}"
        );
    }

    #[test]
    fn full_ranking_orders_descending() {
        let model = hand_model();
        let p = model.project_words(&[(0, 5)]);
        let ranked = top_k_of(&model, &p, &[WorkerId(0), WorkerId(1)], 2);
        assert_eq!(ranked.len(), 2);
        assert!(ranked[0].score >= ranked[1].score);
    }
}
