//! The trained TDPM artifact: worker skills + incremental crowd-selection.

use crate::config::TdpmConfig;
use crate::inference::estep::{update_task, TaskFeedbackStats, TaskPosterior, TaskUpdate};
use crate::inference::EStepContext;
use crate::params::ModelParams;
use crate::selection::{top_k, RankedWorker};
use crate::skillmatrix::{PartialRanking, RowIndex, ScoreSpec, SkillMatrix};
use crate::variational::Slab;
use crate::{CoreError, Result};
use crowd_math::{Cholesky, Matrix, Vector, WorkGuard};
use crowd_store::{TaskId, WorkerId};
use crowd_text::BagOfWords;
use rand::{Rng, RngExt};

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

/// One worker's posterior, copied out of the model's [`SkillMatrix`] row by
/// [`TdpmModel::skill`].
#[derive(Debug, Clone)]
pub struct WorkerSkill {
    /// Posterior mean `λ_w` — the skill vector used for ranking.
    pub mean: Vector,
    /// Posterior diagonal variance `ν_w²`.
    pub variance: Vector,
    /// Number of scored tasks folded into the posterior.
    num_jobs: usize,
}

impl WorkerSkill {
    /// Number of feedback observations backing this skill estimate.
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }
}

/// The Eq. 10–11 sufficient statistics of every worker, row `i` for the
/// model's [`SkillMatrix`] row `i`, with the cached precision factors that
/// let [`TdpmModel::record_feedback`] fold new feedback in without
/// refitting.
#[derive(Debug, Clone)]
pub(crate) struct FeedbackStats {
    /// `Σ_j (λ_c^j (λ_c^j)ᵀ + diag(ν_c^j²))` over the worker's scored tasks,
    /// `K × K` row-major per row.
    pub(crate) sum_cc: Slab,
    /// `Σ_j s_ij λ_c^j`.
    pub(crate) sum_sc: Slab,
    /// `Σ_j (λ²_c,jk + ν²_c,jk)` per coordinate (for Eq. 11).
    pub(crate) sum_diag: Slab,
    /// Number of scored tasks folded in.
    pub(crate) num_jobs: Vec<usize>,
    /// Cholesky factor of the posterior precision `Σ_w⁻¹ + τ⁻² sum_cc`,
    /// kept current by O(K²) rank-1 updates
    /// ([`crowd_math::Cholesky::rank_one_update`]) instead of an O(K³)
    /// refactorization per feedback event. `None` after fit and restore;
    /// the next update refactorizes.
    precision_chol: Vec<Option<Cholesky>>,
}

impl FeedbackStats {
    /// Wraps per-row statistics (`sum_cc` `K²` wide, the sums `K` wide,
    /// one `num_jobs` entry per row) with no cached factors.
    pub(crate) fn new(sum_cc: Slab, sum_sc: Slab, sum_diag: Slab, num_jobs: Vec<usize>) -> Self {
        FeedbackStats {
            precision_chol: vec![None; num_jobs.len()],
            sum_cc,
            sum_sc,
            sum_diag,
            num_jobs,
        }
    }

    /// `rows` rows of empty statistics over `k` categories.
    pub(crate) fn zeros(k: usize, rows: usize) -> Self {
        FeedbackStats::new(
            Slab::filled(rows, k * k, 0.0),
            Slab::filled(rows, k, 0.0),
            Slab::filled(rows, k, 0.0),
            vec![0; rows],
        )
    }

    /// Appends one row of empty statistics.
    fn push_empty(&mut self) {
        self.sum_cc.push_filled(0.0);
        self.sum_sc.push_filled(0.0);
        self.sum_diag.push_filled(0.0);
        self.num_jobs.push(0);
        self.precision_chol.push(None);
    }

    /// The number of rows every per-row field must have: one per worker.
    pub(crate) fn num_rows(&self) -> usize {
        self.num_jobs.len()
    }

    /// Folds one scored task `(λ_c, ν_c², s)` into row `row` with the float
    /// operations of `Matrix::add_outer` (α = 1, so `x_r` is used as is),
    /// `Matrix::add_diag` and `Vector::axpy`, in that order, so the trainer
    /// and [`TdpmModel::record_feedback`] accumulate the same bits.
    pub(crate) fn fold(&mut self, row: usize, lambda: &[f64], nu2: &[f64], score: f64) {
        let k = lambda.len();
        let cc = &mut self.sum_cc[row];
        for (cc_row, &xr) in cc.chunks_exact_mut(k.max(1)).zip(lambda) {
            for (value, &xc) in cc_row.iter_mut().zip(lambda) {
                *value += xr * xc;
            }
        }
        for (i, &v) in nu2.iter().enumerate() {
            cc[i * k + i] += v;
        }
        crate::inference::axpy(&mut self.sum_sc[row], score, lambda);
        for ((d, &l), &v) in self.sum_diag[row].iter_mut().zip(lambda).zip(nu2) {
            *d += l * l + v;
        }
        self.num_jobs[row] += 1;
    }

    /// Scales row `row`'s evidence by `rho` (`Matrix::scale`,
    /// `Vector::scale`) and drops its cached factor: the decay rescales the
    /// whole data precision, which no sequence of rank-1 updates can
    /// express.
    fn decay(&mut self, row: usize, rho: f64) {
        let sums = self.sum_cc[row]
            .iter_mut()
            .chain(self.sum_sc[row].iter_mut())
            .chain(self.sum_diag[row].iter_mut());
        for x in sums {
            *x *= rho;
        }
        self.precision_chol[row] = None;
    }
}

/// The fitted posteriors of the training tasks: row `j` of each slab and of
/// `num_tokens` is one task's, found through a dense [`TaskId`] → row
/// index.
#[derive(Debug, Clone)]
pub(crate) struct TrainedTasks {
    index: RowIndex,
    /// Posterior means `λ_c`, `K` wide.
    pub(crate) lambda: Slab,
    /// Posterior diagonal variances `ν_c²`, `K` wide.
    pub(crate) nu2: Slab,
    /// Token count of each task.
    pub(crate) num_tokens: Vec<f64>,
}

impl TrainedTasks {
    /// Row `j` of `lambda`, `nu2` and `num_tokens` is task `ids[j]`'s
    /// posterior; an id that repeats keeps its last row.
    pub(crate) fn new(
        ids: impl IntoIterator<Item = TaskId>,
        lambda: Slab,
        nu2: Slab,
        num_tokens: Vec<f64>,
    ) -> Self {
        let mut index = RowIndex::default();
        for (row, task) in ids.into_iter().enumerate() {
            index.set(task.0, row);
        }
        TrainedTasks {
            index,
            lambda,
            nu2,
            num_tokens,
        }
    }

    /// `(task, row)` of every trained task, in ascending id order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (TaskId, usize)> + '_ {
        self.index.iter().map(|(id, row)| (TaskId(id), row))
    }

    fn projection(&self, task: TaskId) -> Option<TaskProjection> {
        let row = self.index.get(task.0)?;
        Some(TaskProjection {
            lambda: Vector::from_vec(self.lambda[row].to_vec()),
            nu2: Vector::from_vec(self.nu2[row].to_vec()),
            num_tokens: self.num_tokens[row],
        })
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
    ctx: EStepContext,
    /// The worker posteriors — the only copy of each worker's mean and
    /// variance — built on assembly and row-upserted by
    /// [`TdpmModel::add_worker`] / [`TdpmModel::record_feedback`]. Its
    /// dense id → row index numbers the rows of `stats` too.
    matrix: SkillMatrix,
    /// Incremental-update statistics, one row per matrix row.
    stats: FeedbackStats,
    /// Fitted posteriors of the training tasks. Unlike a fresh
    /// [`TdpmModel::project_bow`] projection these are *feedback-informed*
    /// (Eqs. 14–15 include the score terms).
    trained: TrainedTasks,
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
    /// Assembles a model from trained parameters, the worker posteriors
    /// with their statistics, and the trained task posteriors.
    ///
    /// Row `i` of the `K`-wide `means` and `variances` slabs, which move
    /// into the [`SkillMatrix`], and row `i` of `stats` belong to worker
    /// `worker_ids[i]`; the ids must be distinct
    /// ([`CoreError::DuplicateWorker`] otherwise).
    pub(crate) fn assemble(
        params: ModelParams,
        config: TdpmConfig,
        worker_ids: Vec<WorkerId>,
        means: Slab,
        variances: Slab,
        stats: FeedbackStats,
        trained: TrainedTasks,
    ) -> Result<Self> {
        debug_assert_eq!(
            stats.num_rows(),
            worker_ids.len(),
            "one stats row per worker"
        );
        let ctx = EStepContext::new(&params)?;
        let k = config.num_categories;
        let matrix = SkillMatrix::from_rows(k, worker_ids, means.into_vec(), variances.into_vec())
            .map_err(CoreError::DuplicateWorker)?;
        Ok(TdpmModel {
            params,
            config,
            ctx,
            matrix,
            stats,
            trained,
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
        let mut means = Vec::with_capacity(workers.len() * k);
        let mut variances = Vec::with_capacity(workers.len() * k);
        for (w, mean, variance) in workers {
            if mean.len() != k || variance.len() != k {
                return Err(CoreError::Numerical(format!(
                    "posterior for worker {w:?} has length {}/{}, expected {k}",
                    mean.len(),
                    variance.len()
                )));
            }
            ids.push(w);
            means.extend_from_slice(mean.as_slice());
            variances.extend_from_slice(variance.as_slice());
        }
        let stats = FeedbackStats::zeros(k, ids.len());
        let trained =
            TrainedTasks::new([], Slab::filled(0, k, 0.0), Slab::filled(0, k, 0.0), vec![]);
        let (means, variances) = (Slab::from_vec(k, means), Slab::from_vec(k, variances));
        TdpmModel::assemble(params, config, ids, means, variances, stats, trained)
    }

    /// Attaches shared observability for the online operations (Algorithm
    /// 3 projection latency, incremental feedback updates).
    pub fn set_obs(&mut self, obs: crowd_obs::Obs) {
        self.metrics = ModelMetrics::resolve(&obs);
    }

    /// The feedback-informed posterior of a training task, if this model was
    /// fitted on it, copied out of the model's task rows.
    pub fn trained_projection(&self, task: TaskId) -> Option<TaskProjection> {
        self.trained.projection(task)
    }

    /// Ids of the training tasks whose fitted posteriors were retained, in
    /// ascending order.
    pub fn trained_task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.trained.rows().map(|(task, _)| task)
    }

    /// The trained task posteriors.
    pub(crate) fn trained_tasks(&self) -> &TrainedTasks {
        &self.trained
    }

    /// The incremental-update statistics, one row per matrix row.
    pub(crate) fn feedback_stats(&self) -> &FeedbackStats {
        &self.stats
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

    /// A worker's posterior, copied out of its [`SkillMatrix`] row (selection
    /// reads the row in place).
    pub fn skill(&self, worker: WorkerId) -> Option<WorkerSkill> {
        let row = self.matrix.row_of(worker)?;
        Some(WorkerSkill {
            mean: Vector::from_vec(self.matrix.mean_row(row).to_vec()),
            variance: Vector::from_vec(self.matrix.var_row(row).to_vec()),
            num_jobs: self.stats.num_jobs[row],
        })
    }

    /// Registers a worker unseen at training time; starts at the prior.
    pub fn add_worker(&mut self, worker: WorkerId) {
        if self.matrix.row_of(worker).is_some() {
            return;
        }
        let variance: Vec<f64> = (0..self.num_categories())
            .map(|k| 1.0 / self.ctx.sigma_w_inv[(k, k)])
            .collect();
        self.matrix
            .upsert(worker, self.params.mu_w.as_slice(), &variance);
        self.stats.push_empty();
        self.validate_row(self.matrix.num_workers() - 1, "add_worker");
    }

    /// Checks matrix row `row` (when validation is compiled in).
    fn validate_row(&self, row: usize, what: &str) {
        crate::validate::run(&self.metrics.validations, what, || {
            crate::validate::check_posterior_row(
                self.matrix.mean_row(row),
                self.matrix.var_row(row),
            )
            .map_err(|e| format!("skill[{:?}]: {e}", self.matrix.ids()[row]))
        });
    }

    /// Every worker's posterior, in the dense serving layout.
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

    /// Reference top-k selection through [`TdpmModel::skill`] (one row
    /// lookup, an owned copy and a `Vector` dot per candidate) — the
    /// pre-dense serial path, kept as the bit-identity oracle for the
    /// property tests and the benchmark baseline.
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

    /// Reference optimistic selection through [`TdpmModel::skill`] — the
    /// bit-identity oracle for [`TdpmModel::select_top_k_optimistic`].
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
    /// Cost: one `K×K` Cholesky solve. A projection whose `lambda` or
    /// `nu2` is not `K` long is rejected before anything changes.
    pub fn record_feedback(
        &mut self,
        worker: WorkerId,
        projection: &TaskProjection,
        score: f64,
    ) -> Result<()> {
        let started = std::time::Instant::now();
        let row = self
            .matrix
            .row_of(worker)
            .ok_or(CoreError::UnknownWorker(worker))?;
        if !score.is_finite() {
            return Err(CoreError::Numerical(format!(
                "non-finite feedback score {score}"
            )));
        }
        let k = self.num_categories();
        if projection.lambda.len() != k || projection.nu2.len() != k {
            return Err(CoreError::Numerical(format!(
                "projection has length {}/{}, expected {k}",
                projection.lambda.len(),
                projection.nu2.len()
            )));
        }
        let stats = &mut self.stats;
        let rho = self.config.feedback_forgetting;
        if rho < 1.0 {
            // Feedback-weighted update: geometrically discount the old
            // evidence so the posterior tracks non-stationary skills. The
            // decay drops the cached factor; it is refactorized below.
            stats.decay(row, rho);
        }
        stats.fold(
            row,
            projection.lambda.as_slice(),
            projection.nu2.as_slice(),
            score,
        );

        // Re-solve Eq. 10 / Eq. 11 for this worker. The cached precision
        // factor absorbs the new observation with two O(K²) updates:
        // a rank-1 for τ⁻¹λ_c and a diagonal one for τ⁻²ν_c².
        let inv_tau2 = 1.0 / self.ctx.tau2;
        let inv_tau = inv_tau2.sqrt();
        let chol = match stats.precision_chol[row].take() {
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
                precision.axpy(
                    inv_tau2,
                    &Matrix::from_rows(k, k, stats.sum_cc[row].to_vec())?,
                )?;
                Cholesky::factor_with_jitter(&precision, 1e-10, 40)?
            }
        };
        let mut rhs = self.ctx.prior_rhs_w.clone();
        crate::inference::axpy(rhs.as_mut_slice(), inv_tau2, &stats.sum_sc[row]);
        let mean = chol.solve(&rhs)?;
        stats.precision_chol[row] = Some(chol);
        let variance: Vec<f64> = stats.sum_diag[row]
            .iter()
            .enumerate()
            .map(|(kk, &d)| 1.0 / (inv_tau2 * d + self.ctx.sigma_w_inv[(kk, kk)]))
            .collect();
        self.matrix.upsert(worker, mean.as_slice(), &variance);
        self.validate_row(row, "record_feedback");
        self.metrics.incremental_updates.inc();
        self.metrics
            .incremental_update_seconds
            .observe_duration(started.elapsed());
        Ok(())
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
        let prior = Vector::filled(k, 1.0);
        TdpmModel::from_posteriors(
            params,
            config,
            vec![
                (WorkerId(0), Vector::from_vec(vec![3.0, 0.2]), prior.clone()),
                (WorkerId(1), Vector::from_vec(vec![0.2, 3.0]), prior),
            ],
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
    fn a_rejected_feedback_changes_nothing() {
        let k = 2;
        let projection = |lambda: &[f64], nu2: &[f64]| TaskProjection {
            lambda: Vector::from_vec(lambda.to_vec()),
            nu2: Vector::from_vec(nu2.to_vec()),
            num_tokens: 0.0,
        };
        let good = projection(&[1.0, 0.5], &[0.25, 0.125]);
        let rejected = [
            projection(&[1.0, 0.5], &[0.25, 0.125, 0.5]),
            projection(&[1.0, 0.5, 2.0], &[0.25, 0.125]),
            projection(&[1.0], &[0.25]),
        ];
        let capture = |m: &TdpmModel| crate::ModelSnapshot::capture(m).to_json().unwrap();
        for rho in [1.0, 0.9] {
            let config = TdpmConfig {
                num_categories: k,
                feedback_forgetting: rho,
                ..TdpmConfig::default()
            };
            let mut model = TdpmModel::from_posteriors(
                ModelParams::neutral(k, 2),
                config,
                vec![(
                    WorkerId(0),
                    Vector::from_vec(vec![1.0, -0.5]),
                    Vector::filled(k, 1.0),
                )],
            )
            .unwrap();
            // Non-zero sums and, at ρ = 1, a cached factor.
            model.record_feedback(WorkerId(0), &good, 2.0).unwrap();
            let mut twin = model.clone();
            let before = capture(&model);
            for bad in &rejected {
                assert!(model.record_feedback(WorkerId(0), bad, 1.0).is_err());
                assert_eq!(capture(&model), before, "rho = {rho}");
            }
            // The cached factor is untouched too: the next update matches a
            // model that never saw the rejected calls.
            model.record_feedback(WorkerId(0), &good, 3.0).unwrap();
            twin.record_feedback(WorkerId(0), &good, 3.0).unwrap();
            assert_eq!(capture(&model), capture(&twin), "rho = {rho}");
        }
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
