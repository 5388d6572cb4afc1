//! The iterative optimization loop (paper Algorithm 2).

use crate::config::TdpmConfig;
use crate::dataset::TrainingSet;
use crate::inference::elbo::{elbo, ElboBreakdown};
use crate::inference::estep::{
    run_worker_range, update_task, update_workers, EStepScratch, TaskFeedbackStats, TaskPosterior,
    TaskUpdate,
};
use crate::inference::mstep::{update_params, update_params_first, update_params_second};
use crate::inference::suffstats::{ElboPartials, FirstMoments, SecondMoments, ShardPlan};
use crate::inference::EStepContext;
use crate::model::TdpmModel;
use crate::params::ModelParams;
use crate::variational::{PhiRowAccess, VariationalState};
use crate::{CoreError, Result};
use crowd_math::{Matrix, Validate, Vector};
use crowd_select::FitDiagnostics;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Runs the task E-step for a contiguous range of tasks.
///
/// Written once against [`PhiRowAccess`] so the inline path (borrowed
/// [`crate::variational::PhiRowsMut`] view) and the pooled path (owned
/// per-chunk row copies) execute the identical deterministic updates —
/// which is the whole bit-identity argument for parallelizing this phase:
/// task posteriors are mutually independent given the (read-only here)
/// worker posteriors.
#[allow(clippy::too_many_arguments)]
fn run_task_range<P: PhiRowAccess>(
    tasks: &[crate::dataset::TaskData],
    lambda_w: &[Vector],
    nu2_w: &[Vector],
    lambda_c: &mut [Vector],
    nu2_c: &mut [Vector],
    phi: &mut P,
    epsilon: &mut [f64],
    ctx: &EStepContext,
    config: &TdpmConfig,
) -> Result<()> {
    let k = config.num_categories;
    for (j, task) in tasks.iter().enumerate() {
        let stats = TaskFeedbackStats::gather(&task.scores, lambda_w, nu2_w, k)?;
        let update = TaskUpdate {
            words: &task.words,
            num_tokens: task.num_tokens,
            feedback: &stats,
        };
        let mut post = TaskPosterior {
            lambda: &mut lambda_c[j],
            nu2: &mut nu2_c[j],
            phi: phi.row_mut(j),
            epsilon: &mut epsilon[j],
        };
        update_task(&update, &mut post, ctx, config)?;
    }
    Ok(())
}

/// Per-shard work ranges, each split into up to `threads` contiguous
/// subchunks — the unit of pooled work for both E-step halves. With one
/// shard this degenerates to the plain `n.div_ceil(threads)` chunking the
/// pooled path has always used.
fn shard_chunks(
    plan: &ShardPlan,
    range_of: impl Fn(usize) -> Range<usize>,
    threads: usize,
) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    for s in 0..plan.num_shards() {
        let r = range_of(s);
        if r.is_empty() {
            continue;
        }
        let chunk = r.len().div_ceil(threads.max(1));
        let mut start = r.start;
        while start < r.end {
            ranges.push(start..(start + chunk).min(r.end));
            start += chunk;
        }
    }
    ranges
}

/// Runs the task E-step over every task, inline or chunked across the
/// persistent [`crowd_math::ScoringPool`].
///
/// Pooled jobs are `'static`, so the mutable per-task state round-trips
/// through them as owned copies: each chunk's `λ_c` / `ν_c²` / `φ` rows /
/// `ε` are copied out, updated by the job, and written back in chunk order.
/// The read-only worker side rides along as `Arc` snapshots. The copies are
/// O(state) per iteration — noise against the E-step's per-task solves —
/// and the updates themselves are [`run_task_range`] in both paths, so
/// pooled results are bit-identical to sequential ones for any shard or
/// thread count (task posteriors are mutually independent).
fn update_all_tasks(
    ts: &TrainingSet,
    state: &mut VariationalState,
    ctx: &Arc<EStepContext>,
    config: &TdpmConfig,
    plan: &ShardPlan,
) -> Result<()> {
    let threads = config.num_threads.max(1).min(ts.num_tasks().max(1));

    if plan.num_shards() <= 1 && threads <= 1 {
        let mut phi = state.phi.rows_mut();
        return run_task_range(
            ts.tasks(),
            &state.lambda_w,
            &state.nu2_w,
            &mut state.lambda_c,
            &mut state.nu2_c,
            &mut phi,
            &mut state.epsilon,
            ctx,
            config,
        );
    }

    let tasks = ts.tasks_shared();
    let lambda_w = Arc::new(state.lambda_w.clone());
    let nu2_w = Arc::new(state.nu2_w.clone());
    let config_arc = Arc::new(config.clone());

    type ChunkOut = (
        Vec<Vector>,
        Vec<Vector>,
        Vec<Vec<f64>>,
        Vec<f64>,
        Result<()>,
    );
    let mut starts = Vec::new();
    let jobs: Vec<_> = shard_chunks(plan, |s| plan.task_range(s), threads)
        .into_iter()
        .map(|r| {
            let (start, end) = (r.start, r.end);
            starts.push(start);
            let lc: Vec<Vector> = state.lambda_c[start..end].to_vec();
            let nc: Vec<Vector> = state.nu2_c[start..end].to_vec();
            let phi_rows: Vec<Vec<f64>> = (start..end).map(|j| state.phi.row(j).to_vec()).collect();
            let eps: Vec<f64> = state.epsilon[start..end].to_vec();
            let tasks = Arc::clone(&tasks);
            let lambda_w = Arc::clone(&lambda_w);
            let nu2_w = Arc::clone(&nu2_w);
            let ctx = Arc::clone(ctx);
            let config = Arc::clone(&config_arc);
            move || -> ChunkOut {
                let (mut lc, mut nc, mut phi_rows, mut eps) = (lc, nc, phi_rows, eps);
                let outcome = run_task_range(
                    &tasks[start..end],
                    &lambda_w,
                    &nu2_w,
                    &mut lc,
                    &mut nc,
                    &mut phi_rows,
                    &mut eps,
                    &ctx,
                    &config,
                );
                (lc, nc, phi_rows, eps, outcome)
            }
        })
        .collect();

    let mut first_err: Option<CoreError> = None;
    for (start, (lc, nc, phi_rows, eps, outcome)) in starts
        .into_iter()
        .zip(crowd_math::ScoringPool::global().run(jobs))
    {
        // Write every chunk back even when one errs: the in-place scheme
        // this replaces also left sibling chunks' updates applied.
        for (off, v) in lc.into_iter().enumerate() {
            state.lambda_c[start + off] = v;
        }
        for (off, v) in nc.into_iter().enumerate() {
            state.nu2_c[start + off] = v;
        }
        for (off, row) in phi_rows.into_iter().enumerate() {
            state.phi.row_mut(start + off).copy_from_slice(&row);
        }
        for (off, v) in eps.into_iter().enumerate() {
            state.epsilon[start + off] = v;
        }
        if let (Err(e), None) = (outcome, &first_err) {
            first_err = Some(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Runs the worker E-step chunked across the persistent scoring pool.
///
/// Same owned-copy round-trip scheme as [`update_all_tasks`]: each chunk
/// copies its `λ_w` / `ν_w²` rows out, updates them with
/// [`run_worker_range`] against `Arc` snapshots of the (read-only) task
/// posteriors, and is written back in chunk order with first-error
/// propagation. Worker posteriors are mutually independent given the task
/// posteriors, so results are bit-identical to the serial sweep for any
/// shard or thread count.
fn update_workers_pooled(
    state: &mut VariationalState,
    ctx: &Arc<EStepContext>,
    by_worker: &Arc<Vec<Vec<(usize, f64)>>>,
    config: &TdpmConfig,
    plan: &ShardPlan,
) -> Result<()> {
    let k = config.num_categories;
    let threads = config.num_threads.max(1).min(state.lambda_w.len().max(1));
    let lambda_c = Arc::new(state.lambda_c.clone());
    let nu2_c = Arc::new(state.nu2_c.clone());

    type WorkerOut = (Vec<Vector>, Vec<Vector>, Result<()>);
    let mut starts = Vec::new();
    let jobs: Vec<_> = shard_chunks(plan, |s| plan.worker_range(s), threads)
        .into_iter()
        .map(|r| {
            starts.push(r.start);
            let lw: Vec<Vector> = state.lambda_w[r.clone()].to_vec();
            let nw: Vec<Vector> = state.nu2_w[r.clone()].to_vec();
            let by_worker = Arc::clone(by_worker);
            let lambda_c = Arc::clone(&lambda_c);
            let nu2_c = Arc::clone(&nu2_c);
            let ctx = Arc::clone(ctx);
            move || -> WorkerOut {
                let (mut lw, mut nw) = (lw, nw);
                let mut scratch = EStepScratch::new(k);
                let outcome = run_worker_range(
                    r.start,
                    &mut lw,
                    &mut nw,
                    &by_worker,
                    &lambda_c,
                    &nu2_c,
                    &ctx,
                    &mut scratch,
                );
                (lw, nw, outcome)
            }
        })
        .collect();

    let mut first_err: Option<CoreError> = None;
    for (start, (lw, nw, outcome)) in starts
        .into_iter()
        .zip(crowd_math::ScoringPool::global().run(jobs))
    {
        for (off, v) in lw.into_iter().enumerate() {
            state.lambda_w[start + off] = v;
        }
        for (off, v) in nw.into_iter().enumerate() {
            state.nu2_w[start + off] = v;
        }
        if let (Err(e), None) = (outcome, &first_err) {
            first_err = Some(e);
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Gathers the ELBO's block partials per shard on the pool and folds the
/// merged list — bit-identical to the serial [`elbo`] because both reduce
/// the same fixed-block partials in the same global order.
fn elbo_sharded(
    snapshot: &Arc<VariationalState>,
    tasks: &Arc<Vec<crate::dataset::TaskData>>,
    ctx: &Arc<EStepContext>,
    plan: &ShardPlan,
) -> ElboBreakdown {
    let jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(snapshot);
            let tasks = Arc::clone(tasks);
            let ctx = Arc::clone(ctx);
            move || ElboPartials::gather(&state, &tasks, &ctx, wr, tr)
        })
        .collect();
    ElboPartials::merge(crowd_math::ScoringPool::global().run(jobs)).fold()
}

/// The sharded M-step: every shard gathers its fixed-block sufficient
/// statistics on the pool, the merged (shard-index-ordered) partials fold
/// to the same reductions [`update_params`] computes serially. Two rounds —
/// first moments fix the means the second moments are gathered about.
fn update_params_sharded(
    params: &mut ModelParams,
    snapshot: &Arc<VariationalState>,
    tasks: &Arc<Vec<crate::dataset::TaskData>>,
    vocab_size: usize,
    plan: &ShardPlan,
    cfg: &TdpmConfig,
    update_tau: bool,
) -> Result<()> {
    let first_jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(snapshot);
            move || FirstMoments::gather(&state, wr, tr)
        })
        .collect();
    let parts: Result<Vec<FirstMoments>> = crowd_math::ScoringPool::global()
        .run(first_jobs)
        .into_iter()
        .collect();
    let first = FirstMoments::merge(parts?);
    update_params_first(params, &first)?;

    let mu_w = Arc::new(params.mu_w.clone());
    let mu_c = Arc::new(params.mu_c.clone());
    let second_jobs: Vec<_> = (0..plan.num_shards())
        .map(|s| {
            let (wr, tr) = (plan.worker_range(s), plan.task_range(s));
            let state = Arc::clone(snapshot);
            let tasks = Arc::clone(tasks);
            let mu_w = Arc::clone(&mu_w);
            let mu_c = Arc::clone(&mu_c);
            move || SecondMoments::gather(&state, &tasks, &mu_w, &mu_c, vocab_size, wr, tr)
        })
        .collect();
    let parts: Result<Vec<SecondMoments>> = crowd_math::ScoringPool::global()
        .run(second_jobs)
        .into_iter()
        .collect();
    let second = SecondMoments::merge(parts?);
    update_params_second(params, &second, cfg, update_tau)
}

/// Fits TDPM models by variational EM.
#[derive(Debug, Clone)]
pub struct TdpmTrainer {
    config: TdpmConfig,
    obs: crowd_obs::Obs,
}

impl TdpmTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TdpmConfig) -> Self {
        TdpmTrainer {
            config,
            obs: crowd_obs::Obs::noop(),
        }
    }

    /// Attaches shared observability: per-epoch ELBO, E-/M-step wall time
    /// and convergence deltas are recorded under the `trainer` component,
    /// and the fitted model inherits the handle for its online metrics.
    pub fn with_obs(mut self, obs: crowd_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &TdpmConfig {
        &self.config
    }

    /// Fits a model by variational EM (Algorithm 2), returning it with the
    /// run's diagnostics (`objective_trace` is the ELBO after each epoch).
    ///
    /// Build `ts` with [`TrainingSet::from_db`], [`TrainingSet::from_sharded`]
    /// or [`TrainingSet::from_parts`]. `config.num_shards` is the only
    /// fan-out setting: the result is bit-identical for every shard count,
    /// and for a plain or a sharded store holding the same platform
    /// (DESIGN §11).
    // crowd-lint: root(det)
    pub fn fit(&self, ts: &TrainingSet) -> Result<(TdpmModel, FitDiagnostics)> {
        self.config.validate()?;
        if ts.num_tasks() == 0 {
            return Err(CoreError::EmptyTrainingSet);
        }
        let k = self.config.num_categories;

        let mut params = self.initial_params(ts);
        let mut state = VariationalState::init(ts, k, self.config.seed);
        let by_worker = Arc::new(ts.scores_by_worker());

        // The shard plan cuts both entity axes into block-aligned contiguous
        // ranges; every phase below is driven off it, and the fixed-block
        // sufficient-statistics scheme keeps the fit bit-identical to the
        // serial unsharded path for every shard count (DESIGN §11).
        let shards = self.config.num_shards.max(1);
        let plan = ShardPlan::new(ts.num_workers(), ts.num_tasks(), shards);
        let sharded = plan.num_shards() > 1;
        let tasks_shared = ts.tasks_shared();

        let mut trace = Vec::with_capacity(self.config.max_em_iters);
        let mut converged = false;
        let mut iterations = 0;
        // One scratch for the whole EM run: the serial worker E-step resets
        // it per worker instead of cloning fresh precision/RHS buffers.
        let mut scratch = EStepScratch::new(k);

        let m = &self.obs.metrics;
        let epochs = m.counter("trainer", "epochs");
        let elbo_gauge = m.gauge("trainer", "elbo");
        let delta_gauge = m.gauge("trainer", "elbo_rel_delta");
        let estep_task_secs = m.histogram("trainer", "estep_task_seconds");
        let validations = m.counter("validate", "checks");
        let estep_worker_secs = m.histogram("trainer", "estep_worker_seconds");
        let mstep_secs = m.histogram("trainer", "mstep_seconds");
        let rss_gauge = m.gauge("trainer", "peak_rss_bytes");

        for _ in 0..self.config.max_em_iters {
            iterations += 1;
            let ctx = Arc::new(EStepContext::new(&params)?);

            // E-step (a): task posteriors, Eqs. 12–15. Tasks go first: on the
            // first iteration the prior-scale random worker means act as the
            // symmetry breaker that pulls each task's category toward the
            // workers who scored well on it.
            let t0 = std::time::Instant::now();
            update_all_tasks(ts, &mut state, &ctx, &self.config, &plan)?;
            estep_task_secs.observe_duration(t0.elapsed());
            crate::validate::run(&validations, "E-step (task posteriors)", || {
                Validate::validate(&state)
            });

            // E-step (b): worker posteriors, Eqs. 10–11.
            let t1 = std::time::Instant::now();
            if sharded || self.config.num_threads > 1 {
                update_workers_pooled(&mut state, &ctx, &by_worker, &self.config, &plan)?;
            } else {
                update_workers(&mut state, ts, &ctx, &by_worker, &mut scratch)?;
            }
            estep_worker_secs.observe_duration(t1.elapsed());
            crate::validate::run(&validations, "E-step (worker posteriors)", || {
                Validate::validate(&state)
            });

            // One shared read-only snapshot serves the sharded ELBO gather
            // and both M-step rounds this epoch.
            let snapshot = sharded.then(|| Arc::new(state.clone()));

            let bound = match &snapshot {
                Some(snap) => elbo_sharded(snap, &tasks_shared, &ctx, &plan).total(),
                None => elbo(&state, ts, &ctx).total(),
            };
            let improved = trace
                .last()
                .map(|&prev: &f64| {
                    let denom: f64 = prev.abs().max(1.0);
                    (bound - prev) / denom
                })
                .unwrap_or(f64::INFINITY);
            trace.push(bound);

            // M-step: Eqs. 16–21 (τ held during warm-up).
            let update_tau = iterations > self.config.tau_warmup_iters;
            let t2 = std::time::Instant::now();
            match &snapshot {
                Some(snap) => update_params_sharded(
                    &mut params,
                    snap,
                    &tasks_shared,
                    ts.vocab_size(),
                    &plan,
                    &self.config,
                    update_tau,
                )?,
                None => update_params(&mut params, &state, ts, &self.config, update_tau)?,
            }
            mstep_secs.observe_duration(t2.elapsed());
            crate::validate::run(&validations, "M-step (model parameters)", || {
                Validate::validate(&params)
            });

            epochs.inc();
            elbo_gauge.set(bound);
            if let Some(bytes) = crowd_obs::peak_rss_bytes() {
                rss_gauge.set(bytes as f64);
            }
            if improved.is_finite() {
                delta_gauge.set(improved);
            }
            self.obs.tracer.event(
                "trainer",
                "epoch",
                vec![
                    ("epoch".into(), iterations.into()),
                    ("elbo".into(), bound.into()),
                    (
                        "rel_delta".into(),
                        if improved.is_finite() { improved } else { 0.0 }.into(),
                    ),
                ],
            );

            if improved.abs() < self.config.elbo_rel_tol {
                converged = true;
                break;
            }
        }

        // Assemble the model: worker skills + their sufficient statistics so
        // incremental updates can continue from where training left off.
        let mut skills = Vec::with_capacity(ts.num_workers());
        for (i, worker_scores) in by_worker.iter().enumerate() {
            let mut sum_cc = Matrix::zeros(k, k);
            let mut sum_sc = Vector::zeros(k);
            let mut sum_diag = Vector::zeros(k);
            for &(j, s) in worker_scores {
                sum_cc.add_outer(1.0, &state.lambda_c[j])?;
                sum_cc.add_diag(&state.nu2_c[j])?;
                sum_sc.axpy(s, &state.lambda_c[j])?;
                for kk in 0..k {
                    sum_diag[kk] +=
                        state.lambda_c[j][kk] * state.lambda_c[j][kk] + state.nu2_c[j][kk];
                }
            }
            skills.push(TdpmModel::skill_from_training(
                state.lambda_w[i].clone(),
                state.nu2_w[i].clone(),
                sum_cc,
                sum_sc,
                sum_diag,
                worker_scores.len(),
            ));
        }

        let mut model = TdpmModel::assemble(
            params,
            self.config.clone(),
            skills,
            ts.worker_ids().to_vec(),
        )?;
        // Retain the fitted (feedback-informed) task posteriors so resolved
        // tasks can be ranked without a word-only re-projection.
        let trained = ts
            .tasks()
            .iter()
            .enumerate()
            .map(|(j, t)| {
                (
                    t.task,
                    crate::model::TaskProjection {
                        lambda: state.lambda_c[j].clone(),
                        nu2: state.nu2_c[j].clone(),
                        num_tokens: t.num_tokens,
                    },
                )
            })
            .collect();
        model.set_trained_tasks(trained);
        model.set_obs(self.obs.clone());
        crate::validate::run(&validations, "model assembly", || {
            Validate::validate(&model)
        });
        self.obs.metrics.counter("trainer", "fits").inc();
        let report = FitDiagnostics {
            iterations,
            objective_trace: trace,
            converged,
        };
        Ok((model, report))
    }

    /// Initial parameters: neutral priors plus a corpus-seeded, noise-broken
    /// language model (uniform β would make all categories identical and EM
    /// could never separate them).
    ///
    /// The initial `τ` is set from the *observed score scale* (¼ of the
    /// score standard deviation): during the warm-up iterations `τ` is held
    /// fixed, and a value tuned to the platform's score range keeps the
    /// feedback likelihood binding whether scores are thumbs-up counts
    /// (0–20) or best-answer similarities in `[0, 1]`. A fixed `τ = 1`
    /// start lets the prior dominate on compressed scales and the model
    /// collapses to a single trust direction.
    fn initial_params(&self, ts: &TrainingSet) -> ModelParams {
        let k = self.config.num_categories;
        let v = ts.vocab_size();
        let mut params = ModelParams::neutral(k, v);

        let scores: Vec<f64> = ts
            .tasks()
            .iter()
            .flat_map(|t| t.scores.iter().map(|&(_, s)| s))
            .collect();
        let std = crowd_math::stats::scalar_variance(&scores).sqrt();
        params.tau = (0.25 * std).max(self.config.min_tau2.sqrt()).min(1.0);

        if v == 0 {
            return params;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_mul(0x9E37_79B9));
        let counts = ts.corpus_term_counts();
        let mut beta = Matrix::zeros(k, v);
        for kk in 0..k {
            for vv in 0..v {
                let noise: f64 = rng.random_range(0.5..1.5);
                beta[(kk, vv)] = (counts[vv] + 1.0) * noise;
            }
            crowd_math::special::normalize_in_place(beta.row_mut(kk));
        }
        params.beta = beta;
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crate::ScoreSpec;
    use crowd_store::{CrowdDb, ShardedDb, TaskId, WorkerId};

    /// Two clearly separated "topics" (terms 0–1 vs terms 2–3) with two
    /// specialist workers: w0 scores high on topic-A tasks, w1 on topic-B.
    fn separable_ts() -> TrainingSet {
        let mut tasks = Vec::new();
        for j in 0..12u32 {
            let topic_a = j % 2 == 0;
            let words = if topic_a {
                vec![(0usize, 3u32), (1, 2)]
            } else {
                vec![(2, 3), (3, 2)]
            };
            let scores = if topic_a {
                vec![(0usize, 4.0), (1usize, 0.5)]
            } else {
                vec![(0, 0.5), (1, 4.0)]
            };
            tasks.push(TaskData {
                task: TaskId(j),
                words,
                num_tokens: 5.0,
                scores,
            });
        }
        TrainingSet::from_parts(tasks, 2, 4)
    }

    fn quick_config(k: usize) -> TdpmConfig {
        TdpmConfig {
            num_categories: k,
            max_em_iters: 25,
            seed: 11,
            ..TdpmConfig::default()
        }
    }

    #[test]
    fn empty_training_set_errors() {
        let ts = TrainingSet::from_parts(vec![], 0, 0);
        let err = TdpmTrainer::new(quick_config(2)).fit(&ts);
        assert!(matches!(err, Err(CoreError::EmptyTrainingSet)));
    }

    #[test]
    fn elbo_is_monotone_nondecreasing() {
        let ts = separable_ts();
        let (_, report) = TdpmTrainer::new(quick_config(2)).fit(&ts).unwrap();
        for w in report.objective_trace.windows(2) {
            let tol = 1e-6 * w[0].abs().max(1.0);
            assert!(
                w[1] >= w[0] - tol,
                "ELBO decreased: {} → {} (trace {:?})",
                w[0],
                w[1],
                report.objective_trace
            );
        }
    }

    #[test]
    fn specialists_get_separated_skills() {
        let ts = separable_ts();
        let (model, _) = TdpmTrainer::new(quick_config(2)).fit(&ts).unwrap();
        // Project a pure topic-A task and a pure topic-B task.
        let pa = model.project_words(&[(0, 4), (1, 4)]);
        let pb = model.project_words(&[(2, 4), (3, 4)]);
        let tops = model.select(
            &[pa.lambda.as_slice(), pb.lambda.as_slice()],
            &[WorkerId(0), WorkerId(1)],
            1,
            &ScoreSpec::default(),
        );
        assert_eq!(
            tops[0].ranked[0].worker,
            WorkerId(0),
            "w0 is the topic-A expert"
        );
        assert_eq!(
            tops[1].ranked[0].worker,
            WorkerId(1),
            "w1 is the topic-B expert"
        );
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let ts = separable_ts();
        let (m1, r1) = TdpmTrainer::new(quick_config(2)).fit(&ts).unwrap();
        let (m2, r2) = TdpmTrainer::new(quick_config(2)).fit(&ts).unwrap();
        assert_eq!(r1.objective_trace, r2.objective_trace);
        let s1 = m1.skill(WorkerId(0)).unwrap().mean.clone();
        let s2 = m2.skill(WorkerId(0)).unwrap().mean.clone();
        assert_eq!(s1.as_slice(), s2.as_slice());
        let _ = (m1, m2);
    }

    #[test]
    fn fit_from_db_end_to_end() {
        let mut db = CrowdDb::new();
        let w0 = db.add_worker("dba");
        let w1 = db.add_worker("statistician");
        let mut tasks = Vec::new();
        for i in 0..6 {
            let (text, good, bad) = if i % 2 == 0 {
                ("btree index page split buffer pool", w0, w1)
            } else {
                ("posterior prior likelihood gaussian variance", w1, w0)
            };
            let t = db.add_task(text);
            db.assign(good, t).unwrap();
            db.assign(bad, t).unwrap();
            db.record_feedback(good, t, 4.0).unwrap();
            db.record_feedback(bad, t, 0.0).unwrap();
            tasks.push(t);
        }
        let (model, _) = TdpmTrainer::new(quick_config(2))
            .fit(&TrainingSet::from_db(&db))
            .unwrap();
        let proj = model.project_bow(&db.task(tasks[0]).unwrap().bow);
        let candidates: Vec<WorkerId> = db.worker_ids().collect();
        let top = model.select(
            &[proj.lambda.as_slice()],
            &candidates,
            1,
            &ScoreSpec::default(),
        );
        assert_eq!(
            top[0].ranked[0].worker, w0,
            "database task routes to the DBA"
        );
    }

    #[test]
    fn single_category_model_trains() {
        // K = 1 degenerates gracefully (pure trust model).
        let ts = separable_ts();
        let (model, report) = TdpmTrainer::new(quick_config(1)).fit(&ts).unwrap();
        assert!(report.iterations >= 1);
        assert_eq!(model.num_categories(), 1);
    }

    #[test]
    fn report_converges_within_budget_on_tiny_problem() {
        let ts = separable_ts();
        let cfg = TdpmConfig {
            max_em_iters: 200,
            elbo_rel_tol: 1e-5,
            ..quick_config(2)
        };
        let (_, report) = TdpmTrainer::new(cfg).fit(&ts).unwrap();
        assert!(
            report.converged,
            "should converge in 200 iters; trace: {:?}",
            report.objective_trace
        );
    }

    #[test]
    fn sharded_fit_is_bit_identical_to_unsharded() {
        // The same platform, once in a plain CrowdDb and once hash-cut over
        // 4 shards. Insertion order is identical, so global ids and the
        // vocabulary line up; the fits must then agree bitwise.
        let mut db = CrowdDb::new();
        let mut sharded = ShardedDb::new(4);
        let dba = db.add_worker("dba");
        let stat = db.add_worker("stat");
        sharded.add_worker("dba").unwrap();
        sharded.add_worker("stat").unwrap();
        for i in 0..10 {
            let (text, good, bad) = if i % 2 == 0 {
                ("btree page split index buffer disk", dba, stat)
            } else {
                ("gaussian prior posterior likelihood variance", stat, dba)
            };
            let t = db.add_task(text);
            db.assign(good, t).unwrap();
            db.assign(bad, t).unwrap();
            db.record_feedback(good, t, 4.0).unwrap();
            db.record_feedback(bad, t, 0.5).unwrap();
            let t = sharded.add_task(text).unwrap();
            sharded.assign(good, t).unwrap();
            sharded.assign(bad, t).unwrap();
            sharded.record_feedback(good, t, 4.0).unwrap();
            sharded.record_feedback(bad, t, 0.5).unwrap();
        }

        let config = TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        };
        let (plain, plain_report) = TdpmTrainer::new(config.clone())
            .fit(&TrainingSet::from_db(&db))
            .unwrap();
        let (cut, cut_report) = TdpmTrainer::new(TdpmConfig {
            num_shards: 4,
            ..config
        })
        .fit(&TrainingSet::from_sharded(&sharded))
        .unwrap();
        assert_eq!(
            plain_report.objective_trace, cut_report.objective_trace,
            "ELBO traces must agree bitwise"
        );
        let (ps, cs) = (plain.skill_matrix(), cut.skill_matrix());
        assert_eq!(ps.ids(), cs.ids());
        for row in 0..ps.ids().len() {
            assert_eq!(ps.mean_row(row), cs.mean_row(row), "row {row}");
        }
    }
}
