//! The iterative optimization loop (paper Algorithm 2).

use crate::config::TdpmConfig;
use crate::dataset::{ScoresByWorker, TrainingSet};
use crate::inference::elbo::elbo;
use crate::inference::estep::{run_task_range, run_worker_range};
use crate::inference::mstep::update_params;
use crate::inference::suffstats::ShardPlan;
use crate::inference::EStepContext;
use crate::model::{FeedbackStats, TdpmModel, TrainedTasks};
use crate::params::ModelParams;
use crate::variational::VariationalState;
use crate::{CoreError, Result};
use crowd_math::{Matrix, ScoringPool, Validate};
use crowd_select::FitDiagnostics;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Per-shard work ranges, each split into up to `threads` contiguous
/// subchunks — the unit of pooled work for both E-step halves. One shard
/// and one thread give one chunk covering the whole axis.
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

/// Updates one half of the posteriors chunk by chunk on the persistent
/// [`ScoringPool`]: `take` hands each chunk's rows to its job, `job` updates
/// them against the rest of the state (shared by `Arc` handle, read-only),
/// and `put` writes every chunk back in chunk order — even when one errs,
/// so sibling chunks' updates stay applied; the first error is returned.
///
/// A one-chunk phase moves the rows out and back and copies nothing; the
/// pool runs its single job inline. With more chunks, each copies its
/// contiguous row range out and back once. `chunks` must be non-empty
/// ranges that partition the axis, as [`shard_chunks`] makes them.
/// `Arc::make_mut` never copies the state: every job has dropped its
/// handle when `ScoringPool::run` returns.
fn update_chunks<R, J>(
    state: &mut Arc<VariationalState>,
    chunks: Vec<Range<usize>>,
    take: fn(&mut VariationalState, Range<usize>) -> R,
    put: fn(&mut VariationalState, usize, R),
    job: J,
) -> Result<()>
where
    R: Send + 'static,
    J: Fn(&VariationalState, Range<usize>, &mut R) -> Result<()> + Clone + Send + 'static,
{
    let parts: Vec<R> = {
        let st = Arc::make_mut(state);
        chunks.iter().map(|r| take(st, r.clone())).collect()
    };
    let jobs: Vec<_> = chunks
        .iter()
        .cloned()
        .zip(parts)
        .map(|(r, mut rows)| {
            let shared = Arc::clone(state);
            let job = job.clone();
            move || {
                let outcome = job(&shared, r, &mut rows);
                (rows, outcome)
            }
        })
        .collect();
    let done = ScoringPool::global().run(jobs);
    debug_assert_eq!(Arc::strong_count(state), 1, "a pool job kept its handle");
    let st = Arc::make_mut(state);
    let mut outcome = Ok(());
    for (r, (rows, chunk_outcome)) in chunks.into_iter().zip(done) {
        put(st, r.start, rows);
        outcome = outcome.and(chunk_outcome);
    }
    outcome
}

/// The fixed inputs of one EM run, and the metric handles its E-step
/// records into.
///
/// Every phase runs over `plan`'s block-aligned shards on the scoring pool;
/// `num_shards = num_threads = 1` is the one-chunk plan. Per-entity updates
/// are mutually independent within each E-step half and every global sum
/// uses the fixed-block reduction tree (`crate::inference::suffstats`), so
/// the fit is bit-identical for every shard and thread count (DESIGN §11).
pub(crate) struct EmDriver<'a> {
    ts: &'a TrainingSet,
    config: Arc<TdpmConfig>,
    plan: ShardPlan,
    by_worker: Arc<ScoresByWorker>,
    estep_task_secs: Arc<crowd_obs::Histogram>,
    estep_worker_secs: Arc<crowd_obs::Histogram>,
    validations: Arc<crowd_obs::Counter>,
}

impl<'a> EmDriver<'a> {
    pub(crate) fn new(ts: &'a TrainingSet, config: &TdpmConfig, obs: &crowd_obs::Obs) -> Self {
        let m = &obs.metrics;
        EmDriver {
            ts,
            config: Arc::new(config.clone()),
            plan: ShardPlan::new(ts.num_workers(), ts.num_tasks(), config.num_shards),
            by_worker: Arc::new(ts.scores_by_worker()),
            estep_task_secs: m.histogram("trainer", "estep_task_seconds"),
            estep_worker_secs: m.histogram("trainer", "estep_worker_seconds"),
            validations: m.counter("validate", "checks"),
        }
    }

    /// One E-step: every task posterior (Eqs. 12–15), then every worker
    /// posterior (Eqs. 10–11). Tasks go first: on the first iteration the
    /// prior-scale random worker means act as the symmetry breaker that
    /// pulls each task's category toward the workers who scored well on it.
    pub(crate) fn e_step(
        &self,
        state: &mut Arc<VariationalState>,
        ctx: &Arc<EStepContext>,
    ) -> Result<()> {
        let threads = self.config.num_threads;

        let t0 = Instant::now();
        let tasks = self.ts.tasks_shared();
        let (ctx_a, cfg) = (Arc::clone(ctx), Arc::clone(&self.config));
        update_chunks(
            state,
            shard_chunks(&self.plan, |s| self.plan.task_range(s), threads),
            VariationalState::take_tasks,
            VariationalState::put_tasks,
            move |shared, r, rows| run_task_range(&tasks[r], shared, rows, &ctx_a, &cfg),
        )?;
        self.estep_task_secs.observe_duration(t0.elapsed());
        crate::validate::run(&self.validations, "E-step (task posteriors)", || {
            Validate::validate(&**state)
        });

        let t1 = Instant::now();
        let (by_worker, ctx_b) = (Arc::clone(&self.by_worker), Arc::clone(ctx));
        update_chunks(
            state,
            shard_chunks(&self.plan, |s| self.plan.worker_range(s), threads),
            VariationalState::take_workers,
            VariationalState::put_workers,
            move |shared, r, rows| run_worker_range(r.start, rows, &by_worker, shared, &ctx_b),
        )?;
        self.estep_worker_secs.observe_duration(t1.elapsed());
        crate::validate::run(&self.validations, "E-step (worker posteriors)", || {
            Validate::validate(&**state)
        });
        Ok(())
    }
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
    /// or [`TrainingSet::from_parts`]. `config.num_shards` and
    /// `config.num_threads` set the fit's fan-out; the result is
    /// bit-identical for every value of both, and for a plain or a sharded
    /// store holding the same platform (DESIGN §11).
    // crowd-lint: root(det)
    pub fn fit(&self, ts: &TrainingSet) -> Result<(TdpmModel, FitDiagnostics)> {
        self.config.validate()?;
        if ts.num_tasks() == 0 {
            return Err(CoreError::EmptyTrainingSet);
        }
        let k = self.config.num_categories;

        let mut params = self.initial_params(ts);
        let mut state = Arc::new(VariationalState::init(ts, k, self.config.seed));
        let driver = EmDriver::new(ts, &self.config, &self.obs);

        let mut trace = Vec::with_capacity(self.config.max_em_iters);
        let mut converged = false;
        let mut iterations = 0;

        let m = &self.obs.metrics;
        let epochs = m.counter("trainer", "epochs");
        let elbo_gauge = m.gauge("trainer", "elbo");
        let delta_gauge = m.gauge("trainer", "elbo_rel_delta");
        let mstep_secs = m.histogram("trainer", "mstep_seconds");
        let rss_gauge = m.gauge("trainer", "peak_rss_bytes");
        let validations = m.counter("validate", "checks");

        for _ in 0..self.config.max_em_iters {
            iterations += 1;
            let ctx = Arc::new(EStepContext::new(&params)?);

            driver.e_step(&mut state, &ctx)?;

            let bound = elbo(&state, ts, &ctx, &driver.plan).total();
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
            let t2 = Instant::now();
            update_params(
                &mut params,
                &state,
                ts,
                &driver.plan,
                &self.config,
                update_tau,
            )?;
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

        // Keep the posteriors and free φ and ε. Fold each worker's scored
        // tasks into the statistics that incremental updates continue from
        // while the worker index is alive, then free the index before the
        // serving matrix is built; every posterior slab moves into the
        // model without a copy.
        let VariationalState {
            lambda_w,
            nu2_w,
            lambda_c,
            nu2_c,
            ..
        } = Arc::unwrap_or_clone(state);
        let mut stats = FeedbackStats::zeros(k, ts.num_workers());
        for (i, worker_scores) in driver.by_worker.iter().enumerate() {
            for &(j, s) in worker_scores {
                stats.fold(i, &lambda_c[j], &nu2_c[j], s);
            }
        }
        drop(driver);
        // The fitted (feedback-informed) task posteriors, kept so resolved
        // tasks can be ranked without a word-only re-projection.
        let trained = TrainedTasks::new(
            ts.tasks().iter().map(|t| t.task),
            lambda_c,
            nu2_c,
            ts.tasks().iter().map(|t| t.num_tokens).collect(),
        );
        let mut model = TdpmModel::assemble(
            params,
            self.config.clone(),
            ts.worker_ids().to_vec(),
            lambda_w,
            nu2_w,
            stats,
            trained,
        )?;
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
