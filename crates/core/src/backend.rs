//! TDPM behind the backend-agnostic selection layer.
//!
//! Three pieces plug the model into `crowd-select`:
//!
//! - [`CrowdSelector`] is implemented directly on [`TdpmModel`], so a trained
//!   model can serve selection queries as a `dyn CrowdSelector` — including
//!   the incremental-maintenance methods (Algorithm 3).
//! - [`TdpmSelector`] is a thin owning adapter kept for callers that want
//!   explicit access to the wrapped model (the evaluation harness).
//! - [`TdpmBackend`] is the [`SelectorBackend`] factory registered under the
//!   name `"tdpm"`. It is *not* lazily fittable: variational EM is the
//!   expensive path the paper's `TRAIN MODEL` statement exists for.

use crate::config::TdpmConfig;
use crate::dataset::TrainingSet;
use crate::model::{TaskProjection, TdpmModel};
use crate::skillmatrix::ScoreSpec;
use crate::trainer::TdpmTrainer;
use crowd_select::{
    BatchQuery, CrowdSelector, FitDiagnostics, FitOptions, FitOutcome, RankedWorker, SelectError,
    SelectorBackend,
};
use crowd_store::{CrowdDb, ShardedDb, TaskId, WorkerId};
use crowd_text::BagOfWords;
use std::borrow::Cow;

/// Every candidate the model knows, ranked by posterior-mean score.
fn rank_every(
    model: &TdpmModel,
    projection: &TaskProjection,
    candidates: &[WorkerId],
) -> Vec<RankedWorker> {
    let spec = ScoreSpec::default();
    model
        .select(
            &[projection.lambda.as_slice()],
            candidates,
            candidates.len(),
            &spec,
        )
        .pop()
        .map(|p| p.ranked)
        .unwrap_or_default()
}

impl CrowdSelector for TdpmModel {
    fn name(&self) -> &'static str {
        "TDPM"
    }

    fn rank(&self, task: &BagOfWords, candidates: &[WorkerId]) -> Vec<RankedWorker> {
        let projection = self.project_bow(task);
        rank_every(self, &projection, candidates)
    }

    fn rank_trained(
        &self,
        task: TaskId,
        bow: &BagOfWords,
        candidates: &[WorkerId],
    ) -> Vec<RankedWorker> {
        match self.trained_projection(task) {
            Some(projection) => rank_every(self, projection, candidates),
            None => CrowdSelector::rank(self, bow, candidates),
        }
    }

    /// Runs of consecutive queries sharing the *same* candidate slice — the
    /// common shape for pipeline dispatch and query-engine sweeps — go
    /// through one [`TdpmModel::select`] call, which resolves their pool
    /// once. Queries for trained tasks use the feedback-informed posterior,
    /// exactly like [`CrowdSelector::rank_trained`].
    fn select_batch(&self, queries: &[BatchQuery<'_>], k: usize) -> Vec<Vec<RankedWorker>> {
        let mut out: Vec<Vec<RankedWorker>> = Vec::with_capacity(queries.len());
        for group in crowd_select::shared_candidate_runs(queries) {
            let projections: Vec<Cow<'_, TaskProjection>> = group
                .iter()
                .map(|q| match q.task.and_then(|t| self.trained_projection(t)) {
                    Some(p) => Cow::Borrowed(p),
                    None => Cow::Owned(self.project_bow(q.bow)),
                })
                .collect();
            let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
            let ranked = self.select(&lambdas, group[0].candidates, k, &ScoreSpec::default());
            out.extend(ranked.into_iter().map(|p| p.ranked));
        }
        out
    }

    fn add_worker(&mut self, worker: WorkerId) {
        TdpmModel::add_worker(self, worker);
    }

    fn observe_feedback(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        bow: &BagOfWords,
        score: f64,
    ) -> Result<(), SelectError> {
        // Prefer the feedback-informed posterior fitted during training;
        // tasks that arrived after fitting get a fresh word-only projection
        // (Algorithm 3 — deterministic, so recomputing is exact).
        let projection = match self.trained_projection(task) {
            Some(p) => p.clone(),
            None => self.project_bow(bow),
        };
        TdpmModel::add_worker(self, worker);
        self.record_feedback(worker, &projection, score)
            .map_err(|e| SelectError::Update {
                backend: "tdpm".into(),
                message: e.to_string(),
            })
    }

    fn worker_profile(&self, worker: WorkerId) -> Option<Vec<f64>> {
        self.skill(worker).map(|s| s.mean.as_slice().to_vec())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// TDPM behind the uniform selector interface.
///
/// Selection uses the deterministic posterior-mean category (the paper's
/// Algorithm 3 samples it; the mean is the expectation of that procedure and
/// keeps the evaluation reproducible).
#[derive(Debug, Clone)]
pub struct TdpmSelector {
    model: TdpmModel,
}

impl TdpmSelector {
    /// Wraps an already trained model.
    pub fn new(model: TdpmModel) -> Self {
        TdpmSelector { model }
    }

    /// Trains a model on `db` with `num_topics` latent categories.
    pub fn fit(db: &CrowdDb, num_topics: usize, seed: u64) -> crate::Result<Self> {
        let cfg = TdpmConfig {
            num_categories: num_topics,
            seed,
            ..TdpmConfig::default()
        };
        let model = TdpmTrainer::new(cfg).fit(db)?;
        Ok(TdpmSelector { model })
    }

    /// The underlying model.
    pub fn model(&self) -> &TdpmModel {
        &self.model
    }

    /// Mutable access (for incremental updates in the platform pipeline).
    pub fn model_mut(&mut self) -> &mut TdpmModel {
        &mut self.model
    }
}

impl CrowdSelector for TdpmSelector {
    fn name(&self) -> &'static str {
        "TDPM"
    }

    fn rank(&self, task: &BagOfWords, candidates: &[WorkerId]) -> Vec<RankedWorker> {
        CrowdSelector::rank(&self.model, task, candidates)
    }

    fn rank_trained(
        &self,
        task: TaskId,
        bow: &BagOfWords,
        candidates: &[WorkerId],
    ) -> Vec<RankedWorker> {
        self.model.rank_trained(task, bow, candidates)
    }

    fn select_batch(&self, queries: &[BatchQuery<'_>], k: usize) -> Vec<Vec<RankedWorker>> {
        self.model.select_batch(queries, k)
    }

    fn add_worker(&mut self, worker: WorkerId) {
        TdpmModel::add_worker(&mut self.model, worker);
    }

    fn observe_feedback(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        bow: &BagOfWords,
        score: f64,
    ) -> Result<(), SelectError> {
        self.model.observe_feedback(worker, task, bow, score)
    }

    fn worker_profile(&self, worker: WorkerId) -> Option<Vec<f64>> {
        self.model.worker_profile(worker)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The `"tdpm"` entry for a [`crowd_select::SelectorRegistry`].
///
/// Holds a base [`TdpmConfig`]; [`FitOptions`] may override the category
/// count and the seed per fit.
#[derive(Debug, Clone, Default)]
pub struct TdpmBackend {
    base: TdpmConfig,
    obs: crowd_obs::Obs,
}

impl TdpmBackend {
    /// A backend fitting with the default configuration.
    pub fn new() -> Self {
        TdpmBackend::default()
    }

    /// A backend whose fits start from `base` (threads, iteration budget,
    /// priors, …).
    pub fn with_config(base: TdpmConfig) -> Self {
        TdpmBackend {
            base,
            obs: crowd_obs::Obs::noop(),
        }
    }

    /// Routes trainer metrics (epoch timings, ELBO) and the fitted model's
    /// projection/update metrics to `obs` for every fit this backend runs.
    pub fn with_obs(mut self, obs: crowd_obs::Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The base configuration.
    pub fn config(&self) -> &TdpmConfig {
        &self.base
    }

    /// The base config with per-fit overrides applied.
    fn effective_config(&self, opts: &FitOptions) -> TdpmConfig {
        let mut cfg = self.base.clone();
        if let Some(k) = opts.categories {
            cfg.num_categories = k;
        }
        if let Some(seed) = opts.seed {
            cfg.seed = seed;
        }
        cfg
    }

    fn outcome((model, report): (TdpmModel, crate::FitReport)) -> Result<FitOutcome, SelectError> {
        Ok(FitOutcome::new(
            Box::new(model),
            FitDiagnostics {
                iterations: report.iterations,
                objective_trace: report.elbo_trace,
                converged: report.converged,
            },
        ))
    }
}

impl SelectorBackend for TdpmBackend {
    fn name(&self) -> &'static str {
        "tdpm"
    }

    /// Variational EM is too expensive to run implicitly at query time.
    fn lazy_fit(&self) -> bool {
        false
    }

    fn fit(&self, db: &CrowdDb, opts: &FitOptions) -> Result<FitOutcome, SelectError> {
        let ts = TrainingSet::from_db(db);
        TdpmTrainer::new(self.effective_config(opts))
            .with_obs(self.obs.clone())
            .fit_training_set(&ts)
            .map_err(|e| SelectError::Fit {
                backend: "tdpm".into(),
                message: e.to_string(),
            })
            .and_then(Self::outcome)
    }

    /// Shard-parallel TDPM fit: the E-step/M-step plan mirrors the store's
    /// partitioning (see [`TdpmTrainer::fit_sharded`]), and the fitted model
    /// is bit-identical to an unsharded fit of the same data.
    fn fit_sharded(&self, db: &ShardedDb, opts: &FitOptions) -> Result<FitOutcome, SelectError> {
        TdpmTrainer::new(self.effective_config(opts))
            .with_obs(self.obs.clone())
            .fit_sharded(db)
            .map_err(|e| SelectError::Fit {
                backend: "tdpm".into(),
                message: e.to_string(),
            })
            .and_then(Self::outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_select::SelectorRegistry;
    use crowd_text::tokenize_filtered;

    fn specialist_db() -> (CrowdDb, WorkerId, WorkerId) {
        let mut db = CrowdDb::new();
        let dba = db.add_worker("dba");
        let stat = db.add_worker("stat");
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
        }
        (db, dba, stat)
    }

    #[test]
    fn end_to_end_selector_routes_correctly() {
        let (mut db, dba, stat) = specialist_db();
        let tdpm = TdpmSelector::fit(&db, 2, 7).unwrap();
        assert_eq!(CrowdSelector::name(&tdpm), "TDPM");

        let task = BagOfWords::from_tokens(&tokenize_filtered("btree page buffer"), db.vocab_mut());
        let ranked = CrowdSelector::rank(&tdpm, &task, &[dba, stat]);
        assert_eq!(ranked[0].worker, dba);

        let task = BagOfWords::from_tokens(
            &tokenize_filtered("posterior variance prior"),
            db.vocab_mut(),
        );
        let top = tdpm.select(&task, &[dba, stat], 1);
        assert_eq!(top[0].worker, stat);
    }

    #[test]
    fn unknown_candidates_dropped() {
        let mut db = CrowdDb::new();
        let w = db.add_worker("only");
        let t = db.add_task("single task words here");
        db.assign(w, t).unwrap();
        db.record_feedback(w, t, 1.0).unwrap();
        let tdpm = TdpmSelector::fit(&db, 2, 1).unwrap();
        let task = db.task(t).unwrap().bow.clone();
        let ranked = CrowdSelector::rank(&tdpm, &task, &[w, WorkerId(99)]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].worker, w);
    }

    #[test]
    fn model_serves_as_trait_object() {
        let (db, dba, stat) = specialist_db();
        let model = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        })
        .fit(&db)
        .unwrap();
        let boxed: Box<dyn CrowdSelector> = Box::new(model);
        let task = db.task(crowd_store::TaskId(0)).unwrap().bow.clone();
        let ranked = boxed.rank(&task, &[dba, stat]);
        assert_eq!(ranked[0].worker, dba);
        assert!(boxed.worker_profile(dba).is_some());
        assert!(boxed.as_any().is_some());
    }

    #[test]
    fn backend_fits_through_the_registry() {
        let (db, dba, stat) = specialist_db();
        let mut registry = SelectorRegistry::new();
        registry.register(Box::new(TdpmBackend::new()));
        assert!(!registry.get("tdpm").unwrap().lazy_fit());

        let fitted = registry.fit("TDPM", &db, &FitOptions::with(2, 7)).unwrap();
        assert_eq!(fitted.backend(), "tdpm");
        assert!(fitted.diagnostics().iterations >= 1);
        assert!(fitted.diagnostics().objective().is_some());
        let task = db.task(crowd_store::TaskId(0)).unwrap().bow.clone();
        let ranked = fitted.selector().rank(&task, &[dba, stat]);
        assert_eq!(ranked[0].worker, dba);
        // The concrete model is reachable for diagnostics.
        assert!(fitted.downcast_ref::<TdpmModel>().is_some());
    }

    #[test]
    fn sharded_registry_fit_is_bit_identical_to_unsharded() {
        // The same platform, once in a plain CrowdDb and once hash-cut over
        // 4 shards. Insertion order is identical, so global ids and the
        // vocabulary line up; the fits must then agree bitwise.
        let (db, dba, stat) = specialist_db();
        let mut sharded = ShardedDb::new(4);
        sharded.add_worker("dba").unwrap();
        sharded.add_worker("stat").unwrap();
        for i in 0..10 {
            let (text, good, bad) = if i % 2 == 0 {
                ("btree page split index buffer disk", dba, stat)
            } else {
                ("gaussian prior posterior likelihood variance", stat, dba)
            };
            let t = sharded.add_task(text).unwrap();
            sharded.assign(good, t).unwrap();
            sharded.assign(bad, t).unwrap();
            sharded.record_feedback(good, t, 4.0).unwrap();
            sharded.record_feedback(bad, t, 0.5).unwrap();
        }

        let mut registry = SelectorRegistry::new();
        registry.register(Box::new(TdpmBackend::new()));
        let opts = FitOptions::with(2, 7);
        let plain = registry.fit("tdpm", &db, &opts).unwrap();
        let cut = registry.fit_sharded("tdpm", &sharded, &opts).unwrap();
        assert_eq!(
            plain.diagnostics().objective_trace,
            cut.diagnostics().objective_trace,
            "ELBO traces must agree bitwise"
        );
        let (pm, cm) = (
            plain.downcast_ref::<TdpmModel>().unwrap(),
            cut.downcast_ref::<TdpmModel>().unwrap(),
        );
        let (ps, cs) = (pm.skill_matrix(), cm.skill_matrix());
        assert_eq!(ps.ids(), cs.ids());
        for row in 0..ps.ids().len() {
            assert_eq!(ps.mean_row(row), cs.mean_row(row), "row {row}");
        }
    }

    #[test]
    fn default_fit_sharded_declines() {
        struct Inert;
        impl SelectorBackend for Inert {
            fn name(&self) -> &'static str {
                "inert"
            }
            fn fit(&self, _: &CrowdDb, _: &FitOptions) -> Result<FitOutcome, SelectError> {
                unreachable!("not exercised")
            }
        }
        let err = Inert.fit_sharded(&ShardedDb::new(2), &FitOptions::default());
        assert!(
            matches!(err, Err(SelectError::Fit { ref message, .. }) if message.contains("sharded")),
            "{err:?}"
        );
    }

    #[test]
    fn backend_fit_on_empty_db_errors() {
        let db = CrowdDb::new();
        let err = TdpmBackend::new().fit(&db, &FitOptions::default());
        assert!(matches!(err, Err(SelectError::Fit { .. })));
    }

    #[test]
    fn observe_feedback_updates_the_posterior() {
        let (mut db, dba, stat) = specialist_db();
        let mut model = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        })
        .fit(&db)
        .unwrap();
        let bow = BagOfWords::from_tokens(&tokenize_filtered("btree page buffer"), db.vocab_mut());
        let before = model.worker_profile(stat).unwrap();
        // A run of strong feedback on database tasks should move the
        // statistician's skill estimate.
        for _ in 0..4 {
            model
                .observe_feedback(stat, TaskId(999), &bow, 5.0)
                .unwrap();
        }
        let after = model.worker_profile(stat).unwrap();
        assert_ne!(before, after);
        let _ = dba;
    }
}
