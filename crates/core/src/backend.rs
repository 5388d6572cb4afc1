//! TDPM behind the backend-agnostic selection layer.
//!
//! Two pieces plug the model into `crowd-select`:
//!
//! - [`CrowdSelector`] is implemented directly on [`TdpmModel`], so a trained
//!   model can serve selection queries as a `dyn CrowdSelector` — including
//!   the incremental-maintenance methods (Algorithm 3). Ranking uses the
//!   deterministic posterior-mean category (Algorithm 3 samples it; the
//!   mean is that procedure's expectation and keeps evaluation
//!   reproducible).
//! - [`TdpmBackend`] is the [`SelectorBackend`] factory registered under the
//!   name `"tdpm"`; its `fit` is [`TdpmTrainer::fit`] on
//!   [`TrainingSet::from_db`]. It is *not* lazily fittable: variational EM is
//!   the expensive path the paper's `TRAIN MODEL` statement exists for.

use crate::config::TdpmConfig;
use crate::dataset::TrainingSet;
use crate::model::{TaskProjection, TdpmModel};
use crate::skillmatrix::ScoreSpec;
use crate::trainer::TdpmTrainer;
use crowd_select::{
    BatchQuery, CrowdSelector, FitOptions, FitOutcome, RankedWorker, SelectError, SelectorBackend,
};
use crowd_store::{CrowdDb, TaskId, WorkerId};
use crowd_text::BagOfWords;

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
            Some(projection) => rank_every(self, &projection, candidates),
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
            let projections: Vec<TaskProjection> = group
                .iter()
                .map(|q| {
                    q.task
                        .and_then(|t| self.trained_projection(t))
                        .unwrap_or_else(|| self.project_bow(q.bow))
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
        let projection = self
            .trained_projection(task)
            .unwrap_or_else(|| self.project_bow(bow));
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
        let (model, diagnostics) = TdpmTrainer::new(self.effective_config(opts))
            .with_obs(self.obs.clone())
            .fit(&ts)
            .map_err(|e| SelectError::Fit {
                backend: "tdpm".into(),
                message: e.to_string(),
            })?;
        Ok(FitOutcome::new(Box::new(model), diagnostics))
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
        let (tdpm, _) = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        })
        .fit(&TrainingSet::from_db(&db))
        .unwrap();
        assert_eq!(CrowdSelector::name(&tdpm), "TDPM");

        let task = BagOfWords::from_tokens(&tokenize_filtered("btree page buffer"), db.vocab_mut());
        let ranked = CrowdSelector::rank(&tdpm, &task, &[dba, stat]);
        assert_eq!(ranked[0].worker, dba);

        let task = BagOfWords::from_tokens(
            &tokenize_filtered("posterior variance prior"),
            db.vocab_mut(),
        );
        let top = CrowdSelector::select(&tdpm, &task, &[dba, stat], 1);
        assert_eq!(top[0].worker, stat);
    }

    #[test]
    fn unknown_candidates_dropped() {
        let mut db = CrowdDb::new();
        let w = db.add_worker("only");
        let t = db.add_task("single task words here");
        db.assign(w, t).unwrap();
        db.record_feedback(w, t, 1.0).unwrap();
        let (tdpm, _) = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 1,
            ..TdpmConfig::default()
        })
        .fit(&TrainingSet::from_db(&db))
        .unwrap();
        let task = db.task(t).unwrap().bow.clone();
        let ranked = CrowdSelector::rank(&tdpm, &task, &[w, WorkerId(99)]);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].worker, w);
    }

    #[test]
    fn model_serves_as_trait_object() {
        let (db, dba, stat) = specialist_db();
        let (model, _) = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        })
        .fit(&TrainingSet::from_db(&db))
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
    fn backend_fit_on_empty_db_errors() {
        let db = CrowdDb::new();
        let err = TdpmBackend::new().fit(&db, &FitOptions::default());
        assert!(matches!(err, Err(SelectError::Fit { .. })));
    }

    #[test]
    fn observe_feedback_updates_the_posterior() {
        let (mut db, dba, stat) = specialist_db();
        let (mut model, _) = TdpmTrainer::new(TdpmConfig {
            num_categories: 2,
            seed: 7,
            ..TdpmConfig::default()
        })
        .fit(&TrainingSet::from_db(&db))
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
