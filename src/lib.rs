#![warn(missing_docs)]

//! # crowdselect
//!
//! A task-driven crowd-selection system for crowdsourcing databases — a
//! from-scratch Rust reproduction of *"Crowd-Selection Query Processing in
//! Crowdsourcing Databases: A Task-Driven Approach"* (EDBT 2015).
//!
//! This facade re-exports the workspace crates under stable paths:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`math`] | `crowd-math` | dense linear algebra, optimizers, special functions |
//! | [`obs`] | `crowd-obs` | metrics registry, tracing facade, [`obs::MetricsSnapshot`] |
//! | [`text`] | `crowd-text` | tokenizer, vocabulary, bags of words, similarities |
//! | [`store`] | `crowd-store` | the crowdsourcing database (tasks/workers/assignments/feedback) |
//! | [`select`] | `crowd-select` | the backend-agnostic selection layer: [`select::CrowdSelector`], [`select::SelectorRegistry`], ranking primitives |
//! | [`model`] | `crowd-core` | TDPM: generative model, variational inference, selection |
//! | [`baselines`] | `crowd-baselines` | VSM, DRM (PLSA), TSPM (LDA) and the standard backend registry |
//! | [`sim`] | `crowd-sim` | synthetic Quora / Yahoo / Stack Overflow platforms |
//! | [`platform`] | `crowd-platform` | crowd manager, dispatcher, collector, pipeline |
//! | [`query`] | `crowd-query` | SQL-like crowd-selection query language |
//! | [`eval`] | `crowd-eval` | ACCU / TopK metrics and the experiment harness |
//!
//! ## Quick start
//!
//! ```
//! use crowdselect::prelude::*;
//!
//! // 1. Record some history in the crowd database.
//! let mut db = CrowdDb::new();
//! let ada = db.add_worker("ada");
//! let carl = db.add_worker("carl");
//! for i in 0..6 {
//!     let (text, good, bad) = if i % 2 == 0 {
//!         ("btree index page buffer pool", ada, carl)
//!     } else {
//!         ("gaussian prior posterior variance", carl, ada)
//!     };
//!     let t = db.add_task(text);
//!     db.assign(good, t).unwrap();
//!     db.assign(bad, t).unwrap();
//!     db.record_feedback(good, t, 4.0).unwrap();
//!     db.record_feedback(bad, t, 0.5).unwrap();
//! }
//!
//! // 2. Infer "who knows what" (variational EM).
//! let config = TdpmConfig { num_categories: 2, seed: 7, ..TdpmConfig::default() };
//! let (model, _) = TdpmTrainer::new(config)
//!     .fit(&TrainingSet::from_db(&db))
//!     .unwrap();
//!
//! // 3. Route a fresh question to the right expert.
//! let question = db.add_task("why does a btree split pages");
//! let projection = model.project_bow(&db.task(question).unwrap().bow);
//! let lambdas = [projection.lambda.as_slice()];
//! let best = model.select(&lambdas, &[ada, carl], 1, &ScoreSpec::default());
//! assert_eq!(best[0].ranked[0].worker, ada);
//! ```
//!
//! ## Backend-agnostic selection
//!
//! Every algorithm — TDPM and the baselines alike — implements
//! [`select::CrowdSelector`], so callers can rank workers through a
//! type-erased backend resolved by name:
//!
//! ```
//! use crowdselect::prelude::*;
//!
//! let mut db = CrowdDb::new();
//! let ada = db.add_worker("ada");
//! let carl = db.add_worker("carl");
//! let indexing = db.add_task("btree index page split");
//! db.assign(ada, indexing).unwrap();
//! db.record_feedback(ada, indexing, 4.5).unwrap();
//! let stats = db.add_task("gaussian posterior variance");
//! db.assign(carl, stats).unwrap();
//! db.record_feedback(carl, stats, 4.5).unwrap();
//!
//! // Resolve `USING vsm` through the registry and fit it...
//! let registry = standard_registry();
//! let fitted = registry.fit("vsm", &db, &FitOptions::default()).unwrap();
//! assert_eq!(fitted.backend(), "vsm");
//!
//! // ...or box any selector directly; ranking goes through the same trait.
//! let boxed: Box<dyn CrowdSelector> = Box::new(VsmSelector::fit(&db));
//! let question = db.add_task("why does a btree split pages");
//! let bow = db.task(question).unwrap().bow.clone();
//! let ranked = boxed.rank(&bow, &[ada, carl]);
//! assert_eq!(ranked[0].worker, ada);
//! assert_eq!(
//!     fitted.selector().rank(&bow, &[ada, carl])[0].worker,
//!     ada,
//! );
//! ```

pub use crowd_baselines as baselines;
pub use crowd_core as model;
pub use crowd_eval as eval;
pub use crowd_math as math;
pub use crowd_obs as obs;
pub use crowd_platform as platform;
pub use crowd_query as query;
pub use crowd_select as select;
pub use crowd_sim as sim;
pub use crowd_store as store;
pub use crowd_text as text;

/// The most common imports in one place.
pub mod prelude {
    pub use crowd_baselines::{standard_registry, DrmSelector, TspmSelector, VsmSelector};
    pub use crowd_core::{
        ScoreSpec, TaskProjection, TdpmConfig, TdpmModel, TdpmTrainer, TrainingSet,
    };
    pub use crowd_obs::{MetricsSnapshot, Obs};
    pub use crowd_platform::{CrowdManager, ManagerConfig, Pipeline, PipelineConfig};
    pub use crowd_query::QueryEngine;
    pub use crowd_select::{
        CrowdSelector, FitOptions, FittedSelector, RankedWorker, SelectorBackend, SelectorRegistry,
    };
    pub use crowd_sim::{PlatformGenerator, PlatformKind, SimConfig};
    pub use crowd_store::{CrowdDb, SharedCrowdDb, TaskId, WorkerGroup, WorkerId};
    pub use crowd_text::{tokenize_filtered, BagOfWords, Vocabulary};
}
