#![warn(missing_docs)]

//! TDPM — the Task-Driven Probabilistic Model for crowd-selection.
//!
//! This crate implements the paper's primary contribution end to end:
//!
//! - **Generative model** (Section 4.3, Algorithm 1): worker skills
//!   `w^i ~ Normal(μ_w, Σ_w)`, task categories `c^j ~ Normal(μ_c, Σ_c)`,
//!   words via a logistic-normal topic link, and feedback scores
//!   `s_ij ~ Normal(w^i·c^j, τ²)` — see [`generative`].
//! - **Variational inference** (Section 5, Algorithm 2): a mean-field
//!   approximation `q(W) q(C) q(Z)` optimized by alternating closed-form
//!   updates (worker skills, word responsibilities, Taylor parameter) with
//!   Newton updates for the task posteriors (damped Newton for the mean, a
//!   safeguarded Newton root for each variance) — see
//!   [`inference`] and [`trainer::TdpmTrainer`].
//! - **Incremental crowd-selection** (Section 6, Algorithm 3): projecting a
//!   brand-new task onto the learned latent space without refitting, then
//!   ranking workers by `w^i (c^j)ᵀ` (Eq. 1) — see [`model::TdpmModel`].
//!
//! # Quick start
//!
//! ```
//! use crowd_core::{ScoreSpec, TdpmConfig, TdpmTrainer, TrainingSet};
//! use crowd_store::CrowdDb;
//!
//! let mut db = CrowdDb::new();
//! let alice = db.add_worker("alice");
//! let bob = db.add_worker("bob");
//! let t = db.add_task("advantages of b+ tree over b tree");
//! let u = db.add_task("bayes rule and priors");
//! for (w, task, score) in [(alice, t, 4.0), (bob, t, 1.0), (alice, u, 0.0), (bob, u, 3.0)] {
//!     db.assign(w, task).unwrap();
//!     db.record_feedback(w, task, score).unwrap();
//! }
//!
//! let config = TdpmConfig { num_categories: 2, seed: 7, ..TdpmConfig::default() };
//! let (model, _) = TdpmTrainer::new(config)
//!     .fit(&TrainingSet::from_db(&db))
//!     .unwrap();
//!
//! let projection = model.project_bow(&db.task(t).unwrap().bow);
//! let candidates: Vec<_> = db.worker_ids().collect();
//! let lambdas = [projection.lambda.as_slice()];
//! let ranked = model.select(&lambdas, &candidates, 1, &ScoreSpec::default());
//! assert_eq!(ranked[0].ranked.len(), 1);
//! ```

pub mod backend;
pub mod config;
pub mod dataset;
pub mod error;
pub mod generative;
pub mod inference;
pub mod model;
pub mod params;
pub mod persist;
pub mod selection;
pub mod skillmatrix;
pub mod trainer;
pub mod validate;
pub mod variational;

pub use backend::TdpmBackend;
pub use config::TdpmConfig;
pub use crowd_math::validate::Validate;
pub use crowd_select::{CrowdSelector, FitDiagnostics};
pub use dataset::TrainingSet;
pub use error::CoreError;
pub use model::{Precision, TaskProjection, TdpmModel};
pub use params::ModelParams;
pub use persist::ModelSnapshot;
pub use selection::RankedWorker;
pub use skillmatrix::{PartialRanking, ScoreSpec, SkillMatrix, MIN_POOL_CHUNK_ROWS};
pub use trainer::TdpmTrainer;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
