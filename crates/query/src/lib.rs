#![warn(missing_docs)]

//! A small crowd-selection query language over the crowdsourcing database.
//!
//! The paper frames crowd-selection as *query processing in crowdsourcing
//! databases*; this crate makes that literal. A SQL-flavoured language
//! covers the operations of Figure 1 — crowd insertion, crowd update,
//! crowd retrieval, model training and top-k selection queries:
//!
//! ```text
//! INSERT WORKER 'ada'
//! INSERT TASK 'advantages of b+ tree over b tree'
//! ASSIGN WORKER 0 TO TASK 0
//! FEEDBACK WORKER 0 ON TASK 0 SCORE 4
//! TRAIN MODEL WITH 8 CATEGORIES
//! SELECT WORKERS FOR TASK 'why does a btree split pages' LIMIT 2
//! SELECT WORKERS FOR TASK 'gc pauses in my service' LIMIT 3 USING vsm WHERE GROUP >= 5
//! SHOW STATS
//! SHOW WORKER 0
//! SHOW GROUPS 1, 5, 9
//! EXPLAIN SELECT WORKERS FOR TASK 'why does a btree split pages' LIMIT 2
//! ```
//!
//! Pipeline: [`parse`] → [`Statement`] → compile ([`plan::compile`], under
//! the engine's serving [`Precision`]) → [`LogicalPlan`] → execute (`exec`,
//! instrumented per plan node) → [`QueryOutput`]. [`QueryEngine::run`] is a thin facade over that
//! pipeline; `EXPLAIN <statement>` stops after compilation and renders the
//! plan deterministically. The engine owns a [`crowd_store::CrowdDb`] and a
//! [`crowd_select::SelectorRegistry`]; a `USING <backend>` clause is
//! resolved by name against the registry at execution time, so any
//! registered [`crowd_select::SelectorBackend`] — the standard four
//! (`tdpm`, `vsm`, `drm`, `tspm`) or a custom one passed to
//! [`QueryEngine::with_db_and_registry`] — is queryable without engine
//! changes.
//!
//! **Robustness.** Execution is deadline-aware, cancellable and
//! admission-controlled: a [`QueryContext`] (deadline + [`CancelToken`] +
//! work budget + [`DegradePolicy`]) rides along
//! [`QueryEngine::run_with`] / [`QueryEngine::execute_plan_with`] and is
//! checkpointed at every plan-node boundary *and* inside the dense scoring
//! kernels; an [`AdmissionController`]
//! ([`QueryEngine::set_admission`]) bounds concurrency with a bounded,
//! timed wait queue; transient storage failures retry with bounded
//! backoff ([`RetryPolicy`]); and a seeded
//! [`crowd_sim::QueryFaultPlan`] can be armed
//! ([`QueryEngine::set_fault_injection`]) to drive deterministic
//! query-layer chaos testing.

pub mod admission;
pub mod ast;
mod cache;
pub mod engine;
pub mod error;
mod exec;
pub mod lexer;
pub mod output;
pub mod parser;
pub mod plan;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionError, AdmissionPermit};
pub use ast::{BackendName, ShowTarget, Statement};
pub use crowd_core::Precision;
pub use engine::QueryEngine;
pub use error::QueryError;
pub use exec::faults::RetryPolicy;
pub use exec::{CancelToken, CtxGuard, DegradePolicy, Interruption, QueryContext};
pub use output::{QueryOutput, SelectedWorker, WorkerTable};
pub use parser::parse;
pub use plan::{CacheDecision, LogicalPlan, MutationOp, PlanNode, VarId};
