//! Query execution over a crowd database.
//!
//! Since the planner/executor split, the engine is a thin facade: [`run`]
//! parses, [`compile`] lowers the statement into a [`LogicalPlan`]
//! (`crate::plan`) and [`execute_plan`] hands it to the instrumented
//! executor (`crate::exec`). The engine owns the long-lived state the
//! executor works against — storage, the backend registry, fitted
//! snapshots, the projection cache, observability — plus the policy
//! helpers (candidate filtering, snapshot invalidation, lazy fitting) that
//! plan nodes call back into.
//!
//! [`run`]: QueryEngine::run
//! [`compile`]: QueryEngine::compile
//! [`execute_plan`]: QueryEngine::execute_plan

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::ast::{BackendName, ShowTarget, Statement};
use crate::cache::{ProjectionCache, DEFAULT_PROJECTION_CACHE_CAPACITY};
use crate::exec;
use crate::exec::faults::{FaultInjector, RetryPolicy};
use crate::exec::storage::Storage;
use crate::exec::QueryContext;
use crate::output::{QueryOutput, SelectedWorker, WorkerTable};
use crate::plan::{self, LogicalPlan, PlanNode};
use crate::QueryError;
use crowd_baselines::standard_registry;
use crowd_select::{DbMutation, FitOptions, FittedSelector, SelectorRegistry};
use crowd_sim::QueryFaultPlan;
use crowd_store::groups::group_stats_sweep;
use crowd_store::{CrowdDb, WorkerId};
use crowd_text::{tokenize_filtered, BagOfWords};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Executes parsed statements against an owned [`CrowdDb`].
///
/// `USING <backend>` clauses are resolved by name against a
/// [`SelectorRegistry`] — the engine never matches on concrete selector
/// types, so registering a new backend makes it queryable with no engine
/// changes. Lazily fittable backends (VSM / DRM / TSPM) are fitted on first
/// use and the [`FittedSelector`] snapshot cached; any write statement
/// invalidates those snapshots. Backends that opt out of lazy fitting (TDPM
/// — it is the expensive one, and the paper's architecture retrains it
/// deliberately on the red path) are only fitted by an explicit
/// `TRAIN MODEL`, and their snapshots survive writes until the next train.
///
/// Statements execute through a compile → plan → execute pipeline:
/// [`compile`](QueryEngine::compile) lowers the AST into a [`LogicalPlan`]
/// and [`execute_plan`](QueryEngine::execute_plan) walks it with per-node
/// `query/plan_node_seconds_*` instrumentation. `EXPLAIN <statement>`
/// renders the plan instead of executing it.
#[derive(Debug)]
pub struct QueryEngine {
    pub(crate) storage: Storage,
    pub(crate) registry: SelectorRegistry,
    pub(crate) fitted: HashMap<String, FittedSelector>,
    pub(crate) baseline_categories: usize,
    pub(crate) seed: u64,
    pub(crate) epoch: u64,
    pub(crate) obs: crowd_obs::Obs,
    /// LRU of TDPM task projections keyed by query content; entries are
    /// valid for exactly one fit epoch (see [`crate::cache`]).
    pub(crate) cache: ProjectionCache,
    /// Bounded-backoff retry policy for transient storage failures.
    pub(crate) retry: RetryPolicy,
    /// Deterministic fault injector over storage operations, when a chaos
    /// plan is armed (see [`QueryEngine::set_fault_injection`]).
    pub(crate) faults: Option<FaultInjector>,
    /// Concurrency/queue gate for query execution, when configured.
    admission: Option<Arc<AdmissionController>>,
    /// Serving precision for the TDPM dense kernels (baselines always
    /// serve f64). A compile-time plan property: changing it affects
    /// plans compiled afterwards, never an in-flight execution.
    precision: crowd_core::Precision,
}

impl QueryEngine {
    /// Creates an engine over an empty database.
    pub fn new() -> Self {
        QueryEngine::with_db(CrowdDb::new())
    }

    /// Creates an engine whose mutations are write-ahead logged to `path`;
    /// existing log entries are replayed first (see [`crowd_store::wal`]).
    pub fn open_logged(path: impl AsRef<Path>) -> Result<Self, QueryError> {
        let mut e = QueryEngine::with_db(CrowdDb::new());
        e.storage = Storage::open_logged(path)?;
        Ok(e)
    }

    /// Creates an engine over an existing database, with the standard
    /// backend registry (`tdpm`, `vsm`, `drm`, `tspm`).
    pub fn with_db(db: CrowdDb) -> Self {
        QueryEngine::with_db_and_registry(db, standard_registry())
    }

    /// Creates an engine over an existing database and a custom backend
    /// registry, making additional selection algorithms addressable from
    /// `USING` clauses.
    pub fn with_db_and_registry(db: CrowdDb, registry: SelectorRegistry) -> Self {
        QueryEngine {
            storage: Storage::Plain(db),
            registry,
            fitted: HashMap::new(),
            baseline_categories: 10,
            seed: 42,
            epoch: 0,
            obs: crowd_obs::Obs::noop(),
            cache: ProjectionCache::new(DEFAULT_PROJECTION_CACHE_CAPACITY),
            retry: RetryPolicy::default(),
            faults: None,
            admission: None,
            precision: crowd_core::Precision::F64,
        }
    }

    /// Replaces the bounded-backoff retry policy the executor applies to
    /// transient storage failures.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Arms (or, with `None`, disarms) deterministic fault injection over
    /// the engine's storage operations. The seeded plan assigns a fault —
    /// transient error, latency stall, or detected partial read — to each
    /// storage operation index, so a chaos run is exactly reproducible.
    pub fn set_fault_injection(&mut self, plan: Option<QueryFaultPlan>) {
        self.faults = plan.map(FaultInjector::new);
    }

    /// Installs (or, with `None`, removes) admission control: bounded
    /// concurrent execution slots plus a bounded, timed wait queue. Every
    /// plan execution then passes through [`AdmissionController::admit`],
    /// and rejections surface as [`QueryError::Admission`].
    pub fn set_admission(&mut self, cfg: Option<AdmissionConfig>) {
        self.admission = cfg.map(AdmissionController::new);
    }

    /// The admission controller, when one is installed — shareable, so
    /// load-test harnesses can watch `active`/`queued` from other threads.
    pub fn admission(&self) -> Option<&Arc<AdmissionController>> {
        self.admission.as_ref()
    }

    /// Selects the serving precision for TDPM dense scoring:
    /// [`crowd_core::Precision::F32`] routes `SELECT` statements through the
    /// f32 skill mirror (deterministic, rank-stable modulo f32-epsilon ties,
    /// accuracy contract in DESIGN.md §10c); the default `F64` is the
    /// bit-identity oracle path. Baseline backends always serve f64. Like
    /// retries and admission, this is engine policy: it is stamped onto
    /// plans at compile time and shows up in `EXPLAIN` as `precision=<p>`.
    pub fn set_precision(&mut self, precision: crowd_core::Precision) {
        self.precision = precision;
    }

    /// The engine's current serving precision.
    pub fn precision(&self) -> crowd_core::Precision {
        self.precision
    }

    /// Attaches an observability handle. `SELECT WORKERS` latency is
    /// recorded per backend under the `query` component
    /// (`select_seconds_<backend>`), `TRAIN MODEL` under `train_seconds`,
    /// every plan node under `plan_node_seconds_<kind>`, and — for logged
    /// engines — the WAL timings under `wal` (see
    /// [`crowd_store::LoggedDb::set_obs`]).
    pub fn set_obs(&mut self, obs: crowd_obs::Obs) {
        self.storage.set_obs(&obs);
        self.obs = obs;
    }

    /// The underlying database.
    pub fn db(&self) -> &CrowdDb {
        self.storage.db()
    }

    /// The backend registry serving `USING` clauses.
    pub fn registry(&self) -> &SelectorRegistry {
        &self.registry
    }

    /// The cached fit for `backend`, if one is currently serving.
    pub fn fitted(&self, backend: &str) -> Option<&FittedSelector> {
        self.fitted.get(&backend.to_ascii_lowercase())
    }

    /// Parses and executes one statement under an unbounded
    /// [`QueryContext`].
    pub fn run(&mut self, input: &str) -> Result<QueryOutput, QueryError> {
        self.run_with(input, &QueryContext::unbounded())
    }

    /// Parses and executes one statement under a caller-supplied
    /// [`QueryContext`] (deadline, cancellation, budget, degradation
    /// policy).
    pub fn run_with(&mut self, input: &str, ctx: &QueryContext) -> Result<QueryOutput, QueryError> {
        let plan = self.compile(&crate::parse(input)?);
        let mut outputs = self.execute_plan_with(&plan, ctx)?;
        if outputs.len() == 1 {
            Ok(outputs.swap_remove(0))
        } else {
            Err(QueryError::Execution(format!(
                "internal plan error: statement produced {} outputs",
                outputs.len()
            )))
        }
    }

    /// Compiles a statement into its logical plan without executing it.
    pub fn compile(&self, stmt: &Statement) -> LogicalPlan {
        plan::compile(stmt, &self.registry, self.precision)
    }

    /// The deterministic plan rendering for a statement — what
    /// `EXPLAIN <statement>` returns, usable directly from the API.
    pub fn explain(&self, stmt: &Statement) -> String {
        self.compile(stmt).render()
    }

    /// Executes a compiled plan, returning one output per covered statement
    /// (fused `SELECT` plans return one [`QueryOutput::Workers`] per query,
    /// in input order).
    ///
    /// Besides the per-node `plan_node_seconds_*` timers recorded by the
    /// executor, plans that score queries keep the historical select
    /// metrics: the `query/selects` counter advances by the number of
    /// result tables and `select_seconds_<backend>` observes the whole
    /// plan's latency once.
    // crowd-lint: root(wait)
    pub fn execute_plan(&mut self, plan: &LogicalPlan) -> Result<Vec<QueryOutput>, QueryError> {
        self.execute_plan_with(plan, &QueryContext::unbounded())
    }

    /// [`QueryEngine::execute_plan`] under a caller-supplied
    /// [`QueryContext`]. When admission control is installed
    /// ([`QueryEngine::set_admission`]) the execution first takes a slot —
    /// counting `query/admission_{admitted,queued,shed}` and observing
    /// `query/queue_wait_seconds` — and sheds or times out with
    /// [`QueryError::Admission`] under overload.
    // crowd-lint: root(wait)
    pub fn execute_plan_with(
        &mut self,
        plan: &LogicalPlan,
        ctx: &QueryContext,
    ) -> Result<Vec<QueryOutput>, QueryError> {
        let permit = match &self.admission {
            None => None,
            Some(ctl) => {
                let ctl = Arc::clone(ctl);
                let m = &self.obs.metrics;
                match ctl.admit() {
                    Ok(permit) => {
                        m.counter("query", "admission_admitted").inc();
                        if permit.was_queued() {
                            m.counter("query", "admission_queued").inc();
                        }
                        m.histogram("query", "queue_wait_seconds")
                            .observe_duration(permit.queue_wait());
                        Some(permit)
                    }
                    Err(e) => {
                        m.counter("query", "admission_shed").inc();
                        return Err(QueryError::Admission(e));
                    }
                }
            }
        };
        let scored_backend = plan.nodes.iter().find_map(|n| match n {
            PlanNode::Score { backend, .. } => Some(backend.clone()),
            _ => None,
        });
        let started = std::time::Instant::now();
        let queue_wait = permit.as_ref().map(|p| p.queue_wait());
        let result = exec::execute_ctx(self, plan, ctx, queue_wait);
        drop(permit);
        let outputs = result?;
        if let Some(backend) = scored_backend {
            // Per-backend latency: one histogram per backend name keeps the
            // snapshot self-describing (no label dimension in the registry).
            let m = &self.obs.metrics;
            m.counter("query", "selects").add(outputs.len() as u64);
            m.histogram("query", &format!("select_seconds_{}", backend.as_str()))
                .observe_duration(started.elapsed());
        }
        Ok(outputs)
    }

    /// Executes one `SELECT WORKERS` sweep for several task texts against a
    /// single backend and candidate pool under `ctx`, returning one ranking
    /// per text in input order ([`QueryContext::unbounded`] constrains
    /// nothing).
    ///
    /// Equivalent to running the statement once per text (bit-identical
    /// scores) but cheaper: the sweep compiles to one fused plan
    /// ([`crate::plan::compile_select_batch`]) whose candidate pool is
    /// scanned once, TDPM queries flow through the projection cache and one
    /// batched [`crowd_core::TdpmModel::select`] call, and the baselines
    /// amortize their profile resolution through
    /// [`crowd_select::CrowdSelector::select_batch`]. The whole sweep shares
    /// one deadline, cancellation token and work budget, and under
    /// [`crate::DegradePolicy::Partial`] an interruption yields per-query
    /// tables marked `degraded` instead of an error.
    pub fn select_workers_batch(
        &mut self,
        texts: &[&str],
        limit: usize,
        backend: &str,
        min_group: Option<usize>,
        ctx: &QueryContext,
    ) -> Result<Vec<WorkerTable>, QueryError> {
        let backend = BackendName::new(backend);
        let plan = plan::compile_select_batch(
            texts,
            limit,
            &backend,
            min_group,
            &self.registry,
            self.precision,
        );
        let outputs = self.execute_plan_with(&plan, ctx)?;
        let mut tables = Vec::with_capacity(outputs.len());
        for output in outputs {
            match output {
                QueryOutput::Workers(rows) => tables.push(rows),
                other => {
                    return Err(QueryError::Execution(format!(
                        "internal plan error: expected a worker table, got {other}"
                    )))
                }
            }
        }
        Ok(tables)
    }

    /// Explicitly fits `backend` (the `TRAIN MODEL` / [`PlanNode::Fit`]
    /// path), bumping the fit epoch and replacing the serving snapshot.
    pub(crate) fn train(
        &mut self,
        backend: &BackendName,
        categories: usize,
    ) -> Result<QueryOutput, QueryError> {
        let started = std::time::Instant::now();
        self.epoch += 1;
        let fitted = self
            .registry
            .fit(
                backend.as_str(),
                self.db(),
                &FitOptions::with(categories, self.seed),
            )?
            .with_epoch(self.epoch);
        let diag = fitted.diagnostics().clone();
        self.fitted.insert(backend.as_str().to_string(), fitted);
        self.obs
            .metrics
            .histogram("query", "train_seconds")
            .observe_duration(started.elapsed());
        Ok(QueryOutput::Trained {
            iterations: diag.iterations,
            elbo: diag.objective().unwrap_or(f64::NAN),
            converged: diag.converged,
        })
    }

    /// Makes sure a serving snapshot for `backend` exists in `self.fitted`,
    /// fitting it on demand if the backend allows lazy fits (the
    /// [`PlanNode::Bind`] path).
    ///
    /// Split from the lookup so the executor can borrow the snapshot and
    /// the projection cache as disjoint fields afterwards.
    pub(crate) fn ensure_fitted(&mut self, backend: &BackendName) -> Result<(), QueryError> {
        let name = backend.as_str();
        if !self.fitted.contains_key(name) {
            let b = self.registry.get(name)?;
            if !b.lazy_fit() {
                return Err(QueryError::Execution(
                    "no model: run TRAIN MODEL first".into(),
                ));
            }
            self.epoch += 1;
            let fitted = self
                .registry
                .fit(
                    name,
                    self.db(),
                    &FitOptions::with(self.baseline_categories, self.seed),
                )?
                .with_epoch(self.epoch);
            self.fitted.insert(name.to_string(), fitted);
        }
        Ok(())
    }

    /// The candidate pool for a `SELECT WORKERS` (the [`PlanNode::Scan`]
    /// path), honoring the optional `WHERE GROUP >= n` filter.
    pub(crate) fn candidate_pool(
        &self,
        min_group: Option<usize>,
    ) -> Result<Vec<WorkerId>, QueryError> {
        let db = self.db();
        let candidates: Vec<WorkerId> = match min_group {
            None => db.worker_ids().collect(),
            Some(n) => db
                .worker_ids()
                .filter(|&w| db.worker_task_count(w) >= n)
                .collect(),
        };
        if candidates.is_empty() {
            return Err(QueryError::Execution(
                "no candidate workers match the WHERE clause".into(),
            ));
        }
        Ok(candidates)
    }

    /// Decorates a ranking with worker handles for presentation (the
    /// [`PlanNode::Merge`] path).
    pub(crate) fn to_rows(&self, ranked: Vec<crowd_select::RankedWorker>) -> Vec<SelectedWorker> {
        ranked
            .into_iter()
            .map(|r| SelectedWorker {
                worker: r.worker,
                handle: self
                    .db()
                    .worker(r.worker)
                    .map(|w| w.handle.clone())
                    .unwrap_or_default(),
                score: r.score,
            })
            .collect()
    }

    /// Read-only inspection (the `SHOW …` / [`PlanNode::Inspect`] path).
    pub(crate) fn show(&self, target: &ShowTarget) -> Result<QueryOutput, QueryError> {
        match target {
            ShowTarget::Stats => Ok(QueryOutput::Stats {
                workers: self.db().num_workers(),
                tasks: self.db().num_tasks(),
                assignments: self.db().num_assignments(),
                resolved: self.db().num_resolved(),
                vocab: self.db().vocab().len(),
                trained: self.fitted.contains_key("tdpm"),
            }),
            ShowTarget::Worker(worker) => {
                let worker = *worker;
                let rec = self.db().worker(worker)?;
                let skills = self
                    .fitted
                    .get("tdpm")
                    .and_then(|f| f.selector().worker_profile(worker))
                    .unwrap_or_default();
                Ok(QueryOutput::WorkerDetail {
                    worker,
                    handle: rec.handle.clone(),
                    resolved_tasks: self.db().worker_task_count(worker),
                    skills,
                })
            }
            ShowTarget::Task(task) => {
                let task = *task;
                let rec = self.db().task(task)?;
                let scores = self
                    .db()
                    .workers_of(task)
                    .filter_map(|(w, s)| s.map(|s| (w, s)))
                    .collect();
                Ok(QueryOutput::TaskDetail {
                    task,
                    text: rec.text.clone(),
                    scores,
                })
            }
            ShowTarget::Groups(thresholds) => Ok(QueryOutput::Groups(group_stats_sweep(
                self.db(),
                thresholds,
            ))),
            ShowTarget::Similar { text, limit } => {
                let db = self.db();
                let tokens = tokenize_filtered(text);
                let bow = BagOfWords::from_known_tokens(&tokens, db.vocab());
                let rows = db
                    .similar_tasks(&bow, *limit)
                    .into_iter()
                    .map(|(t, sim)| {
                        let text = db.task(t).map(|r| r.text.clone()).unwrap_or_default();
                        (t, text, sim)
                    })
                    .collect();
                Ok(QueryOutput::SimilarTasks(rows))
            }
        }
    }

    /// Drops lazily fitted snapshots whose fit actually depends on the kind
    /// of write that just happened (each backend declares its dependencies
    /// via [`crowd_select::SelectorBackend::invalidated_by`]) — a
    /// `FEEDBACK` no longer throws away a VSM fit whose profiles ignore
    /// scores. Explicitly fitted backends (TDPM) are always kept: retraining
    /// is explicit (`TRAIN MODEL`), like the red data-flow in the paper's
    /// architecture. The projection cache also survives: projections depend
    /// only on the fitted parameters, and a retrain bumps the epoch the
    /// cache keys against.
    pub(crate) fn invalidate(&mut self, mutation: DbMutation) {
        let registry = &self.registry;
        self.fitted.retain(|name, _| {
            registry
                .get(name)
                .is_ok_and(|b| !b.lazy_fit() || !b.invalidated_by(mutation))
        });
    }
}

impl Default for QueryEngine {
    fn default() -> Self {
        QueryEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a two-specialist database entirely through the query language.
    fn seeded_engine() -> QueryEngine {
        let mut e = QueryEngine::new();
        e.run("INSERT WORKER 'dba'").unwrap();
        e.run("INSERT WORKER 'stat'").unwrap();
        let tasks = [
            ("btree page split index buffer disk", 0, 1),
            ("gaussian prior posterior likelihood variance", 1, 0),
            ("btree range scan clustered index", 0, 1),
            ("variational bayes gaussian inference", 1, 0),
            ("btree write amplification buffer pool", 0, 1),
            ("posterior variance of a gaussian", 1, 0),
        ];
        for (i, (text, good, bad)) in tasks.iter().enumerate() {
            e.run(&format!("INSERT TASK '{text}'")).unwrap();
            e.run(&format!("ASSIGN WORKER {good} TO TASK {i}")).unwrap();
            e.run(&format!("ASSIGN WORKER {bad} TO TASK {i}")).unwrap();
            e.run(&format!("FEEDBACK WORKER {good} ON TASK {i} SCORE 4"))
                .unwrap();
            e.run(&format!("FEEDBACK WORKER {bad} ON TASK {i} SCORE 0.5"))
                .unwrap();
        }
        e
    }

    #[test]
    fn inserts_return_dense_ids() {
        let mut e = QueryEngine::new();
        assert_eq!(
            e.run("INSERT WORKER 'a'").unwrap(),
            QueryOutput::WorkerInserted(WorkerId(0))
        );
        assert_eq!(
            e.run("INSERT WORKER 'b'").unwrap(),
            QueryOutput::WorkerInserted(WorkerId(1))
        );
        assert!(matches!(
            e.run("INSERT TASK 'hello world'").unwrap(),
            QueryOutput::TaskInserted(_)
        ));
    }

    #[test]
    fn full_session_routes_to_specialist() {
        let mut e = seeded_engine();
        let out = e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        assert!(matches!(out, QueryOutput::Trained { iterations, .. } if iterations >= 1));

        let out = e
            .run("SELECT WORKERS FOR TASK 'why does a btree split pages' LIMIT 1")
            .unwrap();
        let QueryOutput::Workers(rows) = out else {
            panic!("expected workers")
        };
        assert_eq!(rows[0].handle, "dba");

        let out = e
            .run("SELECT WORKERS FOR TASK 'prior for a gaussian variance' LIMIT 2")
            .unwrap();
        let QueryOutput::Workers(rows) = out else {
            panic!("expected workers")
        };
        assert_eq!(rows[0].handle, "stat");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn an_oversized_limit_returns_the_whole_roster() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        for backend in ["tdpm", "vsm"] {
            let mut rows = |limit: u32| {
                let stmt =
                    format!("SELECT WORKERS FOR TASK 'b+ tree' LIMIT {limit} USING {backend}");
                match e.run(&stmt).unwrap() {
                    QueryOutput::Workers(rows) => rows,
                    other => panic!("expected workers, got {other:?}"),
                }
            };
            let all = rows(u32::MAX);
            assert_eq!(all.len(), 2, "{backend}");
            assert_eq!(all, rows(2), "{backend}");
        }
    }

    #[test]
    fn tdpm_requires_training() {
        let mut e = seeded_engine();
        let err = e.run("SELECT WORKERS FOR TASK 'q'").unwrap_err();
        assert!(err.to_string().contains("TRAIN MODEL"), "{err}");
    }

    #[test]
    fn unknown_backend_is_rejected_with_known_names() {
        let mut e = seeded_engine();
        let err = e
            .run("SELECT WORKERS FOR TASK 'q' USING magic")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("magic"), "{msg}");
        for known in ["tdpm", "vsm", "drm", "tspm"] {
            assert!(msg.contains(known), "{msg}");
        }
    }

    #[test]
    fn empty_pool_reported_before_unknown_backend() {
        // Scan runs before Bind, so the empty-pool error wins — the
        // pre-plan engine behaved the same way and callers match on it.
        let mut e = QueryEngine::new();
        let err = e
            .run("SELECT WORKERS FOR TASK 'q' USING magic")
            .unwrap_err();
        assert!(err.to_string().contains("no candidate workers"), "{err}");
    }

    #[test]
    fn all_backends_route_through_the_registry() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        for backend in ["tdpm", "vsm", "drm", "tspm"] {
            let out = e
                .run(&format!(
                    "SELECT WORKERS FOR TASK 'btree index buffer' LIMIT 1 USING {backend}"
                ))
                .unwrap();
            let QueryOutput::Workers(rows) = out else {
                panic!("expected workers")
            };
            assert_eq!(rows[0].handle, "dba", "{backend} routes the db task");
            assert_eq!(e.fitted(backend).unwrap().backend(), backend);
        }
    }

    #[test]
    fn baselines_work_without_training() {
        let mut e = seeded_engine();
        for algo in ["vsm", "drm", "tspm"] {
            let out = e
                .run(&format!(
                    "SELECT WORKERS FOR TASK 'btree index buffer' LIMIT 1 USING {algo}"
                ))
                .unwrap();
            let QueryOutput::Workers(rows) = out else {
                panic!("expected workers")
            };
            assert_eq!(rows[0].handle, "dba", "{algo} routes the db task");
        }
    }

    #[test]
    fn topic_baselines_need_resolved_tasks() {
        let mut e = QueryEngine::new();
        e.run("INSERT WORKER 'a'").unwrap();
        e.run("INSERT TASK 'btree'").unwrap();
        for algo in ["drm", "tspm"] {
            let err = e
                .run(&format!("SELECT WORKERS FOR TASK 'q' USING {algo}"))
                .unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("needs resolved tasks with feedback scores"),
                "{msg}"
            );
            assert!(msg.contains(algo), "{msg}");
        }
    }

    #[test]
    fn writes_invalidate_lazy_fits_but_keep_the_trained_model() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        e.run("SELECT WORKERS FOR TASK 'btree' USING vsm").unwrap();
        assert!(e.fitted("vsm").is_some());
        assert!(e.fitted("tdpm").is_some());

        e.run("INSERT WORKER 'newcomer'").unwrap();
        assert!(e.fitted("vsm").is_none(), "lazy fit dropped on write");
        assert!(e.fitted("tdpm").is_some(), "explicit fit survives writes");
    }

    #[test]
    fn feedback_and_answers_only_drop_dependent_fits() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        // A fresh assignment to score later (the write drops every lazy fit).
        e.run("INSERT TASK 'btree vacuum freeze'").unwrap();
        e.run("ASSIGN WORKER 0 TO TASK 6").unwrap();
        for b in ["vsm", "drm", "tspm"] {
            e.run(&format!("SELECT WORKERS FOR TASK 'btree' USING {b}"))
                .unwrap();
        }

        // FEEDBACK resolves a task: the topic baselines refit, VSM's
        // assignment-based profiles don't care.
        e.run("FEEDBACK WORKER 0 ON TASK 6 SCORE 4").unwrap();
        assert!(e.fitted("vsm").is_some(), "vsm ignores scores");
        assert!(e.fitted("drm").is_none(), "drm fits on resolved tasks");
        assert!(e.fitted("tspm").is_none(), "tspm fits on resolved tasks");
        assert!(e.fitted("tdpm").is_some(), "explicit fit survives");

        // ANSWER text is read by no backend: every snapshot survives.
        e.run("SELECT WORKERS FOR TASK 'btree' USING drm").unwrap();
        e.run("ANSWER WORKER 0 ON TASK 6 TEXT 'run autovacuum'")
            .unwrap();
        assert!(e.fitted("vsm").is_some());
        assert!(e.fitted("drm").is_some());
        assert!(e.fitted("tdpm").is_some());
    }

    #[test]
    fn projection_cache_counts_hits_and_misses() {
        use std::sync::Arc;
        let mut e = seeded_engine();
        let metrics = Arc::new(crowd_obs::Registry::new());
        e.set_obs(crowd_obs::Obs::new(
            metrics.clone(),
            crowd_obs::Tracer::noop(),
        ));
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();

        e.run("SELECT WORKERS FOR TASK 'btree index' LIMIT 1")
            .unwrap();
        e.run("SELECT WORKERS FOR TASK 'btree index' LIMIT 2")
            .unwrap();
        e.run("SELECT WORKERS FOR TASK 'gaussian prior' LIMIT 1")
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "select_cache_miss"), Some(2));
        assert_eq!(snap.counter("query", "select_cache_hit"), Some(1));

        // Retraining bumps the epoch: the same text misses once, then hits.
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        e.run("SELECT WORKERS FOR TASK 'btree index' LIMIT 1")
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "select_cache_miss"), Some(3));

        // Baseline selects never touch the projection cache.
        e.run("SELECT WORKERS FOR TASK 'btree index' USING vsm")
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "select_cache_miss"), Some(3));
        assert_eq!(snap.counter("query", "select_cache_hit"), Some(1));
    }

    #[test]
    fn batched_select_matches_single_statements() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        let texts = [
            "why does a btree split pages",
            "prior for a gaussian variance",
            "why does a btree split pages",
        ];
        for backend in ["tdpm", "vsm", "drm", "tspm"] {
            let batch = e
                .select_workers_batch(&texts, 2, backend, None, &QueryContext::unbounded())
                .unwrap();
            assert_eq!(batch.len(), texts.len(), "{backend}");
            for (text, got) in texts.iter().zip(&batch) {
                let out = e
                    .run(&format!(
                        "SELECT WORKERS FOR TASK '{text}' LIMIT 2 USING {backend}"
                    ))
                    .unwrap();
                let QueryOutput::Workers(want) = out else {
                    panic!("expected workers")
                };
                assert_eq!(got.len(), want.len(), "{backend}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.worker, b.worker, "{backend}");
                    assert_eq!(a.handle, b.handle, "{backend}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "{backend}");
                }
            }
        }
        // The WHERE filter applies to the whole sweep.
        e.run("INSERT WORKER 'lurker'").unwrap();
        let batch = e
            .select_workers_batch(&["btree"], 10, "vsm", Some(1), &QueryContext::unbounded())
            .unwrap();
        assert!(batch[0].iter().all(|r| r.handle != "lurker"));
    }

    #[test]
    fn where_group_filters_candidates() {
        let mut e = seeded_engine();
        // A third worker with no resolved tasks.
        e.run("INSERT WORKER 'lurker'").unwrap();
        let out = e
            .run("SELECT WORKERS FOR TASK 'btree' LIMIT 10 USING vsm WHERE GROUP >= 1")
            .unwrap();
        let QueryOutput::Workers(rows) = out else {
            panic!("expected workers")
        };
        assert_eq!(rows.len(), 2, "lurker excluded by GROUP >= 1");
        assert!(rows.iter().all(|r| r.handle != "lurker"));

        let err = e
            .run("SELECT WORKERS FOR TASK 'btree' USING vsm WHERE GROUP >= 99")
            .unwrap_err();
        assert!(err.to_string().contains("no candidate workers"));
    }

    #[test]
    fn select_does_not_grow_vocabulary() {
        let mut e = seeded_engine();
        let before = e.db().vocab().len();
        e.run("SELECT WORKERS FOR TASK 'completely novel words zzz' USING vsm")
            .unwrap();
        assert_eq!(e.db().vocab().len(), before);
    }

    #[test]
    fn show_statements_report_state() {
        let mut e = seeded_engine();
        let QueryOutput::Stats {
            workers,
            tasks,
            resolved,
            trained,
            ..
        } = e.run("SHOW STATS").unwrap()
        else {
            panic!("expected stats")
        };
        assert_eq!((workers, tasks, resolved, trained), (2, 6, 12, false));

        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        let QueryOutput::WorkerDetail {
            handle,
            resolved_tasks,
            skills,
            ..
        } = e.run("SHOW WORKER 0").unwrap()
        else {
            panic!("expected worker detail")
        };
        assert_eq!(handle, "dba");
        assert_eq!(resolved_tasks, 6);
        assert_eq!(skills.len(), 2, "skills visible after training");

        let QueryOutput::TaskDetail { scores, .. } = e.run("SHOW TASK 0").unwrap() else {
            panic!("expected task detail")
        };
        assert_eq!(scores.len(), 2);

        let QueryOutput::Groups(rows) = e.run("SHOW GROUPS 1, 5, 99").unwrap() else {
            panic!("expected groups")
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].size, 2);
        assert_eq!(rows[2].size, 0);
    }

    #[test]
    fn execution_errors_surface() {
        let mut e = QueryEngine::new();
        assert!(e.run("ASSIGN WORKER 0 TO TASK 0").is_err());
        assert!(e.run("SHOW WORKER 5").is_err());
        e.run("INSERT WORKER 'a'").unwrap();
        e.run("INSERT TASK 'x'").unwrap();
        assert!(
            e.run("FEEDBACK WORKER 0 ON TASK 0 SCORE 1").is_err(),
            "not assigned"
        );
    }

    #[test]
    fn logged_engine_survives_restart() {
        let dir = std::env::temp_dir().join("crowd_query_wal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("engine_{}.log", std::process::id()));
        std::fs::remove_file(&path).ok();
        {
            let mut e = QueryEngine::open_logged(&path).unwrap();
            e.run("INSERT WORKER 'ada'").unwrap();
            e.run("INSERT TASK 'btree splits'").unwrap();
            e.run("ASSIGN WORKER 0 TO TASK 0").unwrap();
            e.run("FEEDBACK WORKER 0 ON TASK 0 SCORE 4").unwrap();
        }
        // "Restart": reopen from the log alone.
        let mut e = QueryEngine::open_logged(&path).unwrap();
        let QueryOutput::Stats {
            workers,
            tasks,
            resolved,
            ..
        } = e.run("SHOW STATS").unwrap()
        else {
            panic!("expected stats")
        };
        assert_eq!((workers, tasks, resolved), (1, 1, 1));
        // And keeps accepting new statements.
        e.run("INSERT WORKER 'carl'").unwrap();
        assert_eq!(e.db().num_workers(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn show_similar_finds_related_tasks() {
        let mut e = seeded_engine();
        let out = e.run("SHOW SIMILAR 'btree index buffer' LIMIT 2").unwrap();
        let QueryOutput::SimilarTasks(rows) = out else {
            panic!("expected similar tasks")
        };
        assert_eq!(rows.len(), 2);
        assert!(rows[0].1.contains("btree"), "{rows:?}");
        assert!(rows[0].2 >= rows[1].2);
        // Query with no known terms returns nothing.
        let out = e.run("SHOW SIMILAR 'zzz qqq'").unwrap();
        assert_eq!(out, QueryOutput::SimilarTasks(vec![]));
    }

    #[test]
    fn answers_are_stored() {
        let mut e = seeded_engine();
        e.run("ANSWER WORKER 0 ON TASK 0 TEXT 'split at the median key'")
            .unwrap();
        assert!(e.db().answer(WorkerId(0), crowd_store::TaskId(0)).is_some());
    }

    #[test]
    fn explain_renders_plans_without_executing() {
        let mut e = QueryEngine::new();
        // The inner select would fail at execution time (no workers), but
        // EXPLAIN only compiles and renders.
        let out = e
            .run("EXPLAIN SELECT WORKERS FOR TASK 'btree split' LIMIT 2")
            .unwrap();
        let QueryOutput::Plan(text) = out else {
            panic!("expected a plan")
        };
        assert!(text.contains("Scan workers filter=all"), "{text}");
        assert!(text.contains("Score"), "{text}");
        assert_eq!(e.db().num_workers(), 0, "EXPLAIN never touches storage");
        // The API equivalent renders the same text.
        let stmt = crate::parse("SELECT WORKERS FOR TASK 'btree split' LIMIT 2").unwrap();
        assert_eq!(e.explain(&stmt), text);
    }

    #[test]
    fn custom_backends_are_queryable() {
        use crowd_select::{
            CrowdSelector, FitDiagnostics, FitOutcome, RankedWorker, SelectError, SelectorBackend,
        };
        use crowd_text::BagOfWords;

        /// Ranks whoever has the largest id — observably not VSM/TDPM.
        struct ByIdSelector;
        impl CrowdSelector for ByIdSelector {
            fn name(&self) -> &'static str {
                "BYID"
            }
            fn rank(&self, _task: &BagOfWords, candidates: &[WorkerId]) -> Vec<RankedWorker> {
                let scored = candidates.iter().map(|&w| (w, f64::from(w.0)));
                crowd_select::top_k(scored, candidates.len())
            }
        }
        struct ByIdBackend;
        impl SelectorBackend for ByIdBackend {
            fn name(&self) -> &'static str {
                "byid"
            }
            fn fit(&self, _db: &CrowdDb, _opts: &FitOptions) -> Result<FitOutcome, SelectError> {
                Ok(FitOutcome::new(
                    Box::new(ByIdSelector),
                    FitDiagnostics::closed_form(),
                ))
            }
        }

        let mut registry = standard_registry();
        registry.register(Box::new(ByIdBackend));
        let mut e = QueryEngine::with_db_and_registry(CrowdDb::new(), registry);
        e.run("INSERT WORKER 'a'").unwrap();
        e.run("INSERT WORKER 'b'").unwrap();
        let QueryOutput::Workers(rows) = e.run("SELECT WORKERS FOR TASK 'q' USING byid").unwrap()
        else {
            panic!("expected workers")
        };
        assert_eq!(rows[0].handle, "b", "largest id wins under byid");
    }

    // ---- deadline / cancellation / budget / degradation -----------------

    use crate::exec::{CancelToken, QueryContext};
    use std::sync::Arc as StdArc;
    use std::time::Duration;

    fn snapshot_obs(e: &mut QueryEngine) -> StdArc<crowd_obs::Registry> {
        let metrics = StdArc::new(crowd_obs::Registry::new());
        e.set_obs(crowd_obs::Obs::new(
            metrics.clone(),
            crowd_obs::Tracer::noop(),
        ));
        metrics
    }

    #[test]
    fn cancelled_context_is_always_a_typed_error() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        let token = CancelToken::new();
        token.cancel();
        // Even under the partial policy: cancellation means stop, not degrade.
        let ctx = QueryContext::unbounded()
            .with_cancellation(token)
            .degrade_to_partial();
        let err = e
            .run_with("SELECT WORKERS FOR TASK 'btree' USING vsm", &ctx)
            .unwrap_err();
        assert_eq!(err, QueryError::Cancelled);
        assert_eq!(metrics.snapshot().counter("query", "cancelled"), Some(1));
    }

    #[test]
    fn expired_deadline_errors_under_the_default_policy() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        let ctx = QueryContext::unbounded().with_deadline(Duration::ZERO);
        let err = e
            .run_with("SELECT WORKERS FOR TASK 'btree' USING vsm", &ctx)
            .unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "deadline_exceeded"), Some(1));
        assert_eq!(snap.counter("query", "degraded"), None);
    }

    #[test]
    fn expired_deadline_degrades_a_select_when_asked() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        let ctx = QueryContext::unbounded()
            .with_deadline(Duration::ZERO)
            .degrade_to_partial();
        let out = e
            .run_with("SELECT WORKERS FOR TASK 'btree' USING vsm", &ctx)
            .unwrap();
        let QueryOutput::Workers(table) = out else {
            panic!("expected workers")
        };
        assert!(table.degraded, "expired before any scoring: empty prefix");
        assert!(table.is_empty());
        assert!(table.elapsed.is_some(), "contextual runs are timed");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "degraded"), Some(1));
        assert_eq!(snap.counter("query", "deadline_exceeded"), None);
    }

    #[test]
    fn mutations_never_degrade() {
        let mut e = seeded_engine();
        let ctx = QueryContext::unbounded()
            .with_deadline(Duration::ZERO)
            .degrade_to_partial();
        let err = e.run_with("INSERT WORKER 'late'", &ctx).unwrap_err();
        assert_eq!(err, QueryError::DeadlineExceeded);
        assert_eq!(e.db().num_workers(), 2, "no partial mutation happened");
    }

    #[test]
    fn row_budget_yields_a_partial_prefix_under_partial_policy() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        // Budget 0: the first kernel chunk is refused, so the TDPM ranking
        // comes back as an honest empty prefix.
        let ctx = QueryContext::unbounded()
            .with_row_budget(0)
            .degrade_to_partial();
        let out = e
            .run_with("SELECT WORKERS FOR TASK 'btree index' LIMIT 2", &ctx)
            .unwrap();
        let QueryOutput::Workers(table) = out else {
            panic!("expected workers")
        };
        assert!(table.degraded);
        assert!(table.is_empty());

        // A budget large enough for the whole pool changes nothing.
        let ctx = QueryContext::unbounded().with_row_budget(1_000_000);
        let QueryOutput::Workers(full) = e
            .run_with("SELECT WORKERS FOR TASK 'btree index' LIMIT 2", &ctx)
            .unwrap()
        else {
            panic!("expected workers")
        };
        assert!(!full.degraded);
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn budget_errors_under_the_default_policy() {
        let mut e = seeded_engine();
        let ctx = QueryContext::unbounded().with_row_budget(0);
        let err = e
            .run_with("SELECT WORKERS FOR TASK 'btree' USING vsm", &ctx)
            .unwrap_err();
        assert_eq!(err, QueryError::BudgetExhausted);
    }

    #[test]
    fn never_firing_context_is_bit_identical_to_the_plain_path() {
        let mut e = seeded_engine();
        e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
        for backend in ["tdpm", "vsm", "drm", "tspm"] {
            let stmt =
                format!("SELECT WORKERS FOR TASK 'btree index buffer' LIMIT 2 USING {backend}");
            let QueryOutput::Workers(plain) = e.run(&stmt).unwrap() else {
                panic!("expected workers")
            };
            let ctx = QueryContext::unbounded()
                .with_deadline(Duration::from_secs(3600))
                .with_row_budget(1 << 40)
                .with_cancellation(CancelToken::new());
            let QueryOutput::Workers(guarded) = e.run_with(&stmt, &ctx).unwrap() else {
                panic!("expected workers")
            };
            assert!(!guarded.degraded, "{backend}");
            assert_eq!(guarded.len(), plain.len(), "{backend}");
            for (a, b) in guarded.iter().zip(&plain) {
                assert_eq!(a.worker, b.worker, "{backend}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "{backend}");
            }
            assert!(guarded.elapsed.is_some() && plain.elapsed.is_none());
        }
    }

    // ---- admission control ----------------------------------------------

    #[test]
    fn admission_sheds_and_recovers() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        e.set_admission(Some(crate::admission::AdmissionConfig {
            max_concurrent: 1,
            max_queue: 0,
            queue_timeout: Duration::from_millis(5),
        }));
        // Occupy the only slot from outside, as a concurrent query would.
        let ctl = StdArc::clone(e.admission().expect("admission installed"));
        let held = ctl.admit().expect("slot");
        let err = e
            .run("SELECT WORKERS FOR TASK 'btree' USING vsm")
            .unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::Admission(crate::admission::AdmissionError::Shed { .. })
            ),
            "{err}"
        );
        drop(held);
        let QueryOutput::Workers(table) =
            e.run("SELECT WORKERS FOR TASK 'btree' USING vsm").unwrap()
        else {
            panic!("expected workers")
        };
        assert_eq!(table.queue_wait, Some(Duration::ZERO), "no queueing");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "admission_shed"), Some(1));
        assert_eq!(snap.counter("query", "admission_admitted"), Some(1));
        assert_eq!(snap.counter("query", "admission_queued"), None);
        assert_eq!(
            snap.histogram("query", "queue_wait_seconds")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn admission_queue_timeout_is_typed() {
        let mut e = seeded_engine();
        e.set_admission(Some(crate::admission::AdmissionConfig {
            max_concurrent: 1,
            max_queue: 4,
            queue_timeout: Duration::from_millis(5),
        }));
        let ctl = StdArc::clone(e.admission().expect("admission installed"));
        let held = ctl.admit().expect("slot");
        let err = e.run("SHOW STATS").unwrap_err();
        assert!(
            matches!(
                err,
                QueryError::Admission(crate::admission::AdmissionError::QueueTimeout { .. })
            ),
            "{err}"
        );
        drop(held);
        assert!(e.run("SHOW STATS").is_ok());
    }

    // ---- fault injection + retry ----------------------------------------

    fn fast_retry() -> crate::RetryPolicy {
        crate::RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(50),
        }
    }

    #[test]
    fn armed_transient_faults_exhaust_retries_deterministically() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        e.set_retry_policy(fast_retry());
        e.set_fault_injection(Some(
            crowd_sim::QueryFaultPlan::new(17).with_transient_error(1.0),
        ));
        let err = e.run("INSERT WORKER 'x'").unwrap_err();
        let QueryError::RetriesExhausted { attempts, last } = err else {
            panic!("expected RetriesExhausted")
        };
        assert_eq!(attempts, 4);
        assert!(last.contains("injected"), "{last}");
        assert_eq!(e.db().num_workers(), 2, "the mutation never landed");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("query", "faults_injected"), Some(4));
        assert_eq!(snap.counter("query", "retries"), Some(3));

        // Disarming restores clean execution.
        e.set_fault_injection(None);
        e.run("INSERT WORKER 'x'").unwrap();
        assert_eq!(e.db().num_workers(), 3);
    }

    #[test]
    fn latency_faults_stall_but_never_corrupt() {
        let mut e = seeded_engine();
        let metrics = snapshot_obs(&mut e);
        e.set_fault_injection(Some(
            crowd_sim::QueryFaultPlan::new(42)
                .with_latency(1.0)
                .with_latency_delay(Duration::from_micros(50)),
        ));
        e.run("INSERT WORKER 'slow'").unwrap();
        assert_eq!(e.db().num_workers(), 3);
        let snap = metrics.snapshot();
        assert!(snap.counter("query", "faults_injected").unwrap_or(0) >= 1);
        assert_eq!(snap.counter("query", "retries"), None, "stalls, not errors");
    }
}
