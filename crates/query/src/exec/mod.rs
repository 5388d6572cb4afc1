//! Plan execution with per-node instrumentation, deadline/cancellation
//! checkpoints, degradation and a fault-disciplined storage boundary.
//!
//! The executor walks a [`LogicalPlan`]'s nodes in order, moving values
//! between [`VarId`] slots, against the engine's storage, selector
//! registry and projection cache. Every node records its wall-clock under
//! `query/plan_node_seconds_<kind>` so a [`crowd_obs::MetricsSnapshot`]
//! shows where a statement spent its time, node by node.
//!
//! Execution is bit-identical to the pre-plan engine: `Scan` and `Bind`
//! reproduce the historical error precedence (empty candidate pool before
//! unknown backend / missing model), `Project` serves Algorithm-3
//! projections through the same LRU cache (and owns the
//! `select_cache_{hit,miss}` counters), and `Score` — with the `TopK`
//! limit pushed down by the compiler — makes one
//! [`crowd_core::TdpmModel::select`] call per plan with the context's guard
//! in its [`crowd_core::ScoreSpec`], so the query's [`QueryContext`] is
//! polled at every kernel checkpoint.
//!
//! **Robustness model.** [`execute_ctx`] checkpoints the context at every
//! node boundary and inside the dense kernels. An interruption
//! (cancellation, deadline, budget) either surfaces as a typed
//! [`QueryError`] or — for `SELECT` plans under
//! [`DegradePolicy::Partial`] — flips the walk into *degraded mode*: the
//! honestly-scored prefix is kept, the remaining expensive nodes are
//! skipped, and every affected result table is marked `degraded`.
//! Cancellation always errors. Storage operations (`Scan` reads, `Mutate`
//! writes) run under [`faults::with_retries`]: bounded-backoff retry for
//! transient failures plus the deterministic seeded fault injection the
//! chaos suite drives. Interruption checkpoints never land *inside* a
//! storage mutation, so shared state is never poisoned mid-update.

pub(crate) mod context;
pub(crate) mod faults;
pub(crate) mod storage;

pub use context::{CancelToken, CtxGuard, DegradePolicy, Interruption, QueryContext};

use crate::ast::BackendName;
use crate::engine::QueryEngine;
use crate::output::{QueryOutput, WorkerTable};
use crate::plan::{LogicalPlan, PlanNode, VarId};
use crate::QueryError;
use crowd_core::{Precision, ScoreSpec, TaskProjection, TdpmModel};
use crowd_select::{BatchQuery, FittedSelector, RankedWorker};
use crowd_store::WorkerId;
use crowd_text::{tokenize_filtered, BagOfWords};
use std::borrow::Cow;
use std::time::Duration;

/// One query after `Project`: its bag of words over the stored vocabulary,
/// plus the Algorithm-3 projection when the bound snapshot is a TDPM model.
pub(crate) struct PreparedQuery {
    bow: BagOfWords,
    projection: Option<TaskProjection>,
}

/// One query's ranking out of `Score`, with the honesty bit: `complete`
/// is `false` when the context stopped the kernel before the whole pool
/// was scored (the rows are then a scanned-prefix ranking).
struct Scored {
    ranked: Vec<RankedWorker>,
    complete: bool,
}

/// A value flowing through a plan slot.
enum Value {
    /// Candidate pool from `Scan`.
    Candidates(Vec<WorkerId>),
    /// Prepared queries from `Project`.
    Queries(Vec<PreparedQuery>),
    /// Per-query rankings from `Score` / `TopK`.
    Ranked(Vec<Scored>),
    /// Per-query result tables from `Merge`.
    Tables(Vec<WorkerTable>),
    /// Backend binding marker from `Bind` (the snapshot lives in engine
    /// state; the marker carries the name downstream nodes resolve it by).
    Bound(BackendName),
    /// A finished statement output (mutations, `TRAIN`, `SHOW`, `EXPLAIN`).
    Out(QueryOutput),
}

fn internal(what: &str) -> QueryError {
    QueryError::Execution(format!("internal plan error: {what}"))
}

fn take(slots: &mut [Option<Value>], var: VarId) -> Result<Value, QueryError> {
    slots
        .get_mut(var.0)
        .and_then(Option::take)
        .ok_or_else(|| internal("read from an empty slot"))
}

/// Maps an interruption to its typed error, counting it
/// (`query/cancelled`, `query/deadline_exceeded`, `query/budget_exhausted`)
/// so every non-success outcome is visible in a metrics snapshot.
fn interruption_error(engine: &QueryEngine, i: Interruption) -> QueryError {
    let name = match i {
        Interruption::Cancelled => "cancelled",
        Interruption::DeadlineExceeded => "deadline_exceeded",
        Interruption::BudgetExhausted => "budget_exhausted",
    };
    engine.obs.metrics.counter("query", name).inc();
    QueryError::from(i)
}

/// Decides what an interruption means for this plan: degrade (return
/// `Ok`, counting `query/degraded`) when the query opted into partial
/// results, the plan is a `SELECT` and the cause is not cancellation;
/// otherwise raise the typed error.
fn absorb_or_raise(
    engine: &QueryEngine,
    ctx: &QueryContext,
    plan_selects: bool,
    i: Interruption,
) -> Result<(), QueryError> {
    if plan_selects && i != Interruption::Cancelled && ctx.policy() == DegradePolicy::Partial {
        engine.obs.metrics.counter("query", "degraded").inc();
        Ok(())
    } else {
        Err(interruption_error(engine, i))
    }
}

/// Executes a plan under a [`QueryContext`], returning one [`QueryOutput`]
/// per covered statement (fused `SELECT` plans return one `Workers` output
/// per query, in input order). `queue_wait` is the admission-queue time to
/// stamp onto result tables, when the query went through admission
/// control.
pub(crate) fn execute_ctx(
    engine: &mut QueryEngine,
    plan: &LogicalPlan,
    ctx: &QueryContext,
    queue_wait: Option<Duration>,
) -> Result<Vec<QueryOutput>, QueryError> {
    let started = std::time::Instant::now();
    let plan_selects = plan
        .nodes
        .iter()
        .any(|n| matches!(n, PlanNode::Score { .. }));
    let mut degraded = false;
    let mut slots: Vec<Option<Value>> = std::iter::repeat_with(|| None).take(plan.slots).collect();
    let mut last: Option<VarId> = None;
    for node in &plan.nodes {
        // Node-boundary checkpoint: an interruption either errors out here
        // or flips the rest of the walk into degraded mode.
        if !degraded {
            if let Err(i) = ctx.check() {
                absorb_or_raise(engine, ctx, plan_selects, i)?;
                degraded = true;
            }
        }
        let node_started = std::time::Instant::now();
        let value = if degraded {
            run_node_degraded(engine, node, &mut slots)?
        } else {
            run_node(engine, node, &mut slots, ctx)?
        };
        // The kernels may have been stopped mid-Score by the context's
        // guard: the rankings come back honest (scanned prefix, marked
        // incomplete) and the policy decision is made here.
        if !degraded {
            if let Value::Ranked(scored) = &value {
                if scored.iter().any(|s| !s.complete) {
                    absorb_or_raise(engine, ctx, plan_selects, ctx.interruption())?;
                    degraded = true;
                }
            }
        }
        engine
            .obs
            .metrics
            .histogram("query", &format!("plan_node_seconds_{}", node.kind()))
            .observe_duration(node_started.elapsed());
        let out = node.out();
        *slots
            .get_mut(out.0)
            .ok_or_else(|| internal("write to an out-of-range slot"))? = Some(value);
        last = Some(out);
    }
    let Some(last) = last else {
        return Ok(Vec::new());
    };
    match take(&mut slots, last)? {
        Value::Tables(mut tables) => {
            // Only contextual executions stamp timings: unbounded runs stay
            // bit-identical (including `PartialEq`) to the historical
            // output.
            if queue_wait.is_some() || !ctx.is_unbounded() {
                let elapsed = started.elapsed();
                for table in &mut tables {
                    table.queue_wait = queue_wait;
                    table.elapsed = Some(elapsed);
                }
            }
            Ok(tables.into_iter().map(QueryOutput::Workers).collect())
        }
        Value::Out(output) => Ok(vec![output]),
        _ => Err(internal("plan ended on an intermediate value")),
    }
}

fn run_node(
    engine: &mut QueryEngine,
    node: &PlanNode,
    slots: &mut [Option<Value>],
    ctx: &QueryContext,
) -> Result<Value, QueryError> {
    match node {
        PlanNode::Scan { min_group, .. } => {
            // The candidate read runs under the storage failure discipline:
            // injected faults retry with bounded backoff, real errors (all
            // permanent today) surface immediately.
            let pool = faults::with_retries(
                ctx,
                &engine.retry,
                engine.faults.as_ref(),
                &engine.obs,
                |_: &QueryError| false,
                || engine.candidate_pool(*min_group),
            )?;
            Ok(Value::Candidates(pool))
        }
        PlanNode::Bind { backend, .. } => {
            engine.ensure_fitted(backend)?;
            Ok(Value::Bound(backend.clone()))
        }
        PlanNode::Project { texts, binding, .. } => {
            let Value::Bound(backend) = take(slots, *binding)? else {
                return Err(internal("Project without a binding"));
            };
            Ok(Value::Queries(prepare_queries(engine, &backend, texts)))
        }
        PlanNode::Score {
            backend,
            k,
            precision,
            queries,
            candidates,
            ..
        } => {
            let Value::Queries(queries) = take(slots, *queries)? else {
                return Err(internal("Score without prepared queries"));
            };
            let Value::Candidates(pool) = take(slots, *candidates)? else {
                return Err(internal("Score without a candidate pool"));
            };
            let fitted = engine
                .fitted
                .get(backend.as_str())
                .ok_or_else(|| internal("Score without a bound snapshot"))?;
            Ok(Value::Ranked(score_queries(
                fitted, &queries, &pool, *k, *precision, ctx,
            )))
        }
        PlanNode::TopK { k, input, .. } => {
            let Value::Ranked(mut ranked) = take(slots, *input)? else {
                return Err(internal("TopK without rankings"));
            };
            // The compiler pushed `k` down into Score, so this truncation
            // is a no-op — kept as the explicit logical boundary (and a
            // guard should a future compiler stop pushing down).
            for ranking in &mut ranked {
                ranking.ranked.truncate(*k);
            }
            Ok(Value::Ranked(ranked))
        }
        PlanNode::Merge { input, .. } => {
            let Value::Ranked(ranked) = take(slots, *input)? else {
                return Err(internal("Merge without rankings"));
            };
            Ok(Value::Tables(merge_tables(engine, ranked)))
        }
        PlanNode::Mutate { op, .. } => {
            let output = {
                let QueryEngine {
                    storage,
                    retry,
                    faults,
                    obs,
                    ..
                } = engine;
                faults::with_retries(
                    ctx,
                    retry,
                    faults.as_ref(),
                    obs,
                    crowd_store::StoreError::is_transient,
                    || storage.try_apply(op),
                )?
            };
            engine.invalidate(op.invalidates());
            Ok(Value::Out(output))
        }
        PlanNode::Fit {
            backend,
            categories,
            ..
        } => engine.train(backend, *categories).map(Value::Out),
        PlanNode::Inspect { target, .. } => engine.show(target).map(Value::Out),
        PlanNode::Explain { plan, .. } => Ok(Value::Out(QueryOutput::Plan(plan.render()))),
    }
}

/// Degraded-mode node execution, after an interruption was absorbed under
/// [`DegradePolicy::Partial`]: the remaining expensive work is skipped and
/// placeholder values flow through so the plan still terminates with one
/// (possibly empty) table per query. Only `SELECT` node kinds are legal
/// here — a plan cannot degrade into a mutation.
fn run_node_degraded(
    engine: &mut QueryEngine,
    node: &PlanNode,
    slots: &mut [Option<Value>],
) -> Result<Value, QueryError> {
    match node {
        PlanNode::Scan { .. } => Ok(Value::Candidates(Vec::new())),
        PlanNode::Bind { backend, .. } => Ok(Value::Bound(backend.clone())),
        PlanNode::Project { texts, binding, .. } => {
            take(slots, *binding)?;
            Ok(Value::Queries(
                texts
                    .iter()
                    .map(|_| PreparedQuery {
                        bow: BagOfWords::new(),
                        projection: None,
                    })
                    .collect(),
            ))
        }
        PlanNode::Score {
            queries,
            candidates,
            ..
        } => {
            let Value::Queries(queries) = take(slots, *queries)? else {
                return Err(internal("Score without prepared queries"));
            };
            take(slots, *candidates)?;
            Ok(Value::Ranked(
                queries
                    .iter()
                    .map(|_| Scored {
                        ranked: Vec::new(),
                        complete: false,
                    })
                    .collect(),
            ))
        }
        PlanNode::TopK { k, input, .. } => {
            let Value::Ranked(mut ranked) = take(slots, *input)? else {
                return Err(internal("TopK without rankings"));
            };
            for ranking in &mut ranked {
                ranking.ranked.truncate(*k);
            }
            Ok(Value::Ranked(ranked))
        }
        PlanNode::Merge { input, .. } => {
            let Value::Ranked(ranked) = take(slots, *input)? else {
                return Err(internal("Merge without rankings"));
            };
            Ok(Value::Tables(merge_tables(engine, ranked)))
        }
        _ => Err(internal("degraded execution reached a non-select node")),
    }
}

/// Decorates each ranking into its result table, carrying the per-query
/// honesty bit: a table built from an incomplete ranking is `degraded`.
fn merge_tables(engine: &QueryEngine, ranked: Vec<Scored>) -> Vec<WorkerTable> {
    ranked
        .into_iter()
        .map(|s| WorkerTable {
            rows: engine.to_rows(s.ranked),
            degraded: !s.complete,
            queue_wait: None,
            elapsed: None,
        })
        .collect()
}

/// Lowers task texts into bags of words over the stored vocabulary and,
/// when the bound snapshot is a TDPM model, resolves their Algorithm-3
/// projections through the engine's LRU cache — counting
/// `query/select_cache_{hit,miss}` per query, exactly like the pre-plan
/// select paths.
fn prepare_queries(
    engine: &mut QueryEngine,
    backend: &BackendName,
    texts: &[String],
) -> Vec<PreparedQuery> {
    // Disjoint borrows: the snapshot map is read while the cache is
    // written, so destructure instead of going through `&mut self` methods.
    let QueryEngine {
        storage,
        fitted,
        cache,
        obs,
        ..
    } = engine;
    let vocab = storage.db().vocab();
    let model = fitted
        .get(backend.as_str())
        .and_then(|f| Some((f.epoch(), f.downcast_ref::<TdpmModel>()?)));
    let metrics = &obs.metrics;
    texts
        .iter()
        .map(|text| {
            let bow = BagOfWords::from_known_tokens(&tokenize_filtered(text), vocab);
            let projection = model.map(|(epoch, model)| {
                let (projection, hit) =
                    cache.get_or_insert_with(epoch, &bow, || model.project_bow(&bow));
                let name = if hit {
                    "select_cache_hit"
                } else {
                    "select_cache_miss"
                };
                metrics.counter("query", name).inc();
                projection.clone()
            });
            PreparedQuery { bow, projection }
        })
        .collect()
}

/// Ranks every prepared query against the pool through the bound snapshot,
/// with the pushed-down limit driving the fused rank-and-truncate driver
/// and the context's guard polled at every kernel checkpoint.
///
/// Every TDPM plan — one query or a fused sweep — is one
/// [`TdpmModel::select`] call, bit-identical to the pre-context engine
/// whenever the context never fires (a never-firing guard runs the same
/// loop as none). Baselines have no guarded batch kernels and fall back to
/// the per-query path under a constraining context, which the selector
/// property suite pins bit-identical to `select_batch`.
///
/// `precision` routes TDPM scoring through the f32 skill mirror when the
/// engine opted in; baselines have no reduced-precision path and ignore it
/// (they always serve f64, as `Precision`'s contract documents).
fn score_queries(
    fitted: &FittedSelector,
    queries: &[PreparedQuery],
    pool: &[WorkerId],
    k: usize,
    precision: Precision,
    ctx: &QueryContext,
) -> Vec<Scored> {
    match fitted.downcast_ref::<TdpmModel>() {
        Some(model) => {
            // Project never misses the projection for a TDPM snapshot; the
            // fallback keeps this total without a panic path.
            let projections: Vec<Cow<'_, TaskProjection>> = queries
                .iter()
                .map(|q| match &q.projection {
                    Some(p) => Cow::Borrowed(p),
                    None => Cow::Owned(model.project_bow(&q.bow)),
                })
                .collect();
            let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
            let spec = ScoreSpec {
                precision,
                threads: None,
                guard: ctx.guard(),
            };
            model
                .select(&lambdas, pool, k, &spec)
                .into_iter()
                .map(|pr| Scored {
                    ranked: pr.ranked,
                    complete: pr.complete,
                })
                .collect()
        }
        None => {
            if let [query] = queries {
                match ctx.consume(pool.len() as u64) {
                    Ok(()) => vec![Scored {
                        ranked: fitted.selector().select(&query.bow, pool, k),
                        complete: true,
                    }],
                    Err(_) => vec![Scored {
                        ranked: Vec::new(),
                        complete: false,
                    }],
                }
            } else if ctx.is_unbounded() {
                let batch: Vec<BatchQuery<'_>> = queries
                    .iter()
                    .map(|q| BatchQuery {
                        bow: &q.bow,
                        candidates: pool,
                        task: None,
                    })
                    .collect();
                fitted
                    .select_batch(&batch, k)
                    .into_iter()
                    .map(|ranked| Scored {
                        ranked,
                        complete: true,
                    })
                    .collect()
            } else {
                // Constrained baseline sweep: the per-query loop checkpoints
                // between queries (one pool scan is the natural work unit for
                // a baseline selector) and is bit-identical to the batched
                // path by the PR 4 batching property.
                let mut out = Vec::with_capacity(queries.len());
                let mut stopped = false;
                for query in queries {
                    if stopped || ctx.consume(pool.len() as u64).is_err() {
                        stopped = true;
                        out.push(Scored {
                            ranked: Vec::new(),
                            complete: false,
                        });
                    } else {
                        out.push(Scored {
                            ranked: fitted.selector().select(&query.bow, pool, k),
                            complete: true,
                        });
                    }
                }
                out
            }
        }
    }
}
