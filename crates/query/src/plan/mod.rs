//! Logical plans for the crowd-query language.
//!
//! Every statement is *compiled* into a [`LogicalPlan`] — a short sequence
//! of typed [`PlanNode`]s connected by [`VarId`] slots (mirroring toasty's
//! `engine/plan` layout) — and then walked by the executor
//! (`crate::exec`). The split gives every cross-cutting concern a place to
//! hang: per-node metrics land in the executor, the projection-cache
//! decision is a compile-time plan property, batched `SELECT` sweeps fuse
//! into one plan, and `EXPLAIN` is nothing more than rendering the plan
//! instead of executing it.
//!
//! A `SELECT WORKERS` statement lowers to the canonical pipeline
//!
//! ```text
//! v0 <- Scan workers filter=all retry=transient<=3
//! v1 <- Bind backend=tdpm lazy_fit=false
//! v2 <- Project[v1] cache=projection texts=['btree split']
//! v3 <- Score[v2, v0] backend=tdpm k=2 guard=deadline,cancel,budget precision=f64 pool=persistent
//! v4 <- TopK[v3] k=2 on_interrupt=error|partial
//! v5 <- Merge[v4]
//! ```
//!
//! where `Scan` materializes the candidate pool, `Bind` resolves (and, for
//! lazily fittable backends, fits) the serving snapshot, `Project` turns
//! task text into bags of words and — for TDPM — Algorithm-3 projections
//! through the projection cache, `Score` ranks candidates per query (the
//! compiler pushes the `TopK` limit down into `Score` so the executor can
//! drive the fused rank-and-truncate driver of
//! [`crowd_core::TdpmModel::select`]), `TopK` truncates, and `Merge`
//! decorates the rankings with worker handles in query order. Mutations,
//! `TRAIN MODEL`, `SHOW` and `EXPLAIN` lower to the single-node plans
//! [`PlanNode::Mutate`], [`PlanNode::Fit`], [`PlanNode::Inspect`] and
//! [`PlanNode::Explain`].

mod compile;

pub use compile::{compile, compile_select_batch};

use crate::ast::{BackendName, ShowTarget};
use crowd_select::DbMutation;
use crowd_store::{TaskId, WorkerId};
use std::fmt;

/// A slot connecting plan nodes: each node writes its result into its `out`
/// slot and reads its inputs from the slots of upstream nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The compiler's projection-cache decision for a [`PlanNode::Project`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// Projections flow through the engine's LRU projection cache (the
    /// TDPM path; hits and misses are counted at this node).
    Projection,
    /// The backend has no task projection — queries stay plain bags of
    /// words and never touch the cache.
    Bypass,
}

impl fmt::Display for CacheDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheDecision::Projection => "projection",
            CacheDecision::Bypass => "bypass",
        })
    }
}

/// One storage mutation, as carried by a [`PlanNode::Mutate`].
///
/// Each variant knows which [`DbMutation`] class it is
/// ([`MutationOp::invalidates`]), so the executor applies the write and the
/// snapshot invalidation from one value — adding a mutation statement means
/// adding one variant here plus one arm in the executor's dispatch, not a
/// forwarding method per storage flavour.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// `INSERT WORKER 'handle'`
    InsertWorker {
        /// Display handle.
        handle: String,
    },
    /// `INSERT TASK 'text'`
    InsertTask {
        /// Task text.
        text: String,
    },
    /// `ASSIGN WORKER w TO TASK t`
    Assign {
        /// The worker.
        worker: WorkerId,
        /// The task.
        task: TaskId,
    },
    /// `FEEDBACK WORKER w ON TASK t SCORE s`
    Feedback {
        /// The worker.
        worker: WorkerId,
        /// The task.
        task: TaskId,
        /// The score `s_ij`.
        score: f64,
    },
    /// `ANSWER WORKER w ON TASK t TEXT 'answer'`
    Answer {
        /// The worker.
        worker: WorkerId,
        /// The task.
        task: TaskId,
        /// Answer text.
        text: String,
    },
}

impl MutationOp {
    /// The invalidation class this write belongs to (what the engine hands
    /// to [`crowd_select::SelectorBackend::invalidated_by`] afterwards).
    pub fn invalidates(&self) -> DbMutation {
        match self {
            MutationOp::InsertWorker { .. } => DbMutation::WorkerAdded,
            MutationOp::InsertTask { .. } => DbMutation::TaskAdded,
            MutationOp::Assign { .. } => DbMutation::Assigned,
            MutationOp::Feedback { .. } => DbMutation::Feedback,
            MutationOp::Answer { .. } => DbMutation::Answer,
        }
    }
}

impl fmt::Display for MutationOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutationOp::InsertWorker { handle } => {
                write!(f, "op=insert-worker handle={}", quote(handle))
            }
            MutationOp::InsertTask { text } => write!(f, "op=insert-task text={}", quote(text)),
            MutationOp::Assign { worker, task } => {
                write!(f, "op=assign worker={worker} task={task}")
            }
            MutationOp::Feedback {
                worker,
                task,
                score,
            } => write!(f, "op=feedback worker={worker} task={task} score={score}"),
            MutationOp::Answer { worker, task, text } => {
                write!(
                    f,
                    "op=answer worker={worker} task={task} text={}",
                    quote(text)
                )
            }
        }
    }
}

/// One typed node of a [`LogicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Materializes the candidate worker pool from storage, honoring the
    /// optional `WHERE GROUP >= n` filter. Errors when the pool is empty.
    Scan {
        /// Minimum resolved-task count per candidate, if filtered.
        min_group: Option<usize>,
        /// Output slot: the candidate pool.
        out: VarId,
    },
    /// Resolves the serving snapshot for a backend, fitting it on demand if
    /// the backend allows lazy fits; errors for explicit-fit backends
    /// (TDPM) with no trained model.
    Bind {
        /// The backend to bind.
        backend: BackendName,
        /// Whether the registry said the backend may be fitted lazily
        /// (`None` when the backend was unknown at compile time — the
        /// executor re-resolves and reports the full error).
        lazy_fit: Option<bool>,
        /// Output slot: a binding marker (the snapshot itself lives in
        /// engine state).
        out: VarId,
    },
    /// Turns task texts into bags of words over the stored vocabulary and —
    /// when the bound snapshot is a TDPM model — into Algorithm-3
    /// projections through the projection cache (cache hits/misses are
    /// counted here).
    Project {
        /// Query task texts, in statement order.
        texts: Vec<String>,
        /// The compiler's cache expectation (rendered in `EXPLAIN`; the
        /// executor follows the bound snapshot's actual type).
        cache: CacheDecision,
        /// Input slot: the backend binding.
        binding: VarId,
        /// Output slot: one prepared query per text.
        out: VarId,
    },
    /// Scores every candidate for every prepared query through the bound
    /// snapshot. The `TopK` limit is pushed down at compile time so the
    /// executor can run the fused rank-and-truncate kernels (dense batch
    /// kernels for TDPM, [`crowd_select::CrowdSelector::select_batch`] for
    /// everything else) — bit-identical to scoring everything and
    /// truncating afterwards, without the full sort.
    Score {
        /// The backend serving this plan.
        backend: BackendName,
        /// Pushed-down top-k limit.
        k: usize,
        /// Serving precision (engine policy at compile time). Only the
        /// TDPM dense kernels have an f32 mirror; baselines serve in f64
        /// regardless, and the executor follows the bound snapshot's type.
        precision: crowd_core::Precision,
        /// Input slot: prepared queries.
        queries: VarId,
        /// Input slot: candidate pool.
        candidates: VarId,
        /// Output slot: one ranking per query.
        out: VarId,
    },
    /// Truncates each ranking to `k` (a no-op after limit pushdown; kept as
    /// the explicit logical boundary).
    TopK {
        /// Top-k limit.
        k: usize,
        /// Input slot: rankings.
        input: VarId,
        /// Output slot: truncated rankings.
        out: VarId,
    },
    /// Decorates rankings with worker handles, preserving query order, and
    /// emits one result table per query.
    Merge {
        /// Input slot: truncated rankings.
        input: VarId,
        /// Output slot: result tables.
        out: VarId,
    },
    /// Applies one storage mutation and invalidates dependent snapshots.
    Mutate {
        /// The write to apply.
        op: MutationOp,
        /// Output slot: the statement acknowledgement.
        out: VarId,
    },
    /// Explicitly fits a backend (`TRAIN MODEL`).
    Fit {
        /// The backend to fit.
        backend: BackendName,
        /// Latent category count.
        categories: usize,
        /// Output slot: the training report.
        out: VarId,
    },
    /// Read-only inspection (`SHOW …`).
    Inspect {
        /// What to show.
        target: ShowTarget,
        /// Output slot: the report.
        out: VarId,
    },
    /// Renders a sub-plan instead of executing it (`EXPLAIN …`).
    Explain {
        /// The compiled plan of the inner statement.
        plan: Box<LogicalPlan>,
        /// Output slot: the rendered plan text.
        out: VarId,
    },
}

impl PlanNode {
    /// Short lowercase node kind, used as the
    /// `query/plan_node_seconds_<kind>` metric suffix.
    pub fn kind(&self) -> &'static str {
        match self {
            PlanNode::Scan { .. } => "scan",
            PlanNode::Bind { .. } => "bind",
            PlanNode::Project { .. } => "project",
            PlanNode::Score { .. } => "score",
            PlanNode::TopK { .. } => "topk",
            PlanNode::Merge { .. } => "merge",
            PlanNode::Mutate { .. } => "mutate",
            PlanNode::Fit { .. } => "fit",
            PlanNode::Inspect { .. } => "inspect",
            PlanNode::Explain { .. } => "explain",
        }
    }

    /// The slot this node writes.
    pub fn out(&self) -> VarId {
        match self {
            PlanNode::Scan { out, .. }
            | PlanNode::Bind { out, .. }
            | PlanNode::Project { out, .. }
            | PlanNode::Score { out, .. }
            | PlanNode::TopK { out, .. }
            | PlanNode::Merge { out, .. }
            | PlanNode::Mutate { out, .. }
            | PlanNode::Fit { out, .. }
            | PlanNode::Inspect { out, .. }
            | PlanNode::Explain { out, .. } => *out,
        }
    }
}

/// A compiled statement: plan nodes in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Nodes, in execution order.
    pub nodes: Vec<PlanNode>,
    /// Number of [`VarId`] slots the executor must allocate.
    pub slots: usize,
}

impl LogicalPlan {
    /// Renders the plan deterministically, one node per line — the payload
    /// of `EXPLAIN`. The rendering depends only on the compiled plan (never
    /// on runtime state), so it is stable across runs and snapshot-testable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, indent: usize, out: &mut String) {
        use fmt::Write as _;
        for node in &self.nodes {
            for _ in 0..indent {
                out.push(' ');
            }
            // Writing into a String cannot fail; ignore the fmt plumbing.
            let _ = write!(out, "{} <- ", node.out());
            match node {
                PlanNode::Scan { min_group, out: _ } => {
                    let _ = match min_group {
                        None => write!(out, "Scan workers filter=all"),
                        Some(n) => write!(out, "Scan workers filter=group>={n}"),
                    };
                    out.push_str(" retry=transient<=3");
                }
                PlanNode::Bind {
                    backend, lazy_fit, ..
                } => {
                    let _ = write!(out, "Bind backend={backend} lazy_fit=");
                    let _ = match lazy_fit {
                        Some(l) => write!(out, "{l}"),
                        None => write!(out, "unknown"),
                    };
                }
                PlanNode::Project {
                    texts,
                    cache,
                    binding,
                    ..
                } => {
                    let _ = write!(out, "Project[{binding}] cache={cache} texts=[");
                    for (i, t) in texts.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&quote(t));
                    }
                    out.push(']');
                }
                PlanNode::Score {
                    backend,
                    k,
                    precision,
                    queries,
                    candidates,
                    ..
                } => {
                    let _ = write!(
                        out,
                        "Score[{queries}, {candidates}] backend={backend} k={k} guard=deadline,cancel,budget precision={precision} pool=persistent"
                    );
                }
                PlanNode::TopK { k, input, .. } => {
                    let _ = write!(out, "TopK[{input}] k={k} on_interrupt=error|partial");
                }
                PlanNode::Merge { input, .. } => {
                    let _ = write!(out, "Merge[{input}]");
                }
                PlanNode::Mutate { op, .. } => {
                    let _ = write!(
                        out,
                        "Mutate {op} invalidates={} retry=transient<=3",
                        mutation_name(op)
                    );
                }
                PlanNode::Fit {
                    backend,
                    categories,
                    ..
                } => {
                    let _ = write!(out, "Fit backend={backend} categories={categories}");
                }
                PlanNode::Inspect { target, .. } => {
                    let _ = write!(out, "Inspect ");
                    let _ = match target {
                        ShowTarget::Stats => write!(out, "stats"),
                        ShowTarget::Worker(w) => write!(out, "worker={w}"),
                        ShowTarget::Task(t) => write!(out, "task={t}"),
                        ShowTarget::Groups(ns) => {
                            let _ = write!(out, "groups=[");
                            for (i, n) in ns.iter().enumerate() {
                                if i > 0 {
                                    out.push_str(", ");
                                }
                                let _ = write!(out, "{n}");
                            }
                            write!(out, "]")
                        }
                        ShowTarget::Similar { text, limit } => {
                            write!(out, "similar={} limit={limit}", quote(text))
                        }
                    };
                }
                PlanNode::Explain { plan, .. } => {
                    out.push_str("Explain");
                    out.push('\n');
                    plan.render_into(indent + 2, out);
                    continue; // the sub-plan already ended with a newline
                }
            }
            out.push('\n');
        }
    }
}

/// Stable lowercase name of a mutation's invalidation class.
fn mutation_name(op: &MutationOp) -> &'static str {
    match op.invalidates() {
        DbMutation::WorkerAdded => "worker-added",
        DbMutation::TaskAdded => "task-added",
        DbMutation::Assigned => "assigned",
        DbMutation::Feedback => "feedback",
        DbMutation::Answer => "answer",
    }
}

/// Quotes a string literal the way the query language writes it.
fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ids_display_as_slots() {
        assert_eq!(VarId(3).to_string(), "v3");
    }

    #[test]
    fn mutation_ops_know_their_invalidation_class() {
        let cases: Vec<(MutationOp, DbMutation)> = vec![
            (
                MutationOp::InsertWorker { handle: "a".into() },
                DbMutation::WorkerAdded,
            ),
            (
                MutationOp::InsertTask { text: "t".into() },
                DbMutation::TaskAdded,
            ),
            (
                MutationOp::Assign {
                    worker: WorkerId(0),
                    task: TaskId(1),
                },
                DbMutation::Assigned,
            ),
            (
                MutationOp::Feedback {
                    worker: WorkerId(0),
                    task: TaskId(1),
                    score: 4.0,
                },
                DbMutation::Feedback,
            ),
            (
                MutationOp::Answer {
                    worker: WorkerId(0),
                    task: TaskId(1),
                    text: "x".into(),
                },
                DbMutation::Answer,
            ),
        ];
        for (op, want) in cases {
            assert_eq!(op.invalidates(), want, "{op}");
        }
    }

    #[test]
    fn render_quotes_and_escapes_literals() {
        let plan = LogicalPlan {
            nodes: vec![PlanNode::Mutate {
                op: MutationOp::InsertWorker {
                    handle: "it's ada".into(),
                },
                out: VarId(0),
            }],
            slots: 1,
        };
        let text = plan.render();
        assert!(text.contains("'it''s ada'"), "{text}");
        assert!(text.contains("invalidates=worker-added"), "{text}");
    }
}
