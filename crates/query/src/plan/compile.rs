//! Lowering parsed statements into logical plans.
//!
//! Compilation is infallible and side-effect free: name resolution that can
//! fail (unknown backends, missing models, empty candidate pools) is left to
//! the executor so error precedence matches the pre-plan engine exactly —
//! an empty pool is reported before an unknown backend, because `Scan` runs
//! before `Bind`. The compiler's one cross-statement optimization is
//! *select fusion* ([`compile_select_batch`]): a sweep of `SELECT WORKERS`
//! statements over one candidate pool lowers to a single plan whose
//! `Project`/`Score` nodes carry every query, bottoming out in one batched
//! selection call ([`crowd_core::TdpmModel::select`],
//! [`crowd_select::CrowdSelector::select_batch`]).

use super::{CacheDecision, LogicalPlan, MutationOp, PlanNode, VarId};
use crate::ast::{BackendName, Statement};
use crowd_core::Precision;
use crowd_select::SelectorRegistry;

/// Incrementally numbers slots while nodes are appended.
struct PlanBuilder {
    nodes: Vec<PlanNode>,
    next: usize,
}

impl PlanBuilder {
    fn new() -> Self {
        PlanBuilder {
            nodes: Vec::new(),
            next: 0,
        }
    }

    fn var(&mut self) -> VarId {
        let v = VarId(self.next);
        self.next += 1;
        v
    }

    fn push(&mut self, node: PlanNode) {
        self.nodes.push(node);
    }

    fn finish(self) -> LogicalPlan {
        LogicalPlan {
            nodes: self.nodes,
            slots: self.next,
        }
    }
}

/// Compiles one statement into its logical plan.
///
/// `registry` is consulted only for compile-time plan *properties* (a
/// backend's lazy-fit flag, the projection-cache decision); resolution
/// errors still surface at execution time. `precision` is the serving
/// policy (what the engine passes from
/// [`crate::QueryEngine::set_precision`]), a compile-time plan property
/// stamped onto `Score` nodes and rendered by `EXPLAIN`.
pub fn compile(stmt: &Statement, registry: &SelectorRegistry, precision: Precision) -> LogicalPlan {
    match stmt {
        Statement::InsertWorker { handle } => mutation(MutationOp::InsertWorker {
            handle: handle.clone(),
        }),
        Statement::InsertTask { text } => mutation(MutationOp::InsertTask { text: text.clone() }),
        Statement::Assign { worker, task } => mutation(MutationOp::Assign {
            worker: *worker,
            task: *task,
        }),
        Statement::Feedback {
            worker,
            task,
            score,
        } => mutation(MutationOp::Feedback {
            worker: *worker,
            task: *task,
            score: *score,
        }),
        Statement::Answer { worker, task, text } => mutation(MutationOp::Answer {
            worker: *worker,
            task: *task,
            text: text.clone(),
        }),
        Statement::TrainModel { categories } => {
            let mut b = PlanBuilder::new();
            let out = b.var();
            b.push(PlanNode::Fit {
                backend: BackendName::default(),
                categories: *categories,
                out,
            });
            b.finish()
        }
        Statement::SelectWorkers {
            text,
            limit,
            backend,
            min_group,
        } => select_plan(
            std::slice::from_ref(text),
            *limit,
            backend.clone(),
            *min_group,
            registry,
            precision,
        ),
        Statement::Show(target) => {
            let mut b = PlanBuilder::new();
            let out = b.var();
            b.push(PlanNode::Inspect {
                target: target.clone(),
                out,
            });
            b.finish()
        }
        Statement::Explain(inner) => {
            let mut b = PlanBuilder::new();
            let out = b.var();
            b.push(PlanNode::Explain {
                plan: Box::new(compile(inner, registry, precision)),
                out,
            });
            b.finish()
        }
    }
}

/// Compiles a fused plan for a sweep of `SELECT WORKERS` statements sharing
/// one backend, limit and candidate filter — the plan behind
/// [`crate::QueryEngine::select_workers_batch`]. Equivalent to compiling
/// and executing the statements one at a time (bit-identical rankings), but
/// the candidate pool is scanned once and all queries flow through the
/// batched scoring kernels. `registry` and `precision` play the same roles
/// as in [`compile`].
pub fn compile_select_batch(
    texts: &[&str],
    limit: usize,
    backend: &BackendName,
    min_group: Option<usize>,
    registry: &SelectorRegistry,
    precision: Precision,
) -> LogicalPlan {
    let owned: Vec<String> = texts.iter().map(|t| (*t).to_string()).collect();
    select_plan(
        &owned,
        limit,
        backend.clone(),
        min_group,
        registry,
        precision,
    )
}

fn mutation(op: MutationOp) -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let out = b.var();
    b.push(PlanNode::Mutate { op, out });
    b.finish()
}

/// The canonical Scan → Bind → Project → Score → TopK → Merge pipeline.
fn select_plan(
    texts: &[String],
    limit: usize,
    backend: BackendName,
    min_group: Option<usize>,
    registry: &SelectorRegistry,
    precision: Precision,
) -> LogicalPlan {
    let mut b = PlanBuilder::new();

    let candidates = b.var();
    b.push(PlanNode::Scan {
        min_group,
        out: candidates,
    });

    // Plan properties resolved against the registry at compile time; an
    // unknown backend stays `None` and fails in the executor (after Scan,
    // preserving the engine's historical error precedence).
    let lazy_fit = registry.get(backend.as_str()).ok().map(|be| be.lazy_fit());
    let binding = b.var();
    b.push(PlanNode::Bind {
        backend: backend.clone(),
        lazy_fit,
        out: binding,
    });

    // The projection cache serves Algorithm-3 projections, which only the
    // TDPM backend has; everything else bypasses it. The executor follows
    // the bound snapshot's actual type, so a custom backend wrapping a
    // TdpmModel under another name still caches — this property records the
    // compiler's expectation for EXPLAIN.
    let cache = if backend.as_str() == "tdpm" {
        CacheDecision::Projection
    } else {
        CacheDecision::Bypass
    };
    let queries = b.var();
    b.push(PlanNode::Project {
        texts: texts.to_vec(),
        cache,
        binding,
        out: queries,
    });

    // Limit pushdown: Score receives TopK's k so the executor can drive the
    // fused rank-and-truncate kernels instead of fully sorting the pool.
    let scored = b.var();
    b.push(PlanNode::Score {
        backend,
        k: limit,
        precision,
        queries,
        candidates,
        out: scored,
    });

    let topped = b.var();
    b.push(PlanNode::TopK {
        k: limit,
        input: scored,
        out: topped,
    });

    let merged = b.var();
    b.push(PlanNode::Merge {
        input: topped,
        out: merged,
    });

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crowd_baselines::standard_registry;

    fn plan_for(stmt: &str) -> LogicalPlan {
        compile(&parse(stmt).unwrap(), &standard_registry(), Precision::F64)
    }

    #[test]
    fn select_lowers_to_the_canonical_pipeline() {
        let plan = plan_for("SELECT WORKERS FOR TASK 'btree split' LIMIT 2 WHERE GROUP >= 3");
        let kinds: Vec<&str> = plan.nodes.iter().map(PlanNode::kind).collect();
        assert_eq!(
            kinds,
            vec!["scan", "bind", "project", "score", "topk", "merge"]
        );
        assert_eq!(plan.slots, 6);
        assert!(matches!(
            plan.nodes[0],
            PlanNode::Scan {
                min_group: Some(3),
                ..
            }
        ));
        // TDPM is the explicit-fit backend and takes the projection cache.
        assert!(matches!(
            plan.nodes[1],
            PlanNode::Bind {
                lazy_fit: Some(false),
                ..
            }
        ));
        assert!(matches!(
            plan.nodes[2],
            PlanNode::Project {
                cache: CacheDecision::Projection,
                ..
            }
        ));
        // Limit pushdown: Score carries TopK's k.
        assert!(matches!(plan.nodes[3], PlanNode::Score { k: 2, .. }));
        assert!(matches!(plan.nodes[4], PlanNode::TopK { k: 2, .. }));
    }

    #[test]
    fn baseline_backends_bypass_the_cache_and_fit_lazily() {
        let plan = plan_for("SELECT WORKERS FOR TASK 'q' USING vsm");
        assert!(matches!(
            plan.nodes[1],
            PlanNode::Bind {
                lazy_fit: Some(true),
                ..
            }
        ));
        assert!(matches!(
            plan.nodes[2],
            PlanNode::Project {
                cache: CacheDecision::Bypass,
                ..
            }
        ));
    }

    #[test]
    fn unknown_backends_compile_with_unknown_lazy_fit() {
        let plan = plan_for("SELECT WORKERS FOR TASK 'q' USING magic");
        assert!(matches!(
            plan.nodes[1],
            PlanNode::Bind { lazy_fit: None, .. }
        ));
    }

    #[test]
    fn fused_select_carries_every_text() {
        let plan = compile_select_batch(
            &["a", "b", "c"],
            2,
            &BackendName::new("vsm"),
            None,
            &standard_registry(),
            Precision::F64,
        );
        let Some(PlanNode::Project { texts, .. }) = plan.nodes.get(2) else {
            panic!("expected Project, got {plan:?}");
        };
        assert_eq!(texts, &["a", "b", "c"]);
    }

    #[test]
    fn mutations_and_admin_statements_are_single_node_plans() {
        for (stmt, kind) in [
            ("INSERT WORKER 'ada'", "mutate"),
            ("INSERT TASK 'btree'", "mutate"),
            ("ASSIGN WORKER 0 TO TASK 1", "mutate"),
            ("FEEDBACK WORKER 0 ON TASK 1 SCORE 4", "mutate"),
            ("ANSWER WORKER 0 ON TASK 1 TEXT 'x'", "mutate"),
            ("TRAIN MODEL WITH 4 CATEGORIES", "fit"),
            ("SHOW STATS", "inspect"),
        ] {
            let plan = plan_for(stmt);
            assert_eq!(plan.nodes.len(), 1, "{stmt}");
            assert_eq!(plan.nodes[0].kind(), kind, "{stmt}");
        }
    }

    #[test]
    fn explain_nests_the_inner_plan() {
        let plan = plan_for("EXPLAIN SELECT WORKERS FOR TASK 'q'");
        let Some(PlanNode::Explain { plan: inner, .. }) = plan.nodes.first() else {
            panic!("expected Explain, got {plan:?}");
        };
        assert_eq!(inner.nodes.len(), 6);
        let rendered = plan.render();
        assert!(
            rendered.starts_with("v0 <- Explain\n  v0 <- Scan"),
            "{rendered}"
        );
    }
}
