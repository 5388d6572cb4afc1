//! Oracle property tests for the planner/executor split: executing a
//! compiled plan is *bitwise* identical to calling the selection kernels
//! directly — across backends, thread counts, and projection-cache states.
//!
//! Extends the PR 4 batching oracle: with statements now lowering to
//! logical plans, these tests pin the whole compile → execute pipeline to
//! the raw [`crowd_core::TdpmModel`] / [`crowd_select::CrowdSelector`]
//! results, so a planner or executor regression cannot change a single
//! score bit without failing here.

use crowd_core::{ScoreSpec, TdpmModel};
use crowd_query::output::SelectedWorker;
use crowd_query::{QueryContext, QueryEngine, QueryOutput};
use crowd_select::{BatchQuery, RankedWorker};
use crowd_text::{tokenize_filtered, BagOfWords};
use proptest::prelude::*;

const BACKENDS: &[&str] = &["tdpm", "vsm", "drm", "tspm"];

/// A two-specialist database with a trained TDPM model, built through the
/// query language (same shape as the engine's unit-test fixture).
fn seeded_engine() -> QueryEngine {
    let mut e = QueryEngine::new();
    e.run("INSERT WORKER 'dba'").unwrap();
    e.run("INSERT WORKER 'stat'").unwrap();
    e.run("INSERT WORKER 'generalist'").unwrap();
    let tasks = [
        ("btree page split index buffer disk", 0, 1),
        ("gaussian prior posterior likelihood variance", 1, 0),
        ("btree range scan clustered index", 0, 2),
        ("variational bayes gaussian inference", 1, 2),
        ("btree write amplification buffer pool", 0, 1),
        ("posterior variance of a gaussian", 1, 0),
    ];
    for (i, (text, good, meh)) in tasks.iter().enumerate() {
        e.run(&format!("INSERT TASK '{text}'")).unwrap();
        e.run(&format!("ASSIGN WORKER {good} TO TASK {i}")).unwrap();
        e.run(&format!("ASSIGN WORKER {meh} TO TASK {i}")).unwrap();
        e.run(&format!("FEEDBACK WORKER {good} ON TASK {i} SCORE 4"))
            .unwrap();
        e.run(&format!("FEEDBACK WORKER {meh} ON TASK {i} SCORE 2"))
            .unwrap();
    }
    e.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
    e
}

/// Query texts over the seeded vocabulary (plus unknown-word noise).
fn arb_query_text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just("btree"),
            Just("split"),
            Just("gaussian"),
            Just("prior"),
            Just("index"),
            Just("variance"),
            Just("buffer"),
            Just("posterior"),
            Just("zzz"),
        ],
        1..6,
    )
    .prop_map(|ws| ws.join(" "))
}

fn assert_bits_equal(planned: &[SelectedWorker], direct: &[RankedWorker], ctx: &str) {
    assert_eq!(planned.len(), direct.len(), "{ctx}: row count");
    for (p, d) in planned.iter().zip(direct) {
        assert_eq!(p.worker, d.worker, "{ctx}: worker order");
        assert_eq!(
            p.score.to_bits(),
            d.score.to_bits(),
            "{ctx}: score bits for {} ({} vs {})",
            p.worker,
            p.score,
            d.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Planned execution (single statements AND the fused batch plan, cold
    /// and warm projection cache) returns exactly the bits of the direct
    /// kernel calls, for every backend — and the TDPM kernel itself is
    /// thread-count invariant, so the planned result matches the dense path
    /// at 1, 2 and 8 serving threads.
    #[test]
    fn planned_execution_matches_direct_kernels(
        texts in prop::collection::vec(arb_query_text(), 1..5),
        k in 1usize..6,
    ) {
        let mut e = seeded_engine();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();

        for backend in BACKENDS {
            // Fused batch plan (Scan → Bind → Project → Score → TopK → Merge
            // over every text at once). First run is the cold-cache state.
            let unbounded = QueryContext::unbounded();
            let planned_batch =
                e.select_workers_batch(&refs, k, backend, None, &unbounded).unwrap();
            // Second run hits the projection cache for TDPM: bits must not move.
            let planned_warm = e.select_workers_batch(&refs, k, backend, None, &unbounded).unwrap();

            // Single-statement plans, one per text (cache now warm).
            let mut planned_single = Vec::new();
            for text in &texts {
                let out = e
                    .run(&format!(
                        "SELECT WORKERS FOR TASK '{text}' LIMIT {k} USING {backend}"
                    ))
                    .unwrap();
                let QueryOutput::Workers(rows) = out else {
                    panic!("expected workers");
                };
                planned_single.push(rows);
            }

            // Direct oracle: raw kernel calls against the serving snapshot,
            // bypassing parser, plan and executor entirely.
            let candidates: Vec<_> = e.db().worker_ids().collect();
            let bows: Vec<BagOfWords> = texts
                .iter()
                .map(|t| BagOfWords::from_known_tokens(&tokenize_filtered(t), e.db().vocab()))
                .collect();
            let fitted = e.fitted(backend).unwrap();
            let direct: Vec<Vec<RankedWorker>> = match fitted.downcast_ref::<TdpmModel>() {
                Some(model) => bows
                    .iter()
                    .map(|bow| {
                        let projection = model.project_bow(bow);
                        let lambdas = [projection.lambda.as_slice()];
                        let spec = |t| ScoreSpec { threads: Some(t), ..ScoreSpec::default() };
                        let base =
                            model.select(&lambdas, &candidates, k, &spec(1)).remove(0).ranked;
                        // Thread-count invariance of the kernel the plan runs.
                        for threads in [2usize, 8] {
                            let other = model
                                .select(&lambdas, &candidates, k, &spec(threads))
                                .remove(0)
                                .ranked;
                            prop_assert_eq!(base.len(), other.len());
                            for (a, b) in base.iter().zip(&other) {
                                prop_assert_eq!(a.worker, b.worker);
                                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                            }
                        }
                        Ok(base)
                    })
                    .collect::<Result<_, TestCaseError>>()?,
                None => {
                    let queries: Vec<BatchQuery<'_>> = bows
                        .iter()
                        .map(|bow| BatchQuery {
                            bow,
                            candidates: &candidates,
                            task: None,
                        })
                        .collect();
                    fitted.select_batch(&queries, k)
                }
            };

            prop_assert_eq!(direct.len(), texts.len());
            for (i, want) in direct.iter().enumerate() {
                assert_bits_equal(&planned_batch[i], want, &format!("{backend} batch[{i}] cold"));
                assert_bits_equal(&planned_warm[i], want, &format!("{backend} batch[{i}] warm"));
                assert_bits_equal(&planned_single[i], want, &format!("{backend} single[{i}]"));
            }
        }
    }

    /// The `WHERE GROUP >= n` filter flows through Scan identically to
    /// hand-filtering the pool before a direct kernel call.
    #[test]
    fn planned_group_filter_matches_filtered_direct_call(
        text in arb_query_text(),
        min_group in 1usize..8,
        k in 1usize..6,
    ) {
        let mut e = seeded_engine();
        let stmt = format!(
            "SELECT WORKERS FOR TASK '{text}' LIMIT {k} USING vsm WHERE GROUP >= {min_group}"
        );
        let planned = e.run(&stmt);
        let pool: Vec<_> = e
            .db()
            .worker_ids()
            .filter(|&w| e.db().worker_task_count(w) >= min_group)
            .collect();
        if pool.is_empty() {
            prop_assert!(planned.is_err(), "empty pool must error");
            return Ok(());
        }
        let QueryOutput::Workers(rows) = planned.unwrap() else {
            panic!("expected workers");
        };
        let bow = BagOfWords::from_known_tokens(&tokenize_filtered(&text), e.db().vocab());
        let direct = e.fitted("vsm").unwrap().selector().select(&bow, &pool, k);
        assert_bits_equal(&rows, &direct, "vsm filtered");
    }
}
