//! Oracle property tests for the robustness layer: a [`QueryContext`]
//! whose guards never fire must be *bitwise* invisible.
//!
//! Extends the PR 6 plan oracle (`plan_oracle.rs`): threading a deadline,
//! a live cancellation token and a generous row budget through the
//! executor — and through the guarded dense kernels at 1, 2 and 8 scoring
//! threads — may not move a single score bit relative to the plain,
//! context-free path on any backend. Degradation, when it *does* fire, is
//! pinned separately in the engine unit tests and the chaos suite; this
//! file pins the "nothing happened" half of the contract.

use crowd_core::{Precision, ScoreSpec, TdpmModel};
use crowd_query::output::SelectedWorker;
use crowd_query::{CancelToken, QueryContext, QueryEngine, QueryOutput};
use crowd_text::{tokenize_filtered, BagOfWords};
use proptest::prelude::*;
use std::time::Duration;

const BACKENDS: &[&str] = &["tdpm", "vsm", "drm", "tspm"];

/// Same two-specialist fixture as `plan_oracle.rs`.
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

/// A context with every guard armed but none able to fire within the test.
fn never_firing() -> QueryContext {
    QueryContext::unbounded()
        .with_deadline(Duration::from_secs(3600))
        .with_cancellation(CancelToken::new())
        .with_row_budget(1 << 40)
}

fn assert_rows_equal(guarded: &[SelectedWorker], plain: &[SelectedWorker], ctx: &str) {
    assert_eq!(guarded.len(), plain.len(), "{ctx}: row count");
    for (g, p) in guarded.iter().zip(plain) {
        assert_eq!(g.worker, p.worker, "{ctx}: worker order");
        assert_eq!(g.handle, p.handle, "{ctx}: handle");
        assert_eq!(
            g.score.to_bits(),
            p.score.to_bits(),
            "{ctx}: score bits for {} ({} vs {})",
            g.worker,
            g.score,
            p.score
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-statement and fused-batch plans under a never-firing context
    /// return exactly the bits of the context-free path, on every backend.
    /// Only the timing annotations may differ; the ranking may not.
    #[test]
    fn never_firing_context_is_bitwise_invisible(
        texts in prop::collection::vec(arb_query_text(), 1..5),
        k in 1usize..6,
    ) {
        let mut e = seeded_engine();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let ctx = never_firing();

        for backend in BACKENDS {
            let plain_batch = e
                .select_workers_batch(&refs, k, backend, None, &QueryContext::unbounded())
                .unwrap();
            let guarded_batch = e
                .select_workers_batch(&refs, k, backend, None, &ctx)
                .unwrap();
            prop_assert_eq!(guarded_batch.len(), plain_batch.len());
            for (i, (g, p)) in guarded_batch.iter().zip(&plain_batch).enumerate() {
                prop_assert!(!g.degraded, "{} batch[{}]", backend, i);
                assert_rows_equal(g, p, &format!("{backend} batch[{i}]"));
            }

            for text in &texts {
                let stmt =
                    format!("SELECT WORKERS FOR TASK '{text}' LIMIT {k} USING {backend}");
                let QueryOutput::Workers(plain) = e.run(&stmt).unwrap() else {
                    panic!("expected workers");
                };
                let QueryOutput::Workers(guarded) = e.run_with(&stmt, &ctx).unwrap() else {
                    panic!("expected workers");
                };
                prop_assert!(!guarded.degraded, "{} single", backend);
                prop_assert!(guarded.elapsed.is_some(), "contextual runs are timed");
                prop_assert!(plain.elapsed.is_none(), "plain runs are not annotated");
                assert_rows_equal(&guarded, &plain, &format!("{backend} single"));
            }
        }
    }

    /// The guarded dense kernel itself is thread-count invariant under a
    /// live context guard: 1, 2 and 8 scoring threads all return the exact
    /// bits of the unguarded single-threaded walk, report the scan as
    /// complete, and account every candidate row.
    #[test]
    fn guarded_kernel_is_thread_invariant_under_a_live_context(
        text in arb_query_text(),
        k in 1usize..6,
    ) {
        let e = seeded_engine();
        let fitted = e.fitted("tdpm").unwrap();
        let model = fitted
            .downcast_ref::<TdpmModel>()
            .expect("tdpm backend carries a TdpmModel");
        let bow = BagOfWords::from_known_tokens(&tokenize_filtered(&text), e.db().vocab());
        let projection = model.project_bow(&bow);
        let candidates: Vec<_> = e.db().worker_ids().collect();
        let resolved = model.skill_matrix().resolve(candidates.iter().copied());

        let lambdas = [projection.lambda.as_slice()];
        let spec = ScoreSpec { threads: Some(1), ..ScoreSpec::default() };
        let base = model.select(&lambdas, &candidates, k, &spec).remove(0).ranked;
        let ctx = never_firing();
        for threads in [1usize, 2, 8] {
            let spec = ScoreSpec {
                precision: Precision::F64,
                threads: Some(threads),
                guard: ctx.guard(),
            };
            let partial = model.skill_matrix().select(&lambdas, &resolved, k, &spec).remove(0);
            prop_assert!(partial.complete, "threads={}", threads);
            prop_assert_eq!(partial.scanned, resolved.len(), "threads={}", threads);
            prop_assert_eq!(partial.ranked.len(), base.len(), "threads={}", threads);
            for (g, p) in partial.ranked.iter().zip(&base) {
                prop_assert_eq!(g.worker, p.worker, "threads={}", threads);
                prop_assert_eq!(
                    g.score.to_bits(),
                    p.score.to_bits(),
                    "threads={}",
                    threads
                );
            }
        }
    }
}
