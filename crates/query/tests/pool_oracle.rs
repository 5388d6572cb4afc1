//! Thread-scaling oracle: the persistent scoring pool is *bitwise*
//! invisible at every thread count, on every backend, guarded or not.
//!
//! The serial f64 walk (`TdpmModel::select_top_k_serial` — one dense-index
//! row lookup plus one scattered dot per candidate) is the oracle.
//! Everything the serving layer does on top — the dense contiguous walk,
//! chunking across the persistent [`ScoringPool`] at 2 or 8 threads, the batched blocked
//! kernel, and the [`CtxGuard`]-guarded variants of each — must reproduce
//! its bits exactly:
//!
//! 1. Engine-level: every backend × guarded/unguarded returns identical
//!    rows (backends other than TDPM don't thread, but the oracle pins
//!    that wiring the context through them changes nothing either).
//! 2. Model-level at scale: a candidate pool wide enough to cross the
//!    [`MIN_POOL_CHUNK_ROWS`] floor (so 2 and 8 threads genuinely submit
//!    pooled chunks) is bit-identical to the serial oracle in all of
//!    {1, 2, 8} threads × {unguarded, guarded} × {single, batched}, and
//!    the guarded scans report themselves complete with every row
//!    accounted.
//!
//! [`MIN_POOL_CHUNK_ROWS`]: crowd_core::MIN_POOL_CHUNK_ROWS
//! [`ScoringPool`]: crowd_math::ScoringPool
//! [`CtxGuard`]: crowd_query::CtxGuard

use crowd_core::{Precision, RankedWorker, ScoreSpec, SkillMatrix, TdpmModel, MIN_POOL_CHUNK_ROWS};
use crowd_query::{CancelToken, QueryContext, QueryEngine, QueryOutput};
use crowd_store::WorkerId;
use std::time::Duration;

const BACKENDS: &[&str] = &["tdpm", "vsm", "drm", "tspm"];
const THREADS: &[usize] = &[1, 2, 8];

/// Same two-specialist fixture as `plan_oracle.rs` / `context_oracle.rs`.
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

/// A context with every guard armed but none able to fire within the test.
fn never_firing() -> QueryContext {
    QueryContext::unbounded()
        .with_deadline(Duration::from_secs(3600))
        .with_cancellation(CancelToken::new())
        .with_row_budget(1 << 40)
}

#[test]
fn every_backend_is_bit_identical_guarded_and_unguarded() {
    let mut e = seeded_engine();
    let ctx = never_firing();
    for backend in BACKENDS {
        for (text, k) in [("btree page split", 2), ("gaussian posterior", 3)] {
            let stmt = format!("SELECT WORKERS FOR TASK '{text}' LIMIT {k} USING {backend}");
            let QueryOutput::Workers(plain) = e.run(&stmt).unwrap() else {
                panic!("{stmt}: expected workers");
            };
            let QueryOutput::Workers(guarded) = e.run_with(&stmt, &ctx).unwrap() else {
                panic!("{stmt}: expected workers");
            };
            assert!(!guarded.degraded, "{stmt}: nothing fired");
            assert_eq!(guarded.len(), plain.len(), "{stmt}: row count");
            for (g, p) in guarded.iter().zip(&plain) {
                assert_eq!(g.worker, p.worker, "{stmt}: worker order");
                assert_eq!(
                    g.score.to_bits(),
                    p.score.to_bits(),
                    "{stmt}: score bits for {}",
                    g.worker
                );
            }
        }
    }
}

/// A matrix wide enough that 2 and 8 threads both split into multiple
/// pooled chunks past the [`MIN_POOL_CHUNK_ROWS`] floor.
fn wide_matrix() -> (SkillMatrix, Vec<u32>) {
    let n = u32::try_from(4 * MIN_POOL_CHUNK_ROWS).unwrap();
    let mut m = SkillMatrix::new(3);
    for w in 0..n {
        let x = f64::from(w);
        m.upsert(
            WorkerId(w),
            &[(x * 0.713).sin(), (x * 0.291).cos(), (x * 0.107).sin()],
            &[0.1, 0.1, 0.1],
        );
    }
    let resolved = m.resolve_all();
    (m, resolved)
}

fn assert_bits(got: &[RankedWorker], oracle: &[RankedWorker], ctx: &str) {
    assert_eq!(got.len(), oracle.len(), "{ctx}: row count");
    for (g, o) in got.iter().zip(oracle) {
        assert_eq!(g.worker, o.worker, "{ctx}: worker order");
        assert_eq!(
            g.score.to_bits(),
            o.score.to_bits(),
            "{ctx}: score bits for {:?}",
            g.worker
        );
    }
}

#[test]
fn pooled_chunks_match_the_serial_oracle_at_every_thread_count() {
    let (m, resolved) = wide_matrix();
    let lambda = [0.9, -1.7, 0.4];
    let k = 12;
    // Serial oracle at the model layer: the dense single-threaded walk is
    // pinned bit-identical to `select_top_k_serial` by the core property
    // tests; here it anchors the thread sweep.
    let spec = |threads| ScoreSpec {
        threads: Some(threads),
        ..ScoreSpec::default()
    };
    let oracle = m
        .select(&[&lambda], &resolved, k, &spec(1))
        .remove(0)
        .ranked;
    assert_eq!(oracle.len(), k);

    let ctx = never_firing();
    for &threads in THREADS {
        let plain = m
            .select(&[&lambda], &resolved, k, &spec(threads))
            .remove(0)
            .ranked;
        assert_bits(&plain, &oracle, &format!("unguarded t{threads}"));

        let guarded_spec = ScoreSpec {
            precision: Precision::F64,
            threads: Some(threads),
            guard: ctx.guard(),
        };
        let guarded = m.select(&[&lambda], &resolved, k, &guarded_spec).remove(0);
        assert!(guarded.complete, "t{threads}: nothing fired");
        assert_eq!(guarded.scanned, resolved.len(), "t{threads}: all rows");
        assert_bits(&guarded.ranked, &oracle, &format!("guarded t{threads}"));
    }
}

#[test]
fn batched_pool_matches_per_query_serial_oracle() {
    let (m, resolved) = wide_matrix();
    let queries: Vec<Vec<f64>> = vec![
        vec![0.9, -1.7, 0.4],
        vec![-0.3, 0.8, 1.1],
        vec![1.0, 0.0, -0.5],
    ];
    let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let k = 9;
    let spec = |threads| ScoreSpec {
        threads: Some(threads),
        ..ScoreSpec::default()
    };
    let oracles: Vec<Vec<RankedWorker>> = refs
        .iter()
        .map(|q| m.select(&[q], &resolved, k, &spec(1)).remove(0).ranked)
        .collect();

    let ctx = never_firing();
    for &threads in THREADS {
        let plain = m.select(&refs, &resolved, k, &spec(threads));
        assert_eq!(plain.len(), oracles.len());
        for (i, (got, oracle)) in plain.iter().zip(&oracles).enumerate() {
            assert_bits(&got.ranked, oracle, &format!("batch[{i}] t{threads}"));
        }

        let guarded_spec = ScoreSpec {
            precision: Precision::F64,
            threads: Some(threads),
            guard: ctx.guard(),
        };
        let guarded = m.select(&refs, &resolved, k, &guarded_spec);
        for (i, (got, oracle)) in guarded.iter().zip(&oracles).enumerate() {
            assert!(got.complete, "batch[{i}] t{threads}: nothing fired");
            assert_eq!(got.scanned, resolved.len(), "batch[{i}] t{threads}");
            assert_bits(
                &got.ranked,
                oracle,
                &format!("guarded batch[{i}] t{threads}"),
            );
        }
    }
}

/// The f32 serving path threads through the same pool machinery: whatever
/// precision policy the engine stamps, thread count and guarding stay
/// bitwise invisible *within* that precision.
#[test]
fn f32_pooled_chunks_are_thread_and_guard_invariant() {
    let (m, resolved) = wide_matrix();
    let lambda = [0.9, -1.7, 0.4];
    let k = 12;
    let spec = |threads| ScoreSpec {
        precision: Precision::F32,
        threads: Some(threads),
        ..ScoreSpec::default()
    };
    let oracle = m
        .select(&[&lambda], &resolved, k, &spec(1))
        .remove(0)
        .ranked;
    let ctx = never_firing();
    for &threads in THREADS {
        let plain = m
            .select(&[&lambda], &resolved, k, &spec(threads))
            .remove(0)
            .ranked;
        assert_bits(&plain, &oracle, &format!("f32 unguarded t{threads}"));
        let guarded_spec = ScoreSpec {
            precision: Precision::F32,
            threads: Some(threads),
            guard: ctx.guard(),
        };
        let guarded = m.select(&[&lambda], &resolved, k, &guarded_spec).remove(0);
        assert!(guarded.complete, "f32 t{threads}: nothing fired");
        assert_bits(&guarded.ranked, &oracle, &format!("f32 guarded t{threads}"));
    }
}

/// End-to-end sanity for the fitted TDPM model: the dense path the
/// executor dispatches is the serial oracle's bits, and the engine-level
/// f64 default serves exactly those bits through the full pipeline.
#[test]
fn engine_tdpm_serves_the_serial_oracle_bits() {
    let mut e = seeded_engine();
    let fitted = e.fitted("tdpm").unwrap();
    let model = fitted
        .downcast_ref::<TdpmModel>()
        .expect("tdpm backend carries a TdpmModel");
    let candidates: Vec<WorkerId> = e.db().worker_ids().collect();
    let bow = crowd_text::BagOfWords::from_known_tokens(
        &crowd_text::tokenize_filtered("btree page split index"),
        e.db().vocab(),
    );
    let projection = model.project_bow(&bow);
    let serial = model.select_top_k_serial(&projection, candidates.iter().copied(), 2);
    let dense = model
        .select(
            &[projection.lambda.as_slice()],
            &candidates,
            2,
            &ScoreSpec::default(),
        )
        .remove(0)
        .ranked;
    assert_bits(&dense, &serial, "fitted dense vs serial");

    let stmt = "SELECT WORKERS FOR TASK 'btree page split index' LIMIT 2 USING tdpm";
    let QueryOutput::Workers(table) = e.run(stmt).unwrap() else {
        panic!("expected workers");
    };
    assert_eq!(table.len(), serial.len());
    for (row, o) in table.iter().zip(&serial) {
        assert_eq!(
            row.score.to_bits(),
            o.score.to_bits(),
            "engine row for {} matches the oracle",
            row.worker
        );
    }
}
