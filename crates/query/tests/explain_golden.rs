//! Golden snapshots: every statement form lowers to a stable `EXPLAIN`
//! rendering, committed as fixtures under `tests/fixtures/explain/`.
//!
//! On drift, rerun with `UPDATE_EXPLAIN_FIXTURES=1` to regenerate — and
//! review the diff: a changed rendering is a changed plan contract.

use crowd_query::{BackendName, QueryEngine, QueryOutput};
use std::path::PathBuf;

/// Every statement form of the language, as `EXPLAIN` inputs.
const CASES: &[(&str, &str)] = &[
    (
        "select_default",
        "EXPLAIN SELECT WORKERS FOR TASK 'why does a btree split pages' LIMIT 2",
    ),
    (
        "select_full",
        "EXPLAIN SELECT WORKERS FOR TASK 'gc pauses in my service' LIMIT 3 USING vsm WHERE GROUP >= 5",
    ),
    (
        "select_unknown_backend",
        "EXPLAIN SELECT WORKERS FOR TASK 'q' USING magic",
    ),
    ("insert_worker", "EXPLAIN INSERT WORKER 'ada'"),
    ("insert_task", "EXPLAIN INSERT TASK 'it''s a btree question'"),
    ("assign", "EXPLAIN ASSIGN WORKER 0 TO TASK 1"),
    ("feedback", "EXPLAIN FEEDBACK WORKER 0 ON TASK 1 SCORE 4.5"),
    (
        "answer",
        "EXPLAIN ANSWER WORKER 0 ON TASK 1 TEXT 'split at the median'",
    ),
    ("train", "EXPLAIN TRAIN MODEL WITH 8 CATEGORIES"),
    ("show_stats", "EXPLAIN SHOW STATS"),
    ("show_worker", "EXPLAIN SHOW WORKER 0"),
    ("show_groups", "EXPLAIN SHOW GROUPS 1, 5, 9"),
    ("show_similar", "EXPLAIN SHOW SIMILAR 'btree split' LIMIT 3"),
    ("explain_explain", "EXPLAIN EXPLAIN SHOW STATS"),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/explain")
        .join(format!("{name}.txt"))
}

fn check(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_EXPLAIN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); rerun with UPDATE_EXPLAIN_FIXTURES=1")
    });
    assert_eq!(
        actual, want,
        "EXPLAIN rendering for '{name}' drifted from its fixture; \
         if intended, rerun with UPDATE_EXPLAIN_FIXTURES=1 and review the diff"
    );
}

fn explain(engine: &mut QueryEngine, stmt: &str) -> String {
    match engine.run(stmt).unwrap() {
        QueryOutput::Plan(text) => text,
        other => panic!("EXPLAIN returned {other:?}"),
    }
}

#[test]
fn every_statement_form_has_a_stable_rendering() {
    let mut engine = QueryEngine::new();
    for (name, stmt) in CASES {
        check(name, &explain(&mut engine, stmt));
    }
}

#[test]
fn f32_precision_policy_shows_in_the_rendering() {
    let mut engine = QueryEngine::new();
    engine.set_precision(crowd_query::Precision::F32);
    let text = explain(
        &mut engine,
        "EXPLAIN SELECT WORKERS FOR TASK 'why does a btree split pages' LIMIT 2",
    );
    assert!(text.contains("precision=f32"), "{text}");
    check("select_f32", &text);
}

#[test]
fn fused_select_batches_have_a_stable_rendering() {
    let engine = QueryEngine::new();
    let plan = crowd_query::plan::compile_select_batch(
        &[
            "why does a btree split pages",
            "prior for a gaussian variance",
        ],
        2,
        &BackendName::new("tdpm"),
        Some(2),
        engine.registry(),
        crowd_query::Precision::F64,
    );
    check("select_batched", &plan.render());
}

#[test]
fn renderings_do_not_depend_on_engine_state() {
    // The same statement explains identically on a fresh engine and on one
    // with data, fitted snapshots and a warm projection cache: the rendering
    // is a property of the compiled plan, not of runtime state.
    let mut fresh = QueryEngine::new();
    let before: Vec<String> = CASES
        .iter()
        .map(|(_, stmt)| explain(&mut fresh, stmt))
        .collect();

    let mut warm = QueryEngine::new();
    warm.run("INSERT WORKER 'dba'").unwrap();
    warm.run("INSERT TASK 'btree page split index'").unwrap();
    warm.run("ASSIGN WORKER 0 TO TASK 0").unwrap();
    warm.run("FEEDBACK WORKER 0 ON TASK 0 SCORE 4").unwrap();
    warm.run("TRAIN MODEL WITH 2 CATEGORIES").unwrap();
    warm.run("SELECT WORKERS FOR TASK 'btree split' LIMIT 1")
        .unwrap();
    for ((_, stmt), want) in CASES.iter().zip(&before) {
        assert_eq!(&explain(&mut warm, stmt), want, "{stmt}");
    }
}
