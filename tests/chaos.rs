//! Seeded query-layer chaos suite: deterministic fault injection + a mixed
//! deadline/cancellation/budget/admission schedule over the full query
//! pipeline, with every outcome accounted for.
//!
//! The properties pinned here (per seed — CI runs `CHAOS_SEED` = 17, 42
//! and 99):
//!
//! 1. **No panics.** Every statement returns `Ok` or a *typed*
//!    [`QueryError`]; the process never aborts (the test itself is the
//!    witness).
//! 2. **No silent corruption.** Any select that comes back `Ok` and not
//!    `degraded` under chaos is bit-identical to the clean, fault-free
//!    run of the same statement; degraded tables are explicitly flagged.
//! 3. **Accounting.** The `query/*` counters reconcile exactly with the
//!    outcomes observed by the caller: cancelled/deadline/budget errors,
//!    degraded executions, admission admitted+shed totals, and retries
//!    never exceeding injected faults.
//! 4. **State integrity.** Mutations either land fully or not at all: the
//!    final worker count equals the initial count plus the successful
//!    inserts.
//!
//! A machine-readable report of what each seed exercised lands in
//! `chaos_<seed>.json` under cargo's `CARGO_TARGET_TMPDIR` (hand-rolled
//! JSON: no extra dependencies), never in a tracked file.

use crowdselect::obs::{Obs, Registry, Tracer};
use crowdselect::query::{
    AdmissionConfig, AdmissionError, CancelToken, QueryContext, QueryEngine, QueryError,
    QueryOutput, RetryPolicy, WorkerTable,
};
use crowdselect::sim::QueryFaultPlan;
use std::sync::Arc;
use std::time::Duration;

const BACKENDS: &[&str] = &["tdpm", "vsm", "drm", "tspm"];

const SELECT_TEXTS: &[&str] = &[
    "btree page split index",
    "gaussian posterior variance",
    "buffer pool write amplification",
    "variational inference prior",
    "btree zzz unknown words",
];

fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 17,
    }
}

/// SplitMix64 — the suite's only randomness, fully determined by the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Same two-specialist fixture as the query crate's oracle tests.
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

fn select_statements() -> Vec<String> {
    let mut stmts = Vec::new();
    for backend in BACKENDS {
        for (i, text) in SELECT_TEXTS.iter().enumerate() {
            let k = 1 + i % 3;
            stmts.push(format!(
                "SELECT WORKERS FOR TASK '{text}' LIMIT {k} USING {backend}"
            ));
        }
    }
    stmts
}

fn assert_tables_bit_equal(chaos: &WorkerTable, clean: &WorkerTable, stmt: &str) {
    assert_eq!(chaos.len(), clean.len(), "{stmt}: row count");
    for (c, b) in chaos.iter().zip(clean) {
        assert_eq!(c.worker, b.worker, "{stmt}: worker order");
        assert_eq!(
            c.score.to_bits(),
            b.score.to_bits(),
            "{stmt}: score bits for {}",
            c.worker
        );
    }
}

/// The per-statement context schedule: a deterministic mix of unbounded,
/// generously-guarded, zero-budget (both policies), expired-deadline
/// (both policies) and pre-cancelled contexts.
enum Variant {
    Clean(QueryContext),
    Degrading(QueryContext),
    Fatal(QueryContext, &'static str),
}

fn draw_variant(rng: &mut Rng) -> Variant {
    match rng.next() % 8 {
        0..=2 => Variant::Clean(QueryContext::unbounded()),
        3 | 4 => Variant::Clean(
            QueryContext::unbounded()
                .with_deadline(Duration::from_secs(3600))
                .with_cancellation(CancelToken::new())
                .with_row_budget(1 << 40),
        ),
        5 => Variant::Degrading(
            QueryContext::unbounded()
                .with_row_budget(0)
                .degrade_to_partial(),
        ),
        6 => Variant::Fatal(
            QueryContext::unbounded().with_deadline(Duration::ZERO),
            "deadline",
        ),
        _ => {
            let token = CancelToken::new();
            token.cancel();
            // Cancellation out-ranks the partial policy: still a hard stop.
            Variant::Fatal(
                QueryContext::unbounded()
                    .with_cancellation(token)
                    .degrade_to_partial(),
                "cancelled",
            )
        }
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    degraded: u64,
    cancelled: u64,
    deadline: u64,
    budget: u64,
    admission: u64,
    retries_exhausted: u64,
}

#[test]
fn seeded_chaos_run_is_typed_accounted_and_uncorrupted() {
    let seed = chaos_seed();
    let stmts = select_statements();

    // Clean baseline: same statements, no faults, no context.
    let mut clean = seeded_engine();
    let baseline: Vec<WorkerTable> = stmts
        .iter()
        .map(|s| {
            let QueryOutput::Workers(t) = clean.run(s).unwrap() else {
                panic!("expected workers for {s}");
            };
            t
        })
        .collect();

    // Chaos engine: same data, armed fault plan, fast retries, admission,
    // shared metrics registry.
    let metrics = Arc::new(Registry::new());
    let mut e = seeded_engine();
    e.set_obs(Obs::new(metrics.clone(), Tracer::noop()));
    e.set_retry_policy(RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_micros(20),
        max_backoff: Duration::from_micros(100),
    });
    e.set_fault_injection(Some(
        QueryFaultPlan::new(seed)
            .with_transient_error(0.25)
            .with_latency(0.10)
            .with_partial_read(0.10)
            .with_latency_delay(Duration::from_micros(50)),
    ));
    e.set_admission(Some(AdmissionConfig {
        max_concurrent: 1,
        max_queue: 0,
        queue_timeout: Duration::from_millis(5),
    }));

    let mut rng = Rng(seed ^ 0xc0ffee);
    let mut tally = Tally::default();
    let mut attempts: u64 = 0;

    // ---- Phase A: selects (database frozen, bit-identity checkable) ----
    for (i, stmt) in stmts.iter().enumerate() {
        // Every fourth statement runs against a saturated admission gate.
        let saturated = i % 4 == 3;
        let held = if saturated {
            Some(
                Arc::clone(e.admission().expect("admission installed"))
                    .admit()
                    .expect("external slot"),
            )
        } else {
            None
        };
        attempts += 1;
        let variant = draw_variant(&mut rng);
        let (ctx, expect) = match &variant {
            Variant::Clean(c) => (c, "clean"),
            Variant::Degrading(c) => (c, "degrading"),
            Variant::Fatal(c, kind) => (c, *kind),
        };
        let outcome = e.run_with(stmt, ctx);
        drop(held);
        match outcome {
            Ok(QueryOutput::Workers(table)) => {
                assert!(!saturated, "{stmt}: a saturated gate must refuse admission");
                if table.degraded {
                    assert_eq!(expect, "degrading", "{stmt}: unexpected degradation");
                    tally.degraded += 1;
                } else {
                    // Chaos may retry or stall this select, but if it
                    // reports success the bits must be the clean bits.
                    assert_tables_bit_equal(&table, &baseline[i], stmt);
                    tally.ok += 1;
                }
            }
            Ok(other) => panic!("{stmt}: unexpected output {other:?}"),
            Err(QueryError::Admission(a)) => {
                assert!(saturated, "{stmt}: admission refusal without load: {a}");
                assert!(matches!(
                    a,
                    AdmissionError::Shed { .. } | AdmissionError::QueueTimeout { .. }
                ));
                tally.admission += 1;
            }
            Err(QueryError::Cancelled) => {
                assert_eq!(expect, "cancelled", "{stmt}");
                tally.cancelled += 1;
            }
            Err(QueryError::DeadlineExceeded) => {
                assert_eq!(expect, "deadline", "{stmt}");
                tally.deadline += 1;
            }
            Err(QueryError::BudgetExhausted) => {
                // Only the error-policy variants may surface this; the
                // zero-budget variant runs under the partial policy.
                panic!("{stmt}: zero-budget runs degrade, they do not error");
            }
            Err(QueryError::RetriesExhausted { attempts, last }) => {
                assert!(
                    attempts >= 2,
                    "{stmt}: exhausted after {attempts} attempt(s)"
                );
                assert!(last.contains("injected"), "{stmt}: {last}");
                tally.retries_exhausted += 1;
            }
            Err(other) => panic!("{stmt}: untyped/unexpected error {other:?}"),
        }
    }

    // ---- Phase B: mutations under chaos (atomicity) --------------------
    let workers_before = e.db().num_workers() as u64;
    let mut landed: u64 = 0;
    for i in 0..12u32 {
        attempts += 1;
        match e.run(&format!("INSERT WORKER 'chaos-{i}'")) {
            Ok(QueryOutput::WorkerInserted(_)) => landed += 1,
            Ok(other) => panic!("insert: unexpected output {other:?}"),
            Err(QueryError::RetriesExhausted { last, .. }) => {
                assert!(last.contains("injected"), "{last}");
                tally.retries_exhausted += 1;
            }
            Err(other) => panic!("insert: untyped/unexpected error {other:?}"),
        }
    }
    assert_eq!(
        e.db().num_workers() as u64,
        workers_before + landed,
        "mutations must land fully or not at all"
    );

    // ---- Accounting reconciliation --------------------------------------
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counter("query", name).unwrap_or(0);
    assert_eq!(counter("cancelled"), tally.cancelled);
    assert_eq!(counter("deadline_exceeded"), tally.deadline);
    assert_eq!(counter("budget_exhausted"), tally.budget);
    assert_eq!(counter("degraded"), tally.degraded);
    assert_eq!(
        counter("admission_admitted") + counter("admission_shed"),
        attempts,
        "every admit attempt is either admitted or shed"
    );
    assert_eq!(counter("admission_shed"), tally.admission);
    assert!(
        counter("retries") <= counter("faults_injected"),
        "every retry is caused by an injected fault here ({} retries, {} faults)",
        counter("retries"),
        counter("faults_injected")
    );
    assert!(
        tally.retries_exhausted == 0 || counter("faults_injected") > 0,
        "exhaustion without injection"
    );
    // The schedule is seeded so at least the guaranteed variants fired.
    assert!(tally.ok > 0, "no clean select survived — schedule broken");

    write_report(seed, &stmts, &tally, attempts, &snap);
}

/// Hand-rolled JSON report (keys sorted, no float formatting surprises) —
/// the repo deliberately avoids a JSON dependency in the test crate.
fn write_report(
    seed: u64,
    stmts: &[String],
    t: &Tally,
    attempts: u64,
    snap: &crowdselect::obs::MetricsSnapshot,
) {
    let counter = |name: &str| snap.counter("query", name).unwrap_or(0);
    let json = format!(
        "{{\n  \"suite\": \"query-layer chaos\",\n  \"seed\": {seed},\n  \
         \"statements\": {},\n  \"admit_attempts\": {attempts},\n  \"outcomes\": {{\n    \
         \"ok_bit_identical\": {},\n    \"degraded\": {},\n    \"cancelled\": {},\n    \
         \"deadline_exceeded\": {},\n    \"budget_exhausted\": {},\n    \
         \"admission_refused\": {},\n    \"retries_exhausted\": {}\n  }},\n  \"metrics\": {{\n    \
         \"admission_admitted\": {},\n    \"admission_shed\": {},\n    \"degraded\": {},\n    \
         \"retries\": {},\n    \"faults_injected\": {}\n  }}\n}}\n",
        stmts.len() + 12,
        t.ok,
        t.degraded,
        t.cancelled,
        t.deadline,
        t.budget,
        t.admission,
        t.retries_exhausted,
        counter("admission_admitted"),
        counter("admission_shed"),
        counter("degraded"),
        counter("retries"),
        counter("faults_injected"),
    );
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("chaos_{seed}.json"));
    let _ = std::fs::write(path, json);
}
