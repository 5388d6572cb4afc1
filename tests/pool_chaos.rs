//! Pool-lifecycle stress: concurrent query streams over the persistent
//! scoring pool, with mid-flight cancellation and deadline churn.
//!
//! Complements `chaos.rs` (which injects storage faults into a single
//! engine): here the chaos is *concurrency* — several OS threads hammer
//! the one global [`ScoringPool`] with engine queries, pooled wide-matrix
//! scans and guard churn at once, seeded and deterministic in schedule
//! (`POOL_CHAOS_SEED`, default 17; outcome *timing* races are the point
//! and every race winner is asserted sound). Pinned properties:
//!
//! 1. **Typed outcomes only.** Every query returns `Ok` or a typed
//!    [`QueryError`]; no panics, no aborts.
//! 2. **No silent corruption.** Complete (non-degraded) results are
//!    bit-identical to the single-threaded clean baseline, even when a
//!    cancellation lost its race mid-flight. Stopped pooled scans are
//!    sound: a top-k of a scanned prefix that never exceeds the budget.
//! 3. **No leaked threads.** The pool's workers survive (`live_workers`
//!    equals `workers` before and after) and the *process* thread count
//!    returns to its pre-stress value — per-call spawns would show up
//!    right here.
//! 4. **Accounting.** The shared `query/*` counters reconcile exactly
//!    with the outcomes every thread observed.
//!
//! [`ScoringPool`]: crowdselect::math::ScoringPool

use crowdselect::math::ScoringPool;
use crowdselect::model::{Precision, ScoreSpec, SkillMatrix, MIN_POOL_CHUNK_ROWS};
use crowdselect::obs::{Obs, Registry, Tracer};
use crowdselect::query::{
    CancelToken, QueryContext, QueryEngine, QueryError, QueryOutput, WorkerTable,
};
use crowdselect::store::WorkerId;
use std::sync::Arc;
use std::time::Duration;

const STRESS_THREADS: usize = 8;
const ITERS_PER_THREAD: usize = 16;

const BACKENDS: &[&str] = &["tdpm", "vsm", "drm", "tspm"];
const SELECT_TEXTS: &[&str] = &[
    "btree page split index",
    "gaussian posterior variance",
    "buffer pool write amplification",
    "variational inference prior",
];

fn chaos_seed() -> u64 {
    match std::env::var("POOL_CHAOS_SEED") {
        Ok(s) => s.parse().expect("POOL_CHAOS_SEED must be a u64"),
        Err(_) => 17,
    }
}

/// SplitMix64 — deterministic per-thread schedule from the seed.
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

/// Same two-specialist fixture as `chaos.rs`.
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

fn assert_tables_bit_equal(got: &WorkerTable, want: &WorkerTable, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: row count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.worker, w.worker, "{ctx}: worker order");
        assert_eq!(
            g.score.to_bits(),
            w.score.to_bits(),
            "{ctx}: score bits for {}",
            g.worker
        );
    }
}

/// Wide shared matrix: every 8-thread scan splits into pooled chunks.
fn wide_matrix() -> (SkillMatrix, Vec<u32>) {
    let n = u32::try_from(4 * MIN_POOL_CHUNK_ROWS).unwrap();
    let mut m = SkillMatrix::new(2);
    for w in 0..n {
        let x = f64::from(w);
        m.upsert(
            WorkerId(w),
            &[(x * 0.713).sin(), (x * 0.291).cos()],
            &[0.1, 0.1],
        );
    }
    let resolved = m.resolve_all();
    (m, resolved)
}

fn os_thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[derive(Default)]
struct Tally {
    ok: u64,
    degraded: u64,
    cancelled: u64,
    deadline: u64,
    budget: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.degraded += other.degraded;
        self.cancelled += other.cancelled;
        self.deadline += other.deadline;
        self.budget += other.budget;
    }
}

#[allow(clippy::too_many_lines)]
#[test]
fn concurrent_pool_stress_is_sound_leak_free_and_accounted() {
    let seed = chaos_seed();
    let stmts = Arc::new(select_statements());

    // Clean single-threaded baseline for bit-identity.
    let mut clean = seeded_engine();
    let baseline: Arc<Vec<WorkerTable>> = Arc::new(
        stmts
            .iter()
            .map(|s| {
                let QueryOutput::Workers(t) = clean.run(s).unwrap() else {
                    panic!("expected workers for {s}");
                };
                t
            })
            .collect(),
    );

    // Shared pooled-scan fixture and its oracle.
    let (matrix, resolved) = wide_matrix();
    let shared = Arc::new((matrix, resolved));
    let lambda = [0.9, -1.7];
    let oracle = Arc::new(
        shared
            .0
            .select(&[&lambda], &shared.1, 10, &ScoreSpec::default())[0]
            .ranked
            .clone(),
    );

    // Warm the pool *before* the thread snapshot so its lazily-spawned
    // workers don't read as leaks.
    let pool = ScoringPool::global();
    let stats_before = pool.stats();
    assert_eq!(stats_before.live_workers, stats_before.workers);
    let threads_before = os_thread_count();

    let metrics = Arc::new(Registry::new());
    let handles: Vec<_> = (0..STRESS_THREADS)
        .map(|t| {
            let stmts = Arc::clone(&stmts);
            let baseline = Arc::clone(&baseline);
            let shared = Arc::clone(&shared);
            let oracle = Arc::clone(&oracle);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut e = seeded_engine();
                e.set_obs(Obs::new(metrics, Tracer::noop()));
                let mut rng = Rng(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                let mut tally = Tally::default();
                for i in 0..ITERS_PER_THREAD {
                    let si = (t + i * STRESS_THREADS) % stmts.len();
                    let stmt = &stmts[si];
                    match rng.next() % 6 {
                        // Clean and armed-but-generous: Ok, bit-identical.
                        0 | 1 => {
                            let ctx = QueryContext::unbounded()
                                .with_deadline(Duration::from_secs(3600))
                                .with_cancellation(CancelToken::new())
                                .with_row_budget(1 << 40);
                            let QueryOutput::Workers(table) = e.run_with(stmt, &ctx).unwrap()
                            else {
                                panic!("{stmt}: expected workers");
                            };
                            assert!(!table.degraded, "{stmt}: nothing fired");
                            assert_tables_bit_equal(&table, &baseline[si], stmt);
                            tally.ok += 1;
                        }
                        // Pre-cancelled: typed hard stop.
                        2 => {
                            let token = CancelToken::new();
                            token.cancel();
                            let ctx = QueryContext::unbounded().with_cancellation(token);
                            match e.run_with(stmt, &ctx) {
                                Err(QueryError::Cancelled) => tally.cancelled += 1,
                                other => panic!("{stmt}: expected Cancelled, got {other:?}"),
                            }
                        }
                        // Expired deadline: typed hard stop.
                        3 => {
                            let ctx = QueryContext::unbounded().with_deadline(Duration::ZERO);
                            match e.run_with(stmt, &ctx) {
                                Err(QueryError::DeadlineExceeded) => tally.deadline += 1,
                                other => panic!("{stmt}: expected Deadline, got {other:?}"),
                            }
                        }
                        // Zero budget, error policy: typed hard stop.
                        4 => {
                            let ctx = QueryContext::unbounded().with_row_budget(0);
                            match e.run_with(stmt, &ctx) {
                                Err(QueryError::BudgetExhausted) => tally.budget += 1,
                                other => panic!("{stmt}: expected Budget, got {other:?}"),
                            }
                        }
                        // Mid-flight cancellation: a canceller thread races
                        // the query; both race winners are sound.
                        _ => {
                            let token = CancelToken::new();
                            let racer = token.clone();
                            let delay = Duration::from_micros(rng.next() % 300);
                            let canceller = std::thread::spawn(move || {
                                std::thread::sleep(delay);
                                racer.cancel();
                            });
                            let ctx = QueryContext::unbounded().with_cancellation(token);
                            match e.run_with(stmt, &ctx) {
                                Ok(QueryOutput::Workers(table)) => {
                                    assert!(!table.degraded, "{stmt}: mid-flight win");
                                    assert_tables_bit_equal(&table, &baseline[si], stmt);
                                    tally.ok += 1;
                                }
                                Err(QueryError::Cancelled) => tally.cancelled += 1,
                                other => panic!("{stmt}: mid-flight outcome {other:?}"),
                            }
                            canceller.join().expect("canceller");
                        }
                    }

                    // Every iteration also drives a pooled wide scan with a
                    // seeded budget: exhausted guards must stop soundly,
                    // generous ones must reproduce the oracle bits.
                    let budget = if rng.next().is_multiple_of(2) {
                        1 << 40
                    } else {
                        // Somewhere inside the scan: chunks race the budget.
                        MIN_POOL_CHUNK_ROWS as u64 + rng.next() % (2 * MIN_POOL_CHUNK_ROWS as u64)
                    };
                    let ctx = QueryContext::unbounded().with_row_budget(budget);
                    let spec = ScoreSpec {
                        precision: Precision::F64,
                        threads: Some(8),
                        guard: ctx.guard(),
                    };
                    let partial = shared.0.select(&[&lambda], &shared.1, 10, &spec).remove(0);
                    if partial.complete {
                        assert_eq!(partial.scanned, shared.1.len(), "complete scans scan all");
                        assert_eq!(partial.ranked.len(), oracle.len());
                        for (g, o) in partial.ranked.iter().zip(oracle.iter()) {
                            assert_eq!(g.worker, o.worker, "pooled scan order");
                            assert_eq!(g.score.to_bits(), o.score.to_bits(), "pooled scan bits");
                        }
                    } else {
                        assert!(
                            (partial.scanned as u64) <= budget,
                            "stopped scan overdrew: {} > {budget}",
                            partial.scanned
                        );
                        assert!(partial.ranked.len() <= 10, "prefix top-k is bounded");
                    }
                }
                tally
            })
        })
        .collect();

    let mut tally = Tally::default();
    for h in handles {
        tally.merge(&h.join().expect("stress thread panicked"));
    }

    // No leaked threads: the pool kept its workers, and every transient
    // thread (stress + cancellers) is gone.
    let stats_after = pool.stats();
    assert_eq!(stats_after.workers, stats_before.workers, "pool resized");
    assert_eq!(
        stats_after.live_workers, stats_after.workers,
        "a pool worker died under stress"
    );
    let threads_after = os_thread_count();
    assert_eq!(
        threads_after, threads_before,
        "process thread count drifted — something leaked a thread"
    );

    // Exact query/* reconciliation against what the threads observed.
    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counter("query", name).unwrap_or(0);
    assert_eq!(counter("cancelled"), tally.cancelled);
    assert_eq!(counter("deadline_exceeded"), tally.deadline);
    assert_eq!(counter("budget_exhausted"), tally.budget);
    assert_eq!(counter("degraded"), tally.degraded);
    assert_eq!(
        tally.ok + tally.degraded + tally.cancelled + tally.deadline + tally.budget,
        (STRESS_THREADS * ITERS_PER_THREAD) as u64,
        "every engine query accounted"
    );
    assert!(tally.ok > 0, "no clean query survived — schedule broken");
    assert!(
        stats_after.tasks_enqueued > stats_before.tasks_enqueued,
        "the wide scans must actually exercise the pool"
    );
}
