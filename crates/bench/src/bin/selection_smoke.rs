//! CI bench gate for the dense serving path — writes `results/BENCH_8.json`.
//!
//! The Criterion targets under `benches/` are for interactive profiling;
//! this bin is the machine-readable smoke version that CI runs on every
//! push. It measures ns/query for each serving path over candidate pools
//! of {1k, 10k, 100k} workers:
//!
//! - `serial` — the preserved pre-dense baseline (`select_top_k_serial`):
//!   per candidate, one dense-index row lookup, an owned copy of the
//!   worker's `SkillMatrix` row through `TdpmModel::skill`, and one
//!   `Vector::dot`.
//! - `dense_t1/t2/t4/t8` — the contiguous `SkillMatrix` walk at 1–8
//!   threads (`TdpmModel::select` with `ScoreSpec::threads`); t>1 runs on
//!   the persistent scoring pool (`crowd_math::ScoringPool`), not per-call
//!   spawns.
//! - `f32_t1` — the reduced-precision serving mirror at one thread.
//! - `batched_b32` / `batched_f32_b32` — 32 queries sharing one pool in one
//!   `TdpmModel::select` call at the model's configured fan-out; the pool
//!   is resolved once and its cost amortized across the batch.
//!
//! **Measurement.** Every path is timed as the *minimum* over several
//! interleaved rounds (min-statistic, paired): the minimum is the least
//! noise-contaminated estimate of the true cost, and interleaving the
//! variants round-robin means drift (thermal, scheduler) hits all paths
//! alike instead of biasing whichever ran last. A gate miss triggers up to
//! [`MAX_ATTEMPTS`] passes whose rounds fold into the same minima, so a
//! transient slow window on shared CI hardware cannot flake the gate.
//!
//! **Gates** (checked at exit, nonzero on failure):
//!
//! 1. At 100k candidates the batched path must be at least
//!    [`GATE_MIN_SPEEDUP`]× faster per query than the serial baseline.
//! 2. Thread scaling, conditional on the host: when the persistent pool
//!    has more than one worker, `dense_t8` must beat `dense_t1` outright
//!    at 100k. On a single-core host real speedup is impossible, so the
//!    gate becomes a no-regression bound instead — pooled dispatch
//!    overhead must stay within [`GATE_SINGLE_CORE_SLACK_100K`] of the
//!    inline walk at 100k and [`GATE_SINGLE_CORE_SLACK_1K`] at 1k (the
//!    old per-call spawns regressed t8 several-fold here; the pool is the
//!    fix, and this bound keeps it fixed).

use crowd_bench::{synthetic_projections, synthetic_serving_model};
use crowd_core::{Precision, ScoreSpec, TaskProjection, TdpmModel};
use crowd_math::ScoringPool;
use crowd_store::WorkerId;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const K: usize = 8;
const TOP_K: usize = 10;
const BATCH: usize = 32;
const POOL_SIZES: [usize; 3] = [1_000, 10_000, 100_000];
/// Minimum batched-vs-serial per-query speedup at the largest pool.
///
/// The serial baseline finds each row through the same dense id → row
/// index as the batched path but copies it out through `TdpmModel::skill`,
/// so the ratio measures the blocked kernel, the contiguous layout and that
/// per-candidate copy: 11.7–14.7x at 100k on a 2-vCPU host. The gate sits
/// well below that, room for the host's swings.
const GATE_MIN_SPEEDUP: f64 = 5.0;
/// Single-core hosts: max allowed `dense_t8 / dense_t1` at 100k candidates.
const GATE_SINGLE_CORE_SLACK_100K: f64 = 1.05;
/// Single-core hosts: max allowed `dense_t8 / dense_t1` at 1k candidates
/// (small pools stay inline below the `MIN_POOL_CHUNK_ROWS` floor, so this
/// bounds the floor check itself, not pool dispatch).
const GATE_SINGLE_CORE_SLACK_1K: f64 = 1.10;
/// Interleaved measurement rounds; the reported figure is the per-path min.
const ROUNDS: usize = 7;
/// Gate-miss retries: each retry re-measures every cell and folds the new
/// rounds into the accumulated per-path minimum, so a transient slow window
/// on shared hardware must span the whole run to fail the gate while a real
/// regression fails every attempt.
const MAX_ATTEMPTS: usize = 3;

/// ns for one call of `f` (the caller loops rounds and keeps the min).
fn once_ns(f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// Min-statistic, paired: every round times each path once, in order, and
/// each path keeps its fastest round.
fn measure_paired(paths: &mut [(&'static str, &mut dyn FnMut())]) -> Vec<(&'static str, f64)> {
    // Warm-up: one untimed call each (also first-touches the scoring pool).
    for (_, f) in paths.iter_mut() {
        f();
    }
    let mut mins = vec![f64::INFINITY; paths.len()];
    for _ in 0..ROUNDS {
        for (i, (_, f)) in paths.iter_mut().enumerate() {
            let ns = once_ns(*f);
            if ns < mins[i] {
                mins[i] = ns;
            }
        }
    }
    paths
        .iter()
        .zip(mins)
        .map(|((name, _), ns)| (*name, ns))
        .collect()
}

struct Cell {
    candidates: usize,
    /// `(path name, ns per query)` in measurement order.
    paths: Vec<(&'static str, f64)>,
}

impl Cell {
    fn ns(&self, name: &str) -> f64 {
        self.paths
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ns)| *ns)
            .unwrap_or(f64::NAN)
    }

    fn speedup_batched_vs_serial(&self) -> f64 {
        self.ns("serial") / self.ns("batched_b32")
    }

    /// Fold another measurement of the same cell into this one, keeping the
    /// per-path minimum (paths are produced in a fixed order by `measure`).
    fn fold_min(&mut self, other: &Cell) {
        assert_eq!(self.candidates, other.candidates);
        for ((name, ns), (other_name, other_ns)) in self.paths.iter_mut().zip(&other.paths) {
            assert_eq!(name, other_name);
            if *other_ns < *ns {
                *ns = *other_ns;
            }
        }
    }
}

fn measure(model: &TdpmModel, projections: &[TaskProjection], n: usize) -> Cell {
    let pool = u32::try_from(n).expect("pool size fits u32");
    let candidates: Vec<WorkerId> = (0..pool).map(WorkerId).collect();
    let query = &projections[0];

    // Each closure is one *query* worth of work, so every figure below is
    // directly ns/query; the batched paths divide by the batch size.
    let mut serial = || {
        black_box(model.select_top_k_serial(query, candidates.iter().copied(), TOP_K));
    };
    let one = [query.lambda.as_slice()];
    let lambdas: Vec<&[f64]> = projections.iter().map(|p| p.lambda.as_slice()).collect();
    let spec = |precision, threads| ScoreSpec {
        precision,
        threads,
        ..ScoreSpec::default()
    };
    let mut dense_t1 = || {
        black_box(model.select(&one, &candidates, TOP_K, &spec(Precision::F64, Some(1))));
    };
    let mut dense_t2 = || {
        black_box(model.select(&one, &candidates, TOP_K, &spec(Precision::F64, Some(2))));
    };
    let mut dense_t4 = || {
        black_box(model.select(&one, &candidates, TOP_K, &spec(Precision::F64, Some(4))));
    };
    let mut dense_t8 = || {
        black_box(model.select(&one, &candidates, TOP_K, &spec(Precision::F64, Some(8))));
    };
    let mut f32_t1 = || {
        black_box(model.select(&one, &candidates, TOP_K, &spec(Precision::F32, Some(1))));
    };
    let mut batched = || {
        black_box(model.select(&lambdas, &candidates, TOP_K, &spec(Precision::F64, None)));
    };
    let mut batched_f32 = || {
        black_box(model.select(&lambdas, &candidates, TOP_K, &spec(Precision::F32, None)));
    };

    let mut paths: Vec<(&'static str, &mut dyn FnMut())> = vec![
        ("serial", &mut serial),
        ("dense_t1", &mut dense_t1),
        ("dense_t2", &mut dense_t2),
        ("dense_t4", &mut dense_t4),
        ("dense_t8", &mut dense_t8),
        ("f32_t1", &mut f32_t1),
        ("batched_b32", &mut batched),
        ("batched_f32_b32", &mut batched_f32),
    ];
    let mut measured = measure_paired(&mut paths);
    for (name, ns) in &mut measured {
        if name.starts_with("batched") {
            *ns /= BATCH as f64;
        }
    }
    Cell {
        candidates: n,
        paths: measured,
    }
}

/// Evaluate every gate over the (possibly folded) cells; returns the
/// failure messages, empty when all gates pass.
fn gate_failures(cells: &[Cell], pool_workers: usize) -> Vec<String> {
    let cell_1k = &cells[0];
    let cell_100k = cells.last().unwrap();
    let speedup_100k = cell_100k.speedup_batched_vs_serial();
    let t8_vs_t1_100k = cell_100k.ns("dense_t8") / cell_100k.ns("dense_t1");
    let t8_vs_t1_1k = cell_1k.ns("dense_t8") / cell_1k.ns("dense_t1");

    let mut fails = Vec::new();
    if speedup_100k < GATE_MIN_SPEEDUP {
        fails.push(format!(
            "batched speedup at 100k candidates is {speedup_100k:.2}x, below the \
             {GATE_MIN_SPEEDUP}x gate"
        ));
    }
    if pool_workers > 1 {
        if t8_vs_t1_100k >= 1.0 {
            fails.push(format!(
                "dense_t8 is {t8_vs_t1_100k:.2}x dense_t1 at 100k candidates on a \
                 {pool_workers}-worker pool (must be < 1.0)"
            ));
        }
    } else {
        if t8_vs_t1_100k > GATE_SINGLE_CORE_SLACK_100K {
            fails.push(format!(
                "single-core host, but dense_t8 is {t8_vs_t1_100k:.2}x dense_t1 at 100k \
                 (bound {GATE_SINGLE_CORE_SLACK_100K}x): pool dispatch overhead regressed"
            ));
        }
        if t8_vs_t1_1k > GATE_SINGLE_CORE_SLACK_1K {
            fails.push(format!(
                "single-core host, but dense_t8 is {t8_vs_t1_1k:.2}x dense_t1 at 1k \
                 (bound {GATE_SINGLE_CORE_SLACK_1K}x): sub-cutoff selections must stay inline"
            ));
        }
    }
    fails
}

fn main() {
    let model = synthetic_serving_model(*POOL_SIZES.last().unwrap(), K, 404);
    let projections = synthetic_projections(BATCH, K, 405);
    let pool_workers = ScoringPool::global().workers();

    let mut cells: Vec<Cell> = Vec::new();
    let mut attempts = 0;
    let failures = loop {
        attempts += 1;
        for (i, &n) in POOL_SIZES.iter().enumerate() {
            let fresh = measure(&model, &projections, n);
            match cells.get_mut(i) {
                Some(acc) => acc.fold_min(&fresh),
                None => cells.push(fresh),
            }
            let cell = &cells[i];
            println!(
                "selection_smoke {n:>7} candidates: serial {:>9.0} ns/q | t1 {:>9.0} | t2 \
                 {:>9.0} | t4 {:>9.0} | t8 {:>9.0} | f32_t1 {:>9.0} | b32 {:>8.0} | f32_b32 \
                 {:>8.0} | batched speedup {:.2}x",
                cell.ns("serial"),
                cell.ns("dense_t1"),
                cell.ns("dense_t2"),
                cell.ns("dense_t4"),
                cell.ns("dense_t8"),
                cell.ns("f32_t1"),
                cell.ns("batched_b32"),
                cell.ns("batched_f32_b32"),
                cell.speedup_batched_vs_serial()
            );
        }
        let fails = gate_failures(&cells, pool_workers);
        if fails.is_empty() || attempts >= MAX_ATTEMPTS {
            break fails;
        }
        eprintln!(
            "selection_smoke: gate miss on attempt {attempts}/{MAX_ATTEMPTS} — folding in \
             another {ROUNDS} rounds per path"
        );
    };

    let cell_1k = &cells[0];
    let cell_100k = cells.last().unwrap();
    let speedup_100k = cell_100k.speedup_batched_vs_serial();
    let t8_vs_t1_100k = cell_100k.ns("dense_t8") / cell_100k.ns("dense_t1");
    let t8_vs_t1_1k = cell_1k.ns("dense_t8") / cell_1k.ns("dense_t1");
    let multi_core = pool_workers > 1;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"selection_throughput_smoke\",\n");
    json.push_str("  \"unit\": \"ns_per_query\",\n");
    json.push_str("  \"statistic\": \"min_over_paired_rounds\",\n");
    let _ = writeln!(json, "  \"rounds_per_attempt\": {ROUNDS},");
    let _ = writeln!(json, "  \"attempts\": {attempts},");
    let _ = writeln!(json, "  \"k_categories\": {K},");
    let _ = writeln!(json, "  \"top_k\": {TOP_K},");
    let _ = writeln!(json, "  \"batch\": {BATCH},");
    let _ = writeln!(json, "  \"pool_workers\": {pool_workers},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(json, "    {{\"candidates\": {}", c.candidates);
        for (name, ns) in &c.paths {
            let _ = write!(json, ", \"{name}\": {ns:.1}");
        }
        let _ = write!(
            json,
            ", \"speedup_batched_vs_serial\": {:.3}}}",
            c.speedup_batched_vs_serial()
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"gate_min_speedup\": {GATE_MIN_SPEEDUP},");
    let _ = writeln!(json, "  \"speedup_100k\": {speedup_100k:.3},");
    let _ = writeln!(
        json,
        "  \"thread_gate\": \"{}\",",
        if multi_core {
            "t8_faster_than_t1_100k"
        } else {
            "single_core_no_regression"
        }
    );
    let _ = writeln!(json, "  \"t8_vs_t1_100k\": {t8_vs_t1_100k:.3},");
    let _ = writeln!(json, "  \"t8_vs_t1_1k\": {t8_vs_t1_1k:.3}");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/BENCH_8.json", &json).expect("write results/BENCH_8.json");
    println!("selection_smoke: wrote results/BENCH_8.json (pool_workers={pool_workers})");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("selection_smoke: FAIL — {f}");
        }
        std::process::exit(1);
    }
    println!(
        "selection_smoke: OK — batched speedup {speedup_100k:.2}x (gate {GATE_MIN_SPEEDUP}x), \
         t8/t1 {t8_vs_t1_100k:.2}x at 100k under the {} gate",
        if multi_core {
            "multi-core"
        } else {
            "single-core"
        }
    );
}
