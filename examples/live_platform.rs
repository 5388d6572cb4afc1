//! The live system of Figure 1: crowd manager + task dispatcher + worker
//! threads + answer collector, with incremental skill updates.
//!
//! ```text
//! cargo run --release --example live_platform
//! ```

use crowdselect::obs::{JsonlSink, Registry, Tracer};
use crowdselect::platform::{Pipeline, PipelineConfig};
use crowdselect::prelude::*;
use crowdselect::store::LoggedDb;
use std::sync::Arc;

fn main() {
    // One shared observability handle: every layer below (WAL, trainer,
    // model, pipeline) records into the same registry, and trace events
    // stream to a JSONL file in the temp directory, beside the WAL.
    let out_dir = std::env::temp_dir();
    let trace_path = out_dir.join("live_platform_trace.jsonl");
    let tracer = match JsonlSink::create(&trace_path) {
        Ok(sink) => {
            println!("trace events stream to {}", trace_path.display());
            Tracer::new(Arc::new(sink))
        }
        Err(_) => Tracer::noop(),
    };
    let obs = Obs::new(Arc::new(Registry::new()), tracer);

    // Seed the crowd database with history for three specialists — through
    // the write-ahead log, so the snapshot below includes WAL timings.
    let wal_path = out_dir.join(format!("live_platform_{}.wal", std::process::id()));
    std::fs::remove_file(&wal_path).ok();
    let mut logged = LoggedDb::open(&wal_path).expect("temp WAL");
    logged.set_obs(&obs);
    let dba = logged.add_worker("dba").unwrap();
    let stat = logged.add_worker("statistician").unwrap();
    let web = logged.add_worker("webdev").unwrap();
    let history: &[(&str, WorkerId)] = &[
        ("btree page split buffer pool checkpoint", dba),
        ("btree index clustered range scan", dba),
        ("write ahead log and btree recovery", dba),
        ("gaussian prior posterior conjugacy", stat),
        ("variance estimation with gaussian likelihood", stat),
        ("bayes rule for latent gaussian models", stat),
        ("css flexbox layout overflowing container", web),
        ("javascript promise async await ordering", web),
        ("css grid template responsive layout", web),
    ];
    for &(text, expert) in history {
        let t = logged.add_task(text).unwrap();
        for &w in &[dba, stat, web] {
            logged.assign(w, t).unwrap();
            let score = if w == expert { 4.0 } else { 0.5 };
            logged.record_feedback(w, t, score).unwrap();
        }
    }
    logged.checkpoint().expect("compaction");
    let db = logged.into_db();
    std::fs::remove_file(&wal_path).ok();

    // Start the pipeline: trains the model and spawns one thread per worker.
    let config = PipelineConfig {
        top_k: 1,
        tdpm: TdpmConfig {
            num_categories: 3,
            max_em_iters: 25,
            seed: 5,
            ..TdpmConfig::default()
        },
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    let answer_fn = Arc::new(|w: WorkerId, d: &crowdselect::platform::events::Dispatch| {
        format!("answer to task {} from worker {}", d.task, w)
    });
    let pipeline = Pipeline::start(db, config, answer_fn).expect("history present");
    println!("pipeline started: model trained, 3 worker threads online\n");

    // A live stream of incoming questions; the simulated asker scores the
    // received answer by whether the right specialist produced it.
    let stream: &[(&str, WorkerId)] = &[
        ("why does my btree index bloat after deletes", dba),
        ("posterior variance under a conjugate gaussian prior", stat),
        ("flexbox children overflow their container", web),
        ("btree page split storm during bulk load", dba),
        ("prior choice for gaussian variance", stat),
        ("css grid rows collapse unexpectedly", web),
    ];
    let experts: Vec<WorkerId> = stream.iter().map(|&(_, e)| e).collect();
    let texts: Vec<&str> = stream.iter().map(|&(t, _)| t).collect();

    // Stream tasks are appended after the history, so task id − base gives
    // the stream index (and thus the right specialist).
    let base = pipeline.manager().db().read().num_tasks();
    let expert_table = experts.clone();
    let score_fn =
        move |w: WorkerId, d: &crowdselect::platform::events::Dispatch, _answer: &str| {
            // The asker knows a good answer when they see one: the right
            // specialist gets 4–5 thumbs, anyone else gets 0–1.
            let idx = d.task.index().saturating_sub(base);
            if idx < expert_table.len() && w == expert_table[idx] {
                4.5
            } else {
                0.5
            }
        };

    let report = pipeline.run(&texts, &score_fn);
    println!("pipeline report: {report:?}\n");

    // Inspect the routing decisions that were made.
    let manager = pipeline.shutdown();
    let db = manager.db().read();
    let first_new = db.num_tasks() - texts.len();
    let mut correct = 0;
    for (i, (&text, &expert)) in texts.iter().zip(&experts).enumerate() {
        let task = TaskId(u32::try_from(first_new + i).expect("task id fits u32"));
        let assigned: Vec<WorkerId> = db.workers_of(task).map(|(w, _)| w).collect();
        let hit = assigned.contains(&expert);
        if hit {
            correct += 1;
        }
        println!(
            "{} routed to {:?} — {}",
            text,
            assigned
                .iter()
                .map(|&w| db.worker(w).unwrap().handle.clone())
                .collect::<Vec<_>>(),
            if hit { "expert ✓" } else { "miss ✗" }
        );
    }
    println!(
        "\n{correct}/{} live questions reached the right specialist",
        texts.len()
    );

    // Everything the run recorded, in one deterministic-ordered snapshot:
    // WAL append/compaction timings, trainer epoch timings and ELBO,
    // projection latency percentiles, and the pipeline lifecycle counters.
    let snapshot: MetricsSnapshot = obs.snapshot();
    println!("\nmetrics snapshot:\n{}", snapshot.summary());
    let metrics_path = out_dir.join("live_platform_metrics.json");
    if std::fs::write(&metrics_path, snapshot.to_json()).is_ok() {
        println!("full snapshot written to {}", metrics_path.display());
    }
    obs.tracer.flush();
}
