//! Question routing on a synthetic Quora-style platform: compare all four
//! crowd-selection algorithms (VSM, TSPM, DRM, TDPM) on held-out questions.
//!
//! ```text
//! cargo run --release --example question_routing
//! ```

use crowdselect::eval::metrics::EvalAccumulator;
use crowdselect::eval::protocol::EvalProtocol;
use crowdselect::prelude::*;
use crowdselect::store::WorkerGroup as Group;

fn main() {
    // A scaled-down Quora: power-law worker activity, thumbs-up feedback.
    let sim = SimConfig::quora(0.1, 42);
    println!(
        "generating Quora-like platform: {} workers, {} tasks…",
        sim.num_workers, sim.num_tasks
    );
    let platform = PlatformGenerator::new(sim).generate();
    let db = &platform.db;
    let (q, u, a) = platform.stats();
    println!("generated {q} questions, {u} users, {a} answers\n");

    // Fit each selector on the full history.
    let k = 8;
    println!("fitting selectors (K = {k} latent categories)…");
    let tdpm = TdpmConfig {
        num_categories: k,
        seed: 1,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(tdpm)
        .fit(&TrainingSet::from_db(db))
        .expect("resolved tasks exist");
    let selectors: Vec<Box<dyn CrowdSelector>> = vec![
        Box::new(VsmSelector::fit(db)),
        Box::new(TspmSelector::fit(db, k, 1)),
        Box::new(DrmSelector::fit(db, k, 1)),
        Box::new(model),
    ];

    // Evaluate on questions whose best answerer is an active worker.
    let group = Group::extract(db, 3);
    let protocol = EvalProtocol::new(200, 7);
    let questions = protocol.test_questions(db, &group);
    println!(
        "evaluating on {} held-out questions (best answerer among {} active workers)\n",
        questions.len(),
        group.len()
    );

    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>12}",
        "algo", "precision", "top1", "top2", "latency(ms)"
    );
    let mut results: Vec<(&str, EvalAccumulator)> = Vec::new();
    for s in &selectors {
        let acc = protocol.evaluate(s.as_ref(), &questions);
        println!(
            "{:<8} {:>10.3} {:>8.3} {:>8.3} {:>12.4}",
            s.name(),
            acc.precision(),
            acc.top_k(1),
            acc.top_k(2),
            acc.mean_latency_ms()
        );
        results.push((s.name(), acc));
    }

    // Show one concrete routing decision.
    let sample = &questions[0];
    println!(
        "\nsample question: {:?}",
        db.task(sample.task).unwrap().text
    );
    println!("right worker (best answerer): {}", sample.right);
    for s in &selectors {
        let top = s.select(&sample.bow, &sample.candidates, 2);
        let picks: Vec<String> = top.iter().map(|r| r.worker.to_string()).collect();
        println!("  {:<5} picks {}", s.name(), picks.join(", "));
    }
}
