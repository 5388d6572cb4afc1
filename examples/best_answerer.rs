//! Best-answerer prediction on a synthetic Yahoo!-Answers-style platform.
//!
//! Yahoo! feedback is qualitative: the asker marks one answer as *best*
//! (score 1.0) and other answers score their Jaccard similarity to it
//! (paper Section 4.1.5). This example trains TDPM on that signal and
//! measures how often it puts the future best answerer first.
//!
//! ```text
//! cargo run --release --example best_answerer
//! ```

use crowdselect::eval::metrics::accu;
use crowdselect::prelude::*;

fn main() {
    let sim = SimConfig::yahoo(0.08, 11);
    println!(
        "generating Yahoo-like platform: {} workers, {} tasks…",
        sim.num_workers, sim.num_tasks
    );
    let platform = PlatformGenerator::new(sim).generate();
    let db = &platform.db;

    // Split: train on the first 80% of tasks, test on the rest. The model
    // must predict best answerers for questions it never saw.
    let all = db.resolved_tasks();
    let split = all.len() * 8 / 10;
    let mut train_db = CrowdDb::new();
    // Rebuild a training database with the same ids.
    for w in db.worker_ids() {
        train_db.add_worker(db.worker(w).unwrap().handle.clone());
    }
    for term in (0..db.vocab().len()).map(|i| {
        db.vocab()
            .term(crowdselect::text::TermId(
                u32::try_from(i).expect("vocab fits u32"),
            ))
            .unwrap()
            .to_owned()
    }) {
        train_db.vocab_mut().intern(&term);
    }
    for rt in &all[..split] {
        let rec = db.task(rt.task).unwrap();
        let t = train_db.add_task_raw(rec.text.clone(), rec.bow.clone());
        for &(w, s) in &rt.scores {
            train_db.assign(w, t).unwrap();
            train_db.record_feedback(w, t, s).unwrap();
        }
    }
    println!(
        "training on {} tasks, testing on {}",
        split,
        all.len() - split
    );

    let config = TdpmConfig {
        num_categories: 8,
        max_em_iters: 12,
        seed: 3,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(config)
        .fit(&TrainingSet::from_db(&train_db))
        .expect("training data");

    // Test: rank each held-out question's answerers; the ground truth is the
    // recorded best answerer.
    let mut accu_sum = 0.0;
    let mut top1 = 0usize;
    let mut n = 0usize;
    for rt in &all[split..] {
        if rt.scores.len() < 2 {
            continue;
        }
        let right = rt
            .scores
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap()
            .0;
        let projection = model.project_bow(&rt.bow);
        let candidates: Vec<WorkerId> = rt.scores.iter().map(|&(w, _)| w).collect();
        let lambdas = [projection.lambda.as_slice()];
        let ranked = model.select(
            &lambdas,
            &candidates,
            candidates.len(),
            &ScoreSpec::default(),
        );
        let rank = ranked[0]
            .ranked
            .iter()
            .position(|r| r.worker == right)
            .map(|p| p + 1)
            .unwrap_or(candidates.len());
        accu_sum += accu(rank, candidates.len());
        if rank == 1 {
            top1 += 1;
        }
        n += 1;
    }
    println!("\nheld-out questions evaluated: {n}");
    println!("mean ACCU (precision): {:.3}", accu_sum / n as f64);
    println!("Top-1 recall:          {:.3}", top1 as f64 / n as f64);

    // Baseline for context: picking a uniformly random answerer.
    let avg_candidates: f64 = all[split..]
        .iter()
        .filter(|rt| rt.scores.len() >= 2)
        .map(|rt| rt.scores.len() as f64)
        .sum::<f64>()
        / n as f64;
    println!(
        "random-pick Top-1 would be ≈ {:.3} ({avg_candidates:.1} answerers/question)",
        1.0 / avg_candidates
    );
}
