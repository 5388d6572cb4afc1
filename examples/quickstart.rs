//! Quickstart: infer "who knows what" from feedback history and route a new
//! question to the right expert.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use crowdselect::prelude::*;

fn main() {
    // 1. A small history of resolved Q&A tasks with feedback scores.
    //    Ada shines on database questions, Carl on statistics.
    let mut db = CrowdDb::new();
    let ada = db.add_worker("ada");
    let carl = db.add_worker("carl");

    let history = [
        ("advantages of b+ tree over b tree", ada, 5.0, carl, 1.0),
        ("btree page split and buffer pool", ada, 4.0, carl, 0.0),
        ("index range scan on clustered btree", ada, 4.0, carl, 1.0),
        ("posterior under a gaussian prior", carl, 5.0, ada, 0.5),
        (
            "variational inference for latent models",
            carl,
            4.0,
            ada,
            1.0,
        ),
        ("variance of a gaussian likelihood", carl, 4.0, ada, 0.0),
    ];
    for (text, good, good_score, bad, bad_score) in history {
        let t = db.add_task(text);
        db.assign(good, t).unwrap();
        db.assign(bad, t).unwrap();
        db.record_feedback(good, t, good_score).unwrap();
        db.record_feedback(bad, t, bad_score).unwrap();
    }
    println!(
        "history: {} tasks, {} workers, {} scored answers",
        db.num_tasks(),
        db.num_workers(),
        db.num_resolved()
    );

    // 2. Fit the task-driven probabilistic model (Algorithm 2).
    let config = TdpmConfig {
        num_categories: 2,
        seed: 7,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(config)
        .fit(&TrainingSet::from_db(&db))
        .expect("training data present");
    for (name, w) in [("ada", ada), ("carl", carl)] {
        let skill = model.skill(w).unwrap();
        println!(
            "{name:>5} latent skills: {:?}",
            rounded(skill.mean.as_slice())
        );
    }

    // 3. A brand-new question is projected onto the learned latent category
    //    space (Algorithm 3) and the top worker is selected (Eq. 1).
    for question in [
        "why does a btree split pages on insert",
        "how do i put a prior on a variance parameter",
    ] {
        let tokens = tokenize_filtered(question);
        let bow = BagOfWords::from_tokens(&tokens, db.vocab_mut());
        let projection = model.project_bow(&bow);
        let candidates: Vec<WorkerId> = db.worker_ids().collect();
        let lambdas = [projection.lambda.as_slice()];
        let ranked = model.select(&lambdas, &candidates, 2, &ScoreSpec::default());
        let names: Vec<String> = ranked[0]
            .ranked
            .iter()
            .map(|r| format!("{} ({:.2})", db.worker(r.worker).unwrap().handle, r.score))
            .collect();
        println!("\nQ: {question}\n   ask: {}", names.join(", "));
    }
}

fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 100.0).round() / 100.0).collect()
}
