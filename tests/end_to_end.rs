//! Cross-crate integration: generated platform → database → selectors →
//! evaluation → persistence, all through the public facade.

use crowdselect::baselines::{CrowdSelector, VsmSelector};
use crowdselect::eval::protocol::EvalProtocol;
use crowdselect::prelude::*;
use crowdselect::store::snapshot::Snapshot;

fn small_quora() -> crowdselect::sim::GeneratedPlatform {
    PlatformGenerator::new(SimConfig::quora(0.04, 31)).generate()
}

#[test]
fn generated_platform_round_trips_through_snapshot() {
    let platform = small_quora();
    let snap = Snapshot::capture(&platform.db);
    let json = snap.to_json().unwrap();
    let restored = Snapshot::from_json(&json).unwrap().restore();
    assert_eq!(restored.num_tasks(), platform.db.num_tasks());
    assert_eq!(restored.num_workers(), platform.db.num_workers());
    assert_eq!(restored.num_resolved(), platform.db.num_resolved());

    // The restored database trains the same-shaped model.
    let cfg = TdpmConfig {
        num_categories: 4,
        max_em_iters: 5,
        seed: 1,
        ..TdpmConfig::default()
    };
    let (model, _) = TdpmTrainer::new(cfg)
        .fit(&TrainingSet::from_db(&restored))
        .unwrap();
    assert_eq!(model.worker_ids().len(), restored.num_workers());
}

#[test]
fn trained_selector_beats_reversed_self() {
    // Sanity for the whole chain: TDPM's ranking must carry signal, i.e.
    // score strictly better than the same ranking reversed.
    let platform = small_quora();
    let db = &platform.db;
    let (tdpm, _) = TdpmTrainer::new(TdpmConfig {
        num_categories: 4,
        seed: 3,
        ..TdpmConfig::default()
    })
    .fit(&TrainingSet::from_db(db))
    .unwrap();
    let group = WorkerGroup::extract(db, 1);
    let protocol = EvalProtocol::new(120, 5);
    let questions = protocol.test_questions(db, &group);
    assert!(questions.len() >= 20, "enough test questions generated");

    struct Reversed<'a>(&'a TdpmModel);
    impl CrowdSelector for Reversed<'_> {
        fn name(&self) -> &'static str {
            "REV"
        }
        fn rank(
            &self,
            task: &BagOfWords,
            candidates: &[WorkerId],
        ) -> Vec<crowdselect::model::selection::RankedWorker> {
            let mut r = self.0.rank(task, candidates);
            r.reverse();
            r
        }
    }

    let fwd = protocol.evaluate(&tdpm, &questions).precision();
    let rev = protocol.evaluate(&Reversed(&tdpm), &questions).precision();
    assert!(
        fwd > rev + 0.1,
        "forward {fwd:.3} must clearly beat reversed {rev:.3}"
    );
    assert!(fwd > 0.5, "forward precision above coin flip: {fwd:.3}");
}

#[test]
fn vsm_profile_matches_store_history() {
    let platform = small_quora();
    let db = &platform.db;
    let vsm = VsmSelector::fit(db);
    for w in db.worker_ids().take(20) {
        let profile = vsm.profile(w).unwrap();
        assert_eq!(
            profile.total_tokens(),
            db.worker_history_bow(w).total_tokens()
        );
    }
}

#[test]
fn manager_serves_generated_platform_online() {
    let platform = PlatformGenerator::new(SimConfig::stack_overflow(0.03, 17)).generate();
    let manager = CrowdManager::new(
        SharedCrowdDb::new(platform.db),
        ManagerConfig {
            top_k: 3,
            tdpm: TdpmConfig {
                num_categories: 4,
                max_em_iters: 5,
                seed: 2,
                ..TdpmConfig::default()
            },
            retrain_every: None,
        },
    );
    let report = manager.train().unwrap();
    assert!(report.iterations >= 1);

    let workers: Vec<WorkerId> = manager.db().read().worker_ids().collect();
    for &w in workers.iter().take(10) {
        manager.set_online(w);
    }
    let (task, selected) = manager.submit_task("term0001 term0002 term0003").unwrap();
    assert_eq!(selected.len(), 3);
    for r in &selected {
        assert!(manager.db().read().is_assigned(r.worker, task));
        manager.record_feedback(r.worker, task, 1.0).unwrap();
    }
}

#[test]
fn yahoo_feedback_is_bounded_and_best_marked() {
    let platform = PlatformGenerator::new(SimConfig::yahoo(0.03, 23)).generate();
    for rt in platform.db.resolved_tasks() {
        let max = rt.scores.iter().map(|&(_, s)| s).fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        for &(_, s) in &rt.scores {
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
