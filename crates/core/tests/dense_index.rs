//! The dense worker-id → row index behind every selection, checked against
//! a `HashMap` reference model, and the single row numbering it gives the
//! model's per-worker skill records and its serving matrix.

use crowd_core::{CoreError, ModelParams, SkillMatrix, TdpmConfig, TdpmModel};
use crowd_math::Vector;
use crowd_store::WorkerId;
use proptest::prelude::*;
use std::collections::HashMap;

const K: usize = 3;

/// A servable model whose workers are `ids`, in that order.
fn model_with(ids: &[u32]) -> crowd_core::Result<TdpmModel> {
    let config = TdpmConfig {
        num_categories: K,
        ..TdpmConfig::default()
    };
    let workers = ids
        .iter()
        .map(|&w| {
            (
                WorkerId(w),
                Vector::from_vec(vec![f64::from(w) * 0.1, 0.5, -1.0]),
                Vector::filled(K, 0.25),
            )
        })
        .collect();
    TdpmModel::from_posteriors(ModelParams::neutral(K, 8), config, workers)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn from_posteriors_rejects_duplicate_ids() {
    assert!(matches!(
        model_with(&[4, 1, 4]),
        Err(CoreError::DuplicateWorker(WorkerId(4)))
    ));
    let model = model_with(&[4, 1, 7]).unwrap();
    assert_eq!(model.worker_ids(), &[WorkerId(4), WorkerId(1), WorkerId(7)]);
}

#[test]
fn ids_far_past_the_index_resolve_to_nothing() {
    let mut m = SkillMatrix::new(1);
    m.upsert(WorkerId(3), &[1.0], &[1.0]);
    for w in [0, 2, 4, 1 << 20, u32::MAX] {
        assert_eq!(m.row_of(WorkerId(w)), None, "w{w}");
    }
    let resolved = m.resolve([WorkerId(u32::MAX), WorkerId(3), WorkerId(0)]);
    assert_eq!(resolved, vec![0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random upsert sequences — gapped, out-of-order and repeated ids —
    /// leave `row_of` and `resolve` answering exactly what a `HashMap` of
    /// first-insertion rows answers, with each row holding its id's latest
    /// values.
    #[test]
    fn row_index_matches_a_hash_map_model(
        upserts in prop::collection::vec((0u32..300, -4.0f64..4.0), 0..80),
        probes in prop::collection::vec(0u32..400, 0..60),
    ) {
        let mut m = SkillMatrix::new(2);
        let mut rows: HashMap<WorkerId, usize> = HashMap::new();
        let mut latest: HashMap<WorkerId, f64> = HashMap::new();
        for &(w, x) in &upserts {
            let w = WorkerId(w);
            let next = rows.len();
            rows.entry(w).or_insert(next);
            latest.insert(w, x);
            m.upsert(w, &[x, -x], &[1.0, 2.0]);
        }
        prop_assert_eq!(m.num_workers(), rows.len());
        for (&w, &row) in &rows {
            prop_assert_eq!(m.row_of(w), Some(row));
            prop_assert_eq!(m.ids()[row], w);
            prop_assert_eq!(m.mean_row(row)[0].to_bits(), latest[&w].to_bits());
        }
        // Probes reach past the largest upserted id, so unknown ids both
        // inside and beyond the dense index are dropped, in input order.
        let candidates: Vec<WorkerId> = probes.iter().map(|&w| WorkerId(w)).collect();
        let want: Vec<u32> = candidates
            .iter()
            .filter_map(|&w| rows.get(&w).map(|&row| u32::try_from(row).unwrap()))
            .collect();
        prop_assert_eq!(m.resolve(candidates.iter().copied()), want);
        for &w in &candidates {
            prop_assert_eq!(m.row_of(w), rows.get(&w).copied());
        }
    }

    /// `TdpmModel::skill` and the serving matrix share one row numbering:
    /// after any interleaving of `add_worker` and `record_feedback` every
    /// worker's posterior reads the same bits through both.
    #[test]
    fn skills_and_matrix_rows_stay_in_lockstep(
        ops in prop::collection::vec((0u32..40, prop::option::of(-3.0f64..6.0)), 0..40),
    ) {
        let mut model = model_with(&[9, 2, 30]).unwrap();
        let projection = model.project_words(&[(0, 2), (3, 1)]);
        for (w, score) in ops {
            let w = WorkerId(w);
            match score {
                None => model.add_worker(w),
                Some(s) => {
                    let known = model.skill(w).is_some();
                    match model.record_feedback(w, &projection, s) {
                        Ok(()) => prop_assert!(known),
                        Err(e) => prop_assert!(
                            !known && e == CoreError::UnknownWorker(w),
                            "{e}"
                        ),
                    }
                }
            }
        }
        let m = model.skill_matrix();
        prop_assert_eq!(model.worker_ids(), m.ids());
        for (row, &w) in m.ids().iter().enumerate() {
            prop_assert_eq!(m.row_of(w), Some(row));
            let skill = model.skill(w).unwrap();
            prop_assert_eq!(bits(m.mean_row(row)), bits(skill.mean.as_slice()));
            prop_assert_eq!(bits(m.var_row(row)), bits(skill.variance.as_slice()));
        }
    }
}
