//! Saving and loading trained models.
//!
//! A crowd database outlives any single process; the trained model must too.
//! [`ModelSnapshot`] captures everything a [`TdpmModel`] needs — parameters,
//! per-worker skills with their incremental-update sufficient statistics,
//! and the fitted training-task posteriors — in a serde-friendly form.
//! Derived quantities (`Σ⁻¹`, `log β`, …) are rebuilt on load.

use crate::config::TdpmConfig;
use crate::model::{TaskProjection, TdpmModel};
use crate::params::ModelParams;
use crate::{CoreError, Result};
use crowd_math::{Matrix, Vector};
use crowd_store::{TaskId, WorkerId};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Flat, serializable image of a trained model.
#[derive(Debug, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    config: TdpmConfig,
    params: ModelParams,
    workers: Vec<WorkerEntry>,
    trained_tasks: Vec<(TaskId, Vector, Vector, f64)>,
}

#[derive(Debug, Serialize, Deserialize)]
struct WorkerEntry {
    id: WorkerId,
    mean: Vector,
    variance: Vector,
    sum_cc: Matrix,
    sum_sc: Vector,
    sum_diag: Vector,
    num_jobs: usize,
}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl ModelSnapshot {
    /// Captures a model.
    pub fn capture(model: &TdpmModel) -> Self {
        let workers = model
            .worker_ids()
            .iter()
            // `worker_ids` and `skill` read the same row index, so every
            // listed worker resolves; `filter_map` keeps the capture total
            // anyway.
            .filter_map(|&id| {
                let s = model.skill(id)?;
                let (sum_cc, sum_sc, sum_diag) = s.sufficient_stats();
                Some(WorkerEntry {
                    id,
                    mean: s.mean.clone(),
                    variance: s.variance.clone(),
                    sum_cc: sum_cc.clone(),
                    sum_sc: sum_sc.clone(),
                    sum_diag: sum_diag.clone(),
                    num_jobs: s.num_jobs(),
                })
            })
            .collect();
        let mut trained_tasks: Vec<(TaskId, Vector, Vector, f64)> = model
            .trained_task_ids()
            .filter_map(|t| {
                let p = model.trained_projection(t)?;
                Some((t, p.lambda.clone(), p.nu2.clone(), p.num_tokens))
            })
            .collect();
        trained_tasks.sort_by_key(|&(t, _, _, _)| t);
        ModelSnapshot {
            version: SNAPSHOT_VERSION,
            config: model.config().clone(),
            params: model.params().clone(),
            workers,
            trained_tasks,
        }
    }

    /// Rebuilds the model (recomputing cached derived quantities).
    pub fn restore(self) -> Result<TdpmModel> {
        if self.version != SNAPSHOT_VERSION {
            return Err(CoreError::Numerical(format!(
                "unsupported model snapshot version {}",
                self.version
            )));
        }
        let worker_ids: Vec<WorkerId> = self.workers.iter().map(|w| w.id).collect();
        let skills = self
            .workers
            .into_iter()
            .map(|w| {
                TdpmModel::skill_from_training(
                    w.mean, w.variance, w.sum_cc, w.sum_sc, w.sum_diag, w.num_jobs,
                )
            })
            .collect();
        let mut model = TdpmModel::assemble(self.params, self.config, skills, worker_ids)?;
        let trained = self
            .trained_tasks
            .into_iter()
            .map(|(t, lambda, nu2, num_tokens)| {
                (
                    t,
                    TaskProjection {
                        lambda,
                        nu2,
                        num_tokens,
                    },
                )
            })
            .collect();
        model.set_trained_tasks(trained);
        Ok(model)
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| CoreError::Numerical(e.to_string()))
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| CoreError::Numerical(e.to_string()))
    }

    /// Writes the snapshot to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_json()?).map_err(|e| CoreError::Numerical(e.to_string()))
    }

    /// Reads a snapshot from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let json =
            std::fs::read_to_string(path).map_err(|e| CoreError::Numerical(e.to_string()))?;
        ModelSnapshot::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crate::{TdpmConfig, TdpmTrainer, TrainingSet};

    fn trained_model() -> TdpmModel {
        let tasks = (0..8u32)
            .map(|j| TaskData {
                task: TaskId(j),
                words: if j % 2 == 0 {
                    vec![(0, 2), (1, 1)]
                } else {
                    vec![(2, 2), (3, 1)]
                },
                num_tokens: 3.0,
                scores: if j % 2 == 0 {
                    vec![(0, 4.0), (1, 0.5)]
                } else {
                    vec![(0, 0.5), (1, 4.0)]
                },
            })
            .collect();
        let ts = TrainingSet::from_parts(tasks, 2, 4);
        let cfg = TdpmConfig {
            num_categories: 2,
            max_em_iters: 10,
            seed: 4,
            ..TdpmConfig::default()
        };
        TdpmTrainer::new(cfg).fit(&ts).unwrap().0
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let model = trained_model();
        let json = ModelSnapshot::capture(&model).to_json().unwrap();
        let restored = ModelSnapshot::from_json(&json).unwrap().restore().unwrap();

        // Identical skills.
        for &w in model.worker_ids() {
            let a = model.skill(w).unwrap();
            let b = restored.skill(w).unwrap();
            assert_eq!(a.mean.as_slice(), b.mean.as_slice());
            assert_eq!(a.variance.as_slice(), b.variance.as_slice());
            assert_eq!(a.num_jobs(), b.num_jobs());
        }
        // Identical projections and rankings.
        let words = vec![(0usize, 3u32)];
        let pa = model.project_words(&words);
        let pb = restored.project_words(&words);
        assert_eq!(pa.lambda.as_slice(), pb.lambda.as_slice());
        // Trained-task posteriors survive.
        let t = TaskId(0);
        assert_eq!(
            model.trained_projection(t).unwrap().lambda.as_slice(),
            restored.trained_projection(t).unwrap().lambda.as_slice()
        );
    }

    #[test]
    fn restored_model_accepts_incremental_updates() {
        let model = trained_model();
        let mut restored = ModelSnapshot::capture(&model).restore().unwrap();
        let before = restored.skill(WorkerId(1)).unwrap().num_jobs();
        let p = restored.project_words(&[(0, 3)]);
        restored
            .record_feedback(WorkerId(1), &p, 5.0)
            .expect("incremental update works after restore");
        assert_eq!(restored.skill(WorkerId(1)).unwrap().num_jobs(), before + 1);
    }

    #[test]
    fn file_roundtrip() {
        let model = trained_model();
        let dir = std::env::temp_dir().join("crowd_core_model_snapshot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        ModelSnapshot::capture(&model).save(&path).unwrap();
        let back = ModelSnapshot::load(&path).unwrap().restore().unwrap();
        assert_eq!(back.worker_ids(), model.worker_ids());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_with_a_retired_config_field_still_loads() {
        // Snapshots written before the task-mean solver became Newton carry
        // `config.cg_max_iters`. Fields are looked up by name, so the stale
        // key is ignored and the format version stays the same.
        let model = trained_model();
        let json = ModelSnapshot::capture(&model).to_json().unwrap();
        let stale = json.replacen("\"config\":{", "\"config\":{\"cg_max_iters\":40,", 1);
        assert_ne!(stale, json, "the config object was found");
        let restored = ModelSnapshot::from_json(&stale).unwrap().restore().unwrap();
        let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &w in model.worker_ids() {
            let (a, b) = (model.skill(w).unwrap(), restored.skill(w).unwrap());
            assert_eq!(bits(&a.mean), bits(&b.mean));
            assert_eq!(bits(&a.variance), bits(&b.variance));
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let model = trained_model();
        let mut snap = ModelSnapshot::capture(&model);
        snap.version = 999;
        assert!(snap.restore().is_err());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(ModelSnapshot::from_json("{oops").is_err());
    }
}
