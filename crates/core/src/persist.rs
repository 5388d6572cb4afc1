//! Saving and loading trained models.
//!
//! A crowd database outlives any single process; the trained model must too.
//! [`ModelSnapshot`] captures everything a [`TdpmModel`] needs — parameters,
//! per-worker skills with their incremental-update sufficient statistics,
//! and the fitted training-task posteriors — in a serde-friendly form.
//! Derived quantities (`Σ⁻¹`, `log β`, …) are rebuilt on load.

use crate::config::TdpmConfig;
use crate::model::{FeedbackStats, TdpmModel, TrainedTasks};
use crate::params::ModelParams;
use crate::variational::Slab;
use crate::{CoreError, Result};
use crowd_math::Vector;
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
    sum_cc: SquareImage,
    sum_sc: Vector,
    sum_diag: Vector,
    num_jobs: usize,
}

/// A `K × K` statistic in `crowd_math::Matrix`'s serialized form, with its
/// entries readable for the shape check on restore.
#[derive(Debug, Serialize, Deserialize)]
struct SquareImage {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The first `(field, length, expected length)` of `owner` that is off,
/// as a typed error: a malformed snapshot.
fn check_lens(owner: impl std::fmt::Debug, lens: &[(&str, usize, usize)]) -> Result<()> {
    match lens.iter().find(|&&(_, len, want)| len != want) {
        None => Ok(()),
        Some(&(field, len, want)) => Err(CoreError::Numerical(format!(
            "snapshot {field} of {owner:?} has {len} entries, expected {want}"
        ))),
    }
}

/// Copies `rows`, each `width` entries long, one after another into a slab.
fn slab<'a>(width: usize, rows: impl ExactSizeIterator<Item = &'a [f64]>) -> Slab {
    let mut data = Vec::with_capacity(rows.len() * width);
    for row in rows {
        data.extend_from_slice(row);
    }
    Slab::from_vec(width, data)
}

impl ModelSnapshot {
    /// Captures a model.
    pub fn capture(model: &TdpmModel) -> Self {
        let k = model.num_categories();
        let matrix = model.skill_matrix();
        let stats = model.feedback_stats();
        let row_vector = |row: &[f64]| Vector::from_vec(row.to_vec());
        let workers = matrix
            .ids()
            .iter()
            .enumerate()
            .map(|(row, &id)| WorkerEntry {
                id,
                mean: row_vector(matrix.mean_row(row)),
                variance: row_vector(matrix.var_row(row)),
                sum_cc: SquareImage {
                    rows: k,
                    cols: k,
                    data: stats.sum_cc[row].to_vec(),
                },
                sum_sc: row_vector(&stats.sum_sc[row]),
                sum_diag: row_vector(&stats.sum_diag[row]),
                num_jobs: stats.num_jobs[row],
            })
            .collect();
        let tasks = model.trained_tasks();
        let trained_tasks = tasks
            .rows()
            .map(|(t, row)| {
                (
                    t,
                    row_vector(&tasks.lambda[row]),
                    row_vector(&tasks.nu2[row]),
                    tasks.num_tokens[row],
                )
            })
            .collect();
        ModelSnapshot {
            version: SNAPSHOT_VERSION,
            config: model.config().clone(),
            params: model.params().clone(),
            workers,
            trained_tasks,
        }
    }

    /// Rebuilds the model (recomputing cached derived quantities).
    ///
    /// Returns [`CoreError::Numerical`] for an unknown version, parameters
    /// whose `K` is not the config's, or a posterior or statistic of the
    /// wrong length, and [`CoreError::DuplicateWorker`] for a repeated
    /// worker id.
    pub fn restore(self) -> Result<TdpmModel> {
        if self.version != SNAPSHOT_VERSION {
            return Err(CoreError::Numerical(format!(
                "unsupported model snapshot version {}",
                self.version
            )));
        }
        self.check_shapes()?;
        let ModelSnapshot {
            config,
            params,
            workers,
            trained_tasks,
            ..
        } = self;
        let k = config.num_categories;
        let stats = FeedbackStats::new(
            slab(k * k, workers.iter().map(|w| w.sum_cc.data.as_slice())),
            slab(k, workers.iter().map(|w| w.sum_sc.as_slice())),
            slab(k, workers.iter().map(|w| w.sum_diag.as_slice())),
            workers.iter().map(|w| w.num_jobs).collect(),
        );
        let trained = TrainedTasks::new(
            trained_tasks.iter().map(|&(t, _, _, _)| t),
            slab(k, trained_tasks.iter().map(|(_, l, _, _)| l.as_slice())),
            slab(k, trained_tasks.iter().map(|(_, _, v, _)| v.as_slice())),
            trained_tasks.iter().map(|&(_, _, _, n)| n).collect(),
        );
        let ids = workers.iter().map(|w| w.id).collect();
        let means = slab(k, workers.iter().map(|w| w.mean.as_slice()));
        let variances = slab(k, workers.iter().map(|w| w.variance.as_slice()));
        TdpmModel::assemble(params, config, ids, means, variances, stats, trained)
    }

    /// Every row `K` wide (`sum_cc` `K × K`), with the parameters' `K`
    /// equal to the config's — checked before anything is built.
    fn check_shapes(&self) -> Result<()> {
        let k = self.config.num_categories;
        let p = &self.params;
        check_lens(
            "params",
            &[
                ("mu_w", p.mu_w.len(), k),
                ("mu_c", p.mu_c.len(), k),
                ("sigma_w rows", p.sigma_w.rows(), k),
                ("sigma_w cols", p.sigma_w.cols(), k),
                ("sigma_c rows", p.sigma_c.rows(), k),
                ("sigma_c cols", p.sigma_c.cols(), k),
                ("beta rows", p.beta.rows(), k),
            ],
        )?;
        for w in &self.workers {
            let cc = &w.sum_cc;
            check_lens(
                w.id,
                &[
                    ("mean", w.mean.len(), k),
                    ("variance", w.variance.len(), k),
                    ("sum_sc", w.sum_sc.len(), k),
                    ("sum_diag", w.sum_diag.len(), k),
                    ("sum_cc rows", cc.rows, k),
                    ("sum_cc cols", cc.cols, k),
                    ("sum_cc", cc.data.len(), k * k),
                ],
            )?;
        }
        for (t, lambda, nu2, _) in &self.trained_tasks {
            check_lens(t, &[("lambda", lambda.len(), k), ("nu2", nu2.len(), k)])?;
        }
        Ok(())
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

    /// `json` with the last entry cut from the `skip`-th `"data":[…]` array
    /// after the first `anchor` (`skip = 0` is the first array).
    fn shorten(json: &str, anchor: &str, skip: usize) -> String {
        let key = "\"data\":[";
        let mut open = json.find(anchor).expect("anchor") + anchor.len();
        for _ in 0..=skip {
            open += json[open..].find(key).expect("array") + key.len();
        }
        let close = open + json[open..].find(']').expect("array end");
        let cut = open + json[open..close].rfind(',').expect("two entries");
        format!("{}{}", &json[..cut], &json[close..])
    }

    #[test]
    fn malformed_snapshots_are_typed_errors() {
        let json = ModelSnapshot::capture(&trained_model()).to_json().unwrap();
        let tasks = "\"trained_tasks\":[";
        // (the field the error must name, the hand-edited snapshot)
        let edits = [
            (
                "mu_w",
                json.replacen("\"num_categories\":2", "\"num_categories\":3", 1),
            ),
            ("mean", shorten(&json, "\"mean\":", 0)),
            ("variance", shorten(&json, "\"variance\":", 0)),
            ("sum_cc", shorten(&json, "\"sum_cc\":", 0)),
            (
                "sum_cc rows",
                json.replacen("\"sum_cc\":{\"rows\":2", "\"sum_cc\":{\"rows\":1", 1),
            ),
            ("sum_sc", shorten(&json, "\"sum_sc\":", 0)),
            ("sum_diag", shorten(&json, "\"sum_diag\":", 0)),
            ("lambda", shorten(&json, tasks, 0)),
            ("nu2", shorten(&json, tasks, 1)),
        ];
        for (field, bad) in edits {
            assert_ne!(bad, json, "{field}: the edit applied");
            let snap = ModelSnapshot::from_json(&bad).expect("still valid JSON");
            match snap.restore() {
                Err(CoreError::Numerical(msg)) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field}: {:?}", other.map(|_| ())),
            }
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
