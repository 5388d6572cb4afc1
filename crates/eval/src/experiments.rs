//! Experiment drivers: one per table / figure of the paper's Section 7.

use crate::protocol::{EvalMode, EvalProtocol};
use crowd_baselines::{CrowdSelector, DrmSelector, TspmSelector, VsmSelector};
use crowd_core::{TdpmConfig, TdpmTrainer, TrainingSet};
use crowd_sim::{GeneratedPlatform, PlatformGenerator, PlatformKind, SimConfig};
use crowd_store::groups::group_stats_sweep;
use crowd_store::{GroupStats, WorkerGroup};
use serde::Serialize;

/// Algorithm order used in every table (matches the paper's rows).
pub const ALGORITHMS: [&str; 4] = ["VSM", "TSPM", "DRM", "TDPM"];

/// Knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExperimentSettings {
    /// Platform scale factor (1.0 ≈ 1/250 of the paper's crawls).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Test questions per group (the paper samples 10k / 1k).
    pub max_questions: usize,
    /// Latent-category sweep for the precision tables (paper: 10–50).
    pub category_sweep: Vec<usize>,
    /// Latent categories for recall / runtime experiments.
    pub recall_categories: usize,
    /// EM iterations for the probabilistic models.
    pub em_iters: usize,
    /// Task representation for the precision / recall tables.
    ///
    /// [`EvalMode::Reconstruct`] matches the paper (test questions are
    /// resolved historical tasks, fitted posteriors allowed);
    /// [`EvalMode::Project`] is the stricter new-task condition. The
    /// running-time figures always use `Project` — they measure the online
    /// selection path.
    pub mode: EvalMode,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        ExperimentSettings {
            scale: 0.2,
            seed: 2015,
            max_questions: 300,
            category_sweep: vec![10, 20, 30, 40, 50],
            recall_categories: 10,
            em_iters: 12,
            mode: EvalMode::Reconstruct,
        }
    }
}

/// One precision cell: algorithm × group × category count.
#[derive(Debug, Clone, Serialize)]
pub struct PrecisionCell {
    /// Algorithm name.
    pub algo: String,
    /// Group participation threshold.
    pub group: usize,
    /// Latent category count `K`.
    pub k: usize,
    /// Mean ACCU.
    pub precision: f64,
    /// Questions evaluated.
    pub questions: usize,
}

/// One recall row: algorithm × group.
#[derive(Debug, Clone, Serialize)]
pub struct RecallCell {
    /// Algorithm name.
    pub algo: String,
    /// Group participation threshold.
    pub group: usize,
    /// Top-1 recall.
    pub top1: f64,
    /// Top-2 recall.
    pub top2: f64,
    /// Questions evaluated.
    pub questions: usize,
}

/// One running-time cell: algorithm × group (Figures 4 / 6 / 8).
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeCell {
    /// Algorithm name.
    pub algo: String,
    /// Group participation threshold.
    pub group: usize,
    /// Mean Top-1 selection latency (ms).
    pub top1_ms: f64,
    /// Mean Top-2 selection latency (ms).
    pub top2_ms: f64,
}

/// Table-2-style dataset statistics.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetStats {
    /// Platform name.
    pub platform: String,
    /// Total questions.
    pub questions: usize,
    /// Total users.
    pub users: usize,
    /// Total answers.
    pub answers: usize,
}

/// All experiments for one platform, sharing a generated database and
/// lazily fitted selectors.
#[derive(Debug)]
pub struct PlatformExperiments {
    platform: GeneratedPlatform,
    settings: ExperimentSettings,
}

impl PlatformExperiments {
    /// Generates the synthetic platform for `kind`.
    pub fn new(kind: PlatformKind, settings: ExperimentSettings) -> Self {
        let sim = match kind {
            PlatformKind::Quora => SimConfig::quora(settings.scale, settings.seed),
            PlatformKind::Yahoo => SimConfig::yahoo(settings.scale, settings.seed),
            PlatformKind::StackOverflow => SimConfig::stack_overflow(settings.scale, settings.seed),
        };
        let platform = PlatformGenerator::new(sim).generate();
        PlatformExperiments { platform, settings }
    }

    /// Wraps an already generated platform (tests, custom workloads).
    pub fn from_platform(platform: GeneratedPlatform, settings: ExperimentSettings) -> Self {
        PlatformExperiments { platform, settings }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &GeneratedPlatform {
        &self.platform
    }

    /// Paper-faithful group thresholds for this platform: the precision
    /// tables use 3 groups, the recall tables and runtime figures 5, the
    /// coverage figures up to 6.
    pub fn group_thresholds(&self) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        match self.platform.config.kind {
            PlatformKind::Quora => (vec![1, 5, 9], vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5, 9]),
            PlatformKind::Yahoo => (
                vec![10, 15, 20],
                vec![10, 15, 20, 25, 30],
                vec![1, 10, 20, 30],
            ),
            PlatformKind::StackOverflow => (
                vec![1, 6, 12],
                vec![1, 3, 6, 9, 12],
                vec![1, 3, 6, 9, 12, 15],
            ),
        }
    }

    /// Table 2 row.
    pub fn dataset_stats(&self) -> DatasetStats {
        let (q, u, a) = self.platform.stats();
        DatasetStats {
            platform: self.platform.config.kind.name().to_owned(),
            questions: q,
            users: u,
            answers: a,
        }
    }

    /// Figures 3 / 5 / 7: task coverage and group size per threshold.
    pub fn group_stats(&self) -> Vec<GroupStats> {
        let (_, _, stats_groups) = self.group_thresholds();
        group_stats_sweep(&self.platform.db, &stats_groups)
    }

    /// Tables 3 / 5 / 7: precision per algorithm × group × K.
    pub fn precision_table(&self) -> Vec<PrecisionCell> {
        let (groups, _, _) = self.group_thresholds();
        let protocol = self.protocol();
        let db = &self.platform.db;
        let mut cells = Vec::new();

        // VSM is K-independent; evaluate once per group and replicate.
        let vsm = VsmSelector::fit(db);
        for &g in &groups {
            let group = WorkerGroup::extract(db, g);
            let questions = protocol.test_questions(db, &group);
            let acc = protocol.evaluate(&vsm, &questions);
            cells.push(PrecisionCell {
                algo: "VSM".into(),
                group: g,
                k: 0,
                precision: acc.precision(),
                questions: acc.num_questions(),
            });
        }

        for &k in &self.settings.category_sweep {
            let selectors = self.fit_probabilistic(k);
            for &g in &groups {
                let group = WorkerGroup::extract(db, g);
                let questions = protocol.test_questions(db, &group);
                for selector in &selectors {
                    let acc = protocol.evaluate(selector.as_ref(), &questions);
                    cells.push(PrecisionCell {
                        algo: selector.name().into(),
                        group: g,
                        k,
                        precision: acc.precision(),
                        questions: acc.num_questions(),
                    });
                }
            }
        }
        cells
    }

    /// Tables 4 / 6 / 8: Top-1 / Top-2 recall per algorithm × group.
    pub fn recall_table(&self) -> Vec<RecallCell> {
        let (_, groups, _) = self.group_thresholds();
        let protocol = self.protocol();
        let db = &self.platform.db;
        let mut selectors: Vec<Box<dyn CrowdSelector>> = vec![Box::new(VsmSelector::fit(db))];
        selectors.extend(self.fit_probabilistic(self.settings.recall_categories));

        let mut cells = Vec::new();
        for &g in &groups {
            let group = WorkerGroup::extract(db, g);
            let questions = protocol.test_questions(db, &group);
            for selector in &selectors {
                let acc = protocol.evaluate(selector.as_ref(), &questions);
                cells.push(RecallCell {
                    algo: selector.name().into(),
                    group: g,
                    top1: acc.top_k(1),
                    top2: acc.top_k(2),
                    questions: acc.num_questions(),
                });
            }
        }
        cells
    }

    /// Figures 4 / 6 / 8: mean selection latency per algorithm × group.
    ///
    /// Always measured on the online path (fresh projection), since that is
    /// what the paper's running-time figures time.
    pub fn runtime_figure(&self) -> Vec<RuntimeCell> {
        let (_, groups, _) = self.group_thresholds();
        let protocol =
            EvalProtocol::projecting(self.settings.max_questions, self.settings.seed ^ 0xEA11);
        let db = &self.platform.db;
        let mut selectors: Vec<Box<dyn CrowdSelector>> = vec![Box::new(VsmSelector::fit(db))];
        selectors.extend(self.fit_probabilistic(self.settings.recall_categories));

        let mut cells = Vec::new();
        for &g in &groups {
            let group = WorkerGroup::extract(db, g);
            let questions = protocol.test_questions(db, &group);
            for selector in &selectors {
                // Top-1 and Top-2 share the ranking cost; time them
                // separately anyway so the figure is an honest measurement.
                let acc1 = protocol.evaluate(selector.as_ref(), &questions);
                let acc2 = protocol.evaluate(selector.as_ref(), &questions);
                cells.push(RuntimeCell {
                    algo: selector.name().into(),
                    group: g,
                    top1_ms: acc1.mean_latency_ms(),
                    top2_ms: acc2.mean_latency_ms(),
                });
            }
        }
        cells
    }

    /// Fits TSPM, DRM and TDPM with `k` latent categories (paper row order).
    ///
    /// # Panics
    ///
    /// Panics if the generated platform has no resolved tasks; experiment
    /// generators always resolve training tasks, so this indicates a broken
    /// experiment config.
    pub fn fit_probabilistic(&self, k: usize) -> Vec<Box<dyn CrowdSelector>> {
        let db = &self.platform.db;
        let seed = self.settings.seed;
        let tspm = TspmSelector::fit(db, k, seed);
        let drm = DrmSelector::fit(db, k, seed);
        let cfg = TdpmConfig {
            num_categories: k,
            max_em_iters: self.settings.em_iters,
            seed,
            ..TdpmConfig::default()
        };
        let (model, _) = TdpmTrainer::new(cfg)
            .fit(&TrainingSet::from_db(db))
            .expect("generated platforms always have resolved tasks");
        vec![Box::new(tspm), Box::new(drm), Box::new(model)]
    }

    fn protocol(&self) -> EvalProtocol {
        let mut p = EvalProtocol::new(self.settings.max_questions, self.settings.seed ^ 0xEA11);
        p.mode = self.settings.mode;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            scale: 0.04,
            max_questions: 40,
            category_sweep: vec![4],
            recall_categories: 4,
            em_iters: 6,
            seed: 3,
            mode: EvalMode::Reconstruct,
        }
    }

    #[test]
    fn dataset_stats_match_platform() {
        let exp = PlatformExperiments::new(PlatformKind::Quora, tiny_settings());
        let stats = exp.dataset_stats();
        assert_eq!(stats.platform, "Quora");
        assert_eq!(stats.questions, exp.platform().config.num_tasks);
        assert!(stats.answers >= stats.questions);
    }

    #[test]
    fn group_stats_are_monotone() {
        let exp = PlatformExperiments::new(PlatformKind::Quora, tiny_settings());
        let stats = exp.group_stats();
        for w in stats.windows(2) {
            assert!(w[0].size >= w[1].size, "sizes shrink with threshold");
            assert!(
                w[0].coverage >= w[1].coverage - 1e-12,
                "coverage shrinks with threshold"
            );
        }
    }

    #[test]
    fn recall_table_has_all_cells_and_sane_values() {
        let exp = PlatformExperiments::new(PlatformKind::StackOverflow, tiny_settings());
        let cells = exp.recall_table();
        let (_, groups, _) = exp.group_thresholds();
        assert_eq!(cells.len(), groups.len() * 4);
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.top1), "{c:?}");
            assert!(c.top2 >= c.top1 - 1e-12, "top2 ≥ top1: {c:?}");
        }
    }

    #[test]
    fn precision_table_covers_sweep() {
        let exp = PlatformExperiments::new(PlatformKind::Quora, tiny_settings());
        let cells = exp.precision_table();
        // 3 groups × (1 VSM + 3 algos × 1 K).
        assert_eq!(cells.len(), 3 + 3 * 3);
        for c in &cells {
            assert!((0.0..=1.0).contains(&c.precision), "{c:?}");
        }
        assert!(cells.iter().any(|c| c.algo == "TDPM"));
    }

    #[test]
    fn runtime_cells_are_positive() {
        let exp = PlatformExperiments::new(PlatformKind::Yahoo, tiny_settings());
        let cells = exp.runtime_figure();
        assert!(!cells.is_empty());
        for c in &cells {
            assert!(c.top1_ms >= 0.0 && c.top2_ms >= 0.0);
        }
    }
}
