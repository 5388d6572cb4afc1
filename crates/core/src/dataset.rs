//! Compact training representation of resolved tasks.

use crowd_store::{CrowdDb, ShardedDb, TaskId, WorkerId};
use crowd_text::BagOfWords;

/// One training task: its distinct terms with counts, plus scored jobs
/// referencing *dense* worker indexes.
#[derive(Debug, Clone)]
pub struct TaskData {
    /// Originating task id in the store.
    pub task: TaskId,
    /// `(term index, count)` pairs; term indexes address `β` columns.
    pub words: Vec<(usize, u32)>,
    /// Total token count `L`.
    pub num_tokens: f64,
    /// Scored assignments as `(dense worker index, s_ij)`.
    pub scores: Vec<(usize, f64)>,
}

/// The training view `(T, A, S)` with dense indexes on both sides.
///
/// A worker's dense index is its store id: both stores mint worker ids 0,
/// 1, 2, … (`crowd_store::WorkerId`), so skill vectors live in flat `Vec`s
/// during inference and dense index `i` translates back to `WorkerId(i)`
/// with no map.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// Shared behind `Arc` so the pooled E-step's `'static` chunk jobs can
    /// hold a handle to the task list instead of copying it per iteration.
    tasks: std::sync::Arc<Vec<TaskData>>,
    /// `worker_ids[i] == WorkerId(i)` for every `i`.
    worker_ids: Vec<WorkerId>,
    vocab_size: usize,
}

impl TrainingSet {
    /// Builds the training set from every resolved task in `db`.
    ///
    /// All registered workers get a dense index (workers without feedback
    /// simply keep their prior as posterior), so incremental updates after
    /// training never meet an unknown worker.
    ///
    /// Each task's scores are canonicalized to ascending worker index:
    /// the store yields them in assignment order, and per-task reductions
    /// during inference sum them left to right, so without the sort two
    /// stores holding the same `(T, A, S)` content with different
    /// assignment interleavings would fit ulp-different models. The sort
    /// makes the fit a function of the content alone — which is also what
    /// lets the sharded store (whose merged scans are worker-sorted by
    /// construction) train bit-identically to this path.
    pub fn from_db(db: &CrowdDb) -> Self {
        Self::from_resolved(
            db.resolved_tasks(),
            db.worker_ids().collect(),
            db.vocab().len(),
        )
    }

    fn from_resolved(
        resolved: Vec<crowd_store::ResolvedTask>,
        worker_ids: Vec<WorkerId>,
        vocab_size: usize,
    ) -> Self {
        debug_assert!(
            worker_ids.iter().enumerate().all(|(i, w)| w.index() == i),
            "store worker ids are dense"
        );
        let tasks = resolved
            .into_iter()
            .map(|rt| {
                let words: Vec<(usize, u32)> = rt.bow.iter().map(|(t, c)| (t.index(), c)).collect();
                let num_tokens = rt.bow.total_tokens() as f64;
                let mut scores: Vec<(usize, f64)> =
                    rt.scores.iter().map(|&(w, s)| (w.index(), s)).collect();
                scores.sort_by_key(|&(w, _)| w);
                TaskData {
                    task: rt.task,
                    words,
                    num_tokens,
                    scores,
                }
            })
            .collect();
        TrainingSet {
            tasks: std::sync::Arc::new(tasks),
            worker_ids,
            vocab_size,
        }
    }

    /// Builds the training set from every resolved task in a sharded store.
    ///
    /// [`ShardedDb::resolved_tasks`] is shard-count invariant — tasks in
    /// global id order, scores sorted by global worker id — so the set built
    /// here is byte-for-byte the set [`TrainingSet::from_db`] builds from an
    /// unsharded store holding the same `(T, A, S)` content, for every shard
    /// count.
    pub fn from_sharded(db: &ShardedDb) -> Self {
        Self::from_resolved(
            db.resolved_tasks(),
            db.worker_ids().collect(),
            db.vocab().len(),
        )
    }

    /// Builds a training set directly (used by tests and the generative
    /// round-trip). `scores` use dense worker indexes `< num_workers`.
    pub fn from_parts(tasks: Vec<TaskData>, num_workers: usize, vocab_size: usize) -> Self {
        // Synthetic dense ids; saturate rather than wrap if a caller ever
        // asks for more workers than the u32 id space holds.
        let count = u32::try_from(num_workers).unwrap_or(u32::MAX);
        TrainingSet {
            tasks: std::sync::Arc::new(tasks),
            worker_ids: (0..count).map(WorkerId).collect(),
            vocab_size,
        }
    }

    /// Training tasks.
    pub fn tasks(&self) -> &[TaskData] {
        &self.tasks
    }

    /// A shared handle to the task list, for `'static` pooled E-step jobs.
    pub fn tasks_shared(&self) -> std::sync::Arc<Vec<TaskData>> {
        std::sync::Arc::clone(&self.tasks)
    }

    /// Number of training tasks `N`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of workers `M` (all registered, not just scored).
    pub fn num_workers(&self) -> usize {
        self.worker_ids.len()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Dense index for a worker id: the id itself, when it is in the set.
    pub fn worker_dense(&self, w: WorkerId) -> Option<usize> {
        (w.index() < self.worker_ids.len()).then_some(w.index())
    }

    /// Worker id for a dense index.
    pub fn worker_id(&self, dense: usize) -> WorkerId {
        self.worker_ids[dense]
    }

    /// All worker ids in dense order.
    pub fn worker_ids(&self) -> &[WorkerId] {
        &self.worker_ids
    }

    /// For each worker (dense), the `(task index, score)` pairs — the
    /// transpose of the per-task score lists, needed by the worker E-step.
    pub fn scores_by_worker(&self) -> ScoresByWorker {
        ScoresByWorker::new(&self.tasks, self.num_workers())
    }

    /// Total number of scored `(worker, task)` pairs `|A|`.
    pub fn num_scored_pairs(&self) -> usize {
        self.tasks.iter().map(|t| t.scores.len()).sum()
    }

    /// Builds a [`BagOfWords`]-free word histogram over the whole corpus
    /// (used for β initialization diagnostics).
    pub fn corpus_term_counts(&self) -> Vec<f64> {
        let mut counts = vec![0.0; self.vocab_size];
        for t in self.tasks.iter() {
            for &(v, c) in &t.words {
                counts[v] += c as f64;
            }
        }
        counts
    }
}

/// The worker-major transpose of the per-task score lists, in CSR form:
/// worker `i`'s `(task index, score)` pairs are
/// `pairs[offsets[i]..offsets[i + 1]]`, in ascending task order (the order
/// the worker E-step sums them in). Index it by dense worker index.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoresByWorker {
    /// `len = num_workers + 1`.
    offsets: Vec<usize>,
    pairs: Vec<(usize, f64)>,
}

impl ScoresByWorker {
    /// Transposes `tasks`' score lists for `num_workers` workers; every
    /// worker index in them must be `< num_workers`.
    pub fn new(tasks: &[TaskData], num_workers: usize) -> Self {
        let mut offsets = vec![0usize; num_workers + 1];
        for t in tasks {
            for &(i, _) in &t.scores {
                offsets[i + 1] += 1;
            }
        }
        for i in 0..num_workers {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..num_workers].to_vec();
        let mut pairs = vec![(0usize, 0.0); offsets[num_workers]];
        for (j, t) in tasks.iter().enumerate() {
            for &(i, s) in &t.scores {
                pairs[next[i]] = (j, s);
                next[i] += 1;
            }
        }
        ScoresByWorker { offsets, pairs }
    }

    /// Every worker's pairs, in dense worker order.
    pub fn iter(&self) -> impl Iterator<Item = &[(usize, f64)]> + '_ {
        self.offsets.windows(2).map(|w| &self.pairs[w[0]..w[1]])
    }
}

impl std::ops::Index<usize> for ScoresByWorker {
    type Output = [(usize, f64)];

    fn index(&self, worker: usize) -> &[(usize, f64)] {
        &self.pairs[self.offsets[worker]..self.offsets[worker + 1]]
    }
}

/// Converts a [`BagOfWords`] into the `(term index, count)` pairs used in
/// [`TaskData::words`].
pub fn bow_to_words(bow: &BagOfWords) -> Vec<(usize, u32)> {
    bow.iter().map(|(t, c)| (t.index(), c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> CrowdDb {
        let mut db = CrowdDb::new();
        let w0 = db.add_worker("a");
        let w1 = db.add_worker("b");
        let _idle = db.add_worker("idle");
        let t0 = db.add_task("b+ tree index structure");
        let t1 = db.add_task("normal distribution priors");
        let t2 = db.add_task("unanswered question");
        db.assign(w0, t0).unwrap();
        db.assign(w1, t0).unwrap();
        db.assign(w0, t1).unwrap();
        db.assign(w1, t2).unwrap(); // never scored
        db.record_feedback(w0, t0, 4.0).unwrap();
        db.record_feedback(w1, t0, 1.0).unwrap();
        db.record_feedback(w0, t1, 2.0).unwrap();
        db
    }

    #[test]
    fn only_resolved_tasks_included() {
        let ts = TrainingSet::from_db(&db());
        assert_eq!(ts.num_tasks(), 2);
        assert_eq!(ts.num_workers(), 3, "idle workers still get indexes");
        assert_eq!(ts.num_scored_pairs(), 3);
    }

    #[test]
    fn dense_mapping_roundtrips() {
        let ts = TrainingSet::from_db(&db());
        for w in ts.worker_ids().to_vec() {
            let dense = ts.worker_dense(w).unwrap();
            assert_eq!(ts.worker_id(dense), w);
        }
        assert_eq!(ts.worker_dense(WorkerId(99)), None);
    }

    #[test]
    fn scores_by_worker_transposes() {
        let ts = TrainingSet::from_db(&db());
        let by_worker = ts.scores_by_worker();
        let w0 = ts.worker_dense(WorkerId(0)).unwrap();
        let w2 = ts.worker_dense(WorkerId(2)).unwrap();
        assert_eq!(by_worker[w0].len(), 2);
        assert!(by_worker[w2].is_empty());
        // Cross-check total.
        let total: usize = by_worker.iter().map(<[_]>::len).sum();
        assert_eq!(total, ts.num_scored_pairs());
    }

    #[test]
    fn word_counts_match_bow() {
        let source = db();
        let ts = TrainingSet::from_db(&source);
        let t = &ts.tasks()[0];
        let expected = source.task(t.task).unwrap().bow.total_tokens() as f64;
        assert_eq!(t.num_tokens, expected);
        let sum: u32 = t.words.iter().map(|&(_, c)| c).sum();
        assert_eq!(sum as f64, expected);
    }

    #[test]
    fn corpus_term_counts_sum_to_total_tokens() {
        let ts = TrainingSet::from_db(&db());
        let counts = ts.corpus_term_counts();
        let total: f64 = counts.iter().sum();
        let expected: f64 = ts.tasks().iter().map(|t| t.num_tokens).sum();
        assert_eq!(total, expected);
    }
}
