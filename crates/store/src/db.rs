//! The crowd database: tasks, workers, assignments, feedback and indexes.

use crate::{Feedback, Result, StoreError, TaskId, TaskRecord, WorkerId, WorkerRecord};
use crowd_text::{tokenize_filtered, BagOfWords, Vocabulary};
use std::collections::HashMap;

/// A resolved task: its bag of words plus every scored `(worker, score)` job.
///
/// This is the training-triple view `(T, A, S)` the paper's inference
/// consumes (Section 4.2: "We build a bayesian model based on resolved
/// crowdsourced task `(T, A, S)`").
#[derive(Debug, Clone)]
pub struct ResolvedTask {
    /// The task id.
    pub task: TaskId,
    /// Bag-of-vocabularies of the task.
    pub bow: BagOfWords,
    /// All scored assignments for this task.
    pub scores: Vec<(WorkerId, f64)>,
}

/// In-memory crowdsourcing database with secondary indexes.
///
/// Single-writer; wrap in [`crate::SharedCrowdDb`] for concurrent access.
/// All mutation paths are incremental — inserting a new worker, task,
/// assignment or score is O(1) amortized, which is what lets the crowd
/// manager operate on a live stream of tasks (paper Section 6).
#[derive(Debug, Default)]
pub struct CrowdDb {
    vocab: Vocabulary,
    workers: Vec<WorkerRecord>,
    tasks: Vec<TaskRecord>,
    entries: Vec<Feedback>,
    /// task index → indexes into `entries`.
    by_task: Vec<Vec<u32>>,
    /// worker index → indexes into `entries`.
    by_worker: Vec<Vec<u32>>,
    /// worker index → how many of its entries carry a score, so the
    /// `WHERE GROUP >= n` filter reads one number per worker.
    scored_by_worker: Vec<u32>,
    /// `(worker, task)` → index into `entries`.
    pair_index: HashMap<(WorkerId, TaskId), u32>,
    /// Answer bags per `(worker, task)` — used to derive Jaccard feedback.
    answers: HashMap<(WorkerId, TaskId), BagOfWords>,
    /// Inverted index: term index → tasks containing the term.
    postings: Vec<Vec<TaskId>>,
    /// Logical clock, bumped on every mutation.
    clock: u64,
}

/// The one audited usize → u32 narrowing for dense ids and entry indexes.
///
/// An in-memory roster/log cannot reach 2^32 rows before exhausting memory,
/// and saturating would mint duplicate ids, so the wrap stays (asserted in
/// debug builds) rather than being silently "handled".
fn dense_id(n: usize) -> u32 {
    debug_assert!(u32::try_from(n).is_ok(), "dense id space exhausted");
    // crowd-lint: allow(no-silent-truncation) -- single audited choke point; debug-asserted, unreachable before memory exhaustion
    n as u32
}

impl CrowdDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        CrowdDb::default()
    }

    // ---- roster -----------------------------------------------------------

    /// Registers a worker and returns its dense id.
    pub fn add_worker(&mut self, handle: impl Into<String>) -> WorkerId {
        let id = WorkerId(dense_id(self.workers.len()));
        self.clock += 1;
        self.workers.push(WorkerRecord {
            handle: handle.into(),
            joined_at: self.clock,
        });
        self.by_worker.push(Vec::new());
        self.scored_by_worker.push(0);
        id
    }

    /// Inserts a task from raw text (tokenized + stopword-filtered).
    pub fn add_task(&mut self, text: impl Into<String>) -> TaskId {
        let text = text.into();
        let tokens = tokenize_filtered(&text);
        let bow = BagOfWords::from_tokens(&tokens, &mut self.vocab);
        self.add_task_raw(text, bow)
    }

    /// Inserts a task whose bag of words was built by the caller.
    ///
    /// Generators that intern terms directly through [`CrowdDb::vocab_mut`]
    /// use this to skip re-tokenization. The caller must have built `bow`
    /// against this database's vocabulary.
    pub fn add_task_raw(&mut self, text: String, bow: BagOfWords) -> TaskId {
        let id = TaskId(dense_id(self.tasks.len()));
        self.clock += 1;
        for (term, _) in bow.iter() {
            let idx = term.index();
            if idx >= self.postings.len() {
                self.postings.resize(idx + 1, Vec::new());
            }
            self.postings[idx].push(id);
        }
        self.tasks.push(TaskRecord {
            text,
            bow,
            created_at: self.clock,
        });
        self.by_task.push(Vec::new());
        id
    }

    // ---- assignment & feedback -------------------------------------------

    /// Assigns `task` to `worker` (paper table `A`, entry `a_ij = 1`).
    pub fn assign(&mut self, worker: WorkerId, task: TaskId) -> Result<()> {
        self.check_worker(worker)?;
        self.check_task(task)?;
        if self.pair_index.contains_key(&(worker, task)) {
            return Err(StoreError::AlreadyAssigned(worker, task));
        }
        self.clock += 1;
        let idx = dense_id(self.entries.len());
        self.entries.push(Feedback {
            worker,
            task,
            score: None,
            assigned_at: self.clock,
        });
        self.by_task[task.index()].push(idx);
        self.by_worker[worker.index()].push(idx);
        self.pair_index.insert((worker, task), idx);
        Ok(())
    }

    /// Stores the worker's answer text for a task (enables Jaccard-style
    /// feedback derivation à la Yahoo! Answers).
    pub fn record_answer(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        answer_text: &str,
    ) -> Result<()> {
        self.require_assigned(worker, task)?;
        let tokens = tokenize_filtered(answer_text);
        let bow = BagOfWords::from_tokens(&tokens, &mut self.vocab);
        self.answers.insert((worker, task), bow);
        Ok(())
    }

    /// Stores a pre-tokenized answer bag.
    pub fn record_answer_bow(
        &mut self,
        worker: WorkerId,
        task: TaskId,
        bow: BagOfWords,
    ) -> Result<()> {
        self.require_assigned(worker, task)?;
        self.answers.insert((worker, task), bow);
        Ok(())
    }

    /// Records feedback `s_ij` for an assigned pair (paper table `S`).
    ///
    /// Overwrites any previous score: feedback on real platforms is mutable
    /// (vote counts grow), and the inference engine always reads the latest
    /// snapshot.
    pub fn record_feedback(&mut self, worker: WorkerId, task: TaskId, score: f64) -> Result<()> {
        if !score.is_finite() {
            return Err(StoreError::InvalidScore(score));
        }
        let idx = self.require_assigned(worker, task)?;
        self.clock += 1;
        // Only an unscored → scored transition adds to the count: an
        // overwrite replaces a score the count already holds.
        if self.entries[idx as usize].score.replace(score).is_none() {
            self.scored_by_worker[worker.index()] += 1;
        }
        Ok(())
    }

    // ---- retrieval ---------------------------------------------------------

    /// Number of registered workers (`M`).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of stored tasks (`N`).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of assignments (nonzeros of `A`).
    pub fn num_assignments(&self) -> usize {
        self.entries.len()
    }

    /// Number of assignments that carry a feedback score.
    pub fn num_resolved(&self) -> usize {
        self.entries.iter().filter(|e| e.is_resolved()).count()
    }

    /// The worker record, if registered.
    pub fn worker(&self, id: WorkerId) -> Result<&WorkerRecord> {
        self.workers
            .get(id.index())
            .ok_or(StoreError::UnknownWorker(id))
    }

    /// The task record, if stored.
    pub fn task(&self, id: TaskId) -> Result<&TaskRecord> {
        self.tasks
            .get(id.index())
            .ok_or(StoreError::UnknownTask(id))
    }

    /// The feedback score for a pair, if assigned and resolved.
    pub fn feedback(&self, worker: WorkerId, task: TaskId) -> Option<f64> {
        self.pair_index
            .get(&(worker, task))
            .and_then(|&i| self.entries[i as usize].score)
    }

    /// `true` if the pair is assigned.
    pub fn is_assigned(&self, worker: WorkerId, task: TaskId) -> bool {
        self.pair_index.contains_key(&(worker, task))
    }

    /// The stored answer bag for a pair, if any.
    pub fn answer(&self, worker: WorkerId, task: TaskId) -> Option<&BagOfWords> {
        self.answers.get(&(worker, task))
    }

    /// Iterates this worker's assignments as `(TaskId, Option<score>)`.
    pub fn tasks_of(&self, worker: WorkerId) -> impl Iterator<Item = (TaskId, Option<f64>)> + '_ {
        self.by_worker
            .get(worker.index())
            .into_iter()
            .flatten()
            .map(|&i| {
                let e = &self.entries[i as usize];
                (e.task, e.score)
            })
    }

    /// Iterates a task's assignments as `(WorkerId, Option<score>)`.
    pub fn workers_of(&self, task: TaskId) -> impl Iterator<Item = (WorkerId, Option<f64>)> + '_ {
        self.by_task
            .get(task.index())
            .into_iter()
            .flatten()
            .map(|&i| {
                let e = &self.entries[i as usize];
                (e.worker, e.score)
            })
    }

    /// Number of *resolved* tasks this worker has participated in: O(1),
    /// read from a count `record_feedback` keeps.
    pub fn worker_task_count(&self, worker: WorkerId) -> usize {
        self.scored_by_worker
            .get(worker.index())
            .map_or(0, |&n| n as usize)
    }

    /// All worker ids, in insertion order.
    pub fn worker_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        (0..dense_id(self.workers.len())).map(WorkerId)
    }

    /// All task ids, in insertion order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..dense_id(self.tasks.len())).map(TaskId)
    }

    /// Materializes the training view: every task with at least one scored
    /// assignment, with its scores.
    // crowd-lint: root(det)
    pub fn resolved_tasks(&self) -> Vec<ResolvedTask> {
        let mut out = Vec::new();
        for (t, entry_ids) in self.by_task.iter().enumerate() {
            let scores: Vec<(WorkerId, f64)> = entry_ids
                .iter()
                .filter_map(|&i| {
                    let e = &self.entries[i as usize];
                    e.score.map(|s| (e.worker, s))
                })
                .collect();
            if !scores.is_empty() {
                out.push(ResolvedTask {
                    task: TaskId(dense_id(t)),
                    bow: self.tasks[t].bow.clone(),
                    scores,
                });
            }
        }
        out
    }

    /// Tasks containing `term`, in insertion order (inverted index lookup).
    pub fn tasks_with_term(&self, term: crowd_text::TermId) -> &[TaskId] {
        self.postings
            .get(term.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The `limit` stored tasks most similar to `query` by cosine over
    /// bags of words, using the inverted index to restrict scoring to
    /// tasks sharing at least one term.
    ///
    /// Returns `(task, similarity)` pairs, best first; ties break toward
    /// the older task.
    pub fn similar_tasks(&self, query: &BagOfWords, limit: usize) -> Vec<(TaskId, f64)> {
        use std::collections::HashSet;
        let mut candidates: HashSet<TaskId> = HashSet::new();
        for (term, _) in query.iter() {
            candidates.extend(self.tasks_with_term(term).iter().copied());
        }
        let mut scored: Vec<(TaskId, f64)> = candidates
            .into_iter()
            .map(|t| {
                (
                    t,
                    crowd_text::similarity::cosine(query, &self.tasks[t.index()].bow),
                )
            })
            .filter(|&(_, s)| s > 0.0)
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(limit);
        scored
    }

    /// The union bag of vocabularies over every task the worker answered
    /// (`t_w^i = ∪ t_j` — the VSM baseline's worker profile).
    pub fn worker_history_bow(&self, worker: WorkerId) -> BagOfWords {
        let mut merged = BagOfWords::new();
        for (task, _) in self.tasks_of(worker) {
            merged.merge(&self.tasks[task.index()].bow);
        }
        merged
    }

    // ---- vocabulary ---------------------------------------------------------

    /// The shared vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Mutable vocabulary access (generators intern terms directly).
    pub fn vocab_mut(&mut self) -> &mut Vocabulary {
        &mut self.vocab
    }

    /// Freezes the vocabulary: tasks added later will not grow it.
    pub fn freeze_vocab(&mut self) {
        self.vocab.freeze();
    }

    /// Current logical clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    // ---- internals ----------------------------------------------------------

    pub(crate) fn entries(&self) -> &[Feedback] {
        &self.entries
    }

    pub(crate) fn answers_map(&self) -> &HashMap<(WorkerId, TaskId), BagOfWords> {
        &self.answers
    }

    pub(crate) fn restore(
        vocab: Vocabulary,
        workers: Vec<WorkerRecord>,
        tasks: Vec<TaskRecord>,
        entries: Vec<Feedback>,
        answers: HashMap<(WorkerId, TaskId), BagOfWords>,
        clock: u64,
    ) -> Self {
        let mut by_task = vec![Vec::new(); tasks.len()];
        let mut by_worker = vec![Vec::new(); workers.len()];
        let mut scored_by_worker = vec![0u32; workers.len()];
        let mut pair_index = HashMap::with_capacity(entries.len());
        let mut postings: Vec<Vec<TaskId>> = vec![Vec::new(); vocab.len()];
        for (t, rec) in tasks.iter().enumerate() {
            for (term, _) in rec.bow.iter() {
                let idx = term.index();
                if idx >= postings.len() {
                    postings.resize(idx + 1, Vec::new());
                }
                postings[idx].push(TaskId(dense_id(t)));
            }
        }
        for (i, e) in entries.iter().enumerate() {
            by_task[e.task.index()].push(dense_id(i));
            by_worker[e.worker.index()].push(dense_id(i));
            pair_index.insert((e.worker, e.task), dense_id(i));
            if e.is_resolved() {
                scored_by_worker[e.worker.index()] += 1;
            }
        }
        CrowdDb {
            vocab,
            workers,
            tasks,
            entries,
            by_task,
            by_worker,
            scored_by_worker,
            pair_index,
            answers,
            postings,
            clock,
        }
    }

    fn check_worker(&self, id: WorkerId) -> Result<()> {
        if id.index() >= self.workers.len() {
            return Err(StoreError::UnknownWorker(id));
        }
        Ok(())
    }

    fn check_task(&self, id: TaskId) -> Result<()> {
        if id.index() >= self.tasks.len() {
            return Err(StoreError::UnknownTask(id));
        }
        Ok(())
    }

    fn require_assigned(&self, worker: WorkerId, task: TaskId) -> Result<u32> {
        self.check_worker(worker)?;
        self.check_task(task)?;
        self.pair_index
            .get(&(worker, task))
            .copied()
            .ok_or(StoreError::NotAssigned(worker, task))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> (CrowdDb, Vec<WorkerId>, Vec<TaskId>) {
        let mut db = CrowdDb::new();
        let workers: Vec<_> = (0..3).map(|i| db.add_worker(format!("w{i}"))).collect();
        let tasks = vec![
            db.add_task("advantages of b+ tree over b tree"),
            db.add_task("bayesian inference with variational methods"),
        ];
        (db, workers, tasks)
    }

    #[test]
    fn ids_are_dense() {
        let (db, workers, tasks) = tiny_db();
        assert_eq!(workers, vec![WorkerId(0), WorkerId(1), WorkerId(2)]);
        assert_eq!(tasks, vec![TaskId(0), TaskId(1)]);
        assert_eq!(db.num_workers(), 3);
        assert_eq!(db.num_tasks(), 2);
    }

    #[test]
    fn assign_and_score_roundtrip() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        assert!(db.is_assigned(w[0], t[0]));
        assert_eq!(db.feedback(w[0], t[0]), None);
        db.record_feedback(w[0], t[0], 4.0).unwrap();
        assert_eq!(db.feedback(w[0], t[0]), Some(4.0));
        assert_eq!(db.num_resolved(), 1);
    }

    #[test]
    fn double_assignment_rejected() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        assert_eq!(
            db.assign(w[0], t[0]),
            Err(StoreError::AlreadyAssigned(w[0], t[0]))
        );
    }

    #[test]
    fn feedback_requires_assignment() {
        let (mut db, w, t) = tiny_db();
        assert_eq!(
            db.record_feedback(w[1], t[0], 1.0),
            Err(StoreError::NotAssigned(w[1], t[0]))
        );
    }

    #[test]
    fn invalid_scores_rejected() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        assert!(matches!(
            db.record_feedback(w[0], t[0], f64::NAN),
            Err(StoreError::InvalidScore(_))
        ));
        assert!(db.record_feedback(w[0], t[0], f64::INFINITY).is_err());
    }

    #[test]
    fn unknown_ids_rejected() {
        let (mut db, _, t) = tiny_db();
        assert_eq!(
            db.assign(WorkerId(99), t[0]),
            Err(StoreError::UnknownWorker(WorkerId(99)))
        );
        assert_eq!(
            db.assign(WorkerId(0), TaskId(99)),
            Err(StoreError::UnknownTask(TaskId(99)))
        );
        assert!(db.worker(WorkerId(99)).is_err());
        assert!(db.task(TaskId(99)).is_err());
    }

    #[test]
    fn score_overwrite_keeps_latest() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.record_feedback(w[0], t[0], 1.0).unwrap();
        db.record_feedback(w[0], t[0], 5.0).unwrap();
        assert_eq!(db.feedback(w[0], t[0]), Some(5.0));
        assert_eq!(db.num_resolved(), 1);
    }

    #[test]
    fn indexes_stay_consistent() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.assign(w[1], t[0]).unwrap();
        db.assign(w[0], t[1]).unwrap();
        db.record_feedback(w[0], t[0], 2.0).unwrap();

        let of_w0: Vec<_> = db.tasks_of(w[0]).collect();
        assert_eq!(of_w0, vec![(t[0], Some(2.0)), (t[1], None)]);
        let of_t0: Vec<_> = db.workers_of(t[0]).map(|(w, _)| w).collect();
        assert_eq!(of_t0, vec![w[0], w[1]]);
    }

    #[test]
    fn worker_task_count_counts_resolved_only() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.assign(w[0], t[1]).unwrap();
        assert_eq!(db.worker_task_count(w[0]), 0);
        db.record_feedback(w[0], t[0], 1.0).unwrap();
        assert_eq!(db.worker_task_count(w[0]), 1);
    }

    #[test]
    fn resolved_tasks_view() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.assign(w[1], t[0]).unwrap();
        db.assign(w[2], t[1]).unwrap();
        db.record_feedback(w[0], t[0], 4.0).unwrap();
        db.record_feedback(w[1], t[0], 1.0).unwrap();
        // t[1] is assigned but unresolved → excluded.
        let resolved = db.resolved_tasks();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].task, t[0]);
        assert_eq!(resolved[0].scores, vec![(w[0], 4.0), (w[1], 1.0)]);
    }

    #[test]
    fn worker_history_merges_task_bags() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.assign(w[0], t[1]).unwrap();
        let hist = db.worker_history_bow(w[0]);
        let expected =
            db.task(t[0]).unwrap().bow.total_tokens() + db.task(t[1]).unwrap().bow.total_tokens();
        assert_eq!(hist.total_tokens(), expected);
    }

    #[test]
    fn answers_roundtrip() {
        let (mut db, w, t) = tiny_db();
        db.assign(w[0], t[0]).unwrap();
        db.record_answer(w[0], t[0], "use a b+ tree for range scans")
            .unwrap();
        let bag = db.answer(w[0], t[0]).unwrap();
        assert!(bag.total_tokens() > 0);
        assert_eq!(db.answer(w[1], t[0]), None);
    }

    #[test]
    fn answer_requires_assignment() {
        let (mut db, w, t) = tiny_db();
        assert!(db.record_answer(w[0], t[0], "hi").is_err());
    }

    #[test]
    fn inverted_index_tracks_terms() {
        let (mut db, _, t) = tiny_db();
        let tree = db.vocab().get("tree").unwrap();
        assert_eq!(db.tasks_with_term(tree), &[t[0]]);
        let t2 = db.add_task("another tree question");
        assert_eq!(db.tasks_with_term(tree), &[t[0], t2]);
        // Unknown term → empty postings.
        assert!(db.tasks_with_term(crowd_text::TermId(9999)).is_empty());
    }

    #[test]
    fn similar_tasks_ranks_by_cosine() {
        let mut db = CrowdDb::new();
        let a = db.add_task("btree page split buffer");
        let b = db.add_task("btree index range scan");
        let c = db.add_task("gaussian prior posterior");
        let query = {
            let tokens = crowd_text::tokenize_filtered("btree page split storm");
            BagOfWords::from_known_tokens(&tokens, db.vocab())
        };
        let hits = db.similar_tasks(&query, 10);
        assert_eq!(hits[0].0, a, "most overlapping task first: {hits:?}");
        assert!(hits.iter().any(|&(t, _)| t == b), "shares 'btree'");
        assert!(
            !hits.iter().any(|&(t, _)| t == c),
            "no shared terms → not a candidate"
        );
        // Scores descend.
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // Limit respected.
        assert_eq!(db.similar_tasks(&query, 1).len(), 1);
        // Empty query → nothing.
        assert!(db.similar_tasks(&BagOfWords::new(), 5).is_empty());
    }

    #[test]
    fn clock_is_monotone() {
        let (mut db, w, t) = tiny_db();
        let c0 = db.clock();
        db.assign(w[0], t[0]).unwrap();
        assert!(db.clock() > c0);
    }
}
