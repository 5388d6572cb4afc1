//! Top-k worker selection (paper Eq. 1).

use crowd_store::WorkerId;

/// A worker together with its predicted performance on a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedWorker {
    /// The worker.
    pub worker: WorkerId,
    /// Predicted performance `w^i (c^j)ᵀ`.
    pub score: f64,
}

// Min-heap via reversed ordering; entry = (score, worker).
#[derive(Debug, PartialEq)]
struct Entry(f64, WorkerId);
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The heap pops its greatest element, so "greater" must mean
        // "worse": lower score, then (on ties) larger worker id.
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// Streaming accumulator behind [`top_k`]: [`push`](TopK::push) scored
/// workers in any order, then [`finish`](TopK::finish) for the ranked
/// result.
///
/// The selection ranks under a *total* order (score via `total_cmp`, ties
/// toward the smaller [`WorkerId`]), so the finished ranking is a pure
/// function of the pushed multiset — feed order never changes it. That is
/// what lets the cache-blocked batch driver feed each query's scores block
/// by block instead of materializing every score first.
///
/// The heap grows as entries arrive and never holds more than `k`, so a
/// `k` far beyond the candidate count (an oversized `LIMIT`) costs nothing.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    /// The worst score held once the heap holds `k` entries, −∞ before.
    floor: f64,
    heap: std::collections::BinaryHeap<Entry>,
}

impl TopK {
    /// Accumulator for the `k` highest-scoring workers.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            floor: f64::NEG_INFINITY,
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// `true` when [`push`](TopK::push)ing `score` is certain to change
    /// nothing: the heap is full and `score` is below its worst score. One
    /// float compare, so a caller can skip even looking up the worker.
    ///
    /// The floor is exact. It is never NaN (NaN never enters the heap), and
    /// for a non-NaN `score`, IEEE `score < floor` implies `total_cmp` ranks
    /// it below the worst entry, which the full-heap check would reject
    /// too. A score equal to the floor (a `-0.0` against a `+0.0` floor
    /// included) falls through to that total-order check, and NaN to the
    /// NaN skip.
    #[inline]
    pub fn below_floor(&self, score: f64) -> bool {
        score < self.floor
    }

    /// Offer one scored worker. A score [below the
    /// floor](TopK::below_floor) returns at once; NaN scores are skipped.
    #[inline]
    pub fn push(&mut self, worker: WorkerId, score: f64) {
        if self.below_floor(score) || self.k == 0 || score.is_nan() {
            return;
        }
        let entry = Entry(score, worker);
        if self.heap.len() < self.k {
            self.heap.push(entry);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            // Full heap: an entry that ranks no better than the worst
            // (equal bits and id included) leaves the same multiset, so
            // only a strictly better one replaces it, in one sift.
            if entry >= *worst {
                return;
            }
            *worst = entry;
        }
        if self.heap.len() == self.k {
            self.floor = self.heap.peek().map_or(f64::NEG_INFINITY, |worst| worst.0);
        }
    }

    /// The accumulated top-k, descending by score (ties toward the smaller
    /// [`WorkerId`]).
    pub fn finish(self) -> Vec<RankedWorker> {
        let mut out: Vec<RankedWorker> = self
            .heap
            .into_iter()
            .map(|Entry(score, worker)| RankedWorker { worker, score })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.worker.cmp(&b.worker))
        });
        out
    }
}

/// Selects the `k` highest-scoring workers, descending by score.
///
/// Eq. 1 asks for `argmax_{|R|=k} Σ_{i∈R} w^i (c^j)ᵀ`; because the objective
/// is a sum of independent per-worker terms, the optimal subset is exactly
/// the `k` largest scores. A bounded min-heap ([`TopK`]) keeps this
/// `O(n log k)`.
///
/// Ties break toward the smaller [`WorkerId`] for determinism; NaN scores
/// are skipped.
pub fn top_k(scored: impl IntoIterator<Item = (WorkerId, f64)>, k: usize) -> Vec<RankedWorker> {
    let mut acc = TopK::new(k);
    for (worker, score) in scored {
        acc.push(worker, score);
    }
    acc.finish()
}

/// Rank position (1-based) of `target` in a full descending ranking of
/// `scored`. Returns `None` if the target is absent.
///
/// Rank = 1 + the number of strictly better workers, where "better" means a
/// greater score under `total_cmp`, or an equal score with a smaller
/// [`WorkerId`] (the same tie-break [`top_k`] uses).
///
/// Runs in a single pass over `scored`: the target id is known up front, so
/// every element seen *after* the target's score is classified immediately,
/// and elements seen *before* it only need their scores buffered — split by
/// the `w < target` tie-break bit — never the full `(WorkerId, f64)` pairs.
/// If the target is early in the stream (the common case for evaluation
/// candidate lists) almost nothing is buffered. Duplicate entries for the
/// target itself are ignored after the first.
///
/// Used by the evaluation metrics (ACCU needs "the rank of the right
/// worker", Section 7.2.2) once per eval question.
pub fn rank_of(
    scored: impl IntoIterator<Item = (WorkerId, f64)>,
    target: WorkerId,
) -> Option<usize> {
    use std::cmp::Ordering;

    let mut iter = scored.into_iter();
    // Scores seen before the target's own: ties count as better only for
    // smaller ids, so the two groups drain with different predicates.
    let mut pending_smaller_id: Vec<f64> = Vec::new();
    let mut pending_larger_id: Vec<f64> = Vec::new();
    let mut target_score: Option<f64> = None;
    for (w, s) in iter.by_ref() {
        if w == target {
            target_score = Some(s);
            break;
        }
        if w < target {
            pending_smaller_id.push(s);
        } else {
            pending_larger_id.push(s);
        }
    }
    let ts = target_score?;
    let mut better = pending_smaller_id
        .iter()
        .filter(|s| matches!(s.total_cmp(&ts), Ordering::Greater | Ordering::Equal))
        .count();
    better += pending_larger_id
        .iter()
        .filter(|s| s.total_cmp(&ts) == Ordering::Greater)
        .count();
    drop((pending_smaller_id, pending_larger_id));
    for (w, s) in iter {
        if w == target {
            continue;
        }
        match s.total_cmp(&ts) {
            Ordering::Greater => better += 1,
            Ordering::Equal if w < target => better += 1,
            _ => {}
        }
    }
    Some(better + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(xs: &[(u32, f64)]) -> Vec<(WorkerId, f64)> {
        xs.iter().map(|&(w, s)| (WorkerId(w), s)).collect()
    }

    #[test]
    fn picks_k_largest_descending() {
        let out = top_k(scored(&[(0, 1.0), (1, 5.0), (2, 3.0), (3, 4.0)]), 2);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].worker, WorkerId(1));
        assert_eq!(out[1].worker, WorkerId(3));
    }

    #[test]
    fn k_larger_than_candidates_returns_all() {
        for k in [10, usize::MAX] {
            let out = top_k(scored(&[(0, 1.0), (1, 2.0)]), k);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].worker, WorkerId(1));
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(top_k(scored(&[(0, 1.0)]), 0).is_empty());
    }

    #[test]
    fn ties_break_by_smaller_id() {
        let out = top_k(scored(&[(5, 1.0), (2, 1.0), (9, 1.0)]), 2);
        assert_eq!(out[0].worker, WorkerId(2));
        assert_eq!(out[1].worker, WorkerId(5));
    }

    #[test]
    fn nan_scores_are_skipped() {
        let out = top_k(scored(&[(0, f64::NAN), (1, 1.0)]), 2);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].worker, WorkerId(1));
    }

    #[test]
    fn matches_naive_sort_on_larger_input() {
        let xs: Vec<(WorkerId, f64)> = (0..100)
            .map(|i| (WorkerId(i), ((i * 37) % 41) as f64))
            .collect();
        let fast = top_k(xs.clone(), 7);
        let mut naive = xs;
        naive.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (f, n) in fast.iter().zip(naive.iter().take(7)) {
            assert_eq!(f.worker, n.0);
        }
    }

    #[test]
    fn rank_of_positions() {
        let xs = scored(&[(0, 3.0), (1, 5.0), (2, 1.0)]);
        assert_eq!(rank_of(xs.clone(), WorkerId(1)), Some(1));
        assert_eq!(rank_of(xs.clone(), WorkerId(0)), Some(2));
        assert_eq!(rank_of(xs.clone(), WorkerId(2)), Some(3));
        assert_eq!(rank_of(xs, WorkerId(9)), None);
    }

    #[test]
    fn rank_of_is_order_independent() {
        // Same multiset, target early vs. late in the stream.
        let early = scored(&[(1, 5.0), (0, 3.0), (2, 1.0), (3, 5.0)]);
        let late = scored(&[(3, 5.0), (2, 1.0), (0, 3.0), (1, 5.0)]);
        assert_eq!(rank_of(early, WorkerId(1)), Some(1));
        assert_eq!(rank_of(late, WorkerId(1)), Some(1));
    }

    #[test]
    fn rank_of_nan_scores_rank_above_finite() {
        // total_cmp places NaN above every finite score, matching the old
        // collect-then-count implementation.
        let xs = scored(&[(0, f64::NAN), (1, 7.0), (2, 3.0)]);
        assert_eq!(rank_of(xs, WorkerId(1)), Some(2));
    }

    #[test]
    fn rank_of_with_ties_is_consistent_with_top_k() {
        let xs = scored(&[(3, 2.0), (1, 2.0), (2, 2.0)]);
        // Order by id on ties: 1, 2, 3.
        assert_eq!(rank_of(xs.clone(), WorkerId(1)), Some(1));
        assert_eq!(rank_of(xs.clone(), WorkerId(2)), Some(2));
        assert_eq!(rank_of(xs.clone(), WorkerId(3)), Some(3));
        let top = top_k(xs, 3);
        assert_eq!(top[0].worker, WorkerId(1));
        assert_eq!(top[2].worker, WorkerId(3));
    }
}
