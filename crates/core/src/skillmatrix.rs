//! Dense serving snapshot of the worker-skill posteriors.
//!
//! The online selection query (paper Eq. 1; Algorithm 3 line 7) scores every
//! candidate worker against one projected task. Serving that from the
//! per-worker [`crate::model::WorkerSkill`] records means a scattered
//! heap-allocated [`crowd_math::Vector`] dot per candidate per query.
//! [`SkillMatrix`] is the dense alternative: a contiguous row-major
//! `W × K` structure-of-arrays snapshot of the posterior means, with a
//! parallel `W × K` variance block for the optimistic (UCB) path, an f32
//! mirror of the means for the opt-in reduced-precision serving path, and a
//! dense [`WorkerId`] → row index. The model keeps it in lockstep with
//! the skill records — rebuilt on fit/assembly and row-upserted on
//! `add_worker` / `record_feedback` — so selection never touches the
//! per-worker `Vector` storage at all.
//!
//! The dense blocks live behind `Arc` because parallel selection no longer
//! spawns scoped threads per call: chunk jobs are `'static` closures
//! submitted to the persistent [`ScoringPool`], and they share the posterior
//! rows by cloning an `Arc` handle (DESIGN.md §10a). Mutation
//! (`upsert`) goes through `Arc::make_mut`, which is a plain in-place write
//! whenever no selection is holding a handle — i.e. always, since selection
//! completes before returning.
//!
//! Every f64 scoring path here is **bit-identical** to the serial reference
//! implementation (`TdpmModel::select_top_k_serial`):
//!
//! - per-row scores use [`crowd_math::kernels`], whose fixed 4-lane
//!   accumulation order is shared by the serial scorer and every dense
//!   kernel;
//! - the chunked-parallel path splits *candidates* into disjoint contiguous
//!   chunks (never a single dot product), feeds the existing [`top_k`]
//!   min-heap per chunk, and merges the per-chunk winners with one more
//!   [`top_k`]. Because [`top_k`] ranks under a *total* order (score
//!   descending via `total_cmp`, ties to the smaller id, NaN skipped), the
//!   global top-k is contained in the union of per-chunk top-ks and the merge
//!   reproduces it exactly, independent of chunking (DESIGN.md §6d).
//!
//! The f32 path (`select_mean_f32*`) is deterministic but **not**
//! bit-identical to f64: its contract is rank agreement modulo ties inside
//! f32 rounding plus a bounded relative score error, pinned by the
//! `f32_serving_oracle` property suite (DESIGN.md §10c).

use crate::selection::{top_k, RankedWorker, TopK};
use crowd_math::guard::{Unchecked, WorkGuard, CHECKPOINT_ROWS};
use crowd_math::kernels::{self, GEMV_BLOCK_ROWS};
use crowd_math::ScoringPool;
use crowd_store::WorkerId;
use std::sync::Arc;

/// Candidates resolved against the matrix: `(worker, row index)` pairs in
/// input order, unknown workers dropped.
pub type ResolvedCandidates = Vec<(WorkerId, usize)>;

/// Entry of the dense id → row index for an id that has no row.
const NO_ROW: u32 = u32::MAX;

/// The one audited usize → u32 narrowing for row numbers.
///
/// Rows are numbered 0, 1, 2, … in insertion order, one per distinct
/// `u32` worker id, so a row number fits `u32`; reaching the [`NO_ROW`]
/// sentinel would take 2^32 − 1 rows, which exhausts memory first. The
/// wrap stays (asserted in debug builds), as in the store's `dense_id`.
fn row_number(n: usize) -> u32 {
    debug_assert!(n < NO_ROW as usize, "row space exhausted");
    // crowd-lint: allow(no-silent-truncation) -- single audited choke point; debug-asserted, unreachable before memory exhaustion
    n as u32
}

/// Smallest candidate chunk worth handing to the [`ScoringPool`].
///
/// Pool dispatch (enqueue, wake, merge) costs on the order of the time it
/// takes to stream ~2k dot products, so splits finer than this lose to the
/// inline scan even with idle workers — the same break-even that sets
/// `PARALLEL_MIN_CANDIDATES` in the model-layer spawn policy, re-tuned for
/// pool hand-off instead of `crossbeam` scope spawn. Must stay a
/// [`GEMV_BLOCK_ROWS`] multiple so the floor never mis-aligns chunk starts.
pub const MIN_POOL_CHUNK_ROWS: usize = 2048;

/// A ranking that may have been stopped early by a [`WorkGuard`].
///
/// `ranked` is a correct top-k of the `scanned`-candidate prefix that was
/// actually scored — never a corrupt mixture — and `complete` records
/// whether the guard let the scan finish. Guarded selection returning
/// `complete == true` is bit-identical to the unguarded path on the same
/// inputs (same loop, no-op guard).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRanking {
    /// Top-k of the scanned candidate prefix.
    pub ranked: Vec<RankedWorker>,
    /// `true` when every candidate was scored before the guard fired.
    pub complete: bool,
    /// How many resolved candidates were scored (summed across chunks).
    pub scanned: usize,
}

/// One guarded pass over a contiguous candidate run: the checkpoint chunking
/// only gates admission — element order and the single [`top_k`] feed are
/// exactly the unchunked iteration, so a never-firing guard is bit-identical
/// to the historical path. Shared verbatim by the inline path and the pooled
/// chunk jobs, which is what makes them bit-identical to each other.
fn guarded_scan_rows<G, F>(
    run: &[(WorkerId, usize)],
    k: usize,
    guard: &G,
    score: F,
) -> (Vec<RankedWorker>, usize)
where
    G: WorkGuard,
    F: Fn(usize) -> f64,
{
    let mut scanned = 0usize;
    let ranked = top_k(
        run.chunks(CHECKPOINT_ROWS)
            .take_while(|c| {
                let admit = guard.consume(c.len() as u64);
                if admit {
                    scanned += c.len();
                }
                admit
            })
            .flatten()
            .map(|&(w, row)| (w, score(row))),
        k,
    );
    (ranked, scanned)
}

/// Merges per-chunk `(winners, scanned)` partials into one ranking with a
/// final [`top_k`] over the chunk winners.
fn merge_partials(partials: Vec<(Vec<RankedWorker>, usize)>, n: usize, k: usize) -> PartialRanking {
    let scanned: usize = partials.iter().map(|&(_, s)| s).sum();
    PartialRanking {
        ranked: top_k(
            partials
                .into_iter()
                .flat_map(|(rws, _)| rws)
                .map(|rw| (rw.worker, rw.score)),
            k,
        ),
        complete: scanned == n,
        scanned,
    }
}

/// Element type of a dense mean block: `f64` means or their `f32` mirror,
/// scored with the fixed-order kernel for that width and widened (exactly)
/// to f64 for ranking.
trait ScoreElem: Clone + Send + Sync + 'static {
    fn dot(row: &[Self], x: &[Self]) -> f64;
}

impl ScoreElem for f64 {
    #[inline]
    fn dot(row: &[f64], x: &[f64]) -> f64 {
        kernels::dot(row, x)
    }
}

impl ScoreElem for f32 {
    #[inline]
    fn dot(row: &[f32], x: &[f32]) -> f64 {
        f64::from(kernels::dot_f32(row, x))
    }
}

/// Fused block scorer for one chunk of batched queries: scores one
/// [`GEMV_BLOCK_ROWS`] block into an L1-resident scratch and feeds each
/// query's [`TopK`] heap immediately, instead of materializing `queries ×
/// candidates` scores and re-reading them (at 32×100k that round trip is
/// ~75 MB of memory traffic per batch). Identical to scoring each query
/// alone: per-row scores are the same kernel dot, [`TopK`] is feed-order
/// independent, and the guard is charged `block rows × queries` units
/// before each block, so a firing guard stops every query in the chunk at
/// one block boundary and no ranking mixes scored and unscored rows.
fn batch_chunk<T: ScoreElem>(
    kk: usize,
    means: &[T],
    resolved: &[(WorkerId, usize)],
    xs: &[Vec<T>],
    k: usize,
    guard: &impl WorkGuard,
) -> Vec<PartialRanking> {
    let mut heaps: Vec<TopK> = xs.iter().map(|_| TopK::new(k)).collect();
    let mut scratch = [0.0f64; GEMV_BLOCK_ROWS];
    let mut done = 0usize;
    for block in resolved.chunks(GEMV_BLOCK_ROWS) {
        if !guard.consume(block.len() as u64 * xs.len().max(1) as u64) {
            break;
        }
        for (x, heap) in xs.iter().zip(heaps.iter_mut()) {
            for (slot, &(_, r)) in scratch.iter_mut().zip(block) {
                *slot = T::dot(&means[r * kk..(r + 1) * kk], x);
            }
            for (&(w, _), &s) in block.iter().zip(&scratch) {
                heap.push(w, s);
            }
        }
        done += block.len();
    }
    heaps
        .into_iter()
        .map(|h| PartialRanking {
            ranked: h.finish(),
            complete: done == resolved.len(),
            scanned: done,
        })
        .collect()
}

/// How a pooled chunk job scores one row. Carries `Arc` handles to the dense
/// blocks plus an owned copy of the query vector, so a job is fully `'static`
/// and the pool never borrows the matrix.
#[derive(Clone)]
enum RowScorer {
    /// Posterior-mean score `λ_w · lambda` (the f64 oracle path).
    Mean {
        means: Arc<Vec<f64>>,
        lambda: Vec<f64>,
    },
    /// Optimistic (UCB) score: mean plus `beta`-scaled posterior std-dev.
    Optimistic {
        means: Arc<Vec<f64>>,
        vars: Arc<Vec<f64>>,
        lambda: Vec<f64>,
        beta: f64,
    },
    /// f32 mean score, widened (exactly) to f64 for ranking.
    MeanF32 {
        means: Arc<Vec<f32>>,
        lambda: Vec<f32>,
    },
}

impl RowScorer {
    #[inline]
    fn score(&self, k: usize, row: usize) -> f64 {
        match self {
            RowScorer::Mean { means, lambda } => {
                kernels::dot(&means[row * k..(row + 1) * k], lambda)
            }
            RowScorer::Optimistic {
                means,
                vars,
                lambda,
                beta,
            } => kernels::ucb_score(
                &means[row * k..(row + 1) * k],
                &vars[row * k..(row + 1) * k],
                lambda,
                *beta,
            ),
            RowScorer::MeanF32 { means, lambda } => {
                f64::from(kernels::dot_f32(&means[row * k..(row + 1) * k], lambda))
            }
        }
    }
}

/// Contiguous row-major `W × K` snapshot of posterior means and variances.
#[derive(Debug, Clone, Default)]
pub struct SkillMatrix {
    k: usize,
    /// Worker id by row.
    ids: Vec<WorkerId>,
    /// Row by worker id: `rows[w.index()]` is `w`'s row, [`NO_ROW`] when
    /// `w` has none. Worker ids are dense store indexes (0, 1, 2, …), so
    /// this costs 4 B × (largest id + 1) and every lookup is one array
    /// read.
    rows: Vec<u32>,
    /// Row-major `W × K` posterior means (`λ_w`).
    means: Arc<Vec<f64>>,
    /// Row-major `W × K` posterior diagonal variances (`ν_w²`).
    vars: Arc<Vec<f64>>,
    /// f32 mirror of `means`, maintained in lockstep by `upsert`, for the
    /// opt-in reduced-precision serving path.
    means_f32: Arc<Vec<f32>>,
}

impl SkillMatrix {
    /// An empty matrix over `k` latent categories.
    pub fn new(k: usize) -> Self {
        SkillMatrix::with_capacity(k, 0)
    }

    /// An empty matrix with room for `workers` rows.
    pub fn with_capacity(k: usize, workers: usize) -> Self {
        SkillMatrix {
            k,
            ids: Vec::with_capacity(workers),
            rows: Vec::with_capacity(workers),
            means: Arc::new(Vec::with_capacity(workers * k)),
            vars: Arc::new(Vec::with_capacity(workers * k)),
            means_f32: Arc::new(Vec::with_capacity(workers * k)),
        }
    }

    /// Number of latent categories `K`.
    pub fn num_categories(&self) -> usize {
        self.k
    }

    /// Number of worker rows `W`.
    pub fn num_workers(&self) -> usize {
        self.ids.len()
    }

    /// Worker ids by row index.
    pub fn ids(&self) -> &[WorkerId] {
        &self.ids
    }

    /// Row index of a worker, if present.
    pub fn row_of(&self, worker: WorkerId) -> Option<usize> {
        match self.rows.get(worker.index()) {
            Some(&row) if row != NO_ROW => Some(row as usize),
            _ => None,
        }
    }

    /// The mean row of a worker.
    pub fn mean_row(&self, row: usize) -> &[f64] {
        &self.means[row * self.k..(row + 1) * self.k]
    }

    /// The variance row of a worker.
    pub fn var_row(&self, row: usize) -> &[f64] {
        &self.vars[row * self.k..(row + 1) * self.k]
    }

    /// The f32-mirror mean row of a worker (serving-path precision).
    pub fn mean_row_f32(&self, row: usize) -> &[f32] {
        &self.means_f32[row * self.k..(row + 1) * self.k]
    }

    /// Inserts or overwrites the row for `worker`.
    ///
    /// Both slices must have length `K`. This is the single maintenance
    /// entry point: assembly pushes every fitted worker through it, and the
    /// incremental paths (`add_worker`, `record_feedback`) upsert the one
    /// row they touched. The f32 mirror is refreshed here too (round-to-
    /// nearest per element), so it can never drift from the f64 truth.
    ///
    /// # Panics
    ///
    /// Panics when `mean` or `var` is not `K` elements long — a shape bug in
    /// the caller, never a data-dependent condition.
    pub fn upsert(&mut self, worker: WorkerId, mean: &[f64], var: &[f64]) {
        assert_eq!(mean.len(), self.k, "SkillMatrix::upsert mean length");
        assert_eq!(var.len(), self.k, "SkillMatrix::upsert var length");
        let existing = self.row_of(worker);
        let means = Arc::make_mut(&mut self.means);
        let vars = Arc::make_mut(&mut self.vars);
        let means_f32 = Arc::make_mut(&mut self.means_f32);
        match existing {
            Some(row) => {
                means[row * self.k..(row + 1) * self.k].copy_from_slice(mean);
                vars[row * self.k..(row + 1) * self.k].copy_from_slice(var);
                for (slot, &m) in means_f32[row * self.k..(row + 1) * self.k]
                    .iter_mut()
                    .zip(mean)
                {
                    *slot = m as f32;
                }
            }
            None => {
                let slot = worker.index();
                if slot >= self.rows.len() {
                    self.rows.resize(slot + 1, NO_ROW);
                }
                self.rows[slot] = row_number(self.ids.len());
                self.ids.push(worker);
                means.extend_from_slice(mean);
                vars.extend_from_slice(var);
                means_f32.extend(mean.iter().map(|&m| m as f32));
            }
        }
    }

    /// Resolves candidate ids to `(worker, row)` pairs in input order,
    /// dropping workers the matrix does not know: one read of the dense id
    /// → row index per candidate, paid once per batch by the batched paths.
    pub fn resolve(&self, candidates: impl IntoIterator<Item = WorkerId>) -> ResolvedCandidates {
        let candidates = candidates.into_iter();
        let mut resolved = Vec::with_capacity(candidates.size_hint().0);
        resolved.extend(candidates.filter_map(|w| self.row_of(w).map(|row| (w, row))));
        resolved
    }

    /// Every worker row, in row order.
    pub fn resolve_all(&self) -> ResolvedCandidates {
        self.resolve(self.ids.iter().copied())
    }

    /// Top-`k` by posterior-mean score `λ_w · lambda` over resolved
    /// candidates, chunked across the persistent [`ScoringPool`] when
    /// `threads > 1`.
    ///
    /// `threads` is the target chunk fan-out (clamped to the candidate
    /// count); callers own the "is this pool big enough to be worth
    /// dispatching for" policy. Results are bit-identical for every thread
    /// count.
    pub fn select_mean(
        &self,
        lambda: &[f64],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
    ) -> Vec<RankedWorker> {
        self.select_mean_guarded(lambda, resolved, k, threads, &Unchecked)
            .ranked
    }

    /// [`SkillMatrix::select_mean`] with a [`WorkGuard`] polled every
    /// [`CHECKPOINT_ROWS`] candidates (per scoring chunk), charged with the
    /// chunk's row count before the chunk is scored. A firing guard stops
    /// the scan at the chunk boundary and the result reports the scanned
    /// prefix; a never-firing guard is bit-identical to
    /// [`SkillMatrix::select_mean`] (which delegates here). Pooled chunk
    /// jobs carry a clone of the guard, all forwarding to the same shared
    /// state, so one firing guard stops every chunk pool-wide.
    pub fn select_mean_guarded<G>(
        &self,
        lambda: &[f64],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> PartialRanking
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        debug_assert_eq!(lambda.len(), self.k, "SkillMatrix::select_mean lambda");
        self.select_rows(
            RowScorer::Mean {
                means: Arc::clone(&self.means),
                lambda: lambda.to_vec(),
            },
            resolved,
            k,
            threads,
            guard,
        )
    }

    /// Optimistic (UCB-style) top-`k`:
    /// `λ_w · lambda + beta * sqrt(max(0, Σ_k ν²_w,k · lambda_k²))`.
    pub fn select_optimistic(
        &self,
        lambda: &[f64],
        resolved: &[(WorkerId, usize)],
        k: usize,
        beta: f64,
        threads: usize,
    ) -> Vec<RankedWorker> {
        debug_assert_eq!(
            lambda.len(),
            self.k,
            "SkillMatrix::select_optimistic lambda"
        );
        self.select_rows(
            RowScorer::Optimistic {
                means: Arc::clone(&self.means),
                vars: Arc::clone(&self.vars),
                lambda: lambda.to_vec(),
                beta,
            },
            resolved,
            k,
            threads,
            &Unchecked,
        )
        .ranked
    }

    /// Top-`k` by f32 posterior-mean score over the f32 mirror — the opt-in
    /// reduced-precision serving path.
    ///
    /// The query vector is rounded to f32 once up front; scores are f32
    /// dots ([`kernels::dot_f32`], fixed 8-lane order) widened exactly to
    /// f64 for ranking, so ties break under the same total order as the f64
    /// path. Deterministic, but *not* bit-identical to f64: the accuracy
    /// contract (rank agreement modulo f32-rounding ties, bounded relative
    /// error) is pinned by the `f32_serving_oracle` property suite.
    pub fn select_mean_f32(
        &self,
        lambda: &[f64],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
    ) -> Vec<RankedWorker> {
        self.select_mean_f32_guarded(lambda, resolved, k, threads, &Unchecked)
            .ranked
    }

    /// [`SkillMatrix::select_mean_f32`] with a [`WorkGuard`] — identical
    /// checkpoint cadence and partial-prefix semantics to
    /// [`SkillMatrix::select_mean_guarded`].
    pub fn select_mean_f32_guarded<G>(
        &self,
        lambda: &[f64],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> PartialRanking
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        debug_assert_eq!(lambda.len(), self.k, "SkillMatrix::select_mean_f32 lambda");
        self.select_rows(
            RowScorer::MeanF32 {
                means: Arc::clone(&self.means_f32),
                lambda: lambda.iter().map(|&x| x as f32).collect(),
            },
            resolved,
            k,
            threads,
            guard,
        )
    }

    /// Batched mean-score top-`k`: one ranking per query in `lambdas`, all
    /// against the same resolved candidate set.
    ///
    /// The candidate resolution is paid once for the whole batch, and
    /// scoring runs through the cache-blocked batch kernel
    /// ([`kernels::gemv_gathered_batch`]): each block of gathered skill rows
    /// is streamed through the cache once for *all* queries. Query chunks
    /// run on the persistent [`ScoringPool`]. Per-query results are
    /// bit-identical to [`SkillMatrix::select_mean`] on the same inputs.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any pooled scoring chunk (a panicking scorer
    /// is a bug; there is no error value to surface from a completed job).
    pub fn select_mean_batch(
        &self,
        lambdas: &[&[f64]],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
    ) -> Vec<Vec<RankedWorker>> {
        self.select_mean_batch_guarded(lambdas, resolved, k, threads, &Unchecked)
            .into_iter()
            .map(|p| p.ranked)
            .collect()
    }

    /// [`SkillMatrix::select_mean_batch`] with a [`WorkGuard`] polled at
    /// every cache block of the batched kernel, charged `block rows ×
    /// queries` units before the block streams. When the guard fires, every
    /// query in the affected chunk is ranked over the same scanned row
    /// prefix (the kernel stops for all of them at one block boundary), so
    /// no ranking ever mixes scored and unscored rows. Never-firing guards
    /// are bit-identical to [`SkillMatrix::select_mean_batch`] (which
    /// delegates here).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any pooled scoring chunk (a panicking scorer
    /// is a bug; there is no error value to surface from a completed job).
    pub fn select_mean_batch_guarded<G>(
        &self,
        lambdas: &[&[f64]],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> Vec<PartialRanking>
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        let queries = lambdas.iter().map(|x| x.to_vec()).collect();
        self.select_batch_rows(&self.means, queries, resolved, k, threads, guard)
    }

    /// Batched f32 mean-score top-`k` — the batch form of
    /// [`SkillMatrix::select_mean_f32`], running the f32 mirror through the
    /// cache-blocked f32 batch kernel. Per-query results are bit-identical
    /// to [`SkillMatrix::select_mean_f32`] on the same inputs.
    pub fn select_mean_f32_batch(
        &self,
        lambdas: &[&[f64]],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
    ) -> Vec<Vec<RankedWorker>> {
        self.select_mean_f32_batch_guarded(lambdas, resolved, k, threads, &Unchecked)
            .into_iter()
            .map(|p| p.ranked)
            .collect()
    }

    /// [`SkillMatrix::select_mean_f32_batch`] with a [`WorkGuard`] — same
    /// block-boundary semantics as [`SkillMatrix::select_mean_batch_guarded`].
    pub fn select_mean_f32_batch_guarded<G>(
        &self,
        lambdas: &[&[f64]],
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> Vec<PartialRanking>
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        // One rounding of the query batch to f32, shared by every chunk.
        let queries = lambdas
            .iter()
            .map(|x| x.iter().map(|&v| v as f32).collect())
            .collect();
        self.select_batch_rows(&self.means_f32, queries, resolved, k, threads, guard)
    }

    /// Shared batch path over a dense mean block (`means` or its f32
    /// mirror): splits the queries into at most `threads` chunks, scores one
    /// chunk inline or several on the persistent [`ScoringPool`], and
    /// concatenates the per-query results in input order. Pooled jobs own
    /// their query-chunk copies and `Arc` handles to the shared row data.
    fn select_batch_rows<T, G>(
        &self,
        means: &Arc<Vec<T>>,
        queries: Vec<Vec<T>>,
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> Vec<PartialRanking>
    where
        T: ScoreElem,
        G: WorkGuard + Clone + Send + 'static,
    {
        let q = queries.len();
        let threads = threads.max(1).min(q.max(1));
        if threads <= 1 || q <= 1 {
            return batch_chunk(self.k, means, resolved, &queries, k, guard);
        }
        let resolved: Arc<Vec<(WorkerId, usize)>> = Arc::new(resolved.to_vec());
        let jobs: Vec<_> = queries
            .chunks(q.div_ceil(threads))
            .map(|chunk| {
                let chunk = chunk.to_vec();
                let means = Arc::clone(means);
                let resolved = Arc::clone(&resolved);
                let guard = G::clone(guard);
                let kk = self.k;
                move || batch_chunk(kk, &means, &resolved, &chunk, k, &guard)
            })
            .collect();
        ScoringPool::global()
            .run(jobs)
            .into_iter()
            .flatten()
            .collect()
    }

    /// Shared chunk-parallel top-k driver: scores rows with `scorer`, feeds
    /// the bounded min-heap per contiguous candidate chunk, merges the
    /// per-chunk winners with one more [`top_k`]. `threads <= 1` (or a
    /// single-chunk split) runs inline on the caller without touching the
    /// pool; otherwise candidate chunks — aligned up to
    /// [`GEMV_BLOCK_ROWS`]-row multiples so pooled chunks start on the same
    /// cache-block boundaries the batched kernel streams — are submitted to
    /// the persistent [`ScoringPool`], with the submitting thread helping
    /// drain them. The guard is polled every [`CHECKPOINT_ROWS`] candidates
    /// inside each chunk; a stopped chunk contributes its scanned prefix
    /// and the merged result is marked incomplete.
    fn select_rows<G>(
        &self,
        scorer: RowScorer,
        resolved: &[(WorkerId, usize)],
        k: usize,
        threads: usize,
        guard: &G,
    ) -> PartialRanking
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        let kk = self.k;
        let n = resolved.len();
        let threads = threads.max(1).min(n.max(1));
        let chunk = if threads > 1 {
            // Floor at MIN_POOL_CHUNK_ROWS: callers that pass explicit thread
            // counts (bypassing the model-layer spawn policy) must not shred a
            // small candidate set into chunks whose pool hand-off costs more
            // than the scan itself — sub-floor splits collapse to `chunk >= n`
            // and take the inline path below.
            n.div_ceil(threads)
                .max(MIN_POOL_CHUNK_ROWS)
                .next_multiple_of(GEMV_BLOCK_ROWS)
        } else {
            n.max(1)
        };
        if threads <= 1 || chunk >= n {
            let (ranked, scanned) =
                guarded_scan_rows(resolved, k, guard, |row| scorer.score(kk, row));
            return PartialRanking {
                ranked,
                complete: scanned == n,
                scanned,
            };
        }
        let jobs: Vec<_> = resolved
            .chunks(chunk)
            .map(|c| {
                let run: Vec<(WorkerId, usize)> = c.to_vec();
                let scorer = scorer.clone();
                let guard = G::clone(guard);
                move || guarded_scan_rows(&run, k, &guard, |row| scorer.score(kk, row))
            })
            .collect();
        merge_partials(ScoringPool::global().run(jobs), n, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> SkillMatrix {
        let mut m = SkillMatrix::new(3);
        for w in 0..10u32 {
            let mean: Vec<f64> = (0..3)
                .map(|k| (w as f64 - 4.5) * 0.3 + k as f64 * 0.1)
                .collect();
            let var: Vec<f64> = (0..3).map(|k| 0.5 + (w as f64 + k as f64) * 0.01).collect();
            m.upsert(WorkerId(w), &mean, &var);
        }
        m
    }

    #[test]
    fn upsert_appends_then_overwrites() {
        let mut m = SkillMatrix::new(2);
        m.upsert(WorkerId(3), &[1.0, 2.0], &[0.1, 0.2]);
        m.upsert(WorkerId(5), &[3.0, 4.0], &[0.3, 0.4]);
        assert_eq!(m.num_workers(), 2);
        assert_eq!(m.row_of(WorkerId(5)), Some(1));
        m.upsert(WorkerId(3), &[9.0, 9.0], &[0.9, 0.9]);
        assert_eq!(m.num_workers(), 2);
        assert_eq!(m.mean_row(0), &[9.0, 9.0]);
        assert_eq!(m.var_row(0), &[0.9, 0.9]);
        assert_eq!(m.mean_row(1), &[3.0, 4.0]);
    }

    #[test]
    fn upsert_keeps_the_f32_mirror_in_lockstep() {
        let mut m = SkillMatrix::new(2);
        m.upsert(WorkerId(1), &[0.1, 1.0e-40], &[0.0, 0.0]);
        assert_eq!(m.mean_row_f32(0), &[0.1f32, 1.0e-40f64 as f32]);
        m.upsert(WorkerId(1), &[2.5, -7.0], &[0.0, 0.0]);
        assert_eq!(m.mean_row_f32(0), &[2.5f32, -7.0f32]);
        // A clone (Arc handle) taken before an upsert keeps the old values.
        let snapshot = m.clone();
        m.upsert(WorkerId(1), &[9.0, 9.0], &[0.0, 0.0]);
        assert_eq!(snapshot.mean_row(0), &[2.5, -7.0]);
        assert_eq!(m.mean_row(0), &[9.0, 9.0]);
    }

    #[test]
    fn resolve_drops_unknown_and_keeps_order() {
        let m = matrix();
        let resolved = m.resolve(vec![WorkerId(7), WorkerId(99), WorkerId(2)]);
        assert_eq!(resolved, vec![(WorkerId(7), 7), (WorkerId(2), 2)]);
        assert_eq!(m.resolve_all().len(), 10);
    }

    #[test]
    fn chunked_selection_matches_serial_for_every_thread_count() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let serial = m.select_mean(&lambda, &resolved, 4, 1);
        for threads in [2, 3, 8, 64] {
            let par = m.select_mean(&lambda, &resolved, 4, threads);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn pooled_chunks_match_serial_past_the_block_alignment() {
        // Enough rows that a threads=8 split produces several 64-aligned
        // chunks past the MIN_POOL_CHUNK_ROWS floor, exercising the pooled
        // path (not the inline fallback): 8192 / 8 = 1024 -> floored to 2048
        // -> 4 pooled chunks; 8192 / 2 = 4096 -> 2 pooled chunks.
        let mut m = SkillMatrix::new(2);
        for w in 0..8192u32 {
            let mean = [(w as f64 * 0.713).sin(), (w as f64 * 0.291).cos()];
            m.upsert(WorkerId(w), &mean, &[0.1, 0.1]);
        }
        let resolved = m.resolve_all();
        let lambda = [0.9, -1.7];
        let serial = m.select_mean(&lambda, &resolved, 7, 1);
        for threads in [2, 8] {
            let par = m.select_mean(&lambda, &resolved, 7, threads);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn optimistic_adds_uncertainty_bonus() {
        let mut m = SkillMatrix::new(1);
        m.upsert(WorkerId(0), &[1.0], &[0.0]); // proven
        m.upsert(WorkerId(1), &[1.0], &[4.0]); // uncertain
        let resolved = m.resolve_all();
        let greedy = m.select_mean(&[1.0], &resolved, 2, 1);
        assert_eq!(
            greedy[0].worker,
            WorkerId(0),
            "mean tie breaks to smaller id"
        );
        let optimistic = m.select_optimistic(&[1.0], &resolved, 2, 1.0, 1);
        assert_eq!(optimistic[0].worker, WorkerId(1));
        assert!((optimistic[0].score - 3.0).abs() < 1e-12);
    }

    #[test]
    fn batch_matches_per_query_selection() {
        let m = matrix();
        let resolved = m.resolve(vec![
            WorkerId(9),
            WorkerId(0),
            WorkerId(4),
            WorkerId(6),
            WorkerId(1),
        ]);
        let q0 = [1.0, 0.0, 0.0];
        let q1 = [-0.4, 0.9, 0.2];
        let q2 = [0.0, 0.0, -1.0];
        let lambdas: Vec<&[f64]> = vec![&q0, &q1, &q2];
        for threads in [1, 2, 8] {
            let batch = m.select_mean_batch(&lambdas, &resolved, 3, threads);
            assert_eq!(batch.len(), 3);
            for (lambda, got) in lambdas.iter().zip(&batch) {
                let want = m.select_mean(lambda, &resolved, 3, 1);
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.worker, b.worker);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn f32_selection_is_deterministic_across_thread_counts_and_batching() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let serial = m.select_mean_f32(&lambda, &resolved, 4, 1);
        assert!(!serial.is_empty());
        for threads in [2, 8] {
            let par = m.select_mean_f32(&lambda, &resolved, 4, threads);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "threads={threads}");
            }
            let batch = m.select_mean_f32_batch(&[&lambda], &resolved, 4, threads);
            for (a, b) in batch[0].iter().zip(&serial) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "batch t={threads}");
            }
        }
    }

    #[test]
    fn f32_scores_track_f64_closely_on_benign_inputs() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let f64_ranked = m.select_mean(&lambda, &resolved, 10, 1);
        let f32_ranked = m.select_mean_f32(&lambda, &resolved, 10, 1);
        assert_eq!(f64_ranked.len(), f32_ranked.len());
        for (a, b) in f64_ranked.iter().zip(&f32_ranked) {
            assert_eq!(a.worker, b.worker, "benign inputs: identical order");
            let scale = a.score.abs().max(1e-6);
            assert!(
                (a.score - b.score).abs() / scale < 1e-5,
                "f64={} f32={}",
                a.score,
                b.score
            );
        }
    }

    #[test]
    fn nan_rows_are_skipped_in_every_path() {
        let mut m = SkillMatrix::new(2);
        m.upsert(WorkerId(0), &[f64::NAN, 1.0], &[1.0, 1.0]);
        m.upsert(WorkerId(1), &[1.0, 1.0], &[1.0, 1.0]);
        let resolved = m.resolve_all();
        let lambda = [1.0, 1.0];
        for threads in [1, 2] {
            let mean = m.select_mean(&lambda, &resolved, 2, threads);
            assert_eq!(mean.len(), 1);
            assert_eq!(mean[0].worker, WorkerId(1));
            let opt = m.select_optimistic(&lambda, &resolved, 2, 0.5, threads);
            assert_eq!(opt.len(), 1);
            let batch = m.select_mean_batch(&[&lambda], &resolved, 2, threads);
            assert_eq!(batch[0].len(), 1);
            let f32_mean = m.select_mean_f32(&lambda, &resolved, 2, threads);
            assert_eq!(f32_mean.len(), 1, "f32 NaN row skipped");
            let f32_batch = m.select_mean_f32_batch(&[&lambda], &resolved, 2, threads);
            assert_eq!(f32_batch[0].len(), 1);
        }
    }

    /// A guard admitting a fixed number of units, then refusing. Wrapped in
    /// `Arc` at use sites: pooled chunks clone the handle, so exhaustion is
    /// shared pool-wide exactly like a real query budget.
    struct Budget(std::sync::atomic::AtomicU64);
    impl WorkGuard for Budget {
        fn consume(&self, units: u64) -> bool {
            use std::sync::atomic::Ordering;
            self.0
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(units))
                .is_ok()
        }
    }

    #[test]
    fn never_firing_guard_is_bitwise_identical_and_complete() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        for threads in [1, 2, 8] {
            let plain = m.select_mean(&lambda, &resolved, 4, threads);
            let guarded = m.select_mean_guarded(&lambda, &resolved, 4, threads, &Unchecked);
            assert!(guarded.complete);
            assert_eq!(guarded.scanned, resolved.len());
            assert_eq!(guarded.ranked.len(), plain.len());
            for (a, b) in guarded.ranked.iter().zip(&plain) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn exhausted_guard_reports_a_partial_prefix() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [1.0, 0.0, 0.0];
        // Zero budget: nothing is scanned, the ranking is empty but sound.
        let none = m.select_mean_guarded(&lambda, &resolved, 4, 1, &Arc::new(Budget(0.into())));
        assert!(!none.complete);
        assert_eq!((none.scanned, none.ranked.len()), (0, 0));
        // The batch path stops at a block boundary for every query at once.
        let q0: &[f64] = &lambda;
        let batch =
            m.select_mean_batch_guarded(&[q0, q0], &resolved, 4, 1, &Arc::new(Budget(0.into())));
        assert_eq!(batch.len(), 2);
        for p in &batch {
            assert!(!p.complete);
            assert!(p.ranked.is_empty());
        }
        // Same soundness on the f32 path.
        let f32_none =
            m.select_mean_f32_guarded(&lambda, &resolved, 4, 1, &Arc::new(Budget(0.into())));
        assert!(!f32_none.complete);
        assert_eq!((f32_none.scanned, f32_none.ranked.len()), (0, 0));
    }

    #[test]
    fn exhausted_guard_is_observed_by_pooled_chunks() {
        // A large pooled selection with a budget covering only part of the
        // scan: every chunk shares the one budget, so the total scanned
        // count across chunks never exceeds it.
        let mut m = SkillMatrix::new(2);
        for w in 0..4000u32 {
            m.upsert(WorkerId(w), &[w as f64, 1.0], &[0.1, 0.1]);
        }
        let resolved = m.resolve_all();
        let budget = Arc::new(Budget(2048.into()));
        let partial = m.select_mean_guarded(&[1.0, 0.0], &resolved, 5, 8, &budget);
        assert!(!partial.complete);
        assert!(
            partial.scanned <= 2048,
            "scanned {} > budget",
            partial.scanned
        );
    }

    #[test]
    fn guarded_batch_with_room_is_complete_and_identical() {
        let m = matrix();
        let resolved = m.resolve_all();
        let q0 = [1.0, 0.0, 0.0];
        let q1 = [-0.4, 0.9, 0.2];
        let lambdas: Vec<&[f64]> = vec![&q0, &q1];
        let plain = m.select_mean_batch(&lambdas, &resolved, 3, 2);
        let guarded = m.select_mean_batch_guarded(
            &lambdas,
            &resolved,
            3,
            2,
            &Arc::new(Budget(1_000_000.into())),
        );
        for (p, want) in guarded.iter().zip(&plain) {
            assert!(p.complete);
            assert_eq!(p.scanned, resolved.len());
            for (a, b) in p.ranked.iter().zip(want) {
                assert_eq!(a.worker, b.worker);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn empty_candidates_yield_empty_rankings() {
        let m = matrix();
        assert!(m.select_mean(&[0.0; 3], &[], 5, 4).is_empty());
        let batch = m.select_mean_batch(&[&[0.0; 3]], &[], 5, 4);
        assert_eq!(batch, vec![Vec::new()]);
        assert!(m.select_mean_f32(&[0.0; 3], &[], 5, 4).is_empty());
    }
}
