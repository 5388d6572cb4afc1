//! Dense serving snapshot of the worker-skill posteriors.
//!
//! The online selection query (paper Eq. 1; Algorithm 3 line 7) scores every
//! candidate worker against one projected task. [`SkillMatrix`] is the only
//! home of the worker posteriors: a contiguous row-major `W × K`
//! structure-of-arrays block of the posterior means, with a parallel `W × K`
//! variance block for the optimistic (UCB) path, an f32 mirror of the means
//! for the opt-in reduced-precision serving path, and a dense [`WorkerId`]
//! → row index. The model fills it at fit or restore time and row-upserts it
//! on `add_worker` / `record_feedback`; the model's incremental-update
//! statistics live beside it, one row per matrix row, because selection
//! never reads them.
//!
//! The dense blocks and the row → id list live behind `Arc` because
//! parallel selection no longer spawns scoped threads per call: chunk jobs
//! are `'static` closures submitted to the persistent [`ScoringPool`], and
//! they share the posterior rows by cloning an `Arc` handle (DESIGN.md
//! §10a). Mutation (`upsert`) goes through `Arc::make_mut`, which is a plain
//! in-place write whenever no selection is holding a handle — i.e. always,
//! since selection completes before returning.
//!
//! Every selection — one query or a batch, f64 or f32, guarded or not, at
//! any thread count — runs through one driver ([`SkillMatrix::select`],
//! parameterised by a [`ScoreSpec`]; the UCB scorer of
//! [`SkillMatrix::select_optimistic`] plugs into the same driver). Every
//! f64 result is **bit-identical** to the serial reference implementation
//! (`TdpmModel::select_top_k_serial`):
//!
//! - per-row scores use [`crowd_math::kernels`], whose fixed 4-lane
//!   accumulation order is shared by the serial scorer and the driver;
//! - the chunked-parallel path splits *candidates* into disjoint contiguous
//!   chunks (never a single dot product), feeds one [`TopK`] per query per
//!   chunk, and merges each query's per-chunk winners with one more
//!   [`top_k`]. Because [`top_k`] ranks under a *total* order (score
//!   descending via `total_cmp`, ties to the smaller id, NaN skipped), the
//!   global top-k is contained in the union of per-chunk top-ks and the merge
//!   reproduces it exactly, independent of chunking (DESIGN.md §6d).
//!
//! The f32 path ([`Precision::F32`]) is deterministic but **not**
//! bit-identical to f64: its contract is rank agreement modulo ties inside
//! f32 rounding plus a bounded relative score error, pinned by the
//! `f32_serving_oracle` property suite (DESIGN.md §10c).

use crate::model::Precision;
use crate::selection::{top_k, RankedWorker, TopK};
use crowd_math::guard::{Unchecked, WorkGuard, CHECKPOINT_ROWS};
use crowd_math::kernels::{self, GEMV_BLOCK_ROWS};
use crowd_math::ScoringPool;
use crowd_store::WorkerId;
use std::sync::Arc;

/// Candidates resolved against the matrix: their row numbers in input
/// order, unknown workers dropped. A row's worker is
/// [`SkillMatrix::ids`]`[row]`, which the scan reads only for a score that
/// clears the top-k floor.
pub type ResolvedCandidates = Vec<u32>;

/// Entry of the dense id → row index for an id that has no row.
const NO_ROW: u32 = u32::MAX;

/// The one audited usize → u32 narrowing for row numbers.
///
/// Rows are numbered 0, 1, 2, … in insertion order, at most one per
/// distinct `u32` id, so a row number fits `u32`; reaching the [`NO_ROW`]
/// sentinel would take 2^32 − 1 rows, which exhausts memory first. The
/// wrap stays (asserted in debug builds), as in the store's `dense_id`.
fn row_number(n: usize) -> u32 {
    debug_assert!(n < NO_ROW as usize, "row space exhausted");
    // crowd-lint: allow(no-silent-truncation) -- single audited choke point; debug-asserted, unreachable before memory exhaustion
    n as u32
}

/// Dense id → row index: the worker rows of a [`SkillMatrix`] and the
/// trained-task rows of a [`crate::TdpmModel`].
///
/// `rows[id]` is `id`'s row, [`NO_ROW`] when it has none. Store ids are
/// dense indexes (0, 1, 2, …), so this costs 4 B × (largest id + 1) and
/// every lookup is one array read.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    rows: Vec<u32>,
}

impl RowIndex {
    /// An empty index with room for ids below `ids`.
    pub(crate) fn with_capacity(ids: usize) -> Self {
        RowIndex {
            rows: Vec::with_capacity(ids),
        }
    }

    /// The row of `id`, if it has one.
    pub(crate) fn get(&self, id: u32) -> Option<usize> {
        self.entry(id).map(|row| row as usize)
    }

    /// The row of `id` as stored, if it has one.
    fn entry(&self, id: u32) -> Option<u32> {
        match self.rows.get(id as usize) {
            Some(&row) if row != NO_ROW => Some(row),
            _ => None,
        }
    }

    /// Points `id` at `row`, replacing any row it had.
    pub(crate) fn set(&mut self, id: u32, row: usize) {
        let slot = id as usize;
        if slot >= self.rows.len() {
            self.rows.resize(slot + 1, NO_ROW);
        }
        self.rows[slot] = row_number(row);
    }

    /// `(id, row)` for every id that has a row, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        (0u32..)
            .zip(&self.rows)
            .filter(|&(_, &row)| row != NO_ROW)
            .map(|(id, &row)| (id, row as usize))
    }
}

/// Smallest candidate chunk worth handing to the [`ScoringPool`].
///
/// Pool dispatch (enqueue, wake, merge) costs on the order of the time it
/// takes to stream ~2k dot products, so splits finer than this lose to the
/// inline scan even with idle workers. Every thread count goes through this
/// floor, so pools below it always run inline. Must stay a
/// [`GEMV_BLOCK_ROWS`] multiple so the floor never mis-aligns chunk starts.
pub const MIN_POOL_CHUNK_ROWS: usize = 2048;

/// How a selection call scores: precision, fan-out and work guard, carried
/// as data instead of as method names.
///
/// [`ScoreSpec::default`] is f64, default fan-out, never-firing guard.
#[derive(Debug, Clone, Copy)]
pub struct ScoreSpec<G = Unchecked> {
    /// f64 means (the bit-identity oracle) or their f32 mirror.
    pub precision: Precision,
    /// Target candidate-chunk fan-out on the [`ScoringPool`]. `None` is one
    /// inline walk in [`SkillMatrix::select`] and the configured
    /// `num_threads` in [`crate::TdpmModel::select`]. Chunks never go below
    /// [`MIN_POOL_CHUNK_ROWS`] rows, so results are bit-identical for every
    /// value.
    pub threads: Option<usize>,
    /// Charged `rows × queries` before every [`CHECKPOINT_ROWS`] rows of
    /// each chunk; a refusal stops that chunk there.
    pub guard: G,
}

impl Default for ScoreSpec {
    fn default() -> Self {
        ScoreSpec {
            precision: Precision::F64,
            threads: None,
            guard: Unchecked,
        }
    }
}

/// A ranking that may have been stopped early by a [`WorkGuard`].
///
/// `ranked` is a correct top-k of the `scanned` candidates that were
/// actually scored — never a corrupt mixture — and `complete` records
/// whether the guard let the scan finish. A never-firing guard returns
/// `complete == true` and the same bits as [`Unchecked`] (same loop).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRanking {
    /// Top-k of the scanned candidates.
    pub ranked: Vec<RankedWorker>,
    /// `true` when every candidate was scored before the guard fired.
    pub complete: bool,
    /// How many resolved candidates were scored (summed across chunks; the
    /// same for every query of one call).
    pub scanned: usize,
}

/// Element type of a dense mean block: `f64` means or their `f32` mirror,
/// scored with the fixed-order kernel for that width and widened (exactly)
/// to f64 for ranking.
trait ScoreElem: Sized + Send + Sync + 'static {
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

/// Scores matrix rows against the queries of one selection call. A scorer
/// owns `Arc` handles to the dense blocks it reads plus its query vectors,
/// so pooled chunk jobs share it through an `Arc` and never borrow the
/// matrix.
trait Scorer: Send + Sync + 'static {
    /// Element type of the query vectors.
    type Elem;
    /// The query vectors, in input order.
    fn queries(&self) -> &[Vec<Self::Elem>];
    /// Score of matrix row `row` against `x`, in f64 for ranking.
    fn score(&self, row: usize, x: &[Self::Elem]) -> f64;
}

/// Posterior-mean score `λ_w · x` over the f64 means or their f32 mirror.
struct MeanScorer<T> {
    k: usize,
    means: Arc<Vec<T>>,
    queries: Vec<Vec<T>>,
}

impl<T: ScoreElem> Scorer for MeanScorer<T> {
    type Elem = T;

    fn queries(&self) -> &[Vec<T>] {
        &self.queries
    }

    #[inline]
    fn score(&self, row: usize, x: &[T]) -> f64 {
        T::dot(&self.means[row * self.k..(row + 1) * self.k], x)
    }
}

/// Optimistic (UCB) score of one query: mean plus `beta`-scaled posterior
/// std-dev.
struct UcbScorer {
    k: usize,
    means: Arc<Vec<f64>>,
    vars: Arc<Vec<f64>>,
    lambda: [Vec<f64>; 1],
    beta: f64,
}

impl Scorer for UcbScorer {
    type Elem = f64;

    fn queries(&self) -> &[Vec<f64>] {
        &self.lambda
    }

    #[inline]
    fn score(&self, row: usize, x: &[f64]) -> f64 {
        let span = row * self.k..(row + 1) * self.k;
        kernels::ucb_score(&self.means[span.clone()], &self.vars[span], x, self.beta)
    }
}

/// One chunk's scan, shared verbatim by the inline walk and the pooled
/// jobs: charges the guard `rows × queries` before every
/// [`CHECKPOINT_ROWS`] rows and stops at the first refusal, then scores
/// each [`GEMV_BLOCK_ROWS`] block into an L1-resident stack scratch per
/// query and feeds that query's [`TopK`]. A score below the query's top-k
/// floor costs one compare; only one that clears it reads its row's
/// [`WorkerId`] from `ids`, the tie-break key. Per-row scores are one kernel
/// call whatever the chunking, and [`TopK`] is feed-order independent, so
/// every chunking gives the same bits; a refusal stops every query at the
/// same row, so no ranking mixes scored and unscored rows. Returns each
/// query's winners and the scanned row count.
fn scan_chunk<S: Scorer>(
    scorer: &S,
    ids: &[WorkerId],
    run: &[u32],
    k: usize,
    guard: &impl WorkGuard,
) -> (Vec<Vec<RankedWorker>>, usize) {
    let queries = scorer.queries();
    let mut heaps: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
    let mut scratch = [0.0f64; GEMV_BLOCK_ROWS];
    let mut scanned = 0usize;
    for checkpoint in run.chunks(CHECKPOINT_ROWS) {
        if !guard.consume(checkpoint.len() as u64 * queries.len() as u64) {
            break;
        }
        for block in checkpoint.chunks(GEMV_BLOCK_ROWS) {
            for (x, heap) in queries.iter().zip(heaps.iter_mut()) {
                for (slot, &row) in scratch.iter_mut().zip(block) {
                    *slot = scorer.score(row as usize, x);
                }
                for (&row, &s) in block.iter().zip(&scratch) {
                    if !heap.below_floor(s) {
                        heap.push(ids[row as usize], s);
                    }
                }
            }
        }
        scanned += checkpoint.len();
    }
    (heaps.into_iter().map(TopK::finish).collect(), scanned)
}

/// The selection driver: splits the candidates into at most `threads`
/// contiguous chunks, each at least [`MIN_POOL_CHUNK_ROWS`] rows and
/// [`GEMV_BLOCK_ROWS`]-aligned, and scans one chunk inline or several on
/// the persistent [`ScoringPool`] (the submitting thread helps drain them).
/// Each query's per-chunk winners merge with one more [`top_k`]. Pooled
/// jobs carry a copy of their chunk's row numbers, an `Arc` handle to the
/// row → id list and a clone of the guard, all guard clones forwarding to
/// the same shared state, so one firing guard stops every chunk pool-wide.
///
/// # Panics
///
/// Re-raises the panic of any pooled chunk (a panicking scorer is a bug;
/// there is no error value to surface from a completed job).
fn drive<S, G>(
    scorer: S,
    ids: &Arc<Vec<WorkerId>>,
    resolved: &[u32],
    k: usize,
    threads: usize,
    guard: &G,
) -> Vec<PartialRanking>
where
    S: Scorer,
    G: WorkGuard + Clone + Send + 'static,
{
    let n = resolved.len();
    let queries = scorer.queries().len();
    // One thread and sub-floor splits collapse to `chunk >= n`: inline.
    let chunk = n
        .div_ceil(threads.max(1))
        .max(MIN_POOL_CHUNK_ROWS)
        .next_multiple_of(GEMV_BLOCK_ROWS);
    let mut partials = if chunk >= n {
        vec![scan_chunk(&scorer, ids, resolved, k, guard)]
    } else {
        let scorer = Arc::new(scorer);
        let jobs: Vec<_> = resolved
            .chunks(chunk)
            .map(|c| {
                let run = c.to_vec();
                let scorer = Arc::clone(&scorer);
                let ids = Arc::clone(ids);
                let guard = G::clone(guard);
                move || scan_chunk(&*scorer, &ids, &run, k, &guard)
            })
            .collect();
        ScoringPool::global().run(jobs)
    };
    let scanned: usize = partials.iter().map(|&(_, s)| s).sum();
    let ranked = if partials.len() == 1 {
        partials
            .pop()
            .map(|(winners, _)| winners)
            .unwrap_or_default()
    } else {
        (0..queries)
            .map(|q| {
                top_k(
                    partials
                        .iter()
                        .flat_map(|(winners, _)| &winners[q])
                        .map(|rw| (rw.worker, rw.score)),
                    k,
                )
            })
            .collect()
    };
    ranked
        .into_iter()
        .map(|ranked| PartialRanking {
            ranked,
            complete: scanned == n,
            scanned,
        })
        .collect()
}

/// Contiguous row-major `W × K` snapshot of posterior means and variances.
#[derive(Debug, Clone, Default)]
pub struct SkillMatrix {
    k: usize,
    /// Worker id by row.
    ids: Arc<Vec<WorkerId>>,
    /// Row by worker id.
    rows: RowIndex,
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
        SkillMatrix {
            k,
            ..SkillMatrix::default()
        }
    }

    /// A matrix whose row `i` is worker `ids[i]`, with row `i` of the
    /// row-major, `k`-wide `means` and `vars` moved in as the blocks.
    /// Returns the first id that repeats.
    pub(crate) fn from_rows(
        k: usize,
        ids: Vec<WorkerId>,
        means: Vec<f64>,
        vars: Vec<f64>,
    ) -> Result<Self, WorkerId> {
        debug_assert!(
            means.len() == ids.len() * k && vars.len() == ids.len() * k,
            "one {k}-wide row per id"
        );
        let mut rows = RowIndex::with_capacity(ids.len());
        for (row, &w) in ids.iter().enumerate() {
            if rows.get(w.0).is_some() {
                return Err(w);
            }
            rows.set(w.0, row);
        }
        let means_f32 = means.iter().map(|&m| m as f32).collect();
        Ok(SkillMatrix {
            k,
            ids: Arc::new(ids),
            rows,
            means: Arc::new(means),
            vars: Arc::new(vars),
            means_f32: Arc::new(means_f32),
        })
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
        self.rows.get(worker.0)
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
    /// Both slices must have length `K`. The incremental paths
    /// (`add_worker`, `record_feedback`) upsert the one row they touched.
    /// The f32 mirror is refreshed here too (round-to-nearest per element,
    /// as when the matrix is built), so it can never drift from the f64
    /// truth.
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
                self.rows.set(worker.0, self.ids.len());
                Arc::make_mut(&mut self.ids).push(worker);
                means.extend_from_slice(mean);
                vars.extend_from_slice(var);
                means_f32.extend(mean.iter().map(|&m| m as f32));
            }
        }
    }

    /// Resolves candidate ids to their row numbers in input order, dropping
    /// workers the matrix does not know: one read of the dense id → row
    /// index per candidate, paid once per batch by the batched paths.
    pub fn resolve(&self, candidates: impl IntoIterator<Item = WorkerId>) -> ResolvedCandidates {
        let candidates = candidates.into_iter();
        let mut resolved = Vec::with_capacity(candidates.size_hint().0);
        resolved.extend(candidates.filter_map(|w| self.rows.entry(w.0)));
        resolved
    }

    /// Every worker row, in row order.
    pub fn resolve_all(&self) -> ResolvedCandidates {
        self.resolve(self.ids.iter().copied())
    }

    /// Top-`k` by posterior-mean score `λ_w · x` over the resolved
    /// candidates, one [`PartialRanking`] per query in `lambdas` (a single
    /// query is a batch of one), under `spec`.
    ///
    /// Every 64-row block of skill rows streams through the cache once for
    /// all queries. [`Precision::F32`] rounds each query to f32 once up front
    /// and scores the f32 mirror ([`kernels::dot_f32`], fixed 8-lane order)
    /// widened exactly to f64, so ties break under the same total order as
    /// f64. `spec.threads == None` is one inline walk. Results are
    /// bit-identical for every thread count and to a single-query call per
    /// query; a never-firing guard is bit-identical to [`Unchecked`].
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any pooled scoring chunk.
    pub fn select<G>(
        &self,
        lambdas: &[&[f64]],
        resolved: &[u32],
        k: usize,
        spec: &ScoreSpec<G>,
    ) -> Vec<PartialRanking>
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        debug_assert!(
            lambdas.iter().all(|x| x.len() == self.k),
            "SkillMatrix::select lambda length"
        );
        if lambdas.is_empty() {
            return Vec::new();
        }
        let threads = spec.threads.unwrap_or(1);
        match spec.precision {
            Precision::F64 => drive(
                MeanScorer {
                    k: self.k,
                    means: Arc::clone(&self.means),
                    queries: lambdas.iter().map(|x| x.to_vec()).collect(),
                },
                &self.ids,
                resolved,
                k,
                threads,
                &spec.guard,
            ),
            Precision::F32 => drive(
                MeanScorer {
                    k: self.k,
                    means: Arc::clone(&self.means_f32),
                    queries: lambdas
                        .iter()
                        .map(|x| x.iter().map(|&v| v as f32).collect())
                        .collect(),
                },
                &self.ids,
                resolved,
                k,
                threads,
                &spec.guard,
            ),
        }
    }

    /// Optimistic (UCB-style) top-`k`:
    /// `λ_w · lambda + beta * sqrt(max(0, Σ_k ν²_w,k · lambda_k²))`, through
    /// the same driver as [`SkillMatrix::select`] at `threads` fan-out.
    pub fn select_optimistic(
        &self,
        lambda: &[f64],
        resolved: &[u32],
        k: usize,
        beta: f64,
        threads: usize,
    ) -> Vec<RankedWorker> {
        debug_assert_eq!(
            lambda.len(),
            self.k,
            "SkillMatrix::select_optimistic lambda"
        );
        let scorer = UcbScorer {
            k: self.k,
            means: Arc::clone(&self.means),
            vars: Arc::clone(&self.vars),
            lambda: [lambda.to_vec()],
            beta,
        };
        drive(scorer, &self.ids, resolved, k, threads, &Unchecked)
            .pop()
            .map(|p| p.ranked)
            .unwrap_or_default()
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

    /// A matrix of `n` rows over two categories.
    fn wide(n: u32) -> SkillMatrix {
        let mut m = SkillMatrix::new(2);
        for w in 0..n {
            let mean = [(w as f64 * 0.713).sin(), (w as f64 * 0.291).cos()];
            m.upsert(WorkerId(w), &mean, &[0.1, 0.1]);
        }
        m
    }

    fn spec(threads: usize) -> ScoreSpec {
        ScoreSpec {
            threads: Some(threads),
            ..ScoreSpec::default()
        }
    }

    fn f32_spec(threads: usize) -> ScoreSpec {
        ScoreSpec {
            precision: Precision::F32,
            ..spec(threads)
        }
    }

    fn guarded_spec<G>(threads: usize, guard: G) -> ScoreSpec<G> {
        ScoreSpec {
            precision: Precision::F64,
            threads: Some(threads),
            guard,
        }
    }

    /// One query's ranking under `spec`.
    fn one<G>(
        m: &SkillMatrix,
        lambda: &[f64],
        resolved: &[u32],
        k: usize,
        spec: &ScoreSpec<G>,
    ) -> PartialRanking
    where
        G: WorkGuard + Clone + Send + 'static,
    {
        m.select(&[lambda], resolved, k, spec).remove(0)
    }

    fn assert_bits(got: &[RankedWorker], want: &[RankedWorker], ctx: &str) {
        assert_eq!(got.len(), want.len(), "{ctx}: length");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.worker, b.worker, "{ctx}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{ctx}");
        }
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
        assert_eq!(resolved, vec![7, 2]);
        assert_eq!(m.resolve_all().len(), 10);
    }

    #[test]
    fn ties_rank_by_worker_id_not_by_row() {
        let mut m = SkillMatrix::new(2);
        for w in [9, 3, 5] {
            m.upsert(WorkerId(w), &[1.0, 0.5], &[0.1, 0.1]);
        }
        assert_eq!(m.ids(), [WorkerId(9), WorkerId(3), WorkerId(5)]);
        let ranked = one(&m, &[1.0, 1.0], &m.resolve_all(), 3, &spec(1)).ranked;
        let order: Vec<WorkerId> = ranked.iter().map(|r| r.worker).collect();
        assert_eq!(order, [WorkerId(3), WorkerId(5), WorkerId(9)]);
    }

    #[test]
    fn chunked_selection_matches_serial_for_every_thread_count() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let serial = one(&m, &lambda, &resolved, 4, &ScoreSpec::default()).ranked;
        for threads in [2, 3, 8, 64] {
            let par = one(&m, &lambda, &resolved, 4, &spec(threads)).ranked;
            assert_bits(&par, &serial, &format!("threads={threads}"));
        }
    }

    #[test]
    fn pooled_chunks_match_serial_past_the_block_alignment() {
        // Enough rows that a threads=8 split produces several 64-aligned
        // chunks past the MIN_POOL_CHUNK_ROWS floor, exercising the pooled
        // path (not the inline fallback): 8192 / 8 = 1024 -> floored to 2048
        // -> 4 pooled chunks; 8192 / 2 = 4096 -> 2 pooled chunks.
        let m = wide(8192);
        let resolved = m.resolve_all();
        let lambda = [0.9, -1.7];
        let serial = one(&m, &lambda, &resolved, 7, &spec(1)).ranked;
        for threads in [2, 8] {
            let par = one(&m, &lambda, &resolved, 7, &spec(threads)).ranked;
            assert_bits(&par, &serial, &format!("threads={threads}"));
        }
    }

    #[test]
    fn optimistic_adds_uncertainty_bonus() {
        let mut m = SkillMatrix::new(1);
        m.upsert(WorkerId(0), &[1.0], &[0.0]); // proven
        m.upsert(WorkerId(1), &[1.0], &[4.0]); // uncertain
        let resolved = m.resolve_all();
        let greedy = one(&m, &[1.0], &resolved, 2, &ScoreSpec::default()).ranked;
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
            let batch = m.select(&lambdas, &resolved, 3, &spec(threads));
            assert_eq!(batch.len(), 3);
            for (lambda, got) in lambdas.iter().zip(&batch) {
                let want = one(&m, lambda, &resolved, 3, &spec(1)).ranked;
                assert_bits(&got.ranked, &want, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn pooled_batch_matches_per_query_selection() {
        let m = wide(8192);
        let resolved = m.resolve_all();
        let lambdas: Vec<&[f64]> = vec![&[0.9, -1.7], &[-0.2, 0.4], &[1.0, 1.0]];
        for threads in [2, 8] {
            let batch = m.select(&lambdas, &resolved, 5, &spec(threads));
            for (lambda, got) in lambdas.iter().zip(&batch) {
                assert!(got.complete);
                assert_eq!(got.scanned, resolved.len());
                let want = one(&m, lambda, &resolved, 5, &spec(1)).ranked;
                assert_bits(&got.ranked, &want, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn f32_selection_is_deterministic_across_thread_counts_and_batching() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let serial = one(&m, &lambda, &resolved, 4, &f32_spec(1)).ranked;
        assert!(!serial.is_empty());
        for threads in [2, 8] {
            let par = one(&m, &lambda, &resolved, 4, &f32_spec(threads)).ranked;
            assert_bits(&par, &serial, &format!("threads={threads}"));
            let batch = m.select(&[&lambda, &lambda], &resolved, 4, &f32_spec(threads));
            for p in &batch {
                assert_bits(&p.ranked, &serial, &format!("batch t={threads}"));
            }
        }
    }

    #[test]
    fn f32_scores_track_f64_closely_on_benign_inputs() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        let f64_ranked = one(&m, &lambda, &resolved, 10, &spec(1)).ranked;
        let f32_ranked = one(&m, &lambda, &resolved, 10, &f32_spec(1)).ranked;
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
            for s in [spec(threads), f32_spec(threads)] {
                let batch = m.select(&[&lambda, &lambda], &resolved, 2, &s);
                for p in &batch {
                    assert_eq!(p.ranked.len(), 1, "{:?}", s.precision);
                    assert_eq!(p.ranked[0].worker, WorkerId(1));
                }
            }
            let opt = m.select_optimistic(&lambda, &resolved, 2, 0.5, threads);
            assert_eq!(opt.len(), 1);
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

    fn budget(units: u64) -> Arc<Budget> {
        Arc::new(Budget(units.into()))
    }

    #[test]
    fn never_firing_guard_is_bitwise_identical_and_complete() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [0.7, -0.3, 1.1];
        for threads in [1, 2, 8] {
            let plain = one(&m, &lambda, &resolved, 4, &spec(threads)).ranked;
            let guarded = one(
                &m,
                &lambda,
                &resolved,
                4,
                &guarded_spec(threads, budget(1 << 40)),
            );
            assert!(guarded.complete);
            assert_eq!(guarded.scanned, resolved.len());
            assert_bits(&guarded.ranked, &plain, &format!("threads={threads}"));
        }
    }

    #[test]
    fn exhausted_guard_reports_a_partial_prefix() {
        let m = matrix();
        let resolved = m.resolve_all();
        let lambda = [1.0, 0.0, 0.0];
        // Zero budget: nothing is scanned, the ranking is empty but sound,
        // for every query of a batch and at either precision.
        for precision in [Precision::F64, Precision::F32] {
            let s = ScoreSpec {
                precision,
                ..guarded_spec(1, budget(0))
            };
            let batch = m.select(&[&lambda, &lambda], &resolved, 4, &s);
            assert_eq!(batch.len(), 2);
            for p in &batch {
                assert!(!p.complete);
                assert_eq!((p.scanned, p.ranked.len()), (0, 0));
            }
        }
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
        let partial = one(
            &m,
            &[1.0, 0.0],
            &resolved,
            5,
            &guarded_spec(8, budget(2048)),
        );
        assert!(!partial.complete);
        assert!(
            partial.scanned <= 2048,
            "scanned {} > budget",
            partial.scanned
        );
    }

    #[test]
    fn a_batch_stopped_mid_scan_shares_one_prefix() {
        let m = wide(8192);
        let resolved = m.resolve_all();
        let lambdas: Vec<&[f64]> = vec![&[0.9, -1.7], &[-0.2, 0.4], &[1.0, 1.0]];
        let units = 3 * 2500;
        // Inline: the budget admits two 1024-row checkpoints of 3 queries,
        // and every query ranks exactly that prefix.
        let batch = m.select(&lambdas, &resolved, 6, &guarded_spec(1, budget(units)));
        for (lambda, p) in lambdas.iter().zip(&batch) {
            assert!(!p.complete);
            assert_eq!(p.scanned, 2 * CHECKPOINT_ROWS);
            let prefix = &resolved[..p.scanned];
            let want = one(&m, lambda, prefix, 6, &ScoreSpec::default()).ranked;
            assert_bits(&p.ranked, &want, "inline prefix");
        }
        // Pooled: chunks race one budget, but all queries of a chunk stop
        // together, so every query reports the same scanned count.
        for threads in [2, 8] {
            let batch = m.select(
                &lambdas,
                &resolved,
                6,
                &guarded_spec(threads, budget(units)),
            );
            let scanned = batch[0].scanned;
            assert!(scanned as u64 <= units / 3, "t{threads}: {scanned}");
            for p in &batch {
                assert!(!p.complete);
                assert_eq!(p.scanned, scanned, "t{threads}");
            }
        }
    }

    #[test]
    fn guarded_batch_with_room_is_complete_and_identical() {
        let m = matrix();
        let resolved = m.resolve_all();
        let q0 = [1.0, 0.0, 0.0];
        let q1 = [-0.4, 0.9, 0.2];
        let lambdas: Vec<&[f64]> = vec![&q0, &q1];
        let plain = m.select(&lambdas, &resolved, 3, &spec(2));
        let guarded = m.select(&lambdas, &resolved, 3, &guarded_spec(2, budget(1_000_000)));
        for (p, want) in guarded.iter().zip(&plain) {
            assert!(p.complete);
            assert_eq!(p.scanned, resolved.len());
            assert_bits(&p.ranked, &want.ranked, "guarded batch");
        }
    }

    #[test]
    fn empty_candidates_yield_empty_rankings() {
        let m = matrix();
        for s in [spec(4), f32_spec(4)] {
            let batch = m.select(&[&[0.0; 3]], &[], 5, &s);
            assert_eq!(batch.len(), 1);
            assert!(batch[0].complete && batch[0].ranked.is_empty());
        }
        assert!(m.select(&[], &m.resolve_all(), 5, &spec(4)).is_empty());
    }
}
