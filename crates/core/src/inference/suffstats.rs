//! Fixed-block sufficient statistics — the bit-identity backbone of the
//! sharded fit (ROADMAP item 3, DESIGN §11).
//!
//! Floating-point addition is not associative, so "each shard sums its
//! entities, then the M-step adds the shard partials" would produce results
//! that drift with the shard count. Instead every global reduction in the
//! M-step and the ELBO is defined over *fixed-size blocks* of
//! [`SUFF_BLOCK`] consecutive entities:
//!
//! 1. entities accumulate left-to-right **within** their block, and
//! 2. block partials fold left-to-right in **global block order**.
//!
//! That reduction tree depends only on the entity count — never on the
//! shard count or thread count. A [`ShardPlan`] cuts the entity axes into
//! contiguous ranges aligned to block boundaries, so each shard produces
//! exactly the block partials of its range; concatenating the per-shard
//! partials in fixed shard-index order recreates the global block list, and
//! the fold is bit-identical for every shard count.

use crate::dataset::TaskData;
use crate::inference::elbo::{gaussian_kl, ElboBreakdown};
use crate::inference::estep::expected_word_ll;
use crate::inference::mstep::expected_sq_residual;
use crate::inference::EStepContext;
use crate::variational::{Slab, VariationalState};
use crate::Result;
use crowd_math::{Matrix, Vector};
use std::ops::Range;

/// Entities per reduction block. Fixed: changing it changes the canonical
/// reduction tree (and therefore every fitted parameter in the last ulp).
pub const SUFF_BLOCK: usize = 256;

/// Contiguous, block-aligned partition of the worker and task axes.
///
/// Both axes are cut into `num_shards` ranges whose starts are multiples of
/// [`SUFF_BLOCK`]; trailing shards may be empty when there are fewer blocks
/// than shards. Alignment is what makes per-shard block partials concatenate
/// into the exact global block list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    worker_ranges: Vec<Range<usize>>,
    task_ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Plans `num_shards` block-aligned shards over `num_workers` workers
    /// and `num_tasks` tasks. `num_shards == 0` is treated as `1`.
    pub fn new(num_workers: usize, num_tasks: usize, num_shards: usize) -> Self {
        let shards = num_shards.max(1);
        ShardPlan {
            worker_ranges: aligned_partition(num_workers, shards),
            task_ranges: aligned_partition(num_tasks, shards),
        }
    }

    /// Number of shards (some may cover empty ranges).
    pub fn num_shards(&self) -> usize {
        self.worker_ranges.len()
    }

    /// Worker range owned by `shard`.
    pub fn worker_range(&self, shard: usize) -> Range<usize> {
        self.worker_ranges[shard].clone()
    }

    /// Task range owned by `shard`.
    pub fn task_range(&self, shard: usize) -> Range<usize> {
        self.task_ranges[shard].clone()
    }
}

/// Splits `0..n` into `shards` contiguous ranges starting at multiples of
/// [`SUFF_BLOCK`], distributing whole blocks as evenly as possible.
fn aligned_partition(n: usize, shards: usize) -> Vec<Range<usize>> {
    let blocks = n.div_ceil(SUFF_BLOCK);
    let per_shard = blocks.div_ceil(shards.max(1)).max(1);
    (0..shards)
        .map(|s| {
            let start = (s * per_shard * SUFF_BLOCK).min(n);
            let end = ((s + 1) * per_shard * SUFF_BLOCK).min(n);
            start..end
        })
        .collect()
}

/// The block decomposition of a block-aligned range.
pub fn blocks(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    debug_assert!(
        range.is_empty() || range.start.is_multiple_of(SUFF_BLOCK),
        "shard ranges must start on a block boundary (got {range:?})"
    );
    let end = range.end;
    range
        .step_by(SUFF_BLOCK)
        .map(move |b| b..(b + SUFF_BLOCK).min(end))
}

// ---------------------------------------------------------------------------
// First moments (Eqs. 16 / 18: the prior means)
// ---------------------------------------------------------------------------

/// One block's first-moment partial: `Σ λ` over the block, plus its count.
#[derive(Debug, Clone)]
pub struct MomentBlock {
    sum: Vector,
    count: usize,
}

fn moment_blocks(means: &Slab, range: Range<usize>) -> Vec<MomentBlock> {
    blocks(range)
        .map(|b| {
            let mut sum = Vector::zeros(means.width());
            let count = b.len();
            for i in b {
                for (acc, &x) in sum.as_mut_slice().iter_mut().zip(&means[i]) {
                    *acc += x;
                }
            }
            MomentBlock { sum, count }
        })
        .collect()
}

/// Folds block partials in order into a mean; `None` for an empty set.
// crowd-lint: root(det)
fn fold_mean(parts: &[MomentBlock]) -> Result<Option<Vector>> {
    let Some(first) = parts.first() else {
        return Ok(None);
    };
    let mut sum = Vector::zeros(first.sum.len());
    let mut count = 0usize;
    for p in parts {
        sum.add_assign(&p.sum)?;
        count += p.count;
    }
    sum.scale(1.0 / count as f64);
    Ok(Some(sum))
}

/// First-moment partials of one shard (or of the whole set when gathered
/// over the full ranges): the inputs to the prior-mean updates.
#[derive(Debug, Clone, Default)]
pub struct FirstMoments {
    worker: Vec<MomentBlock>,
    task: Vec<MomentBlock>,
}

impl FirstMoments {
    /// Gathers the block partials of the given (block-aligned) ranges.
    pub fn gather(state: &VariationalState, workers: Range<usize>, tasks: Range<usize>) -> Self {
        FirstMoments {
            worker: moment_blocks(&state.lambda_w, workers),
            task: moment_blocks(&state.lambda_c, tasks),
        }
    }

    /// Concatenates per-shard partials in shard-index order.
    // crowd-lint: root(det)
    pub fn merge(parts: impl IntoIterator<Item = FirstMoments>) -> Self {
        let mut out = FirstMoments::default();
        for p in parts {
            out.worker.extend(p.worker);
            out.task.extend(p.task);
        }
        out
    }

    /// `μ_w` (Eq. 16); `None` when there are no workers.
    pub fn worker_mean(&self) -> Result<Option<Vector>> {
        fold_mean(&self.worker)
    }

    /// `μ_c` (Eq. 18); `None` when there are no tasks.
    pub fn task_mean(&self) -> Result<Option<Vector>> {
        fold_mean(&self.task)
    }
}

// ---------------------------------------------------------------------------
// Second moments (Eqs. 17 / 19 / 20 / 21)
// ---------------------------------------------------------------------------

/// One block's scatter partial about a fixed mean:
/// `Σ (λ − μ)(λ − μ)ᵀ` and `Σ ν²` over the block.
#[derive(Debug, Clone)]
pub struct ScatterBlock {
    scatter: Matrix,
    sum_nu2: Vector,
    count: usize,
}

fn scatter_blocks(
    means: &Slab,
    vars: &Slab,
    mu: &Vector,
    range: Range<usize>,
) -> Result<Vec<ScatterBlock>> {
    let k = mu.len();
    let mut d = vec![0.0; k];
    blocks(range)
        .map(|b| {
            let mut scatter = Matrix::zeros(k, k);
            let mut sum_nu2 = Vector::zeros(k);
            let count = b.len();
            for i in b {
                for ((dk, &m), &mu_k) in d.iter_mut().zip(&means[i]).zip(mu.as_slice()) {
                    *dk = m - mu_k;
                }
                scatter.add_outer(1.0, &d)?;
                for (acc, &v) in sum_nu2.as_mut_slice().iter_mut().zip(&vars[i]) {
                    *acc += v;
                }
            }
            Ok(ScatterBlock {
                scatter,
                sum_nu2,
                count,
            })
        })
        .collect()
}

/// One block's τ² partial: `Σ E[(s − wᵀc)²]` over the block's scored pairs.
#[derive(Debug, Clone, Copy)]
pub struct TauBlock {
    sq_sum: f64,
    count: usize,
}

/// One block's β partial: the smoothing-free word-responsibility pull
/// `Σ_j Σ_p cnt_p φ_{j,p,k} 1[v_p = v]` over the block's tasks.
#[derive(Debug, Clone)]
pub struct BetaBlock {
    beta: Matrix,
}

/// Second-moment partials of one shard: scatter for both priors, the τ²
/// residual sums, and the β word pulls.
#[derive(Debug, Clone, Default)]
pub struct SecondMoments {
    worker: Vec<ScatterBlock>,
    task: Vec<ScatterBlock>,
    tau: Vec<TauBlock>,
    beta: Vec<BetaBlock>,
}

impl SecondMoments {
    /// Gathers the block partials of the given (block-aligned) ranges,
    /// about the already-reduced means `μ_w` / `μ_c`.
    pub fn gather(
        state: &VariationalState,
        tasks_all: &[TaskData],
        mu_w: &Vector,
        mu_c: &Vector,
        vocab_size: usize,
        workers: Range<usize>,
        tasks: Range<usize>,
    ) -> Result<Self> {
        let k = mu_w.len();
        let worker = scatter_blocks(&state.lambda_w, &state.nu2_w, mu_w, workers)?;
        let task = scatter_blocks(&state.lambda_c, &state.nu2_c, mu_c, tasks.clone())?;
        let mut tau = Vec::new();
        let mut beta = Vec::new();
        for b in blocks(tasks) {
            let mut sq_sum = 0.0;
            let mut count = 0usize;
            let mut pull = (vocab_size > 0).then(|| Matrix::zeros(k, vocab_size));
            for j in b {
                let td = &tasks_all[j];
                for &(i, s) in &td.scores {
                    sq_sum += expected_sq_residual(
                        s,
                        &state.lambda_w[i],
                        &state.nu2_w[i],
                        &state.lambda_c[j],
                        &state.nu2_c[j],
                    );
                    count += 1;
                }
                if let Some(m) = pull.as_mut() {
                    let phi = state.phi.row(j);
                    for (slot, &(v, cnt)) in td.words.iter().enumerate() {
                        for kk in 0..k {
                            m[(kk, v)] += cnt as f64 * phi[slot * k + kk];
                        }
                    }
                }
            }
            tau.push(TauBlock { sq_sum, count });
            if let Some(m) = pull {
                beta.push(BetaBlock { beta: m });
            }
        }
        Ok(SecondMoments {
            worker,
            task,
            tau,
            beta,
        })
    }

    /// Concatenates per-shard partials in shard-index order.
    // crowd-lint: root(det)
    pub fn merge(parts: impl IntoIterator<Item = SecondMoments>) -> Self {
        let mut out = SecondMoments::default();
        for p in parts {
            out.worker.extend(p.worker);
            out.task.extend(p.task);
            out.tau.extend(p.tau);
            out.beta.extend(p.beta);
        }
        out
    }

    /// The fitted worker covariance `Σ_w` (Eq. 17) before flooring;
    /// `None` when there are no workers.
    pub fn worker_covariance(&self, ridge: f64, diagonal: bool) -> Result<Option<Matrix>> {
        fold_covariance(&self.worker, ridge, diagonal)
    }

    /// The fitted task covariance `Σ_c` (Eq. 19) before flooring;
    /// `None` when there are no tasks.
    pub fn task_covariance(&self, ridge: f64, diagonal: bool) -> Result<Option<Matrix>> {
        fold_covariance(&self.task, ridge, diagonal)
    }

    /// `(Σ residuals, pair count)` for the τ² update (Eq. 20), folded in
    /// block order.
    pub fn tau_residuals(&self) -> (f64, usize) {
        let mut sq_sum = 0.0;
        let mut count = 0usize;
        for t in &self.tau {
            sq_sum += t.sq_sum;
            count += t.count;
        }
        (sq_sum, count)
    }

    /// The row-normalized language model β (Eq. 21); `None` when the corpus
    /// is empty (no vocabulary or no tasks).
    pub fn beta(&self, smoothing: f64) -> Result<Option<Matrix>> {
        let Some(first) = self.beta.first() else {
            return Ok(None);
        };
        let (k, v) = (first.beta.rows(), first.beta.cols());
        let mut beta = Matrix::from_fn(k, v, |_, _| smoothing);
        for b in &self.beta {
            beta.add_assign(&b.beta)?;
        }
        for kk in 0..k {
            crowd_math::special::normalize_in_place(beta.row_mut(kk));
        }
        Ok(Some(beta))
    }
}

/// Folds scatter blocks in order into the moment covariance
/// `1/n Σ (diag(ν²) + (λ − μ)(λ − μ)ᵀ) + ridge·I`, optionally diagonalized —
/// the block-reduction form of the former `moment_covariance`.
// crowd-lint: root(det)
fn fold_covariance(parts: &[ScatterBlock], ridge: f64, diagonal: bool) -> Result<Option<Matrix>> {
    let Some(first) = parts.first() else {
        return Ok(None);
    };
    let k = first.sum_nu2.len();
    let mut cov = Matrix::zeros(k, k);
    let mut mean_var = Vector::zeros(k);
    let mut count = 0usize;
    for p in parts {
        cov.add_assign(&p.scatter)?;
        mean_var.add_assign(&p.sum_nu2)?;
        count += p.count;
    }
    let n = count as f64;
    cov.scale(1.0 / n);
    cov.symmetrize();
    mean_var.scale(1.0 / n);
    cov.add_diag(mean_var.as_slice())?;
    cov.add_ridge(ridge);
    if diagonal {
        let d = cov.diag();
        cov = Matrix::from_diag(&d);
    }
    Ok(Some(cov))
}

// ---------------------------------------------------------------------------
// ELBO partials (Section 5.2)
// ---------------------------------------------------------------------------

/// One worker block's bound contribution: `−Σ KL(q(w_i) ‖ p(w_i))`.
#[derive(Debug, Clone, Copy)]
pub struct ElboWorkerBlock {
    worker_prior: f64,
}

/// One task block's bound contributions (prior KL, words, feedback).
#[derive(Debug, Clone, Copy)]
pub struct ElboTaskBlock {
    task_prior: f64,
    words: f64,
    feedback: f64,
}

/// Block partials of the evidence lower bound.
#[derive(Debug, Clone, Default)]
pub struct ElboPartials {
    worker: Vec<ElboWorkerBlock>,
    task: Vec<ElboTaskBlock>,
}

impl ElboPartials {
    /// Gathers the bound's block partials over the given ranges.
    pub fn gather(
        state: &VariationalState,
        tasks_all: &[TaskData],
        ctx: &EStepContext,
        workers: Range<usize>,
        tasks: Range<usize>,
    ) -> Self {
        let k = state.num_categories();
        let ln_2pi_tau2 = (2.0 * std::f64::consts::PI * ctx.tau2).ln();

        let worker = blocks(workers)
            .map(|b| {
                let mut worker_prior = 0.0;
                for i in b {
                    worker_prior -= gaussian_kl(
                        &state.lambda_w[i],
                        &state.nu2_w[i],
                        ctx.mu_w.as_slice(),
                        &ctx.sigma_w_inv,
                        ctx.log_det_sigma_w,
                    );
                }
                ElboWorkerBlock { worker_prior }
            })
            .collect();

        let task = blocks(tasks)
            .map(|b| {
                let mut task_prior = 0.0;
                let mut words = 0.0;
                let mut feedback = 0.0;
                for j in b {
                    let td = &tasks_all[j];
                    task_prior -= gaussian_kl(
                        &state.lambda_c[j],
                        &state.nu2_c[j],
                        ctx.mu_c.as_slice(),
                        &ctx.sigma_c_inv,
                        ctx.log_det_sigma_c,
                    );
                    words += expected_word_ll(
                        &td.words,
                        td.num_tokens,
                        &state.lambda_c[j],
                        &state.nu2_c[j],
                        state.phi.row(j),
                        state.epsilon[j],
                        &ctx.log_beta,
                        k,
                    );
                    for &(i, s) in &td.scores {
                        let resid = expected_sq_residual(
                            s,
                            &state.lambda_w[i],
                            &state.nu2_w[i],
                            &state.lambda_c[j],
                            &state.nu2_c[j],
                        );
                        feedback += -0.5 * ln_2pi_tau2 - resid / (2.0 * ctx.tau2);
                    }
                }
                ElboTaskBlock {
                    task_prior,
                    words,
                    feedback,
                }
            })
            .collect();

        ElboPartials { worker, task }
    }

    /// Concatenates per-shard partials in shard-index order.
    // crowd-lint: root(det)
    pub fn merge(parts: impl IntoIterator<Item = ElboPartials>) -> Self {
        let mut out = ElboPartials::default();
        for p in parts {
            out.worker.extend(p.worker);
            out.task.extend(p.task);
        }
        out
    }

    /// Folds the block partials in order into the bound.
    // crowd-lint: root(det)
    pub fn fold(&self) -> ElboBreakdown {
        let mut worker_prior = 0.0;
        for b in &self.worker {
            worker_prior += b.worker_prior;
        }
        let mut task_prior = 0.0;
        let mut words = 0.0;
        let mut feedback = 0.0;
        for b in &self.task {
            task_prior += b.task_prior;
            words += b.words;
            feedback += b.feedback;
        }
        ElboBreakdown {
            worker_prior,
            task_prior,
            words,
            feedback,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_block_aligned_and_covers() {
        for &(n, s) in &[
            (0usize, 4usize),
            (1, 1),
            (255, 2),
            (256, 2),
            (1000, 4),
            (5000, 8),
        ] {
            let plan = ShardPlan::new(n, n, s);
            assert_eq!(plan.num_shards(), s.max(1));
            let mut covered = 0usize;
            for i in 0..plan.num_shards() {
                let r = plan.worker_range(i);
                assert_eq!(r.start, covered, "ranges must be contiguous");
                assert!(
                    r.is_empty() || r.start.is_multiple_of(SUFF_BLOCK),
                    "range {r:?} not block-aligned (n={n}, s={s})"
                );
                covered = r.end;
            }
            assert_eq!(covered, n, "partition must cover 0..{n}");
        }
    }

    #[test]
    fn blocks_tile_a_range() {
        let tiles: Vec<_> = blocks(512..1000).collect();
        assert_eq!(tiles, vec![512..768, 768..1000]);
        assert_eq!(blocks(0..0).count(), 0);
    }

    #[test]
    fn sharded_moment_blocks_concatenate_to_global() {
        let means = Slab::from_vec(
            2,
            (0..600)
                .flat_map(|i| [i as f64 * 0.25, 1.0 / (1.0 + i as f64)])
                .collect(),
        );
        let state = |_: ()| ();
        let _ = state;
        let global = moment_blocks(&means, 0..means.len());
        for shards in [1usize, 2, 3, 4] {
            let plan = ShardPlan::new(means.len(), 0, shards);
            let mut merged: Vec<MomentBlock> = Vec::new();
            for s in 0..plan.num_shards() {
                merged.extend(moment_blocks(&means, plan.worker_range(s)));
            }
            assert_eq!(merged.len(), global.len(), "shards={shards}");
            for (a, b) in merged.iter().zip(&global) {
                assert_eq!(a.sum.as_slice(), b.sum.as_slice());
                assert_eq!(a.count, b.count);
            }
        }
    }

    #[test]
    fn fold_mean_matches_two_block_hand_sum() {
        let means = Slab::from_vec(1, (0..SUFF_BLOCK + 3).map(|i| 0.1 * i as f64).collect());
        let parts = moment_blocks(&means, 0..means.len());
        assert_eq!(parts.len(), 2);
        let mean = fold_mean(&parts).unwrap().unwrap();
        let b0: f64 = (0..SUFF_BLOCK).fold(0.0, |acc, i| acc + 0.1 * i as f64);
        let b1: f64 = (SUFF_BLOCK..SUFF_BLOCK + 3).fold(0.0, |acc, i| acc + 0.1 * i as f64);
        let want = (b0 + b1) / means.len() as f64;
        assert_eq!(mean[0], want, "block-then-fold order must be exact");
    }
}
