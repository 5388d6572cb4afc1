//! Variational parameters `ϕ' = {λ_w, ν_w², λ_c, ν_c², φ, ε}` (Section 5.1).

use crate::dataset::TrainingSet;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::{Index, IndexMut, Range};

/// A row-major `rows × K` block of posterior parameters: one K-wide row per
/// worker or task, every row in one allocation.
///
/// Indexing by row gives the row as a slice (`slab[i][k]`). The rows of a
/// contiguous range are one contiguous segment, which is what lets a pool
/// job take a chunk of them with a single move or copy.
#[derive(Debug, Clone, PartialEq)]
pub struct Slab {
    data: Vec<f64>,
    width: usize,
}

impl Slab {
    /// `rows` rows of `width` copies of `value`.
    pub fn filled(rows: usize, width: usize, value: f64) -> Self {
        Slab {
            data: vec![value; rows * width],
            width,
        }
    }

    /// Wraps `data`, rows of `width` entries laid out back to back.
    pub fn from_vec(width: usize, data: Vec<f64>) -> Self {
        debug_assert!(
            data.is_empty() || (width > 0 && data.len().is_multiple_of(width)),
            "{} entries do not make rows of {width}",
            data.len()
        );
        Slab { data, width }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.width).unwrap_or(0)
    }

    /// `true` when the slab has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entries per row (`K`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Every entry, row after row.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// The rows, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.width.max(1))
    }

    /// The entries, row after row, as a plain buffer.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Appends one row of `width` copies of `value`.
    pub(crate) fn push_filled(&mut self, value: f64) {
        self.data.resize(self.data.len() + self.width, value);
    }

    /// Rows `rows` as an owned slab for a pool job: the buffer itself,
    /// moved out, when the range is every row (so a one-chunk phase copies
    /// nothing), else a copy of the range.
    pub(crate) fn take_rows(&mut self, rows: Range<usize>) -> Slab {
        let whole = rows.len() == self.len();
        let span = rows.start * self.width..rows.end * self.width;
        Slab {
            data: take_span(&mut self.data, span, whole),
            width: self.width,
        }
    }

    /// Writes a chunk from [`Slab::take_rows`] back, starting at row `start`.
    pub(crate) fn put_rows(&mut self, start: usize, chunk: Slab) {
        put_span(&mut self.data, start * self.width, chunk.data);
    }
}

impl Index<usize> for Slab {
    type Output = [f64];

    fn index(&self, row: usize) -> &[f64] {
        &self.data[row * self.width..(row + 1) * self.width]
    }
}

impl IndexMut<usize> for Slab {
    fn index_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.data[row * self.width..(row + 1) * self.width]
    }
}

/// `buf[span]` as an owned buffer: `buf` itself, moved out, when `whole`
/// (`span` is all of it), else a copy.
fn take_span(buf: &mut Vec<f64>, span: Range<usize>, whole: bool) -> Vec<f64> {
    if whole {
        debug_assert_eq!(span, 0..buf.len(), "a whole take spans the buffer");
        std::mem::take(buf)
    } else {
        buf[span].to_vec()
    }
}

/// Writes a buffer from [`take_span`] back at `start`: a moved-out buffer
/// moves back in, a copy is copied into place. `buf` is empty only when
/// `take_span` moved it out or it never held anything.
fn put_span(buf: &mut Vec<f64>, start: usize, chunk: Vec<f64>) {
    if buf.is_empty() {
        *buf = chunk;
    } else {
        buf[start..start + chunk.len()].copy_from_slice(&chunk);
    }
}

/// Word responsibilities `φ` for every task, stored in one contiguous
/// row-major buffer.
///
/// Conceptually this is a jagged `N × (distinct terms × K)` matrix — one row
/// per task, each row the flattened `(term_slot, k)` responsibilities of that
/// task. Storing the rows back-to-back in a single allocation (with an
/// offsets table, CSR-style) keeps the per-iteration E-step sweep walking a
/// single cache-friendly buffer instead of chasing `Vec<Vec<f64>>` pointers,
/// and makes a chunk of consecutive tasks' rows one contiguous segment: the
/// task E-step hands a chunk to its pool job with one move (a one-chunk
/// phase) or one copy out and back.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiMatrix {
    data: Vec<f64>,
    /// `offsets[j]..offsets[j + 1]` is task `j`'s row; `len = rows + 1`.
    offsets: Vec<usize>,
}

impl PhiMatrix {
    /// Builds a matrix with the given row lengths, every entry `value`.
    pub fn filled(row_lens: impl IntoIterator<Item = usize>, value: f64) -> Self {
        let mut offsets = vec![0usize];
        let mut total = 0usize;
        for len in row_lens {
            total += len;
            offsets.push(total);
        }
        PhiMatrix {
            data: vec![value; total],
            offsets,
        }
    }

    /// Number of rows (tasks).
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Task `j`'s flattened `(distinct terms) × K` responsibilities.
    pub fn row(&self, j: usize) -> &[f64] {
        &self.data[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Mutable access to task `j`'s row.
    pub fn row_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[self.offsets[j]..self.offsets[j + 1]]
    }

    /// Every stored value, across all rows.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// Rows `rows` back to back, for a pool job (see [`Slab::take_rows`]).
    pub(crate) fn take_rows(&mut self, rows: Range<usize>) -> Vec<f64> {
        let whole = rows.len() == self.num_rows();
        let span = self.offsets[rows.start]..self.offsets[rows.end];
        take_span(&mut self.data, span, whole)
    }

    /// Writes rows from [`PhiMatrix::take_rows`] back, starting at row `start`.
    pub(crate) fn put_rows(&mut self, start: usize, chunk: Vec<f64>) {
        put_span(&mut self.data, self.offsets[start], chunk);
    }
}

/// One chunk of task posteriors (`λ_c`, `ν_c²`, `φ`, `ε` of a task range),
/// owned by the pool job that updates them.
#[derive(Debug)]
pub(crate) struct TaskRows {
    pub(crate) lambda: Slab,
    pub(crate) nu2: Slab,
    /// The chunk's `φ` rows, back to back.
    pub(crate) phi: Vec<f64>,
    pub(crate) epsilon: Vec<f64>,
}

/// One chunk of worker posteriors (`λ_w`, `ν_w²` of a worker range), owned
/// by the pool job that updates them.
#[derive(Debug)]
pub(crate) struct WorkerRows {
    pub(crate) lambda: Slab,
    pub(crate) nu2: Slab,
}

/// Mean-field variational state over workers, tasks and word assignments.
///
/// - `q(w^i) = Normal(λ_w^i, diag(ν_w^i²))`
/// - `q(c^j) = Normal(λ_c^j, diag(ν_c^j²))`
/// - `q(z_p^j) = Discrete(φ_p^j)` — stored per *distinct term* of each task
///   (identical occurrences share identical responsibilities), flattened as
///   `phi.row(j)[term_slot * K + k]`
/// - `ε_j` — the Taylor-expansion parameter for the softmax log-normalizer
#[derive(Debug, Clone)]
pub struct VariationalState {
    /// Worker skill means, `M × K`.
    pub lambda_w: Slab,
    /// Worker skill variances (diagonal), `M × K`.
    pub nu2_w: Slab,
    /// Task category means, `N × K`.
    pub lambda_c: Slab,
    /// Task category variances (diagonal), `N × K`.
    pub nu2_c: Slab,
    /// Word responsibilities, one contiguous row per task.
    pub phi: PhiMatrix,
    /// Taylor parameters, one per task.
    pub epsilon: Vec<f64>,
}

impl VariationalState {
    /// Initializes the state for a training set with `k` latent categories.
    ///
    /// Means get small seeded Gaussian noise to break the symmetry between
    /// latent categories (with exactly uniform starts every category would
    /// receive identical updates and the model could never specialize).
    pub fn init(ts: &TrainingSet, k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut noise = |rows: usize, scale: f64| -> Slab {
            let data = (0..rows * k)
                .map(|_| {
                    // Box–Muller-free: sum of uniforms is plenty for tie-breaking.
                    let u: f64 = rng.random_range(-1.0..1.0);
                    u * scale
                })
                .collect();
            Slab::from_vec(k, data)
        };

        // Worker means start at prior scale (w ~ Normal(0, I)); near-zero
        // starts sit in a collapsed fixed point where τ² absorbs all score
        // variance and skills never separate.
        let lambda_w = noise(ts.num_workers(), 1.0);
        let nu2_w = Slab::filled(ts.num_workers(), k, 1.0);
        let lambda_c = noise(ts.num_tasks(), 0.1);
        let nu2_c = Slab::filled(ts.num_tasks(), k, 1.0);

        let phi = PhiMatrix::filled(ts.tasks().iter().map(|t| t.words.len() * k), 1.0 / k as f64);
        let epsilon = vec![k as f64; ts.num_tasks()]; // Σ exp(0 + 1/2) ≈ k·e^½; any positive start works

        VariationalState {
            lambda_w,
            nu2_w,
            lambda_c,
            nu2_c,
            phi,
            epsilon,
        }
    }

    /// Number of latent categories.
    pub fn num_categories(&self) -> usize {
        self.lambda_w.width()
    }

    /// `true` when every stored quantity is finite and variances positive.
    pub fn is_sane(&self) -> bool {
        let finite = |s: &Slab| s.values().iter().all(|x| x.is_finite());
        let positive = |s: &Slab| s.values().iter().all(|&x| x > 0.0 && x.is_finite());
        finite(&self.lambda_w)
            && finite(&self.lambda_c)
            && positive(&self.nu2_w)
            && positive(&self.nu2_c)
            && self.epsilon.iter().all(|&e| e > 0.0 && e.is_finite())
            && self.phi.values().iter().all(|&x| x.is_finite() && x >= 0.0)
    }

    /// Task rows `tasks` for a pool job (see [`Slab::take_rows`]).
    pub(crate) fn take_tasks(&mut self, tasks: Range<usize>) -> TaskRows {
        let whole = tasks.len() == self.epsilon.len();
        TaskRows {
            lambda: self.lambda_c.take_rows(tasks.clone()),
            nu2: self.nu2_c.take_rows(tasks.clone()),
            phi: self.phi.take_rows(tasks.clone()),
            epsilon: take_span(&mut self.epsilon, tasks, whole),
        }
    }

    /// Writes task rows from [`VariationalState::take_tasks`] back.
    pub(crate) fn put_tasks(&mut self, start: usize, rows: TaskRows) {
        self.lambda_c.put_rows(start, rows.lambda);
        self.nu2_c.put_rows(start, rows.nu2);
        self.phi.put_rows(start, rows.phi);
        put_span(&mut self.epsilon, start, rows.epsilon);
    }

    /// Worker rows `workers` for a pool job (see [`Slab::take_rows`]).
    pub(crate) fn take_workers(&mut self, workers: Range<usize>) -> WorkerRows {
        WorkerRows {
            lambda: self.lambda_w.take_rows(workers.clone()),
            nu2: self.nu2_w.take_rows(workers),
        }
    }

    /// Writes worker rows from [`VariationalState::take_workers`] back.
    pub(crate) fn put_workers(&mut self, start: usize, rows: WorkerRows) {
        self.lambda_w.put_rows(start, rows.lambda);
        self.nu2_w.put_rows(start, rows.nu2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TaskData;
    use crowd_store::TaskId;

    fn tiny_ts() -> TrainingSet {
        let tasks = vec![
            TaskData {
                task: TaskId(0),
                words: vec![(0, 2), (1, 1)],
                num_tokens: 3.0,
                scores: vec![(0, 4.0), (1, 1.0)],
            },
            TaskData {
                task: TaskId(1),
                words: vec![(2, 1)],
                num_tokens: 1.0,
                scores: vec![(0, 2.0)],
            },
        ];
        TrainingSet::from_parts(tasks, 2, 3)
    }

    #[test]
    fn shapes_match_training_set() {
        let ts = tiny_ts();
        let s = VariationalState::init(&ts, 4, 7);
        assert_eq!(s.lambda_w.len(), 2);
        assert_eq!(s.lambda_c.len(), 2);
        assert_eq!(s.num_categories(), 4);
        assert_eq!(s.phi.num_rows(), 2);
        assert_eq!(s.phi.row(0).len(), 2 * 4);
        assert_eq!(s.phi.row(1).len(), 4);
        assert_eq!(s.epsilon.len(), 2);
    }

    #[test]
    fn init_is_sane_and_deterministic() {
        let ts = tiny_ts();
        let a = VariationalState::init(&ts, 3, 9);
        let b = VariationalState::init(&ts, 3, 9);
        assert!(a.is_sane());
        assert_eq!(a.lambda_w[0], b.lambda_w[0]);
        // Different seeds give different noise.
        let c = VariationalState::init(&ts, 3, 10);
        assert_ne!(a.lambda_w[0], c.lambda_w[0]);
    }

    #[test]
    fn phi_rows_start_uniform() {
        let ts = tiny_ts();
        let s = VariationalState::init(&ts, 4, 0);
        for x in s.phi.row(0) {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sanity_detects_bad_values() {
        let ts = tiny_ts();
        let mut s = VariationalState::init(&ts, 2, 0);
        s.nu2_c[0][1] = -1.0;
        assert!(!s.is_sane());
    }
}
