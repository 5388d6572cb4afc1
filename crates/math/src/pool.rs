//! Persistent scoring pool for the dense serving path.
//!
//! Chunk-parallel selection used to spawn scoped threads *per query*
//! (`crossbeam::thread::scope`), and its benchmark showed the cost:
//! `dense_t8` was slower than `dense_t1` at every candidate count because
//! each query paid ~8 OS-thread spawns before scoring a single row. This
//! module replaces that with a process-wide, lazily-initialized pool of
//! long-lived worker threads ([`ScoringPool::global`]): submitting a chunk
//! of scoring work is one queue push + condvar wake (~1 µs) instead of a
//! thread spawn (~30 µs), and the threads are reused across every query and
//! every E-step for the life of the process.
//!
//! Design constraints this implementation answers:
//!
//! - **No `unsafe`.** The workspace denies `unsafe_code`, so the pool cannot
//!   erase closure lifetimes the way rayon's scoped API does. Jobs are
//!   `'static`: callers share read-only state via `Arc` (the `SkillMatrix`
//!   stores its mean/variance blocks in `Arc<Vec<f64>>` exactly so chunk
//!   jobs can clone a handle instead of copying 6 MB of posteriors) and move
//!   owned buffers in and out (the trainer's E-step round-trips its
//!   per-chunk state through the job results).
//! - **Caller participation.** The submitting thread does not idle: it
//!   drains its own batch's task queue alongside the workers. On a
//!   single-core host this means a `threads = 8` selection degenerates to
//!   the inline path plus a few queue operations instead of eight
//!   serialized spawn/join cycles — the per-query spawn regression case.
//! - **No worker-side blocking.** Jobs never wait on other jobs, so a full
//!   queue cannot deadlock: every submitted batch is drained by the caller
//!   even if all workers are busy elsewhere. A job that *is* submitted from
//!   a pool worker (nesting) runs inline on that worker immediately.
//! - **Panic containment.** A panicking job is caught on the worker, carried
//!   back as a result, and re-raised on the submitting thread — workers
//!   survive, and the panic surfaces exactly where the scoped-thread `join`
//!   used to re-raise it.
//! - **Cancellation composes.** The pool knows nothing about guards; chunk
//!   jobs poll their [`crate::WorkGuard`] exactly as the inline path does
//!   (every [`crate::guard::CHECKPOINT_ROWS`] rows / kernel block), so one
//!   fired guard stops every chunk of the batch at its next boundary,
//!   pool-wide.
//!
//! Lifecycle accounting ([`ScoringPool::stats`]) is part of the contract:
//! the thread-scaling oracle and chaos suites assert that worker count
//! stays constant under stress (no leaked threads) and that small-candidate
//! queries never enqueue pool work (the spawn-policy regression test).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// How long an idle worker sleeps per wait round. Purely defensive: wakes
/// re-check the queue, so a missed notify only costs one tick of latency.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// One unit of batch work: runs on a worker or on the submitting thread.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A submitted batch: a queue of indexed tasks plus completion tracking.
///
/// The global queue holds one `Arc<Batch>` entry per task so every idle
/// worker can pull into the same batch; workers and the submitting caller
/// all pop from `tasks` until it runs dry.
struct Batch {
    tasks: Mutex<VecDeque<Task>>,
    /// Tasks fully executed (including panicked ones).
    completed: Mutex<usize>,
    done: Condvar,
    total: usize,
}

impl Batch {
    /// Pops and runs one task. Returns `false` when the batch had none left.
    fn run_one(&self) -> bool {
        let task = {
            let mut q = match self.tasks.lock() {
                Ok(q) => q,
                Err(p) => p.into_inner(),
            };
            q.pop_front()
        };
        let Some(task) = task else { return false };
        task();
        let mut done = match self.completed.lock() {
            Ok(d) => d,
            Err(p) => p.into_inner(),
        };
        *done += 1;
        if *done == self.total {
            self.done.notify_all();
        }
        true
    }

    /// Blocks until every task of the batch has completed.
    fn wait_done(&self) {
        let mut done = match self.completed.lock() {
            Ok(d) => d,
            Err(p) => p.into_inner(),
        };
        while *done < self.total {
            done = match self.done.wait_timeout(done, IDLE_WAIT) {
                Ok((d, _)) => d,
                Err(p) => p.into_inner().0,
            };
        }
    }
}

/// Point-in-time pool accounting for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Long-lived worker threads the pool spawned at initialization.
    pub workers: usize,
    /// Workers spawned and not yet exited (must equal `workers`; anything
    /// less means a worker died or failed to spawn, which the panic
    /// containment makes impossible short of an abort or init-time
    /// resource exhaustion). Counted at spawn time, so it never
    /// under-reads while freshly spawned workers wait to be scheduled.
    pub live_workers: usize,
    /// Tasks ever enqueued through [`ScoringPool::run`]'s pooled path. The
    /// spawn-policy regression test pins that sub-threshold selections
    /// leave this untouched.
    pub tasks_enqueued: u64,
    /// Tasks executed by pool workers (the rest were drained by submitting
    /// callers or ran inline).
    pub tasks_run_by_workers: u64,
}

/// A persistent pool of scoring worker threads.
///
/// Most callers want [`ScoringPool::global`]; dedicated pools exist for
/// tests that need isolated accounting.
pub struct ScoringPool {
    queue: Mutex<VecDeque<Arc<Batch>>>,
    available: Condvar,
    workers: usize,
    live_workers: Arc<AtomicUsize>,
    tasks_enqueued: AtomicU64,
    tasks_run_by_workers: Arc<AtomicU64>,
}

impl std::fmt::Debug for ScoringPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringPool")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

std::thread_local! {
    /// Set for the lifetime of every pool worker thread: submissions from a
    /// worker run inline instead of re-entering the queue (no deadlock, no
    /// unbounded nesting).
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ScoringPool {
    /// Builds a pool with `workers` long-lived threads (at least one).
    ///
    /// The process-wide instance ([`ScoringPool::global`]) sizes itself from
    /// `std::thread::available_parallelism`; explicit construction is for
    /// tests that need isolated lifecycle accounting.
    pub fn with_workers(workers: usize) -> Arc<Self> {
        let workers = workers.max(1);
        let pool = Arc::new(ScoringPool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            workers,
            live_workers: Arc::new(AtomicUsize::new(0)),
            tasks_enqueued: AtomicU64::new(0),
            tasks_run_by_workers: Arc::new(AtomicU64::new(0)),
        });
        for i in 0..workers {
            let pool_ref = Arc::downgrade(&pool);
            let live = Arc::clone(&pool.live_workers);
            let by_workers = Arc::clone(&pool.tasks_run_by_workers);
            // Counted from *spawn*, not from worker start-up: observers
            // reading stats right after construction must never see a
            // worker as missing just because the OS hasn't scheduled it
            // yet. The worker decrements on exit.
            live.fetch_add(1, Ordering::SeqCst);
            let spawned = std::thread::Builder::new()
                .name(format!("crowd-score-{i}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    // The worker holds only a weak handle: dropping the last
                    // strong `Arc` (a test pool going away) ends the loop and
                    // the thread instead of leaking it.
                    while let Some(pool) = pool_ref.upgrade() {
                        let Some(batch) = pool.next_batch() else {
                            continue;
                        };
                        if batch.run_one() {
                            by_workers.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            // Spawn failure (resource exhaustion at init) degrades to fewer
            // workers; caller participation keeps every batch completing.
            if spawned.is_err() {
                pool.live_workers.fetch_sub(1, Ordering::SeqCst);
            }
        }
        pool
    }

    /// The process-wide pool, created on first use with one worker per
    /// available core.
    pub fn global() -> &'static Arc<ScoringPool> {
        static GLOBAL: OnceLock<Arc<ScoringPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            ScoringPool::with_workers(cores)
        })
    }

    /// Pops the next batch handle, waiting briefly when the queue is empty.
    /// Returns `None` on a timeout tick so the worker can re-check pool
    /// liveness.
    fn next_batch(&self) -> Option<Arc<Batch>> {
        let mut q = match self.queue.lock() {
            Ok(q) => q,
            Err(p) => p.into_inner(),
        };
        if let Some(b) = q.pop_front() {
            return Some(b);
        }
        let (mut q, _) = match self.available.wait_timeout(q, IDLE_WAIT) {
            Ok(r) => r,
            Err(p) => {
                let (g, t) = p.into_inner();
                (g, t)
            }
        };
        q.pop_front()
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current lifecycle/throughput accounting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            live_workers: self.live_workers.load(Ordering::SeqCst),
            tasks_enqueued: self.tasks_enqueued.load(Ordering::SeqCst),
            tasks_run_by_workers: self.tasks_run_by_workers.load(Ordering::SeqCst),
        }
    }

    /// Runs every closure, in parallel across the pool workers *and* the
    /// calling thread, and returns their results in input order.
    ///
    /// Single-element and empty inputs run inline without touching the
    /// queue, as do submissions from inside a pool worker (nested batches
    /// execute immediately on that worker). The calling thread participates
    /// in draining its own batch, so progress never depends on a worker
    /// being free.
    ///
    /// # Panics
    ///
    /// Re-raises the first (by input order) panic of any task on the
    /// calling thread, after every task of the batch has finished — the
    /// same observable behavior as the scoped spawn/join this replaces.
    // crowd-lint: root(det)
    pub fn run<R, F>(&self, tasks: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let total = tasks.len();
        if total <= 1 || IS_POOL_WORKER.with(std::cell::Cell::get) {
            return tasks.into_iter().map(|t| t()).collect();
        }
        self.tasks_enqueued
            .fetch_add(total as u64, Ordering::SeqCst);

        let results: Arc<Mutex<Vec<Option<std::thread::Result<R>>>>> =
            Arc::new(Mutex::new((0..total).map(|_| None).collect()));
        let batch = Arc::new(Batch {
            tasks: Mutex::new(
                tasks
                    .into_iter()
                    .enumerate()
                    .map(|(i, task)| -> Task {
                        let results = Arc::clone(&results);
                        Box::new(move || {
                            let outcome = catch_unwind(AssertUnwindSafe(task));
                            let mut slots = match results.lock() {
                                Ok(s) => s,
                                Err(p) => p.into_inner(),
                            };
                            slots[i] = Some(outcome);
                        })
                    })
                    .collect(),
            ),
            completed: Mutex::new(0),
            done: Condvar::new(),
            total,
        });

        {
            let mut q = match self.queue.lock() {
                Ok(q) => q,
                Err(p) => p.into_inner(),
            };
            // One queue entry per task lets every idle worker join in.
            for _ in 0..total {
                q.push_back(Arc::clone(&batch));
            }
        }
        self.available.notify_all();

        // Caller participation: drain our own batch until it runs dry, then
        // wait for whatever the workers still have in flight.
        while batch.run_one() {}
        batch.wait_done();

        let slots = match Arc::try_unwrap(results) {
            Ok(m) => match m.into_inner() {
                Ok(s) => s,
                Err(p) => p.into_inner(),
            },
            // Unreachable: every task completed, so no clone survives; keep
            // a total fallback anyway.
            Err(arc) => {
                let mut guard = match arc.lock() {
                    Ok(s) => s,
                    Err(p) => p.into_inner(),
                };
                std::mem::take(&mut *guard)
            }
        };

        let mut out = Vec::with_capacity(total);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in slots {
            match slot {
                Some(Ok(r)) => out.push(r),
                Some(Err(payload)) => {
                    if panic.is_none() {
                        panic = Some(payload);
                    }
                }
                // Unreachable by the completion count; treated as a panic so
                // it cannot silently drop a result.
                None => {
                    if panic.is_none() {
                        panic = Some(Box::new("pool task vanished without a result"));
                    }
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = ScoringPool::with_workers(3);
        let tasks: Vec<_> = (0..17).map(|i| move || i * 10).collect();
        assert_eq!(pool.run(tasks), (0..17).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn single_task_runs_inline_without_enqueueing() {
        let pool = ScoringPool::with_workers(2);
        let before = pool.stats().tasks_enqueued;
        assert_eq!(pool.run(vec![|| 7]), vec![7]);
        assert_eq!(pool.stats().tasks_enqueued, before);
    }

    #[test]
    fn pooled_batches_are_counted() {
        let pool = ScoringPool::with_workers(2);
        let before = pool.stats().tasks_enqueued;
        let tasks: Vec<_> = (0..4).map(|i| move || i).collect();
        pool.run(tasks);
        assert_eq!(pool.stats().tasks_enqueued, before + 4);
    }

    #[test]
    fn workers_survive_a_panicking_task() {
        let pool = ScoringPool::with_workers(2);
        // Spawn-time accounting: both workers count as live immediately.
        assert_eq!(pool.stats().live_workers, 2);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
                Box::new(|| panic!("task boom")),
                Box::new(|| 3),
            ]);
        }));
        assert!(outcome.is_err(), "the batch panic must re-raise");
        // The pool still works and no worker died.
        let tasks: Vec<_> = (0..8).map(|i| move || i + 1).collect();
        assert_eq!(pool.run(tasks).len(), 8);
        assert_eq!(pool.stats().live_workers, pool.stats().workers);
    }

    #[test]
    fn nested_submission_runs_inline() {
        let pool = ScoringPool::global();
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                move || {
                    // A worker submitting to the pool must not deadlock.
                    let inner: Vec<_> = (0..3).map(|j| move || i * 10 + j).collect();
                    ScoringPool::global().run(inner).iter().sum::<i32>()
                }
            })
            .collect();
        let sums = pool.run(tasks);
        assert_eq!(sums.len(), 4);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = ScoringPool::global() as *const _;
        let b = ScoringPool::global() as *const _;
        assert_eq!(a, b);
        assert!(ScoringPool::global().workers() >= 1);
    }
}
