//! Cooperative interruption of chunked kernels.
//!
//! The chunk-parallel selection driver in `crowd-core` streams large
//! candidate sets through block/chunk loops. A [`WorkGuard`] is the hook
//! those loops poll at every block boundary: the guard is *charged* with
//! the block's work units before the block runs, and a `false` answer stops
//! the loop cleanly at the boundary — the caller gets back how much
//! completed, and shared state is never left mid-update.
//!
//! The query layer implements [`WorkGuard`] over its per-query context
//! (deadline, cancellation token, row budget); [`Unchecked`] is the no-op
//! guard the unconstrained paths use. Because the guarded loop *is* the
//! only implementation (the unguarded entry points delegate with
//! [`Unchecked`]), a never-firing guard is bit-identical to the historical
//! unguarded paths by construction.

/// A cooperative checkpoint polled by chunked kernels.
///
/// `consume(units)` is called with the size of the *next* block of work
/// before that block runs. Returning `true` admits the block; `false`
/// stops the loop at the current boundary. Implementations must be cheap —
/// guards are polled every [`CHECKPOINT_ROWS`] rows — and `Sync`, because
/// the chunk-parallel driver polls one guard from every scoring thread.
pub trait WorkGuard: Sync {
    /// Charges `units` of upcoming work; `false` means stop before it.
    fn consume(&self, units: u64) -> bool;
}

/// The no-op guard: admits every block. Used by the unconstrained entry
/// points so guarded and unguarded code paths are one implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unchecked;

impl WorkGuard for Unchecked {
    #[inline]
    fn consume(&self, _units: u64) -> bool {
        true
    }
}

impl<G: WorkGuard + ?Sized> WorkGuard for &G {
    #[inline]
    fn consume(&self, units: u64) -> bool {
        (**self).consume(units)
    }
}

/// Pooled scoring chunks are `'static` jobs, so they can't borrow a guard —
/// they carry a cloned `Arc` handle instead, forwarding to the one shared
/// guard state so cancellation is observed pool-wide.
impl<G: WorkGuard + Send + ?Sized> WorkGuard for std::sync::Arc<G> {
    #[inline]
    fn consume(&self, units: u64) -> bool {
        (**self).consume(units)
    }
}

/// Row-chunk size between guard polls in the selection driver, for single
/// queries and batches alike (charged `rows × queries`): large enough that
/// the poll (an atomic load or two, possibly a clock read) vanishes against
/// ~1k dot products, small enough that a deadline overshoots by at most one
/// chunk.
pub const CHECKPOINT_ROWS: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Budget(AtomicU64);
    impl WorkGuard for Budget {
        fn consume(&self, units: u64) -> bool {
            self.0
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(units))
                .is_ok()
        }
    }

    #[test]
    fn unchecked_always_admits() {
        assert!(Unchecked.consume(0));
        assert!(Unchecked.consume(u64::MAX));
        // The blanket ref impl forwards.
        let by_ref: &dyn WorkGuard = &Unchecked;
        assert!(by_ref.consume(7));
    }

    #[test]
    fn a_budget_guard_stops_at_exhaustion() {
        let g = Budget(AtomicU64::new(100));
        assert!(g.consume(60));
        assert!(g.consume(40));
        assert!(!g.consume(1), "empty budget rejects the next block");
    }
}
