//! Per-query execution context: deadline, cancellation, work budget.
//!
//! A [`QueryContext`] travels with one statement (or one fused sweep)
//! through the executor. It is checked at every plan-node boundary and —
//! through [`QueryContext::guard`], a [`crowd_math::WorkGuard`] — at every
//! chunk boundary *inside* the dense scoring kernels, so a late, cancelled
//! or over-budget query stops within one checkpoint interval instead of
//! running a 100k-candidate Score to completion. Stopping is cooperative
//! and clean: shared engine state (snapshots, caches, storage) is never
//! left mid-update, because checkpoints only sit between whole chunks of
//! pure scoring work.
//!
//! What happens after an interruption is the query's [`DegradePolicy`]:
//! `Fail` maps it to a typed [`crate::QueryError`]; `Partial` lets a
//! `SELECT` return the ranking prefix that was actually scored, marked
//! degraded (mirroring the platform manager's `degraded_epochs` pattern —
//! serve something honest rather than nothing). Cancellation is always an
//! error: the caller asked for the query to stop, not for its prefix.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cooperative cancellation flag.
///
/// Clone the token, hand one copy to the query (via
/// [`QueryContext::with_cancellation`]) and keep the other; calling
/// [`CancelToken::cancel`] from any thread stops the query at its next
/// checkpoint.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; visible to every clone of the token.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// What a query wants when its deadline or budget fires mid-flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Surface a typed error ([`crate::QueryError::DeadlineExceeded`] /
    /// [`crate::QueryError::BudgetExhausted`]). The default.
    #[default]
    Fail,
    /// Let `SELECT` return the honestly-scored prefix, marked degraded in
    /// the result table. Non-select statements and cancellation still
    /// error: there is no meaningful partial mutation or partial cancel.
    Partial,
}

impl fmt::Display for DegradePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradePolicy::Fail => "error",
            DegradePolicy::Partial => "partial",
        })
    }
}

/// Why a context stopped a query, in precedence order: an explicit cancel
/// wins over an expired deadline, which wins over an exhausted budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interruption {
    /// The query's [`CancelToken`] fired.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The row/work budget ran out.
    BudgetExhausted,
}

/// The interruptible state of one query, shared between the context and
/// every [`CtxGuard`] handle cloned from it.
///
/// Lives behind an `Arc` so guards are owned `'static` values: the
/// persistent scoring pool's chunk jobs each carry a cloned handle instead
/// of borrowing the context across threads (DESIGN §10a).
#[derive(Debug, Default)]
struct CtxState {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    /// Remaining work units (candidate rows × queries scored). `None` =
    /// unmetered.
    budget: Option<AtomicU64>,
    /// Latched by the guard when a charge overdraws the budget, so
    /// node-boundary checks see the exhaustion without racing on "exactly
    /// zero remaining after finishing all work".
    budget_hit: AtomicBool,
}

/// Snapshot clone, used only by `Arc::make_mut` in the builders (which run
/// before the context is ever shared, so the snapshot is of an idle state).
impl Clone for CtxState {
    fn clone(&self) -> Self {
        CtxState {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            budget: self
                .budget
                .as_ref()
                .map(|b| AtomicU64::new(b.load(Ordering::SeqCst))),
            budget_hit: AtomicBool::new(self.budget_hit.load(Ordering::SeqCst)),
        }
    }
}

impl CtxState {
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// Charges `units` against the budget; `false` latches `budget_hit`
    /// and refuses. Overdraw empties the budget rather than splitting a
    /// chunk: the guard stops at the boundary anyway.
    fn try_charge(&self, units: u64) -> bool {
        let Some(budget) = &self.budget else {
            return true;
        };
        if budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |r| r.checked_sub(units))
            .is_ok()
        {
            return true;
        }
        budget.store(0, Ordering::SeqCst);
        self.budget_hit.store(true, Ordering::SeqCst);
        false
    }
}

/// Deadline, cancellation token and work budget for one query execution.
///
/// The default ([`QueryContext::unbounded`]) constrains nothing and adds
/// nothing to the hot path beyond two atomic loads per checkpoint; every
/// constraint is opt-in through the builder methods. The context is `Sync`
/// and its interruptible state is `Arc`-shared, so the persistent scoring
/// pool's chunk jobs each poll an owned [`CtxGuard`] handle.
#[derive(Debug, Default)]
pub struct QueryContext {
    state: Arc<CtxState>,
    policy: DegradePolicy,
}

impl QueryContext {
    /// A context with no deadline, no cancellation and no budget.
    pub fn unbounded() -> Self {
        QueryContext::default()
    }

    /// Stops the query `timeout` from now.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        self.with_deadline_at(Instant::now() + timeout)
    }

    /// Stops the query at an absolute instant (what a service layer that
    /// parsed a wire deadline would pass).
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        Arc::make_mut(&mut self.state).deadline = Some(at);
        self
    }

    /// Attaches a cancellation token; the caller keeps a clone.
    pub fn with_cancellation(mut self, token: CancelToken) -> Self {
        Arc::make_mut(&mut self.state).cancel = Some(token);
        self
    }

    /// Meters the query to at most `rows` work units: the selection driver
    /// charges rows × queries before every 1024-row checkpoint, for single
    /// queries and batches alike.
    pub fn with_row_budget(mut self, rows: u64) -> Self {
        Arc::make_mut(&mut self.state).budget = Some(AtomicU64::new(rows));
        self
    }

    /// Selects [`DegradePolicy::Partial`]: deadline/budget expiry returns
    /// the scored prefix marked degraded instead of an error.
    pub fn degrade_to_partial(mut self) -> Self {
        self.policy = DegradePolicy::Partial;
        self
    }

    /// The query's degradation policy.
    pub fn policy(&self) -> DegradePolicy {
        self.policy
    }

    /// `true` when the context can never interrupt anything — the executor
    /// uses this to keep fully unconstrained queries on the historical
    /// batched code paths.
    pub fn is_unbounded(&self) -> bool {
        self.state.deadline.is_none() && self.state.cancel.is_none() && self.state.budget.is_none()
    }

    /// The node-boundary checkpoint: has anything already interrupted this
    /// query? Budget exhaustion only counts once a charge actually failed
    /// (a budget spent to exactly zero by completed work is not an
    /// interruption).
    pub fn check(&self) -> Result<(), Interruption> {
        if self.state.cancelled() {
            return Err(Interruption::Cancelled);
        }
        if self.state.deadline_passed() {
            return Err(Interruption::DeadlineExceeded);
        }
        if self.state.budget_hit.load(Ordering::SeqCst) {
            return Err(Interruption::BudgetExhausted);
        }
        Ok(())
    }

    /// Checkpoint + charge in one step — what the per-query baseline loop
    /// calls before scoring each query against the pool.
    pub fn consume(&self, units: u64) -> Result<(), Interruption> {
        self.check()?;
        if self.state.try_charge(units) {
            Ok(())
        } else {
            Err(Interruption::BudgetExhausted)
        }
    }

    /// Classifies why a guarded scan came back incomplete, in precedence
    /// order (cancel > deadline > budget).
    pub fn interruption(&self) -> Interruption {
        match self.check() {
            Err(i) => i,
            // The guard refused a charge without latching anything else:
            // that is budget exhaustion by definition.
            Ok(()) => Interruption::BudgetExhausted,
        }
    }

    /// This context as a [`crowd_math::WorkGuard`] for the chunked scoring
    /// kernels: each chunk is admitted only if the query is still live and
    /// the chunk's units fit the remaining budget.
    ///
    /// The guard is an owned, cloneable `'static` handle onto the context's
    /// shared state, so the persistent scoring pool's chunk jobs can each
    /// carry their own copy while all charging the same budget.
    pub fn guard(&self) -> CtxGuard {
        CtxGuard(Arc::clone(&self.state))
    }
}

/// Owned [`crowd_math::WorkGuard`] handle onto a [`QueryContext`] (see
/// [`QueryContext::guard`]). `Clone + Send + 'static`: every clone polls
/// and charges the same shared state, which is what lets one query's
/// budget/deadline/cancel be observed from every pool worker at once.
#[derive(Debug, Clone)]
pub struct CtxGuard(Arc<CtxState>);

impl crowd_math::WorkGuard for CtxGuard {
    fn consume(&self, units: u64) -> bool {
        let st = &self.0;
        if st.cancelled() || st.deadline_passed() || st.budget_hit.load(Ordering::SeqCst) {
            return false;
        }
        st.try_charge(units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_math::WorkGuard as _;

    #[test]
    fn unbounded_context_never_interrupts() {
        let ctx = QueryContext::unbounded();
        assert!(ctx.is_unbounded());
        assert_eq!(ctx.policy(), DegradePolicy::Fail);
        assert!(ctx.check().is_ok());
        assert!(ctx.guard().consume(u64::MAX));
        assert!(ctx.consume(1_000_000).is_ok());
    }

    #[test]
    fn cancellation_wins_over_everything() {
        let token = CancelToken::new();
        let ctx = QueryContext::unbounded()
            .with_deadline(Duration::ZERO)
            .with_row_budget(0)
            .with_cancellation(token.clone());
        assert!(!ctx.is_unbounded());
        token.cancel();
        assert_eq!(ctx.check(), Err(Interruption::Cancelled));
        assert!(!ctx.guard().consume(1));
        assert_eq!(ctx.interruption(), Interruption::Cancelled);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let ctx = QueryContext::unbounded().with_deadline(Duration::ZERO);
        assert_eq!(ctx.check(), Err(Interruption::DeadlineExceeded));
        assert!(!ctx.guard().consume(1));
    }

    #[test]
    fn live_deadline_does_not_interrupt() {
        let ctx = QueryContext::unbounded().with_deadline(Duration::from_secs(3600));
        assert!(ctx.check().is_ok());
        assert!(ctx.guard().consume(10));
    }

    #[test]
    fn budget_latches_only_on_overdraw() {
        let ctx = QueryContext::unbounded().with_row_budget(100);
        let guard = ctx.guard();
        assert!(guard.consume(60));
        assert!(guard.consume(40), "spending to exactly zero is fine");
        assert!(ctx.check().is_ok(), "no overdraw happened yet");
        assert!(!guard.consume(1), "the next chunk overdraws");
        assert_eq!(ctx.check(), Err(Interruption::BudgetExhausted));
        assert_eq!(ctx.interruption(), Interruption::BudgetExhausted);
    }

    #[test]
    fn consume_charges_and_classifies() {
        let ctx = QueryContext::unbounded().with_row_budget(5);
        assert!(ctx.consume(5).is_ok());
        assert_eq!(ctx.consume(1), Err(Interruption::BudgetExhausted));
    }

    #[test]
    fn policy_builder_selects_partial() {
        let ctx = QueryContext::unbounded().degrade_to_partial();
        assert_eq!(ctx.policy(), DegradePolicy::Partial);
        assert_eq!(DegradePolicy::Partial.to_string(), "partial");
        assert_eq!(DegradePolicy::Fail.to_string(), "error");
    }
}
