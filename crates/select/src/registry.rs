//! Named selection backends and the fit → snapshot → serve lifecycle.
//!
//! A [`SelectorBackend`] is a *factory*: it knows how to fit its algorithm on
//! a [`CrowdDb`] and hand back a boxed [`CrowdSelector`]. The
//! [`SelectorRegistry`] maps backend names (the `USING <backend>` strings of
//! the query language) to factories, so the layers above dispatch by name
//! instead of matching on concrete types. A successful fit is wrapped in a
//! [`FittedSelector`] snapshot that records which backend produced it, an
//! epoch counter for cache invalidation, and the fit diagnostics.

use crate::ranking::RankedWorker;
use crate::selector::{BatchQuery, CrowdSelector};
use crowd_store::CrowdDb;
use std::fmt;

/// The kind of database mutation a fitted snapshot may be invalidated by.
///
/// The query engine (and any other cache of [`FittedSelector`]s) passes the
/// kind of write it just applied to [`SelectorBackend::invalidated_by`] so
/// backends whose fit does not depend on that class of data can keep serving
/// their snapshot. VSM profiles, for instance, are unions of assigned task
/// content — feedback and answers never change them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DbMutation {
    /// A worker was inserted.
    WorkerAdded,
    /// A task was inserted.
    TaskAdded,
    /// A worker was assigned to a task.
    Assigned,
    /// A feedback score was recorded.
    Feedback,
    /// An answer was recorded.
    Answer,
}

/// Knobs a caller may pass to [`SelectorBackend::fit`].
///
/// Every field is optional; a backend falls back to its own defaults for
/// anything left unset, so the same options value can be handed to backends
/// with very different needs (VSM ignores both fields).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitOptions {
    /// Number of latent categories / topics, for backends that have them.
    pub categories: Option<usize>,
    /// Seed for any randomized initialization.
    pub seed: Option<u64>,
}

impl FitOptions {
    /// Options with both knobs set — the common query-engine case.
    pub fn with(categories: usize, seed: u64) -> Self {
        FitOptions {
            categories: Some(categories),
            seed: Some(seed),
        }
    }
}

/// What a fit run reports about itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitDiagnostics {
    /// Optimization iterations performed (0 for closed-form fits).
    pub iterations: usize,
    /// Objective value per iteration (ELBO for TDPM, log-likelihood for the
    /// topic baselines, empty for closed-form fits).
    pub objective_trace: Vec<f64>,
    /// Whether the optimizer reported convergence (closed-form fits are
    /// trivially converged).
    pub converged: bool,
}

impl FitDiagnostics {
    /// Diagnostics for a closed-form, single-pass fit.
    pub fn closed_form() -> Self {
        FitDiagnostics {
            iterations: 0,
            objective_trace: Vec::new(),
            converged: true,
        }
    }

    /// The final objective value, if a trace was recorded.
    pub fn objective(&self) -> Option<f64> {
        self.objective_trace.last().copied()
    }
}

/// A fitted selector together with its diagnostics.
pub struct FitOutcome {
    /// The fitted, queryable selector.
    pub selector: Box<dyn CrowdSelector>,
    /// How the fit went.
    pub diagnostics: FitDiagnostics,
}

impl FitOutcome {
    /// Wraps a selector with the given diagnostics.
    pub fn new(selector: Box<dyn CrowdSelector>, diagnostics: FitDiagnostics) -> Self {
        FitOutcome {
            selector,
            diagnostics,
        }
    }
}

impl fmt::Debug for FitOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FitOutcome")
            .field("selector", &self.selector.name())
            .field("diagnostics", &self.diagnostics)
            .finish()
    }
}

/// Errors from backend resolution and fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// The requested backend name is not registered.
    UnknownBackend {
        /// The name the caller asked for.
        requested: String,
        /// The names the registry does know, in registration order.
        known: Vec<String>,
    },
    /// The backend cannot fit on the given database.
    NeedsData {
        /// Canonical backend name.
        backend: String,
        /// Human-readable requirement, e.g. "needs resolved tasks with
        /// feedback scores".
        reason: String,
    },
    /// A backend that must be fitted explicitly has not been yet.
    NotFitted {
        /// Canonical backend name.
        backend: String,
    },
    /// The fit itself failed.
    Fit {
        /// Canonical backend name.
        backend: String,
        /// The underlying error, stringified.
        message: String,
    },
    /// An incremental update on a fitted selector failed.
    Update {
        /// Canonical backend name.
        backend: String,
        /// The underlying error, stringified.
        message: String,
    },
}

impl fmt::Display for SelectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectError::UnknownBackend { requested, known } => write!(
                f,
                "unknown selection backend '{requested}' (expected one of {})",
                known.join(", ")
            ),
            SelectError::NeedsData { backend, reason } => write!(f, "{backend} {reason}"),
            SelectError::NotFitted { backend } => {
                write!(f, "{backend} selector not fitted yet")
            }
            SelectError::Fit { backend, message } => {
                write!(f, "{backend} fit failed: {message}")
            }
            SelectError::Update { backend, message } => {
                write!(f, "{backend} update failed: {message}")
            }
        }
    }
}

impl std::error::Error for SelectError {}

/// A named factory producing fitted [`CrowdSelector`]s.
pub trait SelectorBackend: Send + Sync {
    /// Canonical (lowercase) backend name used for registry lookup and the
    /// query language's `USING` clause.
    fn name(&self) -> &'static str;

    /// Whether the engine may fit this backend on demand at query time.
    ///
    /// Cheap baselines default to `true`; expensive models (TDPM's
    /// variational EM) return `false` so callers must fit explicitly
    /// (`TRAIN MODEL`) before selecting.
    fn lazy_fit(&self) -> bool {
        true
    }

    /// Whether a fitted snapshot of this backend goes stale under the given
    /// mutation.
    ///
    /// The conservative default is `true` for everything. Backends override
    /// it to declare independence from mutation classes their fit never
    /// reads (e.g. VSM's content-only profiles ignore feedback scores), so
    /// snapshot caches can skip needless refits.
    fn invalidated_by(&self, mutation: DbMutation) -> bool {
        let _ = mutation;
        true
    }

    /// Fits the algorithm on `db`.
    fn fit(&self, db: &CrowdDb, opts: &FitOptions) -> Result<FitOutcome, SelectError>;
}

/// A registry of [`SelectorBackend`]s, addressable by case-insensitive name.
#[derive(Default)]
pub struct SelectorRegistry {
    backends: Vec<Box<dyn SelectorBackend>>,
}

impl SelectorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SelectorRegistry::default()
    }

    /// Registers a backend, replacing any existing backend of the same name.
    pub fn register(&mut self, backend: Box<dyn SelectorBackend>) {
        let name = backend.name();
        if let Some(slot) = self
            .backends
            .iter_mut()
            .find(|b| b.name().eq_ignore_ascii_case(name))
        {
            *slot = backend;
        } else {
            self.backends.push(backend);
        }
    }

    /// Looks a backend up by name (case-insensitive).
    pub fn get(&self, name: &str) -> Result<&dyn SelectorBackend, SelectError> {
        self.backends
            .iter()
            .map(Box::as_ref)
            .find(|b| b.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| SelectError::UnknownBackend {
                requested: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// Whether a backend of this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_ok()
    }

    /// Registered backend names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.name()).collect()
    }

    /// Resolves `name` and fits it on `db`, wrapping the outcome in a
    /// [`FittedSelector`] snapshot (epoch 0 — see
    /// [`FittedSelector::with_epoch`]).
    pub fn fit(
        &self,
        name: &str,
        db: &CrowdDb,
        opts: &FitOptions,
    ) -> Result<FittedSelector, SelectError> {
        let backend = self.get(name)?;
        let outcome = backend.fit(db, opts)?;
        Ok(FittedSelector::new(backend.name(), outcome))
    }
}

impl fmt::Debug for SelectorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelectorRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

/// A serving snapshot: one fitted selector, stamped with the backend that
/// produced it and an epoch for cache bookkeeping.
pub struct FittedSelector {
    backend: &'static str,
    epoch: u64,
    diagnostics: FitDiagnostics,
    selector: Box<dyn CrowdSelector>,
}

impl FittedSelector {
    /// Wraps a fit outcome produced by `backend` (epoch 0).
    pub fn new(backend: &'static str, outcome: FitOutcome) -> Self {
        FittedSelector {
            backend,
            epoch: 0,
            diagnostics: outcome.diagnostics,
            selector: outcome.selector,
        }
    }

    /// Stamps the snapshot with a caller-managed epoch (e.g. "number of
    /// trainings so far") and returns it.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The canonical name of the backend that produced this snapshot.
    pub fn backend(&self) -> &'static str {
        self.backend
    }

    /// The snapshot epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How the fit went.
    pub fn diagnostics(&self) -> &FitDiagnostics {
        &self.diagnostics
    }

    /// The fitted selector.
    pub fn selector(&self) -> &dyn CrowdSelector {
        self.selector.as_ref()
    }

    /// Mutable access, for the incremental-update methods.
    pub fn selector_mut(&mut self) -> &mut dyn CrowdSelector {
        self.selector.as_mut()
    }

    /// Batched selection through the snapshot — one top-`k` list per query,
    /// in input order (see [`CrowdSelector::select_batch`]).
    pub fn select_batch(&self, queries: &[BatchQuery<'_>], k: usize) -> Vec<Vec<RankedWorker>> {
        self.selector.select_batch(queries, k)
    }

    /// Downcasts the boxed selector to a concrete type, if the backend
    /// opted into [`CrowdSelector::as_any`].
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.selector.as_any()?.downcast_ref::<T>()
    }
}

impl fmt::Debug for FittedSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FittedSelector")
            .field("backend", &self.backend)
            .field("epoch", &self.epoch)
            .field("diagnostics", &self.diagnostics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{top_k, RankedWorker};
    use crowd_store::WorkerId;
    use crowd_text::BagOfWords;

    /// Ranks by worker id — enough to see which backend served a query.
    struct ById(&'static str);
    impl CrowdSelector for ById {
        fn name(&self) -> &'static str {
            self.0
        }
        fn rank(&self, _task: &BagOfWords, candidates: &[WorkerId]) -> Vec<RankedWorker> {
            let scored = candidates.iter().map(|&w| (w, f64::from(w.0)));
            top_k(scored, candidates.len())
        }
    }

    struct ByIdBackend(&'static str);
    impl SelectorBackend for ByIdBackend {
        fn name(&self) -> &'static str {
            self.0
        }
        fn fit(&self, _db: &CrowdDb, _opts: &FitOptions) -> Result<FitOutcome, SelectError> {
            Ok(FitOutcome::new(
                Box::new(ById(self.0)),
                FitDiagnostics::closed_form(),
            ))
        }
    }

    fn registry() -> SelectorRegistry {
        let mut r = SelectorRegistry::new();
        r.register(Box::new(ByIdBackend("alpha")));
        r.register(Box::new(ByIdBackend("beta")));
        r
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let r = registry();
        assert_eq!(r.get("ALPHA").unwrap().name(), "alpha");
        assert_eq!(r.get("Beta").unwrap().name(), "beta");
        assert!(r.contains("aLpHa"));
    }

    #[test]
    fn unknown_backend_lists_known_names() {
        let r = registry();
        let err = match r.get("gamma") {
            Ok(_) => panic!("gamma should be unknown"),
            Err(e) => e,
        };
        match &err {
            SelectError::UnknownBackend { requested, known } => {
                assert_eq!(requested, "gamma");
                assert_eq!(known, &["alpha".to_string(), "beta".to_string()]);
            }
            other => panic!("unexpected error: {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("gamma"), "{msg}");
        assert!(msg.contains("alpha"), "{msg}");
        assert!(msg.contains("beta"), "{msg}");
    }

    #[test]
    fn register_replaces_same_name() {
        let mut r = registry();
        r.register(Box::new(ByIdBackend("alpha")));
        assert_eq!(r.names(), vec!["alpha", "beta"]);
    }

    #[test]
    fn fit_produces_a_serving_snapshot() {
        let r = registry();
        let db = CrowdDb::new();
        let fitted = r
            .fit("ALPHA", &db, &FitOptions::default())
            .unwrap()
            .with_epoch(3);
        assert_eq!(fitted.backend(), "alpha");
        assert_eq!(fitted.epoch(), 3);
        assert!(fitted.diagnostics().converged);
        let ranked = fitted
            .selector()
            .rank(&BagOfWords::new(), &[WorkerId(1), WorkerId(4)]);
        assert_eq!(ranked[0].worker, WorkerId(4));
    }

    #[test]
    fn fit_on_unknown_backend_errors() {
        let r = registry();
        let db = CrowdDb::new();
        assert!(matches!(
            r.fit("nope", &db, &FitOptions::default()),
            Err(SelectError::UnknownBackend { .. })
        ));
    }

    #[test]
    fn invalidated_by_defaults_to_true_for_every_mutation() {
        let backend = ByIdBackend("alpha");
        for m in [
            DbMutation::WorkerAdded,
            DbMutation::TaskAdded,
            DbMutation::Assigned,
            DbMutation::Feedback,
            DbMutation::Answer,
        ] {
            assert!(backend.invalidated_by(m));
        }
    }

    #[test]
    fn snapshot_select_batch_delegates() {
        let r = registry();
        let db = CrowdDb::new();
        let fitted = r.fit("alpha", &db, &FitOptions::default()).unwrap();
        let bow = BagOfWords::new();
        let pool = vec![WorkerId(2), WorkerId(8), WorkerId(5)];
        let queries = vec![BatchQuery {
            bow: &bow,
            candidates: &pool,
            task: None,
        }];
        let batch = fitted.select_batch(&queries, 2);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0][0].worker, WorkerId(8));
        assert_eq!(batch[0][1].worker, WorkerId(5));
    }

    #[test]
    fn downcast_defaults_to_none() {
        let r = registry();
        let db = CrowdDb::new();
        let fitted = r.fit("alpha", &db, &FitOptions::default()).unwrap();
        assert!(fitted.downcast_ref::<ById>().is_none());
    }
}
