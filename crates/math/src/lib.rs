#![warn(missing_docs)]

//! Small dense linear algebra, optimizers and special functions.
//!
//! The TDPM inference engine works with `K`-dimensional latent vectors and
//! `K × K` covariance matrices where `K` (the number of latent categories) is
//! small — typically 10 to 50. This crate provides exactly the kernels that
//! workload needs, implemented from scratch:
//!
//! - [`Vector`] and [`Matrix`]: dense, row-major, `f64` containers with the
//!   arithmetic the variational updates use (dot, outer product, `axpy`,
//!   matrix–vector products, …).
//! - [`Cholesky`]: factorization of symmetric positive-definite matrices with
//!   solve / inverse / log-determinant, used for the closed-form worker-skill
//!   updates (paper Eq. 10), the Newton steps of the task-mean updates
//!   (Eqs. 14, 22) and sampling from multivariate normals.
//! - [`optimize`]: a bracket-safeguarded 1-D Newton root finder, used for the
//!   latent-category variances (paper Eqs. 15, 23).
//! - [`special`]: `lgamma`, `digamma`, `logsumexp`, `softmax` — required by
//!   the LDA baseline and the logistic-normal topic link.
//! - [`stats`]: sample means / covariances for the M-step (paper Eqs. 16–19).
//! - [`kernels`]: fixed-order f64/f32 dot and UCB row scores for the dense
//!   online-selection serving path.
//! - [`guard`]: the [`WorkGuard`] checkpoint trait the chunked kernels poll
//!   so a query-layer deadline/cancellation/budget can stop them cleanly at
//!   a block boundary.
//! - [`pool`]: the persistent [`ScoringPool`] of long-lived worker threads
//!   the chunk-parallel selection drivers and the trainer E-step submit to,
//!   replacing per-call scoped thread spawns.

pub mod cholesky;
pub mod error;
pub mod guard;
pub mod kernels;
pub mod matrix;
pub mod optimize;
pub mod pool;
pub mod special;
pub mod stats;
pub mod validate;
pub mod vector;

pub use cholesky::Cholesky;
pub use error::MathError;
pub use guard::{Unchecked, WorkGuard};
pub use matrix::Matrix;
pub use pool::{PoolStats, ScoringPool};
pub use validate::Validate;
pub use vector::Vector;

/// Convenience result alias for fallible math routines.
pub type Result<T> = std::result::Result<T, MathError>;
