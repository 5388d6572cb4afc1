#![warn(missing_docs)]

//! Baseline crowd-selection algorithms (paper Section 7.2.1).
//!
//! The paper compares TDPM against three baselines, all implemented here
//! from scratch:
//!
//! - [`VsmSelector`] — Vector Space Model: cosine similarity between the task
//!   and the union bag-of-words of each worker's answering history.
//! - [`DrmSelector`] — Dual Role Model (Xu et al., SIGIR'12): multinomial
//!   worker skills estimated with **PLSA** ([`plsa::Plsa`]).
//! - [`TspmSelector`] — Topic-Sensitive Probabilistic Model (Guo et al.,
//!   CIKM'08 / Zhou et al., CIKM'12): multinomial skills estimated with
//!   **LDA** ([`lda::Lda`]).
//!
//! Both probabilistic baselines score a worker by `w^i (c^j)ᵀ` where the
//! skill vector is constrained to the simplex — exactly the normalization
//! the paper argues makes skills incomparable across workers (Section 1).
//! The trained TDPM model, [`crowd_core::TdpmModel`], implements the same
//! [`CrowdSelector`] trait, so the evaluation harness treats all four
//! uniformly.

pub mod backends;
pub mod drm;
pub mod lda;
pub mod plsa;
pub mod selector;
pub mod tspm;
pub mod vsm;

pub use backends::{standard_registry, DrmBackend, TspmBackend, VsmBackend};
pub use drm::DrmSelector;
pub use lda::Lda;
pub use plsa::Plsa;
pub use selector::{BatchQuery, CrowdSelector};
pub use tspm::TspmSelector;
pub use vsm::VsmSelector;
