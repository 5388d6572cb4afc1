//! Numerical optimization used by the variational E-step.
//!
//! The latent-category update (paper Eqs. 14–15 and 22–23) is not available in
//! closed form. Its mean `λ_c` is minimized by damped Newton in crowd-core
//! (`estep::solve_task_mean`), on a closed-form K×K Hessian factored by
//! [`crate::Cholesky`]. Its variances `ν²_c` are the roots of a strictly
//! decreasing scalar function, which [`solve_decreasing`] finds by a
//! bracket-safeguarded 1-D Newton iteration.

mod root;

pub use root::solve_decreasing;
