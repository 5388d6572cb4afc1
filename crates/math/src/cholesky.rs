//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The closed-form worker-skill update (paper Eq. 10) solves
//! `(Σ_w⁻¹ + τ⁻² Σ_j E[c cᵀ]) λ_w = rhs` for every worker each E-step; the
//! precision matrix is SPD by construction, so a Cholesky solve is both the
//! fastest and the most numerically robust option at these sizes.

use crate::{MathError, Matrix, Result, Vector};

/// A lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is responsible for
    /// `a` being symmetric (use [`Matrix::symmetrize`] when accumulating
    /// covariances from floating-point sums).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::DimensionMismatch {
                op: "Cholesky::factor",
                left: a.rows(),
                right: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(MathError::NotPositiveDefinite { pivot: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorizes `a`, adding `jitter * I` and retrying (doubling each time,
    /// up to `max_tries`) if the matrix is numerically indefinite.
    ///
    /// Variational covariances are SPD in exact arithmetic but can lose
    /// definiteness to rounding after many accumulation steps; a tiny ridge
    /// restores it without visibly changing the solution.
    pub fn factor_with_jitter(a: &Matrix, jitter: f64, max_tries: usize) -> Result<Self> {
        match Cholesky::factor(a) {
            Ok(c) => Ok(c),
            Err(_) => {
                let mut eps = jitter;
                for _ in 0..max_tries {
                    let mut aj = a.clone();
                    aj.add_ridge(eps);
                    if let Ok(c) = Cholesky::factor(&aj) {
                        return Ok(c);
                    }
                    eps *= 2.0;
                }
                Err(MathError::NotPositiveDefinite { pivot: 0 })
            }
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward + back substitution.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(MathError::DimensionMismatch {
                op: "Cholesky::solve",
                left: n,
                right: b.len(),
            });
        }
        // Forward: L y = b
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= self.l[(i, k)] * y[k];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Back: Lᵀ x = y
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] * x[k];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Computes `A⁻¹` by solving against each basis vector.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = Vector::zeros(n);
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        // The inverse of an SPD matrix is symmetric; enforce it exactly.
        inv.symmetrize();
        Ok(inv)
    }

    /// `log det A = 2 Σ log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.dim() {
            s += self.l[(i, i)].ln();
        }
        2.0 * s
    }

    /// Applies `L x` — used to sample `μ + L z` from `Normal(μ, A)`.
    pub fn l_matvec(&self, x: &Vector) -> Result<Vector> {
        self.l.matvec(x)
    }

    /// Rank-1 update in place: after the call, `L Lᵀ = A + x xᵀ`.
    ///
    /// Classic `cholupdate` via Givens-style rotations — O(K²) instead of
    /// the O(K³) refactorization. This is what makes the incremental
    /// skill update (one new `(task, score)` observation adds
    /// `λ_c λ_cᵀ + diag(ν_c²)` to a worker's precision) cheap enough to run
    /// on every piece of feedback.
    pub fn rank_one_update(&mut self, x: &Vector) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(MathError::DimensionMismatch {
                op: "Cholesky::rank_one_update",
                left: n,
                right: x.len(),
            });
        }
        let mut work = x.clone();
        for kcol in 0..n {
            let lkk = self.l[(kcol, kcol)];
            let wk = work[kcol];
            let r = (lkk * lkk + wk * wk).sqrt();
            if r <= 0.0 || !r.is_finite() {
                return Err(MathError::NotPositiveDefinite { pivot: kcol });
            }
            let c = r / lkk;
            let s = wk / lkk;
            self.l[(kcol, kcol)] = r;
            for row in (kcol + 1)..n {
                let lrk = self.l[(row, kcol)];
                self.l[(row, kcol)] = (lrk + s * work[row]) / c;
                work[row] = c * work[row] - s * self.l[(row, kcol)];
            }
        }
        Ok(())
    }

    /// Diagonal update in place: after the call, `L Lᵀ = A + diag(d)` with
    /// `d ≥ 0`, applied as `n` rank-1 updates with unit basis vectors
    /// scaled by `√d_i` (each costs O((n − i)²)).
    pub fn diag_update(&mut self, d: &Vector) -> Result<()> {
        let n = self.dim();
        if d.len() != n {
            return Err(MathError::DimensionMismatch {
                op: "Cholesky::diag_update",
                left: n,
                right: d.len(),
            });
        }
        let mut e = Vector::zeros(n);
        for i in 0..n {
            if d[i] < 0.0 {
                return Err(MathError::DomainError {
                    routine: "Cholesky::diag_update",
                    message: "diagonal increments must be non-negative",
                });
            }
            if d[i] == 0.0 {
                continue;
            }
            e[i] = d[i].sqrt();
            self.rank_one_update(&e)?;
            e[i] = 0.0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B Bᵀ + I for B = [[1,0,0],[2,1,0],[1,2,3]] is SPD.
        Matrix::from_rows(3, 3, vec![2.0, 2.0, 1.0, 2.0, 6.0, 4.0, 1.0, 4.0, 15.0]).unwrap()
    }

    #[test]
    fn factor_roundtrip() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((recon[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = c.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn log_det_of_diagonal() {
        let a = Matrix::from_diag(&Vector::from_vec(vec![2.0, 3.0, 4.0]));
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(MathError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn jitter_recovers_near_singular() {
        // Rank-deficient (outer product) — singular without jitter.
        let mut a = Matrix::zeros(2, 2);
        a.add_outer(1.0, &[1.0, 1.0]).unwrap();
        assert!(Cholesky::factor(&a).is_err());
        let c = Cholesky::factor_with_jitter(&a, 1e-8, 40).unwrap();
        assert!(c.log_det().is_finite());
    }

    #[test]
    fn rank_one_update_matches_refactorization() {
        let a = spd3();
        let x = Vector::from_vec(vec![0.7, -1.2, 0.4]);
        let mut updated = Cholesky::factor(&a).unwrap();
        updated.rank_one_update(&x).unwrap();

        let mut a_plus = a.clone();
        a_plus.add_outer(1.0, x.as_slice()).unwrap();
        let fresh = Cholesky::factor(&a_plus).unwrap();

        // Same solves (factors are unique up to sign; compare behaviour).
        let b = Vector::from_vec(vec![1.0, -2.0, 0.5]);
        let xa = updated.solve(&b).unwrap();
        let xb = fresh.solve(&b).unwrap();
        for i in 0..3 {
            assert!(
                (xa[i] - xb[i]).abs() < 1e-9,
                "coord {i}: {} vs {}",
                xa[i],
                xb[i]
            );
        }
        assert!((updated.log_det() - fresh.log_det()).abs() < 1e-9);
    }

    #[test]
    fn repeated_rank_one_updates_stay_accurate() {
        let a = spd3();
        let mut incremental = Cholesky::factor(&a).unwrap();
        let mut accumulated = a.clone();
        for step in 0..20 {
            let x = Vector::from_fn(3, |i| ((step * 3 + i) as f64 * 0.7).sin());
            incremental.rank_one_update(&x).unwrap();
            accumulated.add_outer(1.0, x.as_slice()).unwrap();
        }
        let fresh = Cholesky::factor(&accumulated).unwrap();
        let b = Vector::from_vec(vec![0.3, 0.3, 0.3]);
        let xa = incremental.solve(&b).unwrap();
        let xb = fresh.solve(&b).unwrap();
        for i in 0..3 {
            assert!((xa[i] - xb[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn diag_update_matches_refactorization() {
        let a = spd3();
        let d = Vector::from_vec(vec![0.5, 0.0, 2.0]);
        let mut updated = Cholesky::factor(&a).unwrap();
        updated.diag_update(&d).unwrap();

        let mut a_plus = a.clone();
        a_plus.add_diag(d.as_slice()).unwrap();
        let fresh = Cholesky::factor(&a_plus).unwrap();
        assert!((updated.log_det() - fresh.log_det()).abs() < 1e-9);
        // Negative increments rejected.
        let mut c = Cholesky::factor(&a).unwrap();
        assert!(c
            .diag_update(&Vector::from_vec(vec![-1.0, 0.0, 0.0]))
            .is_err());
    }

    #[test]
    fn rank_one_update_dimension_checked() {
        let mut c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.rank_one_update(&Vector::zeros(2)).is_err());
        assert!(c.diag_update(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
    }
}
