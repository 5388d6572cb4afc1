//! Property-based tests for the math kernels.

use crowd_math::special::{logsumexp, softmax};
use crowd_math::{Cholesky, Matrix, Vector};
use proptest::prelude::*;

/// Strategy: a small vector of reasonable finite floats.
fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, len)
}

/// Builds an SPD matrix as `B Bᵀ + I` from arbitrary entries of `B`.
fn spd_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f64..3.0, n * n).prop_map(move |entries| {
        let b = Matrix::from_rows(n, n, entries).unwrap();
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_ridge(1.0);
        a.symmetrize();
        a
    })
}

proptest! {
    #[test]
    fn dot_is_commutative(a in small_vec(5), b in small_vec(5)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let ab = va.dot(&vb).unwrap();
        let ba = vb.dot(&va).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn triangle_inequality(a in small_vec(6), b in small_vec(6)) {
        let va = Vector::from_vec(a);
        let vb = Vector::from_vec(b);
        let sum = va.add(&vb).unwrap();
        prop_assert!(sum.norm() <= va.norm() + vb.norm() + 1e-9);
    }

    #[test]
    fn cholesky_solve_residual_is_small(a in spd_matrix(4), b in small_vec(4)) {
        let rhs = Vector::from_vec(b);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve(&rhs).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid = ax.sub(&rhs).unwrap().norm();
        prop_assert!(resid <= 1e-6 * (1.0 + rhs.norm()), "residual {resid}");
    }

    #[test]
    fn cholesky_logdet_is_finite_and_matches_product(a in spd_matrix(3)) {
        let chol = Cholesky::factor(&a).unwrap();
        let ld = chol.log_det();
        prop_assert!(ld.is_finite());
        // log det via the factor diag must equal det of reconstruction sign-wise.
        let recon = chol.l().matmul(&chol.l().transpose()).unwrap();
        prop_assert!((recon.frobenius_norm() - a.frobenius_norm()).abs()
            <= 1e-6 * (1.0 + a.frobenius_norm()));
    }

    #[test]
    fn softmax_is_a_distribution(xs in small_vec(8)) {
        let s = softmax(&xs);
        prop_assert!((s.sum() - 1.0).abs() < 1e-9);
        for v in s.as_slice() {
            prop_assert!(*v >= 0.0 && *v <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn logsumexp_bounds(xs in small_vec(8)) {
        let lse = logsumexp(&xs);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // max ≤ lse ≤ max + ln n
        prop_assert!(lse + 1e-12 >= max);
        prop_assert!(lse <= max + (xs.len() as f64).ln() + 1e-12);
    }
}
