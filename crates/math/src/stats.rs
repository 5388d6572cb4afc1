//! Sample statistics used by the variational M-step (paper Eqs. 16–19).

use crate::{MathError, Matrix, Result, Vector};

/// Mean of a collection of equally sized vectors.
///
/// Errors if the collection is empty or the vectors disagree in length.
pub fn mean(samples: &[Vector]) -> Result<Vector> {
    let first = samples.first().ok_or(MathError::DomainError {
        routine: "stats::mean",
        message: "empty sample set",
    })?;
    let n = first.len();
    let mut out = Vector::zeros(n);
    for s in samples {
        out.add_assign(s)?;
    }
    out.scale(1.0 / samples.len() as f64);
    Ok(out)
}

/// Population covariance `1/N Σ (x − μ)(x − μ)ᵀ` around a supplied mean.
///
/// The M-step covariance (Eq. 17 / 19) additionally adds the mean of the
/// per-sample diagonal variational variances — callers do that themselves via
/// [`Matrix::add_diag`]; this function only handles the scatter part.
pub fn covariance_about(samples: &[Vector], mu: &Vector) -> Result<Matrix> {
    if samples.is_empty() {
        return Err(MathError::DomainError {
            routine: "stats::covariance_about",
            message: "empty sample set",
        });
    }
    let k = mu.len();
    let mut cov = Matrix::zeros(k, k);
    for s in samples {
        let d = s.sub(mu)?;
        cov.add_outer(1.0, d.as_slice())?;
    }
    cov.scale(1.0 / samples.len() as f64);
    cov.symmetrize();
    Ok(cov)
}

/// Scalar sample mean.
pub fn scalar_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Scalar sample variance (population, divide by N).
pub fn scalar_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = scalar_mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Pearson correlation of two equally long slices; 0.0 when either side is
/// constant (degenerate denominator).
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            op: "stats::pearson",
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.is_empty() {
        return Ok(0.0);
    }
    let mx = scalar_mean(xs);
    let my = scalar_mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return Ok(0.0);
    }
    Ok(sxy / (sxx.sqrt() * syy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_vectors() {
        let samples = vec![
            Vector::from_vec(vec![1.0, 2.0]),
            Vector::from_vec(vec![3.0, 4.0]),
        ];
        let m = mean(&samples).unwrap();
        assert_eq!(m.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn mean_of_empty_errors() {
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn covariance_of_known_points() {
        // Points (±1, ∓1) around mean (0,0): variance 1 each, covariance −1.
        let samples = vec![
            Vector::from_vec(vec![1.0, -1.0]),
            Vector::from_vec(vec![-1.0, 1.0]),
        ];
        let mu = Vector::zeros(2);
        let c = covariance_about(&samples, &mu).unwrap();
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(1, 1)], 1.0);
        assert_eq!(c[(0, 1)], -1.0);
        assert_eq!(c[(1, 0)], -1.0);
    }

    #[test]
    fn scalar_stats() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(scalar_mean(&xs), 2.5);
        assert!((scalar_variance(&xs) - 1.25).abs() < 1e-12);
        assert_eq!(scalar_mean(&[]), 0.0);
        assert_eq!(scalar_variance(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_degenerate() {
        let xs = [1.0, 2.0, 3.0];
        let pos = pearson(&xs, &[2.0, 4.0, 6.0]).unwrap();
        assert!((pos - 1.0).abs() < 1e-12);
        let neg = pearson(&xs, &[3.0, 2.0, 1.0]).unwrap();
        assert!((neg + 1.0).abs() < 1e-12);
        let flat = pearson(&xs, &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(flat, 0.0);
        assert!(pearson(&xs, &[1.0]).is_err());
    }
}
