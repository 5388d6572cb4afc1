//! Dense row-major `f64` matrix sized for small latent spaces.

use crate::{MathError, Result, Vector};
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
///
/// The inference engine only manipulates `K × K` covariance/precision matrices
/// (`K` ≤ ~100), so the implementation favours clarity and numerical hygiene
/// over blocking or SIMD.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates an `n × n` diagonal matrix from `diag`.
    pub fn from_diag(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Creates a matrix from a row-major `Vec`.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::from_rows",
                left: rows * cols,
                right: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f` at each `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Overwrites `self` with the contents of `other` without reallocating.
    ///
    /// Lets inference loops reset a scratch precision matrix to a prior
    /// instead of cloning the prior on every update.
    pub fn copy_from(&mut self, other: &Matrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::copy_from",
                left: self.rows * self.cols,
                right: other.rows * other.cols,
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Immutable row slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The main diagonal as a vector (requires a square matrix).
    pub fn diag(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::matvec",
                left: self.cols,
                right: x.len(),
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(x.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        }))
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::matmul",
                left: self.cols,
                right: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for c in 0..other.cols {
                    out_row[c] += a * orow[c];
                }
            }
        }
        Ok(out)
    }

    /// Transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// In-place `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "Matrix::add_assign")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        self.check_same_shape(other, "Matrix::axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// In-place scaling `self *= s`.
    pub fn scale(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Adds `alpha * x xᵀ` to `self` (symmetric rank-1 update).
    pub fn add_outer(&mut self, alpha: f64, x: &[f64]) -> Result<()> {
        if !self.is_square() || self.rows != x.len() {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::add_outer",
                left: self.rows,
                right: x.len(),
            });
        }
        for r in 0..self.rows {
            let xr = alpha * x[r];
            let row = self.row_mut(r);
            for (c, value) in row.iter_mut().enumerate() {
                *value += xr * x[c];
            }
        }
        Ok(())
    }

    /// Adds `v[i]` to each diagonal entry `self[(i, i)]`.
    pub fn add_diag(&mut self, v: &[f64]) -> Result<()> {
        if !self.is_square() || self.rows != v.len() {
            return Err(MathError::DimensionMismatch {
                op: "Matrix::add_diag",
                left: self.rows,
                right: v.len(),
            });
        }
        for i in 0..self.rows {
            self[(i, i)] += v[i];
        }
        Ok(())
    }

    /// Adds `s` to every diagonal entry (Tikhonov ridge / jitter).
    pub fn add_ridge(&mut self, s: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += s;
        }
    }

    /// Quadratic form `xᵀ self x` (requires square).
    pub fn quad_form(&self, x: &Vector) -> Result<f64> {
        let mx = self.matvec(x)?;
        x.dot(&mx)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute asymmetry `max |A[i,j] - A[j,i]|` (requires square).
    pub fn asymmetry(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                worst = worst.max((self[(r, c)] - self[(c, r)]).abs());
            }
        }
        worst
    }

    /// Forces exact symmetry by averaging `A` and `Aᵀ` in place.
    pub fn symmetrize(&mut self) {
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                op,
                left: self.rows * self.cols,
                right: other.rows * other.cols,
            });
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> Matrix {
        Matrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap()
    }

    #[test]
    fn identity_matvec_is_noop() {
        let x = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        let y = Matrix::identity(3).matvec(&x).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn matvec_known_values() {
        let m = example();
        let x = Vector::from_vec(vec![1.0, 1.0]);
        assert_eq!(m.matvec(&x).unwrap().as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn matmul_known_values() {
        let m = example();
        let p = m.matmul(&m).unwrap();
        assert_eq!(p.row(0), &[7.0, 10.0]);
        assert_eq!(p.row(1), &[15.0, 22.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn add_outer_rank_one() {
        let mut m = Matrix::zeros(2, 2);
        let x = Vector::from_vec(vec![1.0, 2.0]);
        m.add_outer(2.0, x.as_slice()).unwrap();
        assert_eq!(m.row(0), &[2.0, 4.0]);
        assert_eq!(m.row(1), &[4.0, 8.0]);
    }

    #[test]
    fn quad_form_matches_manual() {
        let m = example();
        let x = Vector::from_vec(vec![1.0, 2.0]);
        // [1 2; 3 4], x = [1,2]: Mx = [5, 11], xᵀMx = 5 + 22 = 27
        assert_eq!(m.quad_form(&x).unwrap(), 27.0);
    }

    #[test]
    fn diag_and_from_diag_roundtrip() {
        let d = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(Matrix::from_diag(&d).diag(), d);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = Matrix::from_rows(2, 2, vec![1.0, 2.0, 4.0, 1.0]).unwrap();
        assert_eq!(m.asymmetry(), 2.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn ridge_shifts_diagonal_only() {
        let mut m = Matrix::zeros(2, 2);
        m.add_ridge(0.5);
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 0.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_validates_len() {
        assert!(Matrix::from_rows(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::identity(2);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a[(0, 0)], 3.0);
        assert_eq!(a[(0, 1)], 0.0);
    }
}
