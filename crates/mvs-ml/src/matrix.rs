//! Dense matrices and the few linear-algebra routines the toolbox needs.

use crate::MlError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major matrix of `f64`.
///
/// Only the operations required by this workspace are provided: products,
/// transpose, and solving (regularized) linear systems via Gaussian
/// elimination with partial pivoting. For the tiny systems involved
/// (homography: 8×8, linear regression: `d`×`d` with `d ≤ 5`) this is both
/// adequate and dependency-free.
///
/// # Examples
///
/// ```
/// use mvs_ml::Matrix;
///
/// let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 4.0]])?;
/// let x = a.solve(&[2.0, 8.0])?;
/// assert_eq!(x, vec![1.0, 2.0]);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the n×n identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for an empty slice and
    /// [`MlError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        let Some(first) = rows.first() else {
            return Err(MlError::EmptyTrainingSet);
        };
        let cols = first.len();
        if cols == 0 {
            return Err(MlError::DimensionMismatch {
                expected: 1,
                found: 0,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(MlError::DimensionMismatch {
                    expected: cols,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// A borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    fn matmul(&self, other: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != other.rows {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MlError> {
        if v.len() != self.cols {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                found: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a non-square system or a
    /// right-hand side of the wrong length, and [`MlError::SingularSystem`]
    /// when no unique solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MlError> {
        if self.rows != self.cols {
            return Err(MlError::DimensionMismatch {
                expected: self.rows,
                found: self.cols,
            });
        }
        if b.len() != self.rows {
            return Err(MlError::DimensionMismatch {
                expected: self.rows,
                found: b.len(),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut rhs = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[(r1, col)]
                        .abs()
                        .partial_cmp(&a[(r2, col)].abs())
                        .expect("pivot magnitudes are comparable")
                })
                .expect("non-empty pivot range");
            if a[(pivot_row, col)].abs() < 1e-12 {
                return Err(MlError::SingularSystem);
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot_row, j)];
                    a[(pivot_row, j)] = tmp;
                }
                rhs.swap(col, pivot_row);
            }
            // Eliminate below.
            for r in col + 1..n {
                let factor = a[(r, col)] / a[(col, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[(r, j)] -= factor * a[(col, j)];
                }
                rhs[r] -= factor * rhs[col];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = rhs[i];
            for j in i + 1..n {
                acc -= a[(i, j)] * x[j];
            }
            x[i] = acc / a[(i, i)];
        }
        Ok(x)
    }

    /// Solves the ridge-regularized least-squares problem
    /// `argmin_x ||A x − b||² + λ||x||²` via the normal equations
    /// `(AᵀA + λI) x = Aᵀ b`.
    ///
    /// # Errors
    ///
    /// Propagates dimension and singularity errors from the underlying
    /// solve; with `lambda > 0` the system is always non-singular.
    pub(crate) fn solve_least_squares(&self, b: &[f64], lambda: f64) -> Result<Vec<f64>, MlError> {
        if b.len() != self.rows {
            return Err(MlError::DimensionMismatch {
                expected: self.rows,
                found: b.len(),
            });
        }
        let at = self.transpose();
        let mut ata = at.matmul(self)?;
        for i in 0..ata.rows {
            ata[(i, i)] += lambda;
        }
        let atb = at.matvec(b)?;
        ata.solve(&atb)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            writeln!(f, "{:?}", self.row(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_rhs() {
        let i = Matrix::identity(3);
        let b = vec![1.0, -2.0, 3.0];
        assert_eq!(i.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_system_errors() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MlError::SingularSystem));
    }

    #[test]
    fn matmul_shapes_and_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0], vec![6.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert_eq!(c[(0, 0)], 17.0);
        assert_eq!(c[(1, 0)], 39.0);
        assert!(b.matmul(&b).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn least_squares_recovers_exact_fit() {
        // y = 2a + 3b, overdetermined but consistent.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
        ])
        .unwrap();
        let b = [2.0, 3.0, 5.0, 7.0];
        let x = a.solve_least_squares(&b, 0.0).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_solution() {
        let a = Matrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let exact = a.solve_least_squares(&[2.0, 2.0], 0.0).unwrap()[0];
        let ridge = a.solve_least_squares(&[2.0, 2.0], 10.0).unwrap()[0];
        assert!((exact - 2.0).abs() < 1e-9);
        assert!(ridge < exact);
    }

    #[test]
    fn from_rows_validates() {
        assert_eq!(Matrix::from_rows(&[]), Err(MlError::EmptyTrainingSet));
        assert!(matches!(
            Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
