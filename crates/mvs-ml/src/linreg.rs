//! Multi-output linear (ridge) regression.
//!
//! The paper describes this baseline as a "learnable homography
//! transformation": an affine map from the source camera's bounding-box
//! coordinates to the target camera's.

use crate::{Matrix, MlError, Regressor};
use serde::{Deserialize, Serialize};

/// Multi-output linear regression with a bias term and optional ridge
/// penalty, solved in closed form via the normal equations.
///
/// # Examples
///
/// ```
/// use mvs_ml::{LinearRegression, Regressor};
///
/// // y = [2x + 1, -x]
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let ys = vec![vec![1.0, 0.0], vec![3.0, -1.0], vec![5.0, -2.0], vec![7.0, -3.0]];
/// let model = LinearRegression::fit(&xs, &ys)?;
/// let y = model.predict(&[10.0]);
/// assert!((y[0] - 21.0).abs() < 1e-6);
/// assert!((y[1] + 10.0).abs() < 1e-6);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRegression {
    /// One weight column (including trailing bias) per output dimension.
    weights: Vec<Vec<f64>>,
    in_dim: usize,
}

impl LinearRegression {
    /// Default ridge regularization (tiny, for numerical stability only).
    const LAMBDA: f64 = 1e-8;

    /// Fits with the default (numerically stabilizing) ridge penalty.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`]
    /// for malformed input and [`MlError::SingularSystem`] when the design
    /// matrix is degenerate.
    pub fn fit(xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Result<Self, MlError> {
        Self::fit_with(xs, ys, Self::LAMBDA)
    }

    /// Fits with an explicit ridge penalty `lambda >= 0`.
    ///
    /// # Errors
    ///
    /// Same as [`LinearRegression::fit`], plus [`MlError::InvalidParameter`]
    /// for negative `lambda`.
    fn fit_with(xs: &[Vec<f64>], ys: &[Vec<f64>], lambda: f64) -> Result<Self, MlError> {
        if lambda < 0.0 {
            return Err(MlError::InvalidParameter("lambda must be non-negative"));
        }
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        let Some(first) = xs.first() else {
            return Err(MlError::EmptyTrainingSet);
        };
        let in_dim = first.len();
        let out_dim = ys
            .first()
            .map(Vec::len)
            .filter(|&d| d > 0)
            .ok_or(MlError::EmptyTrainingSet)?;
        // Design matrix with a trailing 1 for the bias.
        let rows: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| {
                let mut r = x.clone();
                r.push(1.0);
                r
            })
            .collect();
        let a = Matrix::from_rows(&rows)?;
        let mut weights = Vec::with_capacity(out_dim);
        for out in 0..out_dim {
            let b: Result<Vec<f64>, MlError> = ys
                .iter()
                .map(|y| {
                    y.get(out).copied().ok_or(MlError::DimensionMismatch {
                        expected: out_dim,
                        found: y.len(),
                    })
                })
                .collect();
            weights.push(a.solve_least_squares(&b?, lambda)?);
        }
        Ok(LinearRegression { weights, in_dim })
    }
}

impl Regressor for LinearRegression {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "feature dimension mismatch");
        self.weights
            .iter()
            .map(|w| {
                let linear: f64 = w[..self.in_dim].iter().zip(x).map(|(a, b)| a * b).sum();
                linear + w[self.in_dim]
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "LinearRegression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_affine_map() {
        // y = 3x1 - 2x2 + 5.
        let xs = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 3.0],
        ];
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![3.0 * x[0] - 2.0 * x[1] + 5.0])
            .collect();
        let m = LinearRegression::fit(&xs, &ys).unwrap();
        let y = m.predict(&[7.0, -1.0])[0];
        assert!((y - 28.0).abs() < 1e-6);
    }

    #[test]
    fn multi_output_dimensions() {
        let xs = vec![vec![1.0], vec![2.0], vec![3.0]];
        let ys = vec![vec![2.0, 0.0], vec![4.0, 0.0], vec![6.0, 0.0]];
        let m = LinearRegression::fit(&xs, &ys).unwrap();
        assert_eq!((m.in_dim, m.weights.len()), (1, 2));
        let y = m.predict(&[5.0]);
        assert!((y[0] - 10.0).abs() < 1e-6);
        assert!(y[1].abs() < 1e-6);
    }

    #[test]
    fn noisy_fit_is_least_squares() {
        // Overdetermined noisy y = x; estimate must stay near slope 1.
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64 + if i % 2 == 0 { 0.5 } else { -0.5 }])
            .collect();
        let m = LinearRegression::fit(&xs, &ys).unwrap();
        let y = m.predict(&[100.0])[0];
        assert!((y - 100.0).abs() < 1.0);
    }

    #[test]
    fn validates_input() {
        assert!(LinearRegression::fit(&[], &[]).is_err());
        assert!(LinearRegression::fit(&[vec![1.0]], &[vec![1.0], vec![2.0]]).is_err());
        assert!(LinearRegression::fit_with(&[vec![1.0]], &[vec![1.0]], -1.0).is_err());
        // Ragged targets.
        assert!(
            LinearRegression::fit(&[vec![1.0], vec![2.0]], &[vec![1.0, 2.0], vec![1.0]]).is_err()
        );
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        let m = LinearRegression::fit(&[vec![1.0], vec![2.0]], &[vec![1.0], vec![2.0]]).unwrap();
        m.predict(&[1.0, 2.0]);
    }
}
