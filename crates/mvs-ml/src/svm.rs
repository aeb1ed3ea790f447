//! Linear support-vector machine (classification baseline).

use crate::dataset::Standardizer;
use crate::{Classifier, MlError};
use serde::{Deserialize, Serialize};

/// A linear SVM trained with the Pegasos sub-gradient method.
///
/// Deterministic: Pegasos normally samples one example per step; this
/// implementation cycles through the training set in order, which keeps the
/// experiment harness reproducible without seeding.
///
/// # Examples
///
/// ```
/// use mvs_ml::{Classifier, LinearSvm};
///
/// let xs = vec![vec![0.0], vec![1.0], vec![9.0], vec![10.0]];
/// let ys = vec![0, 0, 1, 1];
/// let model = LinearSvm::fit(&xs, &ys)?;
/// assert_eq!(model.predict(&[0.2]), 0);
/// assert_eq!(model.predict(&[9.8]), 1);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearSvm {
    weights: Vec<f64>,
    bias: f64,
    standardizer: Standardizer,
}

impl LinearSvm {
    /// Default number of passes over the training set.
    const EPOCHS: usize = 60;
    /// Default regularization strength λ.
    const LAMBDA: f64 = 1e-3;

    /// Fits with default hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`]
    /// for malformed input.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize]) -> Result<Self, MlError> {
        Self::fit_with(xs, ys, Self::EPOCHS, Self::LAMBDA)
    }

    /// Fits with explicit epochs and regularization.
    ///
    /// # Errors
    ///
    /// Same as [`LinearSvm::fit`], plus [`MlError::InvalidParameter`] for
    /// zero epochs or non-positive λ.
    fn fit_with(
        xs: &[Vec<f64>],
        ys: &[usize],
        epochs: usize,
        lambda: f64,
    ) -> Result<Self, MlError> {
        if epochs == 0 {
            return Err(MlError::InvalidParameter("epochs must be positive"));
        }
        if lambda <= 0.0 || lambda.is_nan() {
            return Err(MlError::InvalidParameter("lambda must be positive"));
        }
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        let standardizer = Standardizer::fit(xs)?;
        let z = standardizer.transform_batch(xs);
        let d = z[0].len();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut t = 1usize;
        for _ in 0..epochs {
            for (x, &label) in z.iter().zip(ys) {
                let y = if label != 0 { 1.0 } else { -1.0 };
                let eta = 1.0 / (lambda * t as f64);
                let margin: f64 = y * (w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b);
                // Sub-gradient step on the hinge loss + L2 penalty.
                for wi in w.iter_mut() {
                    *wi *= 1.0 - eta * lambda;
                }
                if margin < 1.0 {
                    for (wi, xi) in w.iter_mut().zip(x) {
                        *wi += eta * y * xi;
                    }
                    b += eta * y;
                }
                t += 1;
            }
        }
        Ok(LinearSvm {
            weights: w,
            bias: b,
            standardizer,
        })
    }

    /// Signed distance to the decision hyperplane (positive → class 1).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    fn decision_function(&self, x: &[f64]) -> f64 {
        let z = self.standardizer.transform(x);
        self.weights
            .iter()
            .zip(&z)
            .map(|(wi, xi)| wi * xi)
            .sum::<f64>()
            + self.bias
    }
}

impl Classifier for LinearSvm {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.decision_function(x) >= 0.0)
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_data_is_learned() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..30).map(|i| usize::from(i >= 15)).collect();
        let m = LinearSvm::fit(&xs, &ys).unwrap();
        assert_eq!(m.predict(&[3.0]), 0);
        assert_eq!(m.predict(&[27.0]), 1);
    }

    #[test]
    fn margin_sign_matches_class() {
        let xs = vec![
            vec![-5.0, 0.0],
            vec![-4.0, 1.0],
            vec![4.0, 0.0],
            vec![5.0, 1.0],
        ];
        let ys = vec![0, 0, 1, 1];
        let m = LinearSvm::fit(&xs, &ys).unwrap();
        assert!(m.decision_function(&[-4.5, 0.5]) < 0.0);
        assert!(m.decision_function(&[4.5, 0.5]) > 0.0);
    }

    #[test]
    fn pixel_scale_features() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i * 30) as f64]).collect();
        let ys: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let m = LinearSvm::fit(&xs, &ys).unwrap();
        assert_eq!(m.predict(&[30.0]), 0);
        assert_eq!(m.predict(&[1100.0]), 1);
    }

    #[test]
    fn validates_input() {
        assert!(LinearSvm::fit(&[], &[]).is_err());
        assert!(LinearSvm::fit(&[vec![0.0]], &[0, 1]).is_err());
        assert!(LinearSvm::fit_with(&[vec![0.0]], &[0], 0, 0.1).is_err());
        assert!(LinearSvm::fit_with(&[vec![0.0]], &[0], 5, -1.0).is_err());
    }
}
