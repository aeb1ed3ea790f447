//! Binary logistic regression (classification baseline).

use crate::dataset::Standardizer;
use crate::{Classifier, MlError};
use serde::{Deserialize, Serialize};

/// Binary logistic regression trained by full-batch gradient descent.
///
/// Features are standardized internally (pixel coordinates span three
/// orders of magnitude, which would cripple gradient descent otherwise).
///
/// # Examples
///
/// ```
/// use mvs_ml::{Classifier, LogisticRegression};
///
/// let xs = vec![vec![0.0], vec![1.0], vec![9.0], vec![10.0]];
/// let ys = vec![0, 0, 1, 1];
/// let model = LogisticRegression::fit(&xs, &ys)?;
/// assert_eq!(model.predict(&[0.5]), 0);
/// assert_eq!(model.predict(&[9.5]), 1);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
    standardizer: Standardizer,
}

impl LogisticRegression {
    /// Default number of gradient-descent epochs.
    const EPOCHS: usize = 500;
    /// Default learning rate.
    const LEARNING_RATE: f64 = 0.5;

    /// Fits the model with default hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] / [`MlError::DimensionMismatch`]
    /// for malformed input.
    pub fn fit(xs: &[Vec<f64>], ys: &[usize]) -> Result<Self, MlError> {
        Self::fit_with(xs, ys, Self::EPOCHS, Self::LEARNING_RATE)
    }

    /// Fits the model with explicit epoch count and learning rate.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LogisticRegression::fit`], plus
    /// [`MlError::InvalidParameter`] for zero epochs or a non-positive
    /// learning rate.
    fn fit_with(xs: &[Vec<f64>], ys: &[usize], epochs: usize, lr: f64) -> Result<Self, MlError> {
        if epochs == 0 {
            return Err(MlError::InvalidParameter("epochs must be positive"));
        }
        if lr <= 0.0 || lr.is_nan() {
            return Err(MlError::InvalidParameter("learning rate must be positive"));
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
        let n = z.len() as f64;
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        for _ in 0..epochs {
            let mut gw = vec![0.0; d];
            let mut gb = 0.0;
            for (x, &y) in z.iter().zip(ys) {
                let margin: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                let p = sigmoid(margin);
                let err = p - (y != 0) as usize as f64;
                for (g, xi) in gw.iter_mut().zip(x) {
                    *g += err * xi;
                }
                gb += err;
            }
            for (wi, g) in w.iter_mut().zip(&gw) {
                *wi -= lr * g / n;
            }
            b -= lr * gb / n;
        }
        Ok(LogisticRegression {
            weights: w,
            bias: b,
            standardizer,
        })
    }

    /// Predicted probability of the positive class.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    fn predict_proba(&self, x: &[f64]) -> f64 {
        let z = self.standardizer.transform(x);
        let margin: f64 = self
            .weights
            .iter()
            .zip(&z)
            .map(|(wi, xi)| wi * xi)
            .sum::<f64>()
            + self.bias;
        sigmoid(margin)
    }
}

impl Classifier for LogisticRegression {
    fn predict(&self, x: &[f64]) -> usize {
        usize::from(self.predict_proba(x) >= 0.5)
    }

    fn name(&self) -> &'static str {
        "Logistic"
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_data_is_learned() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<usize> = (0..20).map(|i| usize::from(i >= 10)).collect();
        let m = LogisticRegression::fit(&xs, &ys).unwrap();
        assert_eq!(m.predict(&[2.0]), 0);
        assert_eq!(m.predict(&[17.0]), 1);
        assert!(m.predict_proba(&[19.0]) > 0.9);
        assert!(m.predict_proba(&[0.0]) < 0.1);
    }

    #[test]
    fn handles_large_coordinate_scale() {
        // Pixel-scale features: standardization must make this learnable.
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![(i * 32) as f64, 500.0]).collect();
        let ys: Vec<usize> = (0..40).map(|i| usize::from(i * 32 >= 640)).collect();
        let m = LogisticRegression::fit(&xs, &ys).unwrap();
        assert_eq!(m.predict(&[100.0, 500.0]), 0);
        assert_eq!(m.predict(&[1200.0, 500.0]), 1);
    }

    #[test]
    fn two_dimensional_boundary() {
        // Positive iff x + y > 10.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                xs.push(vec![i as f64, j as f64]);
                ys.push(usize::from(i + j > 10));
            }
        }
        let m = LogisticRegression::fit(&xs, &ys).unwrap();
        assert_eq!(m.predict(&[1.0, 1.0]), 0);
        assert_eq!(m.predict(&[9.0, 9.0]), 1);
    }

    #[test]
    fn validates_input() {
        assert!(LogisticRegression::fit(&[], &[]).is_err());
        assert!(LogisticRegression::fit(&[vec![1.0]], &[0, 1]).is_err());
        assert!(LogisticRegression::fit_with(&[vec![1.0]], &[0], 0, 0.1).is_err());
        assert!(LogisticRegression::fit_with(&[vec![1.0]], &[0], 10, 0.0).is_err());
    }
}
