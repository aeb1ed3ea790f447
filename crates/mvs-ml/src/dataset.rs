//! Dataset utilities: splits and feature standardization.

use crate::MlError;

/// Splits paired features/targets into a train and a test portion.
///
/// The first `train_fraction` of the rows become the training set — this
/// mirrors the paper's protocol of training on the first half of each video
/// and testing on the second half (a *temporal* split; shuffling would leak
/// future frames into training).
///
/// # Errors
///
/// Returns [`MlError::DimensionMismatch`] when `xs` and `ys` differ in
/// length and [`MlError::InvalidParameter`] when the fraction is outside
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// let xs = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]];
/// let ys = vec![1.0, 2.0, 3.0, 4.0];
/// let (xtr, ytr, xte, yte) = mvs_ml::train_test_split(&xs, &ys, 0.5)?;
/// assert_eq!(xtr.len(), 2);
/// assert_eq!(yte, vec![3.0, 4.0]);
/// # let _ = (ytr, xte);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[allow(clippy::type_complexity)]
pub fn train_test_split<X: Clone, Y: Clone>(
    xs: &[X],
    ys: &[Y],
    train_fraction: f64,
) -> Result<(Vec<X>, Vec<Y>, Vec<X>, Vec<Y>), MlError> {
    if xs.len() != ys.len() {
        return Err(MlError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    if !(train_fraction > 0.0 && train_fraction < 1.0) {
        return Err(MlError::InvalidParameter("train_fraction must be in (0,1)"));
    }
    let cut = ((xs.len() as f64) * train_fraction).round() as usize;
    let cut = cut.clamp(1, xs.len().saturating_sub(1).max(1));
    Ok((
        xs[..cut].to_vec(),
        ys[..cut].to_vec(),
        xs[cut..].to_vec(),
        ys[cut..].to_vec(),
    ))
}

/// Per-feature standardization (zero mean, unit variance).
///
/// Gradient-based baselines (logistic regression, the linear SVM) need
/// standardized pixel-coordinate features to converge; KNN and trees do not
/// care. Fitted on the training split only.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Standardizer {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Standardizer {
    /// Fits the standardizer on training rows.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::EmptyTrainingSet`] for empty input and
    /// [`MlError::DimensionMismatch`] for ragged rows.
    pub fn fit(xs: &[Vec<f64>]) -> Result<Self, MlError> {
        let Some(first) = xs.first() else {
            return Err(MlError::EmptyTrainingSet);
        };
        let d = first.len();
        let mut mean = vec![0.0; d];
        for x in xs {
            if x.len() != d {
                return Err(MlError::DimensionMismatch {
                    expected: d,
                    found: x.len(),
                });
            }
            for (m, v) in mean.iter_mut().zip(x) {
                *m += v;
            }
        }
        let n = xs.len() as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for x in xs {
            for ((v, m), xi) in var.iter_mut().zip(&mean).zip(x) {
                let dlt = xi - m;
                *v += dlt * dlt;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0 // constant feature: leave it centred but unscaled
                }
            })
            .collect();
        Ok(Standardizer { mean, std })
    }

    /// Standardizes one row.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "feature dimension mismatch");
        x.iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((xi, m), s)| (xi - m) / s)
            .collect()
    }

    /// Standardizes a batch of rows.
    pub(crate) fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_temporal_prefix() {
        let xs: Vec<u32> = (0..10).collect();
        let ys: Vec<u32> = (10..20).collect();
        let (xtr, ytr, xte, yte) = train_test_split(&xs, &ys, 0.7).unwrap();
        assert_eq!(xtr, (0..7).collect::<Vec<_>>());
        assert_eq!(ytr, (10..17).collect::<Vec<_>>());
        assert_eq!(xte, (7..10).collect::<Vec<_>>());
        assert_eq!(yte, (17..20).collect::<Vec<_>>());
    }

    #[test]
    fn split_validates() {
        let xs = vec![1, 2, 3];
        assert!(train_test_split(&xs, &[1, 2], 0.5).is_err());
        assert!(train_test_split(&xs, &xs, 0.0).is_err());
        assert!(train_test_split(&xs, &xs, 1.0).is_err());
    }

    #[test]
    fn standardizer_zero_mean_unit_var() {
        let xs = vec![vec![1.0, 10.0], vec![3.0, 10.0], vec![5.0, 10.0]];
        let s = Standardizer::fit(&xs).unwrap();
        let t = s.transform_batch(&xs);
        let mean0: f64 = t.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean0.abs() < 1e-12);
        // Constant feature is centred but not exploded.
        assert!(t.iter().all(|r| r[1].abs() < 1e-12));
    }

    #[test]
    fn standardizer_rejects_empty() {
        assert_eq!(Standardizer::fit(&[]), Err(MlError::EmptyTrainingSet));
    }
}
