//! K-fold cross-validation for model selection.
//!
//! The paper fixes `k = 3` for its KNN models without reporting a sweep;
//! the `ablation_knn_k` harness uses this module to justify (or challenge)
//! that choice on the simulated scenarios.

use crate::MlError;

/// Splits `n` samples into `folds` contiguous index blocks.
///
/// Blocks are contiguous (not shuffled) because the correspondence data is
/// temporal: shuffling would leak near-duplicate neighbouring frames between
/// train and validation, wildly inflating KNN scores.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] if `folds < 2` and
/// [`MlError::NotEnoughSamples`] if `n < folds`.
fn kfold_indices(n: usize, folds: usize) -> Result<Vec<Vec<usize>>, MlError> {
    if folds < 2 {
        return Err(MlError::InvalidParameter("need at least two folds"));
    }
    if n < folds {
        return Err(MlError::NotEnoughSamples {
            required: folds,
            available: n,
        });
    }
    let base = n / folds;
    let extra = n % folds;
    let mut out = Vec::with_capacity(folds);
    let mut start = 0;
    for f in 0..folds {
        let len = base + usize::from(f < extra);
        out.push((start..start + len).collect());
        start += len;
    }
    Ok(out)
}

/// Mean validation accuracy of a classifier-fitting closure under K-fold
/// cross-validation.
///
/// `fit` receives the training rows/labels of each fold and returns the
/// fold's predictions for the held-out rows; this inversion keeps the
/// function independent of any one model type.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] if `folds < 2`,
/// [`MlError::NotEnoughSamples`] if there are fewer rows than folds, and
/// any error from `fit`.
pub fn cross_validate<F>(
    xs: &[Vec<f64>],
    ys: &[usize],
    folds: usize,
    mut fit: F,
) -> Result<f64, MlError>
where
    F: FnMut(&[Vec<f64>], &[usize], &[Vec<f64>]) -> Result<Vec<usize>, MlError>,
{
    if xs.len() != ys.len() {
        return Err(MlError::DimensionMismatch {
            expected: xs.len(),
            found: ys.len(),
        });
    }
    let blocks = kfold_indices(xs.len(), folds)?;
    let mut correct = 0usize;
    let mut total = 0usize;
    for held_out in &blocks {
        let held: std::collections::BTreeSet<usize> = held_out.iter().copied().collect();
        let mut train_x = Vec::with_capacity(xs.len() - held.len());
        let mut train_y = Vec::with_capacity(xs.len() - held.len());
        for i in 0..xs.len() {
            if !held.contains(&i) {
                train_x.push(xs[i].clone());
                train_y.push(ys[i]);
            }
        }
        let val_x: Vec<Vec<f64>> = held_out.iter().map(|&i| xs[i].clone()).collect();
        let pred = fit(&train_x, &train_y, &val_x)?;
        if pred.len() != val_x.len() {
            return Err(MlError::DimensionMismatch {
                expected: val_x.len(),
                found: pred.len(),
            });
        }
        for (p, &i) in pred.iter().zip(held_out) {
            if *p == ys[i] {
                correct += 1;
            }
        }
        total += held_out.len();
    }
    Ok(correct as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Classifier, KnnClassifier};

    #[test]
    fn kfold_blocks_partition_the_range() {
        let folds = kfold_indices(11, 3).unwrap();
        assert_eq!(folds.len(), 3);
        assert_eq!(folds[0].len(), 4); // 11 = 4 + 4 + 3
        assert_eq!(folds[1].len(), 4);
        assert_eq!(folds[2].len(), 3);
        let flat: Vec<usize> = folds.into_iter().flatten().collect();
        assert_eq!(flat, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn kfold_validates_parameters() {
        assert!(kfold_indices(10, 1).is_err());
        assert!(kfold_indices(2, 3).is_err());
    }

    #[test]
    fn cross_validation_scores_a_learnable_problem_high() {
        // Alternating blocks of a trivially separable problem.
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 2 * 100) as f64]).collect();
        let ys: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let acc = cross_validate(&xs, &ys, 5, |tx, ty, vx| {
            let model = KnnClassifier::fit(3, tx, ty)?;
            Ok(model.predict_batch(vx))
        })
        .unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn cross_validation_scores_noise_near_chance() {
        // Labels independent of features: accuracy must hover around 0.5.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 7) as f64]).collect();
        let ys: Vec<usize> = (0..200).map(|i| (i / 3) % 2).collect();
        let acc = cross_validate(&xs, &ys, 4, |tx, ty, vx| {
            let model = KnnClassifier::fit(3, tx, ty)?;
            Ok(model.predict_batch(vx))
        })
        .unwrap();
        assert!((0.2..0.8).contains(&acc), "accuracy {acc}");
    }

    #[test]
    fn cross_validation_propagates_fit_errors() {
        let xs = vec![vec![1.0]; 10];
        let ys = vec![0usize; 10];
        let r = cross_validate(&xs, &ys, 2, |_, _, _| {
            Err(MlError::InvalidParameter("boom"))
        });
        assert!(r.is_err());
    }

    #[test]
    fn mismatched_prediction_length_is_an_error() {
        let xs = vec![vec![1.0]; 10];
        let ys = vec![0usize; 10];
        let r = cross_validate(&xs, &ys, 2, |_, _, _| Ok(vec![0]));
        assert!(matches!(r, Err(MlError::DimensionMismatch { .. })));
    }
}
