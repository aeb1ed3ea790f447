//! RANSAC — robust regression in the presence of outliers.

use crate::{LinearRegression, MlError, Regressor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration for [`Ransac`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RansacConfig {
    /// Number of random minimal-set iterations.
    pub iterations: usize,
    /// Maximum mean absolute residual (per output coordinate) for a sample
    /// to count as an inlier.
    pub inlier_threshold: f64,
    /// Minimal-set size; must be at least `in_dim + 1` to determine an
    /// affine model. Slightly larger values tolerate degenerate samples.
    pub min_samples: usize,
    /// RNG seed (RANSAC is randomized; the seed keeps runs reproducible).
    pub seed: u64,
}

impl Default for RansacConfig {
    fn default() -> Self {
        RansacConfig {
            iterations: 100,
            inlier_threshold: 30.0, // pixels, matched to bbox-coordinate MAE scale
            min_samples: 6,
            seed: 7,
        }
    }
}

/// RANSAC around a [`LinearRegression`] base model.
///
/// Repeatedly fits the base model on random minimal sets, scores inliers by
/// mean absolute residual, keeps the consensus-maximal model, and refits on
/// its inliers (the classical Fischler–Bolles scheme, used by the paper as
/// the robust-regression baseline in Fig. 11).
///
/// # Examples
///
/// ```
/// use mvs_ml::{Ransac, RansacConfig, Regressor};
///
/// // y = 2x with two gross outliers.
/// let mut xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
/// let mut ys: Vec<Vec<f64>> = (0..20).map(|i| vec![2.0 * i as f64]).collect();
/// xs.push(vec![5.0]); ys.push(vec![500.0]);
/// xs.push(vec![6.0]); ys.push(vec![-400.0]);
/// let cfg = RansacConfig { inlier_threshold: 1.0, min_samples: 3, ..Default::default() };
/// let model = Ransac::fit(cfg, &xs, &ys)?;
/// assert!((model.predict(&[50.0])[0] - 100.0).abs() < 1.0);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ransac {
    model: LinearRegression,
    inliers: usize,
}

impl Ransac {
    /// Fits a robust linear model.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::NotEnoughSamples`] when fewer than
    /// `config.min_samples` rows are supplied, [`MlError::InvalidParameter`]
    /// for a non-positive threshold or zero iterations, and propagates base
    /// model errors if even the full-data fallback fit fails.
    pub fn fit(config: RansacConfig, xs: &[Vec<f64>], ys: &[Vec<f64>]) -> Result<Self, MlError> {
        if config.iterations == 0 {
            return Err(MlError::InvalidParameter("iterations must be positive"));
        }
        if config.inlier_threshold <= 0.0 || config.inlier_threshold.is_nan() {
            return Err(MlError::InvalidParameter(
                "inlier_threshold must be positive",
            ));
        }
        if xs.len() < config.min_samples {
            return Err(MlError::NotEnoughSamples {
                required: config.min_samples,
                available: xs.len(),
            });
        }
        if xs.len() != ys.len() {
            return Err(MlError::DimensionMismatch {
                expected: xs.len(),
                found: ys.len(),
            });
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut indices: Vec<usize> = (0..xs.len()).collect();
        let mut best: Option<(Vec<usize>, usize)> = None; // (inlier idx, count)
        for _ in 0..config.iterations {
            indices.shuffle(&mut rng);
            let sample = &indices[..config.min_samples];
            let sx: Vec<Vec<f64>> = sample.iter().map(|&i| xs[i].clone()).collect();
            let sy: Vec<Vec<f64>> = sample.iter().map(|&i| ys[i].clone()).collect();
            // Degenerate minimal sets (collinear points) fail to fit; skip.
            let Ok(candidate) = LinearRegression::fit(&sx, &sy) else {
                continue;
            };
            let inliers: Vec<usize> = (0..xs.len())
                .filter(|&i| residual(&candidate, &xs[i], &ys[i]) <= config.inlier_threshold)
                .collect();
            if best.as_ref().is_none_or(|(_, n)| inliers.len() > *n) {
                let n = inliers.len();
                best = Some((inliers, n));
            }
        }
        let (inlier_idx, count) = best.ok_or(MlError::SingularSystem)?;
        // Refit on the consensus set; fall back to all data when consensus is
        // too small to determine the model.
        let (fx, fy): (Vec<Vec<f64>>, Vec<Vec<f64>>) = if inlier_idx.len() >= config.min_samples {
            (
                inlier_idx.iter().map(|&i| xs[i].clone()).collect(),
                inlier_idx.iter().map(|&i| ys[i].clone()).collect(),
            )
        } else {
            (xs.to_vec(), ys.to_vec())
        };
        let model = LinearRegression::fit(&fx, &fy)?;
        Ok(Ransac {
            model,
            inliers: count,
        })
    }
}

fn residual(model: &LinearRegression, x: &[f64], y: &[f64]) -> f64 {
    let p = model.predict(x);
    p.iter().zip(y).map(|(a, b)| (a - b).abs()).sum::<f64>() / y.len() as f64
}

impl Regressor for Ransac {
    fn predict(&self, x: &[f64]) -> Vec<f64> {
        self.model.predict(x)
    }

    fn name(&self) -> &'static str {
        "RANSAC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with_outliers(outliers: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let mut ys: Vec<Vec<f64>> = (0..30).map(|i| vec![3.0 * i as f64 + 1.0]).collect();
        for k in 0..outliers {
            xs.push(vec![k as f64]);
            ys.push(vec![1000.0 + k as f64]);
        }
        (xs, ys)
    }

    fn cfg() -> RansacConfig {
        RansacConfig {
            iterations: 200,
            inlier_threshold: 0.5,
            min_samples: 3,
            seed: 42,
        }
    }

    #[test]
    fn ignores_gross_outliers() {
        let (xs, ys) = line_with_outliers(8);
        let m = Ransac::fit(cfg(), &xs, &ys).unwrap();
        assert!((m.predict(&[100.0])[0] - 301.0).abs() < 0.5);
        assert!(m.inliers >= 30);
    }

    #[test]
    fn plain_least_squares_is_skewed_by_same_outliers() {
        // Sanity check that RANSAC is actually doing something: OLS on the
        // same data is pulled far off the line.
        let (xs, ys) = line_with_outliers(8);
        let ols = LinearRegression::fit(&xs, &ys).unwrap();
        assert!((ols.predict(&[100.0])[0] - 301.0).abs() > 10.0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let (xs, ys) = line_with_outliers(5);
        let a = Ransac::fit(cfg(), &xs, &ys).unwrap();
        let b = Ransac::fit(cfg(), &xs, &ys).unwrap();
        assert_eq!(a.predict(&[10.0]), b.predict(&[10.0]));
    }

    #[test]
    fn validates_input() {
        let (xs, ys) = line_with_outliers(0);
        assert!(matches!(
            Ransac::fit(
                RansacConfig {
                    min_samples: 1000,
                    ..cfg()
                },
                &xs,
                &ys
            ),
            Err(MlError::NotEnoughSamples { .. })
        ));
        assert!(Ransac::fit(
            RansacConfig {
                iterations: 0,
                ..cfg()
            },
            &xs,
            &ys
        )
        .is_err());
        assert!(Ransac::fit(
            RansacConfig {
                inlier_threshold: 0.0,
                ..cfg()
            },
            &xs,
            &ys
        )
        .is_err());
    }
}
