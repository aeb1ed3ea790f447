//! A small, self-contained machine-learning toolbox.
//!
//! The cross-camera object association module of the paper (Sec. II-C)
//! compares a K-nearest-neighbour classifier/regressor against several
//! classical baselines. All of them are implemented here from scratch:
//!
//! * [`KnnClassifier`] / [`KnnRegressor`] — the paper's chosen models, over
//!   the exact [`KnnIndex`] (shareable: several label sets can cast their
//!   [`majority_vote`] on one neighbour list, and one resumable [`Sweep`]
//!   fills a [`TopK`] per set for [`inverse_distance_mean`]);
//! * [`LogisticRegression`] — binary classification baseline;
//! * [`LinearSvm`] — linear support-vector machine (Pegasos) baseline;
//! * [`DecisionTree`] — CART classification baseline;
//! * [`LinearRegression`] — multi-output ridge regression ("learnable
//!   homography") baseline;
//! * [`Ransac`] — robust regression baseline;
//! * [`estimate_homography`] — classical homography fit (fixed-scale DLT);
//! * [`hungarian`] — the Kuhn–Munkres assignment algorithm used for
//!   detection↔prediction matching.
//!
//! Everything works on `&[Vec<f64>]` feature rows (the KNN models also
//! take fixed-width array rows); there is no external linear-algebra
//! dependency — [`Matrix`] provides the little that is needed (Gaussian
//! elimination and normal equations).
//!
//! # Examples
//!
//! ```
//! use mvs_ml::{KnnClassifier, Classifier};
//!
//! let xs = vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0], vec![5.1, 5.0]];
//! let ys = vec![0, 0, 1, 1];
//! let knn = KnnClassifier::fit(3, &xs, &ys)?;
//! assert_eq!(knn.predict(&[0.05, 0.05]), 0);
//! assert_eq!(knn.predict(&[4.9, 5.2]), 1);
//! # Ok::<(), mvs_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod error;
mod homography;
mod hungarian;
mod knn;
mod linreg;
mod logistic;
mod matrix;
mod metrics;
mod ransac;
mod svm;
mod traits;
mod tree;
mod validate;

pub use dataset::train_test_split;
pub use error::MlError;
pub use homography::estimate_homography;
pub use hungarian::{hungarian, hungarian_max, Assignment as HungarianAssignment, HungarianSolver};
#[doc(hidden)]
pub use knn::brute_force_k_nearest;
pub use knn::{
    inverse_distance_mean, majority_vote, KnnClassifier, KnnIndex, KnnRegressor, Neighbour, Sweep,
    TopK,
};
pub use linreg::LinearRegression;
pub use logistic::LogisticRegression;
pub use matrix::Matrix;
pub use metrics::{accuracy, BinaryConfusion};
pub use ransac::{Ransac, RansacConfig};
pub use svm::LinearSvm;
pub use traits::{Classifier, Regressor};
pub use tree::{DecisionTree, DecisionTreeConfig};
pub use validate::cross_validate;
