//! Error type for model fitting and prediction.

use std::fmt;

/// Error returned by model constructors and fitting routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MlError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// Feature rows (or targets) had inconsistent lengths.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Observed length.
        found: usize,
    },
    /// A hyper-parameter was invalid (e.g. `k = 0`).
    InvalidParameter(&'static str),
    /// A linear system was singular / underdetermined.
    SingularSystem,
    /// Not enough samples for the requested operation (e.g. RANSAC minimal
    /// set, homography's four correspondences).
    NotEnoughSamples {
        /// Samples required.
        required: usize,
        /// Samples available.
        available: usize,
    },
    /// A training row held a NaN or infinite value.
    NonFinite {
        /// Index of the first offending row.
        row: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTrainingSet => write!(f, "training set was empty"),
            MlError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            MlError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            MlError::SingularSystem => write!(f, "linear system was singular"),
            MlError::NotEnoughSamples {
                required,
                available,
            } => write!(f, "needed {required} samples, had {available}"),
            MlError::NonFinite { row } => write!(f, "training row {row} is not finite"),
        }
    }
}

impl std::error::Error for MlError {}
