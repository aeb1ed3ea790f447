//! Classification and regression quality metrics.

/// Confusion counts for a binary classification task where label `1` is the
/// positive class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinaryConfusion {
    /// Predicted positive, actually positive.
    pub tp: usize,
    /// Predicted positive, actually negative.
    pub fp: usize,
    /// Predicted negative, actually negative.
    pub tn: usize,
    /// Predicted negative, actually positive.
    pub fn_: usize,
}

impl BinaryConfusion {
    /// Tallies predictions against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn from_predictions(pred: &[usize], truth: &[usize]) -> Self {
        assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
        let mut c = BinaryConfusion::default();
        for (&p, &t) in pred.iter().zip(truth) {
            match (p != 0, t != 0) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// Precision = TP / (TP + FP); `1.0` when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall = TP / (TP + FN); `1.0` when there were no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }
}

/// Fraction of matching labels; `0.0` for empty input.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [1, 1, 0, 0, 1];
        let truth = [1, 0, 0, 1, 1];
        let c = BinaryConfusion::from_predictions(&pred, &truth);
        assert_eq!(
            c,
            BinaryConfusion {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_precision_recall() {
        let c = BinaryConfusion::from_predictions(&[0, 0], &[0, 0]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 0, 1], &[1, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
