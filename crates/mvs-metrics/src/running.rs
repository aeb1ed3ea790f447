//! Running mean/variance accumulation (Welford's algorithm) for
//! multi-seed experiment replication.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean and variance.
///
/// # Examples
///
/// ```
/// use mvs_metrics::Running;
///
/// let mut r = Running::new();
/// for v in [2.0, 4.0, 6.0] {
///     r.push(v);
/// }
/// assert_eq!(r.mean(), 4.0);
/// assert!((r.sample_std() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    rejected: u64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is not finite. Degraded-run metric paths that
    /// may legitimately produce NaN/Inf (fault-injection experiments)
    /// should use [`Running::try_push`] instead, which tags the sample
    /// rather than aborting the whole experiment.
    pub fn push(&mut self, value: f64) {
        assert!(value.is_finite(), "running-stat samples must be finite");
        self.accept(value);
    }

    /// Adds one sample if it is finite; otherwise counts it as rejected
    /// (see [`Running::rejected`]) and leaves the statistics untouched.
    /// Returns whether the sample was accepted.
    pub fn try_push(&mut self, value: f64) -> bool {
        if value.is_finite() {
            self.accept(value);
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    fn accept(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of non-finite samples rejected by [`Running::try_push`].
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample (Bessel-corrected) standard deviation; `0.0` with fewer than
    /// two samples.
    pub fn sample_std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Formats as `mean ± std` with the given precision.
    pub fn format(&self, precision: usize) -> String {
        format!(
            "{:.p$} ± {:.p$}",
            self.mean(),
            self.sample_std(),
            p = precision
        )
    }
}

impl Extend<f64> for Running {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.sample_std(), 0.0);
    }

    #[test]
    fn matches_direct_computation() {
        let samples = [1.5, -2.0, 7.25, 0.0, 3.125];
        let mut r = Running::new();
        r.extend(samples);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((r.mean() - mean).abs() < 1e-12);
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        assert!((r.sample_std() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_std() {
        let mut r = Running::new();
        r.push(42.0);
        assert_eq!(r.mean(), 42.0);
        assert_eq!(r.sample_std(), 0.0);
    }

    #[test]
    fn stable_under_large_offsets() {
        // Welford's point: offset by 1e9 must not destroy the variance.
        let mut r = Running::new();
        for v in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            r.push(v);
        }
        assert!((r.mean() - (1e9 + 10.0)).abs() < 1e-3);
        assert!((r.sample_std() - 30f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn format_renders_mean_and_std() {
        let mut r = Running::new();
        r.extend([1.0, 3.0]);
        assert_eq!(r.format(1), "2.0 ± 1.4");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Running::new().push(f64::NAN);
    }

    #[test]
    fn try_push_tags_non_finite_instead_of_panicking() {
        let mut r = Running::new();
        assert!(r.try_push(1.0));
        assert!(!r.try_push(f64::NAN));
        assert!(!r.try_push(f64::INFINITY));
        assert!(!r.try_push(f64::NEG_INFINITY));
        assert!(r.try_push(3.0));
        assert_eq!(r.count(), 2);
        assert_eq!(r.rejected(), 3);
        assert_eq!(r.mean(), 2.0);
    }

    #[test]
    fn try_push_nan_as_first_sample_leaves_stats_zeroed() {
        // A NaN arriving before any accepted sample must not poison the
        // accumulator: Welford's update would turn one NaN into NaN mean
        // and variance forever if it slipped through.
        let mut r = Running::new();
        assert!(!r.try_push(f64::NAN));
        assert_eq!(r.count(), 0);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.sample_std(), 0.0);
        // The accumulator still works normally afterwards.
        assert!(r.try_push(5.0));
        assert!(r.try_push(9.0));
        assert_eq!(r.mean(), 7.0);
        assert!(r.mean().is_finite());
    }

    #[test]
    fn try_push_inf_as_first_sample_leaves_stats_zeroed() {
        let mut r = Running::new();
        assert!(!r.try_push(f64::INFINITY));
        assert!(!r.try_push(f64::NEG_INFINITY));
        assert_eq!(r.count(), 0);
        assert_eq!(r.rejected(), 2);
        assert_eq!(r.mean(), 0.0);
        assert!(r.try_push(-4.0));
        assert_eq!(r.mean(), -4.0);
        assert_eq!(r.count(), 1);
    }
}
