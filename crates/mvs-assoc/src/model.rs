//! Per-camera-pair visibility classifier and location regressor.

use mvs_geometry::BBox;
use mvs_ml::{Classifier, KnnClassifier, KnnRegressor, MlError};
use serde::{Deserialize, Serialize};

/// One labeled training sample for a (source → target) camera pair: an
/// object's box in the source camera and, when it is also visible in the
/// target camera, its box there.
///
/// In the paper these labels come from human annotation of the deployment
/// (with ReID-assisted labeling listed as future work); in this workspace
/// the simulator provides them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrespondenceSample {
    /// Bounding box in the source camera.
    pub src: BBox,
    /// Bounding box in the target camera, or `None` when not visible there.
    pub dst: Option<BBox>,
}

/// Coordinates up to this magnitude keep every intermediate of a KNN
/// regression finite (see [`CameraPairModel::is_visible`]).
const BOUNDED_COORD: f64 = 1e150;

fn all_bounded(coords: &[f64; 4]) -> bool {
    coords.iter().all(|v| v.abs() <= BOUNDED_COORD)
}

/// The fitted models for one ordered camera pair (source → target).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CameraPairModel {
    classifier: KnnClassifier,
    regressor: Option<KnnRegressor>,
    /// Every training coordinate (source and target boxes) is at most
    /// [`BOUNDED_COORD`] in magnitude. Fixed by [`train_pair_model`]; a
    /// model serialized before the field existed reads `false`, the slow,
    /// always-correct side of [`CameraPairModel::is_visible`].
    #[serde(default)]
    bounded: bool,
}

impl CameraPairModel {
    /// Predicts the target-camera bounding box for a source-camera box:
    /// `None` when the classifier says the object is not visible there (or
    /// no regressor could be trained for this pair).
    ///
    /// Runs on every camera every frame, so it stays on the stack: no heap
    /// allocation on either path for `k ≤ 8` (`tests/zero_alloc.rs`).
    pub fn predict(&self, src: &BBox) -> Option<BBox> {
        let features = src.to_array();
        if self.classifier.predict(&features) == 0 {
            return None;
        }
        let regressor = self.regressor.as_ref()?;
        let mut coords = [0.0; 4];
        regressor.predict_into(&features, &mut coords);
        BBox::from_array_lenient(coords).ok()
    }

    /// `self.predict(src).is_some()` for every input, at the cost of the
    /// classifier query alone whenever the regression can be *proved*
    /// finite instead of computed (DESIGN.md §17): with every training and
    /// query coordinate at most 1e150 in magnitude no squared difference
    /// overflows, so an exact hit returns a stored finite target and
    /// otherwise the weights lie in `(0, 1e12]` and a weighted mean of
    /// bounded targets is finite — and finiteness is all
    /// [`BBox::from_array_lenient`] asks for. Any other input takes
    /// [`CameraPairModel::predict`].
    ///
    /// The distributed stage's takeover verdict asks exactly this question
    /// once per (shadow, owner) per frame and never reads the box.
    pub fn is_visible(&self, src: &BBox) -> bool {
        let features = src.to_array();
        if !(self.bounded && all_bounded(&features)) {
            return self.predict(src).is_some();
        }
        self.regressor.is_some() && self.classifier.predict(&features) != 0
    }

    /// Whether the pair ever observed a positive correspondence (i.e. has a
    /// usable regressor).
    pub fn has_regressor(&self) -> bool {
        self.regressor.is_some()
    }
}

/// Fits a [`CameraPairModel`] from labeled correspondences.
///
/// The classifier trains on all samples (visible vs. not); the regressor
/// trains on the visible subset only. Pairs whose views never overlap get
/// a classifier-only model that always predicts "not visible".
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] for empty input and propagates
/// invalid `k`.
///
/// # Examples
///
/// ```
/// use mvs_assoc::{train_pair_model, CorrespondenceSample};
/// use mvs_geometry::BBox;
///
/// // Target view shifts boxes 100 px right.
/// let samples: Vec<CorrespondenceSample> = (0..20).map(|i| {
///     let x = 50.0 + 10.0 * i as f64;
///     CorrespondenceSample {
///         src: BBox::new(x, 100.0, x + 40.0, 140.0).unwrap(),
///         dst: Some(BBox::new(x + 100.0, 100.0, x + 140.0, 140.0).unwrap()),
///     }
/// }).collect();
/// let model = train_pair_model(3, &samples)?;
/// let probe = BBox::new(95.0, 100.0, 135.0, 140.0).unwrap();
/// let mapped = model.predict(&probe).unwrap();
/// assert!((mapped.x1() - 195.0).abs() < 20.0);
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
pub fn train_pair_model(
    k: usize,
    samples: &[CorrespondenceSample],
) -> Result<CameraPairModel, MlError> {
    if samples.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    let xs: Vec<[f64; 4]> = samples.iter().map(|s| s.src.to_array()).collect();
    let labels: Vec<usize> = samples
        .iter()
        .map(|s| usize::from(s.dst.is_some()))
        .collect();
    let classifier = KnnClassifier::fit(k, &xs, &labels)?;
    let (rx, ry): (Vec<[f64; 4]>, Vec<[f64; 4]>) = samples
        .iter()
        .filter_map(|s| s.dst.map(|dst| (s.src.to_array(), dst.to_array())))
        .unzip();
    let regressor = if rx.is_empty() {
        None
    } else {
        Some(KnnRegressor::fit(k, &rx, &ry)?)
    };
    let bounded = samples.iter().all(|s| {
        all_bounded(&s.src.to_array()) && s.dst.is_none_or(|dst| all_bounded(&dst.to_array()))
    });
    Ok(CameraPairModel {
        classifier,
        regressor,
        bounded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f64, y: f64, w: f64, h: f64) -> BBox {
        BBox::new(x, y, x + w, y + h).unwrap()
    }

    /// Overlap only in the right half of the source view; mapped boxes are
    /// mirrored horizontally (a 180° opposing camera).
    fn mirrored_overlap_samples() -> Vec<CorrespondenceSample> {
        let mut out = Vec::new();
        for i in 0..40 {
            let x = 20.0 + 30.0 * i as f64 % 1200.0;
            let src = bb(x, 200.0, 60.0, 50.0);
            let dst = if x > 600.0 {
                Some(bb(1280.0 - x - 60.0, 210.0, 60.0, 50.0))
            } else {
                None
            };
            out.push(CorrespondenceSample { src, dst });
        }
        out
    }

    #[test]
    fn classifier_learns_overlap_region() {
        let model = train_pair_model(3, &mirrored_overlap_samples()).unwrap();
        // Deep in the non-overlap region → not visible.
        assert!(model.predict(&bb(100.0, 200.0, 60.0, 50.0)).is_none());
        // Deep in the overlap region → visible with a mirrored location.
        let mapped = model.predict(&bb(1000.0, 200.0, 60.0, 50.0));
        assert!(mapped.is_some());
    }

    #[test]
    fn regressor_learns_nonlinear_mirror() {
        let model = train_pair_model(3, &mirrored_overlap_samples()).unwrap();
        let mapped = model.predict(&bb(900.0, 200.0, 60.0, 50.0)).unwrap();
        // Mirror of x=900 is 1280-900-60 = 320.
        assert!(
            (mapped.x1() - 320.0).abs() < 120.0,
            "mapped.x1 = {}",
            mapped.x1()
        );
    }

    #[test]
    fn disjoint_views_yield_classifier_only_model() {
        let samples: Vec<CorrespondenceSample> = (0..10)
            .map(|i| CorrespondenceSample {
                src: bb(50.0 * i as f64, 100.0, 40.0, 40.0),
                dst: None,
            })
            .collect();
        let model = train_pair_model(3, &samples).unwrap();
        assert!(!model.has_regressor());
        assert!(model.predict(&bb(100.0, 100.0, 40.0, 40.0)).is_none());
    }

    #[test]
    fn empty_training_set_errors() {
        assert!(matches!(
            train_pair_model(3, &[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }
}
