//! Per-camera cross-camera models: one table of the camera's labeled boxes,
//! one visibility-and-location head per paired destination camera.

use mvs_geometry::BBox;
use mvs_ml::{majority_vote, KnnIndex, KnnRegressor, MlError, Neighbour};
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
/// regression finite (see [`CameraSourceModel::is_visible`]).
const BOUNDED_COORD: f64 = 1e150;

fn all_bounded(coords: &[f64; 4]) -> bool {
    coords.iter().all(|v| v.abs() <= BOUNDED_COORD)
}

/// What a source camera has learned about one destination camera, over the
/// rows of the [`CameraSourceModel`] it hangs off.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Head {
    /// Per source row, `1` when the destination saw the object too.
    labels: Vec<u8>,
    /// Where a visible box lands in the destination, fitted on the rows
    /// labeled `1` alone; `None` when there are none.
    regressor: Option<KnnRegressor>,
    /// Every training coordinate (the source rows and this head's target
    /// boxes) is at most [`BOUNDED_COORD`] in magnitude. Fixed by
    /// [`train_source_model`]; a model serialized before the field existed
    /// reads `false`, the slow, always-correct side of
    /// [`CameraSourceModel::is_visible`].
    #[serde(default)]
    bounded: bool,
}

/// The fitted models of one source camera toward every destination it is
/// paired with: the camera's labeled boxes are indexed **once**, and each
/// destination adds a *head* — a label per row, a regressor over the rows
/// it shares, nothing else. A head answers exactly as a pair model trained
/// on that pair's samples alone would (DESIGN.md §17): the neighbour list
/// of a query depends only on the rows, which every destination's samples
/// share, and each head casts its own vote on it.
///
/// Heads are addressed by their position in [`train_source_model`]'s
/// `positives`; which destination camera a position stands for is the
/// caller's to keep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CameraSourceModel {
    k: usize,
    index: KnnIndex,
    heads: Vec<Head>,
}

impl CameraSourceModel {
    /// Number of destination heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// `(classifier rows, regressor rows)` this model keeps indexed: the
    /// source's labeled boxes once, plus every head's positives.
    pub fn indexed_rows(&self) -> (usize, usize) {
        let regressed = self.heads.iter().flat_map(|h| &h.regressor);
        (self.index.len(), regressed.map(KnnRegressor::len).sum())
    }

    /// Whether `head`'s destination ever observed a positive correspondence
    /// (i.e. the head has a usable regressor).
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range (as do the queries below).
    pub fn has_regressor(&self, head: usize) -> bool {
        self.heads[head].regressor.is_some()
    }

    /// Predicts the bounding box in `head`'s destination camera for a
    /// source-camera box: `None` when the head's vote says the object is
    /// not visible there (or the head has no regressor).
    ///
    /// Runs on every camera every frame, so it stays on the stack: no heap
    /// allocation on either path for `k ≤ 8` (`tests/zero_alloc.rs`).
    pub fn predict(&self, head: usize, src: &BBox) -> Option<BBox> {
        self.index.with_nearest(&src.to_array(), self.k, |nearest| {
            self.predict_from(head, src, nearest)
        })
    }

    /// [`CameraSourceModel::predict`] given `src`'s neighbour list, which is
    /// the same for every head: an association round sweeps the table once
    /// per box ([`CameraSourceModel::sweep_into`]) and asks each head.
    pub(crate) fn predict_from(
        &self,
        head: usize,
        src: &BBox,
        nearest: &[Neighbour],
    ) -> Option<BBox> {
        let head = &self.heads[head];
        if !head.votes_visible(nearest) {
            return None;
        }
        let regressor = head.regressor.as_ref()?;
        let mut coords = [0.0; 4];
        regressor.predict_into(&src.to_array(), &mut coords);
        BBox::from_array_lenient(coords).ok()
    }

    /// Sweeps the table once per box: `nearest` gets the boxes' neighbour
    /// lists back to back (`boxes × k` entries) and `ends[j]` where box
    /// `j`'s list ends. Both are cleared first and never shrunk.
    pub(crate) fn sweep_into(
        &self,
        boxes: &[BBox],
        nearest: &mut Vec<Neighbour>,
        ends: &mut Vec<usize>,
    ) {
        nearest.clear();
        nearest.reserve(boxes.len() * self.k.min(self.index.len()));
        ends.clear();
        ends.reserve(boxes.len());
        for b in boxes {
            self.index.nearest_into(&b.to_array(), self.k, nearest);
            ends.push(nearest.len());
        }
    }

    /// `self.predict(head, src).is_some()` for every input, at the cost of
    /// the classifier vote alone whenever the regression can be *proved*
    /// finite instead of computed (DESIGN.md §17): with every training and
    /// query coordinate at most 1e150 in magnitude no squared difference
    /// overflows, so an exact hit returns a stored finite target and
    /// otherwise the weights lie in `(0, 1e12]` and a weighted mean of
    /// bounded targets is finite — and finiteness is all
    /// [`BBox::from_array_lenient`] asks for. Any other input takes
    /// [`CameraSourceModel::predict`].
    ///
    /// The distributed stage's takeover verdict asks exactly this question
    /// once per (shadow, owner) per frame and never reads the box.
    pub fn is_visible(&self, head: usize, src: &BBox) -> bool {
        let features = src.to_array();
        let h = &self.heads[head];
        if !(h.bounded && all_bounded(&features)) {
            return self.predict(head, src).is_some();
        }
        h.regressor.is_some()
            && self
                .index
                .with_nearest(&features, self.k, |nearest| h.votes_visible(nearest))
    }
}

impl Head {
    fn votes_visible(&self, nearest: &[Neighbour]) -> bool {
        majority_vote(nearest, |row| usize::from(self.labels[row])) != 0
    }
}

/// Fits a [`CameraSourceModel`]: `rows` are the source camera's labeled
/// boxes in arrival order, and `positives[h]` lists, for destination head
/// `h`, the rows that destination saw too — `(row, box there)`, rows
/// strictly ascending. Every row a head does not list is a negative for
/// it, so head `h` is the pair model of the samples
/// `(rows[r], positives[h] at r)`, `r = 0, 1, …`.
///
/// The vote of every head runs over all rows (visible vs. not); a head's
/// regressor trains on its positives only. A destination that never shared
/// an object gets a head that always answers "not visible".
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] for empty `rows`,
/// [`MlError::InvalidParameter`] for `k == 0` or a head whose rows are not
/// strictly ascending indices into `rows`, and propagates fitting errors.
///
/// # Examples
///
/// ```
/// use mvs_assoc::train_source_model;
/// use mvs_geometry::BBox;
///
/// let bb = |x: f64| BBox::new(x, 100.0, x + 40.0, 140.0).unwrap();
/// let rows: Vec<BBox> = (0..20).map(|i| bb(50.0 + 10.0 * f64::from(i))).collect();
/// // Destination 0 sees everything, shifted 100 px right; destination 1
/// // only the left half, shifted 30 px left.
/// let right: Vec<_> = (0..20).map(|r| (r, bb(150.0 + 10.0 * r as f64))).collect();
/// let left: Vec<_> = (0..10).map(|r| (r, bb(20.0 + 10.0 * r as f64))).collect();
/// let model = train_source_model(3, &rows, &[&right, &left])?;
/// let probe = bb(225.0);
/// assert!((model.predict(0, &probe).unwrap().x1() - 325.0).abs() < 20.0);
/// assert!(!model.is_visible(1, &probe));
/// # Ok::<(), mvs_ml::MlError>(())
/// ```
pub fn train_source_model(
    k: usize,
    rows: &[BBox],
    positives: &[&[(usize, BBox)]],
) -> Result<CameraSourceModel, MlError> {
    if rows.is_empty() {
        return Err(MlError::EmptyTrainingSet);
    }
    if k == 0 {
        return Err(MlError::InvalidParameter("k must be positive"));
    }
    let xs: Vec<[f64; 4]> = rows.iter().map(BBox::to_array).collect();
    let index = KnnIndex::build(&xs)?;
    let rows_bounded = xs.iter().all(all_bounded);
    let heads = positives
        .iter()
        .map(|positives| {
            let mut labels = vec![0u8; xs.len()];
            let mut rx = Vec::with_capacity(positives.len());
            let mut ry = Vec::with_capacity(positives.len());
            let mut next_row = 0;
            for &(row, dst) in *positives {
                if row < next_row || row >= xs.len() {
                    return Err(MlError::InvalidParameter(
                        "positives must list strictly ascending source rows",
                    ));
                }
                next_row = row + 1;
                labels[row] = 1;
                rx.push(xs[row]);
                ry.push(dst.to_array());
            }
            let regressor = if rx.is_empty() {
                None
            } else {
                Some(KnnRegressor::fit(k, &rx, &ry)?)
            };
            Ok(Head {
                labels,
                regressor,
                bounded: rows_bounded && ry.iter().all(all_bounded),
            })
        })
        .collect::<Result<Vec<Head>, MlError>>()?;
    Ok(CameraSourceModel { k, index, heads })
}

/// The fitted models for one ordered camera pair (source → target): a
/// [`CameraSourceModel`] with a single head.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CameraPairModel {
    pub(crate) source: CameraSourceModel,
}

impl CameraPairModel {
    /// Predicts the target-camera bounding box for a source-camera box
    /// ([`CameraSourceModel::predict`] of the one head).
    pub fn predict(&self, src: &BBox) -> Option<BBox> {
        self.source.predict(0, src)
    }

    /// `self.predict(src).is_some()` without regressing the box nobody
    /// reads ([`CameraSourceModel::is_visible`] of the one head).
    pub fn is_visible(&self, src: &BBox) -> bool {
        self.source.is_visible(0, src)
    }

    /// Whether the pair ever observed a positive correspondence (i.e. has a
    /// usable regressor).
    pub fn has_regressor(&self) -> bool {
        self.source.has_regressor(0)
    }
}

/// Fits a [`CameraPairModel`] from labeled correspondences: the
/// one-destination case of [`train_source_model`], with the samples'
/// source boxes as rows and the visible ones as the head's positives.
///
/// Pairs whose views never overlap get a model that always predicts "not
/// visible".
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
    let rows: Vec<BBox> = samples.iter().map(|s| s.src).collect();
    let positives: Vec<(usize, BBox)> = samples
        .iter()
        .enumerate()
        .filter_map(|(row, s)| s.dst.map(|dst| (row, dst)))
        .collect();
    let source = train_source_model(k, &rows, &[&positives])?;
    Ok(CameraPairModel { source })
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
