//! Per-camera cross-camera models: one table of the camera's labeled boxes,
//! one visibility-and-location head per paired destination camera.

use mvs_geometry::BBox;
use mvs_ml::{inverse_distance_mean, KnnIndex, MlError, Neighbour, Sweep, TopK};
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

/// Neighbour lists up to this long live on the stack.
const INLINE_K: usize = 8;

/// What a source camera has learned about one destination camera, over the
/// rows of the [`CameraSourceModel`] it hangs off: a label per row and a
/// target per positive row, `n + 36·p` bytes.
#[derive(Debug, Clone)]
struct Head {
    /// Per source row, `1` when the destination saw the object too.
    labels: Vec<u8>,
    /// The rows labeled `1`, ascending.
    positives: Vec<u32>,
    /// Where each of `positives` landed in the destination.
    targets: Vec<[f64; 4]>,
    /// Every training coordinate (the source rows and this head's target
    /// boxes) is at most [`BOUNDED_COORD`] in magnitude; otherwise
    /// [`CameraSourceModel::is_visible`] takes its slow, always-correct
    /// side.
    bounded: bool,
}

/// The fitted models of one source camera toward every destination it is
/// paired with: the camera's labeled boxes are indexed **once**, and each
/// destination adds a *head* — a label per row, a destination box per row
/// it shares, nothing else. A head answers exactly as a pair model trained
/// on that pair's samples alone would (DESIGN.md §17): the neighbour list
/// of a query depends only on the rows, which every destination's samples
/// share; each head casts its own vote on it, and the `k` nearest of a
/// head's positives are the `k` nearest the same sweep meets among them.
///
/// Heads are addressed by their position in [`train_source_model`]'s
/// `positives`; which destination camera a position stands for is the
/// caller's to keep.
#[derive(Debug, Clone)]
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

    /// `(rows indexed, positives kept as targets)`: the source's labeled
    /// boxes once, plus a destination box per positive of every head.
    pub fn indexed_rows(&self) -> (usize, usize) {
        let targets = self.heads.iter().map(|h| h.targets.len()).sum();
        (self.index.len(), targets)
    }

    /// Whether `head`'s destination ever observed a positive correspondence
    /// (i.e. the head has targets to regress from).
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range (as do the queries below).
    pub fn has_regressor(&self, head: usize) -> bool {
        !self.heads[head].targets.is_empty()
    }

    /// Predicts the bounding box in `head`'s destination camera for a
    /// source-camera box: `None` when the head's vote says the object is
    /// not visible there (or the head has no positives).
    ///
    /// Stays on the stack: no heap allocation on either path for `k ≤ 8`
    /// (`tests/zero_alloc.rs`).
    pub fn predict(&self, head: usize, src: &BBox) -> Option<BBox> {
        let mut landed = None;
        self.predict_asked(src, std::iter::once(head), |_, there| landed = Some(there));
        landed
    }

    /// [`CameraSourceModel::predict`] for every head of `asked` in **one
    /// sweep** of the table: `landed(a, there)` is called, in `asked`
    /// order, for each head (the `a`-th asked) that predicts a box.
    ///
    /// The sweep runs until the list of `src`'s nearest rows is final and
    /// every asked head votes on it. A head that votes visible regresses
    /// from its own nearest positives: the voted list when all of it is
    /// positive, else [`Head::nearest_positives`]. A later head finds more
    /// rows visited and lists the same: nothing beyond its reach can enter.
    pub(crate) fn predict_asked(
        &self,
        src: &BBox,
        asked: impl Iterator<Item = usize>,
        mut landed: impl FnMut(usize, BBox),
    ) {
        let features = src.to_array();
        let Some(mut sweep) = self.index.sweep(&features) else {
            return;
        };
        let len = self.k.min(self.index.len());
        let mut inline = [TopK::VACANT; 2 * INLINE_K];
        let mut spill = Vec::new();
        let slots = if len <= INLINE_K {
            &mut inline[..2 * len]
        } else {
            spill.resize(2 * len, TopK::VACANT);
            &mut spill[..]
        };
        let (nearest, own) = slots.split_at_mut(len);
        let mut nearest = TopK::clear(nearest);
        while let Some(row) = sweep.next_within(nearest.reach()) {
            nearest.offer(row);
        }
        let nearest = nearest.found();
        for (a, head) in asked.enumerate() {
            let head = &self.heads[head];
            if !head.votes_visible(nearest) {
                continue;
            }
            let listed = if head.positives_among(nearest) == nearest.len() {
                // The nearest rows are all positives, so they are the
                // nearest positives.
                nearest
            } else {
                head.nearest_positives(&mut sweep, own).found()
            };
            let mut coords = [0.0; 4];
            inverse_distance_mean(listed, |row| head.target_of(row), &mut coords);
            if let Ok(there) = BBox::from_array_lenient(coords) {
                landed(a, there);
            }
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
        !h.targets.is_empty()
            && self
                .index
                .with_nearest(&features, self.k, |nearest| h.votes_visible(nearest))
    }
}

impl Head {
    /// How many of the listed rows this head labels `1`.
    fn positives_among(&self, nearest: &[Neighbour]) -> usize {
        let label = |&(row, _): &Neighbour| usize::from(self.labels[row as usize]);
        nearest.iter().map(label).sum()
    }

    /// The two-label majority vote, ties to "not visible".
    fn votes_visible(&self, nearest: &[Neighbour]) -> bool {
        2 * self.positives_among(nearest) > nearest.len()
    }

    /// The positives nearest the query of `sweep`, up to `own.len()` of
    /// them: listed from the rows the sweep has visited, which is resumed
    /// only while the list reaches its next gap.
    fn nearest_positives<'s>(&self, sweep: &mut Sweep, own: &'s mut [Neighbour]) -> TopK<'s> {
        // A head with fewer positives than slots closes its list on the
        // last of them, not at the table's end.
        let wanted = own.len().min(self.targets.len());
        let mut list = TopK::clear(&mut own[..wanted]);
        let is_positive = |row: u32| self.labels[row as usize] != 0;
        for row in sweep.visited(is_positive) {
            list.offer(row);
        }
        while let Some(row) = sweep.next_within(list.reach()) {
            if is_positive(row.0) {
                list.offer(row);
            }
        }
        list
    }

    /// The destination box of a row labeled `1`.
    fn target_of(&self, row: usize) -> &[f64] {
        let slot = self.positives.binary_search(&(row as u32));
        &self.targets[slot.expect("only positives are listed")]
    }
}

/// Fits a [`CameraSourceModel`]: `rows` are the source camera's labeled
/// boxes in arrival order, and `positives[h]` lists, for destination head
/// `h`, the rows that destination saw too — `(row, box there)`, rows
/// strictly ascending. Every row a head does not list is a negative for
/// it, so head `h` is the pair model of the samples
/// `(rows[r], positives[h] at r)`, `r = 0, 1, …`.
///
/// The vote of every head runs over all rows (visible vs. not); a head
/// regresses from its positives only. A destination that never shared an
/// object gets a head that always answers "not visible".
///
/// # Errors
///
/// Returns [`MlError::EmptyTrainingSet`] for empty `rows`,
/// [`MlError::InvalidParameter`] for `k == 0` or a head whose rows are not
/// strictly ascending indices into `rows`, [`MlError::NonFinite`] for a
/// destination box with a NaN or infinite coordinate (`row` counts the
/// head's positives), and propagates indexing errors.
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
    // No more than `u32::MAX` rows, or this fails.
    let index = KnnIndex::build(&xs)?;
    let rows_bounded = xs.iter().all(all_bounded);
    let heads = positives
        .iter()
        .map(|listed| {
            let mut head = Head {
                labels: vec![0u8; xs.len()],
                positives: Vec::with_capacity(listed.len()),
                targets: Vec::with_capacity(listed.len()),
                bounded: rows_bounded,
            };
            let mut next_row = 0;
            for (slot, &(row, dst)) in listed.iter().enumerate() {
                if row < next_row || row >= xs.len() {
                    return Err(MlError::InvalidParameter(
                        "positives must list strictly ascending source rows",
                    ));
                }
                next_row = row + 1;
                let target = dst.to_array();
                if !target.iter().all(|v| v.is_finite()) {
                    return Err(MlError::NonFinite { row: slot });
                }
                head.labels[row] = 1;
                head.positives.push(row as u32);
                head.bounded &= all_bounded(&target);
                head.targets.push(target);
            }
            Ok(head)
        })
        .collect::<Result<Vec<Head>, MlError>>()?;
    Ok(CameraSourceModel { k, index, heads })
}

/// The fitted models for one ordered camera pair (source → target): a
/// [`CameraSourceModel`] with a single head.
#[derive(Debug, Clone)]
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

    /// Every 0/1 list of up to eight neighbours: counting ones is the
    /// generic vote (most frequent label, ties to the lower one).
    #[test]
    fn two_label_vote_is_the_majority_vote() {
        let mut lists = 0;
        for len in 0..=8u32 {
            for bits in 0..1u32 << len {
                let head = Head {
                    labels: (0..len).map(|row| (bits >> row & 1) as u8).collect(),
                    positives: Vec::new(),
                    targets: Vec::new(),
                    bounded: true,
                };
                let nearest: Vec<Neighbour> = (0..len).map(|row| (row, f64::from(row))).collect();
                let generic = mvs_ml::majority_vote(&nearest, |row| usize::from(head.labels[row]));
                assert_eq!(
                    head.votes_visible(&nearest),
                    generic == 1,
                    "{bits:#b}/{len}"
                );
                lists += 1;
            }
        }
        assert_eq!(lists, 511);
    }

    /// A head asked after another finds the sweep further along: whatever
    /// subset of the heads is asked together, in whatever order, each
    /// answers as it does alone — on a coarse grid (ties everywhere), for
    /// `k` on both sides of the inline list.
    #[test]
    fn heads_asked_together_answer_as_each_alone() {
        let mut state = 9u64;
        let mut draw = move |below: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % below
        };
        for k in [1, 2, 3, 5, 8, 9, 12] {
            let grid_box = |draw: &mut dyn FnMut(u64) -> u64| {
                let (x, y) = (draw(6) as f64 * 40.0, draw(4) as f64 * 40.0);
                bb(x, y, 40.0 + draw(2) as f64 * 40.0, 40.0)
            };
            let rows: Vec<BBox> = (0..60).map(|_| grid_box(&mut draw)).collect();
            // Head h sees a band of the source view (the last one, two rows).
            let bands = [
                (0.0, 120.0),
                (80.0, 240.0),
                (0.0, 240.0),
                (160.0, 240.0),
                (200.0, 200.0),
            ];
            let positives: Vec<Vec<(usize, BBox)>> = bands
                .iter()
                .map(|&(lo, hi)| {
                    let seen = |b: &&BBox| b.x1() >= lo && b.x1() <= hi;
                    let there = |b: &BBox| bb(b.x1() - lo, b.y1() + 8.0, b.width(), 40.0);
                    let listed = rows.iter().enumerate().filter(|(_, b)| seen(b));
                    listed.map(|(row, b)| (row, there(b))).collect()
                })
                .collect();
            let listed: Vec<&[(usize, BBox)]> = positives.iter().map(Vec::as_slice).collect();
            let model = train_source_model(k, &rows, &listed).unwrap();
            let bits = |b: BBox| b.to_array().map(f64::to_bits);
            let mut landed = 0;
            for _ in 0..40 {
                let q = grid_box(&mut draw);
                let mut asked: Vec<usize> = (0..5).filter(|_| draw(3) > 0).collect();
                for i in (1..asked.len()).rev() {
                    asked.swap(i, draw(i as u64 + 1) as usize);
                }
                let mut together = Vec::new();
                model.predict_asked(&q, asked.iter().copied(), |a, there| {
                    together.push((asked[a], bits(there)));
                });
                let alone = asked
                    .iter()
                    .filter_map(|&h| Some((h, bits(model.predict(h, &q)?))));
                assert_eq!(
                    together,
                    alone.collect::<Vec<_>>(),
                    "k = {k}, {asked:?}, {q:?}"
                );
                landed += together.len();
            }
            assert!(landed > 20, "k = {k}: only {landed} boxes landed");
        }
    }

    #[test]
    fn empty_training_set_errors() {
        assert!(matches!(
            train_pair_model(3, &[]),
            Err(MlError::EmptyTrainingSet)
        ));
    }
}
