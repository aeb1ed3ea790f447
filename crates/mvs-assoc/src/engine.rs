//! A full cross-camera association round.

use crate::{CameraPairModel, CameraSourceModel, UnionFind};
use mvs_geometry::BBox;
use mvs_ml::HungarianSolver;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One global (physical) object produced by association: the per-camera
/// detections that were identified as the same object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalObject {
    /// Members as `(camera index, detection index)` pairs, sorted.
    pub members: Vec<(usize, usize)>,
}

impl GlobalObject {
    /// Cameras that see this object.
    pub fn cameras(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|&(c, _)| c)
    }

    /// The detection index of this object on `camera`, if seen there.
    pub fn detection_on(&self, camera: usize) -> Option<usize> {
        self.members
            .iter()
            .find(|&&(c, _)| c == camera)
            .map(|&(_, d)| d)
    }
}

/// Runs association rounds given the fitted models for every ordered camera
/// pair `(i, i')` with `i < i'`.
///
/// # Examples
///
/// See the integration tests in `tests/` — building an engine requires
/// trained models, which in turn require a scenario's correspondence
/// labels (produced by `mvs-sim`).
#[derive(Debug, Clone)]
pub struct AssociationEngine {
    num_cameras: usize,
    /// Registered source models, in registration order.
    sources: Vec<SourceHeads>,
    iou_threshold: f64,
}

/// One source camera's model and the heads a round associates through.
#[derive(Debug, Clone)]
struct SourceHeads {
    source: usize,
    /// Shared, so a caller that also keeps the model (for the heads toward
    /// lower-indexed cameras) holds one copy.
    model: Arc<CameraSourceModel>,
    /// `(target camera, head)` pairs, every target above `source`.
    heads: Vec<(usize, usize)>,
}

impl AssociationEngine {
    /// Default minimum IoU between a predicted box and a detection for the
    /// pair to count as the same object.
    pub const DEFAULT_IOU_THRESHOLD: f64 = 0.15;

    /// Creates an engine over `num_cameras` cameras.
    ///
    /// # Panics
    ///
    /// Panics if `num_cameras` is zero or the threshold is outside `(0, 1]`.
    pub fn new(num_cameras: usize, iou_threshold: f64) -> Self {
        assert!(num_cameras > 0, "need at least one camera");
        assert!(
            iou_threshold > 0.0 && iou_threshold <= 1.0,
            "IoU threshold must be in (0, 1]"
        );
        AssociationEngine {
            num_cameras,
            sources: Vec::new(),
            iou_threshold,
        }
    }

    /// Registers camera `source`'s model (owned, or an `Arc` the caller
    /// keeps a handle to) for the ordered pairs `(source, target)` of
    /// `heads`, each `(target, head of the model)`. A round sweeps the
    /// model's table once per `source` box, for every listed head at once.
    ///
    /// # Panics
    ///
    /// Panics unless every head exists and every target satisfies
    /// `source < target < num_cameras`.
    pub fn insert_source(
        &mut self,
        source: usize,
        model: impl Into<Arc<CameraSourceModel>>,
        heads: Vec<(usize, usize)>,
    ) {
        let model = model.into();
        for &(target, head) in &heads {
            assert!(
                source < target && target < self.num_cameras,
                "pair must satisfy source < target < num_cameras"
            );
            assert!(head < model.num_heads(), "model has no head {head}");
        }
        self.sources.push(SourceHeads {
            source,
            model,
            heads,
        });
    }

    /// Registers the model for the ordered pair `(source, target)`: the
    /// one-head case of [`AssociationEngine::insert_source`].
    ///
    /// # Panics
    ///
    /// Panics unless `source < target < num_cameras`.
    pub fn insert_model(&mut self, source: usize, target: usize, model: CameraPairModel) {
        self.insert_source(source, model.source, vec![(target, 0)]);
    }

    /// Number of registered pair models (heads).
    pub fn num_models(&self) -> usize {
        self.sources.iter().map(|s| s.heads.len()).sum()
    }

    /// Associates one frame's detections (`detections[c]` are camera `c`'s
    /// boxes) into global objects.
    ///
    /// For every pair `(i, i')`, boxes from `i` that classify as visible in
    /// `i'` are regressed into `i'`, matched against `i'`'s detections by
    /// maximum-IoU Hungarian matching, and pairs above the IoU threshold
    /// are merged. Unmatched detections become singleton global objects.
    ///
    /// # Panics
    ///
    /// Panics if `detections.len() != num_cameras`.
    pub fn associate(&self, detections: &[Vec<BBox>]) -> Vec<GlobalObject> {
        self.associate_with(detections, &mut AssociationScratch::default())
    }

    /// [`AssociationEngine::associate`] over caller-held working memory: a
    /// caller that keeps `scratch` across rounds allocates only what it is
    /// handed back — the list and one member `Vec` per global object.
    ///
    /// # Panics
    ///
    /// Panics if `detections.len() != num_cameras`.
    pub fn associate_with(
        &self,
        detections: &[Vec<BBox>],
        scratch: &mut AssociationScratch,
    ) -> Vec<GlobalObject> {
        assert_eq!(
            detections.len(),
            self.num_cameras,
            "one detection list per camera required"
        );
        let AssociationScratch {
            offsets,
            uf,
            asked,
            landed,
            scores,
            solver,
            group_of,
            group_len,
        } = scratch;
        // Flatten to global indices.
        offsets.clear();
        let mut total = 0usize;
        for d in detections {
            offsets.push(total);
            total += d.len();
        }
        uf.reset(total);
        for entry in &self.sources {
            let (i, model) = (entry.source, &entry.model);
            let src = &detections[i];
            if src.is_empty() {
                continue;
            }
            let has_boxes = |&&(ip, _): &&(usize, usize)| !detections[ip].is_empty();
            asked.clear();
            asked.extend(entry.heads.iter().filter(has_boxes));
            if asked.is_empty() {
                continue;
            }
            // Step 1+2, box-major: one sweep of the source's table per
            // box classifies visibility for every asked head and regresses
            // the predicted location for those that vote visible.
            landed.clear();
            for (j, b) in src.iter().enumerate() {
                let heads = asked.iter().map(|&(_, head)| head);
                model.predict_asked(b, heads, |a, there| landed.push((a, j, there)));
            }
            // Head-major from here on, boxes ascending within a head.
            landed.sort_unstable_by_key(|&(a, j, _)| (a, j));
            for predicted in landed.chunk_by(|x, y| x.0 == y.0) {
                let (ip, _) = asked[predicted[0].0];
                let dst = &detections[ip];
                // Step 3: proximity matrix (row-major, one row per
                // predicted box) and Hungarian matching.
                scores.clear();
                for (_, _, p) in predicted {
                    scores.extend(dst.iter().map(|d| p.iou(d)));
                }
                let assignment = solver
                    .solve_max(predicted.len(), dst.len(), scores)
                    .expect("IoU scores are finite");
                for (row, col) in assignment.iter() {
                    if scores[row * dst.len() + col] >= self.iou_threshold {
                        let (_, j, _) = predicted[row];
                        uf.union(offsets[i] + j, offsets[ip] + col);
                    }
                }
            }
        }
        // Number the sets by their smallest member (flat indices ascend, so
        // first sight of a root is its smallest member), size them, and
        // note every member's set number in its own slot (a non-root's
        // slot is never read as a root's).
        group_of.clear();
        group_of.resize(total, usize::MAX);
        group_len.clear();
        for flat in 0..total {
            let root = uf.find(flat);
            if group_of[root] == usize::MAX {
                group_of[root] = group_len.len();
                group_len.push(0);
            }
            group_of[flat] = group_of[root];
            group_len[group_of[flat]] += 1;
        }
        let mut globals: Vec<GlobalObject> = group_len
            .iter()
            .map(|&len| GlobalObject {
                members: Vec::with_capacity(len),
            })
            .collect();
        // Ascending flat order is ascending `(camera, detection)` order, so
        // every member list comes out sorted.
        for (flat, &group) in group_of.iter().enumerate() {
            let camera = offsets.partition_point(|&o| o <= flat) - 1;
            globals[group]
                .members
                .push((camera, flat - offsets[camera]));
        }
        globals
    }
}

/// Working memory of [`AssociationEngine::associate_with`]: cleared, never
/// shrunk, so a round over shapes already seen allocates nothing in here.
/// Holds no result — any scratch (including a fresh one) gives the same
/// output — and is `Send`, so a caller may run the round on another thread.
#[derive(Debug, Default)]
pub struct AssociationScratch {
    /// Flat index of each camera's first detection.
    offsets: Vec<usize>,
    uf: UnionFind,
    /// The current source's `(target camera, head)` pairs whose target has
    /// detections to match.
    asked: Vec<(usize, usize)>,
    /// `(position in asked, source detection, predicted target box)` of
    /// the current source.
    landed: Vec<(usize, usize, BBox)>,
    /// Row-major IoU matrix of the current pair.
    scores: Vec<f64>,
    solver: HungarianSolver,
    /// Output position of the set each flat index belongs to.
    group_of: Vec<usize>,
    /// Member count per output position.
    group_len: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{train_pair_model, CorrespondenceSample};

    fn bb(x: f64, y: f64, w: f64, h: f64) -> BBox {
        BBox::new(x, y, x + w, y + h).unwrap()
    }

    /// Two cameras whose views relate by a 100 px horizontal shift over the
    /// full frame.
    fn shift_engine() -> AssociationEngine {
        let samples: Vec<CorrespondenceSample> = (0..60)
            .map(|i| {
                let x = 20.0 * i as f64;
                CorrespondenceSample {
                    src: bb(x, 150.0, 50.0, 40.0),
                    dst: Some(bb(x + 100.0, 150.0, 50.0, 40.0)),
                }
            })
            .collect();
        let model = train_pair_model(3, &samples).unwrap();
        let mut engine = AssociationEngine::new(2, AssociationEngine::DEFAULT_IOU_THRESHOLD);
        engine.insert_model(0, 1, model);
        engine
    }

    #[test]
    fn matching_detections_merge() {
        let engine = shift_engine();
        let detections = vec![
            vec![bb(200.0, 150.0, 50.0, 40.0)],
            vec![bb(300.0, 150.0, 50.0, 40.0)],
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 1);
        assert_eq!(globals[0].members, vec![(0, 0), (1, 0)]);
        assert_eq!(globals[0].detection_on(1), Some(0));
    }

    #[test]
    fn distant_detections_stay_separate() {
        let engine = shift_engine();
        let detections = vec![
            vec![bb(200.0, 150.0, 50.0, 40.0)],
            vec![bb(900.0, 150.0, 50.0, 40.0)], // nowhere near the mapping
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 2);
        for g in &globals {
            assert_eq!(g.members.len(), 1);
        }
    }

    #[test]
    fn hungarian_prevents_double_assignment() {
        let engine = shift_engine();
        // Two source objects close together; two target detections. Each
        // target detection may be claimed by only one source object.
        let detections = vec![
            vec![bb(200.0, 150.0, 50.0, 40.0), bb(240.0, 150.0, 50.0, 40.0)],
            vec![bb(300.0, 150.0, 50.0, 40.0), bb(340.0, 150.0, 50.0, 40.0)],
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 2);
        for g in &globals {
            assert_eq!(g.members.len(), 2, "each global spans both cameras: {g:?}");
        }
        // And the pairing is the order-preserving one.
        assert!(globals.iter().any(|g| g.members == vec![(0, 0), (1, 0)]));
        assert!(globals.iter().any(|g| g.members == vec![(0, 1), (1, 1)]));
    }

    #[test]
    fn empty_cameras_are_fine() {
        let engine = shift_engine();
        let globals = engine.associate(&[vec![], vec![bb(0.0, 0.0, 10.0, 10.0)]]);
        assert_eq!(globals.len(), 1);
        assert_eq!(globals[0].members, vec![(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "one detection list per camera")]
    fn wrong_camera_count_panics() {
        shift_engine().associate(&[vec![]]);
    }

    #[test]
    #[should_panic(expected = "source < target")]
    fn insert_model_validates_pair() {
        let samples = [CorrespondenceSample {
            src: bb(0.0, 0.0, 10.0, 10.0),
            dst: None,
        }];
        let model = train_pair_model(1, &samples).unwrap();
        AssociationEngine::new(2, 0.2).insert_model(1, 1, model);
    }
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use crate::{train_pair_model, CorrespondenceSample};

    fn bb(x: f64, y: f64, w: f64, h: f64) -> BBox {
        BBox::new(x, y, x + w, y + h).unwrap()
    }

    /// Three cameras in a chain: camera 1 maps to camera 2 (+200 px),
    /// camera 2 maps to camera 3 (+200 px more). Cameras 1 and 3 have *no*
    /// direct overlap model, yet union-find must merge a three-way object
    /// transitively through camera 2.
    fn chain_engine() -> AssociationEngine {
        let shift = |dx: f64| -> Vec<CorrespondenceSample> {
            (0..50)
                .map(|i| {
                    let x = 15.0 * i as f64;
                    CorrespondenceSample {
                        src: bb(x, 200.0, 50.0, 40.0),
                        dst: Some(bb(x + dx, 200.0, 50.0, 40.0)),
                    }
                })
                .collect()
        };
        let mut engine = AssociationEngine::new(3, 0.2);
        engine.insert_model(0, 1, train_pair_model(3, &shift(200.0)).unwrap());
        engine.insert_model(1, 2, train_pair_model(3, &shift(200.0)).unwrap());
        // No (0, 2) model: those views only connect through camera 1.
        engine
    }

    #[test]
    fn transitive_merge_through_middle_camera() {
        let engine = chain_engine();
        let detections = vec![
            vec![bb(100.0, 200.0, 50.0, 40.0)],
            vec![bb(300.0, 200.0, 50.0, 40.0)],
            vec![bb(500.0, 200.0, 50.0, 40.0)],
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 1, "three views of one object must merge");
        assert_eq!(globals[0].members, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn broken_chain_splits_identities() {
        let engine = chain_engine();
        // Camera 1's detection is missing: cameras 0 and 2 cannot connect.
        let detections = vec![
            vec![bb(100.0, 200.0, 50.0, 40.0)],
            vec![],
            vec![bb(500.0, 200.0, 50.0, 40.0)],
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 2);
        for g in &globals {
            assert_eq!(g.members.len(), 1);
        }
    }

    #[test]
    fn multiple_objects_stay_distinct_along_the_chain() {
        let engine = chain_engine();
        let detections = vec![
            vec![bb(100.0, 200.0, 50.0, 40.0), bb(400.0, 200.0, 50.0, 40.0)],
            vec![bb(300.0, 200.0, 50.0, 40.0), bb(600.0, 200.0, 50.0, 40.0)],
            vec![bb(500.0, 200.0, 50.0, 40.0), bb(800.0, 200.0, 50.0, 40.0)],
        ];
        let globals = engine.associate(&detections);
        assert_eq!(globals.len(), 2);
        for g in &globals {
            assert_eq!(g.members.len(), 3, "each object spans the chain: {g:?}");
        }
    }
}
