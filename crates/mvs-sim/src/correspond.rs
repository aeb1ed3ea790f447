//! Correspondence-label generation and association-model training.
//!
//! The paper trains its cross-camera classification/regression models on
//! the first half of each scenario's videos using human-provided labels; in
//! this workspace the simulator plays annotator: it runs the scenario,
//! projects every object into every camera, and records, for each ordered
//! camera pair, where each source-camera box lands in the target camera
//! (or that it is invisible there).
//!
//! Every pair of one source camera labels the same boxes — the source's
//! own — so data and models are kept per source: a camera's boxes once,
//! and per paired destination only what that destination adds (the
//! positives; one head of the camera's [`CameraSourceModel`], which keeps a
//! label per box and the positives' boxes there — no index of its own: one
//! sweep of the camera's table answers "visible?" and "where?" for every
//! destination asked).

use crate::scenario::Scenario;
use mvs_assoc::{train_source_model, AssociationEngine, CameraSourceModel, CorrespondenceSample};
use mvs_geometry::BBox;
use mvs_ml::MlError;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// The labels of one ordered camera pair `(src, dst)` over the labeled
/// boxes ("rows") of `src`: the rows `dst` saw too, each with the box
/// there. Every other row is a negative.
#[derive(Debug, Clone, Default)]
pub struct PairLabels {
    /// Rows of the source camera, positives and negatives alike.
    samples: usize,
    /// `(row, box in dst)`, in arrival order (rows ascending).
    positives: Vec<(usize, BBox)>,
    /// [`CorrespondenceData::pair`]'s expansion, once asked for.
    expanded: OnceLock<Vec<CorrespondenceSample>>,
}

impl PairLabels {
    /// Labeled samples of the pair: one per source row.
    pub fn len(&self) -> usize {
        self.samples
    }

    /// True when the source camera never saw an object.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// The samples the destination saw too, as `(source row, box there)`
    /// in arrival order.
    pub fn positives(&self) -> &[(usize, BBox)] {
        &self.positives
    }
}

/// Labeled correspondences for every ordered camera pair `(src, dst)`,
/// `src != dst`, stored per source camera: its labeled boxes once, and per
/// pair the [`PairLabels`] over them.
#[derive(Debug, Clone, Default)]
pub struct CorrespondenceData {
    /// Every camera's labeled boxes, in arrival order.
    sources: Vec<Vec<BBox>>,
    /// Labels per ordered pair, over the rows of the pair's source.
    pub pairs: BTreeMap<(usize, usize), PairLabels>,
}

impl CorrespondenceData {
    /// Collects correspondence labels by simulating the scenario for
    /// `duration_s` seconds (after a warmup), sampling every
    /// `sample_every` frames.
    pub fn collect<R: Rng + ?Sized>(
        scenario: &Scenario,
        duration_s: f64,
        sample_every: usize,
        rng: &mut R,
    ) -> CorrespondenceData {
        assert!(sample_every > 0, "sample_every must be positive");
        let mut world = scenario.warmed_world(30.0, rng);
        let dt = scenario.frame_dt_s();
        let steps = (duration_s / dt).round() as usize;
        let m = scenario.num_cameras();
        // City-scale fleets make the all-pairs sweep quadratic in hundreds
        // of cameras, while almost every pair is geometrically disjoint:
        // prune to view-polygon-intersecting pairs there. The paper presets
        // keep the historical all-pairs behaviour.
        let related = if scenario.kind == crate::scenario::ScenarioKind::City {
            let polygons: Vec<_> = scenario.cameras.iter().map(|c| c.view_polygon()).collect();
            Some(mvs_core::OverlapGraph::from_polygons(&polygons))
        } else {
            None
        };
        let keep = |src: usize, dst: usize| match &related {
            Some(graph) => graph.are_overlapping(mvs_core::CameraId(src), mvs_core::CameraId(dst)),
            None => true,
        };
        let mut pairs: BTreeMap<(usize, usize), PairLabels> = BTreeMap::new();
        for src in 0..m {
            for dst in 0..m {
                if src != dst && keep(src, dst) {
                    pairs.insert((src, dst), PairLabels::default());
                }
            }
        }
        let mut sources: Vec<Vec<BBox>> = vec![Vec::new(); m];
        // Reused across sampled frames: every camera's view, and the
        // projection's depth-sort buffer.
        let mut views = vec![Vec::new(); m];
        let mut by_depth = Vec::new();
        for step in 0..steps {
            world.step(dt, rng);
            if step % sample_every != 0 {
                continue;
            }
            // Project every object into every camera once.
            for (camera, view) in scenario.cameras.iter().zip(&mut views) {
                let threshold = scenario.occlusion_threshold;
                camera.visible_objects_into(&world, threshold, &mut by_depth, view);
            }
            for (src, (view, rows)) in views.iter().zip(&mut sources).enumerate() {
                let first_row = rows.len();
                rows.extend(view.iter().map(|seen| seen.bbox));
                for (&(_, dst), labels) in pairs.range_mut((src, 0)..=(src, usize::MAX)) {
                    labels.samples = rows.len();
                    for (row, seen) in (first_row..).zip(view) {
                        if let Some(there) = views[dst].iter().find(|d| d.id == seen.id) {
                            labels.positives.push((row, there.bbox));
                        }
                    }
                }
            }
        }
        CorrespondenceData { sources, pairs }
    }

    /// Camera `src`'s labeled boxes, in arrival order: the rows every
    /// `(src, _)` pair labels.
    pub fn rows(&self, src: usize) -> &[BBox] {
        self.sources.get(src).map_or(&[], Vec::as_slice)
    }

    /// One ordered pair's samples in arrival order, expanded from the
    /// source rows and the pair's positives. A pair that was never labeled
    /// has none.
    pub fn samples(
        &self,
        src: usize,
        dst: usize,
    ) -> impl Iterator<Item = CorrespondenceSample> + '_ {
        let labels = self.pairs.get(&(src, dst));
        let rows = labels.map_or(&[][..], |l| &self.rows(src)[..l.samples]);
        let mut positives = labels.map_or(&[][..], PairLabels::positives).iter();
        let mut next = positives.next();
        rows.iter().enumerate().map(move |(row, &seen)| {
            let there = match next {
                Some(&(at, there)) if at == row => {
                    next = positives.next();
                    Some(there)
                }
                _ => None,
            };
            CorrespondenceSample {
                src: seen,
                dst: there,
            }
        })
    }

    /// [`CorrespondenceData::samples`] as a slice, for callers that index
    /// a pair's samples (the brute-force references of the tests). The
    /// expansion (72 B per sample, the source rows repeated for every
    /// destination) is made on the first call and kept; nothing on the run
    /// path asks for it.
    pub fn pair(&self, src: usize, dst: usize) -> &[CorrespondenceSample] {
        match self.pairs.get(&(src, dst)) {
            Some(labels) => labels
                .expanded
                .get_or_init(|| self.samples(src, dst).collect()),
            None => &[],
        }
    }

    /// Total number of labeled samples.
    pub fn len(&self) -> usize {
        self.pairs.values().map(PairLabels::len).sum()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The trained models of every camera toward the cameras it is paired
/// with, plus the association engine over the `src < dst` half.
#[derive(Debug, Clone)]
pub struct TrainedAssociation {
    /// Number of cameras.
    pub num_cameras: usize,
    /// The modeled ordered pairs (both directions — the distributed stage
    /// needs `i → assigned` lookups in either direction), each with its
    /// head in the source camera's model.
    pub models: BTreeMap<(usize, usize), usize>,
    /// Per camera, the model over its labeled boxes; `None` for a camera
    /// that is paired with nobody or never saw an object.
    sources: Vec<Option<Arc<CameraSourceModel>>>,
    /// The association engine (shares the source models).
    pub engine: AssociationEngine,
}

impl TrainedAssociation {
    /// Trains one KNN source model per camera (with `k` neighbours) on the
    /// collected data: the camera's boxes indexed once, one head (labels
    /// and targets) per paired destination.
    ///
    /// Pairs with no samples at all (a camera never saw any object while
    /// another had data) get no model; the engine skips them and the
    /// distributed stage treats the target as "not visible".
    ///
    /// # Errors
    ///
    /// Propagates model-fitting errors other than empty training sets.
    pub fn train(
        num_cameras: usize,
        data: &CorrespondenceData,
        k: usize,
        iou_threshold: f64,
    ) -> Result<TrainedAssociation, MlError> {
        let mut models = BTreeMap::new();
        let mut sources = vec![None; data.sources.len()];
        let mut engine = AssociationEngine::new(num_cameras, iou_threshold);
        for (src, rows) in data.sources.iter().enumerate() {
            let pairs = data.pairs.range((src, 0)..=(src, usize::MAX));
            let positives: Vec<&[(usize, BBox)]> = pairs
                .clone()
                .map(|(_, labels)| labels.positives())
                .collect();
            if positives.is_empty() {
                continue;
            }
            let model = match train_source_model(k, rows, &positives) {
                Ok(model) => Arc::new(model),
                Err(MlError::EmptyTrainingSet) => continue,
                Err(e) => return Err(e),
            };
            let mut upward = Vec::new();
            for (head, (&(_, dst), _)) in pairs.enumerate() {
                models.insert((src, dst), head);
                if src < dst {
                    upward.push((dst, head));
                }
            }
            if !upward.is_empty() {
                engine.insert_source(src, Arc::clone(&model), upward);
            }
            sources[src] = Some(model);
        }
        Ok(TrainedAssociation {
            num_cameras,
            models,
            sources,
            engine,
        })
    }

    /// The source model and head of the ordered pair, if it is modeled.
    fn head(&self, src: usize, dst: usize) -> Option<(&CameraSourceModel, usize)> {
        let &head = self.models.get(&(src, dst))?;
        Some((self.sources.get(src)?.as_deref()?, head))
    }

    /// Predicts where a box seen by `src` lands on `dst`; `None` when the
    /// models say it is not visible there (or no model exists).
    pub fn map_box(&self, src: usize, dst: usize, bbox: &BBox) -> Option<BBox> {
        let (model, head) = self.head(src, dst)?;
        model.predict(head, bbox)
    }

    /// Whether a box seen by `src` is visible on `dst` per the models:
    /// `self.map_box(src, dst, bbox).is_some()` without regressing the box
    /// nobody reads (see [`CameraSourceModel::is_visible`]). No model means
    /// not visible.
    pub fn is_visible(&self, src: usize, dst: usize, bbox: &BBox) -> bool {
        self.head(src, dst)
            .is_some_and(|(model, head)| model.is_visible(head, bbox))
    }

    /// `(rows indexed, positives kept as targets)`: every camera's labeled
    /// boxes once, plus a destination box per positive of every pair.
    pub fn indexed_rows(&self) -> (usize, usize) {
        self.sources
            .iter()
            .flatten()
            .map(|model| model.indexed_rows())
            .fold((0, 0), |sum, rows| (sum.0 + rows.0, sum.1 + rows.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn collected() -> (Scenario, CorrespondenceData) {
        let sc = Scenario::new(ScenarioKind::S2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data = CorrespondenceData::collect(&sc, 90.0, 3, &mut rng);
        (sc, data)
    }

    #[test]
    fn collection_produces_samples_for_all_pairs() {
        let (sc, data) = collected();
        assert!(!data.is_empty());
        let m = sc.num_cameras();
        assert_eq!(data.pairs.len(), m * (m - 1));
        // S2's cameras overlap: both directed pairs must contain positives.
        for (&(s, d), labels) in &data.pairs {
            assert!(
                !labels.positives().is_empty(),
                "pair ({s},{d}) has no positive correspondences"
            );
            // The expansion lists every source row once, in arrival order,
            // with exactly the pair's positives.
            let expanded: Vec<_> = data.samples(s, d).collect();
            assert_eq!(data.pair(s, d), expanded);
            assert_eq!(expanded.len(), labels.len());
            let seen: Vec<_> = expanded.iter().map(|x| x.src).collect();
            assert_eq!(seen, data.rows(s));
            let there: Vec<_> = expanded
                .iter()
                .enumerate()
                .filter_map(|(row, x)| Some((row, x.dst?)))
                .collect();
            assert_eq!(there, labels.positives());
        }
        assert_eq!(
            data.len(),
            (m - 1) * (0..m).map(|c| data.rows(c).len()).sum::<usize>()
        );
        assert!(data.pair(0, 0).is_empty() && data.samples(0, m).next().is_none());
    }

    #[test]
    fn trained_models_map_shared_objects_close() {
        let (sc, data) = collected();
        let trained = TrainedAssociation::train(sc.num_cameras(), &data, 3, 0.15).unwrap();
        assert!(trained.models.contains_key(&(0, 1)));
        assert!(trained.models.contains_key(&(1, 0)));
        // Evaluate mapping error on held-out positives (tail of the data).
        let samples = data.pair(0, 1);
        let test: Vec<_> = samples
            .iter()
            .rev()
            .take(30)
            .filter(|s| s.dst.is_some())
            .collect();
        assert!(!test.is_empty());
        let mut hits = 0;
        for s in &test {
            if let Some(mapped) = trained.map_box(0, 1, &s.src) {
                if mapped.iou(&s.dst.expect("filtered")) > 0.2 {
                    hits += 1;
                }
            }
        }
        assert!(
            hits * 2 >= test.len(),
            "only {hits}/{} mappings landed near the truth",
            test.len()
        );
    }

    #[test]
    fn engine_associates_shared_objects_in_s2() {
        let (sc, data) = collected();
        let trained = TrainedAssociation::train(sc.num_cameras(), &data, 3, 0.15).unwrap();
        // Fresh world; find a frame where both cameras see a common object.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut world = sc.warmed_world(45.0, &mut rng);
        let dt = sc.frame_dt_s();
        let mut merged_any = false;
        for _ in 0..600 {
            world.step(dt, &mut rng);
            let views: Vec<Vec<_>> = sc
                .cameras
                .iter()
                .map(|c| c.visible_objects(&world, sc.occlusion_threshold))
                .collect();
            let shared = views[0]
                .iter()
                .any(|a| views[1].iter().any(|b| b.id == a.id));
            if !shared {
                continue;
            }
            let boxes: Vec<Vec<_>> = views
                .iter()
                .map(|v| v.iter().map(|g| g.bbox).collect())
                .collect();
            let globals = trained.engine.associate(&boxes);
            if globals.iter().any(|g| g.members.len() == 2) {
                merged_any = true;
                break;
            }
        }
        assert!(merged_any, "no shared object was ever merged");
    }

    #[test]
    fn determinism_of_collection() {
        let sc = Scenario::new(ScenarioKind::S2);
        let a = CorrespondenceData::collect(&sc, 20.0, 5, &mut ChaCha8Rng::seed_from_u64(4));
        let b = CorrespondenceData::collect(&sc, 20.0, 5, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.pair(0, 1), b.pair(0, 1));
    }
}
