//! Correspondence-label generation and association-model training.
//!
//! The paper trains its cross-camera classification/regression models on
//! the first half of each scenario's videos using human-provided labels; in
//! this workspace the simulator plays annotator: it runs the scenario,
//! projects every object into every camera, and records, for each ordered
//! camera pair, where each source-camera box lands in the target camera
//! (or that it is invisible there).

use crate::scenario::Scenario;
use mvs_assoc::{train_pair_model, AssociationEngine, CameraPairModel, CorrespondenceSample};
use mvs_ml::MlError;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Labeled correspondences for every ordered camera pair `(src, dst)`,
/// `src != dst`.
#[derive(Debug, Clone, Default)]
pub struct CorrespondenceData {
    /// Samples per ordered pair.
    pub pairs: BTreeMap<(usize, usize), Vec<CorrespondenceSample>>,
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
        let mut pairs: BTreeMap<(usize, usize), Vec<CorrespondenceSample>> = BTreeMap::new();
        for src in 0..m {
            for dst in 0..m {
                if src != dst && keep(src, dst) {
                    pairs.insert((src, dst), Vec::new());
                }
            }
        }
        for step in 0..steps {
            world.step(dt, rng);
            if step % sample_every != 0 {
                continue;
            }
            // Project every object into every camera once.
            let views: Vec<_> = scenario
                .cameras
                .iter()
                .map(|c| c.visible_objects(&world, scenario.occlusion_threshold))
                .collect();
            for src in 0..m {
                for dst in 0..m {
                    if src == dst || !keep(src, dst) {
                        continue;
                    }
                    let samples = pairs.get_mut(&(src, dst)).expect("initialized above");
                    for s_obj in &views[src] {
                        let dst_box = views[dst].iter().find(|d| d.id == s_obj.id).map(|d| d.bbox);
                        samples.push(CorrespondenceSample {
                            src: s_obj.bbox,
                            dst: dst_box,
                        });
                    }
                }
            }
        }
        CorrespondenceData { pairs }
    }

    /// Samples for one ordered pair.
    pub fn pair(&self, src: usize, dst: usize) -> &[CorrespondenceSample] {
        self.pairs
            .get(&(src, dst))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of labeled samples.
    pub fn len(&self) -> usize {
        self.pairs.values().map(Vec::len).sum()
    }

    /// True when no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The trained models for every ordered camera pair, plus the association
/// engine over the `src < dst` half.
#[derive(Debug, Clone)]
pub struct TrainedAssociation {
    /// Number of cameras.
    pub num_cameras: usize,
    /// Model per ordered pair (both directions — the distributed stage
    /// needs `i → assigned` lookups in either direction).
    pub models: BTreeMap<(usize, usize), Arc<CameraPairModel>>,
    /// The association engine (shares the `src < dst` models).
    pub engine: AssociationEngine,
}

impl TrainedAssociation {
    /// Trains KNN pair models (with `k` neighbours) on the collected data.
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
        let mut engine = AssociationEngine::new(num_cameras, iou_threshold);
        for (&(src, dst), samples) in &data.pairs {
            match train_pair_model(k, samples) {
                Ok(model) => {
                    let model = Arc::new(model);
                    if src < dst {
                        engine.insert_model(src, dst, Arc::clone(&model));
                    }
                    models.insert((src, dst), model);
                }
                Err(MlError::EmptyTrainingSet) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(TrainedAssociation {
            num_cameras,
            models,
            engine,
        })
    }

    /// Predicts where a box seen by `src` lands on `dst`; `None` when the
    /// models say it is not visible there (or no model exists).
    pub fn map_box(
        &self,
        src: usize,
        dst: usize,
        bbox: &mvs_geometry::BBox,
    ) -> Option<mvs_geometry::BBox> {
        self.models.get(&(src, dst))?.predict(bbox)
    }

    /// Whether a box seen by `src` is visible on `dst` per the pair models:
    /// `self.map_box(src, dst, bbox).is_some()` without regressing the box
    /// nobody reads (see [`CameraPairModel::is_visible`]). No model means
    /// not visible.
    pub fn is_visible(&self, src: usize, dst: usize, bbox: &mvs_geometry::BBox) -> bool {
        self.models
            .get(&(src, dst))
            .is_some_and(|model| model.is_visible(bbox))
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
        for (&(s, d), samples) in &data.pairs {
            let positives = samples.iter().filter(|x| x.dst.is_some()).count();
            assert!(
                positives > 0,
                "pair ({s},{d}) has no positive correspondences"
            );
        }
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
