//! Integration tests for the cross-camera association stack: training on
//! simulated scenario data and exercising the engine, masks, and
//! distributed policy across crates.

use multiview_scheduler::core::{CameraId, DistributedPolicy};
use multiview_scheduler::sim::{
    CorrespondenceData, MaskPrecompute, Scenario, ScenarioKind, TrainedAssociation,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn trained_s2() -> (Scenario, CorrespondenceData, TrainedAssociation) {
    let scenario = Scenario::new(ScenarioKind::S2);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let data = CorrespondenceData::collect(&scenario, 60.0, 2, &mut rng);
    let trained = TrainedAssociation::train(scenario.num_cameras(), &data, 3, 0.15)
        .expect("S2 training data is sufficient");
    (scenario, data, trained)
}

#[test]
fn association_merges_most_truly_shared_objects() {
    let (scenario, _, trained) = trained_s2();
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let mut world = scenario.warmed_world(50.0, &mut rng);
    let (mut merged, mut should) = (0usize, 0usize);
    for _ in 0..300 {
        world.step(scenario.frame_dt_s(), &mut rng);
        let views: Vec<Vec<_>> = scenario
            .cameras
            .iter()
            .map(|c| c.visible_objects(&world, scenario.occlusion_threshold))
            .collect();
        let shared: usize = {
            use std::collections::HashMap;
            let mut count: HashMap<u64, usize> = HashMap::new();
            for v in &views {
                for g in v {
                    *count.entry(g.id).or_default() += 1;
                }
            }
            count.values().filter(|&&c| c >= 2).count()
        };
        should += shared;
        let boxes: Vec<Vec<_>> = views
            .iter()
            .map(|v| v.iter().map(|g| g.bbox).collect())
            .collect();
        let globals = trained.engine.associate(&boxes);
        for g in &globals {
            if g.members.len() >= 2 {
                let ids: Vec<u64> = g.members.iter().map(|&(c, d)| views[c][d].id).collect();
                let mut uniq = ids.clone();
                uniq.sort_unstable();
                uniq.dedup();
                if uniq.len() == 1 {
                    merged += 1;
                }
            }
        }
    }
    assert!(should > 0, "scenario must produce shared observations");
    let ratio = merged as f64 / should as f64;
    assert!(
        ratio > 0.8,
        "association merged only {ratio:.2} of shared objects"
    );
}

#[test]
fn masks_partition_every_frame_without_priority_inversions() {
    let (scenario, data, _) = trained_s2();
    let frames: Vec<_> = scenario.cameras.iter().map(|c| c.frame).collect();
    let pre = MaskPrecompute::build(&frames, &data, 64);
    let priority = vec![CameraId(1), CameraId(0)];
    for cam in 0..scenario.num_cameras() {
        let mask = pre.mask_for(cam, &priority);
        assert_eq!(mask.camera(), CameraId(cam));
        // Every in-frame point resolves to some owner.
        let p = mvs_geometry::Point2::new(640.0, 350.0);
        assert!(mask.owner_at(p).is_some());
    }
    // The top-priority camera owns all of its own frame (nothing outranks it).
    let top = pre.mask_for(1, &priority);
    assert_eq!(top.owned_fraction(), 1.0);
}

#[test]
fn sp_masks_split_shared_regions_and_keep_exclusive_ones() {
    let (scenario, data, _) = trained_s2();
    let frames: Vec<_> = scenario.cameras.iter().map(|c| c.frame).collect();
    let pre = MaskPrecompute::build(&frames, &data, 64);
    // Heavily skewed weights: camera 0 should own most shared cells on
    // both masks, but camera 1 keeps its exclusive area.
    let masks = pre.sp_masks(&[10.0, 1.0]);
    assert!(masks[0].owned_fraction() > 0.8);
    assert!(masks[1].owned_fraction() > 0.0);
    // Flipping the weights must flip the shared allocation.
    let flipped = pre.sp_masks(&[1.0, 10.0]);
    assert!(flipped[1].owned_fraction() > masks[1].owned_fraction());
}

#[test]
fn distributed_policy_round_trips_through_schedule() {
    use multiview_scheduler::core::{balb_central, MvsProblem, ProblemConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let problem = MvsProblem::random(&mut rng, 4, 20, &ProblemConfig::default());
    let schedule = balb_central(&problem);
    let policy = DistributedPolicy::from_schedule(&schedule);
    // The policy ranks all cameras and selects consistent owners.
    let coverage = [CameraId(0), CameraId(2), CameraId(3)];
    let owner = policy.select_owner(coverage).expect("non-empty coverage");
    assert!(coverage.contains(&owner));
    let trackers: Vec<CameraId> = coverage
        .iter()
        .copied()
        .filter(|&c| policy.should_track(c, coverage))
        .collect();
    assert_eq!(trackers, vec![owner]);
}

#[test]
fn pair_models_exist_in_both_directions() {
    let (scenario, _, trained) = trained_s2();
    let m = scenario.num_cameras();
    for src in 0..m {
        for dst in 0..m {
            if src != dst {
                assert!(
                    trained.models.contains_key(&(src, dst)),
                    "missing model for pair ({src},{dst})"
                );
            }
        }
    }
    assert_eq!(trained.engine.num_models(), m * (m - 1) / 2);
}

/// The pre-index `map_box`: brute-force scan, majority vote (ties to the
/// lower label), inverse-distance regression over the visible subset.
fn reference_map_box(
    samples: &[multiview_scheduler::assoc::CorrespondenceSample],
    k: usize,
    bbox: &mvs_geometry::BBox,
) -> Option<mvs_geometry::BBox> {
    use multiview_scheduler::ml::brute_force_k_nearest;
    if samples.is_empty() {
        return None;
    }
    let q = bbox.to_array();
    let xs: Vec<[f64; 4]> = samples.iter().map(|s| s.src.to_array()).collect();
    let nearest = brute_force_k_nearest(&xs, &q, k);
    let visible = nearest
        .iter()
        .filter(|&&(i, _)| samples[i].dst.is_some())
        .count();
    if 2 * visible <= nearest.len() {
        return None;
    }
    let (rx, ry): (Vec<[f64; 4]>, Vec<[f64; 4]>) = samples
        .iter()
        .filter_map(|s| s.dst.map(|d| (s.src.to_array(), d.to_array())))
        .unzip();
    let nearest = brute_force_k_nearest(&rx, &q, k);
    let coords = match nearest.iter().find(|&&(_, d)| d < 1e-12) {
        Some(&(i, _)) => ry[i],
        None => {
            let (mut out, mut wsum) = ([0.0; 4], 0.0);
            for &(i, d) in &nearest {
                let w = 1.0 / d;
                wsum += w;
                for (o, y) in out.iter_mut().zip(&ry[i]) {
                    *o += w * y;
                }
            }
            out.map(|o| o / wsum)
        }
    };
    mvs_geometry::BBox::from_array_lenient(coords).ok()
}

/// The KNN index behind `map_box` is exact: every S1 detection over 200
/// frames maps, on every ordered camera pair, to the same bits as the
/// brute-force reference (the full battery is
/// `crates/mvs-ml/tests/knn_differential.rs`) — and the takeover verdict's
/// classifier-only `is_visible` answers exactly "did it map".
#[test]
fn map_box_matches_brute_force_reference_bitwise_on_s1() {
    let scenario = Scenario::new(ScenarioKind::S1);
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let data = CorrespondenceData::collect(&scenario, 40.0, 3, &mut rng);
    let k = 3;
    let trained = TrainedAssociation::train(scenario.num_cameras(), &data, k, 0.15)
        .expect("S1 training data is sufficient");
    let mut world = scenario.warmed_world(45.0, &mut rng);
    let (mut queries, mut mapped) = (0usize, 0usize);
    for _ in 0..200 {
        world.step(scenario.frame_dt_s(), &mut rng);
        for (src, camera) in scenario.cameras.iter().enumerate() {
            for seen in camera.visible_objects(&world, scenario.occlusion_threshold) {
                for dst in (0..scenario.num_cameras()).filter(|&dst| dst != src) {
                    let got = trained.map_box(src, dst, &seen.bbox);
                    let want = reference_map_box(data.pair(src, dst), k, &seen.bbox);
                    assert_eq!(
                        got.map(|b| b.to_array().map(f64::to_bits)),
                        want.map(|b| b.to_array().map(f64::to_bits)),
                        "pair ({src},{dst}) diverged on {:?}",
                        seen.bbox
                    );
                    assert_eq!(
                        trained.is_visible(src, dst, &seen.bbox),
                        got.is_some(),
                        "pair ({src},{dst}): visibility verdict diverged on {:?}",
                        seen.bbox
                    );
                    queries += 1;
                    mapped += usize::from(got.is_some());
                }
            }
        }
    }
    assert!(queries > 1000, "only {queries} detections were checked");
    assert!(mapped > 0 && mapped < queries, "{mapped}/{queries} mapped");
}
