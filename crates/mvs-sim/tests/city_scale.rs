//! Differential and pinned tests for the fleet-path stages whose cost
//! follows a camera's view overlap rather than the fleet size: the sparse
//! [`MaskPrecompute::build`], the in-place priority-walk of
//! [`MaskPrecompute::mask_for_into`], and [`CameraModel::visible_objects`]
//! over the world's per-frame object positions — which [`World::step`]
//! produces from one sort of a reused index buffer, pinned below against
//! the per-lane rescans it replaced — and [`TrainedAssociation`]'s one KNN
//! table per source camera, held to the per-pair models it replaced.

use mvs_assoc::{train_pair_model, AssociationEngine, CameraPairModel};
use mvs_core::{CameraId, CameraMask};
use mvs_geometry::{BBox, Grid, Point2};
use mvs_sim::{
    CameraModel, CityConfig, CorrespondenceData, MaskPrecompute, Scenario, ScenarioKind,
    TrainedAssociation, World,
};
use mvs_vision::GroundTruthObject;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

const CELL_PX: u32 = 64;

fn city16() -> Scenario {
    Scenario::city(&CityConfig {
        cameras: 16,
        seed: 5,
        intensity: 2.0,
    })
}

fn precompute(scenario: &Scenario) -> MaskPrecompute {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let data = CorrespondenceData::collect(scenario, 60.0, 3, &mut rng);
    let frames: Vec<_> = scenario.cameras.iter().map(|c| c.frame).collect();
    MaskPrecompute::build(&frames, &data, CELL_PX)
}

/// The 16-camera / two-district city and its coverage, built once.
fn city16_precompute() -> &'static (Scenario, MaskPrecompute) {
    static CITY: OnceLock<(Scenario, MaskPrecompute)> = OnceLock::new();
    CITY.get_or_init(|| {
        let scenario = city16();
        let pre = precompute(&scenario);
        (scenario, pre)
    })
}

/// Per-cell owners of `camera`'s mask, read back through the public point
/// query.
fn owners_in(scenario: &Scenario, camera: usize, mask: &CameraMask) -> Vec<CameraId> {
    let grid = Grid::new(scenario.cameras[camera].frame, CELL_PX);
    grid.iter()
        .map(|cell| mask.owner_at(grid.cell_center(cell)).expect("in frame"))
        .collect()
}

/// The paper's rule, spelled naively: each cell goes to the first camera
/// in `priority` that is the mask's own camera or covers the cell.
fn reference_owners(
    scenario: &Scenario,
    pre: &MaskPrecompute,
    camera: usize,
    priority: &[CameraId],
) -> Vec<CameraId> {
    let grid = Grid::new(scenario.cameras[camera].frame, CELL_PX);
    grid.iter()
        .map(|cell| {
            let covering: Vec<usize> = pre.covering(camera, cell.0).collect();
            *priority
                .iter()
                .find(|c| c.0 == camera || covering.contains(&c.0))
                .expect("own camera is in the priority order")
        })
        .collect()
}

/// `visible_objects` rebuilt from the public single-object projection:
/// project, sort by depth along the viewing direction, drop occluded.
fn reference_visible(
    camera: &CameraModel,
    world: &World,
    threshold: f64,
) -> Vec<GroundTruthObject> {
    let dir = Point2::new(camera.heading.cos(), camera.heading.sin());
    let mut projected: Vec<(f64, GroundTruthObject)> = world
        .objects()
        .iter()
        .filter_map(|o| {
            let pos = world.position_of(o);
            let bbox = camera.project(pos, o.length_m, o.height_m)?;
            let depth = (pos - camera.position).dot(dir);
            Some((depth, GroundTruthObject { id: o.id, bbox }))
        })
        .collect();
    projected.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite depth"));
    let mut out: Vec<GroundTruthObject> = Vec::new();
    for (_, gt) in projected {
        if !out
            .iter()
            .any(|nearer| gt.bbox.coverage_by(&nearer.bbox) >= threshold)
        {
            out.push(gt);
        }
    }
    out
}

fn bits(view: &[GroundTruthObject]) -> Vec<(u64, [u64; 4])> {
    view.iter()
        .map(|g| {
            let b = g.bbox;
            (g.id, [b.x1(), b.y1(), b.x2(), b.y2()].map(f64::to_bits))
        })
        .collect()
}

fn assert_views_match(scenario: &Scenario, world: &World, what: &str) {
    // One pair of buffers for every camera: each call must fully overwrite
    // what the previous camera left behind.
    let (mut by_depth, mut view) = (Vec::new(), Vec::new());
    for (i, camera) in scenario.cameras.iter().enumerate() {
        let allocating = camera.visible_objects(world, scenario.occlusion_threshold);
        assert_eq!(
            bits(&allocating),
            bits(&reference_visible(
                camera,
                world,
                scenario.occlusion_threshold
            )),
            "camera {i} {what}"
        );
        camera.visible_objects_into(
            world,
            scenario.occlusion_threshold,
            &mut by_depth,
            &mut view,
        );
        assert_eq!(
            bits(&view),
            bits(&allocating),
            "camera {i} {what}, reused buffers"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mask_rebuild_matches_the_naive_priority_rule(
        camera in 0usize..16,
        // Ids past the fleet stand for cameras the precompute never saw;
        // short draws omit (dead) cameras, long ones repeat them.
        draws in prop::collection::vec(0usize..18, 0..40),
        own_at in any::<usize>(),
        stale in prop::collection::vec(0usize..16, 1..16),
    ) {
        let (scenario, pre) = city16_precompute();
        let mut priority: Vec<CameraId> = draws.into_iter().map(CameraId).collect();
        if !priority.contains(&CameraId(camera)) {
            priority.insert(own_at % (priority.len() + 1), CameraId(camera));
        }
        let expected = reference_owners(scenario, pre, camera, &priority);

        let fresh = pre.mask_for(camera, &priority);
        prop_assert_eq!(&owners_in(scenario, camera, &fresh), &expected);

        // A slot left over from another horizon's order is fully rewritten.
        let mut stale_order: Vec<CameraId> = stale.into_iter().map(CameraId).collect();
        stale_order.push(CameraId(camera));
        let mut reused = None;
        pre.mask_for_into(camera, &stale_order, &mut reused);
        pre.mask_for_into(camera, &priority, &mut reused);
        prop_assert_eq!(reused, Some(fresh));
    }

    #[test]
    fn visible_objects_match_projection_reference(
        seed in any::<u64>(),
        steps in 1usize..40,
        spawn_lane in any::<usize>(),
        spawn_progress in 0.0f64..200.0,
    ) {
        let scenario = Scenario::new(ScenarioKind::S1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut world = scenario.warmed_world(20.0, &mut rng);
        for _ in 0..steps {
            world.step(scenario.frame_dt_s(), &mut rng);
        }
        assert_views_match(&scenario, &world, "after step");

        world.spawn_at(spawn_lane % world.lanes().len(), spawn_progress, 4.5, 1.6);
        prop_assert_eq!(world.positions().len(), world.objects().len());
        assert_views_match(&scenario, &world, "after spawn_at");

        let mut copy = world.clone();
        prop_assert_eq!(&copy, &world);
        assert_views_match(&scenario, &copy, "on a clone");
        copy.step(scenario.frame_dt_s(), &mut rng);
        assert_views_match(&scenario, &copy, "on a stepped clone");
        assert_views_match(&scenario, &world, "on the original after its clone stepped");
    }
}

/// `"<FNV-1a of the owner sequence> <owner>:<cells> ..."` of one mask.
fn fingerprint(
    scenario: &Scenario,
    pre: &MaskPrecompute,
    camera: usize,
    priority: &[CameraId],
) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut counts = std::collections::BTreeMap::new();
    for owner in owners_in(scenario, camera, &pre.mask_for(camera, priority)) {
        hash = (hash ^ owner.0 as u64).wrapping_mul(0x0000_0100_0000_01b3);
        *counts.entry(owner.0).or_insert(0usize) += 1;
    }
    let counts: Vec<String> = counts.iter().map(|(o, n)| format!("{o}:{n}")).collect();
    format!("{hash:016x} {}", counts.join(" "))
}

fn assert_pinned(scenario: &Scenario, ascending: &[&str], descending: &[&str]) {
    let pre = precompute(scenario);
    let m = scenario.num_cameras();
    let up: Vec<CameraId> = (0..m).map(CameraId).collect();
    let down: Vec<CameraId> = (0..m).rev().map(CameraId).collect();
    for camera in 0..m {
        assert_eq!(
            fingerprint(scenario, &pre, camera, &up),
            ascending[camera],
            "camera {camera}, ascending priority"
        );
        assert_eq!(
            fingerprint(scenario, &pre, camera, &down),
            descending[camera],
            "camera {camera}, descending priority"
        );
    }
}

// Masks of the dense, fleet-wide accumulators this build replaced (commit
// f6d05fa), under ascending and descending camera priority.

#[test]
fn sparse_build_reproduces_the_dense_masks_on_s1() {
    assert_pinned(
        &Scenario::new(ScenarioKind::S1),
        &[
            "4fdcd09a664840d5 0:220",
            "1ad9c43fffa74d02 0:31 1:189",
            "ecf84cdf794822fe 0:28 1:3 2:189",
            "31c334a94c8d6f92 0:34 1:2 2:1 3:263",
            "b57a2fac7a6cca4a 0:32 1:1 3:2 4:185",
        ],
        &[
            "ddb0c57601cb0c97 0:184 1:1 2:4 3:3 4:28",
            "a51a45ec110bc81d 1:186 2:1 4:33",
            "aab9c139927941ae 2:193 3:1 4:26",
            "eb93960f04427c83 3:270 4:30",
            "2b901b1b8a3bbac5 4:220",
        ],
    );
}

#[test]
fn sparse_build_reproduces_the_dense_masks_on_s3() {
    assert_pinned(
        &Scenario::new(ScenarioKind::S3),
        &[
            "4fdcd09a664840d5 0:220",
            "faffec6cf65a71d3 0:6 1:214",
            "20c54bed36863935 0:16 2:204",
        ],
        &[
            "143c67df3af01449 0:192 1:4 2:24",
            "b841af937df540a3 1:216 2:4",
            "1f2d8b2929c0fa25 2:220",
        ],
    );
}

/// District 0 (cameras 0–7) as at f6d05fa. District 1 is pinned from this
/// build: f6d05fa counted a cell's samples only against camera 0 (or 1),
/// which no district-1 camera is paired with, so its cameras saw no
/// coverage and each owned all 220 of its cells under every order.
#[test]
fn sparse_build_reproduces_the_dense_masks_on_a_two_district_city() {
    assert_pinned(
        &city16(),
        &[
            "4fdcd09a664840d5 0:220",
            "badc17ba5fa4596f 0:36 1:184",
            "2eec4f12d47330c6 0:27 1:3 2:190",
            "f8a0a5273f7ccf45 0:34 1:5 3:181",
            "f03b304cc7003a3c 0:33 1:1 3:2 4:184",
            "5f74cf294f332485 0:37 2:1 3:3 5:179",
            "2af11bfc9898f739 0:28 1:8 5:2 6:182",
            "e38d63f151c28295 0:34 1:5 5:3 7:178",
            "d3342bc1695ea5d5 8:220",
            "9d0c44bccf4b1874 8:39 9:181",
            "97909715fb1a138a 8:32 9:3 10:185",
            "f8e612bb1c9579c8 8:35 9:9 11:176",
            "3dc05cd710f4e8c0 8:27 9:4 11:1 12:188",
            "69a236a8518284b0 8:41 12:2 13:177",
            "d8cc74b6ee850ad6 8:39 9:5 13:2 14:174",
            "d51a49bf6f61aab2 8:37 13:1 14:2 15:180",
        ],
        &[
            "86aa7728334d7542 0:183 5:13 7:24",
            "614b7df94408de0c 1:177 2:1 3:3 5:2 7:37",
            "f430e4bf2d9dd6f6 2:187 3:2 5:4 7:27",
            "df4b0e92b35b8a6f 3:183 5:5 7:32",
            "3f004980605d4ee0 4:185 5:2 7:33",
            "9a79a6e4927372b7 5:181 7:39",
            "25249fa2118e5d64 6:185 7:35",
            "8d2a378fcb6d01d9 7:220",
            "3586a4d57d278515 8:188 9:1 13:8 14:2 15:21",
            "6517c03e354cd625 9:175 11:6 12:2 14:2 15:35",
            "61d90893c9a1738f 10:186 11:2 13:1 15:31",
            "d5fd4974faa6f364 11:180 12:1 13:5 14:4 15:30",
            "a3988c7d92b0bb9e 12:193 13:2 14:2 15:23",
            "94fa54c85310f19e 13:177 14:3 15:40",
            "235841cf55ec4e71 14:182 15:38",
            "52e86ca2cca46959 15:220",
        ],
    );
}

/// FNV-1a over the object count and every position's bits after each of
/// 500 steps (the warm-up before them steps the same way).
fn position_digest(scenario: &Scenario, seed: u64) -> u64 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut world = scenario.warmed_world(30.0, &mut rng);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    for _ in 0..500 {
        world.step(scenario.frame_dt_s(), &mut rng);
        mix(world.objects().len() as u64);
        for p in world.positions() {
            mix(p.x.to_bits());
            mix(p.y.to_bits());
        }
    }
    hash
}

// Digests of the per-lane rescan-and-stable-sort `World::step` (commit
// b979c3c): lights, queues, despawns and arrivals over 500 steps.

#[test]
fn world_step_positions_are_pinned_on_s1_s3_and_a_city() {
    let digests = [
        Scenario::new(ScenarioKind::S1),
        Scenario::new(ScenarioKind::S3),
        city16(),
    ]
    .map(|scenario| format!("{:016x}", position_digest(&scenario, 7)));
    assert_eq!(
        digests,
        ["a26883b6c50e5242", "5347adba8eae2f99", "6041ccad442c9cf0"],
        "S1, S3, city16"
    );
}

/// The layout `TrainedAssociation` had before the source tables, rebuilt
/// from the same labels: one pair model per labeled pair, fitted on the
/// pair's expanded samples with a classifier index of its own, and an
/// engine that sweeps once per (box, pair).
fn per_pair_reference(
    cameras: usize,
    data: &CorrespondenceData,
    k: usize,
    iou: f64,
) -> (
    std::collections::BTreeMap<(usize, usize), CameraPairModel>,
    AssociationEngine,
) {
    let mut models = std::collections::BTreeMap::new();
    let mut engine = AssociationEngine::new(cameras, iou);
    for &(src, dst) in data.pairs.keys() {
        let samples: Vec<_> = data.samples(src, dst).collect();
        assert_eq!(samples.len(), data.pairs[&(src, dst)].len());
        if samples.is_empty() {
            continue;
        }
        let model = train_pair_model(k, &samples).expect("finite samples");
        if src < dst {
            engine.insert_model(src, dst, model.clone());
        }
        models.insert((src, dst), model);
    }
    (models, engine)
}

fn box_bits(mapped: Option<BBox>) -> Option<[u64; 4]> {
    mapped.map(|b| b.to_array().map(f64::to_bits))
}

/// Every pair, every training box and a jittered copy of it, then 50
/// stepped frames of whole association rounds: the source tables answer as
/// the per-pair models do, bit for bit. Returns the data and the models for
/// the caller's own checks.
fn assert_source_tables_match_per_pair_models(
    scenario: &Scenario,
    train_s: f64,
) -> (CorrespondenceData, TrainedAssociation) {
    let (k, iou) = (3, 0.15);
    let m = scenario.num_cameras();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let data = CorrespondenceData::collect(scenario, train_s, 3, &mut rng);
    let trained = TrainedAssociation::train(m, &data, k, iou).expect("scenario data trains");
    let (models, engine) = per_pair_reference(m, &data, k, iou);
    assert_eq!(
        trained.models.keys().collect::<Vec<_>>(),
        models.keys().collect::<Vec<_>>(),
        "modeled pairs"
    );
    assert_eq!(trained.engine.num_models(), engine.num_models());

    let jitter = Point2::new(3.7, -2.3);
    let (mut queries, mut mapped) = (0usize, 0usize);
    for (&(src, dst), model) in &models {
        for row in data.rows(src) {
            for q in [*row, row.translated(jitter)] {
                let want = model.predict(&q);
                assert_eq!(
                    box_bits(trained.map_box(src, dst, &q)),
                    box_bits(want),
                    "pair ({src},{dst}) diverged on {q:?}"
                );
                assert_eq!(
                    trained.is_visible(src, dst, &q),
                    want.is_some(),
                    "pair ({src},{dst}): visibility verdict diverged on {q:?}"
                );
                queries += 1;
                mapped += usize::from(want.is_some());
            }
        }
    }
    assert!(mapped > 0 && mapped < queries, "{mapped}/{queries} mapped");
    // A pair nobody labeled has no model on either side.
    assert!(trained.map_box(0, 0, &data.rows(0)[0]).is_none());
    assert!(!trained.is_visible(0, m, &data.rows(0)[0]));

    let mut world = scenario.warmed_world(30.0, &mut rng);
    let mut merged = 0;
    for _ in 0..50 {
        world.step(scenario.frame_dt_s(), &mut rng);
        let boxes: Vec<Vec<BBox>> = (scenario.cameras.iter())
            .map(|c| c.visible_objects(&world, scenario.occlusion_threshold))
            .map(|view| view.iter().map(|g| g.bbox).collect())
            .collect();
        let globals = trained.engine.associate(&boxes);
        assert_eq!(globals, engine.associate(&boxes));
        merged += globals.iter().filter(|g| g.members.len() > 1).count();
    }
    assert!(merged > 0, "no round ever merged two views");
    (data, trained)
}

#[test]
fn source_tables_answer_as_per_pair_models_on_s1() {
    assert_source_tables_match_per_pair_models(&Scenario::new(ScenarioKind::S1), 40.0);
}

#[test]
fn source_tables_answer_as_per_pair_models_on_s3() {
    assert_source_tables_match_per_pair_models(&Scenario::new(ScenarioKind::S3), 40.0);
}

/// On the city the size gate rides along: a camera's observations are
/// indexed once — not once per paired destination, as the per-pair layout
/// did — and a head keeps a target per positive and indexes nothing.
#[test]
fn source_tables_answer_as_per_pair_models_on_a_city_at_one_index_row_per_observation() {
    let scenario = city16();
    let (data, trained) = assert_source_tables_match_per_pair_models(&scenario, 30.0);
    let m = scenario.num_cameras();
    let observations: usize = (0..m).map(|cam| data.rows(cam).len()).sum();
    let positives: usize = data.pairs.values().map(|l| l.positives().len()).sum();
    // (rows indexed, positives kept as targets)
    assert_eq!(trained.indexed_rows(), (observations, positives));
    // What one classifier index per pair held: every observation once per
    // destination its camera is paired with (seven in a full district).
    let degree = |cam: usize| data.pairs.range((cam, 0)..=(cam, usize::MAX)).count();
    assert!((0..m).all(|cam| degree(cam) == 7), "two full districts");
    assert_eq!(data.len(), 7 * observations);
    assert!(positives > 0 && positives < data.len());
}
