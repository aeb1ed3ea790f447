//! Serde round-trips for the simulator's persisted configuration types.

use mvs_sim::{Algorithm, PipelineConfig, Scenario, ScenarioKind};

#[test]
fn scenario_round_trips() {
    for kind in ScenarioKind::ALL {
        let sc = Scenario::new(kind);
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(sc, back, "{kind}");
    }
}

#[test]
fn pipeline_config_round_trips() {
    let mut cfg = PipelineConfig::paper_default(Algorithm::Balb);
    cfg.redundancy = 2;
    cfg.camera_lag_frames = vec![0, 3];
    let json = serde_json::to_string(&cfg).unwrap();
    let back: PipelineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(cfg, back);
}

#[test]
fn algorithm_names_are_stable_in_json() {
    let json = serde_json::to_string(&Algorithm::StaticPartition).unwrap();
    assert_eq!(json, "\"StaticPartition\"");
    let back: Algorithm = serde_json::from_str("\"Balb\"").unwrap();
    assert_eq!(back, Algorithm::Balb);
}

#[test]
fn world_round_trips_without_its_position_cache() {
    use rand::SeedableRng;
    let sc = Scenario::new(ScenarioKind::S1);
    let world = sc.warmed_world(20.0, &mut rand_chacha::ChaCha8Rng::seed_from_u64(3));
    assert!(!world.objects().is_empty());
    let json = serde_json::to_string(&world).unwrap();
    assert!(!json.contains("positions"), "cache leaked into {json}");
    assert!(!json.contains("move_order"), "scratch leaked into {json}");
    let back: mvs_sim::World = serde_json::from_str(&json).unwrap();
    assert_eq!(world, back);
    // The restored world derives the same positions on first read.
    assert_eq!(world.positions(), back.positions());
    for camera in &sc.cameras {
        assert_eq!(
            camera.visible_objects(&world, sc.occlusion_threshold),
            camera.visible_objects(&back, sc.occlusion_threshold)
        );
    }
}

/// A pair model serialized before `bounded` existed deserializes onto the
/// slow side of `is_visible` (`predict(..).is_some()`), so it answers as
/// the freshly trained model does.
#[test]
fn pair_model_without_the_bounded_flag_answers_visibility_the_same() {
    use mvs_assoc::{train_pair_model, CameraPairModel, CorrespondenceSample};
    use mvs_geometry::BBox;
    let bb = |x: f64| BBox::new(x, 100.0, x + 50.0, 140.0).unwrap();
    let samples: Vec<CorrespondenceSample> = (0..40)
        .map(|i| {
            let x = 25.0 * f64::from(i);
            CorrespondenceSample {
                src: bb(x),
                dst: (x > 400.0).then(|| bb(x - 300.0)),
            }
        })
        .collect();
    let model = train_pair_model(3, &samples).unwrap();
    let json = serde_json::to_string(&model).unwrap();
    assert!(json.contains("\"bounded\":true"), "{json}");
    let old_json = json.replace(",\"bounded\":true", "");
    assert!(!old_json.contains("bounded"));
    let old: CameraPairModel = serde_json::from_str(&old_json).unwrap();
    let (mut seen, mut unseen) = (0, 0);
    for i in 0..100 {
        let probe = bb(10.0 * f64::from(i));
        let visible = model.is_visible(&probe);
        assert_eq!(visible, model.predict(&probe).is_some());
        assert_eq!(old.is_visible(&probe), visible);
        seen += usize::from(visible);
        unseen += usize::from(!visible);
    }
    assert!(seen > 0 && unseen > 0, "{seen} visible, {unseen} not");
}
