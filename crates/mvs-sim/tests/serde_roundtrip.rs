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

/// `pipelined` and `shard_solver` are inert fields kept for `bench-e2e`:
/// JSON that sets one, clears it, or predates it all deserializes, and to
/// the same run — traced at four threads, where the modes they used to
/// select would have run.
#[test]
fn pipelined_is_accepted_and_changes_nothing() {
    use mvs_sim::{run_pipeline_traced, run_serve, ServeConfig};
    /// `json` with `key` set, cleared and cut out (wherever it sits).
    fn variants(json: &str, key: &str) -> [String; 3] {
        let field = format!("\"{key}\":false");
        assert!(json.contains(&field), "{json}");
        let cut = json
            .replace(&format!("{field},"), "")
            .replace(&format!(",{field}"), "");
        assert!(!cut.contains(key), "{cut}");
        let set = json.replace(&field, &format!("\"{key}\":true"));
        [set, json.into(), cut]
    }

    let pipeline = PipelineConfig {
        train_s: 20.0,
        eval_s: 3.0,
        threads: 4,
        measured_overheads: false,
        ..PipelineConfig::paper_default(Algorithm::Balb)
    };
    let serve = ServeConfig {
        tenants: 2,
        cameras_per_tenant: 2,
        duration_s: 2.0,
        train_s: 5.0,
        threads: 4,
        ..ServeConfig::default()
    };
    for key in ["pipelined", "shard_solver"] {
        let runs = variants(&serde_json::to_string(&pipeline).unwrap(), key).map(|json| {
            let config: PipelineConfig = serde_json::from_str(&json).unwrap();
            let (result, trace) = run_pipeline_traced(&Scenario::new(ScenarioKind::S2), &config);
            (result, trace.golden_text())
        });
        assert!(runs[0].0.frames > 0);
        assert!(runs.iter().all(|run| *run == runs[0]), "{key}");

        let reports = variants(&serde_json::to_string(&serve).unwrap(), key).map(|json| {
            let mut report = run_serve(&serde_json::from_str(&json).unwrap());
            report.config = serve.clone();
            report
        });
        assert!(reports[0].processed > 0);
        assert!(reports.iter().all(|report| *report == reports[0]), "{key}");
    }
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
