//! Integration tests for the scheduling stack against the vision-layer
//! latency model: BALB on Table-I-style fleets, batching interactions, and
//! exact-solver agreement.

use multiview_scheduler::core::{
    balb_central, balb_sharded, baselines, exact, BalbSchedule, BalbSolver, CameraId, CameraInfo,
    MvsProblem, ObjectId, ObjectInfo, OverlapGraph, ShardPlan,
};
use multiview_scheduler::geometry::SizeClass;
use multiview_scheduler::sim::{CityConfig, CorrespondenceData, MaskPrecompute, Scenario};
use multiview_scheduler::vision::{DeviceKind, LatencyProfile};
use rand::SeedableRng;
use std::collections::BTreeMap;

fn fleet(devices: &[DeviceKind]) -> Vec<CameraInfo> {
    devices
        .iter()
        .enumerate()
        .map(|(i, &d)| CameraInfo {
            id: CameraId(i),
            profile: LatencyProfile::for_device(d),
        })
        .collect()
}

fn object(j: usize, coverage: &[(usize, SizeClass)]) -> ObjectInfo {
    ObjectInfo {
        id: ObjectId(j),
        sizes: coverage
            .iter()
            .map(|&(c, s)| (CameraId(c), s))
            .collect::<BTreeMap<_, _>>(),
    }
}

#[test]
fn shared_objects_avoid_the_nano_when_possible() {
    // The paper's S3 fleet. Ten objects all visible from every camera at
    // equal size: BALB must route none of them to the Nano (its batches
    // are the most expensive) as long as the faster devices have headroom.
    let cameras = fleet(&[DeviceKind::Xavier, DeviceKind::Tx2, DeviceKind::Nano]);
    let objects: Vec<ObjectInfo> = (0..10)
        .map(|j| {
            object(
                j,
                &[
                    (0, SizeClass::S128),
                    (1, SizeClass::S128),
                    (2, SizeClass::S128),
                ],
            )
        })
        .collect();
    let problem = MvsProblem::new(cameras, objects).expect("valid instance");
    let schedule = balb_central(&problem);
    let on_nano = schedule.assignment.objects_of(CameraId(2)).len();
    assert_eq!(
        on_nano, 0,
        "the Nano should receive nothing while others have headroom"
    );
    // And the Nano therefore has the lowest added latency but the highest
    // total (its full-frame floor), putting it last in priority.
    assert_eq!(*schedule.priority.last().expect("non-empty"), CameraId(2));
}

#[test]
fn batching_attracts_same_size_objects_to_one_camera() {
    // Two identical Xaviers; eight S256 objects visible from both. One
    // S256 batch holds 8 crops on a Xavier, so the cheapest schedule puts
    // all of them in one batch on one camera rather than splitting.
    let cameras = fleet(&[DeviceKind::Xavier, DeviceKind::Xavier]);
    let objects: Vec<ObjectInfo> = (0..8)
        .map(|j| object(j, &[(0, SizeClass::S256), (1, SizeClass::S256)]))
        .collect();
    let problem = MvsProblem::new(cameras, objects).expect("valid instance");
    let schedule = balb_central(&problem);
    let on_first = schedule.assignment.objects_of(CameraId(0)).len();
    assert!(
        on_first == 0 || on_first == 8,
        "batch-awareness should consolidate, got split {on_first}/8"
    );
    // Consolidated latency: one 65 ms batch on one camera.
    assert!((schedule.system_latency_ms() - (110.0 + 65.0)).abs() < 1e-9);
}

#[test]
fn balb_matches_exact_on_table_one_fleets() {
    use multiview_scheduler::core::ProblemConfig;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    for _ in 0..10 {
        let p = MvsProblem::random(&mut rng, 3, 8, &ProblemConfig::default());
        let opt = exact::solve(&p, true, 20_000_000).expect("within budget");
        let balb = balb_central(&p);
        // In the paper's operating regime (t_full floors) BALB is optimal
        // on small instances (see the ablation bench).
        assert!(
            balb.system_latency_ms() <= opt.system_latency_ms + 1e-6,
            "balb {} vs opt {}",
            balb.system_latency_ms(),
            opt.system_latency_ms
        );
    }
}

#[test]
fn static_partition_ignores_load() {
    // Same instance twice, but the second has ten extra objects visible
    // only to camera 0. SP must keep the original objects' assignment
    // identical (load-oblivious); BALB is allowed to move them.
    let cameras = fleet(&[DeviceKind::Xavier, DeviceKind::Xavier]);
    let shared: Vec<ObjectInfo> = (0..6)
        .map(|j| object(j, &[(0, SizeClass::S128), (1, SizeClass::S128)]))
        .collect();
    let p_light = MvsProblem::new(cameras.clone(), shared.clone()).expect("valid");
    let mut heavy = shared.clone();
    for j in 6..16 {
        heavy.push(object(j, &[(0, SizeClass::S512)]));
    }
    let p_heavy = MvsProblem::new(cameras, heavy).expect("valid");

    let sp_light = baselines::static_partition_by_id(&p_light);
    let sp_heavy = baselines::static_partition_by_id(&p_heavy);
    for j in 0..6 {
        assert_eq!(
            sp_light.owners_of(ObjectId(j)),
            sp_heavy.owners_of(ObjectId(j)),
            "SP must not react to load"
        );
    }
    // BALB rebalances: camera 0 is overloaded in the heavy instance, so no
    // shared object should stay there.
    let balb_heavy = balb_central(&p_heavy);
    for j in 0..6 {
        assert_eq!(
            balb_heavy.assignment.sole_owner(ObjectId(j)),
            Some(CameraId(1)),
            "BALB must move shared objects off the overloaded camera"
        );
    }
}

#[test]
fn per_camera_sizes_drive_assignment() {
    // The same physical object looks big (S512) to a near camera and small
    // (S64) to a far one; with equal devices, BALB must pick the far view.
    let cameras = fleet(&[DeviceKind::Tx2, DeviceKind::Tx2]);
    let objects = vec![object(0, &[(0, SizeClass::S512), (1, SizeClass::S64)])];
    let problem = MvsProblem::new(cameras, objects).expect("valid instance");
    let schedule = balb_central(&problem);
    assert_eq!(
        schedule.assignment.sole_owner(ObjectId(0)),
        Some(CameraId(1))
    );
}

#[test]
fn central_sharded_and_persistent_solver_agree_bitwise_on_a_city_fleet() {
    // The three solve entry points the pipeline calls must produce one
    // schedule: three consecutive 10-frame horizons of a 64-camera city,
    // snapshotted from ground truth (every visible object, true projected
    // crop sizes) and fed to one `BalbSolver`, whose buffers carry over
    // from horizon to horizon.
    let scenario = Scenario::city(&CityConfig {
        cameras: 64,
        seed: 2022,
        intensity: 2.0,
    });
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut world = scenario.warmed_world(30.0, &mut rng);
    let cameras = fleet(&scenario.devices);
    let mut solver = BalbSolver::new();
    for horizon in 0..3 {
        let mut sizes_by_truth: BTreeMap<u64, BTreeMap<CameraId, SizeClass>> = BTreeMap::new();
        for (cam, model) in scenario.cameras.iter().enumerate() {
            for truth in model.visible_objects(&world, scenario.occlusion_threshold) {
                sizes_by_truth.entry(truth.id).or_default().insert(
                    CameraId(cam),
                    SizeClass::quantize(truth.bbox.width(), truth.bbox.height()),
                );
            }
        }
        let objects: Vec<ObjectInfo> = sizes_by_truth
            .into_values()
            .enumerate()
            .map(|(j, sizes)| ObjectInfo {
                id: ObjectId(j),
                sizes,
            })
            .collect();
        assert!(objects.len() > 64, "horizon {horizon}: city is populated");
        let p = MvsProblem::new(cameras.clone(), objects).unwrap();

        let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&p));
        assert!(plan.num_shards() > 1, "city districts shard");
        let central = balb_central(&p);
        let bits = |s: &BalbSchedule| -> Vec<u64> {
            s.camera_latencies_ms.iter().map(|l| l.to_bits()).collect()
        };
        for (name, got) in [
            ("sharded", &balb_sharded(&p, &plan)),
            ("solver", solver.solve(&p)),
        ] {
            assert_eq!(got.assignment, central.assignment, "{name} h{horizon}");
            assert_eq!(got.priority, central.priority, "{name} h{horizon}");
            assert_eq!(bits(got), bits(&central), "{name} h{horizon}");
        }

        for _ in 0..10 {
            world.step(scenario.frame_dt_s(), &mut rng);
        }
    }
}

#[test]
fn cameras_of_every_city_district_cede_cells_to_higher_priority_neighbours() {
    // City correspondence is pruned to overlapping pairs, so a district-1
    // camera is never paired with camera 0: its coverage must come from
    // the neighbours it does have. Under ascending priority some camera
    // of the second district then hands at least one cell to a neighbour.
    let scenario = Scenario::city(&CityConfig {
        cameras: 16,
        seed: 5,
        intensity: 2.0,
    });
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let data = CorrespondenceData::collect(&scenario, 60.0, 3, &mut rng);
    let frames: Vec<_> = scenario.cameras.iter().map(|c| c.frame).collect();
    let pre = MaskPrecompute::build(&frames, &data, 64);
    let priority: Vec<CameraId> = (0..16).map(CameraId).collect();
    for district in [0..8, 8..16] {
        let ceded = district
            .clone()
            .filter(|&cam| pre.mask_for(cam, &priority).owned_fraction() < 1.0)
            .count();
        assert!(ceded > 0, "no camera of {district:?} cedes a cell");
    }
}
