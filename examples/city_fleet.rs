//! City-scale fleet: the camera overlap graph and its components.
//!
//! Generates a procedural city scenario, snapshots one key-frame
//! scheduling instance out of its warmed world, builds the camera overlap
//! graph, partitions it into its connected components, and shows that
//! solving component by component reproduces the monolithic `balb_central`
//! schedule bit-for-bit — and what each of the two costs on this machine.
//!
//! ```sh
//! cargo run --release --example city_fleet
//! ```

use multiview_scheduler::core::{
    balb_central, balb_sharded, CameraId, CameraInfo, MvsProblem, ObjectId, ObjectInfo,
    OverlapGraph, ShardPlan,
};
use multiview_scheduler::geometry::SizeClass;
use multiview_scheduler::sim::{CityConfig, Scenario};
use multiview_scheduler::vision::LatencyProfile;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of `f` over 101 calls, microseconds.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..101)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One key-frame MVS instance from a warmed city world: every object
/// visible somewhere becomes a schedulable object whose per-camera crop
/// sizes come from the true projected boxes.
fn snapshot(scenario: &Scenario, rng: &mut ChaCha8Rng) -> MvsProblem {
    let world = scenario.warmed_world(60.0, rng);
    let cameras: Vec<CameraInfo> = scenario
        .devices
        .iter()
        .enumerate()
        .map(|(i, &d)| CameraInfo {
            id: CameraId(i),
            profile: LatencyProfile::for_device(d),
        })
        .collect();
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
    MvsProblem::new(cameras, objects).expect("city snapshots are valid instances")
}

fn main() {
    let config = CityConfig {
        cameras: 128,
        seed: 17,
        intensity: 2.0,
    };
    let scenario = Scenario::city(&config);
    println!(
        "city: {} cameras in {} districts, intensity {:.1}",
        config.cameras,
        config.districts(),
        config.intensity
    );

    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let problem = snapshot(&scenario, &mut rng);
    println!(
        "key-frame instance: {} objects over {} cameras",
        problem.num_objects(),
        problem.num_cameras()
    );

    // Partition the fleet along the camera overlap graph. City districts
    // are far apart, so each district's cameras form one component.
    let graph = OverlapGraph::from_problem(&problem);
    let plan = ShardPlan::from_components(&graph);
    println!(
        "overlap graph: {} edges -> {} components (largest {} cameras)",
        graph.num_edges(),
        plan.num_shards(),
        plan.shards().iter().map(Vec::len).max().unwrap_or(0)
    );

    // The per-component schedule is bitwise identical to the monolithic
    // one — same assignment, same priorities, bit-equal latencies: every
    // object's coverage set lies inside one component, so the central pass
    // is an interleaving of independent per-component passes.
    let central = balb_central(&problem);
    let sharded = balb_sharded(&problem, &plan);
    assert_eq!(central.assignment, sharded.assignment);
    assert_eq!(central.priority, sharded.priority);
    let bits = |s: &multiview_scheduler::core::BalbSchedule| {
        s.camera_latencies_ms
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&central), bits(&sharded));
    println!(
        "sharded == central bit-for-bit; system latency {:.1} ms",
        sharded.system_latency_ms()
    );

    // Per-component object counts.
    let mut per_shard = vec![0usize; plan.num_shards()];
    for object in problem.objects() {
        let camera = object.coverage().next().expect("coverage is non-empty");
        per_shard[plan.shard_of(camera)] += 1;
    }
    let busiest = per_shard.iter().max().copied().unwrap_or(0);
    println!(
        "objects per component: min {}, max {}, mean {:.1}",
        per_shard.iter().min().copied().unwrap_or(0),
        busiest,
        problem.num_objects() as f64 / plan.num_shards().max(1) as f64
    );

    // The decomposition is exact but buys nothing: components run one after
    // another on the calling thread, so it adds bucketing — and a graph and
    // plan per key frame — to the same greedy placements. The pipeline
    // therefore always solves in one pass.
    let central_us = median_us(|| balb_central(&problem));
    let sharded_us = median_us(|| balb_sharded(&problem, &plan));
    let plan_us = median_us(|| ShardPlan::from_components(&OverlapGraph::from_problem(&problem)));
    println!(
        "\none pass {central_us:.1} µs; component by component {sharded_us:.1} µs \
         + {plan_us:.1} µs to build the graph and plan"
    );
}
