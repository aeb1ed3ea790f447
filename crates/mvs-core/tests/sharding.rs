//! Property-based tests for the per-component solve: bitwise equality with
//! the central solve, and the partition invariants of component plans.

use mvs_core::{
    balb_central, balb_sharded, BalbSchedule, MvsProblem, OverlapGraph, ProblemConfig, ShardPlan,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_problem() -> impl Strategy<Value = MvsProblem> {
    (any::<u64>(), 1usize..10, 1usize..40, 0.0f64..1.0).prop_map(|(seed, m, n, overlap)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        MvsProblem::random(
            &mut rng,
            m,
            n,
            &ProblemConfig {
                overlap_prob: overlap,
                ..Default::default()
            },
        )
    })
}

/// Dense instances: high overlap keeps the coverage graph connected.
fn arb_dense_problem() -> impl Strategy<Value = MvsProblem> {
    (any::<u64>(), 4usize..10, 10usize..60).prop_map(|(seed, m, n)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        MvsProblem::random(
            &mut rng,
            m,
            n,
            &ProblemConfig {
                overlap_prob: 0.7,
                ..Default::default()
            },
        )
    })
}

fn latency_bits(s: &BalbSchedule) -> Vec<u64> {
    s.camera_latencies_ms.iter().map(|l| l.to_bits()).collect()
}

fn assert_bitwise_eq(sharded: &BalbSchedule, central: &BalbSchedule) {
    assert_eq!(sharded.assignment, central.assignment);
    assert_eq!(sharded.priority, central.priority);
    assert_eq!(latency_bits(sharded), latency_bits(central));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // On component plans — in particular whenever the overlap graph is a
    // single component — the sharded schedule is bitwise-equal
    // (`f64::to_bits`) to `balb_central`.
    #[test]
    fn sharded_matches_central_bitwise_on_component_plans(p in arb_problem()) {
        let graph = OverlapGraph::from_problem(&p);
        let plan = ShardPlan::from_components(&graph);
        assert_bitwise_eq(&balb_sharded(&p, &plan), &balb_central(&p));
    }

    // The single-component special case: with one shard covering the whole
    // fleet, sharded IS central.
    #[test]
    fn single_component_graph_yields_exactly_central(p in arb_dense_problem()) {
        let graph = OverlapGraph::from_problem(&p);
        prop_assume!(graph.is_connected());
        let plan = ShardPlan::from_components(&graph);
        prop_assert_eq!(plan.num_shards(), 1);
        let sharded = balb_sharded(&p, &plan);
        assert_bitwise_eq(&sharded, &balb_central(&p));
    }

    // Shard camera sets partition the fleet exactly — every camera in
    // exactly one shard.
    #[test]
    fn shard_camera_sets_partition_the_fleet(p in arb_problem()) {
        let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&p));
        let mut all: Vec<usize> = plan
            .shards()
            .iter()
            .flat_map(|s| s.iter().map(|c| c.0))
            .collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..p.num_cameras()).collect::<Vec<_>>());
        for (idx, shard) in plan.shards().iter().enumerate() {
            prop_assert!(!shard.is_empty());
            prop_assert!(shard.windows(2).all(|w| w[0] < w[1]), "shards sorted");
            for &c in shard {
                prop_assert_eq!(plan.shard_of(c), idx);
            }
        }
    }
}
