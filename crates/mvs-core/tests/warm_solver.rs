//! Property tests for the warm-started incremental BALB solver: over
//! arbitrary frame-over-frame edit scripts, [`BalbSolver`] must produce
//! schedules **bitwise identical** (assignment, priority, and latency bit
//! patterns, including the exact u128 cross-multiplied tie-break) to a cold
//! [`balb_central`] solve of the same instance — whichever of the warm or
//! cold-fallback paths it takes.

use mvs_core::{
    balb_central, BalbSchedule, BalbSolver, CameraId, MvsProblem, ObjectId, ProblemConfig,
    ProblemDelta,
};
use mvs_geometry::SizeClass;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn assert_bitwise_eq(warm: &BalbSchedule, cold: &BalbSchedule) {
    assert_eq!(warm.assignment, cold.assignment);
    assert_eq!(warm.priority, cold.priority);
    let warm_bits: Vec<u64> = warm
        .camera_latencies_ms
        .iter()
        .map(|l| l.to_bits())
        .collect();
    let cold_bits: Vec<u64> = cold
        .camera_latencies_ms
        .iter()
        .map(|l| l.to_bits())
        .collect();
    assert_eq!(warm_bits, cold_bits);
}

fn random_sizes(rng: &mut ChaCha8Rng, m: usize) -> BTreeMap<CameraId, SizeClass> {
    let mut sizes = BTreeMap::new();
    for c in 0..m {
        if rng.gen_bool(0.5) {
            sizes.insert(
                CameraId(c),
                SizeClass::from_index(rng.gen_range(0..SizeClass::COUNT)),
            );
        }
    }
    if sizes.is_empty() {
        sizes.insert(
            CameraId(rng.gen_range(0..m)),
            SizeClass::from_index(rng.gen_range(0..SizeClass::COUNT)),
        );
    }
    sizes
}

/// Draws a random but always-valid edit script against `p`.
fn random_delta(rng: &mut ChaCha8Rng, p: &MvsProblem) -> ProblemDelta {
    let n = p.num_objects();
    let m = p.num_cameras();
    let mut delta = ProblemDelta::default();
    for j in 0..n {
        match rng.gen_range(0..10) {
            0 => delta.left.push(ObjectId(j)),
            1 | 2 => delta.moved.push((ObjectId(j), random_sizes(rng, m))),
            _ => {}
        }
    }
    for _ in 0..rng.gen_range(0..4) {
        delta.entered.push(random_sizes(rng, m));
    }
    // Never drain the instance completely.
    if delta.left.len() == n && delta.entered.is_empty() {
        delta.left.pop();
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Driving the solver through a sequence of random deltas stays bitwise
    // identical to cold re-solves of the patched instance at every step,
    // across fallback thresholds that exercise both the warm-replay and
    // cold-fallback paths.
    #[test]
    fn delta_sequences_match_cold_solves_bitwise(
        seed in any::<u64>(),
        m in 1usize..6,
        n in 1usize..25,
        steps in 1usize..8,
        threshold in 0.0f64..1.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference = MvsProblem::random(&mut rng, m, n, &ProblemConfig::default());
        let mut solver = BalbSolver::with_fallback_threshold(threshold);
        assert_bitwise_eq(solver.solve(&reference), &balb_central(&reference));
        for _ in 0..steps {
            let delta = random_delta(&mut rng, &reference);
            delta.apply(&mut reference).unwrap();
            let warm = solver.apply_delta(&delta).unwrap().clone();
            assert_bitwise_eq(&warm, &balb_central(&reference));
        }
    }

    // Re-solving full instances (the `solve` entry point, which diffs the
    // stored instance positionally instead of using a delta) is also
    // bitwise identical to cold solves.
    #[test]
    fn repeated_full_solves_match_cold_solves_bitwise(
        seed in any::<u64>(),
        m in 1usize..6,
        n in 1usize..25,
        steps in 1usize..6,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut reference = MvsProblem::random(&mut rng, m, n, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        for _ in 0..steps {
            let delta = random_delta(&mut rng, &reference);
            delta.apply(&mut reference).unwrap();
            assert_bitwise_eq(solver.solve(&reference), &balb_central(&reference));
        }
    }

    // `ProblemDelta::between` is exact: applying the diff of two instances
    // over the same fleet reproduces the target instance.
    #[test]
    fn between_apply_round_trips(
        seed in any::<u64>(),
        m in 1usize..6,
        n_a in 1usize..25,
        n_b in 1usize..25,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = MvsProblem::random(&mut rng, m, n_a, &ProblemConfig::default());
        let b_raw = MvsProblem::random(&mut rng, m, n_b, &ProblemConfig::default());
        let b = MvsProblem::new(a.cameras().to_vec(), b_raw.objects().to_vec()).unwrap();
        let delta = ProblemDelta::between(&a, &b);
        let mut patched = a;
        delta.apply(&mut patched).unwrap();
        prop_assert_eq!(patched, b);
    }
}
