//! Property-based tests for the scheduling core: BALB invariants on
//! arbitrary random instances, exact-solver dominance, and latency
//! arithmetic monotonicity.

use mvs_core::{
    balb_central, baselines, exact, Assignment, CameraId, MvsProblem, ObjectId, ProblemConfig,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_problem() -> impl Strategy<Value = MvsProblem> {
    (any::<u64>(), 1usize..6, 1usize..25, 0.0f64..1.0).prop_map(|(seed, m, n, overlap)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn balb_always_produces_feasible_single_owner_assignments(p in arb_problem()) {
        let s = balb_central(&p);
        prop_assert!(s.assignment.is_feasible(&p));
        for o in p.objects() {
            prop_assert_eq!(s.assignment.owners_of(o.id).len(), 1);
        }
    }

    #[test]
    fn balb_reported_latencies_match_recomputation(p in arb_problem()) {
        let s = balb_central(&p);
        for i in 0..p.num_cameras() {
            let recomputed = s.assignment.camera_latency_ms(&p, CameraId(i), true);
            prop_assert!((recomputed - s.camera_latencies_ms[i]).abs() < 1e-6);
        }
        let max = s
            .camera_latencies_ms
            .iter()
            .fold(0.0f64, |a, &b| a.max(b));
        prop_assert!((s.system_latency_ms() - max).abs() < 1e-9);
    }

    #[test]
    fn balb_priority_is_a_permutation_sorted_by_latency(p in arb_problem()) {
        let s = balb_central(&p);
        let mut ids: Vec<usize> = s.priority.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..p.num_cameras()).collect::<Vec<_>>());
        for w in s.priority.windows(2) {
            prop_assert!(
                s.camera_latencies_ms[w[0].0] <= s.camera_latencies_ms[w[1].0] + 1e-9
            );
        }
    }

    #[test]
    fn balb_never_beats_the_exact_optimum(p in arb_problem()) {
        prop_assume!(p.num_objects() <= 10);
        let opt = exact::solve(&p, true, 20_000_000).expect("within budget");
        let balb = balb_central(&p);
        prop_assert!(opt.assignment.is_feasible(&p));
        prop_assert!(opt.system_latency_ms <= balb.system_latency_ms() + 1e-9);
    }

    #[test]
    fn adding_an_object_never_reduces_camera_latency(p in arb_problem()) {
        let s = balb_central(&p);
        let mut grown = s.assignment.clone();
        // Duplicate an arbitrary object's assignment onto its owner.
        let target = ObjectId(0);
        let owner = s.assignment.owners_of(target)[0];
        let before = grown.camera_latency_ms(&p, owner, true);
        // Assigning another visible object to the same camera cannot lower
        // its latency.
        for o in p.objects() {
            if o.covered_by(owner) && !grown.owners_of(o.id).contains(&owner) {
                grown.assign(o.id, owner);
                let after = grown.camera_latency_ms(&p, owner, true);
                prop_assert!(after + 1e-9 >= before);
                break;
            }
        }
    }

    #[test]
    fn balb_ind_is_feasible_and_maximal(p in arb_problem()) {
        let a = baselines::balb_ind(&p);
        prop_assert!(a.is_feasible(&p));
        for o in p.objects() {
            prop_assert_eq!(a.owners_of(o.id).len(), o.coverage_len());
        }
    }

    #[test]
    fn static_partition_is_deterministic_and_feasible(p in arb_problem()) {
        let a = baselines::static_partition_by_id(&p);
        let b = baselines::static_partition_by_id(&p);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.is_feasible(&p));
    }

    #[test]
    fn empty_assignment_latency_is_just_the_floor(p in arb_problem()) {
        let a = Assignment::empty(p.num_objects());
        for i in 0..p.num_cameras() {
            let cam = CameraId(i);
            prop_assert_eq!(a.camera_latency_ms(&p, cam, false), 0.0);
            prop_assert_eq!(
                a.camera_latency_ms(&p, cam, true),
                p.profile(cam).full_frame_ms()
            );
        }
    }

    #[test]
    fn balb_on_any_camera_subset_stays_feasible(
        p in arb_problem(),
        subset_bits in 1u32..64,
    ) {
        // Degraded-mode invariant: after dropping an arbitrary camera
        // subset (the fault-injection scenario), the restricted instance
        // is valid, BALB still produces a feasible single-owner schedule
        // on it, and the id maps translate consistently back to the
        // original instance.
        let m = p.num_cameras();
        let alive: Vec<CameraId> = (0..m)
            .filter(|i| subset_bits >> i & 1 == 1)
            .map(CameraId)
            .collect();
        prop_assume!(!alive.is_empty());
        let subset = p.restrict_to_cameras(&alive).expect("non-empty survivors");
        // Survivors + losses partition the original object set.
        prop_assert_eq!(
            subset.objects.len() + subset.lost_objects.len(),
            p.num_objects()
        );
        for &lost in &subset.lost_objects {
            prop_assert!(
                p.objects()[lost.0].coverage().all(|c| !alive.contains(&c)),
                "object {} was reported lost but a survivor covers it",
                lost
            );
        }
        let s = balb_central(&subset.problem);
        prop_assert!(s.assignment.is_feasible(&subset.problem));
        for o in subset.problem.objects() {
            prop_assert_eq!(s.assignment.owners_of(o.id).len(), 1);
            // Every owner exists in the original problem and covers the
            // original object there.
            let owner = subset.original_camera(s.assignment.owners_of(o.id)[0]);
            let original = subset.original_object(o.id);
            prop_assert!(p.objects()[original.0].covered_by(owner));
            prop_assert!(alive.contains(&owner));
        }
        // The lifted priority is a permutation of the survivors.
        let mut lifted = subset.lift_priority(&s.priority);
        lifted.sort_unstable();
        let mut expect = alive;
        expect.sort_unstable();
        prop_assert_eq!(lifted, expect);
    }

    #[test]
    fn subset_balb_never_beats_the_subset_exact_optimum(
        p in arb_problem(),
        subset_bits in 1u32..64,
    ) {
        // On small degraded instances the exact solver anchors BALB's
        // quality: the sub-problem's optimum is a lower bound, and removing
        // cameras can only raise it (fewer scheduling choices).
        prop_assume!(p.num_objects() <= 10);
        let m = p.num_cameras();
        let alive: Vec<CameraId> = (0..m)
            .filter(|i| subset_bits >> i & 1 == 1)
            .map(CameraId)
            .collect();
        prop_assume!(!alive.is_empty());
        let subset = p.restrict_to_cameras(&alive).expect("non-empty survivors");
        let balb = balb_central(&subset.problem);
        let opt = exact::solve(&subset.problem, true, 20_000_000).expect("within budget");
        prop_assert!(opt.assignment.is_feasible(&subset.problem));
        prop_assert!(
            opt.system_latency_ms <= balb.system_latency_ms() + 1e-9,
            "subset optimum {} beat by BALB {}",
            opt.system_latency_ms,
            balb.system_latency_ms()
        );
        if subset.objects.len() == p.num_objects() && subset.cameras.len() == m {
            // Identity restriction: the optimum must match the full one.
            let full_opt = exact::solve(&p, true, 20_000_000).expect("within budget");
            prop_assert!((full_opt.system_latency_ms - opt.system_latency_ms).abs() < 1e-9);
        }
    }
}
