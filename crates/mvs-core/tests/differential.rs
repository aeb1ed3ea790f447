//! Differential test: BALB against the exact branch-and-bound solver on
//! randomized instances up to 8 cameras and 14 objects.
//!
//! Two invariants anchor the heuristic:
//!
//! 1. **Dominance** — the exact optimum is never beaten. A BALB schedule
//!    cheaper than the optimum means one of the two latency models is
//!    wrong, which is precisely the bug class a differential test catches.
//! 2. **Approximation quality** — on the paper's system-latency objective
//!    (partial-frame cost plus the `t^full` key-frame initialization) BALB
//!    stays within 2x of optimal. Empirically it is optimal on every
//!    sampled instance at these sizes; the 2x bound leaves room for ties
//!    broken differently while still catching real regressions.
//!
//! Instances that exhaust the solver's node budget are discarded via
//! `prop_assume` — the budget is sized so that essentially none do at
//! these instance sizes.
//!
//! A third case holds one reused [`BalbSolver`] to a from-scratch solve
//! ([`balb_central`], [`balb_redundant`]) bit for bit over instance
//! sequences that grow, shrink, change fleet size, lose cameras and change
//! redundancy.

use mvs_core::extensions::balb_redundant;
use mvs_core::{balb_central, exact, BalbSolver, CameraId, MvsProblem, ProblemConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const NODE_BUDGET: u64 = 20_000_000;

fn arb_instance() -> impl Strategy<Value = MvsProblem> {
    (
        any::<u64>(),
        1usize..9,
        1usize..15,
        0.0f64..1.0,
        0.0f64..0.8,
    )
        .prop_map(|(seed, m, n, overlap, growth)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            MvsProblem::random(
                &mut rng,
                m,
                n,
                &ProblemConfig {
                    overlap_prob: overlap,
                    size_growth_prob: growth,
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn balb_is_dominated_and_within_2x_on_system_latency(p in arb_instance()) {
        let balb = balb_central(&p);
        let solved = exact::solve(&p, true, NODE_BUDGET);
        prop_assume!(solved.is_ok());
        let opt = solved.unwrap();
        let balb_ms = balb.assignment.system_latency_ms(&p, true);
        prop_assert!(
            opt.system_latency_ms <= balb_ms + 1e-9,
            "exact ({} ms) must never lose to BALB ({} ms)",
            opt.system_latency_ms,
            balb_ms
        );
        prop_assert!(
            balb_ms <= 2.0 * opt.system_latency_ms + 1e-9,
            "BALB ({} ms) exceeded 2x the optimum ({} ms)",
            balb_ms,
            opt.system_latency_ms
        );
    }

    #[test]
    fn balb_is_dominated_on_partial_frame_latency(p in arb_instance()) {
        // The pure partial-frame objective (no t^full floor) exposes much
        // larger heuristic gaps, so only dominance is asserted here.
        let balb = balb_central(&p);
        let solved = exact::solve(&p, false, NODE_BUDGET);
        prop_assume!(solved.is_ok());
        let opt = solved.unwrap();
        let balb_ms = balb.assignment.system_latency_ms(&p, false);
        prop_assert!(
            opt.system_latency_ms <= balb_ms + 1e-9,
            "exact ({} ms) must never lose to BALB ({} ms)",
            opt.system_latency_ms,
            balb_ms
        );
        // And the optimum is itself feasible under the same model.
        prop_assert!(opt.assignment.is_feasible(&p));
    }

    #[test]
    fn reused_solver_matches_central_bitwise(
        seed in any::<u64>(),
        shapes in proptest::collection::vec(
            (1usize..9, 0usize..25, 1usize..4, 0usize..256),
            1..8,
        ),
    ) {
        // Buffers sized by one instance must leave nothing behind for the
        // next: fleets and object lists grow and shrink (down to no objects
        // at all) between consecutive solves on one solver, and so do the
        // redundancy and the part of the fleet that is solved — what a
        // pipeline's key frames ask of its solver under camera faults.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut solver = BalbSolver::new();
        prop_assert!(
            std::panic::catch_unwind(|| BalbSolver::new().schedule().clone()).is_err(),
            "schedule() before any solve must panic"
        );
        let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (m, n, redundancy, alive_mask) in shapes {
            let full = MvsProblem::random(&mut rng, m, n, &ProblemConfig::default());
            let alive: Vec<CameraId> =
                (0..m).filter(|i| alive_mask >> i & 1 == 1).map(CameraId).collect();
            // No survivor: the pipeline coasts and solves nothing.
            let p = match full.restrict_to_cameras(&alive) {
                Ok(subset) => subset.problem,
                Err(_) => full,
            };
            let fresh = balb_redundant(&p, redundancy);
            if redundancy == 1 {
                prop_assert_eq!(&fresh, &balb_central(&p));
                prop_assert_eq!(solver.solve(&p), &fresh);
            }
            let reused = solver.solve_redundant(&p, redundancy).clone();
            for reused in [&reused, solver.schedule()] {
                prop_assert_eq!(&reused.assignment, &fresh.assignment);
                prop_assert_eq!(&reused.priority, &fresh.priority);
                prop_assert_eq!(
                    bits(&reused.camera_latencies_ms),
                    bits(&fresh.camera_latencies_ms)
                );
            }
            prop_assert!(!solver.last_solve_was_warm());
        }
    }
}
