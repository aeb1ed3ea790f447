//! Extensions sketched in the paper's Sec. V (limitations / future work),
//! implemented and evaluated here:
//!
//! * [`balb_redundant`] — *"we may allocate multiple cameras to track the
//!   same object"*: [`BalbSolver::solve_redundant`] on a fresh solver.
//! * [`min_total_workload`] — *"an alternative formulation might simply
//!   minimize the cumulative processed workload"*: a scheduler for the
//!   non-real-time regime that minimizes the *sum* of camera latencies
//!   instead of the maximum.

use crate::{Assignment, BalbSchedule, BalbSolver, CameraId, MvsProblem};
use mvs_vision::SizeCounts;

/// BALB with `redundancy`-fold object coverage:
/// [`BalbSolver::solve_redundant`] on a fresh solver, for callers that solve
/// one instance. With `redundancy == 1` this is exactly
/// [`balb_central`](crate::balb_central).
///
/// # Panics
///
/// Panics if `redundancy` is zero.
///
/// # Examples
///
/// ```
/// use mvs_core::{extensions::balb_redundant, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let p = MvsProblem::random(&mut rng, 4, 15, &ProblemConfig::default());
/// let single = balb_redundant(&p, 1);
/// let double = balb_redundant(&p, 2);
/// assert!(double.system_latency_ms() >= single.system_latency_ms());
/// ```
pub fn balb_redundant(problem: &MvsProblem, redundancy: usize) -> BalbSchedule {
    let mut solver = BalbSolver::new();
    solver.solve_redundant(problem, redundancy);
    solver.into_schedule()
}

/// Alternative objective: minimize the **total** processed workload
/// `Σ_i L_i` instead of the maximum (for applications without a real-time
/// response requirement).
///
/// Greedy single pass in BALB's order: each object joins an open batch of
/// its size when one exists anywhere in its coverage set (zero marginal
/// cost), and otherwise goes to the camera whose *new batch* is cheapest
/// in absolute milliseconds — regardless of how loaded that camera already
/// is. Returns the assignment and the total workload in ms.
///
/// # Examples
///
/// ```
/// use mvs_core::{extensions::min_total_workload, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let p = MvsProblem::random(&mut rng, 4, 15, &ProblemConfig::default());
/// let (assignment, total) = min_total_workload(&p);
/// assert!(assignment.is_feasible(&p));
/// assert!(total > 0.0);
/// ```
pub fn min_total_workload(problem: &MvsProblem) -> (Assignment, f64) {
    let m = problem.num_cameras();
    let mut assignment = Assignment::empty(problem.num_objects());
    let mut counts: Vec<SizeCounts> = vec![SizeCounts::new(); m];
    let mut order: Vec<usize> = (0..problem.num_objects()).collect();
    order.sort_by(|&a, &b| {
        let oa = &problem.objects()[a];
        let ob = &problem.objects()[b];
        oa.coverage_len()
            .cmp(&ob.coverage_len())
            .then(ob.max_size().cmp(&oa.max_size()))
            .then(a.cmp(&b))
    });
    for &j in &order {
        let object = &problem.objects()[j];
        let (camera, _) = object
            .coverage()
            .map(|c| {
                let size = object.size_on(c).expect("covered");
                let profile = problem.profile(c);
                let marginal = if counts[c.0].open_batch_capacity(size, profile) > 0 {
                    0.0
                } else {
                    profile.batch_latency_ms(size)
                };
                (c, marginal)
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite costs")
                    .then(a.0.cmp(&b.0))
            })
            .expect("non-empty coverage by problem validation");
        counts[camera.0].add(object.size_on(camera).expect("covered"));
        assignment.assign(object.id, camera);
    }
    let total = (0..m)
        .map(|i| counts[i].latency_ms(problem.profile(CameraId(i))))
        .sum();
    (assignment, total)
}

/// Total workload `Σ_i L_i` (ms, without full-frame floors) of an
/// arbitrary assignment — the metric [`min_total_workload`] optimizes.
pub fn total_workload_ms(problem: &MvsProblem, assignment: &Assignment) -> f64 {
    (0..problem.num_cameras())
        .map(|i| assignment.camera_latency_ms(problem, CameraId(i), false))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balb_central, ObjectId, ProblemConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_problem(seed: u64, m: usize, n: usize) -> MvsProblem {
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
    }

    #[test]
    fn redundancy_one_is_plain_balb() {
        let p = random_problem(1, 4, 20);
        let a = balb_redundant(&p, 1);
        let b = balb_central(&p);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.camera_latencies_ms, b.camera_latencies_ms);
    }

    #[test]
    fn redundancy_adds_owners_up_to_coverage() {
        let p = random_problem(2, 4, 20);
        let s = balb_redundant(&p, 2);
        assert!(s.assignment.is_feasible(&p));
        for o in p.objects() {
            let owners = s.assignment.owners_of(o.id).len();
            assert_eq!(owners, 2.min(o.coverage_len()), "object {}", o.id);
        }
    }

    #[test]
    fn high_redundancy_saturates_at_full_coverage() {
        let p = random_problem(3, 3, 12);
        let s = balb_redundant(&p, 10);
        for o in p.objects() {
            assert_eq!(s.assignment.owners_of(o.id).len(), o.coverage_len());
        }
    }

    #[test]
    fn redundancy_monotonically_increases_latency() {
        let p = random_problem(4, 4, 25);
        let mut prev = 0.0;
        for r in 1..=3 {
            let s = balb_redundant(&p, r);
            let latency = s.system_latency_ms();
            assert!(latency + 1e-9 >= prev, "redundancy {r}: {latency} < {prev}");
            prev = latency;
        }
    }

    #[test]
    fn redundant_latencies_match_recomputation() {
        let p = random_problem(5, 5, 30);
        let s = balb_redundant(&p, 2);
        for i in 0..p.num_cameras() {
            let recomputed = s.assignment.camera_latency_ms(&p, CameraId(i), true);
            assert!(
                (recomputed - s.camera_latencies_ms[i]).abs() < 1e-6,
                "camera {i}: {} vs {recomputed}",
                s.camera_latencies_ms[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "redundancy must be at least one")]
    fn zero_redundancy_panics() {
        let p = random_problem(6, 2, 5);
        balb_redundant(&p, 0);
    }

    #[test]
    fn total_workload_objective_beats_balb_on_its_own_metric() {
        let mut balb_total = 0.0;
        let mut opt_total = 0.0;
        for seed in 0..15 {
            let p = random_problem(seed, 4, 30);
            let balb = balb_central(&p);
            balb_total += total_workload_ms(&p, &balb.assignment);
            let (_, total) = min_total_workload(&p);
            opt_total += total;
        }
        assert!(
            opt_total <= balb_total + 1e-9,
            "total-workload scheduler lost on its own objective: {opt_total} vs {balb_total}"
        );
    }

    #[test]
    fn total_workload_assignment_is_feasible_single_owner() {
        let p = random_problem(7, 5, 40);
        let (a, total) = min_total_workload(&p);
        assert!(a.is_feasible(&p));
        for o in p.objects() {
            assert_eq!(a.owners_of(o.id).len(), 1);
        }
        assert!((total_workload_ms(&p, &a) - total).abs() < 1e-6);
    }

    #[test]
    fn objectives_disagree_when_loads_skew() {
        // A case where total-workload happily piles everything on one
        // camera while BALB spreads it: many same-size shared objects.
        use crate::{CameraInfo, ObjectInfo};
        use mvs_geometry::SizeClass;
        use mvs_vision::{DeviceKind, LatencyProfile};
        use std::collections::BTreeMap;
        let cameras = vec![
            CameraInfo {
                id: CameraId(0),
                profile: LatencyProfile::for_device(DeviceKind::Xavier),
            },
            CameraInfo {
                id: CameraId(1),
                profile: LatencyProfile::for_device(DeviceKind::Xavier),
            },
        ];
        let objects: Vec<ObjectInfo> = (0..24)
            .map(|j| {
                let mut sizes = BTreeMap::new();
                sizes.insert(CameraId(0), SizeClass::S64);
                sizes.insert(CameraId(1), SizeClass::S64);
                ObjectInfo {
                    id: ObjectId(j),
                    sizes,
                }
            })
            .collect();
        let p = MvsProblem::new(cameras, objects).unwrap();
        let balb = balb_central(&p);
        let (workload_a, _) = min_total_workload(&p);
        // Total-workload never opens a second batch while one is open →
        // fills camera 0 completely; BALB balances the two cameras.
        let balb_max = balb.assignment.system_latency_ms(&p, false);
        let workload_max = workload_a.system_latency_ms(&p, false);
        assert!(
            balb_max <= workload_max,
            "BALB max {balb_max} vs workload max {workload_max}"
        );
        assert!(
            total_workload_ms(&p, &workload_a) <= total_workload_ms(&p, &balb.assignment) + 1e-9
        );
    }
}
