//! Extensions sketched in the paper's Sec. V (limitations / future work),
//! implemented and evaluated here:
//!
//! * [`balb_redundant`] — *"we may allocate multiple cameras to track the
//!   same object"*: after the normal BALB pass, objects receive up to
//!   `redundancy − 1` additional owner cameras (chosen latency-aware), so
//!   a dynamic occlusion on one camera no longer loses the object.
//! * [`min_total_workload`] — *"an alternative formulation might simply
//!   minimize the cumulative processed workload"*: a scheduler for the
//!   non-real-time regime that minimizes the *sum* of camera latencies
//!   instead of the maximum.
//! * [`balb_quality_aware`] — *"assigning an object to a camera that is
//!   closer … might help improve classification accuracy"*: Algorithm 1
//!   with a tunable latency-vs-quality bias toward larger views.
//! * [`min_upload_cover`] — *"the multi-view scheduling idea may be
//!   extended to [centralized processing] by … uploading the minimum
//!   number of views that offers complete coverage of all objects"*: a
//!   greedy set-cover selection of cameras whose views jointly contain
//!   every object, for bandwidth-limited deployments that stream frames
//!   to an edge server instead of running DNNs onboard.

use crate::{balb_central, Assignment, BalbSchedule, CameraId, MvsProblem};
use mvs_vision::SizeCounts;
use std::collections::BTreeSet;

/// BALB with `redundancy`-fold object coverage.
///
/// The first owner per object comes from the standard central stage
/// (Algorithm 1). Extra owners are then added per object — most-covered
/// objects first, mirroring Algorithm 1's flexibility ordering — choosing
/// at each step the remaining covering camera with an open batch of the
/// object's size, or else the one with the smallest updated latency.
/// Objects seen by fewer cameras than `redundancy` simply get all of them.
///
/// With `redundancy == 1` this is exactly [`balb_central`].
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
    assert!(redundancy > 0, "redundancy must be at least one");
    let schedule = balb_central(problem);
    if redundancy == 1 {
        return schedule;
    }
    let m = problem.num_cameras();
    let mut assignment = schedule.assignment;
    let mut latencies = schedule.camera_latencies_ms;
    let mut counts: Vec<SizeCounts> = vec![SizeCounts::new(); m];
    // Rebuild batch occupancy from the single-owner assignment.
    for object in problem.objects() {
        for &owner in assignment.owners_of(object.id) {
            counts[owner.0].add(object.size_on(owner).expect("owner covers object"));
        }
    }
    // Most-covered objects first: they benefit most from extra views.
    let mut order: Vec<usize> = (0..problem.num_objects()).collect();
    order.sort_by(|&a, &b| {
        let oa = &problem.objects()[a];
        let ob = &problem.objects()[b];
        ob.coverage_len().cmp(&oa.coverage_len()).then(a.cmp(&b))
    });
    // Reused candidate-filter buffer: owners are re-read per step because
    // `assign` below invalidates any borrow of the owner list.
    let mut owners: Vec<CameraId> = Vec::new();
    for &j in &order {
        let object = &problem.objects()[j];
        while assignment.owners_of(object.id).len() < redundancy.min(object.coverage_len()) {
            // Candidates: covering cameras not yet owners.
            owners.clear();
            owners.extend_from_slice(assignment.owners_of(object.id));
            let candidate = object
                .coverage()
                .filter(|c| !owners.contains(c))
                .map(|c| {
                    let size = object.size_on(c).expect("covered");
                    let profile = problem.profile(c);
                    let open = counts[c.0].open_batch_capacity(size, profile) > 0;
                    let updated = if open {
                        latencies[c.0]
                    } else {
                        latencies[c.0] + profile.batch_latency_ms(size)
                    };
                    (c, open, updated)
                })
                // Open batches first (free), then the smallest updated
                // latency, then the lowest id for determinism.
                .min_by(|a, b| {
                    b.1.cmp(&a.1)
                        .then(a.2.partial_cmp(&b.2).expect("finite latencies"))
                        .then(a.0.cmp(&b.0))
                });
            let Some((camera, _, updated)) = candidate else {
                break;
            };
            let size = object.size_on(camera).expect("covered");
            counts[camera.0].add(size);
            latencies[camera.0] = updated;
            assignment.assign(object.id, camera);
        }
    }
    let mut priority: Vec<CameraId> = (0..m).map(CameraId).collect();
    priority.sort_by(|a, b| {
        latencies[a.0]
            .partial_cmp(&latencies[b.0])
            .expect("finite latencies")
            .then(a.0.cmp(&b.0))
    });
    BalbSchedule {
        assignment,
        camera_latencies_ms: latencies,
        priority,
    }
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
    use crate::{ObjectId, ProblemConfig};
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

/// Selects a small set of cameras whose views jointly cover every object —
/// the paper's proposed bandwidth-saving rule for centralized processing
/// ("uploading the minimum number of views that offers complete coverage
/// of all objects").
///
/// Minimum set cover is NP-hard; this is the classical greedy
/// `ln(N)`-approximation: repeatedly pick the camera that covers the most
/// still-uncovered objects (ties to the faster device, then the lower id).
/// Returns the chosen cameras in selection order.
///
/// # Examples
///
/// ```
/// use mvs_core::{extensions::min_upload_cover, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let p = MvsProblem::random(&mut rng, 5, 30, &ProblemConfig::default());
/// let chosen = min_upload_cover(&p);
/// // Every object is visible from at least one chosen camera.
/// for o in p.objects() {
///     assert!(o.coverage().any(|c| chosen.contains(&c)));
/// }
/// ```
pub fn min_upload_cover(problem: &MvsProblem) -> Vec<CameraId> {
    let mut uncovered: BTreeSet<usize> = (0..problem.num_objects()).collect();
    let mut chosen = Vec::new();
    let mut available: BTreeSet<usize> = (0..problem.num_cameras()).collect();
    while !uncovered.is_empty() {
        let (best, gain) = available
            .iter()
            .map(|&i| {
                let cam = CameraId(i);
                let gain = uncovered
                    .iter()
                    .filter(|&&j| problem.objects()[j].covered_by(cam))
                    .count();
                (i, gain)
            })
            .max_by(|a, b| {
                a.1.cmp(&b.1).then_with(|| {
                    problem
                        .profile(CameraId(a.0))
                        .speed_score()
                        .partial_cmp(&problem.profile(CameraId(b.0)).speed_score())
                        .expect("finite speed scores")
                        .then(b.0.cmp(&a.0))
                })
            })
            .expect("cameras remain while objects are uncovered");
        debug_assert!(gain > 0, "problem validation guarantees coverage");
        available.remove(&best);
        let cam = CameraId(best);
        uncovered.retain(|&j| !problem.objects()[j].covered_by(cam));
        chosen.push(cam);
    }
    chosen
}

#[cfg(test)]
mod cover_tests {
    use super::*;
    use crate::{CameraInfo, ObjectId, ObjectInfo, ProblemConfig};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn cover_is_complete_on_random_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..20 {
            let p = MvsProblem::random(&mut rng, 5, 25, &ProblemConfig::default());
            let chosen = min_upload_cover(&p);
            for o in p.objects() {
                assert!(
                    o.coverage().any(|c| chosen.contains(&c)),
                    "object {} uncovered",
                    o.id
                );
            }
            assert!(chosen.len() <= p.num_cameras());
        }
    }

    #[test]
    fn full_overlap_needs_one_camera() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let p = MvsProblem::random(
            &mut rng,
            4,
            20,
            &ProblemConfig {
                overlap_prob: 1.0,
                ..Default::default()
            },
        );
        let chosen = min_upload_cover(&p);
        assert_eq!(chosen.len(), 1);
        // Tie-break prefers the fastest device (the generator's camera 0
        // is a Xavier).
        assert_eq!(chosen[0], CameraId(0));
    }

    #[test]
    fn disjoint_views_need_every_camera() {
        let cameras: Vec<CameraInfo> = (0..3)
            .map(|i| CameraInfo {
                id: CameraId(i),
                profile: LatencyProfile::for_device(DeviceKind::Tx2),
            })
            .collect();
        let objects: Vec<ObjectInfo> = (0..6)
            .map(|j| ObjectInfo {
                id: ObjectId(j),
                sizes: BTreeMap::from([(CameraId(j % 3), SizeClass::S128)]),
            })
            .collect();
        let p = MvsProblem::new(cameras, objects).unwrap();
        let chosen = min_upload_cover(&p);
        assert_eq!(chosen.len(), 3);
    }

    #[test]
    fn greedy_prefers_high_gain_cameras() {
        // Camera 0 sees everything; cameras 1 and 2 see halves. Greedy
        // must pick only camera 0.
        let cameras: Vec<CameraInfo> = (0..3)
            .map(|i| CameraInfo {
                id: CameraId(i),
                profile: LatencyProfile::for_device(DeviceKind::Nano),
            })
            .collect();
        let objects: Vec<ObjectInfo> = (0..8)
            .map(|j| {
                let mut sizes = BTreeMap::from([(CameraId(0), SizeClass::S64)]);
                sizes.insert(CameraId(1 + j % 2), SizeClass::S64);
                ObjectInfo {
                    id: ObjectId(j),
                    sizes,
                }
            })
            .collect();
        let p = MvsProblem::new(cameras, objects).unwrap();
        assert_eq!(min_upload_cover(&p), vec![CameraId(0)]);
    }
}

/// Quality-aware BALB (paper Sec. V, "Object size" / "Heterogeneity among
/// cameras"): *"assigning an object to a camera that is closer (e.g., one
/// where the object accounts for more screen pixels) might help improve
/// classification accuracy. … The resulting trade-off between quality and
/// resource savings must be explored."*
///
/// This variant explores it: when an object must start a new batch, the
/// candidate cameras' updated latencies are discounted by
/// `quality_bias_ms × size_index` (size index 0–3 for 64–512 px), so
/// cameras with a *larger* (closer, easier-to-classify) view of the object
/// win ties and near-ties. `quality_bias_ms = 0` reduces to Algorithm 1's
/// choice rule; larger values trade latency for detection quality.
///
/// # Panics
///
/// Panics if `quality_bias_ms` is negative or not finite.
pub fn balb_quality_aware(problem: &MvsProblem, quality_bias_ms: f64) -> BalbSchedule {
    assert!(
        quality_bias_ms >= 0.0 && quality_bias_ms.is_finite(),
        "quality bias must be a non-negative finite number of milliseconds"
    );
    let m = problem.num_cameras();
    let mut assignment = Assignment::empty(problem.num_objects());
    let mut latencies: Vec<f64> = (0..m)
        .map(|i| problem.profile(CameraId(i)).full_frame_ms())
        .collect();
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
        // Open-batch preference is unchanged from Algorithm 1 (joining a
        // batch is free either way); quality only biases new-batch choices.
        let mut best_open: Option<(CameraId, f64)> = None;
        for camera in object.coverage() {
            let size = object.size_on(camera).expect("covered");
            let profile = problem.profile(camera);
            let cap = counts[camera.0].open_batch_capacity(size, profile);
            if cap > 0 {
                let rel = cap as f64 / profile.batch_limit(size) as f64;
                if best_open.is_none_or(|(_, prev)| rel > prev) {
                    best_open = Some((camera, rel));
                }
            }
        }
        if let Some((camera, _)) = best_open {
            counts[camera.0].add(object.size_on(camera).expect("covered"));
            assignment.assign(object.id, camera);
            continue;
        }
        let (camera, size, cost) = object
            .coverage()
            .map(|c| {
                let s = object.size_on(c).expect("covered");
                let t = problem.profile(c).batch_latency_ms(s);
                // Larger view (higher size index) → bigger discount.
                let discount = quality_bias_ms * s.index() as f64;
                (c, s, latencies[c.0] + t - discount)
            })
            .min_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .expect("finite scores")
                    .then(a.0.cmp(&b.0))
            })
            .expect("non-empty coverage");
        counts[camera.0].add(size);
        latencies[camera.0] += problem.profile(camera).batch_latency_ms(size);
        let _ = cost;
        assignment.assign(object.id, camera);
    }
    let mut priority: Vec<CameraId> = (0..m).map(CameraId).collect();
    priority.sort_by(|a, b| {
        latencies[a.0]
            .partial_cmp(&latencies[b.0])
            .expect("finite latencies")
            .then(a.0.cmp(&b.0))
    });
    BalbSchedule {
        assignment,
        camera_latencies_ms: latencies,
        priority,
    }
}

#[cfg(test)]
mod quality_tests {
    use super::*;
    use crate::{CameraInfo, ObjectId, ObjectInfo, ProblemConfig};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    #[test]
    fn zero_bias_matches_plain_balb_objective_value() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for _ in 0..10 {
            let p = MvsProblem::random(&mut rng, 4, 25, &ProblemConfig::default());
            let plain = balb_central(&p);
            let quality = balb_quality_aware(&p, 0.0);
            assert!(quality.assignment.is_feasible(&p));
            // Tie-breaking differs slightly (open-batch rule), but the
            // achieved system latency must be essentially the same.
            assert!(
                (quality.system_latency_ms() - plain.system_latency_ms()).abs()
                    < plain.system_latency_ms() * 0.15 + 1e-9,
                "quality {} vs plain {}",
                quality.system_latency_ms(),
                plain.system_latency_ms()
            );
        }
    }

    #[test]
    fn bias_pulls_objects_to_the_larger_view() {
        // Identical devices; the object appears large (S512) on camera 0
        // and small (S64) on camera 1. Plain BALB takes the cheap small
        // view; a strong quality bias flips the choice.
        let cameras: Vec<CameraInfo> = (0..2)
            .map(|i| CameraInfo {
                id: CameraId(i),
                profile: LatencyProfile::for_device(DeviceKind::Xavier),
            })
            .collect();
        let objects = vec![ObjectInfo {
            id: ObjectId(0),
            sizes: BTreeMap::from([
                (CameraId(0), SizeClass::S512),
                (CameraId(1), SizeClass::S64),
            ]),
        }];
        let p = MvsProblem::new(cameras, objects).unwrap();
        let plain = balb_quality_aware(&p, 0.0);
        assert_eq!(plain.assignment.sole_owner(ObjectId(0)), Some(CameraId(1)));
        let biased = balb_quality_aware(&p, 100.0);
        assert_eq!(biased.assignment.sole_owner(ObjectId(0)), Some(CameraId(0)));
    }

    #[test]
    fn bias_increases_mean_assigned_view_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let p = MvsProblem::random(
            &mut rng,
            4,
            60,
            &ProblemConfig {
                overlap_prob: 0.8,
                ..Default::default()
            },
        );
        let mean_size = |s: &BalbSchedule| {
            let total: usize = p
                .objects()
                .iter()
                .map(|o| {
                    let owner = s.assignment.owners_of(o.id)[0];
                    o.size_on(owner).expect("covered").index()
                })
                .sum();
            total as f64 / p.num_objects() as f64
        };
        let plain = balb_quality_aware(&p, 0.0);
        let biased = balb_quality_aware(&p, 40.0);
        assert!(
            mean_size(&biased) > mean_size(&plain),
            "bias should raise the mean assigned view size: {} vs {}",
            mean_size(&biased),
            mean_size(&plain)
        );
        // And pay for it in latency.
        assert!(biased.system_latency_ms() >= plain.system_latency_ms());
    }

    #[test]
    #[should_panic(expected = "quality bias must be")]
    fn negative_bias_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = MvsProblem::random(&mut rng, 2, 5, &ProblemConfig::default());
        balb_quality_aware(&p, -1.0);
    }
}
