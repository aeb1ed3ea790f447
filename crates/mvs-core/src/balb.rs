//! The central stage of BALB (Algorithm 1).
//!
//! Run on the central scheduler at every key frame, after cross-camera
//! association has produced the global object list. Objects are assigned in
//! a single pass, least-flexible first (smallest coverage set), preferring
//! cameras with an open (incomplete) batch of the object's crop size —
//! joining an open batch is latency-free — and otherwise starting a new
//! batch on the camera whose *updated* latency would be smallest.

use crate::{Assignment, CameraId, MvsProblem, ObjectInfo};
use mvs_geometry::SizeClass;
use mvs_vision::SizeCounts;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Output of the central stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalbSchedule {
    /// The produced feasible single-owner assignment.
    pub assignment: Assignment,
    /// Final per-camera latency `L_i` in ms, *including* the `t_i^full`
    /// initialization of Algorithm 1 line 1.
    pub camera_latencies_ms: Vec<f64>,
    /// Cameras sorted by increasing assigned latency — the fixed priority
    /// order used by the distributed stage for the rest of the horizon
    /// (lowest-latency camera first, i.e. highest priority first).
    pub priority: Vec<CameraId>,
}

impl BalbSchedule {
    /// A schedule over no cameras and no objects, to be filled by a solve.
    fn empty() -> Self {
        BalbSchedule {
            assignment: Assignment::empty(0),
            camera_latencies_ms: Vec::new(),
            priority: Vec::new(),
        }
    }

    /// System latency `L = max_i L_i` of this schedule.
    pub fn system_latency_ms(&self) -> f64 {
        self.camera_latencies_ms.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// Runs Algorithm 1 on an MVS instance.
///
/// Deterministic; complexity `max(O(N log N), O(M·N))`.
///
/// # Examples
///
/// ```
/// use mvs_core::{balb_central, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let problem = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
/// let schedule = balb_central(&problem);
/// assert!(schedule.assignment.is_feasible(&problem));
/// // Priority covers every camera exactly once.
/// assert_eq!(schedule.priority.len(), 4);
/// ```
pub fn balb_central(problem: &MvsProblem) -> BalbSchedule {
    let mut solver = BalbSolver::new();
    solver.solve(problem);
    solver.into_schedule()
}

/// Algorithm 1 over a [`BalbSolver`]'s buffers: the one solve body behind
/// [`balb_central`] (a fresh solver) and [`BalbSolver::solve`] (a reused
/// one). Every buffer is reset first, so the result depends on `problem`
/// alone.
fn greedy_pass(
    problem: &MvsProblem,
    order: &mut Vec<u64>,
    counts: &mut Vec<SizeCounts>,
    schedule: &mut BalbSchedule,
) {
    let m = problem.num_cameras();
    // Line 1: initialize latencies with the full-frame inspection time.
    let latencies = &mut schedule.camera_latencies_ms;
    latencies.clear();
    latencies.extend((0..m).map(|i| problem.profile(CameraId(i)).full_frame_ms()));
    counts.clear();
    counts.resize(m, SizeCounts::new());
    schedule.assignment.reset(problem.num_objects());

    // Line 2: reindex objects by non-decreasing |C_j|, ties in favor of
    // larger target size (then by id for determinism).
    order.clear();
    order.extend(
        problem
            .objects()
            .iter()
            .enumerate()
            .map(|(j, o)| order_key(o, j)),
    );
    order.sort_unstable();

    for &key in order.iter() {
        let object = &problem.objects()[order_key_index(key)];
        let camera = greedy_place(problem, object, latencies, counts);
        schedule.assignment.assign(object.id, camera);
    }

    // Distributed-stage priority: increasing assigned latency.
    schedule.priority.clear();
    schedule.priority.extend((0..m).map(CameraId));
    sort_priority(&mut schedule.priority, &schedule.camera_latencies_ms);
}

/// Packs one object's Algorithm 1 line-2 sort key into a `u64`, so the
/// scheduling order comes from an integer `sort_unstable` instead of a
/// comparator that re-derives `|C_j|`/`max_size` per comparison:
/// coverage-set size ascending, max crop size descending (stored inverted),
/// object index ascending. Lexicographic `u64` order therefore equals the
/// comparator order exactly, and the object index rides along in the low
/// bits so the sorted keys need no side table.
pub(crate) fn order_key(object: &ObjectInfo, index: usize) -> u64 {
    let cov = object.coverage_len() as u64;
    let inv_size = (SizeClass::COUNT
        - 1
        - object
            .max_size()
            .expect("coverage sets are non-empty by problem validation")
            .index()) as u64;
    assert!(
        cov <= 0xFFFF && index <= u32::MAX as usize,
        "instance too large for packed sort keys"
    );
    (cov << 40) | (inv_size << 32) | index as u64
}

/// Object index stored in the low bits of a packed sort key.
pub(crate) fn order_key_index(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// One greedy placement decision of Algorithm 1 lines 4-12, shared verbatim
/// by the monolithic pass and the per-component solve so both make
/// bitwise-identical choices: it mutates `latencies`/`counts` and returns
/// the chosen camera (the caller records the assignment).
pub(crate) fn greedy_place(
    problem: &MvsProblem,
    object: &ObjectInfo,
    latencies: &mut [f64],
    counts: &mut [SizeCounts],
) -> CameraId {
    // Line 4: cameras with an incomplete batch of this object's size.
    let mut best_open: Option<(CameraId, usize, usize)> = None; // (camera, capacity, limit)
    for camera in object.coverage() {
        let size = object
            .size_on(camera)
            .expect("coverage iterator yields covered cameras");
        let profile = problem.profile(camera);
        let cap = counts[camera.0].open_batch_capacity(size, profile);
        if cap > 0 {
            // "Largest relative capacity": free slots as a fraction of
            // the batch limit, so a half-empty small batch does not lose
            // to a slightly-used huge one. The fractions `cap / limit`
            // are compared exactly by integer cross-multiplication —
            // float division could round two distinct ratios into an
            // epsilon tie (or apart). Exact ties favor the less-loaded
            // camera, then the lower id, for determinism.
            let better = match best_open {
                None => true,
                Some((prev_cam, prev_cap, prev_limit)) => {
                    match cross_cmp(cap, profile.batch_limit(size), prev_cap, prev_limit) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => {
                            (latencies[camera.0], camera.0) < (latencies[prev_cam.0], prev_cam.0)
                        }
                    }
                }
            };
            if better {
                best_open = Some((camera, cap, profile.batch_limit(size)));
            }
        }
    }
    if let Some((camera, _, _)) = best_open {
        // Lines 5-8: join the open batch; latency is unchanged because
        // the batch's execution time was charged when it was opened.
        let size = object.size_on(camera).expect("covered");
        counts[camera.0].add(size);
        camera
    } else {
        // Lines 9-12: open a new batch on the camera minimizing the
        // *updated* latency L_i + t_i^{s_ij}.
        let (camera, size, cost) = object
            .coverage()
            .map(|c| {
                let s = object.size_on(c).expect("covered");
                let t = problem.profile(c).batch_latency_ms(s);
                (c, s, latencies[c.0] + t)
            })
            .min_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .expect("latencies are finite")
                    .then(a.0.cmp(&b.0))
            })
            .expect("coverage sets are non-empty by problem validation");
        counts[camera.0].add(size);
        latencies[camera.0] = cost;
        camera
    }
}

/// Sorts `priority` by increasing assigned latency, ties by camera id —
/// the distributed-stage order of every solve path.
pub(crate) fn sort_priority(priority: &mut [CameraId], latencies: &[f64]) {
    debug_assert!(
        priority
            .iter()
            .all(|c| latencies[c.0].is_finite() && latencies[c.0] >= 0.0),
        "latencies are finite and non-negative"
    );
    if priority.len() < 32 {
        // Small fleets: the float comparator's branchy cost is noise and
        // the stable sort stays allocation-free at this size.
        priority.sort_by(|a, b| {
            latencies[a.0]
                .partial_cmp(&latencies[b.0])
                .expect("latencies are finite")
                .then(a.0.cmp(&b.0))
        });
        return;
    }
    // City fleets: non-negative finite doubles order identically by IEEE
    // bit pattern, and the camera id in the low bits makes every key
    // unique, so one unstable integer sort reproduces the (latency, id)
    // lexicographic order of the float comparator exactly.
    let mut keys: Vec<u128> = priority
        .iter()
        .map(|c| ((latencies[c.0].to_bits() as u128) << 64) | c.0 as u128)
        .collect();
    keys.sort_unstable();
    for (slot, key) in priority.iter_mut().zip(&keys) {
        *slot = CameraId(*key as u64 as usize);
    }
}

/// Compares the relative capacities `cap_a / limit_a` and `cap_b / limit_b`
/// exactly via integer cross-multiplication (`cap_a·limit_b` vs
/// `cap_b·limit_a`), widened to `u128` so the products cannot overflow.
fn cross_cmp(cap_a: usize, limit_a: usize, cap_b: usize, limit_b: usize) -> std::cmp::Ordering {
    let lhs = cap_a as u128 * limit_b as u128;
    let rhs = cap_b as u128 * limit_a as u128;
    lhs.cmp(&rhs)
}

/// [`balb_central`] on buffers kept between solves.
///
/// A pipeline solves one instance per key frame for as long as it runs;
/// the solver owns the output schedule and the pass's scratch (sort keys,
/// per-camera batch counts), so steady-state solves allocate only when an
/// instance outgrows every earlier one. Each solve is the same from-scratch
/// Algorithm 1 pass as [`balb_central`] and returns the same bits;
/// [`BalbSolver::solve_redundant`] adds the paper's Sec. V redundancy
/// extension as a second step over the same buffers.
///
/// # Examples
///
/// ```
/// use mvs_core::{balb_central, BalbSolver, MvsProblem, ProblemConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let a = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
/// let b = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
///
/// let mut solver = BalbSolver::new();
/// assert_eq!(*solver.solve(&a), balb_central(&a));
/// assert_eq!(*solver.solve(&b), balb_central(&b));
/// assert_eq!(*solver.schedule(), balb_central(&b));
/// ```
#[derive(Debug)]
pub struct BalbSolver {
    /// Reused output; borrowed out to callers after each solve.
    schedule: BalbSchedule,
    counts: Vec<SizeCounts>,
    /// Packed line-2 sort keys, in scheduling order.
    order: Vec<u64>,
    solved: bool,
}

impl Default for BalbSolver {
    fn default() -> Self {
        BalbSolver::new()
    }
}

impl BalbSolver {
    /// Creates a solver that has not solved anything yet.
    #[must_use]
    pub fn new() -> Self {
        BalbSolver {
            schedule: BalbSchedule::empty(),
            counts: Vec::new(),
            order: Vec::new(),
            solved: false,
        }
    }

    /// Always `false`: every solve is a full pass; nothing is replayed
    /// from the previous one. Kept only because `bench-e2e/` calls it.
    #[must_use]
    pub fn last_solve_was_warm(&self) -> bool {
        false
    }

    /// The schedule produced by the most recent solve.
    ///
    /// # Panics
    ///
    /// Panics if the solver has never solved an instance.
    #[must_use]
    pub fn schedule(&self) -> &BalbSchedule {
        assert!(self.solved, "no solve has run yet");
        &self.schedule
    }

    /// The last solve's schedule, moved out of a solver that is done.
    pub(crate) fn into_schedule(self) -> BalbSchedule {
        assert!(self.solved, "no solve has run yet");
        self.schedule
    }

    /// Solves `problem` into the solver's buffers.
    pub fn solve(&mut self, problem: &MvsProblem) -> &BalbSchedule {
        self.solve_redundant(problem, 1)
    }

    /// Solves `problem` with `redundancy`-fold object coverage (paper
    /// Sec. V: *"we may allocate multiple cameras to track the same
    /// object"*), so a dynamic occlusion on one camera no longer loses the
    /// object.
    ///
    /// The first owner per object comes from Algorithm 1. Extra owners are
    /// then added per object — most-covered objects first, mirroring
    /// Algorithm 1's flexibility ordering — choosing at each step the
    /// remaining covering camera with an open batch of the object's size,
    /// or else the one with the smallest updated latency. Objects seen by
    /// fewer cameras than `redundancy` simply get all of them. With
    /// `redundancy == 1` this is exactly [`BalbSolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `redundancy` is zero.
    pub fn solve_redundant(&mut self, problem: &MvsProblem, redundancy: usize) -> &BalbSchedule {
        assert!(redundancy > 0, "redundancy must be at least one");
        greedy_pass(
            problem,
            &mut self.order,
            &mut self.counts,
            &mut self.schedule,
        );
        if redundancy > 1 {
            self.add_owners(problem, redundancy);
            sort_priority(
                &mut self.schedule.priority,
                &self.schedule.camera_latencies_ms,
            );
        }
        self.solved = true;
        &self.schedule
    }

    /// The redundancy extension: continues from the batch occupancy and
    /// latencies the greedy pass left behind.
    fn add_owners(&mut self, problem: &MvsProblem, redundancy: usize) {
        let BalbSchedule {
            assignment,
            camera_latencies_ms: latencies,
            ..
        } = &mut self.schedule;
        let counts = &mut self.counts;
        // Most-covered objects first (they benefit most from extra views),
        // then by index.
        let objects = problem.objects();
        self.order.clear();
        self.order.extend(0..objects.len() as u64);
        self.order
            .sort_unstable_by_key(|&j| (Reverse(objects[j as usize].coverage_len()), j));
        for &j in &self.order {
            let object = &objects[j as usize];
            let wanted = redundancy.min(object.coverage_len());
            while assignment.owners_of(object.id).len() < wanted {
                // Candidates: covering cameras not yet owners. Open batches
                // first (free), then the smallest updated latency, then the
                // lowest id for determinism.
                let owners = assignment.owners_of(object.id);
                let (camera, _, updated) = object
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
                    .min_by(|a, b| {
                        b.1.cmp(&a.1)
                            .then(a.2.partial_cmp(&b.2).expect("finite latencies"))
                            .then(a.0.cmp(&b.0))
                    })
                    .expect("fewer owners than covering cameras");
                counts[camera.0].add(object.size_on(camera).expect("covered"));
                latencies[camera.0] = updated;
                assignment.assign(object.id, camera);
            }
        }
    }
}

#[cfg(test)]
mod tie_break_tests {
    use super::cross_cmp;
    use std::cmp::Ordering;

    #[test]
    fn equal_fractions_compare_equal() {
        assert_eq!(cross_cmp(1, 3, 2, 6), Ordering::Equal);
        assert_eq!(cross_cmp(2, 4, 1, 2), Ordering::Equal);
        assert_eq!(cross_cmp(0, 5, 0, 9), Ordering::Equal);
    }

    #[test]
    fn distinct_fractions_never_tie() {
        assert_eq!(cross_cmp(1, 2, 1, 3), Ordering::Greater);
        assert_eq!(cross_cmp(1, 4, 1, 3), Ordering::Less);
    }

    #[test]
    fn sub_epsilon_differences_are_resolved_exactly() {
        // 1/1_000_000_000_000 vs 1/1_000_000_000_001 differ by ~1e-24 in
        // float — far inside the old 1e-12 epsilon tie band — yet the
        // cross-multiplied comparison distinguishes them.
        let a = (1usize, 1_000_000_000_000usize);
        let b = (1usize, 1_000_000_000_001usize);
        assert_eq!(cross_cmp(a.0, a.1, b.0, b.1), Ordering::Greater);
        assert_eq!(cross_cmp(b.0, b.1, a.0, a.1), Ordering::Less);
    }

    #[test]
    fn huge_operands_do_not_overflow() {
        let big = usize::MAX;
        assert_eq!(cross_cmp(big, big, big, big), Ordering::Equal);
        assert_eq!(cross_cmp(big, big, big - 1, big), Ordering::Greater);
    }
}

#[cfg(test)]
mod solver_tests {
    use super::*;
    use crate::ProblemConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Bitwise schedule comparison: `PartialEq` would accept `-0.0 == 0.0`;
    /// the determinism contract is stronger.
    fn assert_bitwise_eq(reused: &BalbSchedule, fresh: &BalbSchedule, ctx: &str) {
        assert_eq!(reused.assignment, fresh.assignment, "{ctx}: assignment");
        assert_eq!(reused.priority, fresh.priority, "{ctx}: priority");
        let bits = |s: &BalbSchedule| -> Vec<u64> {
            s.camera_latencies_ms.iter().map(|l| l.to_bits()).collect()
        };
        assert_eq!(bits(reused), bits(fresh), "{ctx}: latency bits");
    }

    #[test]
    fn first_solve_matches_central() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let p = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        assert_bitwise_eq(solver.solve(&p), &balb_central(&p), "first solve");
        assert!(!solver.last_solve_was_warm());
    }

    #[test]
    #[should_panic(expected = "no solve has run yet")]
    fn schedule_before_first_solve_panics() {
        let _ = BalbSolver::new().schedule();
    }

    #[test]
    fn growth_and_shrink_sequences_stay_bitwise_identical() {
        // One solver over instances of varying size: whatever an earlier,
        // larger solve left in the buffers must not leak into a later one.
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        let mut solver = BalbSolver::new();
        for step in 0..20 {
            let n = rng.gen_range(0..40);
            let p = MvsProblem::random(&mut rng, 4, n, &ProblemConfig::default());
            let reused = solver.solve(&p).clone();
            assert_bitwise_eq(&reused, &balb_central(&p), &format!("step {step}, n={n}"));
            assert_bitwise_eq(solver.schedule(), &reused, "schedule() is the last solve");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CameraInfo, ObjectId, ObjectInfo, ProblemConfig};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    fn problem(devices: &[DeviceKind], objects: &[&[(usize, SizeClass)]]) -> MvsProblem {
        let cameras: Vec<CameraInfo> = devices
            .iter()
            .enumerate()
            .map(|(i, &d)| CameraInfo {
                id: CameraId(i),
                profile: LatencyProfile::for_device(d),
            })
            .collect();
        let objects: Vec<ObjectInfo> = objects
            .iter()
            .enumerate()
            .map(|(j, cov)| ObjectInfo {
                id: ObjectId(j),
                sizes: cov
                    .iter()
                    .map(|&(c, s)| (CameraId(c), s))
                    .collect::<BTreeMap<_, _>>(),
            })
            .collect();
        MvsProblem::new(cameras, objects).unwrap()
    }

    #[test]
    fn single_coverage_objects_are_deterministic() {
        let p = problem(
            &[DeviceKind::Xavier, DeviceKind::Nano],
            &[
                &[(0, SizeClass::S64)],
                &[(1, SizeClass::S128)],
                &[(1, SizeClass::S64)],
            ],
        );
        let s = balb_central(&p);
        assert_eq!(s.assignment.sole_owner(ObjectId(0)), Some(CameraId(0)));
        assert_eq!(s.assignment.sole_owner(ObjectId(1)), Some(CameraId(1)));
        assert_eq!(s.assignment.sole_owner(ObjectId(2)), Some(CameraId(1)));
    }

    #[test]
    fn shared_object_goes_to_less_loaded_camera() {
        // Xavier (fast) vs Nano (slow, high t_full): a shared object should
        // land on the Xavier.
        let p = problem(
            &[DeviceKind::Xavier, DeviceKind::Nano],
            &[&[(0, SizeClass::S128), (1, SizeClass::S128)]],
        );
        let s = balb_central(&p);
        assert_eq!(s.assignment.sole_owner(ObjectId(0)), Some(CameraId(0)));
    }

    #[test]
    fn open_batch_attracts_shared_objects() {
        // Object 0 is pinned to the Nano and opens an S64 batch there
        // (limit 4). Object 1 is visible from both cameras: despite the
        // Nano's higher latency, it joins the open batch for free.
        let p = problem(
            &[DeviceKind::Xavier, DeviceKind::Nano],
            &[
                &[(1, SizeClass::S64)],
                &[(0, SizeClass::S64), (1, SizeClass::S64)],
            ],
        );
        let s = balb_central(&p);
        assert_eq!(s.assignment.sole_owner(ObjectId(1)), Some(CameraId(1)));
        // And joining the batch did not raise the Nano's latency.
        assert!(
            (s.camera_latencies_ms[1] - (650.0 + 31.0)).abs() < 1e-9,
            "nano latency {}",
            s.camera_latencies_ms[1]
        );
    }

    #[test]
    fn new_batch_goes_to_min_updated_latency() {
        // Both cameras are Xaviers; object sizes differ per camera so the
        // *updated* latency rule matters: camera 0 sees it big (S512,
        // 40 ms), camera 1 sees it small (S64, 5 ms).
        let p = problem(
            &[DeviceKind::Xavier, DeviceKind::Xavier],
            &[&[(0, SizeClass::S512), (1, SizeClass::S64)]],
        );
        let s = balb_central(&p);
        assert_eq!(s.assignment.sole_owner(ObjectId(0)), Some(CameraId(1)));
    }

    #[test]
    fn latencies_match_recomputation() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..30 {
            let p = MvsProblem::random(&mut rng, 5, 40, &ProblemConfig::default());
            let s = balb_central(&p);
            assert!(s.assignment.is_feasible(&p));
            for i in 0..p.num_cameras() {
                let recomputed = s.assignment.camera_latency_ms(&p, CameraId(i), true);
                assert!(
                    (recomputed - s.camera_latencies_ms[i]).abs() < 1e-6,
                    "camera {i}: incremental {} vs recomputed {recomputed}",
                    s.camera_latencies_ms[i]
                );
            }
        }
    }

    #[test]
    fn priority_is_sorted_by_latency() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let p = MvsProblem::random(&mut rng, 6, 50, &ProblemConfig::default());
        let s = balb_central(&p);
        for w in s.priority.windows(2) {
            assert!(s.camera_latencies_ms[w[0].0] <= s.camera_latencies_ms[w[1].0]);
        }
    }

    #[test]
    fn every_object_has_exactly_one_owner() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let p = MvsProblem::random(&mut rng, 4, 60, &ProblemConfig::default());
        let s = balb_central(&p);
        for o in p.objects() {
            assert_eq!(s.assignment.owners_of(o.id).len(), 1);
        }
    }

    #[test]
    fn balances_better_than_naive_first_camera_assignment() {
        // Aggregated over random instances, BALB's max latency should beat
        // the trivial "assign to first covering camera" heuristic clearly
        // (greedy algorithms give no per-instance guarantee, so this is a
        // distributional check).
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let (mut balb_total, mut naive_total) = (0.0, 0.0);
        for _ in 0..20 {
            let p = MvsProblem::random(&mut rng, 4, 40, &ProblemConfig::default());
            let s = balb_central(&p);
            let mut naive = Assignment::empty(p.num_objects());
            for o in p.objects() {
                naive.assign(o.id, o.coverage().next().unwrap());
            }
            balb_total += s.system_latency_ms();
            naive_total += naive.system_latency_ms(&p, true);
        }
        assert!(
            balb_total < naive_total,
            "BALB total {balb_total} vs naive total {naive_total}"
        );
    }
}
