//! The central stage of BALB (Algorithm 1).
//!
//! Run on the central scheduler at every key frame, after cross-camera
//! association has produced the global object list. Objects are assigned in
//! a single pass, least-flexible first (smallest coverage set), preferring
//! cameras with an open (incomplete) batch of the object's crop size —
//! joining an open batch is latency-free — and otherwise starting a new
//! batch on the camera whose *updated* latency would be smallest.

use crate::{Assignment, CameraId, MvsProblem, ObjectId, ObjectInfo, ProblemDelta, ProblemError};
use mvs_geometry::SizeClass;
use mvs_vision::SizeCounts;
use serde::{Deserialize, Serialize};

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
    let m = problem.num_cameras();
    let mut assignment = Assignment::empty(problem.num_objects());
    // Line 1: initialize latencies with the full-frame inspection time.
    let mut latencies: Vec<f64> = (0..m)
        .map(|i| problem.profile(CameraId(i)).full_frame_ms())
        .collect();
    let mut counts: Vec<SizeCounts> = vec![SizeCounts::new(); m];

    // Line 2: reindex objects by non-decreasing |C_j|, ties in favor of
    // larger target size (then by id for determinism).
    let mut order: Vec<u64> = (0..problem.num_objects())
        .map(|j| order_key(&problem.objects()[j], j))
        .collect();
    order.sort_unstable();

    for &key in &order {
        let j = order_key_index(key);
        let object = &problem.objects()[j];
        let camera = greedy_place(problem, object, &mut latencies, &mut counts);
        assignment.assign(object.id, camera);
    }

    // Distributed-stage priority: increasing assigned latency.
    let mut priority: Vec<CameraId> = (0..m).map(CameraId).collect();
    sort_priority(&mut priority, &latencies);

    BalbSchedule {
        assignment,
        camera_latencies_ms: latencies,
        priority,
    }
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
/// by the cold solve and [`BalbSolver`]'s warm path so both make
/// bitwise-identical choices: it mutates `latencies`/`counts` exactly like
/// the cold loop and returns the chosen camera (the caller records the
/// assignment).
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
/// the distributed-stage order of both the cold and warm solvers.
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
    // lexicographic order of the float comparator exactly — this is the
    // serial tail of the sharded key-frame solve, so its constant matters.
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

/// Counters exposed by [`BalbSolver::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves that ran the full greedy pass from position 0.
    pub cold_solves: u64,
    /// Solves that replayed a non-empty prefix of recorded decisions.
    pub warm_solves: u64,
    /// Total scheduling positions replayed in O(1) across all warm solves.
    pub replayed_positions: u64,
}

/// Warm-started, allocation-reusing variant of [`balb_central`].
///
/// The solver keeps the previous instance, its scheduling order, and the
/// per-position camera decisions. On the next solve it finds the longest
/// prefix of scheduling positions whose object data (the `sizes` maps, in
/// Algorithm 1 order) is unchanged, replays the recorded decisions over that
/// prefix in O(1) per position via [`SizeCounts::add_with_delta`], and runs
/// the shared greedy step only from the first divergent position. Because
/// every greedy decision depends only on the per-position object data and
/// the evolving `(latencies, counts)` state — never on object ids — the
/// result is **bitwise identical** to a cold [`balb_central`] solve of the
/// same instance (a property-tested invariant).
///
/// When the frame-over-frame change exceeds
/// [`BalbSolver::fallback_threshold`] (as a fraction of the instance size),
/// or the camera fleet itself changed, the solver falls back to a cold pass
/// — still into its reused buffers, so steady-state solves allocate only
/// when the instance outgrows previous capacity.
///
/// # Examples
///
/// ```
/// use mvs_core::{balb_central, BalbSolver, MvsProblem, ProblemConfig, ProblemDelta};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let a = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
/// let b = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
///
/// let mut solver = BalbSolver::new();
/// assert_eq!(*solver.solve(&a), balb_central(&a));
/// // Repair towards `b` through a delta instead of re-solving from scratch.
/// let delta = ProblemDelta::between(&a, &b);
/// assert_eq!(*solver.apply_delta(&delta).unwrap(), balb_central(&b));
/// ```
#[derive(Debug)]
pub struct BalbSolver {
    problem: Option<MvsProblem>,
    /// Packed line-2 sort keys of the previous solve, in scheduling order.
    order: Vec<u64>,
    /// Camera chosen at each scheduling position of the previous solve.
    decisions: Vec<CameraId>,
    /// Reused output; borrowed out to callers after each solve.
    schedule: BalbSchedule,
    counts: Vec<SizeCounts>,
    next_order: Vec<u64>,
    fallback_frac: f64,
    stats: SolverStats,
    last_was_warm: bool,
}

impl Default for BalbSolver {
    fn default() -> Self {
        BalbSolver::new()
    }
}

impl BalbSolver {
    /// Default cold-fallback threshold: warm repair is attempted while at
    /// most this fraction of scheduling positions changed since the last
    /// solve.
    pub const DEFAULT_FALLBACK_THRESHOLD: f64 = 0.25;

    /// Creates a solver with no previous state (the first solve is cold).
    #[must_use]
    pub fn new() -> Self {
        BalbSolver {
            problem: None,
            order: Vec::new(),
            decisions: Vec::new(),
            schedule: BalbSchedule {
                assignment: Assignment::empty(0),
                camera_latencies_ms: Vec::new(),
                priority: Vec::new(),
            },
            counts: Vec::new(),
            next_order: Vec::new(),
            fallback_frac: Self::DEFAULT_FALLBACK_THRESHOLD,
            stats: SolverStats::default(),
            last_was_warm: false,
        }
    }

    /// Creates a solver with a custom cold-fallback threshold in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn with_fallback_threshold(frac: f64) -> Self {
        assert!(
            frac.is_finite() && (0.0..=1.0).contains(&frac),
            "fallback threshold must be in [0, 1], got {frac}"
        );
        BalbSolver {
            fallback_frac: frac,
            ..BalbSolver::new()
        }
    }

    /// The configured cold-fallback threshold.
    #[must_use]
    pub fn fallback_threshold(&self) -> f64 {
        self.fallback_frac
    }

    /// Solve counters since construction.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Whether the most recent solve took the warm (prefix-replay) path.
    #[must_use]
    pub fn last_solve_was_warm(&self) -> bool {
        self.last_was_warm
    }

    /// Discards the previous solve's warm state: the next solve runs cold,
    /// exactly as on a fresh solver. Solve counters survive.
    ///
    /// A multi-tenant serving front-end calls this when it reconfigures a
    /// tenant (e.g. sheds redundancy under admission control): warm state
    /// describes schedules of the old configuration and must not seed
    /// repairs of the new one.
    pub fn reset(&mut self) {
        self.problem = None;
        self.order.clear();
        self.decisions.clear();
        self.counts.clear();
        self.next_order.clear();
        self.last_was_warm = false;
    }

    /// The schedule produced by the most recent solve.
    ///
    /// # Panics
    ///
    /// Panics if the solver has never solved an instance.
    #[must_use]
    pub fn schedule(&self) -> &BalbSchedule {
        assert!(self.problem.is_some(), "no solve has run yet");
        &self.schedule
    }

    /// Solves `problem`, warm-starting from the previous solve when the
    /// frame-over-frame change is small enough. Clones the instance into
    /// the solver's persistent state; callers that can hand over ownership
    /// should prefer [`BalbSolver::solve_owned`].
    pub fn solve(&mut self, problem: &MvsProblem) -> &BalbSchedule {
        self.solve_owned(problem.clone())
    }

    /// Like [`BalbSolver::solve`], but takes ownership of the instance so
    /// no clone is needed.
    pub fn solve_owned(&mut self, problem: MvsProblem) -> &BalbSchedule {
        let n = problem.num_objects();
        self.build_next_order(&problem);

        // Longest prefix of scheduling positions whose object data is
        // unchanged. Ids are irrelevant here: the greedy decision at a
        // position is a pure function of the size map at that position and
        // the state accumulated from earlier positions.
        let prefix = match &self.problem {
            Some(prev) if prev.cameras() == problem.cameras() => {
                let shared = self.order.len().min(n).min(self.decisions.len());
                (0..shared)
                    .take_while(|&p| {
                        let pj = order_key_index(self.order[p]);
                        let nj = order_key_index(self.next_order[p]);
                        prev.objects()[pj].sizes == problem.objects()[nj].sizes
                    })
                    .count()
            }
            _ => 0,
        };
        self.finish_solve(problem, prefix)
    }

    /// Sorts the instance's packed line-2 keys into `self.next_order`.
    fn build_next_order(&mut self, problem: &MvsProblem) {
        self.next_order.clear();
        self.next_order.extend(
            problem
                .objects()
                .iter()
                .enumerate()
                .map(|(j, o)| order_key(o, j)),
        );
        self.next_order.sort_unstable();
    }

    /// Runs the solve given an already-built `next_order` and a proven-valid
    /// replay prefix (every position `< prefix` holds an object whose size
    /// map is unchanged since the previous solve).
    fn finish_solve(&mut self, problem: MvsProblem, prefix: usize) -> &BalbSchedule {
        let n = problem.num_objects();
        let m = problem.num_cameras();
        let changed = n.max(self.order.len()) - prefix;
        let warm = prefix > 0 && changed as f64 <= self.fallback_frac * n.max(1) as f64;
        let start = if warm { prefix } else { 0 };

        // Reset per-solve state into the reused buffers.
        let latencies = &mut self.schedule.camera_latencies_ms;
        latencies.clear();
        latencies.extend((0..m).map(|i| problem.profile(CameraId(i)).full_frame_ms()));
        self.counts.clear();
        self.counts.resize(m, SizeCounts::new());
        self.schedule.assignment.reset(n);

        // Replay the unchanged prefix: O(1) per position. A join returns a
        // 0.0 delta (latency bitwise unchanged); opening a batch returns
        // exactly the `batch_latency_ms` the cold loop would have added.
        for p in 0..start {
            let j = order_key_index(self.next_order[p]);
            let object = &problem.objects()[j];
            let camera = self.decisions[p];
            let size = object
                .size_on(camera)
                .expect("replayed decision stays within the unchanged coverage set");
            latencies[camera.0] +=
                self.counts[camera.0].add_with_delta(size, problem.profile(camera));
            self.schedule.assignment.assign(ObjectId(j), camera);
        }

        // Run the shared greedy step from the first divergent position.
        self.decisions.truncate(start);
        for p in start..n {
            let j = order_key_index(self.next_order[p]);
            let object = &problem.objects()[j];
            let camera = greedy_place(&problem, object, latencies, &mut self.counts);
            self.schedule.assignment.assign(ObjectId(j), camera);
            self.decisions.push(camera);
        }

        self.schedule.priority.clear();
        self.schedule.priority.extend((0..m).map(CameraId));
        sort_priority(
            &mut self.schedule.priority,
            &self.schedule.camera_latencies_ms,
        );

        std::mem::swap(&mut self.order, &mut self.next_order);
        self.problem = Some(problem);
        self.last_was_warm = warm;
        if warm {
            self.stats.warm_solves += 1;
            self.stats.replayed_positions += start as u64;
        } else {
            self.stats.cold_solves += 1;
        }
        &self.schedule
    }

    /// Applies a frame-over-frame edit script to the stored instance and
    /// re-solves — the allocation-free steady-state entry point: no new
    /// instance is built, and only the edited objects' size maps are cloned.
    ///
    /// # Errors
    ///
    /// Propagates [`ProblemError`] when the delta is invalid for the stored
    /// instance; the solver then clears its state (the next solve is cold).
    ///
    /// # Panics
    ///
    /// Panics if no instance has been solved yet.
    pub fn apply_delta(&mut self, delta: &ProblemDelta) -> Result<&BalbSchedule, ProblemError> {
        let mut problem = self
            .problem
            .take()
            .expect("apply_delta requires a prior solve");

        // The previous instance is edited in place, so the prefix cannot be
        // found by comparing instances; derive it from the delta instead.
        // Positions strictly before the first one holding an edited object —
        // in both the old and the new scheduling order — carry the same
        // objects with the same size maps (dense re-indexing preserves the
        // survivors' relative order, and the index bits are only a sort
        // tie-break within groups whose membership did not change).
        let first_old_changed = self
            .order
            .iter()
            .position(|&key| {
                let id = ObjectId(order_key_index(key));
                delta.left.contains(&id) || delta.moved.iter().any(|(m, _)| *m == id)
            })
            .unwrap_or(self.order.len());

        if let Err(e) = delta.apply(&mut problem) {
            self.order.clear();
            self.decisions.clear();
            return Err(e);
        }

        // Post-apply dense ids of the edited survivors and of the entered
        // tail (a moved object also listed in `left` no longer exists).
        let n = problem.num_objects();
        let entered_start = n - delta.entered.len();
        let is_new_changed = |id: usize| {
            id >= entered_start
                || delta.moved.iter().any(|(m, _)| {
                    !delta.left.contains(m)
                        && id
                            == m.0
                                - delta
                                    .left
                                    .iter()
                                    .enumerate()
                                    .filter(|(i, l)| l.0 < m.0 && !delta.left[..*i].contains(l))
                                    .count()
                })
        };
        self.build_next_order(&problem);
        let first_new_changed = self
            .next_order
            .iter()
            .position(|&key| is_new_changed(order_key_index(key)))
            .unwrap_or(self.next_order.len());

        let shared = self.order.len().min(n).min(self.decisions.len());
        let prefix = first_old_changed.min(first_new_changed).min(shared);
        Ok(self.finish_solve(problem, prefix))
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
    use crate::{CameraInfo, ProblemConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    /// Bitwise schedule comparison: `PartialEq` would accept `-0.0 == 0.0`;
    /// the determinism contract is stronger.
    fn assert_bitwise_eq(warm: &BalbSchedule, cold: &BalbSchedule, ctx: &str) {
        assert_eq!(warm.assignment, cold.assignment, "{ctx}: assignment");
        assert_eq!(warm.priority, cold.priority, "{ctx}: priority");
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
        assert_eq!(warm_bits, cold_bits, "{ctx}: latency bits");
    }

    #[test]
    fn first_solve_is_cold_and_matches_central() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let p = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        assert_bitwise_eq(solver.solve(&p), &balb_central(&p), "first solve");
        assert!(!solver.last_solve_was_warm());
        assert_eq!(solver.stats().cold_solves, 1);
        assert_eq!(solver.stats().warm_solves, 0);
    }

    #[test]
    fn small_delta_takes_warm_path_bitwise_identically() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let p = MvsProblem::random(&mut rng, 4, 40, &ProblemConfig::default());
        // Threshold 1.0: warm-start whenever any prefix survives, so the
        // test pins down prefix replay rather than the fallback heuristic.
        let mut solver = BalbSolver::with_fallback_threshold(1.0);
        solver.solve(&p);
        // Give the last object full coverage: coverage-4 objects sort last
        // and id 39 is the largest, so the whole prefix before its old
        // position survives.
        let mut next = p.clone();
        let moved_sizes: BTreeMap<CameraId, SizeClass> =
            (0..4).map(|c| (CameraId(c), SizeClass::S64)).collect();
        let delta = ProblemDelta {
            moved: vec![(ObjectId(39), moved_sizes)],
            ..ProblemDelta::default()
        };
        delta.apply(&mut next).unwrap();
        let warm = solver.apply_delta(&delta).unwrap().clone();
        assert_bitwise_eq(&warm, &balb_central(&next), "after delta");
        assert!(
            solver.last_solve_was_warm(),
            "one edit in 40 must warm-start"
        );
        assert!(solver.stats().replayed_positions > 0);
    }

    #[test]
    fn identical_resolve_replays_every_position() {
        let mut rng = ChaCha8Rng::seed_from_u64(47);
        let p = MvsProblem::random(&mut rng, 3, 25, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        solver.solve(&p);
        let warm = solver
            .apply_delta(&ProblemDelta::default())
            .unwrap()
            .clone();
        assert_bitwise_eq(&warm, &balb_central(&p), "empty delta");
        assert!(solver.last_solve_was_warm());
        assert_eq!(solver.stats().replayed_positions, 25);
    }

    #[test]
    fn large_delta_falls_back_to_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let a = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let b = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        solver.solve(&a);
        let delta = ProblemDelta::between(&a, &b);
        assert!(delta.len() > 8, "random instances should differ widely");
        let s = solver.apply_delta(&delta).unwrap().clone();
        assert_bitwise_eq(&s, &balb_central(&b), "cold fallback");
        assert!(!solver.last_solve_was_warm());
        assert_eq!(solver.stats().cold_solves, 2);
    }

    #[test]
    fn camera_fleet_change_forces_cold_solve() {
        let mut rng = ChaCha8Rng::seed_from_u64(59);
        let p = MvsProblem::random(&mut rng, 4, 20, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        solver.solve(&p);
        // Same objects, different fleet profile order.
        let cameras: Vec<CameraInfo> = (0..4)
            .map(|i| CameraInfo {
                id: CameraId(i),
                profile: p.cameras()[3 - i].profile.clone(),
            })
            .collect();
        let objects = p.objects().to_vec();
        let q = MvsProblem::new(cameras, objects).unwrap();
        assert_bitwise_eq(solver.solve(&q), &balb_central(&q), "new fleet");
        assert!(!solver.last_solve_was_warm());
    }

    #[test]
    fn invalid_delta_leaves_solver_usable_and_cold() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let p = MvsProblem::random(&mut rng, 3, 15, &ProblemConfig::default());
        let mut solver = BalbSolver::new();
        solver.solve(&p);
        let bad = ProblemDelta {
            left: vec![ObjectId(99)],
            ..ProblemDelta::default()
        };
        assert_eq!(
            solver.apply_delta(&bad),
            Err(crate::ProblemError::UnknownObject(ObjectId(99)))
        );
        // The solver recovers with a cold solve.
        assert_bitwise_eq(solver.solve(&p), &balb_central(&p), "recovery");
        assert!(!solver.last_solve_was_warm());
    }

    #[test]
    #[should_panic(expected = "no solve has run yet")]
    fn schedule_before_first_solve_panics() {
        let _ = BalbSolver::new().schedule();
    }

    #[test]
    #[should_panic(expected = "fallback threshold")]
    fn rejects_invalid_threshold() {
        let _ = BalbSolver::with_fallback_threshold(1.5);
    }

    #[test]
    fn growth_and_shrink_sequences_stay_bitwise_identical() {
        // Steady churn: every step removes one object, moves one, adds one.
        let mut rng = ChaCha8Rng::seed_from_u64(67);
        let mut reference = MvsProblem::random(&mut rng, 4, 30, &ProblemConfig::default());
        let mut solver = BalbSolver::with_fallback_threshold(0.5);
        solver.solve(&reference);
        for step in 0..20 {
            // Full-coverage S64 objects sort at the very end of the
            // Algorithm-1 order, so churning the two latest-sorting objects
            // (drop one, move one there, enter one) keeps a long surviving
            // prefix and must take the warm path under the 0.5 threshold.
            let full_small: BTreeMap<CameraId, SizeClass> =
                (0..4).map(|c| (CameraId(c), SizeClass::S64)).collect();
            let mut ids: Vec<ObjectId> = reference.objects().iter().map(|o| o.id).collect();
            ids.sort_by_key(|id| {
                let o = &reference.objects()[id.0];
                (
                    o.coverage_len(),
                    SizeClass::COUNT - 1 - o.max_size().unwrap().index(),
                    o.id.0,
                )
            });
            let delta = ProblemDelta {
                left: vec![*ids.last().unwrap()],
                moved: vec![(ids[ids.len() - 2], full_small.clone())],
                entered: vec![full_small],
            };
            delta.apply(&mut reference).unwrap();
            let warm = solver.apply_delta(&delta).unwrap().clone();
            assert_bitwise_eq(&warm, &balb_central(&reference), &format!("step {step}"));
        }
        assert!(
            solver.stats().warm_solves >= 15,
            "tail churn of 3/30 objects should almost always warm-start: {:?}",
            solver.stats()
        );
        assert!(solver.stats().replayed_positions > 0);
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
