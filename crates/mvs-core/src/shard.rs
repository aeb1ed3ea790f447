//! Overlap-graph sharding of the central BALB solve, for city-scale fleets.
//!
//! The paper's deployments stop at a handful of cameras. City fleets are
//! not one dense blob: view overlap is local (cameras around the same
//! intersection), so the *camera overlap graph* decomposes into many small
//! components that can be scheduled independently. (Measured at 128
//! cameras, one [`balb_central`] call is still cheaper than building the
//! plan and solving per shard; see DESIGN.md §11.) This module provides:
//!
//! 1. [`OverlapGraph`] — cameras as nodes, an edge wherever two cameras can
//!    co-observe (built either from an instance's coverage sets or from
//!    view polygons via [`Polygon::intersects`]);
//! 2. [`ShardPlan`] — connected components as shards, with an optional
//!    max-shard-size split for pathologically dense districts;
//! 3. [`balb_sharded`] — independent per-shard BALB solves, run one after
//!    another on the calling thread and merged back into one
//!    deployment-wide [`BalbSchedule`];
//! 4. a cross-shard rebalance pass for objects whose coverage a forced
//!    split cut across shard boundaries.
//!
//! # Why sharding is exact on component shards
//!
//! When every shard is a whole connected component of the overlap graph
//! ([`ShardPlan::is_exact`]), the sharded schedule is **bitwise identical**
//! to [`balb_central`] — latencies compare equal under `f64::to_bits`:
//!
//! * every object's coverage set lies inside exactly one component, so the
//!   central greedy's per-object decision reads and writes only that
//!   component's latencies and batch counts — the central pass *is* an
//!   interleaving of independent per-component passes;
//! * Algorithm 1's scheduling order sorts by (coverage size, max crop size,
//!   object index); restricting to a component keeps objects in the same
//!   relative index order with unchanged coverage sizes and crop sizes, so
//!   each component's objects are visited in the same relative order either
//!   way ([`MvsProblem::restrict_to_cameras`] preserves relative order when
//!   it re-indexes densely);
//! * greedy tie-breaks compare latencies and camera *ids*; dense
//!   re-indexing is monotone in the original ids, so every comparison
//!   resolves identically;
//! * per-camera latency is the same sequence of f64 additions either way,
//!   hence bit-equal, and the global priority is one sort of the merged
//!   latencies — the same sort [`balb_central`] runs.
//!
//! A split component forfeits this guarantee for the objects it cuts: each
//! such *boundary object* is clipped to its home shard (the shard holding
//! most of its coverage) for the per-shard solves, then the rebalance pass
//! greedily moves boundary objects across shards whenever the move strictly
//! reduces the pairwise latency maximum — which can only lower (never
//! raise) the system latency relative to the clipped solution.

use crate::balb::{balb_central, greedy_place, order_key, order_key_index, sort_priority};
use crate::{Assignment, BalbSchedule, CameraId, MvsProblem, ObjectId, ObjectInfo};
use mvs_geometry::Polygon;
use mvs_vision::SizeCounts;
use std::collections::BTreeMap;

/// The camera view-overlap graph: one node per camera, an edge between two
/// cameras that can observe a common world region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlapGraph {
    /// Sorted, deduplicated neighbour lists (no self-loops).
    adj: Vec<Vec<usize>>,
}

impl OverlapGraph {
    /// Builds the graph from an instance's coverage sets: two cameras are
    /// adjacent iff some object of `problem` is visible to both. This is
    /// the graph the scheduler itself induces, so shards derived from it
    /// are always coverage-closed ([`ShardPlan::from_components`] on this
    /// graph is always exact).
    pub fn from_problem(problem: &MvsProblem) -> OverlapGraph {
        let mut adj = vec![Vec::new(); problem.num_cameras()];
        for object in problem.objects() {
            let coverage: Vec<CameraId> = object.coverage().collect();
            for (k, &a) in coverage.iter().enumerate() {
                for &b in &coverage[k + 1..] {
                    adj[a.0].push(b.0);
                    adj[b.0].push(a.0);
                }
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        OverlapGraph { adj }
    }

    /// Builds the graph from camera view polygons: two cameras are adjacent
    /// iff their ground-plane footprints intersect (exact separating-axis
    /// test). This is the *static* overlap structure of a deployment —
    /// independent of any particular frame's objects — used for scenario
    /// statistics and association-training pruning.
    pub fn from_polygons(polygons: &[Polygon]) -> OverlapGraph {
        let mut adj = vec![Vec::new(); polygons.len()];
        for a in 0..polygons.len() {
            for b in a + 1..polygons.len() {
                if polygons[a].intersects(&polygons[b]) {
                    adj[a].push(b);
                    adj[b].push(a);
                }
            }
        }
        OverlapGraph { adj }
    }

    /// Number of cameras (nodes).
    pub fn num_cameras(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether two cameras' views overlap.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn are_overlapping(&self, a: CameraId, b: CameraId) -> bool {
        assert!(b.0 < self.adj.len(), "camera id out of range");
        self.adj[a.0].binary_search(&b.0).is_ok()
    }

    /// Connected components, each as a sorted camera-id list; the component
    /// list itself is ordered by smallest member id. Deterministic.
    pub fn components(&self) -> Vec<Vec<CameraId>> {
        let mut seen = vec![false; self.adj.len()];
        let mut components = Vec::new();
        for start in 0..self.adj.len() {
            if seen[start] {
                continue;
            }
            let mut member_ids = self.bfs_order(start, &mut seen);
            member_ids.sort_unstable();
            components.push(member_ids.into_iter().map(CameraId).collect());
        }
        components
    }

    /// Whether the whole fleet forms a single overlap component.
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adj.len()];
        self.bfs_order(0, &mut seen).len() == self.adj.len()
    }

    /// Breadth-first traversal order from `start` over unseen nodes
    /// (neighbours visited in ascending id order, so the order — used for
    /// deterministic shard splitting — is a pure function of the graph).
    fn bfs_order(&self, start: usize, seen: &mut [bool]) -> Vec<usize> {
        let mut order = vec![start];
        seen[start] = true;
        let mut head = 0;
        while head < order.len() {
            let node = order[head];
            head += 1;
            for &next in &self.adj[node] {
                if !seen[next] {
                    seen[next] = true;
                    order.push(next);
                }
            }
        }
        order
    }
}

/// A partition of the camera fleet into solve shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Sorted camera ids per shard; shards ordered by smallest member id.
    shards: Vec<Vec<CameraId>>,
    /// Shard index per camera id.
    shard_of: Vec<usize>,
    /// Overlap components that had to be cut by the max-shard-size limit.
    split_components: usize,
}

impl ShardPlan {
    /// One shard per connected component — the exact plan: solving it with
    /// [`balb_sharded`] reproduces [`balb_central`] bitwise (see the module
    /// docs for the argument).
    pub fn from_components(graph: &OverlapGraph) -> ShardPlan {
        Self::build(graph, usize::MAX)
    }

    /// Component shards, but any component larger than `max_cameras` is cut
    /// into consecutive chunks of its (deterministic) breadth-first order.
    /// Splitting caps per-shard solve cost in pathologically dense
    /// districts at the price of exactness: objects whose coverage spans a
    /// cut are clipped to a home shard and later revisited by the
    /// cross-shard rebalance pass.
    ///
    /// # Panics
    ///
    /// Panics if `max_cameras` is zero.
    pub fn with_max_shard_size(graph: &OverlapGraph, max_cameras: usize) -> ShardPlan {
        assert!(max_cameras > 0, "shards need at least one camera");
        Self::build(graph, max_cameras)
    }

    fn build(graph: &OverlapGraph, max_cameras: usize) -> ShardPlan {
        let mut seen = vec![false; graph.num_cameras()];
        let mut shards: Vec<Vec<CameraId>> = Vec::new();
        let mut split_components = 0;
        for start in 0..graph.num_cameras() {
            if seen[start] {
                continue;
            }
            let order = graph.bfs_order(start, &mut seen);
            if order.len() > max_cameras {
                split_components += 1;
            }
            for chunk in order.chunks(max_cameras.min(order.len())) {
                let mut ids: Vec<usize> = chunk.to_vec();
                ids.sort_unstable();
                shards.push(ids.into_iter().map(CameraId).collect());
            }
        }
        shards.sort_by_key(|s| s[0]);
        let mut shard_of = vec![0usize; graph.num_cameras()];
        for (idx, shard) in shards.iter().enumerate() {
            for &c in shard {
                shard_of[c.0] = idx;
            }
        }
        ShardPlan {
            shards,
            shard_of,
            split_components,
        }
    }

    /// The shards: sorted camera-id lists, ordered by smallest member id.
    /// Together they partition `0..M` exactly.
    pub fn shards(&self) -> &[Vec<CameraId>] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Cameras in the largest shard (the per-shard solve-cost bound).
    pub fn largest_shard(&self) -> usize {
        self.shards.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Which shard a camera belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn shard_of(&self, camera: CameraId) -> usize {
        self.shard_of[camera.0]
    }

    /// True when every shard is a whole overlap component — the regime in
    /// which the sharded solve is provably bitwise-equal to the central
    /// one. A plan built by [`ShardPlan::from_components`] is always exact;
    /// one built by [`ShardPlan::with_max_shard_size`] is exact iff no
    /// component exceeded the limit.
    pub fn is_exact(&self) -> bool {
        self.split_components == 0
    }

    /// The shard holding the majority of `object`'s coverage set (ties to
    /// the lowest shard index) — where a boundary object is clipped to for
    /// the per-shard solves.
    fn home_shard(&self, object: &ObjectInfo) -> usize {
        let mut votes: BTreeMap<usize, usize> = BTreeMap::new();
        for camera in object.coverage() {
            *votes.entry(self.shard_of(camera)).or_insert(0) += 1;
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(shard, _)| shard)
            .expect("coverage sets are non-empty by problem validation")
    }

    /// Whether the object's coverage set crosses a shard boundary (only
    /// possible under a split plan).
    fn is_boundary(&self, object: &ObjectInfo) -> bool {
        let mut coverage = object.coverage();
        let first = self.shard_of(coverage.next().expect("non-empty coverage"));
        coverage.any(|c| self.shard_of(c) != first)
    }
}

/// Sharded solve: one independent BALB pass per shard, merged into a
/// deployment-wide schedule (plus the rebalance pass under a split plan).
///
/// Bitwise-equal to `balb_central(problem)` whenever `plan.is_exact()`.
///
/// # Examples
///
/// ```
/// use mvs_core::{balb_central, balb_sharded, MvsProblem, OverlapGraph, ProblemConfig, ShardPlan};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
/// let problem = MvsProblem::random(&mut rng, 6, 40, &ProblemConfig::default());
/// let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&problem));
/// let sharded = balb_sharded(&problem, &plan);
/// assert_eq!(sharded, balb_central(&problem));
/// ```
///
/// # Panics
///
/// Panics if the plan was built for a different fleet size.
pub fn balb_sharded(problem: &MvsProblem, plan: &ShardPlan) -> BalbSchedule {
    assert_eq!(
        plan.shard_of.len(),
        problem.num_cameras(),
        "shard plan was built for a different fleet"
    );
    let (assignment, latencies) = if plan.is_exact() {
        solve_exact(problem, plan)
    } else {
        solve_split(problem, plan)
    };
    let mut priority: Vec<CameraId> = (0..problem.num_cameras()).map(CameraId).collect();
    sort_priority(&mut priority, &latencies);
    BalbSchedule {
        assignment,
        camera_latencies_ms: latencies,
        priority,
    }
}

/// Zero-copy solve for exact (whole-component) plans: no sub-instance is
/// materialized. Every object's coverage set lies inside one shard, so
/// objects are bucketed by shard under their packed scheduling key, and
/// each shard sorts its bucket and replays the greedy pass *against the
/// original instance*, touching only its own cameras' latency and batch
/// entries. Per-bucket sorted order is the restriction of the global
/// scheduling order (packed keys are unique and comparisons don't cross
/// buckets), so this performs the exact sequence of [`greedy_place`] calls
/// of [`balb_central`] per component.
fn solve_exact(problem: &MvsProblem, plan: &ShardPlan) -> (Assignment, Vec<f64>) {
    let m = problem.num_cameras();
    let mut latencies: Vec<f64> = (0..m)
        .map(|i| problem.profile(CameraId(i)).full_frame_ms())
        .collect();
    let mut counts = vec![SizeCounts::new(); m];
    let mut assignment = Assignment::empty(problem.num_objects());
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); plan.num_shards()];
    for (j, object) in problem.objects().iter().enumerate() {
        let camera = object
            .coverage()
            .next()
            .expect("coverage sets are non-empty by problem validation");
        buckets[plan.shard_of(camera)].push(order_key(object, j));
    }
    for bucket in &mut buckets {
        bucket.sort_unstable();
        for &key in bucket.iter() {
            let object = &problem.objects()[order_key_index(key)];
            let camera = greedy_place(problem, object, &mut latencies, &mut counts);
            assignment.assign(object.id, camera);
        }
    }
    (assignment, latencies)
}

/// Solve under a split plan: boundary objects are clipped to their home
/// shard so each is solved exactly once, every shard's sub-instance is
/// solved with [`balb_central`] and lifted back onto deployment ids, and
/// the cross-shard rebalance pass then revisits the boundary objects.
fn solve_split(problem: &MvsProblem, plan: &ShardPlan) -> (Assignment, Vec<f64>) {
    let objects = problem
        .objects()
        .iter()
        .map(|o| {
            let mut clipped = o.clone();
            if plan.is_boundary(o) {
                let home = plan.home_shard(o);
                clipped.sizes.retain(|c, _| plan.shard_of(*c) == home);
            }
            clipped
        })
        .collect();
    let clipped = MvsProblem::new(problem.cameras().to_vec(), objects)
        .expect("clipping keeps instances valid");
    let mut assignment = Assignment::empty(problem.num_objects());
    // Shards partition the fleet, so every latency entry is overwritten.
    let mut latencies = vec![0.0; problem.num_cameras()];
    for shard in plan.shards() {
        let sub = clipped
            .restrict_to_cameras(shard)
            .expect("shards are non-empty by construction");
        let schedule = balb_central(&sub.problem);
        for (new, &orig) in sub.cameras.iter().enumerate() {
            latencies[orig.0] = schedule.camera_latencies_ms[new];
        }
        for (new, &orig) in sub.objects.iter().enumerate() {
            for &owner in schedule.assignment.owners_of(ObjectId(new)) {
                assignment.assign(orig, sub.original_camera(owner));
            }
        }
    }
    rebalance(problem, plan, &mut assignment, &mut latencies);
    (assignment, latencies)
}

/// Cross-shard rebalance: one deterministic pass over boundary objects in
/// ascending id order, moving an object from its owner to any covering
/// camera (in any shard) whenever the move *strictly* reduces the pairwise
/// latency maximum of the two cameras. Each accepted move leaves every
/// other camera untouched, so the system latency never increases; an object
/// is only ever placed on a camera in its coverage set.
fn rebalance(
    problem: &MvsProblem,
    plan: &ShardPlan,
    assignment: &mut Assignment,
    latencies: &mut [f64],
) {
    let mut counts: Vec<SizeCounts> = (0..problem.num_cameras())
        .map(|i| assignment.size_counts(problem, CameraId(i)))
        .collect();
    for object in problem.objects() {
        if !plan.is_boundary(object) {
            continue;
        }
        let owners = assignment.owners_of(object.id);
        // The rebalance targets the paper's single-owner schedules; an
        // object something else multi-assigned is left alone.
        let &[from] = owners else { continue };
        let from_size = object.size_on(from).expect("owners cover their objects");
        let from_profile = problem.profile(from);
        // Hypothetical removal (counts are Copy — trial on a scratch copy).
        let mut from_counts = counts[from.0];
        let from_after = latencies[from.0] - from_counts.remove_with_delta(from_size, from_profile);
        // Best strictly-improving destination, ties to the lowest camera id.
        let mut best: Option<(f64, CameraId, f64)> = None;
        for to in object.coverage() {
            if to == from {
                continue;
            }
            let to_size = object.size_on(to).expect("coverage yields covered cameras");
            let mut to_counts = counts[to.0];
            let to_after = latencies[to.0] + to_counts.add_with_delta(to_size, problem.profile(to));
            let pair_after = from_after.max(to_after);
            let pair_before = latencies[from.0].max(latencies[to.0]);
            if pair_after < pair_before
                && best.is_none_or(|(b, c, _)| pair_after < b || (pair_after == b && to < c))
            {
                best = Some((pair_after, to, to_after));
            }
        }
        if let Some((_, to, to_after)) = best {
            let to_size = object.size_on(to).expect("chosen from coverage");
            counts[from.0].remove(from_size);
            counts[to.0].add(to_size);
            latencies[from.0] = from_after;
            latencies[to.0] = to_after;
            assignment.unassign(object.id, from);
            assignment.assign(object.id, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CameraInfo, ObjectId, ProblemConfig};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn camera(i: usize, device: DeviceKind) -> CameraInfo {
        CameraInfo {
            id: CameraId(i),
            profile: LatencyProfile::for_device(device),
        }
    }

    fn object(j: usize, coverage: &[(usize, SizeClass)]) -> ObjectInfo {
        ObjectInfo {
            id: ObjectId(j),
            sizes: coverage.iter().map(|&(c, s)| (CameraId(c), s)).collect(),
        }
    }

    /// Two independent 2-camera islands plus an isolated camera.
    fn island_problem() -> MvsProblem {
        MvsProblem::new(
            vec![
                camera(0, DeviceKind::Xavier),
                camera(1, DeviceKind::Nano),
                camera(2, DeviceKind::Tx2),
                camera(3, DeviceKind::Nano),
                camera(4, DeviceKind::Xavier),
            ],
            vec![
                object(0, &[(0, SizeClass::S128), (1, SizeClass::S64)]),
                object(1, &[(1, SizeClass::S256)]),
                object(2, &[(2, SizeClass::S64), (3, SizeClass::S128)]),
                object(3, &[(3, SizeClass::S64)]),
                object(4, &[(2, SizeClass::S512)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coverage_graph_components_are_deterministic_islands() {
        let p = island_problem();
        let g = OverlapGraph::from_problem(&p);
        assert_eq!(g.num_cameras(), 5);
        assert_eq!(g.num_edges(), 2);
        assert!(g.are_overlapping(CameraId(0), CameraId(1)));
        assert!(!g.are_overlapping(CameraId(1), CameraId(2)));
        assert!(!g.is_connected());
        let comps = g.components();
        assert_eq!(
            comps,
            vec![
                vec![CameraId(0), CameraId(1)],
                vec![CameraId(2), CameraId(3)],
                vec![CameraId(4)],
            ]
        );
    }

    #[test]
    fn polygon_graph_matches_pairwise_intersections() {
        let polys = vec![
            Polygon::view_wedge(mvs_geometry::Point2::new(0.0, 0.0), 0.0, 0.4, 2.0, 40.0),
            Polygon::view_wedge(
                mvs_geometry::Point2::new(30.0, 0.0),
                std::f64::consts::PI,
                0.4,
                2.0,
                40.0,
            ),
            Polygon::view_wedge(mvs_geometry::Point2::new(500.0, 0.0), 0.0, 0.4, 2.0, 40.0),
        ];
        let g = OverlapGraph::from_polygons(&polys);
        assert!(g.are_overlapping(CameraId(0), CameraId(1)));
        assert!(!g.are_overlapping(CameraId(0), CameraId(2)));
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn component_plan_is_exact_and_partitions() {
        let p = island_problem();
        let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&p));
        assert!(plan.is_exact());
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.largest_shard(), 2);
        assert_eq!(plan.shard_of(CameraId(3)), 1);
        let mut all: Vec<usize> = plan.shards().iter().flatten().map(|c| c.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn max_size_split_marks_plan_inexact() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let p = MvsProblem::random(
            &mut rng,
            8,
            60,
            &ProblemConfig {
                overlap_prob: 0.6,
                ..Default::default()
            },
        );
        let g = OverlapGraph::from_problem(&p);
        assert!(g.is_connected(), "dense instance should be one component");
        let plan = ShardPlan::with_max_shard_size(&g, 3);
        assert!(!plan.is_exact());
        assert!(plan.largest_shard() <= 3);
        assert!(plan.num_shards() >= 3);
        let mut all: Vec<usize> = plan.shards().iter().flatten().map(|c| c.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_equals_central_bitwise_on_islands() {
        let p = island_problem();
        let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&p));
        let central = balb_central(&p);
        let sharded = balb_sharded(&p, &plan);
        assert_eq!(sharded.assignment, central.assignment);
        assert_eq!(sharded.priority, central.priority);
        let bits = |s: &BalbSchedule| -> Vec<u64> {
            s.camera_latencies_ms.iter().map(|l| l.to_bits()).collect()
        };
        assert_eq!(bits(&sharded), bits(&central));
    }

    #[test]
    fn split_plan_rebalance_reduces_or_keeps_system_latency() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for case in 0..20 {
            let p = MvsProblem::random(
                &mut rng,
                9,
                70,
                &ProblemConfig {
                    overlap_prob: 0.5,
                    ..Default::default()
                },
            );
            let g = OverlapGraph::from_problem(&p);
            let plan = ShardPlan::with_max_shard_size(&g, 3);
            if plan.is_exact() {
                continue;
            }
            let sharded = balb_sharded(&p, &plan);
            assert!(sharded.assignment.is_feasible(&p), "case {case}");
            // Every owner can actually see its object.
            for o in p.objects() {
                let owners = sharded.assignment.owners_of(o.id);
                assert_eq!(owners.len(), 1, "case {case} object {}", o.id.0);
                assert!(
                    o.covered_by(owners[0]),
                    "case {case}: object {} assigned outside its coverage",
                    o.id.0
                );
            }
            // Reported latencies stay consistent with the assignment.
            for i in 0..p.num_cameras() {
                let recomputed = sharded.assignment.camera_latency_ms(&p, CameraId(i), true);
                assert!(
                    (recomputed - sharded.camera_latencies_ms[i]).abs() < 1e-6,
                    "case {case} camera {i}"
                );
            }
        }
    }
}
