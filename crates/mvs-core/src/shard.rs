//! The camera view-overlap graph, and the per-component form of the
//! central BALB solve.
//!
//! City fleets are not one dense blob: view overlap is local (cameras
//! around the same intersection), so the *camera overlap graph* decomposes
//! into many small components. This module provides:
//!
//! 1. [`OverlapGraph`] — cameras as nodes, an edge wherever two cameras can
//!    co-observe (built either from an instance's coverage sets or from
//!    view polygons via [`Polygon::intersects`]). Correspondence pruning
//!    and city generation read it;
//! 2. [`ShardPlan`] — its connected components as shards;
//! 3. [`balb_sharded`] — one greedy pass per shard, run one after another
//!    on the calling thread into one deployment-wide [`BalbSchedule`].
//!
//! Nothing in the pipeline solves per shard: measured at 128–1024 cameras
//! it is slower than one [`balb_central`](crate::balb_central) pass at
//! every size, plan cost in or out (DESIGN.md §11). The solve stays as the
//! executable form of the decomposition argument below, held to
//! `balb_central` bit for bit by this module's tests and
//! `tests/sharding.rs`.
//!
//! # Why the per-component solve is exact
//!
//! Every shard is a whole connected component of the overlap graph, so the
//! sharded schedule is **bitwise identical** to `balb_central` — latencies
//! compare equal under `f64::to_bits`:
//!
//! * every object's coverage set lies inside exactly one component, so the
//!   central greedy's per-object decision reads and writes only that
//!   component's latencies and batch counts — the central pass *is* an
//!   interleaving of independent per-component passes;
//! * Algorithm 1's scheduling order sorts by (coverage size, max crop size,
//!   object index); a component's objects are visited in the same relative
//!   order whether or not the other components' objects sit between them;
//! * greedy tie-breaks compare latencies and camera ids of one component
//!   only, so every comparison resolves identically;
//! * per-camera latency is the same sequence of f64 additions either way,
//!   hence bit-equal, and the global priority is one sort of the merged
//!   latencies — the same sort `balb_central` runs.

use crate::balb::{greedy_place, order_key, order_key_index, sort_priority};
use crate::{Assignment, BalbSchedule, CameraId, MvsProblem};
use mvs_geometry::Polygon;
use mvs_vision::SizeCounts;

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
    /// the graph the scheduler itself induces, so its components are
    /// always coverage-closed.
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

    /// Breadth-first traversal order from `start` over unseen nodes.
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

/// The camera fleet partitioned into the overlap graph's connected
/// components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Sorted camera ids per shard; shards ordered by smallest member id.
    shards: Vec<Vec<CameraId>>,
    /// Shard index per camera id.
    shard_of: Vec<usize>,
}

impl ShardPlan {
    /// One shard per connected component: solving it with [`balb_sharded`]
    /// reproduces `balb_central` bitwise (see the module docs for the
    /// argument).
    pub fn from_components(graph: &OverlapGraph) -> ShardPlan {
        let shards = graph.components();
        let mut shard_of = vec![0usize; graph.num_cameras()];
        for (idx, shard) in shards.iter().enumerate() {
            for &c in shard {
                shard_of[c.0] = idx;
            }
        }
        ShardPlan { shards, shard_of }
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

    /// Which shard a camera belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn shard_of(&self, camera: CameraId) -> usize {
        self.shard_of[camera.0]
    }
}

/// Per-component solve: one independent BALB pass per shard, merged into a
/// deployment-wide schedule. Bitwise-equal to `balb_central(problem)`.
///
/// No sub-instance is materialized. Every object's coverage set lies inside
/// one shard, so objects are bucketed by shard under their packed scheduling
/// key, and each shard sorts its bucket and replays the greedy pass *against
/// the original instance*, touching only its own cameras' latency and batch
/// entries. Per-bucket sorted order is the restriction of the global
/// scheduling order (packed keys are unique and comparisons don't cross
/// buckets), so this performs the exact sequence of `greedy_place` calls
/// of `balb_central` per component.
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
    let m = problem.num_cameras();
    assert_eq!(
        plan.shard_of.len(),
        m,
        "shard plan was built for a different fleet"
    );
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
    let mut priority: Vec<CameraId> = (0..m).map(CameraId).collect();
    sort_priority(&mut priority, &latencies);
    BalbSchedule {
        assignment,
        camera_latencies_ms: latencies,
        priority,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{balb_central, CameraInfo, ObjectId, ObjectInfo};
    use mvs_geometry::SizeClass;
    use mvs_vision::{DeviceKind, LatencyProfile};

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
    fn component_plan_partitions() {
        let p = island_problem();
        let plan = ShardPlan::from_components(&OverlapGraph::from_problem(&p));
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.shard_of(CameraId(3)), 1);
        let mut all: Vec<usize> = plan.shards().iter().flatten().map(|c| c.0).collect();
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
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
}
